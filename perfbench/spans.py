"""Span recording for the traced run, and a GC pause monitor for every run.

The tracer wraps the functions each layer exposes, at the lookup sites the
program actually uses, so nothing under ``src/`` changes:

- token system, client, contract, storage and baseline methods are replaced
  on their classes (the program calls them through instances);
- ``core.apply_update`` / ``simulate_update`` / ``witness_for_root`` are
  replaced on the ``core`` module, which ``storage`` looks them up through;
- ``belongs`` and ``check_update`` are replaced in ``erc20.contract`` and
  ``erc20.client``, which import them by name;
- ``meter_transaction`` is replaced in ``bench.scenario``, which imports it
  by name;
- ``hashlib`` is replaced in ``accumulator.hashing`` by a proxy that counts
  SHA-256 calls.

Each span gets an id (its index), its parent's id, a request id (the id of
the root span it runs under), a name, start and end times and the number of
SHA-256 calls made while it was open. Spans are kept in column arrays and
written out when the run ends.
"""

import gc
import gzip
import hashlib
import json
import sys
import time
from array import array

SPAN_NAMES = (
    "bench",
    "erc20.system",
    "erc20.client_build",
    "erc20.client_read",
    "erc20.contract",
    "storage.commit",
    "storage.build_update_witness",
    "storage.fetch_witness",
    "storage.lookup",
    "accumulator.apply_update",
    "accumulator.simulate_update",
    "accumulator.check_update",
    "accumulator.witness",
    "accumulator.belongs",
    "baseline",
    "gas.meter",
)

# (column name, array typecode); span id is the row index
COLUMNS = (
    ("parent", "i"),
    ("request", "i"),
    ("name", "B"),
    ("start", "d"),
    ("end", "d"),
    ("sha256", "i"),
)


class GcMonitor:
    """Total pause time and count of the collector's runs, via ``gc.callbacks``."""

    def __init__(self):
        self.pause_s = 0.0
        self.collections = 0
        self._started = 0.0

    def _callback(self, phase, _info):
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._started
            self.collections += 1

    def __enter__(self):
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *_exc):
        gc.callbacks.remove(self._callback)


class _CountingHashlib:
    """Stands in for ``hashlib`` inside ``accumulator.hashing``."""

    def __init__(self, counter: list):
        real = hashlib.sha256

        def sha256(data=b""):
            counter[0] += 1
            return real(data)

        self.sha256 = sha256


class Tracer:
    """Records spans around wrapped calls; aggregate with ``summary``."""

    def __init__(self):
        self.code = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.cols = {name: array(code) for name, code in COLUMNS}
        self.sha_counter = [0]
        self.bytes_served = 0
        self.accepted = 0
        self.bundle_bytes = 0
        self.verifications = 0
        self._stack = [-1]
        self._request = -1
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        code = self.code[name]
        stack = self._stack
        sha = self.sha_counter
        parent_col, request_col, name_col = self.cols["parent"], self.cols["request"], self.cols["name"]
        start_col, end_col, sha_col = self.cols["start"], self.cols["end"], self.cols["sha256"]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(name_col)
            parent = stack[-1]
            if parent < 0:
                self._request = sid
            parent_col.append(parent)
            request_col.append(self._request)
            name_col.append(code)
            start_col.append(0.0)
            end_col.append(0.0)
            sha_col.append(0)
            stack.append(sid)
            sha0 = sha[0]
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end_col[sid] = clock()
                start_col[sid] = t0
                sha_col[sid] = sha[0] - sha0
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    # -- installation -----------------------------------------------------------

    def _patch(self, owner, attr: str, name: str, after=None):
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, after))

    def _on_record(self, record):
        self.accepted += 1
        self.bundle_bytes += record.bundle_bytes
        self.verifications += record.verifications

    def _served(self, nbytes):
        self.bytes_served += nbytes

    def install(self):
        from acctoken.accumulator import core, hashing
        from acctoken.baseline import BaselineToken
        from acctoken.bench import scenario
        from acctoken.erc20 import client, contract, system
        from acctoken.storage import StorageNetwork

        for op in ("transfer", "approve", "transfer_from"):
            self._patch(system.TokenSystem, op, "erc20.system", self._on_record)
            self._patch(contract.AccTokenContract, op, "erc20.contract")
            self._patch(client.TokenClient, "build_" + op, "erc20.client_build")
            self._patch(BaselineToken, op, "baseline")
        for view in ("balance_of", "allowance"):
            self._patch(system.TokenSystem, view, "erc20.system")
            self._patch(client.TokenClient, view, "erc20.client_read")
            self._patch(BaselineToken, view, "baseline")
        self._patch(StorageNetwork, "commit", "storage.commit")
        self._patch(
            StorageNetwork, "build_update_witness", "storage.build_update_witness",
            lambda r: self._served(len(r[0]) + len(r[1])),
        )
        self._patch(StorageNetwork, "fetch_witness", "storage.fetch_witness", lambda r: self._served(len(r)))
        self._patch(StorageNetwork, "lookup", "storage.lookup", lambda r: self._served(sum(map(len, r))))
        self._patch(core, "apply_update", "accumulator.apply_update")
        self._patch(core, "simulate_update", "accumulator.simulate_update")
        self._patch(core, "witness_for_root", "accumulator.witness")
        for module in (contract, client):
            self._patch(module, "belongs", "accumulator.belongs")
            self._patch(module, "check_update", "accumulator.check_update")
        self._patch(scenario, "meter_transaction", "gas.meter")
        self._undo.append((hashing, "hashlib", hashing.hashlib))
        hashing.hashlib = _CountingHashlib(self.sha_counter)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *_exc):
        self.uninstall()

    # -- results ------------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, self time, inclusive time and SHA-256 calls (inclusive).

        Self time is a span's duration minus the durations of its child spans.
        """
        cols = self.cols
        names, parents = cols["name"], cols["parent"]
        starts, ends, shas = cols["start"], cols["end"], cols["sha256"]
        out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "sha256_calls": 0} for name in SPAN_NAMES}
        by_code = [out[name] for name in SPAN_NAMES]
        for sid in range(len(names)):
            entry = by_code[names[sid]]
            duration = ends[sid] - starts[sid]
            entry["calls"] += 1
            entry["self_s"] += duration
            entry["total_s"] += duration
            entry["sha256_calls"] += shas[sid]
            parent = parents[sid]
            if parent >= 0:
                by_code[names[parent]]["self_s"] -= duration
        return out

    def write(self, path: str):
        """Write all spans: one JSON header line, then each column's raw bytes, gzip-compressed."""
        header = {
            "spans": len(self.cols["name"]),
            "names": list(SPAN_NAMES),
            "columns": [[name, code] for name, code in COLUMNS],
            "byteorder": sys.byteorder,
        }
        with gzip.open(path, "wb", compresslevel=1) as out:
            out.write(json.dumps(header).encode() + b"\n")
            for name, _code in COLUMNS:
                self.cols[name].tofile(out)


def read_spans(path: str) -> tuple[dict, dict]:
    """Inverse of ``Tracer.write``: (header, {column name: array})."""
    with gzip.open(path, "rb") as handle:
        header = json.loads(handle.readline())
        cols = {}
        for name, code in header["columns"]:
            column = array(code)
            column.frombytes(handle.read(column.itemsize * header["spans"]))
            cols[name] = column
    return header, cols
