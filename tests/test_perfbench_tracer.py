"""The traced benchmark run patches the program by name; those names must exist.

``perfbench/spans.py`` wraps methods and module functions of the program at
the lookup sites it calls them through. Renaming one of them would break
only a ``--trace 1`` run, so this installs the tracer, runs one verified
transfer under it, and uninstalls it again.
"""

import importlib.util
from pathlib import Path

from acctoken.erc20 import TokenSystem
from acctoken.gas import HASH

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

A = bytes.fromhex("aa" * 20)
B = bytes.fromhex("bb" * 20)


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_records_and_uninstalls():
    tracer = load_spans().Tracer()
    try:
        tracer.install()  # raises AttributeError on a name the program no longer has
        patched = list(tracer._undo)
        assert all(getattr(owner, attr) is not original for owner, attr, original in patched)
        system = TokenSystem(A, 1000)
        record = system.transfer(A, B, 10)
        assert system.balance_of(B) == 10
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is original for owner, attr, original in patched)
    summary = tracer.summary()
    for name in ("erc20.system", "erc20.client_build", "erc20.client_read", "erc20.contract",
                 "storage.commit", "storage.build_update_witness", "storage.fetch_witness", "storage.lookup",
                 "accumulator.apply_update", "accumulator.simulate_update", "accumulator.check_update",
                 "accumulator.witness", "accumulator.belongs"):
        assert summary[name]["calls"] > 0, name
    assert tracer.accepted == 1 and tracer.sha_counter[0] > 0
    # the counts come from swapping ``hashlib`` in ``accumulator.hashing``; a
    # hash made around that name would go uncounted here
    metered = sum(1 for kind, _arg in record.trace.events if kind == HASH)
    assert summary["erc20.contract"]["sha256_calls"] == metered > 0
    for name in ("storage.build_update_witness", "erc20.client_build"):
        assert summary[name]["sha256_calls"] > 0, name
