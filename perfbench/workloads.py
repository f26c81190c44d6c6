"""The benchmark's three workloads, their oracle checks and their metrics.

``growth`` runs the paper-figure pipeline: ``run_scenario`` over checkpoints
2^13..2^17 followed by ``tabulate`` under the flat and scaled schedules.
``verified_tx`` and ``read_mostly`` grow 2^13 accounts through the verified
path (a funded transfer plus an approval i -> i+1 per account) and then drive
one closed-loop client: each request waits for the previous one. Requests
reach the program only through ``TokenSystem.transfer / approve /
transfer_from / balance_of / allowance``; every verdict and every value read
is compared with a ``BaselineToken`` that receives the same requests.
"""

import bisect
import copy
import gc
import hashlib
import math
import random
import resource
import statistics
import time
from dataclasses import dataclass, field

from acctoken.baseline import BaselineToken
from acctoken.bench import Scenario, effective_allowances, effective_balances, make_address, run_scenario, tabulate
from acctoken.erc20 import TokenSystem
from acctoken.errors import AcctokenError
from acctoken.gas import GasSchedule

from calibrate import SpeedProbe
from spans import GcMonitor, Tracer

WORKLOADS = ("growth", "verified_tx", "read_mostly")

SUPPLY = 10**15
GRANT = 100
ALLOWANCE = 10**6
CONTRACT_WORDS = 4  # the paper's constant-state claim, deliberately not imported

GROWTH_CHECKPOINTS = tuple(2**k for k in range(13, 18))
GROWTH_OPS_PER_CHECKPOINT = 25
# growth's set-up is a pipeline run up to the first checkpoint, so imports,
# first calls and the allocator are warm before the timed run; repeated for a
# steady median
GROWTH_WARMUP_CHECKPOINTS = (2**13,)
GROWTH_SETUPS = 5

VERIFIED_ACCOUNTS = 2**13
TRACED_OPS = {"verified_tx": 3000, "read_mostly": 20000}
# peak RSS of a verified run is read after this many requests, not at the
# end: fresh destinations grow the state, and how many requests fit in
# --seconds depends on the machine's speed
RSS_REQUESTS = 1000

# verified_tx mix: the generate_workload weights
WRITE_WEIGHTS = (("transfer", 5), ("approve", 3), ("transfer_from", 2))
FRESH_DESTINATION_SHARE = 0.10
OVERSPEND_SHARE = 0.05  # of all writes, carried by transfers and transferFroms
# read_mostly: 90% verified reads, balance_of : allowance = 2 : 1, 80% of
# reads on the hot 1% of accounts
READ_SHARE = 0.90
HOT_ACCOUNT_SHARE = 0.01
HOT_READ_SHARE = 0.80

END_TO_END = {
    "setup_s": "s",
    "accounts_per_s": "1/s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# printed by name with their unit, but not part of the JSON result: each
# applies to some workloads only, and ops_failed_ratio is carried by the
# result's "attempted" and "failed" fields
REPORTED = {
    "transfer_p50_us": "us",
    "transfer_p99_us": "us",
    "approve_p50_us": "us",
    "approve_p99_us": "us",
    "transfer_from_p50_us": "us",
    "transfer_from_p99_us": "us",
    "read_p50_us": "us",
    "read_p99_us": "us",
    "ops_failed_ratio": "ratio",
    "gc_pause_s": "s",
    "gc_collections": "count",
}

_TIMED = {"calls": "count", "self_s": "s"}
_HASHED = {"calls": "count", "self_s": "s", "sha256_calls": "count"}
LAYER_SPANS = {
    "accumulator.apply_update": _TIMED,
    "accumulator.simulate_update": _TIMED,
    "accumulator.check_update": _TIMED,
    "accumulator.witness": _TIMED,
    "accumulator.belongs": _TIMED,
    "storage.commit": _HASHED,
    "storage.build_update_witness": _HASHED,
    "storage.fetch_witness": _HASHED,
    "storage.lookup": _TIMED,
    "erc20.client_build": _HASHED,
    "erc20.client_read": _HASHED,
    "erc20.contract": _HASHED,
    "erc20.system": _TIMED,
    "baseline": _TIMED,
    "gas.meter": _TIMED,
}
PER_LAYER = {f"{span}.{stat}": unit for span, stats in LAYER_SPANS.items() for stat, unit in stats.items()}
PER_LAYER.update({
    "accumulator.sha256_calls": "count",
    "storage.bytes_served": "bytes",
    "storage.commits_per_update_build": "ratio",
    "erc20.proof_bytes_per_tx": "bytes",
    "erc20.verifications_per_tx": "count",
    "erc20.accepted_per_bundle": "ratio",
    "gas.flat.transfer_mean": "gas",
    "gas.flat.approve_mean": "gas",
    "gas.flat.transferFrom_mean": "gas",
    "bench.self_s": "s",
    "runtime.gc_pause_s": "s",
    "runtime.gc_collections": "count",
    "trace.overhead_ratio": "ratio",
})

# per-layer values that must repeat exactly across traced runs of one seed
DETERMINISTIC = tuple(
    name for name in PER_LAYER
    if name.endswith((".calls", "sha256_calls"))
    or name in ("storage.bytes_served", "erc20.proof_bytes_per_tx", "erc20.verifications_per_tx")
    or name.startswith("gas.flat.")
)


@dataclass
class Outcome:
    """What one run measured and whether the program's outputs were correct."""

    workload: str
    seed: int
    trace: bool
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    digest: str = ""  # sha256 of the generated requests (growth: of its flat gas table)
    spans: Tracer | None = None

    def check(self, ok: bool, problem: str):
        if not ok:
            self.problems.append(problem)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- growth ----------------------------------------------------------------------

def _pipeline(scenario: Scenario):
    run = run_scenario(scenario)
    return run, tabulate(run, GasSchedule()), tabulate(run, GasSchedule().scaled())


def _check_growth(out: Outcome, scenario: Scenario, run, flat, scaled):
    out.attempted += sum(len(cp.samples) for cp in run.checkpoints) + run.dropped
    out.failed += run.dropped
    out.check(run.dropped == 0, f"{run.dropped} sampled transactions dropped")
    out.check(
        run.conservation_checks == len(scenario.checkpoints),
        f"{run.conservation_checks} integrity checks for {len(scenario.checkpoints)} checkpoints",
    )
    grid = {(op, n) for op in ("transfer", "approve", "transferFrom") for n in scenario.checkpoints}
    for cp in run.checkpoints:
        for op in ("transfer", "approve", "transferFrom"):
            got = sum(1 for s in cp.samples if s.op == op)
            out.check(
                got == scenario.ops_per_checkpoint,
                f"{got} {op} samples at n={cp.n_accounts}, expected {scenario.ops_per_checkpoint}",
            )
    for label, rows in (("flat", flat), ("scaled", scaled)):
        out.check({(r.op, r.n_accounts) for r in rows} == grid, f"{label} table misses (op, checkpoint) rows")
        out.check(all(r.gas_mean > 0 and r.proof_bytes_mean > 0 for r in rows), f"{label} table has empty rows")


def run_growth(
    seed: int,
    trace: bool,
    checkpoints: tuple[int, ...] = GROWTH_CHECKPOINTS,
    ops_per_checkpoint: int = GROWTH_OPS_PER_CHECKPOINT,
    warmup: tuple[int, ...] = GROWTH_WARMUP_CHECKPOINTS,
) -> Outcome:
    out = Outcome("growth", seed, trace)
    warm = Scenario(token="acc", checkpoints=warmup, ops_per_checkpoint=ops_per_checkpoint, seed=seed)
    scenario = Scenario(token="acc", checkpoints=checkpoints, ops_per_checkpoint=ops_per_checkpoint, seed=seed)
    setups = []
    with SpeedProbe() as probe:
        for _ in range(GROWTH_SETUPS):
            gc.collect()  # each set-up starts from the same heap
            t0 = probe.now()
            result = _pipeline(warm)
            setups.append((t0, probe.now()))
            _check_growth(out, warm, *result)
    out.attempted = out.failed = 0  # set-up runs are checked, not counted

    if trace:
        gc.collect()
        t0 = time.perf_counter()
        _pipeline(scenario)
        untraced = time.perf_counter() - t0
        gc.collect()
        tracer = Tracer()
        with GcMonitor() as gcm, tracer:
            t0 = time.perf_counter()
            run, flat, scaled = tracer.wrap("bench", _pipeline)(scenario)
            traced = time.perf_counter() - t0
        _check_growth(out, scenario, run, flat, scaled)
        top = {r.op: r.gas_mean for r in flat if r.n_accounts == checkpoints[-1]}
        out.metrics.update(_layer_metrics(tracer, gcm, traced / untraced, top))
        out.spans = tracer
    else:
        # one pass: the pipeline is fixed work (about 50 s), so --seconds does not apply
        with GcMonitor() as gcm, SpeedProbe() as timed:
            t0 = timed.now()
            run, flat, scaled = _pipeline(scenario)
            t1 = timed.now()
        _check_growth(out, scenario, run, flat, scaled)
        sampled = sum(len(cp.samples) for cp in run.checkpoints)
        pipeline_s = timed.normalised(t0, t1)
        out.metrics.update({
            "setup_s": statistics.median(probe.normalised(*setup) for setup in setups),
            "accounts_per_s": checkpoints[-1] / pipeline_s,
            # each grown account is one funded transfer plus one approval
            "ops_per_s": (2 * checkpoints[-1] + sampled) / pipeline_s,
            "gc_pause_s": gcm.pause_s,
            "gc_collections": gcm.collections,
        })
        out.notes.append(f"pipeline {t1 - t0:.3f} s measured, x{pipeline_s / (t1 - t0):.4f} to reference speed")
    out.digest = hashlib.sha256(repr(flat).encode()).hexdigest()
    out.metrics["ops_failed_ratio"] = out.failed / out.attempted
    out.metrics["peak_rss_mb"] = peak_rss_mb()
    return out


# -- verified workloads ------------------------------------------------------------

def populate(token, addresses: list[bytes], n: int):
    """The verified workloads' starting state: n funded accounts, i approves i+1."""
    for i in range(1, n + 1):
        token.transfer(addresses[0], addresses[i], GRANT)
        token.approve(addresses[i], addresses[i + 1], ALLOWANCE)
    return token


class Requests:
    """Seeded closed-loop request stream over accounts 1..n.

    Overspend amounts are drawn from the oracle's current state, so the
    stream must be consumed in step with the oracle it was given.
    """

    def __init__(self, workload: str, seed: int, addresses: list[bytes], n: int, oracle: BaselineToken):
        self.rng = random.Random(f"{workload}:{seed}")
        self.addresses = addresses
        self.n = n
        self.oracle = oracle
        self.read_share = READ_SHARE if workload == "read_mostly" else 0.0
        hot = self.rng.sample(range(1, n + 1), max(1, round(n * HOT_ACCOUNT_SHARE)))
        self.hot = sorted(hot)
        self.kinds = [kind for kind, weight in WRITE_WEIGHTS for _ in range(weight)]
        overspending = sum(w for kind, w in WRITE_WEIGHTS if kind != "approve")
        self.overspend = OVERSPEND_SHARE * sum(w for _, w in WRITE_WEIGHTS) / overspending

    def _account(self) -> int:
        return self.rng.randrange(1, self.n + 1)

    def _destination(self, avoid: int) -> bytes:
        if self.rng.random() < FRESH_DESTINATION_SHARE:
            # a never-funded account: the fresh-destination variant
            self.addresses.append(make_address(len(self.addresses)))
            return self.addresses[-1]
        dst = self._account()
        while dst == avoid:
            dst = self._account()
        return self.addresses[dst]

    def _amount(self, owner: bytes) -> int:
        if self.rng.random() < self.overspend:
            return self.oracle.balance_of(owner) + 1 + self.rng.randrange(10)
        return self.rng.randrange(1, 6)

    def next(self) -> tuple[str, tuple]:
        rng, a = self.rng, self.addresses
        if rng.random() < self.read_share:
            owner = rng.choice(self.hot) if rng.random() < HOT_READ_SHARE else self._account()
            if rng.random() < 2 / 3:
                return "balance_of", (a[owner],)
            return "allowance", (a[owner], a[owner + 1])
        kind = rng.choice(self.kinds)
        owner = self._account()
        if kind == "transfer":
            to = self._destination(owner)
            return kind, (a[owner], to, self._amount(a[owner]))
        if kind == "approve":
            # half refresh the set-up pair (update variant), half open a new
            # pair (first-approval variant)
            spender = owner + 1 if rng.random() < 0.5 else self._account()
            if spender == owner:
                spender += 1
            return kind, (a[owner], a[spender], rng.randrange(1000, ALLOWANCE))
        to = self._destination(owner)
        return kind, (a[owner + 1], a[owner], to, self._amount(a[owner]))


def _call(token, kind: str, args: tuple):
    """(verdict, value): verdict None when accepted, else the error class."""
    try:
        return None, getattr(token, kind)(*args)
    except AcctokenError as exc:
        return type(exc), None


class Client:
    """One closed-loop client; times each request and checks it against the oracle."""

    def __init__(self, system: TokenSystem, oracle: BaselineToken, requests: Requests, tamper_at: int | None,
                 clock=time.perf_counter):
        self.system = system
        self.clock = clock
        self.oracle = oracle
        self.requests = requests
        self.tamper_at = tamper_at
        self.latencies: dict[str, list[float]] = {k: [] for k in ("transfer", "approve", "transfer_from", "read")}
        self.busy = 0.0
        self.starts: list[float] = []  # clock time and duration of every request
        self.durations: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.accepted_writes = 0
        self.first_mismatch: str | None = None
        self.inputs = hashlib.sha256()

    def step(self):
        kind, args = self.requests.next()
        self.inputs.update(repr((kind, args)).encode())
        t0 = self.clock()
        try:
            verdict, value = _call(self.system, kind, args)
        except Exception as exc:  # a crash is a failed request, not the end of the run
            verdict, value = exc, None
        elapsed = self.clock() - t0
        self.busy += elapsed
        self.starts.append(t0)
        self.durations.append(elapsed)
        self.attempted += 1
        reading = kind in ("balance_of", "allowance")
        if self.tamper_at is not None and self.attempted > self.tamper_at and not reading and verdict is None:
            # planted divergence for the self-test: the oracle sees one more
            # token than the program in one op the program accepted
            args = args[:-1] + (args[-1] + 1,)
            self.tamper_at = None
        expected, want = _call(self.oracle, kind, args)
        if verdict is not expected or (reading and value != want):
            self.failed += 1
            if self.first_mismatch is None:
                shown = ", ".join(a.hex()[:12] if isinstance(a, bytes) else str(a) for a in args)
                self.first_mismatch = f"{kind}({shown}): got {verdict!r}/{value!r}, oracle {expected!r}/{want!r}"
        elif verdict is None:
            self.latencies["read" if reading else kind].append(elapsed)
            self.accepted_writes += not reading

    def run_for(self, seconds: float):
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            self.step()

    def run_count(self, count: int):
        for _ in range(count):
            self.step()


def _final_checks(out: Outcome, system: TokenSystem, oracle: BaselineToken, logged_ops: int):
    out.check(effective_balances(system) == effective_balances(oracle), "balances differ from the oracle")
    out.check(effective_allowances(system) == effective_allowances(oracle), "allowances differ from the oracle")
    for token in (system, oracle):
        try:
            token.check_conservation()
        except AssertionError as exc:
            out.problems.append(f"{type(token).__name__} conservation: {exc}")
    out.check(system.persistent_key_count() == CONTRACT_WORDS, "contract state is not four words")
    out.check(
        len(system.contract.logs) == logged_ops,
        f"{len(system.contract.logs)} contract logs for {logged_ops} accepted ops and the deployment",
    )


def run_verified(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    n_accounts: int = VERIFIED_ACCOUNTS,
    traced_ops: int | None = None,
    tamper_at: int | None = None,
) -> Outcome:
    out = Outcome(workload, seed, trace)
    addresses = [make_address(i) for i in range(n_accounts + 2)]
    # one set-up per run: at about 13 s it is long enough on its own, and a
    # second would add as much again to every run
    with SpeedProbe() as probe:
        t0 = probe.now()
        system = populate(TokenSystem(addresses[0], SUPPLY), addresses, n_accounts)
        setup = (t0, probe.now())
    oracle = populate(BaselineToken.deploy(addresses[0], SUPPLY, keep_logs=False), addresses, n_accounts)
    setup_logs = 1 + 2 * n_accounts
    _final_checks(out, system, oracle, setup_logs)
    if out.problems:
        out.problems.insert(0, "set-up state disagrees with the oracle")
        return out

    if trace:
        count = traced_ops or TRACED_OPS[workload]
        twin_system, twin_oracle = copy.deepcopy((system, oracle))
        reference = Client(twin_system, twin_oracle, Requests(workload, seed, list(addresses), n_accounts, twin_oracle), None)
        gc.collect()
        t0 = time.perf_counter()
        reference.run_count(count)
        untraced = time.perf_counter() - t0
        del reference, twin_system, twin_oracle
        client = Client(system, oracle, Requests(workload, seed, addresses, n_accounts, oracle), tamper_at)
        tracer = Tracer()
        gc.collect()
        step = tracer.wrap("bench", client.step)
        with GcMonitor() as gcm, tracer:
            t0 = time.perf_counter()
            for _ in range(count):
                step()
            traced = time.perf_counter() - t0
        out.metrics.update(_layer_metrics(tracer, gcm, traced / untraced, {}))
        out.metrics["peak_rss_mb"] = peak_rss_mb()
        out.spans = tracer
        out.notes.append(_layer_split(tracer))
    else:
        requests = Requests(workload, seed, addresses, n_accounts, oracle)
        with GcMonitor() as gcm, SpeedProbe() as timed:
            client = Client(system, oracle, requests, tamper_at, clock=timed.now)
            started = time.perf_counter()
            t0 = timed.now()
            client.run_count(RSS_REQUESTS)
            rss = peak_rss_mb()
            client.run_for(seconds - (time.perf_counter() - started))
            loop = (t0, timed.now())
        # each request at the speed of its window, then one loop-wide factor
        # for the latency percentiles
        windows = timed.windows(*loop)
        cuts = [a for a, _, _ in windows[1:]]
        busy = sum(d * windows[bisect.bisect_right(cuts, t)][2] for t, d in zip(client.starts, client.durations))
        scale = busy / client.busy
        setup_s = probe.normalised(*setup)
        out.notes.append(
            f"set-up {setup[1] - setup[0]:.3f} s measured, x{setup_s / (setup[1] - setup[0]):.4f} to reference speed; "
            f"request loop x{scale:.4f}"
        )
        out.metrics.update({
            "setup_s": setup_s,
            # the verified set-up creates one account per funded transfer plus approval
            "accounts_per_s": n_accounts / setup_s,
            "ops_per_s": client.attempted / busy,
            "peak_rss_mb": rss,
            "gc_pause_s": gcm.pause_s,
            "gc_collections": gcm.collections,
        })
        for kind, samples in client.latencies.items():
            if samples:
                samples.sort()
                out.metrics[f"{kind}_p50_us"] = percentile(samples, 0.50) * scale * 1e6
                out.metrics[f"{kind}_p99_us"] = percentile(samples, 0.99) * scale * 1e6
                out.notes.append(f"accepted {kind}: {len(samples)} samples")

    out.attempted, out.failed = client.attempted, client.failed
    if client.first_mismatch:
        out.problems.append("first oracle mismatch: " + client.first_mismatch)
    _final_checks(out, system, oracle, setup_logs + client.accepted_writes)
    out.digest = client.inputs.hexdigest()
    out.metrics["ops_failed_ratio"] = out.failed / out.attempted
    return out


# -- per-layer metrics ----------------------------------------------------------------

def _layer_metrics(tracer: Tracer, gcm: GcMonitor, overhead: float, flat_gas: dict) -> dict:
    spans = tracer.summary()
    metrics = {}
    for span, stats in LAYER_SPANS.items():
        for stat in stats:
            metrics[f"{span}.{stat}"] = spans[span][stat]
    builds = spans["storage.build_update_witness"]["calls"]
    bundles = spans["erc20.client_build"]["calls"]
    accepted = tracer.accepted
    metrics.update({
        "accumulator.sha256_calls": tracer.sha_counter[0],
        "storage.bytes_served": tracer.bytes_served,
        "storage.commits_per_update_build": spans["storage.commit"]["calls"] / builds if builds else 0.0,
        "erc20.proof_bytes_per_tx": tracer.bundle_bytes / accepted if accepted else 0.0,
        "erc20.verifications_per_tx": tracer.verifications / accepted if accepted else 0.0,
        "erc20.accepted_per_bundle": accepted / bundles if bundles else 0.0,
        "gas.flat.transfer_mean": flat_gas.get("transfer", 0.0),
        "gas.flat.approve_mean": flat_gas.get("approve", 0.0),
        "gas.flat.transferFrom_mean": flat_gas.get("transferFrom", 0.0),
        "bench.self_s": spans["bench"]["self_s"],
        "runtime.gc_pause_s": gcm.pause_s,
        "runtime.gc_collections": gcm.collections,
        "trace.overhead_ratio": overhead,
    })
    return metrics


def _layer_split(tracer: Tracer) -> str:
    """Inclusive time of client build, contract and commit, as shares of their sum."""
    spans = tracer.summary()
    parts = {
        "client build": spans["erc20.client_build"]["total_s"],
        "contract": spans["erc20.contract"]["total_s"],
        "commit": spans["storage.commit"]["total_s"],
    }
    total = sum(parts.values()) or 1.0
    shares = " / ".join(f"{name} {100 * value / total:.1f}%" for name, value in parts.items())
    per_tx = tracer.sha_counter[0] / tracer.accepted if tracer.accepted else 0.0
    return f"layer split {shares}; sha256 calls per accepted write {per_tx:.1f}"


def run(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    if workload == "growth":
        return run_growth(seed, trace)
    return run_verified(workload, seed, seconds, trace)
