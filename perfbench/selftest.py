"""Self-test of the benchmark: its checks fire, its counts repeat, its seed matters.

    python3 perfbench/selftest.py          # small populations, about 15 s
    python3 perfbench/selftest.py --full   # determinism at the benchmark's own sizes

Checks, each printed as PASS or FAIL (the exit code is 1 on any FAIL):

- BENCHMARK.json names exactly the workloads and metrics the code reports,
  with the same units;
- an untraced run of each workload passes its checks and reports every
  end-to-end metric, none of them 0;
- a planted divergence (one oracle op altered by one token) makes the oracle
  check fail, while the same run without it passes;
- two traced runs on one seed give identical deterministic counts (calls,
  SHA-256 calls, bytes served, proof bytes and verifications per tx, flat
  gas), and a different seed changes the generated inputs;
- a span file written at the end of a traced run reads back unchanged.
"""

import argparse
import json
import os
import sys

from run import OUT, import_program

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

SMALL_VERIFIED = {"n_accounts": 256, "traced_ops": 600}
SMALL_GROWTH = {"checkpoints": (512, 1024), "ops_per_checkpoint": 10, "warmup": (64,)}


def report(ok: bool, what: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    return ok


def check_benchmark_json(workloads) -> bool:
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        spec = json.load(handle)
    ok = report([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS), "BENCHMARK.json workloads")
    for key, code in (("end_to_end", workloads.END_TO_END), ("per_layer", workloads.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        ok &= report(listed == code, f"BENCHMARK.json {key} names and units match the code")
    return ok


def check_untraced(workloads) -> bool:
    ok = True
    runs = {
        "growth": workloads.run_growth(5, False, **SMALL_GROWTH),
        "verified_tx": workloads.run_verified("verified_tx", 5, 0.5, False, n_accounts=128),
        "read_mostly": workloads.run_verified("read_mostly", 5, 0.5, False, n_accounts=128),
    }
    for name, outcome in runs.items():
        zero = sorted(m for m in workloads.END_TO_END if not outcome.metrics.get(m))
        ok &= report(outcome.correct and not zero, f"{name}: untraced run passes, no end-to-end metric missing or 0 {zero}")
    return ok


def check_planted_divergence(workloads) -> bool:
    ok = True
    for workload in ("verified_tx", "read_mostly"):
        clean = workloads.run_verified(workload, 5, 0.5, False, n_accounts=128)
        ok &= report(clean.correct, f"{workload}: unaltered oracle agrees ({clean.attempted} requests)")
        planted = workloads.run_verified(workload, 5, 0.5, False, n_accounts=128, tamper_at=20)
        ok &= report(
            not planted.correct and bool(planted.problems),
            f"{workload}: one altered oracle op is caught: {planted.problems[:1]}",
        )
    return ok


def _counts(outcome, workloads) -> dict:
    return {name: outcome.metrics[name] for name in workloads.DETERMINISTIC}


def check_determinism(workloads, full: bool) -> bool:
    ok = True
    runs = {
        "growth": lambda seed: workloads.run_growth(seed, True, **({} if full else SMALL_GROWTH)),
    }
    for name in ("verified_tx", "read_mostly"):
        runs[name] = lambda seed, name=name: workloads.run_verified(name, seed, 0, True, **({} if full else SMALL_VERIFIED))
    for name, run in runs.items():
        first, second, other = run(11), run(11), run(12)
        ok &= report(first.correct and second.correct and other.correct, f"{name}: traced runs pass the oracle checks")
        a, b = _counts(first, workloads), _counts(second, workloads)
        differing = sorted(k for k in a if a[k] != b[k])
        ok &= report(not differing, f"{name}: {len(a)} deterministic counts repeat on one seed {differing}")
        ok &= report(first.digest == second.digest, f"{name}: same seed, same inputs")
        ok &= report(first.digest != other.digest, f"{name}: another seed, other inputs")
    return ok


def check_span_file(first_traced) -> bool:
    from spans import read_spans

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "selftest-spans.bin.gz")
    first_traced.spans.write(path)
    header, cols = read_spans(path)
    os.remove(path)
    same = all(cols[name] == column for name, column in first_traced.spans.cols.items())
    return report(same and header["spans"] == len(cols["name"]), f"span file of {header['spans']} spans reads back")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true", help="check determinism at the benchmark's own sizes")
    args = parser.parse_args(argv)
    import_program()
    import workloads

    ok = check_benchmark_json(workloads)
    ok &= check_untraced(workloads)
    ok &= check_planted_divergence(workloads)
    ok &= check_determinism(workloads, args.full)
    ok &= check_span_file(workloads.run_verified("verified_tx", 11, 0, True, **SMALL_VERIFIED))
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
