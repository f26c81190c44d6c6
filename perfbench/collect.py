"""Run the benchmark over ten seeds, twice, and summarise each metric's spread.

    python3 perfbench/collect.py --out perfbench/baseline.json

Collects every workload in ``BENCHMARK.json`` in each of two sets, one run at
a time: within a set, one untraced run per (workload, seed), seeds 1..10.
Then it makes one traced run per workload on the first seed. For every
metric of every set it records the per-seed values, their median, first and
third quartiles (``statistics.quantiles`` with n=4) and the spread,
(q3 - q1) / median. The benchmark is steady enough when:

- each end-to-end spread stays within its bound from ``BENCHMARK.json`` (it
  is also reported against a third of the bound), except ``setup_s``'s.
  Set-up time is gated by the next rule alone, because it is one short or
  single measurement per run; its spread is still printed and recorded,
  marked "not gated";
- each later set's median, ``setup_s``'s included, is worse than the first
  set's by at most the bound.

The summary also records the Python version and the processor count, and
``--out`` is overwritten with it. Exits 1 when a run fails or either rule is
broken.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# spread is taken within a set of ten seeds, drift between the two sets
SEEDS = list(range(1, 11))
SETS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, list[str]]:
    """(result JSON, every printed metric, the other printed lines) of one run."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    printed, notes = {}, []
    for line in lines[:-1]:
        if line.startswith("metric "):
            _, name, value, _unit = line.split(" ")
            printed[name] = float(value)
        else:
            notes.append(line)
    return json.loads(lines[-1]), printed, notes


def stats(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def collect_set(spec: dict, seeds: list[int], label: str) -> tuple[dict, bool]:
    """One untraced run per (workload, seed); per workload, the stats of every printed metric."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    entries = {}
    for workload in (w["name"] for w in spec["workloads"]):
        printed_by_seed = []
        for seed in seeds:
            result, printed, _ = run_once(workload, seed, spec["run_seconds"], 0)
            ok &= result["correct"] and result["failed"] == 0
            printed_by_seed.append(printed)
            print(f"{label} {workload} seed {seed}: "
                  + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        entry = {"end_to_end": {}, "reported": {}}
        for name in printed_by_seed[0]:
            group = "end_to_end" if name in bounds else "reported"
            entry[group][name] = stats([p[name] for p in printed_by_seed])
        for name, bound in bounds.items():
            spread = entry["end_to_end"][name]["spread"]
            verdict = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "OVER BOUND")
            if name == "setup_s":
                verdict += ", not gated"
            else:
                ok &= spread <= bound
            print(f"  {label} {workload} {name}: median {entry['end_to_end'][name]['median']:.4g} "
                  f"spread {spread:.4f} (bound {bound}) {verdict}", flush=True)
        entries[workload] = entry
    return entries, ok


def drift(spec: dict, first: dict, later: dict) -> tuple[dict, bool]:
    """Per workload and metric, how much worse the later set's median is, as a share of the first's."""
    ok = True
    out = {}
    for workload, entry in first.items():
        out[workload] = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            m1 = entry["end_to_end"][name]["median"]
            m2 = later[workload]["end_to_end"][name]["median"]
            worse = (m2 - m1) / m1 if metric["better"] == "lower" else (m1 - m2) / m1
            out[workload][name] = worse
            ok &= worse <= metric["bound"]
            verdict = "ok" if worse <= metric["bound"] else "OVER BOUND"
            print(f"  drift {workload} {name}: {m1:.4g} -> {m2:.4g}, worse by {worse:+.4f} "
                  f"(bound {metric['bound']}) {verdict}", flush=True)
    return out, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="write the summary JSON here, replacing the file")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    summary = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "run_seconds": spec["run_seconds"],
        "seeds": SEEDS,
        "sets": [],
        "drift": [],
        "traced": {},
    }
    ok = True
    for number in range(1, SETS + 1):
        entries, set_ok = collect_set(spec, SEEDS, f"set {number}")
        ok &= set_ok
        summary["sets"].append(entries)
    for later in summary["sets"][1:]:
        worse, drift_ok = drift(spec, summary["sets"][0], later)
        ok &= drift_ok
        summary["drift"].append(worse)
    for workload in (w["name"] for w in spec["workloads"]):
        result, _, notes = run_once(workload, SEEDS[0], spec["run_seconds"], 1)
        ok &= result["correct"] and result["failed"] == 0
        summary["traced"][workload] = {
            "seed": SEEDS[0],
            "notes": notes,
            "per_layer": {k: v["value"] for k, v in result["metrics"].items()},
        }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=1)
            handle.write("\n")
    print("collect " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
