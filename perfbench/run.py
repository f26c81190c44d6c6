"""Run one benchmark workload for one seed and print its metrics.

    python3 perfbench/run.py --workload verified_tx --seed 1 --seconds 10 --trace 0

Run it from the repository root; it imports the program from ``src/`` next
to this directory and nothing else. Every metric is printed as
``metric <name> <value> <unit>``; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the JSON metrics are the end-to-end ones,
with ``--trace 1`` the per-layer ones, and the traced run also writes its
spans to ``perfbench/out/``. The exit code is 0 only when every request
matched the oracle and every final-state check passed.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Put this checkout's ``src/`` first on the path; refuse any other copy."""
    if not os.path.isfile(os.path.join(SRC, "acctoken", "__init__.py")):
        raise SystemExit(f"perfbench: no program sources at {SRC}")
    sys.path.insert(0, SRC)
    import acctoken

    if os.path.dirname(os.path.dirname(os.path.abspath(acctoken.__file__))) != SRC:
        raise SystemExit(f"perfbench: imported acctoken from {acctoken.__file__}, not {SRC}")


def main(argv=None) -> int:
    import_program()
    import workloads

    args = parse_args(argv, workloads.WORKLOADS)
    outcome = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"workload {outcome.workload} seed {outcome.seed} trace {int(outcome.trace)}")
    print(f"inputs sha256 {outcome.digest}")
    for note in outcome.notes:
        print(note)
    units = {**workloads.END_TO_END, **workloads.REPORTED, **workloads.PER_LAYER}
    for name, value in outcome.metrics.items():
        print(f"metric {name} {value!r} {units[name]}")
    for problem in outcome.problems:
        print(f"check failed: {problem}")
    if outcome.spans is not None:
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.bin.gz")
        outcome.spans.write(path)
        print(f"spans written to {os.path.relpath(path)}")
    selected = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        # a run that failed its set-up checks has no measurements
        "metrics": {name: {"value": outcome.metrics.get(name, 0.0), "unit": unit} for name, unit in selected.items()},
    }
    print(json.dumps(result))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
