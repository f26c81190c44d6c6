"""bench: run token benchmarks, compare results, tabulate rent.

    bench run --token acc --schedule scaled --checkpoints 50000,100000 \
        --seed 7 --out acc.csv --split acc-split.csv
    bench compare baseline.csv acc.csv
    bench rent --smax-gib 500 --keys 4 --keys 400001 --total-keys 1e6,1e9
    bench dump-config

Reruns with the same seed and flags emit byte-identical CSVs.
"""

import argparse
import sys
from dataclasses import replace
from decimal import Decimal, InvalidOperation

from ..config import dump_defaults, fault_from_config, parse_config, rent_from_config, schedule_from_config
from ..gas import FLAT, GIB, SCALED
from .scenario import (
    Scenario,
    compare,
    gas_split,
    rent_report,
    rows_from_csv,
    rows_to_csv,
    run_scenario,
    split_to_csv,
    tabulate,
)

TOGGLES = {
    "remove-precompile-call-cost": "remove_precompile_call_cost",
    "equalize-hash-costs": "equalize_hash_costs",
    "lift-precondition": None,  # token behavior, not a schedule field
}


def _parse_int(text: str) -> int:
    """A whole number, exactly: ``400000``, or in exponent form (``1e6``, ``4.2e9``)."""
    try:
        value = Decimal(text.strip())
    except InvalidOperation:
        value = None
    if value is None or not value.is_finite() or value != value.to_integral_value():
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return int(value)


def _parse_ints(text: str) -> tuple[int, ...]:
    """Comma-separated ``_parse_int`` values."""
    return tuple(_parse_int(item) for item in text.split(","))


def _parse_checkpoints(args) -> tuple[int, ...]:
    if args.checkpoints:
        return args.checkpoints
    if args.max_accounts is not None:
        # eight even steps up to the maximum; small maxima give fewer
        return tuple(sorted({args.max_accounts * i // 8 for i in range(1, 9)} - {0}))
    args.usage_error("provide --checkpoints or --max-accounts")


def _load_config(args, *sections):
    """Each of ``sections`` built from the ``--config`` file (defaults without
    one); a file that cannot be read or holds a bad value is a usage error."""
    try:
        pairs = {}
        if args.config is not None:
            with open(args.config, encoding="utf-8") as handle:
                pairs = parse_config(handle.read())
        return [section(pairs) for section in sections]
    except (OSError, ValueError) as exc:
        args.usage_error(f"--config {args.config}: {exc}")


def _cmd_run(args) -> int:
    schedule, fault = _load_config(args, schedule_from_config, fault_from_config)
    toggles = [t for t in (args.toggles.split(",") if args.toggles else []) if t]
    lift = False
    # the flag overrides the config file's mode only when it is given
    schedule_kwargs = {} if args.schedule is None else {"mode": args.schedule}
    for toggle in toggles:
        if toggle not in TOGGLES:
            args.usage_error(f"unknown toggle {toggle!r}; valid: {', '.join(sorted(TOGGLES))}")
        field = TOGGLES[toggle]
        if field is None:
            lift = True
        else:
            schedule_kwargs[field] = True
    schedule = replace(schedule, **schedule_kwargs)
    try:
        scenario = Scenario(
            token=args.token,
            checkpoints=_parse_checkpoints(args),
            ops_per_checkpoint=args.ops,
            seed=args.seed,
            lift=lift,
            fault=fault,
        )
    except ValueError as exc:
        args.usage_error(str(exc))
    run = run_scenario(scenario)
    rows = tabulate(run, schedule)
    by_class = ", ".join(f"{name} {count}" for name, count in sorted(run.drops.items()))
    if run.dropped and not rows:
        # a header-only table is no result: ``bench compare`` would refuse it far from the cause
        args.usage_error(
            f"all {run.dropped} sampled transactions dropped under storage.mode = {fault.mode}, "
            f"so there is no row to write; dropped by error class: {by_class}"
        )
    csv_text = rows_to_csv(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(csv_text)
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        sys.stdout.write(csv_text)
    if args.split:
        with open(args.split, "w", encoding="utf-8", newline="") as handle:
            handle.write(split_to_csv(gas_split(run, schedule)))
        print(f"wrote the gas and proof-byte split of {len(rows)} rows to {args.split}", file=sys.stderr)
    if run.dropped:
        print(f"dropped {run.dropped} sampled transactions under the fault policy", file=sys.stderr)
        print(f"dropped by error class under storage.mode = {fault.mode}: {by_class}", file=sys.stderr)
    return 0


def _read_rows(args, path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return rows_from_csv(handle.read())
    except (OSError, ValueError) as exc:
        args.usage_error(f"{path}: {exc}")


def _cmd_compare(args) -> int:
    try:
        table = compare(_read_rows(args, args.file_a), _read_rows(args, args.file_b))
    except ValueError as exc:
        args.usage_error(str(exc))
    print(f"{'op':>14} {'n':>9} {'gas_a':>14} {'gas_b':>14} {'a/b':>8}  verdict")
    for row in table:
        verdict = "b cheaper" if row.ratio_a_over_b > 1 else "a cheaper" if row.ratio_a_over_b < 1 else "equal"
        print(
            f"{row.op:>14} {row.n_accounts:>9} {row.gas_a:>14.2f} {row.gas_b:>14.2f} "
            f"{row.ratio_a_over_b:>8.2f}  {verdict}"
        )
    return 0


def _cmd_rent(args) -> int:
    (params,) = _load_config(args, rent_from_config)
    key_counts = args.keys or [4]
    try:
        if args.smax_gib is not None:
            params = replace(params, s_max_bytes=args.smax_gib * GIB)
        rows = rent_report(params, key_counts, args.total_keys)
    except ValueError as exc:
        args.usage_error(str(exc))
    header = f"{'k_total':>16} {'wei/key/year':>20}" + "".join(f" {'rent@' + str(k) + 'keys':>24}" for k in key_counts)
    print(header)
    for row in rows:
        cells = "".join(f" {row.annual_rent_wei[k]:>24.1f}" for k in key_counts)
        print(f"{row.k_total:>16} {row.rate_wei_per_key_year:>20.1f}{cells}")
    return 0


def _cmd_dump_config(_args) -> int:
    sys.stdout.write(dump_defaults())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bench", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="grow a population and meter sampled operations")
    run.add_argument("--token", choices=("acc", "baseline"), required=True)
    run.add_argument("--schedule", choices=(FLAT, SCALED), default=None, help="overrides schedule.mode (default flat)")
    run.add_argument("--max-accounts", type=_parse_int, default=None)
    run.add_argument("--checkpoints", type=_parse_ints, default=None, help="comma-separated account counts")
    run.add_argument("--ops", type=int, default=100, help="sampled ops per kind per checkpoint")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--toggles", default="", help=f"comma-separated: {', '.join(sorted(TOGGLES))}")
    run.add_argument("--config", default=None, help="key=value config file")
    run.add_argument("--out", default=None, help="CSV output path (stdout when omitted)")
    run.add_argument(
        "--split",
        default=None,
        help="also write, per (op, n), the mean gas by category, SHA-256 calls and proof bytes by entry",
    )
    run.set_defaults(func=_cmd_run, usage_error=run.error)

    cmp_ = sub.add_parser("compare", help="per-op gas ratios between two result CSVs")
    cmp_.add_argument("file_a")
    cmp_.add_argument("file_b")
    cmp_.set_defaults(func=_cmd_compare, usage_error=cmp_.error)

    rent = sub.add_parser("rent", help="tabulate rent rates over a key-count sweep")
    rent.add_argument("--smax-gib", type=int, default=None)
    rent.add_argument("--keys", type=_parse_int, action="append", default=[], help="contract key count (repeatable)")
    rent.add_argument("--total-keys", type=_parse_ints, required=True, help="comma-separated system key counts")
    rent.add_argument("--config", default=None)
    rent.set_defaults(func=_cmd_rent, usage_error=rent.error)

    dump = sub.add_parser("dump-config", help="print the default schedule/rent/fault config")
    dump.set_defaults(func=_cmd_dump_config)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
