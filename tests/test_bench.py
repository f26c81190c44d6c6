"""Bench harness: determinism, CSV round trips, comparisons, the CLI."""

import math
import random

import pytest

from acctoken.baseline import BaselineToken
from acctoken.bench import (
    Scenario,
    compare,
    rent_report,
    rows_from_csv,
    rows_to_csv,
    run_scenario,
    tabulate,
)
from acctoken.bench.cli import _parse_checkpoints, build_parser, main
from acctoken.bench.scenario import GRANT, SUPPLY, _Population
from acctoken.gas import FLAT, SCALED, GasSchedule, RentParams, annual_rent, rent_rate
from acctoken.storage import FaultPolicy

SMALL = dict(checkpoints=(48, 96), ops_per_checkpoint=4, seed=911)


@pytest.fixture(scope="module")
def small_acc_run():
    return run_scenario(Scenario(token="acc", **SMALL))


@pytest.fixture(scope="module")
def small_baseline_run():
    return run_scenario(Scenario(token="baseline", **SMALL))


class TestDeterminism:
    def test_same_seed_same_csv(self, small_acc_run):
        again = run_scenario(Scenario(token="acc", **SMALL))
        schedule = GasSchedule()
        assert rows_to_csv(tabulate(small_acc_run, schedule)) == rows_to_csv(tabulate(again, schedule))

    def test_different_seed_differs(self, small_acc_run):
        other = run_scenario(Scenario(token="acc", checkpoints=(48, 96), ops_per_checkpoint=4, seed=912))
        schedule = GasSchedule()
        assert rows_to_csv(tabulate(small_acc_run, schedule)) != rows_to_csv(tabulate(other, schedule))

    def test_one_run_meters_under_many_schedules(self, small_acc_run):
        flat = tabulate(small_acc_run, GasSchedule())
        scaled = tabulate(small_acc_run, GasSchedule(mode=SCALED))
        assert all(s.gas_mean > f.gas_mean for f, s in zip(flat, scaled))


class TestRows:
    def test_sorted_by_op_then_n(self, small_acc_run):
        rows = tabulate(small_acc_run, GasSchedule())
        assert [(r.op, r.n_accounts) for r in rows] == sorted((r.op, r.n_accounts) for r in rows)

    def test_all_ops_present(self, small_acc_run):
        rows = tabulate(small_acc_run, GasSchedule())
        assert {r.op for r in rows} == {"transfer", "approve", "transferFrom"}

    def test_csv_round_trip(self, small_acc_run):
        rows = tabulate(small_acc_run, GasSchedule())
        text = rows_to_csv(rows)
        parsed = rows_from_csv(text)
        assert rows_to_csv(parsed) == text

    def test_csv_header(self, small_acc_run):
        text = rows_to_csv(tabulate(small_acc_run, GasSchedule()))
        assert text.splitlines()[0] == "n,op,gas_mean,gas_p95,proof_bytes_mean,verifications"

    def test_baseline_rows_have_no_proof_bytes(self, small_baseline_run):
        rows = tabulate(small_baseline_run, GasSchedule())
        assert all(r.proof_bytes_mean == 0 and r.verifications == 0 for r in rows)

    def test_conservation_checks_ran(self, small_acc_run, small_baseline_run):
        assert small_acc_run.conservation_checks == 2
        assert small_baseline_run.conservation_checks == 2
        assert small_acc_run.dropped == 0


class TestCompare:
    def test_identical_inputs_give_unit_ratios(self, small_acc_run):
        rows = tabulate(small_acc_run, GasSchedule())
        for row in compare(rows, rows):
            assert row.ratio_a_over_b == 1.0

    def test_mismatched_grids_rejected(self, small_acc_run, small_baseline_run):
        rows_a = tabulate(small_acc_run, GasSchedule())
        rows_b = [r for r in tabulate(small_baseline_run, GasSchedule()) if r.n_accounts != 96]
        with pytest.raises(ValueError):
            compare(rows_a, rows_b)

    def test_flat_model_penalizes_accumulator_token(self, small_acc_run, small_baseline_run):
        acc = tabulate(small_acc_run, GasSchedule())
        base = tabulate(small_baseline_run, GasSchedule())
        for row in compare(base, acc):
            assert row.ratio_a_over_b < 1  # baseline cheaper under flat pricing

    def test_baseline_flat_gas_is_constant_in_n(self, small_baseline_run):
        rows = tabulate(small_baseline_run, GasSchedule())
        by_op = {}
        for row in rows:
            by_op.setdefault(row.op, []).append(row.gas_mean)
        for op, gas in by_op.items():
            spread = (max(gas) - min(gas)) / (sum(gas) / len(gas))
            assert spread < 0.01, f"{op} varies {spread:.2%} across checkpoints"


class TestGrowth:
    @pytest.mark.parametrize("token", ["acc", "baseline"])
    def test_only_sampled_ops_run_mapping_transactions(self, token, monkeypatch):
        # growth bootstraps the mapping token (the shadow, or the token of a
        # baseline run) from plans; only the metered samples are transactions
        completed = []
        for kind in ("transfer", "approve", "transfer_from"):
            def counted(self, *args, _op=getattr(BaselineToken, kind)):
                record = _op(self, *args)
                completed.append(record)
                return record

            monkeypatch.setattr(BaselineToken, kind, counted)
        run = run_scenario(Scenario(token=token, **SMALL))
        assert len(completed) == sum(len(cp.samples) for cp in run.checkpoints) > 0


class TestApprovedPairs:
    """The pair pool's closed form reads like the list and set it replaces."""

    def test_closed_form_matches_list_and_set(self):
        rng = random.Random(16)
        pop = _Population()
        pairs, approved = [], set()

        def approve(pair):
            if pair not in approved:
                approved.add(pair)
                pairs.append(pair)

        for _ in range(300):
            if rng.random() < 0.2 or not pop.created:
                target = pop.created + rng.randrange(0, 12)
                for i in range(pop.created + 1, target + 1):
                    approve((i, i + 1))
                pop.grow(target)
            else:
                owner = rng.randrange(1, pop.created + 1)
                # a third of the picks name a growth pair, which is approved already
                spender = owner + 1 if rng.random() < 0.3 else rng.randrange(1, pop.created + 2)
                approve((owner, spender))
                pop.add_pair(owner, spender)
            assert pop.pair_count == len(pairs)
            assert [pop.pair(j) for j in range(pop.pair_count)] == pairs
            probes = list(approved) + [(rng.randrange(pop.created + 3), rng.randrange(pop.created + 3)) for _ in range(20)]
            for owner, spender in probes:
                assert pop.approved(owner, spender) == ((owner, spender) in approved)
        assert pop.created > 100 and len(pairs) > pop.created

    def test_growth_pairs_are_approved_once(self):
        pop = _Population()
        pop.grow(10)
        pop.add_pair(3, 7)
        pop.grow(25)
        count = pop.pair_count
        for n in range(1, pop.created + 1):
            assert pop.approved(n, n + 1)
            pop.add_pair(n, n + 1)
        assert pop.pair_count == count == 26
        assert not pop.approved(0, 1) and not pop.approved(26, 27)
        assert [pop.pair(j) for j in (0, 9, 10, 11, 25)] == [(1, 2), (10, 11), (3, 7), (11, 12), (25, 26)]
        with pytest.raises(IndexError):
            pop.pair(count)
        with pytest.raises(ValueError, match="not an account"):
            pop.add_pair(26, 3)


class TestScenarioValidation:
    def test_supply_must_fund_the_last_checkpoint(self):
        Scenario(checkpoints=((SUPPLY - 1) // GRANT,))
        with pytest.raises(ValueError, match="cannot fund"):
            Scenario(checkpoints=(SUPPLY // GRANT,))


class TestFaultScenario:
    def test_unavailable_storage_drops_samples(self):
        scenario = Scenario(
            token="acc",
            checkpoints=(32,),
            ops_per_checkpoint=6,
            seed=3,
            fault=FaultPolicy.unavailable(0.5, seed=77),
        )
        run = run_scenario(scenario)
        assert run.dropped > 0
        run.scenario.fault  # growth still reached the checkpoint
        assert run.checkpoints[0].n_accounts == 32


class TestRentReport:
    def test_rows_reproduce_rent_examples(self):
        params = RentParams()
        rows = rent_report(params, [0, 4, 400_001], [10**6])
        row = rows[0]
        assert row.annual_rent_wei[0] == 0
        assert math.isclose(row.annual_rent_wei[4], 4 * params.r_base_wei, rel_tol=1e-9)
        assert math.isclose(
            row.annual_rent_wei[400_001] / row.annual_rent_wei[4], 400_001 / 4, rel_tol=1e-9
        )

    def test_sweep_matches_rate_function(self):
        params = RentParams()
        totals = [10, 10**9, int(params.k_low * 2), int(params.k_high * 2)]
        for row, k_total in zip(rent_report(params, [4], totals), totals):
            assert row.rate_wei_per_key_year == rent_rate(params, k_total)
            assert row.annual_rent_wei[4] == annual_rent(params, 4, k_total)


class TestCli:
    def test_run_writes_deterministic_csv(self, tmp_path, capsys):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        argv = ["run", "--token", "baseline", "--checkpoints", "24,48", "--ops", "3", "--seed", "5"]
        assert main(argv + ["--out", str(out_a)]) == 0
        assert main(argv + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        capsys.readouterr()

    def test_run_stdout_and_toggles(self, capsys):
        argv = [
            "run", "--token", "acc", "--schedule", "scaled", "--checkpoints", "16",
            "--ops", "2", "--seed", "1",
            "--toggles", "remove-precompile-call-cost,equalize-hash-costs",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "n,op,gas_mean,gas_p95,proof_bytes_mean,verifications"
        assert len(out.splitlines()) == 4

    def test_compare_command(self, tmp_path, capsys):
        base, acc = tmp_path / "base.csv", tmp_path / "acc.csv"
        common = ["--checkpoints", "24", "--ops", "2", "--seed", "9"]
        main(["run", "--token", "baseline", *common, "--out", str(base)])
        main(["run", "--token", "acc", *common, "--out", str(acc)])
        capsys.readouterr()
        assert main(["compare", str(base), str(acc)]) == 0
        out = capsys.readouterr().out
        assert "transferFrom" in out and "verdict" in out

    def test_rent_command(self, capsys):
        assert main(["rent", "--keys", "4", "--keys", "400001", "--total-keys", "1e6,1e9"]) == 0
        out = capsys.readouterr().out
        assert "wei/key/year" in out
        assert len(out.splitlines()) == 3

    def test_dump_config(self, capsys):
        assert main(["dump-config"]) == 0
        out = capsys.readouterr().out
        assert "schedule.sload_flat = 200" in out
        assert "rent.r_base_wei = 530657634.8" in out
        assert "storage.mode = honest" in out

    def test_max_accounts_builds_ladder(self, capsys):
        assert main(["run", "--token", "baseline", "--max-accounts", "32", "--ops", "1", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        ns = {int(line.split(",")[0]) for line in out.splitlines()[1:]}
        assert ns == {4, 8, 12, 16, 20, 24, 28, 32}

    @pytest.mark.parametrize(
        "maximum, ladder",
        [
            (100, (12, 25, 37, 50, 62, 75, 87, 100)),
            (17, (2, 4, 6, 8, 10, 12, 14, 17)),
            (5, (1, 2, 3, 4, 5)),
            (400_000, tuple(range(50_000, 400_001, 50_000))),
        ],
    )
    def test_max_accounts_ladder_ends_at_maximum(self, maximum, ladder):
        args = build_parser().parse_args(["run", "--token", "acc", "--max-accounts", str(maximum)])
        assert _parse_checkpoints(args) == ladder

    @pytest.mark.parametrize("text", ["10.9,20.2", "8,1.5", "ten", "1e6.5", "nan", "inf", "8,"])
    def test_non_integer_counts_rejected(self, text, capsys):
        for argv in (["run", "--token", "acc", "--checkpoints", text], ["rent", "--total-keys", text]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)
            assert "not an integer" in capsys.readouterr().err

    def test_counts_parse_exactly(self):
        big = 2**53 + 1
        args = build_parser().parse_args(["run", "--token", "acc", "--checkpoints", f"{big},1e6,4.2e9"])
        assert _parse_checkpoints(args) == (big, 10**6, 42 * 10**8)
        args = build_parser().parse_args(["rent", "--keys", str(big), "--keys", "4", "--total-keys", "1e6,4.2e9,1.5e10"])
        assert args.keys == [big, 4]
        assert args.total_keys == (10**6, 42 * 10**8, 15 * 10**9)
        assert build_parser().parse_args(["run", "--token", "acc", "--max-accounts", str(big)]).max_accounts == big

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "--token", "baseline", "--checkpoints", "10,5"], "strictly increasing"),
            (["run", "--token", "baseline", "--checkpoints", "10", "--ops", "-1"], "ops_per_checkpoint must be non-negative"),
            (["run", "--token", "baseline", "--max-accounts", "0"], "checkpoints must be non-empty"),
            (["run", "--token", "baseline", "--max-accounts", "-8"], "checkpoints must be positive"),
            (["rent", "--total-keys", "-5"], "key count must be non-negative"),
            (["rent", "--keys", "5", "--total-keys", "4"], "contract keys must lie within the system total"),
            (["rent", "--smax-gib", "0", "--total-keys", "1e6"], "capacity parameters must be positive"),
        ],
    )
    def test_bad_values_are_usage_errors(self, argv, message, tmp_path, capsys):
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exited:
            main(argv + (["--out", str(out)] if argv[0] == "run" else []))
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: bench " + argv[0]) and message in err
        assert not out.exists()

    def test_unknown_toggle_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--token", "acc", "--checkpoints", "8", "--toggles", "warp-speed"])

    def test_config_file_round_trip(self, tmp_path, capsys):
        config = tmp_path / "bench.conf"
        config.write_text("schedule.mode = scaled\nschedule.sload_flat = 11\n")
        assert main([
            "run", "--token", "baseline", "--checkpoints", "8", "--ops", "1",
            "--seed", "3", "--config", str(config),
        ]) == 0
        capsys.readouterr()
