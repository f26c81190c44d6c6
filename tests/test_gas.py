"""Gas schedules, transaction metering and the storage-rent function."""

import math
from dataclasses import fields

import pytest

from acctoken.config import (
    dump_defaults,
    fault_from_config,
    parse_config,
    rent_from_config,
    schedule_from_config,
)
from acctoken.gas import (
    FLAT,
    SCALED,
    GasSchedule,
    RentParams,
    TxTrace,
    annual_rent,
    ceil_log2_span,
    derive_base_rent,
    hash_cost,
    meter_transaction,
    rent_rate,
    sload_cost,
    sstore_cost,
)

FLAT_SCHEDULE = GasSchedule()
SCALED_SCHEDULE = GasSchedule(mode=SCALED)


class TestStorageCosts:
    def test_flat_reproduces_mainnet_constants(self):
        for n in (0, 1, 4, 400_000):
            assert sload_cost(FLAT_SCHEDULE, n) == 200
            assert sstore_cost(FLAT_SCHEDULE, "new", n) == 20_000
            assert sstore_cost(FLAT_SCHEDULE, "update", n) == 5_000

    def test_scaled_read_at_400k(self):
        assert sload_cost(SCALED_SCHEDULE, 400_000) == 15_200  # 200 * 4 * 19

    def test_scaled_read_floor(self):
        assert sload_cost(SCALED_SCHEDULE, 0) == 800
        assert sload_cost(SCALED_SCHEDULE, 1) == 800
        assert sload_cost(SCALED_SCHEDULE, 2) == 800

    def test_scaled_update_small_contract(self):
        assert sstore_cost(SCALED_SCHEDULE, "update", 4) == 440_000  # 5000 * 44 * 2

    def test_scaled_new_key_at_400k(self):
        assert sstore_cost(SCALED_SCHEDULE, "new", 400_000) == 16_720_000  # 20000 * 44 * 19

    def test_write_access_factor_invariant(self):
        assert SCALED_SCHEDULE.write_access_factor == 44
        assert SCALED_SCHEDULE.write_amplification * SCALED_SCHEDULE.read_access_factor == 44

    def test_monotone_and_doubling_increment(self):
        previous = 0
        for n in range(0, 3000, 7):
            cost = sload_cost(SCALED_SCHEDULE, n)
            assert cost >= previous
            previous = cost
        for exponent in range(1, 20):
            delta = sload_cost(SCALED_SCHEDULE, 2 ** (exponent + 1)) - sload_cost(
                SCALED_SCHEDULE, 2**exponent
            )
            assert delta == 800

    def test_ceil_log2_span(self):
        assert [ceil_log2_span(n) for n in (0, 1, 2, 3, 4, 5, 400_000)] == [1, 1, 1, 2, 2, 3, 19]


class TestHashCosts:
    def test_default_64_bytes(self):
        assert hash_cost(FLAT_SCHEDULE, 64) == 784  # 700 + 60 + 12 * 2

    def test_both_toggles_64_bytes(self):
        schedule = GasSchedule(remove_precompile_call_cost=True, equalize_hash_costs=True)
        assert hash_cost(schedule, 64) == 42  # 30 + 6 * 2

    def test_zero_input(self):
        assert hash_cost(FLAT_SCHEDULE, 0) == 760

    def test_single_toggles(self):
        assert hash_cost(GasSchedule(remove_precompile_call_cost=True), 64) == 84
        assert hash_cost(GasSchedule(equalize_hash_costs=True), 64) == 742

    def test_word_rounding(self):
        assert hash_cost(FLAT_SCHEDULE, 1) == hash_cost(FLAT_SCHEDULE, 32)
        assert hash_cost(FLAT_SCHEDULE, 33) == hash_cost(FLAT_SCHEDULE, 64)

    def test_toggle_reduction_exceeds_ninety_percent(self):
        both = GasSchedule(remove_precompile_call_cost=True, equalize_hash_costs=True)
        default, reduced = hash_cost(FLAT_SCHEDULE, 64), hash_cost(both, 64)
        assert (default - reduced) / default >= 0.90


class TestMetering:
    def test_empty_trace_costs_base_only(self):
        receipt = meter_transaction(FLAT_SCHEDULE, TxTrace())
        assert receipt.total == 21_000
        assert receipt.breakdown["base"] == 21_000

    def test_receipt_total_equals_breakdown_sum(self):
        trace = TxTrace(calldata=b"\x00\x01\x02")
        trace.sload(10)
        trace.sstore_new(10)
        trace.sstore_update(11)
        trace.hash(64)
        receipt = meter_transaction(SCALED_SCHEDULE, trace)
        assert receipt.total == sum(receipt.breakdown.values())
        assert receipt.counts["storage-read"] == 1
        assert receipt.counts["storage-write"] == 2
        assert receipt.counts["hashing"] == 1

    def test_calldata_pricing(self):
        trace = TxTrace(calldata=b"\x00" * 10 + b"\xff" * 3)
        receipt = meter_transaction(FLAT_SCHEDULE, trace)
        assert receipt.breakdown["calldata"] == 10 * 4 + 3 * 68

    def test_deterministic(self):
        trace = TxTrace(calldata=b"abc")
        trace.sload(5)
        trace.hash(100)
        first = meter_transaction(SCALED_SCHEDULE, trace)
        second = meter_transaction(SCALED_SCHEDULE, trace)
        assert first == second

    def test_baseline_transfer_shape_under_flat(self):
        # 2 reads + 2 updates + ~100B calldata lands near the measured target
        trace = TxTrace(calldata=b"\x01" * 45 + b"\x00" * 55)
        trace.sload(100)
        trace.sload(100)
        trace.sstore_update(100)
        trace.sstore_update(100)
        receipt = meter_transaction(FLAT_SCHEDULE, trace)
        assert abs(receipt.total - 33_193) / 33_193 < 0.20


class TestRent:
    def test_base_rate_derivation_matches_published_value(self):
        derived = derive_base_rent(0.30, 202.18, 32)
        assert abs(derived - 530_657_634.8) <= 0.1

    def test_flat_tier(self):
        params = RentParams()
        assert rent_rate(params, 0) == params.r_base_wei
        assert rent_rate(params, int(params.k_low)) == params.r_base_wei

    def test_continuity_at_k_low(self):
        params = RentParams()
        k = int(params.k_low)
        assert abs(rent_rate(params, k) - rent_rate(params, k + 1)) <= 1.0

    def test_continuity_at_k_high(self):
        params = RentParams()
        k = int(params.k_high)
        assert abs(rent_rate(params, k) - rent_rate(params, k + 1)) <= 1.0

    def test_high_watermark_multiplier(self):
        params = RentParams()
        ratio = rent_rate(params, int(params.k_high)) / params.r_base_wei
        assert math.isclose(ratio, 1 + math.log2(0.80 / 0.25), rel_tol=1e-9)
        assert math.isclose(ratio, 2.678, rel_tol=1e-3)

    def test_monotone_nondecreasing(self):
        params = RentParams()
        points = [0, 1, 10**6, int(params.k_low), int(params.k_low * 2), int(params.k_high), int(params.k_high * 3)]
        rates = [rent_rate(params, k) for k in points]
        assert rates == sorted(rates)

    def test_linear_tier_scales_linearly(self):
        params = RentParams()
        k = int(params.k_high * 2)
        assert math.isclose(rent_rate(params, 2 * k) / rent_rate(params, k), 2.0, rel_tol=1e-9)

    def test_annual_rent_examples(self):
        params = RentParams()
        assert annual_rent(params, 0, 10**6) == 0
        acc_token = annual_rent(params, 4, 10**6)
        assert math.isclose(acc_token, 4 * 530_657_634.8, rel_tol=1e-9)
        bare_bones = annual_rent(params, 400_001, 10**6)
        assert math.isclose(bare_bones / acc_token, 400_001 / 4, rel_tol=1e-9)
        assert bare_bones > 2.1e14

    def test_contract_keys_bounded_by_total(self):
        with pytest.raises(ValueError):
            annual_rent(RentParams(), 10, 5)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            RentParams(u_low=0.9, u_high=0.8)

    def test_rent_is_burned_no_recipient_anywhere(self):
        import inspect

        for fn in (rent_rate, annual_rent):
            names = set(inspect.signature(fn).parameters)
            assert not names & {"recipient", "beneficiary", "payee"}
        assert not {"recipient", "beneficiary", "payee"} & {
            f.name for f in __import__("dataclasses").fields(RentParams)
        }


class TestConfig:
    def test_defaults_round_trip(self):
        pairs = parse_config(dump_defaults())
        assert schedule_from_config(pairs) == GasSchedule()
        assert rent_from_config(pairs) == RentParams()
        assert fault_from_config(pairs).mode == "honest"

    def test_overrides(self):
        text = "schedule.mode = scaled\nschedule.write_amplification = 5\nrent.u_low = 0.1\n"
        pairs = parse_config(text)
        schedule = schedule_from_config(pairs)
        assert schedule.mode == SCALED and schedule.write_access_factor == 20
        assert rent_from_config(pairs).u_low == 0.1

    def test_comments_and_blanks(self):
        pairs = parse_config("# comment\n\nschedule.mode = flat  # trailing\n")
        assert pairs == {"schedule.mode": "flat"}

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            schedule_from_config({"schedule.bogus": "1"})

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            GasSchedule(mode="turbo")
        counts = [f.name for f in fields(GasSchedule) if type(getattr(GasSchedule(), f.name)) is int]
        assert len(counts) == 13
        for name in counts:
            with pytest.raises(ValueError, match=name):
                GasSchedule(**{name: -1})
