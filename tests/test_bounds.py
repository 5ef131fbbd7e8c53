"""Tests for the pure bound calculators."""

import itertools
import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerosum.arith import INFINITE
from zerosum.bounds import (
    _layer_count,
    BoundConsistencyError,
    BoundError,
    KnownValues,
    RULES,
    collect_bounds,
    cpr_upper,
    delta_upper,
    e2g_bounds,
    e2g_d0_bounds,
    e2g_d2_upper,
    e2g_d_upper,
    e2g_kd_upper,
    e2g_s2m_upper,
    e2g_sphere_upper,
    e2g_split_upper,
    elb_lower,
    evaluate_rule,
    inductive_ub,
    k_times_d,
    kd_upper,
    lower_direct_sum,
    lower_dstar,
    lower_max_length,
    remark_ub,
    s_le_from_extension,
    step_append_lower,
    step_ub,
    ub_recursion,
)
from zerosum.gf2 import SmallRankEngine
from zerosum.groups import make_group
from zerosum.invariants import davenport, davenport_k, s_le

C2 = make_group((2,))
C23 = make_group((2, 2, 2))
C24 = make_group((2, 2, 2, 2))
C25 = make_group((2, 2, 2, 2, 2))
C33 = make_group((3, 3, 3))
C32 = make_group((3, 3))


def reference_recursion(ell, s_values, D, k):
    """The ub.recursion scan with every step checked by lower_max_length."""
    lower_max_length(ell, s_values, D, 0)  # the input checks come first
    if any(l > D for l in ell):
        raise BoundError("every ell must be at most D")
    m = 0
    while lower_max_length(ell, s_values, D, m + 1) <= k:
        m += 1
        if m > k * D:
            raise BoundError("scan escaped its ceiling; inputs inconsistent")
    return m


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as err:  # the kind and text of each failure must match
        return type(err).__name__, str(err)


class TestRecursion:
    def test_scan_matches_checked_reference(self):
        # the rule checks its inputs once, then bisects unchecked; values and
        # errors must be those of a scan that checks at every step
        seen = set()
        for ell in ((), (0,), (2,), (3,), (10,), (2, 4), (4, 2), (2, 2), (2, 3, 5)):
            s_lists = list(itertools.product((1, 6, 12, INFINITE), repeat=len(ell)))
            s_lists += [s + (7,) for s in s_lists[:1]]
            for s_values, D, k in itertools.product(s_lists, (0, 1, 3, 4), (0, 1, 2, 5)):
                inputs = {"ell": ell, "s_values": s_values, "D": D, "k": k}
                got = outcome(evaluate_rule, "ub.recursion", inputs)
                assert got == outcome(reference_recursion, ell, s_values, D, k), inputs
                seen.add(got[1] if isinstance(got, tuple) else "value")
        assert seen == {
            "value",
            "ell and s_values must align",
            "threshold values must be finite",
            "ell must be strictly increasing",
            "D and every ell must be positive",  # D = 0, before the count divides by it
            # refused before the scan, whose ceiling only ell > D reached
            "every ell must be at most D",
        }

    @pytest.mark.parametrize("D", range(1, 7))
    def test_bisection_matches_linear_scan(self, D):
        # the rule bisects on the forced count; a linear scan over m is
        # the oracle on every input the rule accepts: up to three levels
        # ell <= D, s in [-2, 2D + 2], k = 1..6. One pass over m = 1, 2,
        # ... is the scan for every k at once, as the scan for k + 1
        # passes wherever the scan for k stopped.
        for n_levels in range(4):
            for ell in itertools.combinations(range(1, D + 1), n_levels):
                for s_values in itertools.product(range(-2, 2 * D + 3), repeat=n_levels):
                    levels = list(zip(ell, s_values))
                    scanned, m = [], 0
                    for k in range(1, 7):
                        while _layer_count(levels, D, m + 1) <= k:
                            m += 1
                        scanned.append(m)
                    inputs = {"ell": ell, "s_values": s_values, "D": D}
                    got = [evaluate_rule("ub.recursion", dict(inputs, k=k)) for k in range(1, 7)]
                    assert got == scanned, inputs

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_forced_count_non_decreasing_with_levels_at_most_d(self, data):
        D = data.draw(st.integers(1, 12), label="D")
        ell = sorted(data.draw(st.sets(st.integers(1, D), max_size=3), label="ell"))
        s_values = [data.draw(st.integers(-2, 2 * D + 2), label="s") for _ in ell]
        m = data.draw(st.integers(0, 6 * D + 2), label="m")
        assert lower_max_length(ell, s_values, D, m) <= lower_max_length(ell, s_values, D, m + 1)

    def test_level_above_d_refused(self):
        # with ell > D the forced count can fall as m grows, so bisection
        # would not find the scan's m: here c(2) = 2 and c(3) = 1
        assert [lower_max_length([3], [3], 1, m) for m in (2, 3)] == [2, 1]
        with pytest.raises(BoundError, match="every ell must be at most D"):
            evaluate_rule("ub.recursion", {"ell": (3,), "s_values": (3,), "D": 1, "k": 2})

    def test_empty_level_list_gives_k_times_d(self):
        assert ub_recursion(C23, [], [], 4, 3).value == 12
        assert k_times_d(3, 4).value == 12

    def test_rank3_two_blocks(self):
        rep = ub_recursion(C23, [2], [8], 4, 2)
        assert rep.value == 7

    def test_forced_count_below_first_threshold(self):
        # m below the threshold leaves only the final coarse layer
        assert lower_max_length([2], [8], 4, 6) == 2
        assert lower_max_length([2], [8], 4, 4) == 1

    def test_forced_count_non_decreasing(self):
        values = [lower_max_length([2, 4], [32, 9], 6, m) for m in range(0, 40)]
        assert values == sorted(values)

    def test_infinite_threshold_rejected(self):
        with pytest.raises(BoundError):
            ub_recursion(C23, [2], [INFINITE], 4, 2)

    def test_levels_must_increase(self):
        with pytest.raises(BoundError):
            ub_recursion(C23, [2, 2], [8, 8], 4, 2)

    def test_level_range_checked(self):
        with pytest.raises(BoundError):
            ub_recursion(C23, [1], [8], 4, 2)


class TestRemark:
    def test_rank4_example(self):
        assert remark_ub(C24, 3, 2, 16, 5).value == 18

    def test_k1_collapses_to_max(self):
        rep = remark_ub(C24, 1, 2, 16, 5)
        assert rep.value == max(5, 16 - 2) == 14
        assert rep.value >= 5

    def test_rank2_sharp_shape(self):
        # p = 3, r = 2: thread the extension bound s_le(3) <= 7 into the
        # one-long-block cap; it meets the layered lower bound exactly
        ext = s_le_from_extension(3, 7, 5)
        assert ext.input_value("m") == 3
        rep = remark_ub(C32, 2, 3, ext.value, 5)
        assert rep.value == 8
        assert lower_dstar(C32, 2).value == 8
        assert cpr_upper(3, 2, 2, 1).value == 8

    def test_level_outside_range_rejected(self):
        with pytest.raises(BoundError):
            remark_ub(C24, 2, 1, 16, 5)
        with pytest.raises(BoundError):
            remark_ub(C24, 2, 5, 16, 5)

    def test_cyclic_degenerate_range_allowed(self):
        # exponent == D leaves no room below D; the level pins to the exponent
        rep = remark_ub(make_group((5,)), 2, 5, 5, 5)
        assert rep.value == 5 + max(5, 0) == 10


class TestStep:
    def test_upper_step(self):
        assert step_ub(6, 4, 9).value == max(10, 8) == 10

    def test_lower_step(self):
        assert step_append_lower(6).value == 8


class TestExtension:
    def test_rank4_through_doubling(self):
        rep = s_le_from_extension(2, 6, 5)
        assert rep.input_value("m") == 4
        assert rep.value == 6

    def test_n1_degenerates_to_davenport(self):
        rep = s_le_from_extension(1, 5, 5)
        assert rep.input_value("m") == 5
        assert rep.value == 5


class TestHomogeneous:
    def test_p2_r4(self):
        assert cpr_upper(2, 4, 2, 2).value == 9

    def test_p3_r2(self):
        assert cpr_upper(3, 2, 1, 1).value == 5

    def test_precondition_rejected(self):
        with pytest.raises(BoundError):
            cpr_upper(2, 8, 1, 1)


class TestInductive:
    def test_table_form(self):
        # push through a rank-2 summand of the rank-4 group
        eng2_d1, eng2_d3 = 3, 7
        rep = inductive_ub(eng2_d1, quotient_dk=eng2_d3)
        assert rep.value == 7

    def test_closed_form(self):
        rep = inductive_ub(3, ell=2, D_quot=3, s_quot=4)
        assert rep.value == 2 * 2 + max(3, 2) == 7

    def test_missing_inputs_rejected(self):
        with pytest.raises(BoundError):
            inductive_ub(3)


class TestLowerBounds:
    def test_direct_sum(self):
        assert lower_direct_sum(4, 4).value == 7

    def test_dstar_rank5(self):
        assert lower_dstar(C25, 2).value == 8

    def test_enriched_values(self):
        assert elb_lower(C24, 3, 1, 2).value == 8
        assert elb_lower(make_group((2,) * 6), 4, 1, 2).value == 11
        assert elb_lower(C25, 3, 1, 2).value == 9
        assert elb_lower(C33, 2, 1, 2).value == 10

    def test_enriched_odd_factor_adds_one(self):
        rep = elb_lower(C33, 2, 1, 2)
        assert rep.input_value("delta") == 1

    def test_enriched_preconditions(self):
        with pytest.raises(BoundError):
            elb_lower(C24, 1, 1, 2)
        with pytest.raises(BoundError):
            elb_lower(C24, 3, 1, 1)
        with pytest.raises(BoundError):
            elb_lower(C24, 4, 2, 2)  # 6 pair patterns, 3 positions


class TestBigIntegerBounds:
    def test_delta_order2_vacuous(self):
        rep = delta_upper(C2)
        assert rep.value == 4**7
        assert "vacuous" in rep.note

    def test_delta_order8(self):
        rep = delta_upper(C23)
        assert rep.value == 16**25
        assert isinstance(rep.value, int)

    def test_kd_crude(self):
        assert kd_upper(C23).value == 16**34

    def test_kd_refined(self):
        rep = kd_upper(C23, delta_val=2, atoms_count=100, eta_val=8, d_minus=3)
        assert rep.value == 2 * 2 * 100 + 8 - 3

    def test_kd_partial_inputs_rejected(self):
        with pytest.raises(BoundError):
            kd_upper(C23, delta_val=2)


class TestElementary2Group:
    def test_two_block_cap(self):
        assert e2g_d2_upper(5).value == 10
        assert e2g_d2_upper(4).value == 8
        assert e2g_d2_upper(6).value == 11

    def test_counting_threshold(self):
        assert e2g_s2m_upper(5, 2).value == 9
        assert e2g_s2m_upper(4, 2).value == 7

    def test_independence_cap(self):
        assert [e2g_d_upper(r).value for r in (1, 5, 12)] == [2, 6, 13]

    def test_sphere_packing_values(self):
        # the Hamming bound at levels 4 and 6 for r = 5..8, and the Hamming
        # and extended Hamming codes at levels 2 and 3 on every rank
        assert [e2g_sphere_upper(r, 4).value for r in range(5, 9)] == [8, 11, 16, 23]
        assert [e2g_sphere_upper(r, 6).value for r in range(5, 9)] == [6, 8, 9, 12]
        for r in range(1, 13):
            assert e2g_sphere_upper(r, 2).value == 2**r
            assert e2g_sphere_upper(r, 3).value == 2 ** (r - 1) + 1
        # the Golay codes meet it
        assert e2g_sphere_upper(11, 6).value == 24
        assert e2g_sphere_upper(12, 7).value == 25

    @pytest.mark.parametrize("r", range(1, 10))
    def test_sphere_packing_bisection_matches_a_scan(self, r):
        def scan(room, t):
            n = 0
            while sum(comb(n + 1, j) for j in range(t + 1)) <= room:
                n += 1
            return n

        for cap in range(2, 12):
            t, odd = cap // 2, cap % 2
            assert e2g_sphere_upper(r, cap).value == 1 + scan(2 ** (r - odd), t) + odd, cap

    def test_sphere_packing_is_never_weaker_than_the_counting_bound(self):
        for r in range(3, 10):
            for m in (2, 3, 4):
                assert e2g_sphere_upper(r, 2 * m).value <= e2g_s2m_upper(r, m).value, (r, m)

    def test_counting_threshold_root_is_exact(self):
        rep = e2g_s2m_upper(10, 3)
        u = rep.input_value("root")
        assert u**3 >= 6 * 2**10 > (u - 1) ** 3

    def test_split(self):
        assert e2g_split_upper(2, 3, 9).value == 11

    def test_offset_bracket(self):
        lo, hi = e2g_d0_bounds(5)
        assert (lo.value, hi.value) == (11, 16)
        lo4, hi4 = e2g_d0_bounds(4)
        assert (lo4.value, hi4.value) == (5, 9)

    def test_onset_cap(self):
        assert e2g_kd_upper(5).value == 10
        assert e2g_kd_upper(3).value == 2

    def test_family_report(self):
        reps = e2g_bounds(5, 2)
        rules = {r.rule_id for r in reps}
        assert "ub.e2g_d2" in rules and "ub.e2g_kd" in rules


class TestEvaluateRule:
    def test_round_trip_every_rule(self):
        reports = [
            k_times_d(3, 4),
            ub_recursion(C23, [2], [8], 4, 2),
            remark_ub(C24, 3, 2, 16, 5),
            step_ub(6, 4, 9),
            s_le_from_extension(2, 6, 5),
            cpr_upper(2, 4, 2, 2),
            inductive_ub(3, quotient_dk=7),
            inductive_ub(3, ell=2, D_quot=3, s_quot=4),
            delta_upper(C23),
            kd_upper(C23),
            kd_upper(C23, delta_val=2, atoms_count=100, eta_val=8, d_minus=3),
            lower_direct_sum(4, 4),
            lower_dstar(C25, 2),
            elb_lower(C25, 3, 1, 2),
            step_append_lower(6),
            e2g_d2_upper(5),
            e2g_d_upper(5),
            e2g_s2m_upper(5, 2),
            e2g_sphere_upper(5, 4),
            e2g_split_upper(2, 3, 9),
            e2g_d0_bounds(5)[0],
            e2g_d0_bounds(5)[1],
            e2g_kd_upper(5),
        ]
        # rules whose steps s_le, davenport and the rank-5 rows build
        row5 = {step.rule_id: step for step in davenport_k(C25, 5).upper_chain}
        moved = {
            "search.zsf": (davenport(C32).upper_chain[-1], 5),
            "search.sle": (s_le(C25, 4).upper_chain[-1], 7),
            "search.sweep": (row5["search.sweep"], 20),
            "sle.infinite": (s_le(make_group((3,)), 2).upper_chain[-1], INFINITE),
            "sle.equals_davenport": (s_le(C23, 4).upper_chain[-1], 4),
            "sle.trivial_group": (s_le(make_group(()), 1).upper_chain[-1], 1),
            "ub.squarefree_caps": (davenport_k(C25, 2).upper_chain[-1], 10),
        }
        for rule_id, (step, value) in moved.items():
            assert (step.rule_id, step.value) == (rule_id, value)
            reports.append(step)
        for rep in reports:
            assert evaluate_rule(rep.rule_id, rep.plain_inputs()) == rep.value, rep.rule_id
        assert {rep.rule_id for rep in reports} == set(RULES)

    # one input dict per rule with a precondition, each breaking it
    VIOLATIONS = [
        ("ub.k_times_d", {"k": 0, "D": 4}),
        ("ub.k_times_d", {"k": 2, "D": 0}),
        ("ub.recursion", {"k": 2, "ell": (2,), "s_values": (INFINITE,), "D": 4}),
        ("ub.recursion", {"k": 2, "ell": (3, 2), "s_values": (8, 9), "D": 4}),
        ("ub.remark", {"k": 2, "ell_1": 2, "s_value": INFINITE, "D": 4}),
        ("ub.step", {"dk": 6, "ell": 4, "s_value": INFINITE}),
        ("ub.cpr", {"p": 3, "r": 3, "k": 2, "m": 1}),
        ("ub.cpr", {"p": 2, "r": 1, "k": 2, "m": 2}),
        ("ub.cpr", {"p": 2, "r": 4, "k": 0, "m": 2}),
        ("ub.inductive", {"sub_dk": 3, "ell": 2, "D_quot": 3, "s_quot": INFINITE}),
        ("ub.squarefree_caps", {"k": 1, "caps": ((2, 5), (3, 8))}),
        ("lb.elb", {"k": 2, "s": 1, "t": 1, "d_star": 6, "n_t": 2, "n_r": 2, "delta": 0}),
        ("lb.elb", {"k": 1, "s": 3, "t": 1, "d_star": 6, "n_t": 2, "n_r": 2, "delta": 0}),
        ("lb.elb", {"k": 2, "s": 3, "t": 0, "d_star": 6, "n_t": 2, "n_r": 2, "delta": 0}),
        ("lb.elb", {"k": 2, "s": 3, "t": 1, "d_star": 6, "n_t": 2, "n_r": 2, "delta": 1}),
        ("ub.extension", {"n": 0, "D_ext": 6, "D_G": 5, "m": 0}),
        ("ub.extension", {"n": 2, "D_ext": 6, "D_G": 5, "m": 5}),
        ("sle.trivial_group", {"order": 2}),
        ("sle.infinite", {"k": 3, "exponent": 3}),
        ("sle.equals_davenport", {"k": 3, "D": 4}),
        ("ub.e2g_d2", {"r": 0}),
        ("ub.e2g_s2m", {"r": 5, "m": 1, "root": 6}),
        ("ub.e2g_s2m", {"r": 0, "m": 2, "root": 2}),
        ("ub.e2g_s2m", {"r": 5, "m": 2, "root": 9}),
        ("ub.e2g_sphere", {"r": 5, "cap": 1}),
        ("ub.e2g_split", {"s": -1, "sub_dk": 3, "rest": 9}),
        ("lb.e2g_d0", {"r": 0}),
        ("ub.e2g_d0", {"r": 0}),
        ("ub.e2g_kd", {"r": 0}),
        ("search.sweep", {"r": 5, "complement_size": 11, "pieces": 6, "instances": 20, "failures": 1}),
        ("ub.e2g_d", {"r": 0}),
        ("ub.e2g_sphere", {"r": 0, "cap": 2}),
    ]

    @pytest.mark.parametrize("rule_id,inputs", VIOLATIONS)
    def test_precondition_violation_raises(self, rule_id, inputs):
        with pytest.raises(BoundError):
            evaluate_rule(rule_id, inputs)

    def test_violations_break_only_the_precondition(self):
        # the same dicts with the broken input mended evaluate
        assert evaluate_rule("ub.cpr", {"p": 3, "r": 3, "k": 2, "m": 2}) == 13
        assert evaluate_rule(
            "lb.elb", {"k": 2, "s": 3, "t": 1, "d_star": 6, "n_t": 2, "n_r": 2, "delta": 0}
        ) == 9
        assert evaluate_rule("ub.extension", {"n": 2, "D_ext": 6, "D_G": 5, "m": 4}) == 6
        assert evaluate_rule("ub.e2g_s2m", {"r": 5, "m": 2, "root": 8}) == 9
        assert evaluate_rule("ub.e2g_sphere", {"r": 5, "cap": 2}) == 32

    def test_recursion_evaluator_matches_rule_on_grid(self):
        # the verifier's re-evaluation and the rule share one scan
        grid = [
            (C23, (), (), 4),
            (C23, (2,), (8,), 4),
            (C24, (2,), (16,), 5),
            (C24, (2, 3), (16, 9), 5),
            (C25, (2, 3, 4), (32, 17, 9), 6),
        ]
        checked = 0
        for G, ell, s_values, D in grid:
            for k in range(1, 7):
                rep = ub_recursion(G, ell, s_values, D, k)
                plain = {name: iv.value for name, iv in rep.inputs}
                assert evaluate_rule("ub.recursion", plain) == rep.value
                checked += 1
        assert checked == 30

    def test_unknown_rule_rejected(self):
        with pytest.raises(BoundError):
            evaluate_rule("search.full_enum", {})

    def test_json_shape(self):
        rep = elb_lower(C25, 3, 1, 2)
        blob = rep.to_json()
        assert blob["rule"] == "lb.elb"
        assert blob["inputs"]["k"]["provenance"] == "supplied"
        assert blob["value"] == 9


# exact tables used for sandwich checks: engine results for small rank,
# the layered formula for cyclic groups and for rank 2 at p = 3
RANK5_EXACT = {1: (6, 6), 2: (10, 10), 3: (13, 14), 4: (16, 17), 5: (19, 19),
               6: (21, 21), 7: (23, 23), 8: (26, 26), 9: (28, 28), 10: (31, 31)}

RANK5_S_LE = {2: 32, 3: 17, 4: 9}


class TestConsistency:
    def test_rank5_two_blocks_sandwich(self):
        reps = collect_bounds(C25, 2, KnownValues(D=6, s_le=RANK5_S_LE))
        lowers = [r.value for r in reps if r.direction == "lower" and r.constant == "D_k"]
        uppers = [r.value for r in reps if r.direction == "upper" and r.constant == "D_k"]
        assert max(lowers) == 9
        assert min(uppers) == 10

    def test_rank5_exact_values_inside_all_rules(self):
        for k, (lo_exact, hi_exact) in RANK5_EXACT.items():
            reps = collect_bounds(C25, k, KnownValues(D=6, s_le=RANK5_S_LE))
            lowers = [r.value for r in reps if r.direction == "lower" and r.constant == "D_k"]
            uppers = [r.value for r in reps if r.direction == "upper" and r.constant == "D_k"]
            assert max(lowers) <= lo_exact
            assert hi_exact <= min(uppers)

    def test_small_rank_engine_values_inside_all_rules(self):
        for r, s_le in ((3, {2: 8}), (4, {2: 16, 4: 6})):
            eng = SmallRankEngine(r)
            G = make_group((2,) * r)
            for k in range(1, 6):
                reps = collect_bounds(G, k, KnownValues(D=r + 1, s_le=s_le))
                lowers = [x.value for x in reps if x.direction == "lower" and x.constant == "D_k"]
                uppers = [x.value for x in reps if x.direction == "upper" and x.constant == "D_k"]
                assert max(lowers) <= eng.dk(k) <= min(uppers), (r, k)

    def test_cyclic_rules_pin_exact_value(self):
        for n in (2, 3, 5, 8, 12):
            G = make_group((n,))
            for k in (1, 2, 3):
                reps = collect_bounds(G, k, KnownValues(D=n, s_le={n: n}))
                lowers = [x.value for x in reps if x.direction == "lower" and x.constant == "D_k"]
                uppers = [x.value for x in reps if x.direction == "upper" and x.constant == "D_k"]
                assert max(lowers) == k * n == min(uppers)

    def test_rank2_p3_rules_pin_exact_value(self):
        for k in (1, 2, 3, 4):
            reps = collect_bounds(C32, k, KnownValues(D=5, s_le={3: 9}))
            lowers = [x.value for x in reps if x.direction == "lower" and x.constant == "D_k"]
            uppers = [x.value for x in reps if x.direction == "upper" and x.constant == "D_k"]
            assert max(lowers) == 3 * k + 2 == min(uppers)

    def test_inconsistent_inputs_abort(self):
        with pytest.raises(BoundConsistencyError):
            collect_bounds(C25, 2, KnownValues(D=2, s_le={2: 32}))


# the groups of the pinned generic rows, then C_3^3, C_5^2 and C_6^2
AGREEMENT_GROUPS = [
    (3, 3), (2, 4), (2, 6), (4, 4), (3, 6), (2, 2, 4), (2, 8), (2,) * 6,
    (3, 3, 3), (5, 5), (6, 6),
]


class TestCatalogMatchesRows:
    @pytest.mark.parametrize("factors", AGREEMENT_GROUPS, ids=lambda f: "x".join(map(str, f)))
    def test_least_upper_is_the_row_upper(self, factors):
        # fed a generic row's own D and thresholds, the catalog reaches the
        # row's upper side, unless the row closes by ub.step, which needs
        # D_{k-1} and so is not in the catalog
        G = make_group(factors)
        D = davenport_k(G, 1).value
        known = KnownValues(D=D)
        for ell in range(G.exponent, min(D, G.exponent + 3)):
            value = s_le(G, ell).value
            if value is not None:
                known.s_le[ell] = value
        for k in range(2, 9):
            row = davenport_k(G, k)
            if row.upper_chain[-1].rule_id == "ub.step":
                continue
            uppers = [r.value for r in collect_bounds(G, k, known) if r.direction == "upper"]
            assert min(uppers) == row.upper, k


class TestRecursionMatchesSingleBlockCap:
    # Known values (D, threshold at the exponent) for a pool of groups.
    POOL = [
        ((2, 2), 3, 4),
        ((2, 2, 2), 4, 8),
        ((2, 2, 2, 2), 5, 16),
        ((3, 3), 5, 7),
        ((2,), 2, 2),
        ((3,), 3, 3),
        ((4,), 4, 4),
        ((5,), 5, 5),
        ((6,), 6, 6),
        ((7,), 7, 7),
        ((8,), 8, 8),
        ((9,), 9, 9),
    ]

    def test_single_level_recursion_reproduces_single_block_cap(self):
        # With one level ell_1 = exponent and threshold s, the recursion
        # equals the one-long-block cap (k-1) ell_1 + max(D, s - ell_1)
        # exactly when s - ell_1 <= D, and is strictly below it otherwise:
        # it splits the remainder into ceil(rest / D) blocks where the cap
        # keeps it whole. Example: the rank-3 group of exponent 2 at k = 2
        # has s - ell_1 = 6 > D = 4; the recursion gives 7 (the exact D_2)
        # and the cap gives 8.
        rng = random.Random(31415)
        seen = {True: 0, False: 0}
        for _ in range(100):
            factors, D, eta = rng.choice(self.POOL)
            k = rng.randint(1, 5)
            G = make_group(factors)
            exp = factors[-1]
            rec = ub_recursion(G, [exp], [eta], D, k).value
            cap = remark_ub(G, k, exp, eta, D).value
            equal_regime = eta - exp <= D
            seen[equal_regime] += 1
            if equal_regime:
                assert rec == cap, (factors, k, rec, cap)
            else:
                assert rec < cap, (factors, k, rec, cap)
        assert seen[True] and seen[False], seen
        assert ub_recursion(C23, [2], [8], 4, 2).value == 7
        assert remark_ub(C23, 2, 2, 8, 4).value == 8

    def test_single_level_recursion_never_exceeds_single_block_cap(self):
        rng = random.Random(27182)
        for _ in range(100):
            factors, D, eta = rng.choice(self.POOL)
            k = rng.randint(1, 5)
            G = make_group(factors)
            exp = factors[-1]
            rec = ub_recursion(G, [exp], [eta], D, k).value
            cap = remark_ub(G, k, exp, eta, D).value
            assert rec <= cap, (factors, k, rec, cap)
