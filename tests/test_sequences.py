"""Tests for the sequence multiset layer and its structural predicates."""

import copy
import dataclasses
import itertools
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerosum import sequences
from zerosum.groups import GroupError, add, element_at, make_group, zero
from zerosum.sequences import (
    DavydovTombakClass,
    NonDivisibleError,
    Sequence,
    SequenceParseError,
    ThresholdError,
    davydov_tombak_check,
    davydov_tombak_threshold,
    format_sequence,
    is_sidon,
    is_sum_free,
    is_zero_sum_free,
    is_zero_sum_free_brute,
    parse_sequence,
    sequence_from_json,
    sequence_to_json,
    short_zero_sum_criteria,
    shortest_zero_sum_length,
)

C2_3 = make_group([2, 2, 2])
C2_4 = make_group([2, 2, 2, 2])
C2_5 = make_group([2] * 5)
C9 = make_group([9])
C6 = make_group([6])
C3_2 = make_group([3, 3])
C2_C4 = make_group([2, 4])
C3_C6 = make_group([3, 6])
C2_2_C4 = make_group([2, 2, 4])
TRIVIAL = make_group([])


def mask_elements(G, *masks):
    r = G.rank
    return [tuple((m >> (r - 1 - i)) & 1 for i in range(r)) for m in masks]


def random_sequence(G, rng, max_len):
    n = rng.randint(0, max_len)
    elems = [element_at(G, rng.randrange(G.order)) for _ in range(n)]
    return Sequence.from_elements(G, elems)


# Fixed inputs for the generic oracle tests: the empty sequence, the
# trivial group, sequences holding 0, multiplicities >= exp(G), and a
# squarefree sequence over C_2^4 whose zero-sums (1 2 3 and 4 8 12 as
# masks) each lie in one half of its support, which a meet-in-the-middle
# split of the support misses.
EDGE_CASES = (
    Sequence.empty(C3_C6),
    Sequence.from_elements(TRIVIAL, [()] * 3),
    parse_sequence(C6, "0; 1^6"),
    parse_sequence(C6, "1^7; 2; 3"),
    parse_sequence(C2_C4, "0,0; 1,1^4; 0,2"),
    parse_sequence(C2_C4, "0,1^5; 1,0^2; 1,2"),
    parse_sequence(C3_C6, "0,1^6; 1,0^3; 2,3"),
    parse_sequence(C3_C6, "0,0^2; 1,2^7"),
    parse_sequence(C2_2_C4, "0,0,0; 0,0,1^5; 1,1,2"),
    parse_sequence(C2_2_C4, "0,1,3^4; 1,0,1^2; 1,1,0; 1,1,2"),
    Sequence.from_elements(C2_4, mask_elements(C2_4, 1, 2, 3, 4, 8, 12)),
)


# ---------------------------------------------------------------------------
# Oracles, kept deliberately dumb


def oracle_shortest_zero_sum(S, cap):
    """Try every sub-multiset by explicit enumeration."""
    G = S.group
    elems = S.as_list()
    z = zero(G)
    for size in range(1, min(cap, len(elems)) + 1):
        for combo in set(itertools.combinations(range(len(elems)), size)):
            total = z
            for i in combo:
                total = add(G, total, elems[i])
            if total == z:
                return size
    return None


def oracle_sidon(G, A):
    """a + b = c + d with at least three distinct elements involved."""
    A = list(A)
    for a, b, c, d in itertools.product(A, repeat=4):
        if len({a, b, c, d}) >= 3 and add(G, a, b) == add(G, c, d):
            return False
    return True


class TestConstruction:
    def test_from_elements_merges(self):
        S = Sequence.from_elements(C2_3, [(1, 0, 0), (1, 0, 0), (0, 1, 0)])
        assert S.length == 3
        assert S.multiplicity((1, 0, 0)) == 2
        assert S.support == ((0, 1, 0), (1, 0, 0))

    def test_zero_multiplicity_dropped(self):
        S = Sequence.from_counts(C2_3, {(1, 0, 0): 0, (0, 1, 0): 1})
        assert S.items == (((0, 1, 0), 1),)

    def test_negative_multiplicity_rejected(self):
        with pytest.raises(ValueError):
            Sequence.from_counts(C2_3, {(1, 0, 0): -1})

    def test_pairs_add_up_after_each_is_checked(self):
        pairs = [((1, 2), 1), ((0, 1), 1), ((1, 2), 2)]
        assert Sequence.from_counts(C3_2, pairs) == Sequence.from_counts(C3_2, {(1, 2): 3, (0, 1): 1})
        with pytest.raises(sequences.SequenceError):
            Sequence.from_counts(C3_2, [((1, 2), -1), ((1, 2), 2)])

    def test_sum_and_cross_number(self):
        S = parse_sequence(C6, "2^3; 3")
        assert S.sum() == (3,)
        # 2 has order 3, 3 has order 2
        assert S.cross_number() == Fraction(3, 3) + Fraction(1, 2)

    def test_sum_matches_add_fold(self):
        # one pass per coordinate agrees with adding the elements one by one,
        # on mixed strides and on multiplicities above the exponent
        rng = random.Random(4242)
        for G in (make_group([]), C6, C3_2, make_group([2, 6]), make_group([2, 2, 4])):
            for _ in range(30):
                elems = [element_at(G, rng.randrange(G.order)) for _ in range(rng.randint(0, 5))]
                elems += [element_at(G, rng.randrange(G.order))] * rng.randint(0, 3 * G.exponent)
                total = zero(G)
                for e in elems:
                    total = add(G, total, e)
                assert Sequence.from_elements(G, elems).sum() == total

    @pytest.mark.parametrize(
        "elements,message",
        [
            ([(1, 0), (2, 1)], "coordinate 2 out of range [0, 2)"),
            ([(0, 1), (1, 4)], "coordinate 4 out of range [0, 4)"),
            ([(0, -1)], "coordinate -1 out of range [0, 4)"),
            ([(1, 1), (1,)], "element (1,) has 1 coordinates, group has rank 2"),
            ([(True, 1)], "coordinate True out of range [0, 2)"),
        ],
    )
    def test_from_elements_rejects_bad_elements(self, elements, message):
        with pytest.raises(GroupError) as err:
            Sequence.from_elements(C2_C4, elements)
        assert str(err.value) == message

    def test_from_elements_equals_from_counts(self):
        rng = random.Random(2821)
        for G in (TRIVIAL, C6, C3_2, C2_C4, C3_C6, C2_2_C4, C2_5):
            for _ in range(20):
                elems = [element_at(G, rng.randrange(G.order)) for _ in range(rng.randint(0, 9))]
                counts = {}
                for e in elems:
                    counts[e] = counts.get(e, 0) + 1
                S = Sequence.from_elements(G, [list(e) for e in elems])
                assert S == Sequence.from_counts(G, counts)
                assert S.items == tuple(sorted(counts.items()))

    def test_kept_sum_is_invisible(self):
        # the sum is kept on the instance once asked for, outside the fields
        S = parse_sequence(C3_C6, "0,4; 1,3^2; 2,5")
        T = parse_sequence(C3_C6, "0,4; 1,3^2; 2,5")
        before = (pickle.dumps(S), repr(S), hash(S))
        assert S.sum() == (1, 3) and S.sum() is S.sum()
        assert (pickle.dumps(S), repr(S), hash(S)) == before
        assert S == T and T == S
        back = pickle.loads(pickle.dumps(S))
        assert back == S and back.sum() == (1, 3)

    def test_kept_hash_is_the_dataclass_hash_and_stays_out_of_copies(self):
        S = parse_sequence(C3_C6, "0,4; 1,3^2; 2,5")
        T = parse_sequence(C3_C6, "0,4; 1,3^2; 2,5")
        before = (pickle.dumps(S), repr(S))
        assert hash(S) == hash((S.group, S.items)) == hash(S)
        S.sum()
        assert S.length == 4 and S.support == ((0, 4), (1, 3), (2, 5))
        assert S.support is S.support
        assert (pickle.dumps(S), repr(S)) == before and S == T and T == S
        kept = ("_length", "_support", "_sum", "_hash")
        for twin in (pickle.loads(pickle.dumps(S)), copy.copy(S), copy.deepcopy(S)):
            assert twin == S and repr(twin) == repr(S)
            assert [getattr(twin, name) for name in kept] == [None] * 4
            assert hash(twin) == hash(S) and twin.sum() == S.sum()
            assert (twin.length, twin.support) == (S.length, S.support)
        with pytest.raises(dataclasses.FrozenInstanceError):
            S.items = ()

    def test_divide_and_times(self):
        S = parse_sequence(C2_3, "1,0,0^2; 0,1,0")
        T = parse_sequence(C2_3, "1,0,0")
        assert S.divide(T).length == 2
        assert S.divide(T).times(T) == S
        with pytest.raises(NonDivisibleError):
            T.divide(S)

    def test_divides(self):
        S = parse_sequence(C2_3, "1,0,0^2; 0,1,0")
        assert parse_sequence(C2_3, "1,0,0").divides(S)
        assert not parse_sequence(C2_3, "1,0,0^3").divides(S)


class TestParsing:
    def test_round_trip(self):
        S = parse_sequence(C2_3, "1,0,0^3; 0,1,0; 1,1,1^2")
        assert parse_sequence(C2_3, format_sequence(S)) == S

    def test_empty_text(self):
        assert parse_sequence(C2_3, "") == Sequence.empty(C2_3)
        assert format_sequence(Sequence.empty(C2_3)) == ""

    def test_json_round_trip(self):
        S = parse_sequence(C3_2, "1,2^4; 2,0")
        assert sequence_from_json(C3_2, sequence_to_json(S)) == S

    def test_json_is_plain_data(self):
        S = parse_sequence(C3_2, "1,2^2")
        assert sequence_to_json(S) == [{"coords": [1, 2], "mult": 2}]

    def test_json_bad_coordinate(self):
        with pytest.raises(GroupError, match=r"^coordinate 3 out of range \[0, 3\)$"):
            sequence_from_json(C3_2, [{"coords": [1, 2], "mult": 1}, {"coords": [3, 0], "mult": 1}])

    @pytest.mark.parametrize(
        "mult,message",
        [
            (1.5, r"^multiplicity must be an integer, got 1\.5$"),
            (-2, r"^negative multiplicity -2 for \(1, 2\)$"),
            (True, r"^multiplicity must be an integer, got True$"),
        ],
    )
    def test_json_bad_multiplicity(self, mult, message):
        data = [{"coords": [2, 0], "mult": 1}, {"coords": [1, 2], "mult": mult}]
        with pytest.raises(sequences.SequenceError, match=message):
            sequence_from_json(C3_2, data)

    def test_json_multiplicities_are_checked_before_they_add_up(self):
        # -1 and 2 copies of one element were once read as one copy
        data = [{"coords": [1, 2], "mult": -1}, {"coords": [1, 2], "mult": 2}]
        with pytest.raises(sequences.SequenceError, match=r"^negative multiplicity -1 for"):
            sequence_from_json(C3_2, data)

    def test_bad_multiplicity(self):
        with pytest.raises(SequenceParseError):
            parse_sequence(C2_3, "1,0,0^x")

    def test_bad_coordinate(self):
        with pytest.raises(SequenceParseError):
            parse_sequence(C2_3, "1,q,0")

    def test_wrong_arity(self):
        with pytest.raises(SequenceParseError):
            parse_sequence(C2_3, "1,0")

    def test_out_of_range_coordinate_rejected(self):
        with pytest.raises(SequenceParseError):
            parse_sequence(C6, "7")


class TestZeroSumFree:
    def test_independent_support_is_free(self):
        S = Sequence.from_elements(C2_3, mask_elements(C2_3, 1, 2, 4))
        assert is_zero_sum_free(S)

    def test_repeat_breaks_freeness(self):
        S = parse_sequence(C2_3, "1,0,0^2")
        assert not is_zero_sum_free(S)

    def test_dependent_support_breaks_freeness(self):
        S = Sequence.from_elements(C2_3, mask_elements(C2_3, 1, 2, 3))
        assert not is_zero_sum_free(S)

    def test_cyclic_extremal(self):
        # g^(n-1) is zero-sum-free in C_n, g^n is not
        assert is_zero_sum_free(parse_sequence(C9, "1^8"))
        assert not is_zero_sum_free(parse_sequence(C9, "1^9"))

    def test_fast_path_matches_brute_on_random_2group(self):
        rng = random.Random(20831)
        for _ in range(120):
            S = random_sequence(C2_4, rng, 6)
            assert is_zero_sum_free(S) == is_zero_sum_free_brute(S)

    def test_generic_matches_subset_oracle(self):
        rng = random.Random(4457)
        inputs = [
            random_sequence(G, rng, 6)
            for G in (C3_2, C2_C4, C3_C6, C2_2_C4, TRIVIAL)
            for _ in range(60)
        ]
        for S in inputs + list(EDGE_CASES):
            expected = oracle_shortest_zero_sum(S, S.length) is None
            assert is_zero_sum_free(S) == expected, S
            assert is_zero_sum_free_brute(S) == expected, S


class TestShortestZeroSum:
    def test_matches_oracle_2group(self):
        rng = random.Random(95173)
        for _ in range(80):
            S = random_sequence(C2_4, rng, 7)
            assert shortest_zero_sum_length(S, 7) == oracle_shortest_zero_sum(S, 7)

    def test_matches_oracle_generic(self):
        rng = random.Random(62011)
        inputs = [
            random_sequence(G, rng, 7)
            for G in (C6, C2_C4, C3_C6, C2_2_C4, TRIVIAL)
            for _ in range(60)
        ]
        for S in inputs + list(EDGE_CASES):
            shortest = oracle_shortest_zero_sum(S, S.length)
            for cap in range(1, max(S.length, 1) + 1):
                expected = shortest if shortest is not None and shortest <= cap else None
                assert shortest_zero_sum_length(S, cap) == expected, (S, cap)

    def test_cap_respected(self):
        S = parse_sequence(C9, "1^9")
        assert shortest_zero_sum_length(S, 8) is None
        assert shortest_zero_sum_length(S, 9) == 9

    def test_zero_element_is_length_one(self):
        S = parse_sequence(C2_3, "0,0,0; 1,0,0")
        assert shortest_zero_sum_length(S, 5) == 1

    def test_cap_below_one_rejected(self):
        with pytest.raises(ValueError):
            shortest_zero_sum_length(Sequence.empty(C2_3), 0)

    def test_short_caps_never_translate(self, monkeypatch):
        # caps 1 and 2 are read off the support: no sum levels are built
        def refuse(*args):
            raise AssertionError("translation was called")

        monkeypatch.setattr(sequences, "translation", refuse)
        S = Sequence.from_elements(C2_5, [element_at(C2_5, i) for i in range(1, 32)])
        assert shortest_zero_sum_length(S, 2) is None
        assert shortest_zero_sum_length(S, 1) is None
        for S in EDGE_CASES:
            for cap in (1, 2):
                shortest_zero_sum_length(S, cap)


# groups with elements of order 2 and of larger orders, C_2^5 and the
# trivial group
SHORT_CAP_GROUPS = (TRIVIAL, C6, C9, C2_C4, C3_2, C3_C6, C2_2_C4, C2_5)


@given(
    st.sampled_from(SHORT_CAP_GROUPS),
    st.lists(st.integers(min_value=0, max_value=71), max_size=9),
    st.sampled_from((1, 2)),
)
@settings(max_examples=300, deadline=None)
def test_short_caps_agree_with_the_levels(G, idx, cap):
    S = Sequence.from_elements(G, [element_at(G, i % G.order) for i in idx])
    direct = shortest_zero_sum_length(S, cap)
    assert direct == sequences._shortest_by_levels(S, cap)
    assert direct == oracle_shortest_zero_sum(S, cap)


class TestSetPredicates:
    def test_sum_free_examples(self):
        assert is_sum_free(C2_5, mask_elements(C2_5, 1, 2, 4, 8, 16, 31))
        assert not is_sum_free(C2_5, mask_elements(C2_5, 1, 2, 3))

    def test_sum_free_rejects_duplicate_input(self):
        with pytest.raises(ValueError):
            is_sum_free(C2_3, [(1, 0, 0), (1, 0, 0)])

    def test_sidon_examples(self):
        assert is_sidon(C2_5, mask_elements(C2_5, 1, 2, 4, 8))
        # 1+2 = 4+7 in GF(2) coordinates
        assert not is_sidon(C2_5, mask_elements(C2_5, 1, 2, 4, 7))

    def test_sidon_matches_quadruple_oracle(self):
        rng = random.Random(77117)
        for _ in range(60):
            size = rng.randint(0, 6)
            masks = rng.sample(range(16), size)
            A = mask_elements(C2_4, *masks)
            assert is_sidon(C2_4, A) == oracle_sidon(C2_4, A)

    def test_sidon_oracle_agreement_generic(self):
        rng = random.Random(3141)
        for _ in range(40):
            size = rng.randint(0, 5)
            idx = rng.sample(range(C3_2.order), size)
            A = [element_at(C3_2, i) for i in idx]
            assert is_sidon(C3_2, A) == oracle_sidon(C3_2, A)


class TestShortZeroSumCriteria:
    def test_classes_are_exact_where_claimed(self):
        rng = random.Random(8086)
        for _ in range(150):
            S = random_sequence(C2_4, rng, 8)
            if S.length == 0:
                continue
            rep = short_zero_sum_criteria(S)
            actual = oracle_shortest_zero_sum(S, S.length)
            if rep.implied_exact:
                assert actual == rep.implied_min_length
            else:
                assert actual is None or actual >= rep.implied_min_length

    def test_sidon_class_gives_five(self):
        S = Sequence.from_elements(C2_5, mask_elements(C2_5, 1, 2, 4, 8, 16, 31))
        rep = short_zero_sum_criteria(S)
        assert rep.support_sidon and rep.implied_min_length == 5
        assert not rep.implied_exact

    def test_rejects_non_2groups(self):
        with pytest.raises(ValueError):
            short_zero_sum_criteria(parse_sequence(C9, "1"))


class TestDavydovTombak:
    def test_threshold_values(self):
        assert [davydov_tombak_threshold(r) for r in range(2, 7)] == [2, 3, 5, 9, 18]

    def test_index2_coset_detected(self):
        odd = [m for m in range(1, 32) if bin(m).count("1") % 2]
        res = davydov_tombak_check(C2_5, mask_elements(C2_5, *odd))
        assert res.kind == "index2-coset"
        assert res.functional == 31

    def test_five_coset_detected(self):
        cfg = mask_elements(C2_5, 16, 17, 8, 9, 4, 5, 2, 3, 30, 31)
        res = davydov_tombak_check(C2_5, cfg)
        assert res.kind == "five-coset"
        assert res.subgroup_basis == (1,)
        assert len(res.coset_reps) == 5

    def test_rank4_base_cases(self):
        res = davydov_tombak_check(C2_4, mask_elements(C2_4, 8, 4, 2, 1, 15))
        assert res.kind == "five-coset"
        res2 = davydov_tombak_check(C2_4, mask_elements(C2_4, 1, 3, 5, 7, 9, 11, 13, 15))
        assert res2.kind == "index2-coset"

    def test_neither_class_has_short_zero_sum(self):
        # above the threshold, "neither" must force a 3-term zero-sum
        masks = [1, 2, 3, 4, 8, 16, 12, 20, 24]
        res = davydov_tombak_check(C2_5, mask_elements(C2_5, *masks))
        assert res.kind == "neither"
        S = Sequence.from_elements(C2_5, mask_elements(C2_5, *masks))
        assert shortest_zero_sum_length(S, 3) == 3

    def test_below_threshold_raises(self):
        with pytest.raises(ThresholdError):
            davydov_tombak_check(C2_5, mask_elements(C2_5, 1, 2, 4))

    def test_zero_in_set_rejected(self):
        with pytest.raises(ValueError):
            davydov_tombak_check(C2_3, mask_elements(C2_3, 0, 1, 2))

    def test_classification_soundness_random(self):
        # every sum-free set at threshold size or above must classify
        rng = random.Random(550)
        hits = 0
        for _ in range(300):
            masks = rng.sample(range(1, 16), 5)
            A = mask_elements(C2_4, *masks)
            if not is_sum_free(C2_4, A):
                continue
            hits += 1
            res = davydov_tombak_check(C2_4, A)
            assert res.kind in ("index2-coset", "five-coset")
        assert hits > 0


@given(
    st.lists(st.integers(min_value=0, max_value=15), max_size=6),
    st.lists(st.integers(min_value=0, max_value=15), max_size=6),
)
@settings(max_examples=150, deadline=None)
def test_times_then_divide_round_trips(a_idx, b_idx):
    A = Sequence.from_elements(C2_4, [element_at(C2_4, i) for i in a_idx])
    B = Sequence.from_elements(C2_4, [element_at(C2_4, i) for i in b_idx])
    prod = A.times(B)
    assert prod.length == A.length + B.length
    assert prod.divide(B) == A
    assert prod.sum() == add(C2_4, A.sum(), B.sum())


@given(st.lists(st.integers(min_value=0, max_value=8), max_size=7))
@settings(max_examples=150, deadline=None)
def test_subsequence_of_free_is_free(idx):
    S = Sequence.from_elements(C9, [element_at(C9, i) for i in idx])
    if not is_zero_sum_free(S):
        return
    for e, _ in S.items:
        T = S.divide(Sequence.from_elements(C9, [e]))
        assert is_zero_sum_free(T)
