import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerosum.groups import (
    Group,
    GroupError,
    GroupParseError,
    add,
    element_at,
    element_index,
    element_order,
    enumerate_elements,
    make_group,
    neg,
    parse_group,
    profile,
    scale,
    zero,
)


def snf_invariant_factors(factors):
    """Independent oracle: Smith normal form of diag(factors) via sympy."""
    from sympy import Matrix
    from sympy.matrices.normalforms import smith_normal_form

    if not factors:
        return ()
    m = Matrix.diag(*factors)
    d = smith_normal_form(m)
    diag = [int(d[i, i]) for i in range(len(factors))]
    return tuple(x for x in diag if x > 1)


class TestMakeGroup:
    def test_already_canonical(self):
        assert make_group([2, 2, 2]).invariant_factors == (2, 2, 2)

    def test_crt_merge(self):
        assert make_group([2, 3]).invariant_factors == (6,)

    def test_mixed_decomposition_against_snf_oracle(self):
        # frozen oracle value: smith_normal_form(diag(4,2,8)) has
        # nontrivial diagonal (2, 4, 8)
        assert make_group([4, 2, 8]).invariant_factors == (2, 4, 8)
        assert snf_invariant_factors([4, 2, 8]) == (2, 4, 8)

    def test_random_decompositions_match_snf(self):
        rng = random.Random(20240817)
        for _ in range(40):
            factors = [rng.choice([2, 3, 4, 5, 6, 8, 9, 12]) for _ in range(rng.randint(1, 4))]
            assert make_group(factors).invariant_factors == snf_invariant_factors(factors)

    def test_trivial(self):
        G = make_group([])
        assert G.rank == 0 and G.order == 1 and G.exponent == 1

    def test_rejects_below_two(self):
        with pytest.raises(GroupError):
            make_group([1])
        with pytest.raises(GroupError):
            make_group([2, 0])

    def test_idempotent_on_canonical_lists(self):
        for factors in [(2, 2, 2), (2, 4, 8), (6,), (3, 3)]:
            G = make_group(list(factors))
            assert make_group(list(G.invariant_factors)) == G

    def test_group_constructor_enforces_divisibility(self):
        with pytest.raises(GroupError):
            Group((4, 2))


class TestParseGroup:
    def test_comma_list(self):
        assert parse_group("2,2,2,2").invariant_factors == (2, 2, 2, 2)

    def test_power_shorthand(self):
        assert parse_group("2^4").invariant_factors == (2, 2, 2, 2)
        assert parse_group("3^3").invariant_factors == (3, 3, 3)

    def test_mixed(self):
        assert parse_group("2^2,4").invariant_factors == (2, 2, 4)

    def test_canonicalizes(self):
        assert parse_group("3,2").invariant_factors == (6,)

    def test_empty_is_trivial(self):
        assert parse_group("").is_trivial

    def test_error_positions(self):
        with pytest.raises(GroupParseError) as info:
            parse_group("2,x,2")
        assert info.value.position == 2
        with pytest.raises(GroupParseError) as info:
            parse_group("2^")
        assert info.value.position == 2
        with pytest.raises(GroupParseError):
            parse_group("2,,2")
        with pytest.raises(GroupParseError):
            parse_group("1")


class TestProfile:
    def test_c2_cubed(self):
        p = profile(make_group([2, 2, 2]))
        assert (p.order, p.exponent, p.rank, p.d_star) == (8, 2, 3, 4)
        assert p.minus_factors == (2, 2)

    def test_c3_cubed_d_star(self):
        assert profile(make_group([3, 3, 3])).d_star == 7

    def test_trivial(self):
        p = profile(make_group([]))
        assert (p.order, p.exponent, p.rank, p.d_star) == (1, 1, 0, 1)
        assert p.minus_factors == ()

    def test_equal_groups_share_one_frozen_profile(self):
        # profile is kept per group, so a caller must not be able to change it
        p = profile(make_group([4, 2]))
        assert profile(parse_group("2,4")) is p
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.rank = 3
        assert (p.order, p.exponent, p.rank, p.d_star) == (8, 4, 2, 5)


class TestElements:
    def test_mod2_addition(self):
        G = make_group([2, 2, 2])
        assert add(G, (1, 0, 1), (1, 1, 0)) == (0, 1, 1)

    def test_element_order_c6(self):
        G = make_group([6])
        assert element_order(G, (2,)) == 3
        assert element_order(G, (1,)) == 6
        assert element_order(G, (0,)) == 1

    def test_enumeration_lexicographic(self):
        G = make_group([2, 2])
        assert list(enumerate_elements(G)) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_enumeration_counts(self):
        for factors in [[2, 2, 2], [3, 3], [2, 4], [6]]:
            G = make_group(factors)
            elems = list(enumerate_elements(G))
            assert len(elems) == G.order
            assert len(set(elems)) == G.order

    def test_mixed_group_operands_rejected(self):
        G = make_group([2, 2])
        with pytest.raises(GroupError):
            add(G, (1, 0), (1, 0, 0))
        with pytest.raises(GroupError):
            neg(G, (1,))

    def test_index_round_trip(self):
        for factors in [[2, 2, 2, 2], [3, 3], [2, 4], [12]]:
            G = make_group(factors)
            for i, e in enumerate(enumerate_elements(G)):
                assert element_index(G, e) == i
                assert element_at(G, i) == e

    def test_mask_fast_path_matches_indexing(self):
        G = make_group([2, 2, 2])
        assert element_index(G, (1, 0, 0)) == 4
        assert element_index(G, (0, 1, 1)) == 3


@st.composite
def group_and_elements(draw):
    factors = draw(
        st.lists(st.sampled_from([2, 3, 4, 6, 8, 9]), min_size=1, max_size=3)
    )
    G = make_group(factors)
    elems = [
        tuple(draw(st.integers(0, n - 1)) for n in G.invariant_factors)
        for _ in range(3)
    ]
    return G, elems


@settings(max_examples=200, deadline=None)
@given(group_and_elements())
def test_group_axioms(data):
    G, (a, b, c) = data
    assert add(G, add(G, a, b), c) == add(G, a, add(G, b, c))
    assert add(G, a, neg(G, a)) == zero(G)
    assert add(G, a, zero(G)) == a
    assert G.exponent % element_order(G, a) == 0
    assert scale(G, a, element_order(G, a)) == zero(G)
