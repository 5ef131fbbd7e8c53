import copy
import dataclasses
import gc
import pickle
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerosum import groups
from zerosum.groups import (
    Group,
    GroupError,
    GroupParseError,
    add,
    element_at,
    element_index,
    element_order,
    enumerate_elements,
    format_group,
    make_group,
    neg,
    parse_group,
    profile,
    scale,
    slot_rows,
    translation,
    validate_element,
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


class TestInterning:
    """make_group hands out one Group per invariant-factor tuple."""

    def test_one_instance_per_group(self):
        assert make_group([4, 2]) is make_group([2, 4]) is parse_group("2,4")
        assert parse_group(" 4 ,2") is parse_group("2,4") is parse_group(format_group(Group((2, 4))))
        assert make_group([2, 3]) is make_group([6]) is parse_group("6")
        assert parse_group("2^3") is make_group((2, 2, 2))

    def test_type_checks_run_before_the_table(self):
        make_group([2, 3])
        with pytest.raises(GroupError, match="^group factors must be integers, got 2.0$"):
            make_group([2.0, 3])
        with pytest.raises(GroupError, match="^group factors must be integers, got True$"):
            make_group([True, 2])

    @pytest.mark.parametrize("spec", [5, [2, 2], None], ids=["int", "list", "none"])
    def test_non_string_spec_is_refused(self, spec):
        # a list once reached str.strip and died with an AttributeError
        with pytest.raises(GroupError, match="^a group spec must be a string, got "):
            parse_group(spec)

    def test_table_keeps_no_group_alive(self):
        G = make_group([997, 997])
        hash(G), format_group(G), profile(G), validate_element(G, (1, 2))
        gone = weakref.ref(G)
        del G
        gc.collect()
        assert gone() is None
        assert (997, 997) not in groups._GROUPS and "997^2" not in groups._GROUPS

    def test_translation_keeps_no_group_alive(self):
        # the rotates live on the group, not in a module-level cache keyed on it
        G = make_group([991, 991])
        assert len(translation(G, (1, 2))) == 2
        gone = weakref.ref(G)
        del G
        gc.collect()
        assert gone() is None
        assert (991, 991) not in groups._GROUPS and "991^2" not in groups._GROUPS

    @pytest.mark.parametrize("factors", [(2, 4), (3, 3), (2, 2, 6)])
    def test_translation_moves_each_element_by_a(self, factors):
        G = make_group(factors)
        for a in enumerate_elements(G):
            for b in enumerate_elements(G):
                t = 1 << element_index(G, b)
                for low, high, up, down in translation(G, a):
                    t = (t & low) << up | (t & high) >> down
                assert t == 1 << element_index(G, add(G, a, b)), (a, b)

    def test_a_directly_built_group_behaves_as_the_shared_one(self):
        shared = make_group([2, 4])
        direct = Group((2, 4))
        assert direct is not shared
        assert direct == shared
        assert hash(direct) == hash(shared) == hash(((2, 4),))
        assert repr(direct) == repr(shared) == "Group(2|4)"
        assert format_group(direct) == "2,4"
        assert profile(direct) == profile(shared)


class TestKeptData:
    """A group's kept data stays out of equality, repr and pickling."""

    @staticmethod
    def filled():
        G = make_group([2, 4])
        hash(G), format_group(G), profile(G)
        validate_element(G, (1, 0))
        slot_rows(G)[(1, 0)]
        assert {"_hash", "_label", "_profile", "_checked", "_rotates", "_slot_rows"} <= set(vars(G))
        return G

    @pytest.mark.parametrize("clone", [
        lambda G: pickle.loads(pickle.dumps(G)),
        copy.copy,
        copy.deepcopy,
    ], ids=["pickle", "copy", "deepcopy"])
    def test_round_trip_carries_no_kept_key(self, clone):
        G = self.filled()
        twin = clone(G)
        assert vars(twin) == {"invariant_factors": (2, 4)}
        assert twin == G and hash(twin) == hash(G) and repr(twin) == repr(G)

    def test_kept_data_is_not_a_field(self):
        G = self.filled()
        assert [f.name for f in dataclasses.fields(G)] == ["invariant_factors"]
        assert dataclasses.asdict(G) == {"invariant_factors": (2, 4)}
        assert G == Group((2, 4))

    def test_hash_is_the_dataclass_hash(self):
        for factors in [(), (2,), (2, 4), (3, 3, 3)]:
            assert hash(make_group(factors)) == hash((factors,))


class TestValidatedElements:
    """A tuple the group accepted before passes on a set lookup; what the
    parent refused is refused still, with its message."""

    @pytest.mark.parametrize("coords,message", [
        ((True, 0), "coordinate True out of range [0, 2)"),
        ((1.0, 0), "coordinate 1.0 out of range [0, 2)"),
        ((1, 9), "coordinate 9 out of range [0, 4)"),
        ((1,), "element (1,) has 1 coordinates, group has rank 2"),
        (([1], 0), "coordinate [1] out of range [0, 2)"),
    ], ids=["bool", "float", "range", "rank", "unhashable"])
    def test_refused_after_an_equal_tuple_was_accepted(self, coords, message):
        G = make_group([2, 4])
        assert validate_element(G, (1, 0)) == (1, 0)
        assert validate_element(G, [1, 0]) == (1, 0)
        with pytest.raises(GroupError) as err:
            validate_element(G, coords)
        assert str(err.value) == message
        assert all(type(x) is int for a in G._checked for x in a)


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
