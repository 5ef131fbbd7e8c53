"""Tests for atom enumeration, disjoint zero-sum search, and length sets."""

import functools
import itertools
import random

import pytest

from zerosum.groups import add, element_at, make_group, neg, zero
from zerosum.factorizations import (
    BudgetExhausted,
    Factorization,
    LengthSet,
    atoms_through,
    distance,
    enumerate_factorizations,
    is_minimal_zero_sum,
    length_set,
    max_disjoint_zero_sums,
    max_length,
    minimal_divisors,
    successive_distance_of,
)
from zerosum.sequences import Sequence, format_sequence, parse_sequence

C2_2 = make_group([2, 2])
C2_3 = make_group([2, 2, 2])
C2_4 = make_group([2] * 4)
C3 = make_group([3])
C3_2 = make_group([3, 3])
C4 = make_group([4])
C6 = make_group([6])
C2_C4 = make_group([2, 4])


def mask_el(G, m):
    r = G.rank
    return tuple((m >> (r - 1 - i)) & 1 for i in range(r))


def full_squarefree(G):
    return Sequence.from_elements(
        G, [element_at(G, i) for i in range(1, G.order)]
    )


def random_sequence(G, rng, max_len, allow_zero=True):
    n = rng.randint(0, max_len)
    lo = 0 if allow_zero else 1
    return Sequence.from_elements(
        G, [element_at(G, rng.randrange(lo, G.order)) for _ in range(n)]
    )


# ---------------------------------------------------------------------------
# Brute oracles using nothing from the module under test


def oracle_minimal(S):
    G = S.group
    z = zero(G)
    elems = S.as_list()
    if not elems:
        return False
    total = z
    for e in elems:
        total = add(G, total, e)
    if total != z:
        return False
    n = len(elems)
    for size in range(1, n):
        for combo in itertools.combinations(range(n), size):
            s = z
            for i in combo:
                s = add(G, s, elems[i])
            if s == z:
                return False
    return True


def oracle_atoms(S):
    """Distinct minimal zero-sum sub-multisets, via index subsets."""
    elems = S.as_list()
    found = set()
    for size in range(1, len(elems) + 1):
        for combo in itertools.combinations(range(len(elems)), size):
            part = Sequence.from_elements(S.group, [elems[i] for i in combo])
            if part.items in found:
                continue
            if oracle_minimal(part):
                found.add(part.items)
    return found


@functools.lru_cache(maxsize=None)
def oracle_length_set(S, cap=None):
    """Factorization lengths into atoms of length <= cap, removing every
    atom in turn (no pinning).

    Empty when S is not zero-sum, since no product of atoms is S.
    """
    if S.length == 0:
        return frozenset([0])
    return frozenset(
        1 + n
        for atom_items in oracle_atoms(S)
        if cap is None or sum(m for _, m in atom_items) <= cap
        for n in oracle_length_set(S.divide(Sequence(S.group, atom_items)), cap)
    )


@functools.lru_cache(maxsize=None)
def oracle_max_disjoint(S):
    """Most disjoint atoms in S; every nonempty zero-sum holds an atom."""
    return max(
        [0]
        + [
            1 + oracle_max_disjoint(S.divide(Sequence(S.group, atom_items)))
            for atom_items in oracle_atoms(S)
        ]
    )


def oracle_factorization_count(S):
    """Count factorizations by recursing on the least remaining element."""
    if S.length == 0:
        return 1
    p = S.items[0][0]
    total = 0
    for atom_items in oracle_atoms(S):
        atom = Sequence(S.group, atom_items)
        if atom.multiplicity(p) == 0:
            continue
        rest = S.divide(atom)
        # only count orderings where the atoms removed at each level are
        # nondecreasing, keyed by canonical form, to avoid double counts
        total += _oracle_count_above(rest, atom_items)
    return total


def _oracle_count_above(S, floor_items):
    if S.length == 0:
        return 1
    p = S.items[0][0]
    total = 0
    for atom_items in oracle_atoms(S):
        atom = Sequence(S.group, atom_items)
        if atom.multiplicity(p) == 0:
            continue
        if atom_items < floor_items:
            continue
        total += _oracle_count_above(S.divide(atom), atom_items)
    return total


class TestAgainstOracles:
    GROUPS = (C2_3, C4, C6, C3_2, C2_C4)

    def test_lengths_and_packings_match_oracle(self):
        rng = random.Random(6011)
        zero_sum = 0
        for G in self.GROUPS:
            for _ in range(40):
                S = random_sequence(G, rng, 7)
                assert max_disjoint_zero_sums(S) == oracle_max_disjoint(S), S
                lengths = oracle_length_set(S)
                if S.sum() != zero(G):
                    assert not lengths
                    continue
                zero_sum += 1
                assert length_set(S).lengths == tuple(sorted(lengths)), S
                assert max_length(S) == max(lengths), S
                assert max_disjoint_zero_sums(S) == max(lengths), S
        assert zero_sum >= 20

    def test_zero_sum_closures_match_oracle(self):
        # random sequences are seldom zero-sum; close each one with the
        # negative of its sum to test the length sets, capped too, on more
        # inputs
        rng = random.Random(6012)
        for G in self.GROUPS:
            for _ in range(25):
                S = random_sequence(G, rng, 6)
                B = S.times(Sequence.from_elements(G, [neg(G, S.sum())]))
                lengths = tuple(sorted(oracle_length_set(B)))
                assert length_set(B).lengths == lengths, B
                assert max_length(B) == lengths[-1], B
                assert max_disjoint_zero_sums(B) == lengths[-1], B
                for cap in (2, 3):
                    capped = tuple(sorted(oracle_length_set(B, cap)))
                    if capped:
                        assert length_set(B, atom_cap=cap).lengths == capped, B
                    else:
                        with pytest.raises(ValueError):
                            length_set(B, atom_cap=cap)

    # Orders pinned from the per-function recursions this search replaced.
    PINNED_ORDER = [
        (
            C2_3,
            "1,0,0^2; 0,1,0; 0,1,1^2; 0,0,1; 1,1,0; 1,0,1",
            ["0,0,1; 0,1,0; 0,1,1", "0,0,1; 0,1,0; 1,0,1; 1,1,0",
             "0,0,1; 0,1,1; 1,0,0; 1,1,0", "0,0,1; 1,0,0; 1,0,1",
             "0,1,0; 0,1,1; 1,0,0; 1,0,1", "0,1,0; 1,0,0; 1,1,0", "0,1,1^2",
             "0,1,1; 1,0,1; 1,1,0", "1,0,0^2"],
            ["Factorization[(0,0,1; 0,1,0; 0,1,1) (0,1,1; 1,0,1; 1,1,0) (1,0,0^2)]",
             "Factorization[(0,0,1; 0,1,0; 1,0,1; 1,1,0) (0,1,1^2) (1,0,0^2)]",
             "Factorization[(0,0,1; 0,1,1; 1,0,0; 1,1,0) (0,1,0; 0,1,1; 1,0,0; 1,0,1)]",
             "Factorization[(0,0,1; 1,0,0; 1,0,1) (0,1,0; 1,0,0; 1,1,0) (0,1,1^2)]"],
        ),
        (
            C6,
            "1^2; 2; 3^2; 4; 5^2",
            ["1^2; 4", "1; 2; 3", "1; 5", "2; 4", "2; 5^2", "3^2", "3; 4; 5"],
            ["Factorization[(1^2; 4) (2; 5^2) (3^2)]",
             "Factorization[(1; 2; 3) (1; 5) (3; 4; 5)]",
             "Factorization[(1; 5)^2 (2; 4) (3^2)]"],
        ),
    ]

    @pytest.mark.parametrize("G,text,atoms,factorizations", PINNED_ORDER)
    def test_enumeration_order_pinned(self, G, text, atoms, factorizations):
        S = parse_sequence(G, text)
        assert [format_sequence(a) for a in minimal_divisors(S)] == atoms
        assert [repr(f) for f in enumerate_factorizations(S)] == factorizations


class TestMinimality:
    def test_zero_singleton_is_minimal(self):
        assert is_minimal_zero_sum(parse_sequence(C2_3, "0,0,0"))

    def test_doubled_involution_is_minimal(self):
        assert is_minimal_zero_sum(parse_sequence(C2_3, "1,0,0^2"))

    def test_doubled_zero_is_not(self):
        assert not is_minimal_zero_sum(parse_sequence(C2_3, "0,0,0^2"))

    def test_empty_is_not(self):
        assert not is_minimal_zero_sum(Sequence.empty(C2_3))

    def test_non_zero_sum_is_not(self):
        assert not is_minimal_zero_sum(parse_sequence(C2_3, "1,0,0"))

    def test_circuit_is_minimal(self):
        S = Sequence.from_elements(C2_3, [mask_el(C2_3, m) for m in (1, 2, 4, 7)])
        assert is_minimal_zero_sum(S)

    def test_union_of_circuits_is_not(self):
        S = Sequence.from_elements(
            C2_3, [mask_el(C2_3, m) for m in (1, 2, 3)] + [mask_el(C2_3, 4)] * 2
        )
        assert not is_minimal_zero_sum(S)

    def test_matches_oracle_on_2group(self):
        rng = random.Random(1203)
        for _ in range(150):
            S = random_sequence(C2_3, rng, 6)
            assert is_minimal_zero_sum(S) == oracle_minimal(S)

    def test_matches_oracle_on_generic_group(self):
        rng = random.Random(917)
        for _ in range(150):
            S = random_sequence(C6, rng, 6)
            assert is_minimal_zero_sum(S) == oracle_minimal(S)


class TestMinimalDivisors:
    def test_single_atom_over_rank2(self):
        S = Sequence.from_elements(C2_2, [mask_el(C2_2, m) for m in (1, 2, 3)])
        found = list(minimal_divisors(S, max_len=3))
        assert found == [S]

    def test_length3_atom_count_in_full_rank3(self):
        found = list(minimal_divisors(full_squarefree(C2_3), max_len=3))
        assert len(found) == 7

    def test_zero_sum_free_gives_nothing(self):
        S = Sequence.from_elements(C2_3, [mask_el(C2_3, m) for m in (1, 2, 4)])
        assert list(minimal_divisors(S)) == []

    def test_matches_oracle(self):
        rng = random.Random(5521)
        for _ in range(40):
            S = random_sequence(C2_3, rng, 6)
            ours = {a.items for a in minimal_divisors(S)}
            assert ours == oracle_atoms(S)

    def test_matches_oracle_generic(self):
        rng = random.Random(5522)
        for _ in range(30):
            S = random_sequence(C4, rng, 6)
            ours = {a.items for a in minimal_divisors(S)}
            assert ours == oracle_atoms(S)

    def test_deterministic_order(self):
        S = full_squarefree(C2_3)
        first = [a.items for a in minimal_divisors(S)]
        second = [a.items for a in minimal_divisors(S)]
        assert first == second

    def test_length_cap(self):
        S = full_squarefree(C2_3)
        capped = {a.length for a in minimal_divisors(S, max_len=3)}
        assert capped == {3}
        uncapped = {a.length for a in minimal_divisors(S)}
        assert max(uncapped) > 3

    def test_atoms_through_pins_element(self):
        S = full_squarefree(C2_3)
        g = mask_el(C2_3, 1)
        atoms = list(atoms_through(S, g))
        assert atoms and all(g in a for a in atoms)
        assert len(set(atoms)) == len(atoms)


class TestMaxDisjoint:
    def test_full_rank3(self):
        assert max_disjoint_zero_sums(full_squarefree(C2_3)) == 2

    def test_zero_powers(self):
        assert max_disjoint_zero_sums(parse_sequence(C2_3, "0,0,0^5")) == 5

    def test_zero_sum_free_gives_zero(self):
        S = Sequence.from_elements(C2_3, [mask_el(C2_3, m) for m in (1, 2, 4)])
        assert max_disjoint_zero_sums(S) == 0

    def test_empty(self):
        assert max_disjoint_zero_sums(Sequence.empty(C2_3)) == 0

    def test_budget_exhaustion_raises(self):
        with pytest.raises(BudgetExhausted):
            max_disjoint_zero_sums(full_squarefree(C2_4), budget=5)

    def test_coordinate_permutation_invariance(self):
        rng = random.Random(314)
        for _ in range(20):
            S = random_sequence(C2_3, rng, 6)
            perm = list(range(3))
            rng.shuffle(perm)
            T = Sequence.from_elements(
                C2_3, [tuple(e[perm[i]] for i in range(3)) for e in S.as_list()]
            )
            assert max_disjoint_zero_sums(S) == max_disjoint_zero_sums(T)


class TestMaxLength:
    def test_full_rank4(self):
        assert max_length(full_squarefree(C2_4)) == 5

    def test_atom_gives_one(self):
        S = Sequence.from_elements(C2_2, [mask_el(C2_2, m) for m in (1, 2, 3)])
        assert max_length(S) == 1

    def test_rejects_non_zero_sum(self):
        with pytest.raises(ValueError):
            max_length(parse_sequence(C2_3, "1,0,0"))

    def test_append_pair_identity(self):
        # appending g twice (an inverse pair in a 2-group) adds exactly one part
        rng = random.Random(808)
        for _ in range(25):
            S = random_sequence(C2_3, rng, 6)
            if S.sum() != zero(C2_3):
                continue
            g = element_at(C2_3, rng.randrange(1, 8))
            S2 = S.times(Sequence.from_elements(C2_3, [g, g]))
            assert max_length(S2) == 1 + max_length(S)

    def test_append_pair_identity_generic(self):
        from zerosum.groups import neg

        rng = random.Random(809)
        for _ in range(25):
            S = random_sequence(C3_2, rng, 5)
            if S.sum() != zero(C3_2):
                continue
            g = element_at(C3_2, rng.randrange(1, 9))
            S2 = S.times(Sequence.from_elements(C3_2, [g, neg(C3_2, g)]))
            assert max_length(S2) == 1 + max_length(S)

    def test_equals_max_of_length_set(self):
        rng = random.Random(2718)
        for G in (C2_3, C3_2, C4):
            for _ in range(25):
                S = random_sequence(G, rng, 8)
                if S.sum() != zero(G) or S.length == 0:
                    continue
                assert max_length(S) == length_set(S).max

    def test_squarefree_third_bound(self):
        rng = random.Random(99)
        for _ in range(40):
            size = rng.randint(3, 9)
            masks = rng.sample(range(1, 16), size)
            S = Sequence.from_elements(C2_4, [mask_el(C2_4, m) for m in masks])
            if S.sum() != zero(C2_4):
                continue
            assert max_length(S) <= S.length // 3

    def test_coset_quarter_bound(self):
        # support inside the nonzero coset of an index-2 subgroup
        rng = random.Random(100)
        odd = [m for m in range(1, 16) if bin(m).count("1") % 2]
        for _ in range(40):
            size = rng.randint(4, len(odd))
            masks = rng.sample(odd, size)
            S = Sequence.from_elements(C2_4, [mask_el(C2_4, m) for m in masks])
            if S.sum() != zero(C2_4):
                continue
            assert max_length(S) <= S.length // 4


class TestLengthSet:
    def test_atom(self):
        S = Sequence.from_elements(C2_2, [mask_el(C2_2, m) for m in (1, 2, 3)])
        assert length_set(S).lengths == (1,)

    def test_empty(self):
        assert length_set(Sequence.empty(C2_3)).lengths == (0,)

    def test_zero_append_shifts(self):
        rng = random.Random(41)
        for _ in range(15):
            S = random_sequence(C2_3, rng, 6, allow_zero=False)
            if S.sum() != zero(C2_3):
                continue
            shifted = length_set(S.times(parse_sequence(C2_3, "0,0,0")))
            assert shifted.lengths == tuple(1 + n for n in length_set(S).lengths)

    def test_gaps(self):
        assert LengthSet((2, 3, 5)).gaps() == (1, 2)
        assert LengthSet((4,)).gaps() == ()

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            LengthSet((3, 2))

    def test_budget_exhaustion_raises(self):
        with pytest.raises(BudgetExhausted):
            length_set(full_squarefree(C2_4), budget=5)


class TestEnumerateFactorizations:
    def test_double_zero(self):
        facs = list(enumerate_factorizations(parse_sequence(C2_3, "0,0,0^2")))
        assert len(facs) == 1
        assert facs[0].length == 2

    def test_rejects_zero_sum_free(self):
        S = Sequence.from_elements(C2_3, [mask_el(C2_3, m) for m in (1, 2, 4)])
        with pytest.raises(ValueError):
            list(enumerate_factorizations(S))

    def test_pair_cube_over_rank2(self):
        B = parse_sequence(C2_2, "1,0^2; 0,1^2; 1,1^2")
        facs = list(enumerate_factorizations(B))
        assert sorted(f.length for f in facs) == [2, 3]

    def test_products_reproduce_input(self):
        rng = random.Random(77)
        for _ in range(15):
            S = random_sequence(C2_3, rng, 7)
            if S.sum() != zero(C2_3):
                continue
            for f in enumerate_factorizations(S):
                assert f.product() == S

    def test_no_duplicates_and_count_matches_oracle(self):
        rng = random.Random(78)
        checked = 0
        for _ in range(40):
            S = random_sequence(C2_3, rng, 6)
            s = S.sum()
            if s != zero(C2_3):
                S = S.times(Sequence.from_elements(C2_3, [s]))
            if S.length == 0:
                continue
            facs = list(enumerate_factorizations(S))
            assert len({f.atoms for f in facs}) == len(facs)
            assert len(facs) == oracle_factorization_count(S)
            checked += 1
        assert checked >= 30

    def test_count_matches_oracle_generic(self):
        rng = random.Random(79)
        checked = 0
        for _ in range(40):
            S = random_sequence(C3_2, rng, 6)
            if S.sum() != zero(C3_2) or S.length == 0:
                continue
            facs = list(enumerate_factorizations(S))
            assert len(facs) == oracle_factorization_count(S)
            checked += 1
        assert checked >= 5

    def test_json_round_trip(self):
        B = parse_sequence(C2_2, "1,0^2; 0,1^2; 1,1^2")
        for f in enumerate_factorizations(B):
            assert Factorization.from_json(C2_2, f.to_json()) == f

    def test_construction_rejects_non_atom(self):
        with pytest.raises(ValueError):
            Factorization.from_atoms(C2_3, [parse_sequence(C2_3, "0,0,0^2")])


class TestDistance:
    def test_self_distance_zero(self):
        B = parse_sequence(C2_2, "1,0^2; 0,1^2; 1,1^2")
        for f in enumerate_factorizations(B):
            assert distance(f, f) == 0

    def test_disjoint_atoms(self):
        z1 = Factorization.from_atoms(C2_3, [parse_sequence(C2_3, "0,0,0")] * 2)
        z2 = Factorization.from_atoms(
            C2_3,
            [
                parse_sequence(C2_3, "1,0,0^2"),
                parse_sequence(C2_3, "0,1,0^2"),
                parse_sequence(C2_3, "0,0,1^2"),
            ],
        )
        assert distance(z1, z2) == 3

    def test_symmetry_and_triangle(self):
        B = parse_sequence(C2_3, "1,0,0^2; 0,1,0^2; 1,1,0^2")
        facs = list(enumerate_factorizations(B))
        rng = random.Random(31)
        for _ in range(30):
            a, b, c = (rng.choice(facs) for _ in range(3))
            assert distance(a, b) == distance(b, a)
            assert distance(a, c) <= distance(a, b) + distance(b, c)
            assert (distance(a, b) == 0) == (a == b)


class TestSuccessiveDistance:
    def test_atom_factorization(self):
        atom = Sequence.from_elements(C2_2, [mask_el(C2_2, m) for m in (1, 2, 3)])
        z = Factorization.from_atoms(C2_2, [atom])
        assert successive_distance_of(z) == 0

    def test_tiny_group_always_zero(self):
        C2 = make_group([2])
        B = parse_sequence(C2, "1^4; 0^2")
        for z in enumerate_factorizations(B):
            assert successive_distance_of(z) == 0

    def test_within_crude_group_bound_over_c3(self):
        bound = (2 * 3) ** (3 * 3 + 1)
        B = parse_sequence(C3, "1^3; 2^3; 0")
        seen = 0
        for z in enumerate_factorizations(B):
            assert successive_distance_of(z) <= bound
            seen += 1
        assert seen >= 2

    def test_pair_cube_adjacent_lengths(self):
        B = parse_sequence(C2_2, "1,0^2; 0,1^2; 1,1^2")
        for z in enumerate_factorizations(B):
            # lengths are {2, 3}; moving between them rewrites everything
            assert successive_distance_of(z) == 3
