"""Tests for the explicit witness constructions."""

from itertools import combinations

import pytest

from zerosum.bounds import BoundError, elb_lower
from zerosum.constructions import (
    c3_cap,
    c3_cap_witness,
    elb_witness,
    maxfull_factorization,
    paige_bijection,
)
from zerosum.factorizations import is_minimal_zero_sum, max_disjoint_zero_sums
from zerosum.groups import make_group, profile


def length_identity(G, s, t, k):
    prof = profile(G)
    factors = G.invariant_factors
    n_t = factors[t - 1]
    n_r = factors[-1]
    return prof.d_star - 1 + s * (n_t // 2) + (n_t % 2) + (k - 2) * n_r


class TestElbWitness:
    def test_rank4_pairs_example(self):
        G = make_group((2, 2, 2, 2))
        w = elb_witness(G, 3, 1, 2)
        assert w.length == 7
        assert max_disjoint_zero_sums(w) == 1

    def test_rank5_example(self):
        G = make_group((2, 2, 2, 2, 2))
        w = elb_witness(G, 3, 1, 2)
        assert w.length == 8
        assert max_disjoint_zero_sums(w) == 1

    def test_odd_factor_example(self):
        G = make_group((3, 3, 3))
        w = elb_witness(G, 2, 1, 2)
        assert w.length == 9
        assert max_disjoint_zero_sums(w) == 1

    def test_length_matches_bound_minus_one(self):
        pools = [
            (2, 2), (2, 2, 2), (2, 2, 2, 2), (2, 2, 2, 2, 2),
            (3, 3), (3, 3, 3), (4, 4), (2, 4, 4), (2, 2, 6),
            (5, 5), (2, 2, 2, 8), (3, 9), (6, 6), (2, 4, 8),
            (7, 7), (2, 2, 4, 4), (3, 3, 3, 3), (10, 10),
        ]
        checked = 0
        for factors in pools:
            G = make_group(factors)
            r = len(factors)
            for t in range(1, r + 1):
                for s in range(2, r + 2):
                    if s * (s - 1) // 2 > r - t + 1:
                        continue
                    for k in (2, 3, 4):
                        w = elb_witness(G, s, t, k)
                        assert w.length == length_identity(G, s, t, k)
                        assert w.length + 1 == elb_lower(G, s, t, k).value
                        checked += 1
        assert checked > 50

    def test_disjoint_block_cap_small_groups(self):
        cases = [
            ((2, 2), 2, 1, 2),
            ((2, 2, 2), 2, 1, 2),
            ((2, 2, 2), 2, 2, 2),
            ((2, 2, 2, 2), 3, 1, 2),
            ((2, 2, 2, 2), 2, 1, 3),
            ((2, 2, 2, 2, 2), 3, 1, 2),
            ((2, 2, 2, 2, 2), 2, 3, 2),
            ((3, 3, 3), 2, 1, 2),
            ((2, 2), 2, 1, 3),
            ((3, 3), 2, 1, 2),
            ((4, 4), 2, 1, 2),
        ]
        for factors, s, t, k in cases:
            G = make_group(factors)
            w = elb_witness(G, s, t, k)
            assert max_disjoint_zero_sums(w) <= k - 1, (factors, s, t, k)

    def test_preconditions(self):
        G = make_group((2, 2, 2, 2))
        with pytest.raises(BoundError):
            elb_witness(G, 1, 1, 2)
        with pytest.raises(BoundError):
            elb_witness(G, 3, 1, 1)
        with pytest.raises(BoundError):
            elb_witness(G, 4, 2, 2)
        with pytest.raises(BoundError):
            elb_witness(G, 3, 5, 2)

    def test_deterministic(self):
        G = make_group((2, 2, 2, 2, 2))
        assert elb_witness(G, 3, 1, 2) == elb_witness(G, 3, 1, 2)


class TestPaigeBijection:
    def test_rank2_base_table(self):
        phi = paige_bijection(2)
        assert phi[(0, 0)] == (0, 0)
        sums = {tuple(a ^ b for a, b in zip(g, phi[g])) for g in phi}
        assert sums == set(phi)

    def test_rank3_base_table(self):
        phi = paige_bijection(3)
        assert phi[(0, 1, 1)] == (1, 1, 1)
        assert phi[(1, 1, 1)] == (0, 0, 1)
        assert sorted(phi.values()) == sorted(phi)

    def test_bijection_and_doubling_up_to_rank_12(self):
        for r in range(2, 13):
            phi = paige_bijection(r)
            assert len(phi) == 1 << r
            assert len(set(phi.values())) == 1 << r
            doubles = {tuple(a ^ b for a, b in zip(g, phi[g])) for g in phi}
            assert len(doubles) == 1 << r

    def test_small_rank_rejected(self):
        with pytest.raises(BoundError):
            paige_bijection(1)


class TestMaxfullFactorization:
    def test_atom_counts(self):
        for r, want in ((2, 1), (3, 2), (4, 5), (5, 10), (6, 21)):
            assert maxfull_factorization(r).length == want

    def test_count_formula_and_product_up_to_rank_10(self):
        for r in range(2, 11):
            f = maxfull_factorization(r)
            assert f.length == ((1 << r) - 1) // 3
            prod = f.product()
            assert prod.length == (1 << r) - 1
            assert prod.is_squarefree()
            assert not prod.contains_zero()

    def test_atoms_are_minimal(self):
        f = maxfull_factorization(6)
        for atom, mult in f.atoms:
            assert mult == 1
            assert is_minimal_zero_sum(atom)

    def test_optimality_against_third_cap(self):
        # number of blocks cannot exceed |B| // 3, so the count is optimal
        for r in (3, 4, 5, 6):
            f = maxfull_factorization(r)
            assert f.length == f.product().length // 3

    def test_deterministic(self):
        assert maxfull_factorization(4) == maxfull_factorization(4)

    def test_small_rank_rejected(self):
        with pytest.raises(BoundError):
            maxfull_factorization(1)


class TestC3Caps:
    @pytest.mark.parametrize("r,size", [(3, 9), (4, 20), (5, 40), (6, 81)])
    def test_every_triple_is_off_a_line(self, r, size):
        # three distinct points of AG(r, 3) lie on a line iff they sum to 0
        cap = c3_cap(r)
        assert len(set(cap)) == len(cap) == size
        assert (0,) * r in cap
        for a, b, c in combinations(cap, 3):
            assert any((x + y + z) % 3 for x, y, z in zip(a, b, c)), (a, b, c)

    @pytest.mark.parametrize("factors", [(3, 3), (3,) * 7, (3, 3, 9)])
    def test_other_groups_rejected(self, factors):
        with pytest.raises(BoundError):
            c3_cap_witness(make_group(factors))
