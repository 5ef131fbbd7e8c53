"""Acceptance suite: one test per criterion, each with its stated
tolerance and runtime budget. Everything asserts exact integers."""

import random
import time
from itertools import combinations

import pytest

from zerosum.arith import INFINITE
from zerosum.bounds import (
    KnownValues,
    collect_bounds,
    delta_upper,
    elb_lower,
    kd_upper,
    lower_dstar,
)
from zerosum.constructions import elb_witness, maxfull_factorization, paige_bijection
from zerosum.factorizations import (
    is_minimal_zero_sum,
    length_set,
    max_disjoint_zero_sums,
    max_length,
)
from zerosum.groups import add, make_group, neg, profile, zero
from zerosum.invariants import (
    certify_dk,
    davenport,
    davenport_k,
    eta,
    s_le,
    stabilization,
    verify_certificate,
)
from zerosum.sequences import Sequence

C24 = make_group((2, 2, 2, 2))
C25 = make_group((2, 2, 2, 2, 2))
C32 = make_group((3, 3))
C33 = make_group((3, 3, 3))


def random_elements(rng, G, count):
    coords = [tuple(rng.randrange(n) for n in G.invariant_factors) for _ in range(count)]
    return coords


def random_zero_sum(rng, G, max_free):
    """Random zero-sum sequence of length <= max_free + 1."""
    items = random_elements(rng, G, rng.randint(1, max_free))
    total = zero(G)
    for e in items:
        total = add(G, total, e)
    if total != zero(G):
        items.append(neg(G, total))
    return Sequence.from_elements(G, items)


def elb_tuples(G, k_values):
    r = profile(G).rank
    for t in range(1, r + 1):
        for s in range(2, r + 2):
            if s * (s - 1) // 2 > r - t + 1:
                break
            for k in k_values:
                yield s, t, k


class TestCriteria:
    def test_criterion_1_golden_constants(self):
        started = time.monotonic()
        for r in range(1, 7):
            assert davenport(make_group((2,) * r)).value == r + 1
        for r in range(1, 5):
            assert eta(make_group((2,) * r)).value == 2 ** r
        for r in (4, 5):
            assert s_le(make_group((2,) * r), 3).value == 1 + 2 ** (r - 1)
        assert davenport(C32).value == 5
        assert davenport(C33).value == 7
        for n in range(2, 13):
            assert davenport(make_group((n,))).value == n
        assert time.monotonic() - started < 60

    def test_criterion_2_dk_tables(self):
        started = time.monotonic()
        C23 = make_group((2, 2, 2))
        assert [davenport_k(C23, k).value for k in range(1, 6)] == [4, 7, 9, 11, 13]
        rep = stabilization(C23, 5)
        assert (rep.d0, rep.k_onset) == (3, 2)
        assert [davenport_k(C24, k).value for k in range(1, 6)] == [5, 8, 11, 13, 15]
        for n in range(2, 9):
            G = make_group((n,))
            for k in range(1, 5):
                assert davenport_k(G, k).value == k * n
        assert time.monotonic() - started < 600

    def test_criterion_3_rank_five_partial_table(self):
        started = time.monotonic()
        expected = {1: 6, 2: 10, 8: 26, 9: 28, 10: 31}
        for k, value in expected.items():
            cert = certify_dk(C25, k)  # raises if witness or chain fails
            assert cert.value == value
            assert cert.witness is not None
            assert cert.upper_chain
        short = s_le(C25, 4)
        # the brute search completed
        assert [step.rule_id for step in short.upper_chain] == ["search.sle"]
        assert short.value <= 9
        assert time.monotonic() - started < 7200

    def test_criterion_4_rank_three_of_threes(self):
        started = time.monotonic()
        assert davenport(C33).value == 7
        witness = elb_witness(C33, s=2, t=1, k=2)
        assert witness.length == 9
        assert max_disjoint_zero_sums(witness) <= 1  # verified: lower >= 10
        cert = davenport_k(C33, 2)
        assert cert.lower >= 10
        assert cert.upper <= 11
        assert cert.value == 11  # sandwich closes; satisfies the bracket a fortiori
        assert time.monotonic() - started < 600

    def test_criterion_5_construction_suites(self):
        started = time.monotonic()
        for r in range(2, 13):
            table = paige_bijection(r)
            assert len(table) == 2 ** r
            assert len(set(table.values())) == 2 ** r
            doubled = {tuple(a ^ b for a, b in zip(g, img)) for g, img in table.items()}
            assert len(doubled) == 2 ** r
        assert time.monotonic() - started < 1.0

        # the factorization suite has its own runtime budget
        t0 = time.monotonic()
        for r in range(2, 11):
            fact = maxfull_factorization(r)
            assert fact.length == (2 ** r - 1) // 3
            product = fact.product()
            assert product.length == 2 ** r - 1
            assert product.is_squarefree() and not product.contains_zero()
        assert time.monotonic() - t0 < 10

        t0 = time.monotonic()
        rng = random.Random(20260822)
        pool = [(2,), (3,), (4,), (5,), (7,), (9,), (12,), (2, 2), (2, 4), (2, 6),
                (3, 3), (3, 6), (4, 4), (5, 5), (6, 6), (8, 8), (3, 9), (2, 10),
                (4, 8), (10, 10), (2, 2, 2), (2, 2, 4), (3, 3, 3), (2, 4, 8),
                (3, 3, 9), (2, 2, 2, 2), (2, 2, 4, 4), (2, 2, 2, 2, 2),
                (2, 2, 2, 2, 2, 2)]
        assert all(profile(make_group(f)).order <= 2 ** 10 for f in pool)
        done = 0
        while done < 200:
            G = make_group(rng.choice(pool))
            r = profile(G).rank
            t = rng.randint(1, r)
            smax = 2
            while (smax + 1) * smax // 2 <= r - t + 1:
                smax += 1
            s = rng.randint(2, smax)
            k = rng.randint(2, 6)
            witness = elb_witness(G, s, t, k)  # internal counting identity assert
            assert elb_lower(G, s, t, k).value == witness.length + 1
            done += 1

        for factors, ks in [((2, 2), (2, 3)), ((2, 2, 2), (2, 3)),
                            ((2, 2, 2, 2), (2, 3)), ((2, 2, 2, 2, 2), (2, 3)),
                            ((3, 3, 3), (2,)),
                            ((3, 3), (2, 3)), ((4, 4), (2, 3))]:
            G = make_group(factors)
            for s, t, k in elb_tuples(G, ks):
                witness = elb_witness(G, s, t, k)
                assert max_disjoint_zero_sums(witness) <= k - 1, (factors, s, t, k)
        assert time.monotonic() - t0 < 1800

    def test_criterion_6_property_suites(self):
        rng = random.Random(97)
        # appending an inverse pair adds exactly one factorization part
        for factors in [(2, 2, 2, 2), (3, 3), (6,)]:
            G = make_group(factors)
            nonzero = [e for i, e in enumerate(self._elements(G)) if i > 0]
            for _ in range(10 ** 4):
                B = random_zero_sum(rng, G, 6)
                g = rng.choice(nonzero)
                extended = B.times(Sequence.from_elements(G, [g, neg(G, g)]))
                assert max_length(extended) == 1 + max_length(B)

        # oracle equivalence against full factorization enumeration
        small = [(2,), (3,), (4,), (5,), (6,), (7,), (8,), (9,), (2, 2), (2, 4), (3, 3),
                 (2, 2, 2)]
        for _ in range(10 ** 4):
            G = make_group(rng.choice(small))
            B = random_zero_sum(rng, G, 9)
            if B.length > 10:
                continue
            assert max_length(B) == length_set(B).max

        # floor and step facts on every computed table row
        tables = [((2, 2, 2), range(1, 6)), ((2, 2, 2, 2), range(1, 6)),
                  ((3, 3), range(1, 5)), ((2, 2, 2, 2, 2), (1, 2, 8, 9, 10))]
        tables += [((n,), range(1, 5)) for n in range(2, 9)]
        for factors, ks in tables:
            G = make_group(factors)
            exp = G.exponent
            eta_value = eta(G).value
            certs = {k: davenport_k(G, k) for k in ks}
            for k, cert in certs.items():
                assert cert.lower >= lower_dstar(G, k).value
            for k in ks:
                if k + 1 not in certs:
                    continue
                a, b = certs[k], certs[k + 1]
                if a.value is None or b.value is None:
                    continue
                assert b.value <= max(a.value + exp, eta_value - 1)
                if a.value >= eta_value - 1 - exp:
                    assert b.value <= a.value + exp

        # every lower stays at or below every upper across all rules
        cases = [((2, 2, 2), 4, 2), ((2, 2, 2, 2), 5, 2), ((3, 3), 5, 2),
                 ((3, 3, 3), 7, 2), ((2, 2, 2, 2, 2), 6, 2), ((6,), 6, 3), ((12,), 12, 2)]
        for factors, D, k in cases:
            G = make_group(factors)
            known = KnownValues(D=D)
            for ell in range(G.exponent, D + 1):
                value = s_le(G, ell).value
                known.s_le[ell] = value
            reports = collect_bounds(G, k, known)  # raises on any inversion
            cert = davenport_k(G, k)
            lowers = [r.value for r in reports if r.direction == "lower"]
            uppers = [r.value for r in reports if r.direction == "upper"
                      and r.value is not INFINITE]
            if cert.value is not None and lowers and uppers:
                assert max(lowers) <= cert.value <= min(uppers)

    def test_criterion_7_big_integer_bounds(self):
        started = time.monotonic()
        assert delta_upper(make_group((2, 2, 2))).value == 16 ** 25
        for order in range(2, 17):
            G = make_group((order,))
            assert kd_upper(G).value == (2 * order) ** (4 * order + 2)
        assert time.monotonic() - started < 60

    @staticmethod
    def _elements(G):
        from zerosum.groups import enumerate_elements

        return list(enumerate_elements(G))


class TestStretchTargets:
    """Optional targets beyond the required criteria; these assert the
    state actually attained so regressions are visible."""

    def test_rank_five_full_line_status(self):
        # rows 5..7 close exactly; rows 3 and 4 remain brackets whose
        # lower ends match the target line (13, 16, 19, 21, 23)
        attained = {k: davenport_k(C25, k) for k in range(3, 8)}
        assert (attained[5].value, attained[6].value, attained[7].value) == (19, 21, 23)
        assert (attained[3].lower, attained[3].upper) == (13, 14)
        assert (attained[4].lower, attained[4].upper) == (16, 17)

    def test_rank_three_of_threes_exact_status(self):
        # the sandwich closes at 11 on a bound rule; no standalone
        # exhaustive enumeration of D_2 is run
        cert = davenport_k(C33, 2)
        assert cert.value == 11
        assert not cert.upper_chain[-1].rule_id.startswith("search.")


class TestAsymptoticsCoverage:
    """Eventual-progression statements are reported observationally: the
    stabilization report labels its tail read, and certification only
    comes from the explicit floor rule or a supplied upper table."""

    def test_reports_are_labeled(self):
        certified = stabilization(C32, 4)
        assert certified.certified
        assert "threshold criterion" in certified.method
        observational = stabilization(make_group((2, 2, 2)), 5)
        assert not observational.certified
        assert "empirical" in observational.method

    def test_certified_floor_rule_matches_tail(self):
        rep = stabilization(make_group((2, 2)), 5)
        assert rep.certified
        minus = davenport(make_group((2,))).value
        assert rep.d0 == minus - 1
