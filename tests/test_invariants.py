"""Tests for certified invariant computation."""

import ast
import hashlib
import inspect
import json
import sys
from dataclasses import replace
from itertools import combinations, combinations_with_replacement, permutations
from math import gcd, isqrt
from pathlib import Path

import pytest

from zerosum import gf2, invariants
from zerosum.arith import INFINITE
from zerosum.bounds import (
    COMPUTED,
    RULES,
    SEARCH,
    BoundReport,
    InputValue,
    e2g_s2m_upper,
    e2g_sphere_upper,
    elb_lower,
    is_prime,
    lower_dstar,
    olson_applies,
    remark_ub,
    s_le_from_extension,
)
from zerosum.factorizations import max_disjoint_zero_sums, max_length
from zerosum.groups import Group, add, element_index, enumerate_elements, make_group, neg, profile
from zerosum.invariants import (
    Certificate,
    CertificateError,
    ChainStep,
    SearchError,
    _automorphism_generators,
    _dstar_witness,
    _flag_orbit,
    _generic_search,
    certify_dk,
    davenport,
    davenport_k,
    eta,
    s_le,
    stabilization,
    verify_certificate,
)
from zerosum.sequences import Sequence, shortest_zero_sum_length

C22 = make_group((2, 2))
C23 = make_group((2, 2, 2))
C24 = make_group((2, 2, 2, 2))
C25 = make_group((2, 2, 2, 2, 2))
C32 = make_group((3, 3))
C33 = make_group((3, 3, 3))
# neither a p-group nor of rank <= 2, so its D is searched: 4,430 nodes
C226 = make_group((2, 2, 6))


# every abelian group of order <= 8, the trivial one included, then C_3^2
# and C_2 + C_6, the first here with elements of three orders above 1, so
# the multiplicity bound weighs the orders differently
SMALL_GROUPS = [
    (), (2,), (3,), (4,), (2, 2), (5,), (6,), (7,), (8,), (2, 4), (2, 2, 2),
    (3, 3), (2, 6),
]
# the caps checked by brute force where not every cap from exp(G) to |G|;
# on C_2 + C_6 each cap from D = 7 on has the zero-sum-free answer, so the
# short caps 6 and 7 and the zero-sum-free cap |G| stand for the rest
BRUTE_FORCE_CAPS = {(2, 6): (6, 7, 12)}


def has_short_zero_sum(seq, cap, factors):
    """Brute force: some nonempty subsequence of length <= cap sums to 0."""
    return any(
        all(sum(coords) % m == 0 for coords, m in zip(zip(*sub), factors))
        for length in range(1, min(cap, len(seq)) + 1)
        for sub in combinations(seq, length)
    )


def assert_verifies(cert):
    result = verify_certificate(cert)
    assert result.ok, result.problems


class TestDavenport:
    @pytest.mark.parametrize("r,value", [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)])
    def test_elementary_two_groups(self, r, value):
        # the independence cap, met by a basis and its sum
        cert = davenport(make_group((2,) * r))
        assert cert.value == value
        assert [s.rule_id for s in cert.upper_chain] == ["ub.e2g_d"]
        assert_verifies(cert)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_cyclic(self, n):
        cert = davenport(make_group((n,)))
        assert cert.value == n
        assert_verifies(cert)

    def test_rank_two_of_threes(self):
        cert = davenport(C32)
        assert cert.value == 5
        assert [s.rule_id for s in cert.upper_chain] == ["ub.olson"]
        assert_verifies(cert)

    def test_rank_three_mixed_group_is_searched(self):
        cert = davenport(C226)
        assert cert.value == 8
        assert [s.rule_id for s in cert.upper_chain] == ["search.zsf"]
        assert_verifies(cert)

    def test_rank_three_of_threes(self):
        cert = davenport(C33)
        assert cert.value == 7
        assert_verifies(cert)

    def test_mixed_group(self):
        # 2 x 4: one long zero-sum-free sequence has length 4
        cert = davenport(make_group((2, 4)))
        assert cert.value == 5
        assert_verifies(cert)

    def test_trivial_group(self):
        cert = davenport(make_group(()))
        assert cert.value == 1
        assert cert.upper_chain == ()
        assert_verifies(cert)

    def test_witness_length_matches_value(self):
        cert = davenport(C33)
        assert cert.witness.length == cert.value
        assert max_disjoint_zero_sums(cert.witness) == 1


class TestSle:
    def test_below_exponent_is_infinite(self):
        cert = s_le(make_group((5,)), 2)
        assert cert.value is INFINITE
        assert cert.witness is None
        assert_verifies(cert)

    def test_at_least_davenport_collapses(self):
        cert = s_le(make_group((6,)), 6)
        assert cert.value == 6
        assert_verifies(cert)

    def test_trivial_group(self):
        cert = s_le(make_group(()), 1)
        assert cert.value == 1
        assert_verifies(cert)

    @pytest.mark.parametrize("r,value", [(2, 4), (3, 8), (4, 16)])
    def test_eta_elementary_two(self, r, value):
        cert = eta(make_group((2,) * r))
        assert cert.constant == "eta"
        assert cert.value == value
        assert_verifies(cert)

    def test_eta_rank_two_of_threes(self):
        cert = eta(C32)
        assert cert.value == 7
        assert_verifies(cert)

    @pytest.mark.parametrize("r,value", [(4, 9), (5, 17)])
    def test_cap_three_formula_groups(self, r, value):
        cert = s_le(make_group((2,) * r), 3)
        assert cert.value == value
        assert_verifies(cert)

    def test_cap_four_rank_five(self):
        # exact by complete search; the sum-set formula only gives <= 9
        cert = s_le(C25, 4)
        assert cert.value == 7
        assert [s.rule_id for s in cert.upper_chain] == ["search.sle"]
        assert_verifies(cert)

    @pytest.mark.parametrize("r,cap,bracket", [(6, 5, (8, 9)), (7, 5, (9, 12)), (8, 5, (10, 17))])
    def test_odd_cap_past_rank_five_is_bracketed(self, r, cap, bracket):
        # the punctured sphere-packing bound against the repetition code
        cert = s_le(make_group((2,) * r), cap)
        assert cert.interval == bracket
        assert [(s.rule_id, s.input_value("cap")) for s in cert.upper_chain] == [
            ("ub.e2g_sphere", cap)
        ]
        assert_verifies(Certificate.from_json(cert.to_json()))

    @pytest.mark.parametrize("r,bracket", [(6, (8, 11)), (7, (9, 16))])
    def test_cap_four_past_rank_five_is_bracketed(self, r, bracket):
        # the sphere-packing bound against the repetition code; the
        # search that would close it stops at rank 5
        cert = s_le(make_group((2,) * r), 4)
        assert cert.interval == bracket
        assert_verifies(Certificate.from_json(cert.to_json()))

    def test_witness_is_extremal(self):
        # the stored witness has length value - 1 and no short zero-sum
        cert = s_le(C24, 3)
        assert cert.witness.length == cert.value - 1


class TestElementaryTwoSearchDigests:
    """D and s_le certificates of C_2^r, pinned bit for bit."""

    D_DIGESTS = {
        1: "5289067e80382f0b", 2: "75a8b7e72ff07f66", 3: "486c3845dc7d3b9d",
        4: "77963d4d7aa502ea", 5: "45086d405d4ac50e", 6: "8d97a1dd0d3dbee7",
        7: "bebee715e912f763", 8: "1ffd502396195e89", 9: "d2c0173d50d9c496",
        10: "3578a9d899588946", 11: "4bda5f689041eac4", 12: "d510aeeaff84a715",
    }
    # every cap exponent <= cap < D at rank <= 5: each from ub.e2g_sphere
    # but cap 4 at rank 5, from the search
    SLE_DIGESTS = {
        (2, 2): "7b36b311fe05affb",
        (3, 2): "778e886495fb217b", (3, 3): "c5c997b9ffaa1181",
        (4, 2): "3f19fcee745c8430", (4, 3): "84584f5bbf3b88a4",
        (4, 4): "107cb42072f0a0da",
        (5, 2): "a43607ca55f1154f", (5, 3): "63f0b946a82613dd",
        (5, 4): "4d8545466d05b487", (5, 5): "8710558c2d5ecc7a",
    }

    def test_davenport_digests_pinned(self):
        got = {r: davenport(make_group((2,) * r)).digest() for r in self.D_DIGESTS}
        assert got == self.D_DIGESTS

    def test_sle_digests_pinned(self):
        got = {
            (r, cap): s_le(make_group((2,) * r), cap).digest()
            for r, cap in self.SLE_DIGESTS
        }
        assert got == self.SLE_DIGESTS

    def test_sle_steps_cite_the_sphere_rule(self):
        # but s_le(C_2^5, 4) = 7, where no code meets the rule's 8
        for r, cap in self.SLE_DIGESTS:
            cert = s_le(make_group((2,) * r), cap)
            rule = "search.sle" if (r, cap) == (5, 4) else "ub.e2g_sphere"
            assert [s.rule_id for s in cert.upper_chain] == [rule]
            assert_verifies(cert)


class TestDkSmallRank:
    # row 1 closes on the independence cap; later rows are
    # sandwiched from thresholds and rules, as rank 5 and C_3^3 are
    @pytest.mark.parametrize("k,value", [(1, 4), (2, 7), (3, 9), (4, 11), (5, 13)])
    def test_rank_three_table(self, k, value):
        cert = davenport_k(C23, k)
        assert cert.value == value
        assert cert.upper_chain[-1].rule_id == ("ub.e2g_d" if k == 1 else "ub.squarefree_caps")
        assert_verifies(cert)

    @pytest.mark.parametrize("k,value", [(1, 5), (2, 8), (3, 11), (4, 13), (5, 15)])
    def test_rank_four_table(self, k, value):
        cert = davenport_k(C24, k)
        assert cert.value == value
        assert cert.upper_chain[-1].rule_id == ("ub.e2g_d" if k == 1 else "ub.squarefree_caps")
        assert_verifies(cert)

    def test_witness_packs_to_claimed_value(self):
        cert = davenport_k(C24, 3)
        assert cert.witness.length == 11
        assert max_disjoint_zero_sums(cert.witness) <= 3
        assert max_length(cert.witness) <= 3


# digests of the C_2^r rows k = 2..12, which close on the caps walk
E2_SMALL_DK_DIGESTS = {
    2: (
        "26e2b4d2912938b0", "a98f34e713c4e3b5", "cc88c6e8ab9caad3", "49bb2f6df440eda4",
        "6624a870bdc904e0", "106f164778f81d4e", "14f9e57ee77a0bb8", "bd7189032bbda1be",
        "9a917954811fd588", "e17d32e8110f4480", "ccfcc069819f584c",
    ),
    3: (
        "e7ac19e5bb2dd360", "857a612af73e4569", "9ffedcda8d048478", "5fb195eab64663ae",
        "af2b4d9fcf25b891", "f04e3d37e305e61c", "90938348a36bf32a", "25a20f3af9ef2f70",
        "3ad9d656dfda7868", "385bf3af8f2886ed", "b1288c79c78a4444",
    ),
    4: (
        "d7fafafec72a778f", "2b64fe9d0fc22e27", "2a1e9f3e0f78aede", "a562a208120ccc5c",
        "708ed229165c38cb", "9db296a8f0ad8cc2", "b2bd1dcddf686956", "54b57979e87ebff8",
        "c2dd5f690059b67b", "540dca4b8221a13d", "ef7595b49ed35985",
    ),
}


class TestElementaryTwoRowsMatchEnumeration:
    """Rows of C_2^2..C_2^4 against the full subset enumeration of gf2."""

    KS = range(1, 13)

    @pytest.mark.parametrize("r", sorted(E2_SMALL_DK_DIGESTS))
    def test_row_digests_pinned(self, r):
        G = make_group((2,) * r)
        got = tuple(davenport_k(G, k).digest() for k in self.KS if k >= 2)
        assert got == E2_SMALL_DK_DIGESTS[r]

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_values_match(self, r):
        engine = gf2.SmallRankEngine(r)
        values = [davenport_k(make_group((2,) * r), k).value for k in self.KS]
        assert values == [engine.dk(k) for k in self.KS]
        if r == 2:
            assert values == [2 * k + 1 for k in self.KS]

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_derived_caps_match(self, r):
        caps, _steps = invariants._engine(r).caps_for(max(self.KS))
        assert caps == gf2.SmallRankEngine(r).f_caps

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_rows_verify_from_json_and_every_step_is_checked(self, r):
        # an edited value fails on every step: the verifier skips none
        for k in self.KS:
            data = json.loads(json.dumps(davenport_k(make_group((2,) * r), k).to_json()))
            assert_verifies(Certificate.from_json(data))
            del data["digest"]
            for step in data["upper_chain"]:
                step["value"] += 1
                assert not verify_certificate(Certificate.from_json(data)).ok, (k, step["rule"])
                step["value"] -= 1


def threshold_level(step):
    """The level ell whose threshold a step of a C_2^r row gives, else None."""
    if step.rule_id == "ub.e2g_sphere":
        return step.input_value("cap")
    return None


class TestElementaryTwoRowsCarryOnlyWhatIsRead:
    """A C_2^r row's chain holds what its ub.squarefree_caps step reads
    (ub.recursion and search.sweep steps) and the evidence for the
    recursions' inputs: ub.e2g_d for D, one threshold step per level."""

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_every_step_is_read(self, r):
        G = make_group((2,) * r)
        for k in range(1, 13):
            cert = davenport_k(G, k)
            chain = cert.upper_chain
            if k == 1:
                assert [s.rule_id for s in chain] == ["ub.e2g_d"]
                continue
            assert chain[-1].rule_id == "ub.squarefree_caps"
            recursions = [s for s in chain if s.rule_id == "ub.recursion"]
            used = sorted({ell for s in recursions for ell in s.input_value("ell")})
            cited = [threshold_level(s) for s in chain if threshold_level(s) is not None]
            assert cited == used, k
            assert [s.rule_id for s in chain].count("ub.e2g_d") == (1 if recursions else 0)
            for step in chain[:-1]:
                assert (
                    step.rule_id in ("ub.recursion", "ub.e2g_d")
                    or threshold_level(step) is not None
                    or step.rule_id == "search.sweep" and step.input_value("r") == r
                ), (k, step.rule_id)
            assert_verifies(Certificate.from_json(json.loads(json.dumps(cert.to_json()))))


class TestDkCyclic:
    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("k", range(1, 5))
    def test_value_is_k_times_n(self, n, k):
        cert = davenport_k(make_group((n,)), k)
        assert cert.value == k * n
        assert_verifies(cert)

    def test_k_one_matches_davenport(self):
        cert = davenport_k(make_group((7,)), 1)
        assert cert.constant == "D_k"
        assert cert.value == davenport(make_group((7,))).value


# digests of the D_k rows k = 1..8 of groups outside the cyclic and C_2^r
# (r <= 5) paths: ub.halter_koch rows on rank 2, generic rows elsewhere
GENERIC_DK_DIGESTS = {
    (3, 3): (
        "1accc3c9b72be571", "bcb7cada0d58c03e", "7905cb677d10da9b", "9b9315c81672ad9e",
        "d2835ea22c0c0bc9", "1003b071f3290a44", "965a905f755de557", "d90aefede952c233",
    ),
    (2, 4): (
        "62483bfdbc152819", "4b4de98ed3a85889", "4da9d4c35ca358a1", "d17a1311ed54f6dd",
        "9fd1bcf8402e9ce5", "22df370307b6e88c", "bbd4572ce456c8e0", "70d5efe4044a3585",
    ),
    (2, 6): (
        "c7a40d715640fd03", "8d92d25eedf75657", "e83caf5f6cbb7442", "6fc259324db1ce0d",
        "c17fa88ce65d6fdd", "9b304d0b5f22989b", "a3ea17eafaea4a0d", "d84efbbc04afd297",
    ),
    (4, 4): (
        "ec20985ba0e84981", "46c6343d0d2031f4", "35e97f87cd3d7531", "58dd0da6f7158db5",
        "269d7f338ba44e4d", "9ceb405066cfd15d", "a70cd5bf5690015a", "18ccd98cb9b1319c",
    ),
    (3, 6): (
        "a79c0076e2a47883", "032bd425bbd5b31c", "463e25f7f6760b08", "8ef438d4f72d3118",
        "d72e304beadec6f8", "46feb4bb603b1f08", "5c7e6948164e30fb", "0d07cebf8aa250ac",
    ),
    (2, 2, 4): (
        "07624fd289d6633d", "285713092fda5d10", "f077807ae3915d02", "caa4a08b36b63f01",
        "87b50f2746aac880", "31bea9135c566564", "78fa153ac3428959", "4c8418f524596c7c",
    ),
    (2, 8): (
        "81885355c369f763", "fba274cd490aa96e", "26689750a6f87231", "744f60985fba47bf",
        "37bba35a10882501", "3557b55057a7ff9a", "e4e5fdf679a52522", "bb80542d016401b6",
    ),
    (2, 2, 2, 2, 2, 2): (
        "8d48086b4ca9c8e6", "98d4401bc77ac1b7", "cee4716ed2d9075d", "837b1c215628cd0f",
        "d3d99355fc26706a", "c430f3cb8044fcec", "2ea783f64af83756", "371f34b21fc675c5",
    ),
}


class TestDkGeneric:
    @pytest.mark.parametrize("k,value", [(1, 5), (2, 8), (3, 11), (4, 14)])
    def test_rank_two_of_threes(self, k, value):
        cert = davenport_k(C32, k)
        assert cert.value == value
        assert_verifies(cert)

    def test_rank_three_of_threes_two_blocks(self):
        cert = davenport_k(C33, 2)
        assert cert.value == 11
        assert_verifies(cert)

    def test_mixed_group_two_blocks(self):
        cert = davenport_k(make_group((2, 4)), 2)
        assert cert.lower >= 9
        assert cert.upper <= 10
        assert_verifies(cert)

    def test_trivial_group(self):
        cert = davenport_k(make_group(()), 4)
        assert cert.value == 4
        assert_verifies(cert)

    @pytest.mark.parametrize("factors", sorted(GENERIC_DK_DIGESTS))
    def test_row_digests_pinned(self, factors):
        G = make_group(factors)
        got = tuple(davenport_k(G, k, None).digest() for k in range(1, 9))
        assert got == GENERIC_DK_DIGESTS[factors]

    def test_unverified_lower_side_raises(self):
        # no D_2(C_3^3) witness verifies within 20 nodes, and a row with
        # no witness would fail verify_certificate. D comes from ub.olson
        # and the threshold searches that run out of the budget are
        # skipped, so the row gets as far as its witness
        with pytest.raises(SearchError, match=r"D_2\(3\^3\).* budget 20$"):
            davenport_k(C33, 2, 20)

    def test_cold_rows_need_no_recursion_per_row(self):
        # rows 2..120 are built in a loop; the depth needed is the
        # verifier's factorization search, about one frame per block
        invariants.davenport_k.cache_clear()
        invariants._generic_rows.cache_clear()
        # rank 3, as rank-2 rows are ub.halter_koch's and built alone
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 200)
        try:
            cert = davenport_k(make_group((2, 2, 4)), 120)
        finally:
            sys.setrecursionlimit(limit)
        assert cert.value == 4 * 120 + 2


# digests of D and s_le(ell) certificates, exp <= ell < D and ell <= exp + 2
GENERIC_CERT_DIGESTS = {
    (3, 3): {"D": "75ad627e04dbb5bd", 3: "9bdbee08d1a014f4", 4: "c264d54c6f7842e5"},
    (2, 4): {"D": "15467264a748bb38", 4: "136a6e66ef3f8e84"},
    (2, 6): {"D": "52cda05dc02125c6", 6: "ea9e7321742525a0"},
    (4, 4): {"D": "f1c45e7c8ac6772b", 4: "4a29364666099ef3", 5: "e99f103b304ff94e",
             6: "e0c6b0b5332e04d6"},
    (3, 6): {"D": "8c46db1b4d2450d5", 6: "ee9ce575e4a1f1fd", 7: "1eda319852b0fb13"},
    (2, 2, 4): {"D": "34eaa637413362e2", 4: "7986c35d7a1aa030", 5: "87c54df66bd394eb"},
    (2, 8): {"D": "a3cff21d195b4b2b", 8: "1b36e3f49c62874b"},
    (3, 3, 3): {"D": "661f267c3d15cddd", 3: "f8e7b5d2de7ee886", 4: "72f516b82aa05197",
                5: "a7ca1c979ae62c3c"},
}

# (factors, cap, size, nodes) of _generic_search
SEARCH_PINS = [
    ((3, 3), 9, 4, 9), ((3, 3), 3, 6, 10), ((3, 3), 4, 5, 8),
    ((2, 4), 8, 4, 23), ((2, 4), 4, 5, 15),
    ((4, 4), 16, 6, 261), ((4, 4), 4, 9, 188), ((4, 4), 6, 7, 94),
    ((2, 2, 4), 16, 5, 205), ((2, 2, 4), 5, 6, 74),
    # mixed strides and shifts for the masked rotates
    ((3, 3, 3), 27, 6, 1110), ((3, 3, 3), 4, 9, 1413), ((3, 3, 3), 5, 8, 389),
    # eta(C_3^3) = 17: the longest search behind davenport_k(C_3^3, 2)
    ((3, 3, 3), 3, 16, 4080),
    ((5, 5), 25, 8, 4483), ((3, 9), 27, 10, 16903), ((2, 10), 20, 10, 2783),
    ((2, 2, 6), 24, 7, 4430),
    # a cyclic group is searched unpruned
    ((97,), 97, 96, 4657),
]


# (factors, cap, size, nodes) of _generic_search under swaps_only
SWAP_SEARCH_PINS = [
    ((3, 3), 9, 4, 98), ((3, 3), 3, 6, 43), ((3, 3), 4, 5, 41),
    ((2, 4), 8, 4, 95), ((2, 4), 4, 5, 29),
    ((4, 4), 16, 6, 2165), ((4, 4), 4, 9, 948), ((4, 4), 6, 7, 707),
    ((2, 2, 4), 16, 5, 1532), ((2, 2, 4), 5, 6, 486),
    # mixed strides and shifts for the masked rotates
    ((3, 3, 3), 27, 6, 28772), ((3, 3, 3), 4, 9, 23593), ((3, 3, 3), 5, 8, 8608),
    ((5, 5), 25, 8, 73511), ((3, 9), 27, 10, 216962), ((2, 10), 20, 10, 17803),
    ((2, 2, 6), 24, 7, 33244),
]


def group_ids(groups):
    return ["x".join(map(str, f)) for f in groups]


def pin_ids(pins):
    """Test ids naming a pin's group and cap, not its pinned counts."""
    return ["x".join(map(str, f)) + "-cap%d" % cap for f, cap, _, _ in pins]


def _factor_swaps(G):
    """Index maps of the swaps of adjacent equal invariant factors.

    Elements are their enumerate_elements positions; map g sends x to g[x].
    """
    factors = G.invariant_factors
    elements = list(enumerate_elements(G))
    index = {a: x for x, a in enumerate(elements)}
    return [
        [index[a[:i] + (a[i + 1], a[i]) + a[i + 2:]] for a in elements]
        for i in range(len(factors) - 1)
        if factors[i] == factors[i + 1]
    ]


def swaps_only(monkeypatch):
    """Prune by the swaps of equal invariant factors alone, to depth 4."""
    monkeypatch.setattr(invariants, "_automorphism_generators", _factor_swaps)
    monkeypatch.setattr(invariants, "ORBIT_PRUNE_DEPTH", 4)


def reference_generators(G):
    """Generators of H with every conjugate listed, as index maps.

    The _factor_swaps, the unit scalings x_i -> u*x_i of every coordinate
    for u in a greedy generating set of the units mod n_i, and the
    transvections x_i -> x_i + (n_i / gcd(n_i, n_j))*x_j for all i != j.
    _automorphism_generators keeps one map per conjugacy class under
    permutations of equal invariant factors, and must give the same H.
    """
    factors = G.invariant_factors
    elements = list(enumerate_elements(G))
    index = {a: x for x, a in enumerate(elements)}

    def setting(i, value):
        return [index[a[:i] + (value(a) % factors[i],) + a[i + 1:]] for a in elements]

    maps = _factor_swaps(G)
    for i, m in enumerate(factors):
        units = {1}
        for u in range(2, m):
            if gcd(u, m) == 1 and u not in units:
                maps.append(setting(i, lambda a, i=i, u=u: u * a[i]))
                frontier = units
                while frontier:
                    frontier = {x * u % m for x in frontier} - units
                    units |= frontier
        for j, mj in enumerate(factors):
            if j != i:
                c = m // gcd(m, mj)
                maps.append(setting(i, lambda a, i=i, j=j, c=c: a[i] + c * a[j]))
    return maps


def orbit_partition(G, generators, depth):
    """Each nondecreasing index tuple of length 1..depth -> its orbit's least member."""
    least = {}
    for length in range(1, depth + 1):
        for start in combinations_with_replacement(range(G.order), length):
            if start in least:
                continue
            orbit, frontier = {start}, [start]
            while frontier:
                reached = []
                for t in frontier:
                    for g in generators:
                        image = tuple(sorted(g[e] for e in t))
                        if image not in orbit:
                            orbit.add(image)
                            reached.append(image)
                frontier = reached
            for t in orbit:
                least[t] = start
    return least


# groups with several blocks of equal invariant factors
MIXED_BLOCK_GROUPS = [(2, 4, 4), (2, 2, 2, 4), (3, 3, 9), (2, 2, 8), (2, 2, 2, 2, 4)]
GENERATOR_GROUPS = sorted({f for f, _, _, _ in SEARCH_PINS} | set(MIXED_BLOCK_GROUPS))
GENERATOR_COUNTS = {(3, 3, 3): 4, (3, 3): 3, (2, 2, 2, 2, 4): 6}


class TestGenericSearch:
    @pytest.mark.parametrize("factors", sorted(GENERIC_CERT_DIGESTS))
    def test_certificate_digests_pinned(self, factors):
        G = make_group(factors)
        pinned = GENERIC_CERT_DIGESTS[factors]
        # budget passed positionally, as davenport_k passes it, so these
        # certificates share lru_cache entries with the D_k tests
        got = {
            key: (davenport(G, None) if key == "D" else s_le(G, key, None)).digest()
            for key in pinned
        }
        assert got == pinned

    def test_to_json_digest_is_the_certificate_digest(self):
        # to_json digests the payload it has just built, not a second one
        certs = [davenport_k(C25, k) for k in range(1, 14)]
        for factors, pinned in GENERIC_CERT_DIGESTS.items():
            G = make_group(factors)
            certs += [davenport(G, None) if key == "D" else s_le(G, key, None) for key in pinned]
        for cert in certs:
            assert cert.to_json()["digest"] == cert.digest()

    def test_dk_rank_three_of_threes_digest_pinned(self):
        assert davenport_k(C33, 2).digest() == "8351c9cc98ff8baf"

    def test_eta_rank_three_of_threes_digest_pinned(self):
        assert eta(C33).digest() == "189c2f87284be9ae"

    def test_dk_six_six_digest_pinned(self):
        cert = davenport_k(make_group((6, 6)), 2)
        assert (cert.value, cert.digest()) == (17, "1ac7c965cd4bf74e")

    @pytest.mark.parametrize("factors", GENERATOR_GROUPS)
    def test_automorphism_generators(self, factors):
        # a map that is not an automorphism would prune unsoundly
        G = make_group(factors)
        elements = list(enumerate_elements(G))
        generators = _automorphism_generators(G)
        assert generators
        for g in generators:
            assert g[0] == 0
            assert sorted(g) == list(range(G.order))
            image = {a: elements[g[x]] for x, a in enumerate(elements)}
            for a in elements:
                for b in elements:
                    assert image[add(G, a, b)] == add(G, image[a], image[b])

    @pytest.mark.parametrize("factors", list(GENERATOR_COUNTS), ids=group_ids(GENERATOR_COUNTS))
    def test_one_generator_per_conjugacy_class(self, factors):
        # reference_generators lists 11, 5 and 24 maps
        assert len(_automorphism_generators(make_group(factors))) == GENERATOR_COUNTS[factors]

    @pytest.mark.parametrize("factors", GENERATOR_GROUPS, ids=group_ids(GENERATOR_GROUPS))
    def test_orbits_match_every_conjugate(self, factors):
        # the generators stand for reference_generators: same H, so the
        # prefix orbits the search flags must be the same
        G = make_group(factors)
        depth = 3 if G.order <= 64 else 2
        assert orbit_partition(G, _automorphism_generators(G), depth) == orbit_partition(
            G, reference_generators(G), depth
        )

    @pytest.mark.parametrize("factors", GENERATOR_GROUPS, ids=group_ids(GENERATOR_GROUPS))
    def test_orbit_flags_match_tuple_orbits(self, factors):
        # _flag_orbit, started from any member, flags exactly the members
        # of the tuple BFS orbit: 1 on the least, 2 on the rest. Depth 4
        # covers its sorted() fallback.
        G = make_group(factors)
        depth = 4 if G.order <= 16 else 3 if G.order <= 64 else 2
        generators = _automorphism_generators(G)
        least = orbit_partition(G, generators, depth)
        flags = bytearray((G.order + 1) ** depth)

        def slot(t):
            return sum((e + 1) * (G.order + 1) ** (len(t) - 1 - i) for i, e in enumerate(t))

        for prefix in sorted(least, reverse=True):
            if not flags[slot(prefix)]:
                _flag_orbit(generators, list(prefix), G.order, flags)
        assert len(flags) - flags.count(0) == len(least)
        for prefix, first in least.items():
            assert flags[slot(prefix)] == (1 if prefix == first else 2), prefix

    def test_automorphism_generators_span_gl33(self):
        # on C_3^3 the generators reach every element of GL(3,3)
        generators = _automorphism_generators(C33)
        identity = tuple(range(27))
        group, frontier = {identity}, [identity]
        while frontier:
            reached = []
            for h in frontier:
                for g in generators:
                    image = tuple(g[x] for x in h)
                    if image not in group:
                        group.add(image)
                        reached.append(image)
            frontier = reached
        assert len(group) == 11232

    @pytest.mark.parametrize(
        "factors,cap,size,nodes", SWAP_SEARCH_PINS, ids=pin_ids(SWAP_SEARCH_PINS)
    )
    def test_search_size_and_nodes_pinned(self, monkeypatch, factors, cap, size, nodes):
        # cap = |G| is the zero-sum-free search; node counts pin the DFS
        # order. H is cut down to the coordinate permutations fixing the
        # invariant factors, pruned to depth 4, so the counts do not move
        # with _automorphism_generators or ORBIT_PRUNE_DEPTH.
        swaps_only(monkeypatch)
        G = make_group(factors)
        got_size, seq, got_nodes = _generic_search(G, cap, None)
        assert (got_size, got_nodes) == (size, nodes)
        assert len(seq) == size
        assert shortest_zero_sum_length(Sequence.from_elements(G, seq), cap) is None

    @pytest.mark.parametrize("factors,cap,size,nodes", SEARCH_PINS, ids=pin_ids(SEARCH_PINS))
    def test_orbit_search_size_and_nodes_pinned(self, factors, cap, size, nodes):
        # the same searches pruned by all of _automorphism_generators
        G = make_group(factors)
        got_size, seq, got_nodes = _generic_search(G, cap, None)
        assert (got_size, got_nodes) == (size, nodes)
        assert len(seq) == size
        assert shortest_zero_sum_length(Sequence.from_elements(G, seq), cap) is None

    @pytest.mark.parametrize("factors", SMALL_GROUPS)
    def test_search_size_matches_brute_force(self, factors):
        G = make_group(factors)
        nonzero = list(enumerate_elements(G))[1:]  # 0 alone is a zero-sum
        for cap in BRUTE_FORCE_CAPS.get(factors, range(G.exponent, G.order + 1)):
            # the property is closed under subsequences: stop at the first
            # length that no sequence of nonzero elements reaches. The first
            # sequence found at a length is the lex-least one, which the
            # search must return: orbit pruning never drops it.
            longest, least = 0, ()
            while True:
                found = next(
                    (
                        seq
                        for seq in combinations_with_replacement(nonzero, longest + 1)
                        if not has_short_zero_sum(seq, cap, factors)
                    ),
                    None,
                )
                if found is None:
                    break
                longest, least = longest + 1, found
            assert _generic_search(G, cap, None)[:2] == (longest, least), cap

    def test_budget_exhaustion_names_the_search(self):
        # not enough for s_le(4) (1,413 nodes); D is ub.olson's
        with pytest.raises(SearchError) as excinfo:
            s_le(C33, 4, 1_000)
        assert str(excinfo.value) == (
            "short-zero-sum search (cap 4) on 3^3 exhausted its budget after 1000 nodes"
        )

    def test_budget_bounds_the_elementary_two_search(self):
        # s_le(C_2^5, 4), the one C_2^r threshold the rules leave open, is
        # the generic search's, 93 nodes; D and the other caps take none
        with pytest.raises(SearchError) as excinfo:
            s_le(C25, 4, 92)
        assert str(excinfo.value) == (
            "short-zero-sum search (cap 4) on 2^5 exhausted its budget after 92 nodes"
        )
        assert s_le(C25, 4, 93).value == 7
        assert davenport(make_group((2,) * 6), 1).value == 7
        assert s_le(C25, 3, 1).value == 17

    def test_exhausted_search_is_not_rerun(self, monkeypatch):
        # the second call raises the remembered SearchError at once
        calls = []
        search = invariants._generic_search

        def counted(*args):
            calls.append(args)
            return search(*args)

        monkeypatch.setattr(invariants, "_generic_search", counted)
        message = "zero-sum-free search (cap 24) on 2^2,6 exhausted its budget after 2001 nodes"
        for call in (s_le, s_le, lambda G, cap, budget: davenport(G, budget)):
            with pytest.raises(SearchError) as excinfo:
                call(C226, 6, 2_001)
            assert str(excinfo.value) == message
        # s_le asks for D (4,430 nodes) first; the D search runs once
        assert [args[1:] for args in calls] == [(24, 2_001)]

    def test_orbit_map_not_shared_across_generators(self, monkeypatch):
        # full-H searches, then swap-only ones, then full-H again, on the
        # same groups in one process: each keeps its own pinned count
        pins = {(f, cap): nodes for f, cap, _, nodes in SEARCH_PINS}
        cheap = [p for p in SWAP_SEARCH_PINS if p[3] < 3000]
        for factors, cap, _, _ in cheap:
            assert _generic_search(make_group(factors), cap, None)[2] == pins[factors, cap]
        swaps_only(monkeypatch)
        for factors, cap, _, nodes in cheap:
            assert _generic_search(make_group(factors), cap, None)[2] == nodes
        monkeypatch.undo()
        for factors, cap, _, _ in cheap:
            assert _generic_search(make_group(factors), cap, None)[2] == pins[factors, cap]

    @pytest.mark.parametrize("caps", list(permutations((3, 4, 5, 27))))
    def test_node_counts_do_not_depend_on_call_order(self, caps):
        # every search on C_3^3 shares one orbit map, filled as it goes
        invariants._orbit_map.cache_clear()
        pins = {cap: nodes for f, cap, _, nodes in SEARCH_PINS if f == (3, 3, 3)}
        assert {cap: _generic_search(C33, cap, None)[2] for cap in caps} == pins
        # and they leave the same flags: 3,172 prefixes in 6 orbits
        flags = invariants._orbit_map(
            C33, _automorphism_generators, invariants.ORBIT_PRUNE_DEPTH
        )[1]
        assert (len(flags) - flags.count(0), flags.count(1)) == (3172, 6)

    def test_cap_below_exponent_rejected(self):
        # exp(G) copies of an element of order exp(G) are a zero-sum of
        # length exp(G), so the multiplicity bound needs cap >= exp(G)
        with pytest.raises(ValueError, match="cap 2 is below the exponent 3 of 3\\^2"):
            _generic_search(C32, 2, None)
        with pytest.raises(ValueError, match="cap 3 is below the exponent 4 of 2,4"):
            _generic_search(make_group((2, 4)), 3, None)

    def test_zero_budget_searches_nothing(self):
        with pytest.raises(SearchError, match="zero-sum-free search .* after 0 nodes"):
            davenport(C226, 0)

    def test_order_guard(self):
        # C_2 + C_6^3, of order 432, is neither a p-group nor of rank <= 2
        with pytest.raises(SearchError, match="exceeds the exhaustive-search guard"):
            davenport(make_group((2, 6, 6, 6)))


class TestLiteratureValues:
    """Known values (Gao and Geroldinger, Expo. Math. 24, 2006)."""

    def test_eta_rank_three_of_threes(self):
        assert eta(C33).value == 17

    @pytest.mark.parametrize("m,n", [(3, 3), (2, 4), (2, 6), (4, 4), (3, 6), (2, 8)])
    def test_eta_rank_two(self, m, n):
        assert eta(make_group((m, n))).value == 2 * m + n - 2

    @pytest.mark.parametrize("factors", sorted(GENERIC_CERT_DIGESTS))
    def test_davenport_equals_dstar(self, factors):
        # each group is a p-group or has rank 2, where D = D* is a theorem
        G = make_group(factors)
        assert davenport(G, None).value == profile(G).d_star


RANK5_TABLE = {1: (6, 6), 2: (10, 10), 3: (13, 14), 4: (16, 17),
               8: (26, 26), 9: (28, 28), 10: (31, 31), 12: (35, 35)}


class TestDkRankFive:
    @pytest.mark.parametrize("k", sorted(RANK5_TABLE))
    def test_table_row(self, k):
        cert = davenport_k(C25, k)
        assert (cert.lower, cert.upper) == RANK5_TABLE[k]
        assert_verifies(cert)

    def test_certify_accepts_exact_rows(self):
        cert = certify_dk(C25, 2)
        assert cert.value == 10

    def test_tail_grows_by_two(self):
        a = davenport_k(C25, 11).value
        b = davenport_k(C25, 12).value
        assert (a, b) == (33, 35)


class TestStabilization:
    @pytest.mark.parametrize("factors,kmax,expected", [
        ((5,), 4, (0, 1, True)),
        ((8,), 4, (0, 1, True)),
        ((2, 2), 5, (1, 1, True)),
        ((3, 3), 4, (2, 1, True)),
        ((2, 2, 2), 5, (3, 2, False)),
        ((2, 2, 2, 2), 6, (5, 3, False)),
    ])
    def test_offset_onset_certified(self, factors, kmax, expected):
        rep = stabilization(make_group(factors), kmax)
        assert (rep.d0, rep.k_onset, rep.certified) == expected

    def test_rows_match_individual_certificates(self):
        rep = stabilization(C32, 3)
        for k, lo, hi in rep.rows:
            cert = davenport_k(C32, k)
            assert (lo, hi) == (cert.lower, cert.upper)

    def test_report_round_trips_to_json(self):
        rep = stabilization(C22, 4)
        data = json.loads(json.dumps(rep.to_json(), sort_keys=True))
        assert data["d0"] == 1
        assert data["k_onset"] == 1
        assert data["certified"] is True


class TestCertificateSerialization:
    @pytest.mark.parametrize("build", [
        lambda: davenport(C33),
        lambda: davenport_k(C23, 3),
        lambda: davenport_k(C25, 2),
        lambda: davenport_k(C25, 3),
        lambda: s_le(C24, 3),
        lambda: s_le(make_group((5,)), 2),
        lambda: eta(C32),
    ])
    def test_round_trip_then_verify(self, build):
        cert = build()
        revived = Certificate.from_json(cert.to_json())
        assert revived.constant == cert.constant
        assert revived.lower == cert.lower
        assert revived.upper == cert.upper
        result = verify_certificate(revived)
        assert result.ok, result.problems

    def test_digest_is_stable_across_round_trip(self):
        cert = davenport_k(C24, 2)
        revived = Certificate.from_json(cert.to_json())
        assert revived.digest() == cert.digest()

    def test_tampered_value_is_rejected(self):
        data = davenport_k(C24, 2).to_json()
        data["value"] = data["value"] + 1
        result = verify_certificate(Certificate.from_json(data))
        assert not result.ok

    def test_tampered_witness_is_rejected(self):
        data = davenport_k(C23, 2).to_json()
        data["witness"] = data["witness"][:1]
        result = verify_certificate(Certificate.from_json(data))
        assert not result.ok

    def test_tampered_chain_step_is_rejected(self):
        data = davenport_k(C25, 5).to_json()
        for step in data["upper_chain"]:
            if step["rule"].startswith("search."):
                step["value"] = step["value"] - 1
        result = verify_certificate(Certificate.from_json(data))
        assert not result.ok

    def test_value_and_interval_are_exclusive(self):
        with pytest.raises(ValueError):
            Certificate(constant="D", group=C22, k=1, value=3, interval=(3, 4),
                        witness=None, witness_check=None, upper_chain=())

    def test_interval_must_be_ordered(self):
        with pytest.raises(ValueError):
            Certificate(constant="D", group=C22, k=1, value=None, interval=(5, 4),
                        witness=None, witness_check=None, upper_chain=())

    @pytest.mark.parametrize("constant,k", [
        ("D_k", "1"), ("D_k", None), ("D_k", 1.0), ("D_k", True), ("D_k", 0),
        ("s_le", True), ("eta", None), ("D", 1),
    ])
    def test_k_must_be_a_positive_int_or_none_on_d(self, constant, k):
        with pytest.raises(CertificateError):
            Certificate(constant=constant, group=C32, k=k, value=3, interval=None,
                        witness=None, witness_check=None, upper_chain=())

    @pytest.mark.parametrize("k", ["1", None, 1.0, True], ids=["str", "null", "float", "bool"])
    def test_k_of_another_type_is_refused_from_json(self, k):
        data = davenport_k(C32, 1).to_json()
        del data["digest"]
        data["k"] = k
        with pytest.raises(CertificateError):
            Certificate.from_json(data)

    @pytest.mark.parametrize("shape,message", [
        ("witness_check", "witness_check must be an object, not 'atom'"),
        ("params", "witness_check params must be an object, not [8]"),
        ("upper_chain", "upper_chain[0] must be an object, not 'ub.e2g_d'"),
    ])
    def test_object_of_another_type_is_refused_from_json(self, shape, message):
        # D_2(C_2^4), digest dropped, with one JSON object retyped: each once
        # died in from_json or verify_certificate with an AttributeError
        data = davenport_k(C24, 2).to_json()
        assert data["witness_check"]["rule"] == "coset-quarter"
        del data["digest"]
        if shape == "witness_check":
            data["witness_check"] = "atom"
        elif shape == "params":
            data["witness_check"]["params"] = [8]
        else:
            data["upper_chain"][0] = "ub.e2g_d"
        with pytest.raises(CertificateError) as err:
            Certificate.from_json(data)
        assert str(err.value) == message

    @pytest.mark.parametrize("inputs,message", [
        ([1], "upper_chain[0] inputs must be an object, not [1]"),
        (["r"], "upper_chain[0] inputs must be an object, not ['r']"),
        ("r", "upper_chain[0] inputs must be an object, not 'r'"),
        ({"r": 4}, "upper_chain[0] input r must be an object, not 4"),
    ], ids=["list-int", "list-str", "str", "entry-int"])
    def test_step_inputs_of_another_type_are_refused_from_json(self, inputs, message):
        # D_2(C_2^4), digest dropped, with its first step's inputs retyped:
        # [1] once died in an IndexError, the others in a TypeError
        data = davenport_k(C24, 2).to_json()
        del data["digest"]
        data["upper_chain"][0]["inputs"] = inputs
        with pytest.raises(CertificateError) as err:
            Certificate.from_json(data)
        assert str(err.value) == message

    @pytest.mark.parametrize("field,value,message", [
        ("group", 5, "group must be a label, not 5"),
        ("group", [2, 2], "group must be a label, not [2, 2]"),
        ("rule", 5, "upper_chain[0] rule must be a string, not 5"),
    ], ids=["group-int", "group-list", "rule-int"])
    def test_field_of_another_type_is_refused_from_json(self, field, value, message):
        # D_2(C_2^4), digest dropped, with one field retyped: each once died
        # in an AttributeError (parse_group's strip, the step's startswith)
        data = json.loads(json.dumps(davenport_k(C24, 2).to_json()))
        del data["digest"]
        if field == "group":
            data["group"] = value
        else:
            data["upper_chain"][0]["rule"] = value
        with pytest.raises(CertificateError) as err:
            Certificate.from_json(data)
        assert str(err.value) == message

    @pytest.mark.parametrize("factors,build", [
        ((2, 4), lambda G: davenport_k(G, 2)),
        ((2, 2, 6), lambda G: davenport_k(G, 2)),
        ((3, 3), lambda G: eta(G)),
    ], ids=["D_2(2,4)", "D_2(2^2,6)", "eta(3^2)"])
    def test_a_directly_built_group_gives_the_same_json(self, factors, build):
        # Group(...) skips the shared instance and so every kept datum: the
        # certificate built on it must not differ by a byte
        memos = (davenport, s_le, davenport_k, invariants._generic_rows, invariants._orbit_map)
        for fn in memos:
            fn.cache_clear()
        shared = json.dumps(build(make_group(factors)).to_json(), sort_keys=True)
        for fn in memos:
            fn.cache_clear()
        direct = Group(factors)
        cert = build(direct)
        assert cert.group is direct
        assert json.dumps(cert.to_json(), sort_keys=True) == shared
        assert_verifies(cert)
        for fn in memos:
            fn.cache_clear()

    def test_to_json_shares_no_witness_check_with_the_certificate(self):
        # an edit to the JSON of a memoised certificate once reached every
        # later caller: its coset-quarter rule then lost its functional
        data = davenport_k(C24, 2).to_json()
        data["witness_check"]["params"]["functional"] = 0
        assert_verifies(davenport_k(C24, 2))

    def test_from_json_shares_no_witness_check_with_its_source(self):
        data = davenport_k(C24, 2).to_json()
        revived = Certificate.from_json(data)
        data["witness_check"]["params"]["functional"] = 0
        assert_verifies(revived)

    def test_json_has_no_exhaustive_key(self):
        certs = [
            davenport(C22), davenport(make_group(())), davenport_k(C25, 2),
            davenport_k(C33, 2), davenport_k(make_group((6,)), 3), s_le(C24, 3),
            s_le(make_group((5,)), 2), s_le(make_group((2,) * 6), 5), eta(C32),
        ]
        for cert in certs:
            assert "exhaustive" not in cert.to_json()
            assert not hasattr(cert, "exhaustive")

    def test_malformed_json_is_refused(self, malformed):
        data, message = malformed
        with pytest.raises(CertificateError) as err:
            Certificate.from_json(data)
        assert str(err.value) == message

    def test_certify_raises_on_broken_certificate(self):
        cert = davenport_k(C23, 2)
        bad = Certificate.from_json({**cert.to_json(), "value": 99})
        result = verify_certificate(bad)
        assert not result.ok
        with pytest.raises(CertificateError):
            _raise_if_bad(bad)


def _raise_if_bad(cert):
    result = verify_certificate(cert)
    if not result.ok:
        raise CertificateError("; ".join(result.problems))


def _tamper(cert, rule_id, edits):
    """Verify cert's JSON with rule_id's recorded inputs edited, digest dropped."""
    data = cert.to_json()
    del data["digest"]  # so only the chain check can object
    steps = [s for s in data["upper_chain"] if s["rule"] == rule_id]
    assert steps, rule_id
    for step in steps:
        for name, value in edits.items():
            step["inputs"][name]["value"] = value
    return verify_certificate(Certificate.from_json(data))


def _with_step(cert, step):
    """cert with a rule step ahead of its chain; the final step is unchanged."""
    extended = replace(cert, upper_chain=(step,) + cert.upper_chain)
    assert_verifies(extended)
    return extended


def _forged_c33_dk2(step):
    """D_2(C_3^3), which is 11, claimed as 10 from step alone, next to the
    length-10 D* witness."""
    return Certificate(
        constant="D_k", group=C33, k=2, value=10, interval=None,
        witness=_dstar_witness(C33, 2),
        witness_check={"rule": "max-disjoint", "params": {}},
        upper_chain=(step,),
    )


class TestRuleStepsRecheckPreconditions:
    def forged_c33_dk2(self):
        # one ub.cpr step whose inputs break r(p-1)+1 < 2 p^m
        step = BoundReport(
            "ub.cpr",
            10,
            tuple((name, InputValue(v)) for name, v in (("p", 3), ("r", 3), ("k", 2), ("m", 1))),
        )
        return _forged_c33_dk2(step)

    def test_forged_cpr_certificate_is_rejected(self):
        cert = self.forged_c33_dk2()
        result = verify_certificate(cert)
        assert result.problems == (
            "chain[0] ub.cpr: re-evaluation failed (need r(p-1)+1 < 2 p^m)",
        )
        revived = Certificate.from_json(json.loads(json.dumps(cert.to_json())))
        assert verify_certificate(revived).problems == result.problems

    def test_recursion_level_above_d_is_rejected(self):
        # the rule bisects on a block count that grows with the length
        # only when every level is at most D, which is 7 here
        cert = davenport_k(C33, 3)
        step = cert.upper_chain[2]
        assert (step.rule_id, step.input_value("D")) == ("ub.recursion", 7)
        inputs = tuple((n, replace(iv, value=(8,)) if n == "ell" else iv) for n, iv in step.inputs)
        forged = replace(cert, upper_chain=cert.upper_chain[:2] + (replace(step, inputs=inputs),))
        expected = ("chain[2] ub.recursion: re-evaluation failed (every ell must be at most D)",)
        assert verify_certificate(forged).problems == expected
        revived = Certificate.from_json(json.loads(json.dumps(forged.to_json())))
        assert verify_certificate(revived).problems == expected

    def test_tampered_s2m_root_is_rejected(self):
        cert = _with_step(davenport_k(C25, 2), e2g_s2m_upper(5, 2))
        result = _tamper(cert, "ub.e2g_s2m", {"root": 10})
        assert not result.ok
        assert any("ub.e2g_s2m: re-evaluation failed" in p for p in result.problems)

    def test_tampered_elb_delta_is_rejected(self):
        cert = _with_step(davenport_k(C24, 2), elb_lower(C24, 3, 1, 2))
        # delta 0 -> 1 with d_star 5 -> 4 keeps the recorded value 8
        result = _tamper(cert, "lb.elb", {"delta": 1, "d_star": 4})
        assert not result.ok
        assert any("lb.elb: re-evaluation failed" in p for p in result.problems)

    def test_tampered_extension_m_is_rejected(self):
        cert = _with_step(davenport_k(C24, 2), s_le_from_extension(2, 6, 5))
        result = _tamper(cert, "ub.extension", {"m": 3})
        assert not result.ok
        assert any("ub.extension: re-evaluation failed" in p for p in result.problems)

    def test_infinite_threshold_in_step_is_reported(self):
        result = _tamper(davenport_k(make_group((2,) * 6), 8), "ub.step", {"s_value": "inf"})
        assert any("ub.step: re-evaluation failed" in p for p in result.problems)

    def test_infinite_threshold_in_remark_is_reported(self):
        cert = _with_step(davenport_k(C24, 2), remark_ub(C24, 3, 2, 16, 5))
        result = _tamper(cert, "ub.remark", {"s_value": "inf"})
        assert any("ub.remark: re-evaluation failed" in p for p in result.problems)

    def test_wrongly_typed_input_is_reported(self):
        result = _tamper(davenport_k(C32, 2), "ub.halter_koch", {"k": "2"})
        assert any("ub.halter_koch: re-evaluation failed" in p for p in result.problems)

    def test_untampered_steps_verify(self):
        for cert in (davenport_k(C25, 2), davenport_k(C32, 2)):
            data = cert.to_json()
            del data["digest"]
            assert_verifies(Certificate.from_json(data))


class TestWitnessRules:
    def test_zeros_rule(self):
        cert = davenport_k(make_group(()), 3)
        assert cert.witness_check["rule"] == "zeros"

    def test_atom_rule_on_davenport_witness(self):
        cert = davenport(C33)
        assert cert.witness_check["rule"] == "atom"

    def test_cyclic_power_rule(self):
        cert = davenport_k(make_group((6,)), 3)
        assert cert.witness_check["rule"] == "cyclic-power"

    def test_short_free_rule_for_threshold_witness(self):
        cert = s_le(C24, 3)
        assert cert.witness_check["rule"] == "short-free"

    def test_rank_five_rule_mix(self):
        assert davenport_k(C25, 2).witness_check["rule"] == "coset-quarter"
        assert davenport_k(C25, 8).witness_check["rule"] == "squarefree-third"
        assert davenport_k(C25, 3).witness_check["rule"] == "max-disjoint"

    def test_wrong_rule_is_flagged(self):
        cert = davenport(C32)
        data = cert.to_json()
        data["witness_check"] = {"rule": "atom"}
        seq = Sequence.from_counts(C32, {(1, 0): 2, (2, 0): 1})
        data["witness"] = [{"coords": [1, 0], "mult": 2}, {"coords": [2, 0], "mult": 1}]
        data["value"] = 3
        result = verify_certificate(Certificate.from_json(data))
        assert not result.ok  # that sequence is zero-sum but not minimal

    def test_max_disjoint_rule_reports_exhausted_budget(self):
        cert = davenport_k(C32, 2)
        assert cert.witness_check["rule"] == "max-disjoint"
        assert verify_certificate(cert).ok
        result = verify_certificate(cert, budget=1)
        assert result.problems == ("witness: verification budget exhausted",)

    def test_max_disjoint_refuses_a_core_of_more_blocks(self):
        # row 3 of C_2^5 with 13 distinct ids that split into four disjoint
        # circuits: 1 2 3, 4 8 12, 5 16 21 and 6 9 17 30
        cert = davenport_k(C25, 3)
        assert cert.witness_check["rule"] == "max-disjoint"
        ids = (1, 2, 3, 4, 8, 12, 5, 16, 21, 6, 9, 17, 30)
        forged = replace(cert, witness=invariants._ids_to_sequence(C25, ids))
        assert forged.witness.length == cert.lower == 13
        assert verify_certificate(forged).problems == (
            "witness: core splits into more than 3 disjoint blocks",
        )

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_row_witness_fails_one_block_lower(self, r):
        G = make_group((2,) * r)
        certs = {k: davenport_k(G, k) for k in range(2, 9)}
        # the check needs no row pipeline
        invariants._engine.cache_clear()
        for k, cert in certs.items():
            assert cert.witness_check["rule"] in ("squarefree-third", "coset-quarter")
            check = cert.witness_check
            assert not invariants._check_witness(G, cert.witness, k, check, None)
            assert invariants._check_witness(G, cert.witness, k - 1, check, None)
        assert invariants._engine.cache_info().currsize == 0

    def test_decompose_2group_takes_zeros_and_pairs_out_of_the_core(self):
        counts = {(0, 0, 0): 2, (0, 0, 1): 2, (0, 1, 0): 3, (1, 0, 0): 1}
        core, pairs, zeros = invariants._decompose_2group(Sequence.from_counts(C23, counts))
        assert core == tuple(sorted(element_index(C23, e) for e in [(0, 1, 0), (1, 0, 0)]))
        assert (pairs, zeros) == (2, 2)

    def test_unknown_rule_is_flagged(self):
        data = davenport(C22).to_json()
        data["witness_check"] = {"rule": "mystery"}
        result = verify_certificate(Certificate.from_json(data))
        assert not result.ok


def _verify_edited(cert, edit):
    """Problems of cert's JSON after edit(data), its digest dropped first."""
    data = cert.to_json()
    del data["digest"]  # so only the edited field can object
    edit(data)
    return verify_certificate(Certificate.from_json(data)).problems


def _setting(**fields):
    return lambda data: data.update(fields)


def _witness_rule(rule, **params):
    return _setting(witness_check={"rule": rule, "params": params})


def _witness_element(i, coords):
    def edit(data):
        data["witness"][i]["coords"] = coords

    return edit


def _step_field(i, name, value):
    def edit(data):
        data["upper_chain"][i][name] = value

    return edit


def _failed_sweep(i):
    def edit(data):
        step = data["upper_chain"][i]
        step["inputs"]["failures"]["value"] = 1
        del step["digest"]

    return edit


def _step_input(i, name, value):
    def edit(data):
        data["upper_chain"][i]["inputs"][name]["value"] = value

    return edit


def _drop_input(i, name):
    return lambda data: data["upper_chain"][i]["inputs"].pop(name)


def _unbound(i, rule, k):
    return "chain[%d] %s does not bound the certificate's k = %d" % (i, rule, k)


class TestForgedUpperSide:
    @pytest.mark.parametrize(
        "factors,value", [((2,) * 5, 13), ((3, 3, 3), 14)], ids=["2^5", "3^3"]
    )
    def test_finite_upper_side_without_chain_is_refused(self, factors, value):
        # a bracketed row claims its lower end, with its chain removed
        def forge(data):
            del data["interval"]
            data.update(value=value, upper_chain=[])

        problems = _verify_edited(davenport_k(make_group(factors), 3), forge)
        assert problems == ("no chain backing the upper side",)

    def test_enumeration_step_is_refused(self):
        # D_2(C_2^4) closed, as it once was, on a search.full_enum step whose
        # value no rule gives, under its own digest
        def forge(data):
            data["upper_chain"] = [{
                "rule": "search.full_enum", "direction": "upper", "constant": "D_k",
                "value": 8,
                "inputs": {"group": {"value": "2^4", "provenance": "search"},
                           "k": {"value": 2, "provenance": "search"}},
                "digest": invariants._digest16("full-enum:g=2^4:k=2:value=8"),
            }]

        assert _verify_edited(davenport_k(C24, 2), forge) == (
            "chain[0] search.full_enum: digest mismatch",
            "chain[0] search.full_enum: re-evaluation failed "
            "(no evaluator for rule 'search.full_enum')",
        )


# the 25 abelian groups of order <= 16, the trivial one first
PINNED_GROUPS = [()] + [(n,) for n in range(2, 17)] + [
    (2, 2), (2, 4), (2, 6), (2, 8), (3, 3), (4, 4), (2, 2, 2), (2, 2, 4), (2, 2, 2, 2),
]


@pytest.fixture(scope="module")
def pinned_certificates():
    """D, eta, s_le at 1..exp + 3 and D_k at k = 1..5 of each pinned group:
    421 certificates, every builder site of the library among them."""
    certs = []
    for factors in PINNED_GROUPS:
        G = make_group(factors)
        exp = profile(G).exponent if G.order > 1 else 1
        certs += [davenport(G), eta(G)]
        certs += [s_le(G, ell) for ell in range(1, exp + 4)]
        certs += [davenport_k(G, k) for k in range(1, 6)]
    return certs


class TestCertificatesFromEvidence:
    def test_pinned_certificates_are_byte_identical(self, pinned_certificates):
        digest = hashlib.sha256()
        for cert in pinned_certificates:
            digest.update(json.dumps(cert.to_json(), sort_keys=True).encode())
        assert len(pinned_certificates) == 421
        assert digest.hexdigest()[:16] == "8cd2fafba95aa168"

    def test_every_witness_rule_bounds_its_constant(self, pinned_certificates):
        for cert in pinned_certificates:
            if cert.witness is not None:
                threshold = cert.constant in ("s_le", "eta")
                assert (cert.witness_check["rule"] == "short-free") == threshold
            assert verify_certificate(cert).ok

    def test_no_certificate_is_built_by_hand(self):
        # every certificate comes from Certificate.from_evidence, from
        # Certificate.from_json or from dataclasses.replace of one of those
        found = []
        for path in sorted(Path(invariants.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if name == "Certificate":
                        found.append("%s:%d Certificate(...)" % (path.name, node.lineno))
                if "from_bracket" in (getattr(node, "attr", None), getattr(node, "id", None),
                                      getattr(node, "name", None)):
                    found.append("%s:%d from_bracket" % (path.name, node.lineno))
        assert found == []

    @pytest.mark.parametrize("constant,k,witness,check,chain,claim", [
        ("D", None, (0, 0), "atom", (), (2, None)),
        ("D_k", 2, (1, 1), "max-disjoint", (3,), (None, (2, 3))),
        ("s_le", 2, (1, 2), "short-free", (3, 3), (3, None)),
        ("s_le", 2, None, None, (4,), (4, None)),
    ], ids=["no-chain", "bracket", "deduped", "no-witness"])
    def test_claim_comes_from_the_evidence(self, constant, k, witness, check, chain, claim):
        # witness is ids of C_2^2 and chain the values of ub.k_times_d(1, D)
        # steps, the equal ones deduplicated; no chain closes here
        steps = [invariants.k_times_d(1, d, d_prov=COMPUTED) for d in chain]
        cert = Certificate.from_evidence(
            constant, C22, k, witness and invariants._ids_to_sequence(C22, witness),
            check and invariants._check(check), steps,
        )
        assert (cert.value, cert.interval) == claim
        assert cert.upper_chain == tuple(steps[:1])

    def test_forgery_is_refused(self, forged):
        cert, problem = forged
        assert _problems_in_memory_and_from_json(cert) == (problem,)

    @pytest.mark.parametrize("end", ["13", 13.0, 13.7, True], ids=["str", "float", "fraction", "bool"])
    def test_interval_end_of_another_type_is_refused(self, end):
        cert = davenport_k(C25, 3)
        assert cert.interval == (13, 14)
        with pytest.raises(CertificateError, match="interval ends must be ints"):
            replace(cert, interval=(end, 14))
        data = cert.to_json()
        del data["digest"]
        data["interval"]["lo"] = end
        with pytest.raises(CertificateError, match="interval ends must be ints"):
            Certificate.from_json(data)


def _relabelled(cert, i, field, label):
    """cert's JSON, digest dropped, with chain step i's field set to label."""
    data = cert.to_json()
    del data["digest"]  # so only the label can object
    data["upper_chain"][i][field] = label
    return data


class TestLowerStepsNeverClose:
    """A step bounds only what its rule in bounds.RULES bounds: a lower
    step may sit in a chain but never closes it, and a step relabelled in
    JSON is malformed."""

    @pytest.mark.parametrize("step", [
        lower_dstar(C33, 2), elb_lower(C33, 2, 1, 2),
    ], ids=["dstar", "elb"])
    def test_lower_step_does_not_close(self, step):
        assert (step.direction, step.value) == ("lower", 10)
        cert = _forged_c33_dk2(step)
        assert _problems_in_memory_and_from_json(cert) == (_unbound(0, step.rule_id, 2),)
        with pytest.raises(ValueError, match="labelled upper"):
            Certificate.from_json(_relabelled(cert, 0, "direction", "upper"))

    def test_threshold_step_does_not_close_a_row(self):
        # D_4(C_2^5) lies in [16, 17]; s_le(C_2^5, 4) <= 8 is no bound on it
        step = e2g_sphere_upper(5, 4)
        assert (step.constant, step.value) == ("s_le", 8)
        g = (1, 0, 0, 0, 0)
        cert = Certificate(
            constant="D_k", group=C25, k=4, value=8, interval=None,
            witness=Sequence.from_counts(C25, {g: 8}),
            witness_check={"rule": "cyclic-power", "params": {}},
            upper_chain=(step,),
        )
        assert _problems_in_memory_and_from_json(cert) == (_unbound(0, "ub.e2g_sphere", 4),)
        with pytest.raises(ValueError, match="labelled upper D_k"):
            Certificate.from_json(_relabelled(cert, 0, "constant", "D_k"))

    def test_lower_step_inside_a_chain_still_verifies(self):
        cert = _with_step(davenport_k(C33, 2), lower_dstar(C33, 2))
        _assert_verifies_from_json(cert)

    @pytest.mark.parametrize("build", [
        lambda: davenport_k(C25, 3),
        lambda: davenport_k(C33, 2),
        lambda: s_le(C25, 4),
        lambda: eta(C32),
        lambda: davenport(C226),
    ], ids=["D_3(2^5)", "D_2(3^3)", "s_le4(2^5)", "eta(3^2)", "D(2^2,6)"])
    def test_every_relabelled_step_is_refused(self, build):
        cert = build()
        assert_verifies(cert)
        others = {"lower": "upper", "upper": "lower"}
        constants = ("D", "D_k", "s_le", "split", "D_0", "k_D", "delta")
        for i, step in enumerate(cert.upper_chain):
            edits = [("direction", others[step.direction])]
            edits += [("constant", c) for c in constants if c != step.constant]
            for field, label in edits:
                data = _relabelled(cert, i, field, label)
                try:
                    revived = Certificate.from_json(data)
                except ValueError:
                    continue
                assert not verify_certificate(revived).ok, (i, field, label)

    def test_rule_labels_pinned(self):
        # the verifier's soundness rests on this table: a step closes a
        # chain only as an upper bound on its rule's constant
        up, low = "upper", "lower"
        expected = {
            "ub.k_times_d": (up, "D_k"), "ub.recursion": (up, "D_k"),
            "ub.remark": (up, "D_k"), "ub.step": (up, "D_k"), "ub.cpr": (up, "D_k"),
            "ub.inductive": (up, "D_k"), "ub.squarefree_caps": (up, "D_k"),
            "ub.halter_koch": (up, "D_k"), "ub.e2g_d2": (up, "D_k"),
            "ub.e2g_split": (up, "D_k"),
            "lb.direct_sum": (low, "D_k"), "lb.dstar": (low, "D_k"),
            "lb.elb": (low, "D_k"), "lb.step_append": (low, "D_k"),
            "ub.olson": (up, "D"), "search.zsf": (up, "D"), "ub.e2g_d": (up, "D"),
            "ub.extension": (up, "s_le"), "sle.trivial_group": (up, "s_le"),
            "sle.infinite": (up, "s_le"), "sle.equals_davenport": (up, "s_le"),
            "ub.eta_rank2": (up, "s_le"), "ub.eta_c3": (up, "s_le"), "search.sle": (up, "s_le"),
            "ub.e2g_s2m": (up, "s_le"), "ub.e2g_sphere": (up, "s_le"),
            "search.sweep": (up, "split"),
            "lb.e2g_d0": (low, "D_0"), "ub.e2g_d0": (up, "D_0"),
            "ub.kd": (up, "k_D"), "ub.e2g_kd": (up, "k_D"),
            "ub.delta": (up, "delta"),
        }
        assert len(expected) == 32
        steps = [BoundReport(rule, 0, ()) for rule in RULES]
        assert {step.rule_id: (step.direction, step.constant) for step in steps} == expected


def _lowered_cap(data):
    # D_3(C_2^5) in [13, 14] claimed exact at 13 by lowering cap 3 to 13
    final = data["upper_chain"][-1]
    final["inputs"]["caps"]["value"][-1] = [3, 13]
    final["value"] = 13
    del data["interval"]
    data["value"] = 13


def _without_sweep(c):
    def edit(data):
        data["upper_chain"] = [
            step for step in data["upper_chain"]
            if step["rule"] != "search.sweep"
            or step["inputs"]["complement_size"]["value"] != c
        ]
    return edit


class TestRank5Caps:
    """The caps of a C_2^r row are re-derived from its own chain."""

    def test_lowered_cap_is_rejected(self):
        problems = _verify_edited(davenport_k(C25, 3), _lowered_cap)
        assert problems == (
            "chain[5] ub.squarefree_caps: caps [(0, 0), (1, 6), (2, 10), (3, 13)] "
            "do not follow from the chain, which gives "
            "[(0, 0), (1, 6), (2, 10), (3, 14)]",
        )

    @pytest.mark.parametrize("c", (3, 4, 5, 6, 8))
    def test_row_without_one_of_its_sweeps_is_rejected(self, c):
        problems = _verify_edited(davenport_k(C25, 8), _without_sweep(c))
        assert len(problems) == 1
        assert problems[0].startswith("chain[15] ub.squarefree_caps: caps ")

    def test_unreadable_caps_are_rejected(self):
        def edit(data):
            del data["upper_chain"][-1]["inputs"]["k"]

        problems = _verify_edited(davenport_k(C25, 3), edit)
        assert "chain[5] ub.squarefree_caps: caps cannot be re-derived ('k')" in problems

    def test_caps_on_another_group_are_rejected(self):
        # walked at rank 4, the C_2^5 chain gives a lower cap 3
        chain = davenport_k(C25, 3).upper_chain
        assert invariants._check_caps(C24, chain) == [
            "chain[5] ub.squarefree_caps: caps [(0, 0), (1, 6), (2, 10), (3, 14)] "
            "do not follow from the chain, which gives "
            "[(0, 0), (1, 6), (2, 10), (3, 12)]"
        ]

    def test_rank5_row_keeps_the_budget(self):
        # the C_2^r pipeline runs no search that takes a budget; s_le(C_2^5,
        # 4), the one C_2^5 search left, keeps its own
        assert davenport_k(C25, 2, 1).value == 10
        with pytest.raises(SearchError, match="on 2\\^5 exhausted its budget after 1 nodes"):
            s_le(C25, 4, 1)

    def test_caps_outside_elementary_two_groups_are_rejected(self):
        # two elements per extra block holds only where every element has order 2
        chain = davenport_k(C25, 3).upper_chain
        assert invariants._check_caps(C33, chain) == [
            "chain[5] ub.squarefree_caps: caps are only derived on C_2^r"
        ]

    def test_sweep_of_another_size_is_refused(self):
        # row 8's c = 8 sweep claiming the covering's 103 instances, under a
        # digest recomputed for them, so that no other check objects
        def edit(data):
            step = data["upper_chain"][15]
            step["inputs"]["instances"]["value"] = 103
            step["digest"] = invariants._expected_digest(BoundReport.from_json(step))

        assert _verify_edited(davenport_k(C25, 8), edit) == (
            "chain[15] search.sweep: 103 instances, not the 4 orbits of zero-sum "
            "8-sets of C_2^5",
        )

    def test_sweep_without_an_orbit_table_is_refused(self):
        step = invariants._search_step("search.sweep", "", r=5, complement_size=14,
                                       pieces=5, instances=12, failures=0)
        assert invariants._check_chain(C25, (step,)) == [
            "chain[0] search.sweep: no orbit table for zero-sum 14-sets of C_2^5"
        ]

    def test_lowered_rank_four_cap_is_rejected(self):
        # cap 4 of D_4(C_2^4) lowered from 12 to 11 leaves the row's value 13
        def edit(data):
            data["upper_chain"][-1]["inputs"]["caps"]["value"][-1] = [4, 11]

        problems = _verify_edited(davenport_k(C24, 4), edit)
        assert problems == (
            "chain[6] ub.squarefree_caps: caps [(0, 0), (1, 5), (2, 8), (3, 11), (4, 11)] "
            "do not follow from the chain, which gives "
            "[(0, 0), (1, 5), (2, 8), (3, 11), (4, 12)]",
        )


class TestFailureArms:
    """Search failures that the row builders turn into errors or skips."""

    @pytest.fixture
    def fresh_rows(self):
        # memoised rows and errors built under a patch must not outlive it
        def clear():
            invariants._engine.cache_clear()
            invariants._generic_rows.cache_clear()
            davenport_k.cache_clear()

        clear()
        yield
        clear()

    def test_failing_rank5_sweep_raises(self, monkeypatch, fresh_rows):
        real = gf2.run_sweep

        def failing(r, c, pieces):
            rec = real(r, c, pieces)
            return replace(rec, failures=1) if c == 8 else rec

        monkeypatch.setattr(gf2, "run_sweep", failing)
        with pytest.raises(SearchError, match="partition sweep c=8 reported failures"):
            davenport_k(C25, 6)

    def test_failed_sle_level_is_skipped(self, monkeypatch, fresh_rows):
        real = invariants.s_le

        def failing(G, ell, budget=None):
            if ell == 4:
                raise SearchError("no s_le(3^3, 4) today")
            return real(G, ell, budget)

        monkeypatch.setattr(invariants, "s_le", failing)
        cert = davenport_k(C33, 2)
        caps = [s.plain_inputs()["cap"] for s in cert.upper_chain if s.rule_id == "search.sle"]
        assert (cert.lower, cert.upper, caps) == (11, 12, [5])
        assert_verifies(cert)


class TestTamperedFields:
    """Each edit of one field of a real certificate draws its own problem."""

    @pytest.mark.parametrize("build,edit,problem", [
        (lambda: davenport(C22), _witness_rule("zeros"),
         "witness: zeros rule requires every element to be the identity"),
        (lambda: davenport_k(make_group(()), 3), _setting(k=2),
         ("witness: 3 identity elements exceed 2 blocks",
          _unbound(0, "ub.k_times_d", 2))),
        (lambda: davenport_k(make_group((6,)), 3),
         _setting(witness=[{"coords": [0], "mult": 18}]),
         "witness: cyclic-power rule needs a single nonzero element"),
        (lambda: davenport_k(make_group((6,)), 3), _setting(k=2),
         ("witness: 3 repetitions of a length-6 block exceed 2",
          _unbound(1, "ub.k_times_d", 2))),
        (lambda: davenport_k(C25, 2), _witness_rule("coset-quarter", functional=0),
         "witness: coset-quarter rule needs a nonzero functional"),
        (lambda: davenport_k(C25, 2), _witness_rule("coset-quarter", functional=1),
         "witness: core element 16 lies outside the selected coset"),
        (lambda: davenport_k(C25, 4), _setting(k=3),
         ("witness: quarter-bound 4 exceeds remaining 3 blocks",
          _unbound(7, "ub.squarefree_caps", 3))),
        (lambda: davenport_k(C25, 8), _setting(k=7),
         ("witness: third-bound 8 exceeds remaining 7 blocks",
          _unbound(16, "ub.squarefree_caps", 7))),
        (lambda: davenport_k(C25, 7), _setting(k=1),
         ("witness: pairs and zeros alone exceed 1 blocks",
          _unbound(16, "ub.squarefree_caps", 1))),
        (lambda: davenport_k(C24, 2), _witness_rule("mask-maxl"),
         "witness: unknown rule 'mask-maxl'"),
        (lambda: davenport_k(C32, 2), _witness_rule("squarefree-third"),
         "witness: rule 'squarefree-third' needs an elementary 2-group"),
        (lambda: davenport(C22), _setting(witness_check=None),
         "witness present without a check rule"),
        (lambda: s_le(make_group((6,)), 2), _setting(witness=[{"coords": [1], "mult": 1}]),
         "infinite threshold should carry no witness"),
        (lambda: s_le(C24, 3), lambda data: data["witness"].pop(),
         "witness length 7 differs from claimed 9 - 1"),
        (lambda: davenport(C22), _setting(witness=None),
         "no witness for a positive lower side"),
        (lambda: eta(C32), _setting(k=2),
         ("eta certificate must use k = exponent", _unbound(0, "ub.eta_rank2", 2))),
        (lambda: s_le(C24, 3), _witness_element(0, [0, 0, 0, 0]),
         "witness: sequence contains a zero-sum of length at most 3"),
        (lambda: davenport(C22),
         _setting(witness=[{"coords": [0, 0], "mult": 1}, {"coords": [1, 0], "mult": 2}]),
         "witness: sequence is not a minimal zero-sum"),
        (lambda: davenport_k(C32, 2),
         _setting(witness=[{"coords": [1, 0], "mult": 3}, {"coords": [0, 1], "mult": 3},
                           {"coords": [1, 1], "mult": 1}, {"coords": [2, 2], "mult": 1}]),
         "witness: maximum block count 3 exceeds 2"),
        (lambda: davenport(C226), _step_field(0, "digest", "0" * 16),
         "chain[0] search.zsf: digest mismatch"),
        (lambda: davenport(C226), _drop_input(0, "max_free"),
         "chain[0] search.zsf: cannot be digested ('max_free')"),
        (lambda: davenport_k(C226, 2), _step_field(0, "value", 7),
         "chain[0] search.zsf: re-evaluates to 8, not 7"),
        (lambda: davenport_k(C33, 3), _step_field(1, "value", 9),
         "chain[1] search.sle: re-evaluates to 10, not 9"),
        (lambda: davenport_k(C25, 5), _step_field(8, "value", 19),
         "chain[8] search.sweep: re-evaluates to 20, not 19"),
        (lambda: davenport_k(C25, 5), _failed_sweep(8),
         "chain[8] search.sweep: re-evaluation failed (sweep recorded failures)"),
        (lambda: davenport_k(C226, 1), _setting(k=2), _unbound(0, "search.zsf", 2)),
        (lambda: davenport_k(C25, 3), _setting(k=4), _unbound(5, "ub.squarefree_caps", 4)),
        (lambda: davenport_k(make_group((2,) * 6), 8), _setting(k=9),
         _unbound(2, "ub.step", 9)),
        (lambda: s_le(C33, 4), _setting(k=3), _unbound(0, "search.sle", 3)),
        (lambda: s_le(C24, 4), _setting(k=3), _unbound(0, "ub.e2g_sphere", 3)),
        (lambda: davenport_k(C33, 3), _step_input(2, "D", 0),
         "chain[2] ub.recursion: re-evaluation failed (D and every ell must be positive)"),
        (lambda: davenport_k(C33, 3), _step_input(2, "ell", [0]),
         "chain[2] ub.recursion: re-evaluation failed (D and every ell must be positive)"),
        (lambda: davenport_k(C24, 3), _step_field(4, "value", 10),
         ("chain[4] ub.recursion: re-evaluates to 11, not 10",
          "chain[5] ub.squarefree_caps: caps [(0, 0), (1, 5), (2, 8), (3, 11)] "
          "do not follow from the chain, which gives [(0, 0), (1, 5), (2, 8), (3, 10)]")),
        (lambda: davenport_k(C24, 3), _setting(k=4), _unbound(5, "ub.squarefree_caps", 4)),
    ], ids=[
        "zeros-nonzero", "zeros-count", "cyclic-support", "cyclic-blocks",
        "coset-functional", "coset-outside", "coset-quarter", "squarefree-third",
        "pairs-and-zeros", "mask-maxl-retired", "non-2-group-rule", "no-rule",
        "infinite-threshold", "threshold-length", "no-witness", "eta-k",
        "short-free", "atom-not-minimal", "max-disjoint-count",
        "search-digest", "search-input-missing", "zsf-value", "sle-value", "sweep-value", "sweep-failures",
        "zsf-relabel", "caps-relabel", "step-relabel", "sle-relabel", "sle-cap-relabel",
        "recursion-d-zero", "recursion-ell-zero", "recursion-value", "rank4-caps-relabel",
    ])
    def test_edit_is_reported(self, build, edit, problem):
        # a relabelled k also leaves the chain bounding the old k
        expected = problem if isinstance(problem, tuple) else (problem,)
        assert _verify_edited(build(), edit) == expected

    def test_witness_in_another_group(self):
        cert = replace(davenport(C22), witness=davenport(C32).witness)
        assert verify_certificate(cert).problems == ("witness lives in a different group",)


class TestMemoKeys:
    """The memoised constants key on bound arguments with defaults applied."""

    @pytest.mark.parametrize("fn,args", [
        (davenport, (C32,)),
        (s_le, (C32, 3)),
        (davenport_k, (C32, 2)),
    ], ids=["davenport", "s_le", "davenport_k"])
    def test_three_spellings_share_one_entry(self, fn, args):
        fn.cache_clear()
        first = fn(*args)
        # counted from here, since a cold davenport_k row also reads row 1
        before = fn.cache_info()
        assert fn(*args, None) is first
        assert fn(*args, budget=None) is first
        after = fn.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (0, 2)


class TestTableShape:
    """Growth facts that hold for every computed table."""

    @pytest.mark.parametrize("factors,kmax", [
        ((2, 2), 6), ((3, 3), 4), ((2, 2, 2), 6), ((4,), 5), ((2, 4), 3),
    ])
    def test_steps_between_exponent_and_first_value(self, factors, kmax):
        G = make_group(factors)
        exp = G.exponent
        first = davenport_k(G, 1)
        rows = [davenport_k(G, k) for k in range(1, kmax + 1)]
        for a, b in zip(rows, rows[1:]):
            if a.value is None or b.value is None:
                continue
            step = b.value - a.value
            assert exp <= step <= first.value

    def test_lower_never_exceeds_upper(self):
        for k in range(1, 13):
            cert = davenport_k(C25, k)
            assert cert.lower <= cert.upper


def _problems_in_memory_and_from_json(cert):
    """verify_certificate's problems for cert, which a JSON round trip keeps."""
    problems = verify_certificate(cert).problems
    revived = Certificate.from_json(json.loads(json.dumps(cert.to_json())))
    assert verify_certificate(revived).problems == problems
    return problems


class TestChainBoundToGroup:
    """A step whose inputs name another group's rank, order or label is
    refused, so no sound step of a smaller group can be spliced in."""

    def test_sphere_step_of_a_smaller_rank_is_rejected(self):
        # s_le(C_2^5, 3) is 17; the rank-4 step claims 9, next to the
        # rank-4 top coset, which has no zero-sum of length <= 3
        cert = Certificate(
            constant="s_le", group=C25, k=3, value=9, interval=None,
            witness=invariants._ids_to_sequence(C25, gf2.top_coset_ids(4)),
            witness_check={"rule": "short-free", "params": {}},
            upper_chain=(invariants.e2g_sphere_upper(4, 3),),
        )
        assert _problems_in_memory_and_from_json(cert) == (
            "chain[0] ub.e2g_sphere: input r = 4 is not the group's 5",
        )

    def test_search_step_of_a_subgroup_is_rejected(self):
        # D(C_2^3 + C_6) is at least D* = 9; this cites D(C_2^2 + C_6)'s
        # search, next to its atom with a first coordinate 0
        G = make_group((2, 2, 2, 6))
        sub = davenport(C226)
        atom = Sequence.from_elements(G, [(0,) + e for e in sub.witness.as_list()])
        cert = Certificate(
            constant="D", group=G, k=None, value=8, interval=None, witness=atom,
            witness_check={"rule": "atom", "params": {}}, upper_chain=sub.upper_chain,
        )
        assert _problems_in_memory_and_from_json(cert) == (
            "chain[0] search.zsf: input group = '2^2,6' is not the group's '2^3,6'",
        )

    def test_two_block_cap_of_a_smaller_rank_is_rejected(self):
        # D_2(C_2^5) is 10; ub.e2g_d2 at r = 3 claims 7, next to D_2(C_2^3)'s
        # witness, whose ids keep their values in C_2^5
        row = davenport_k(C23, 2)
        ids = [element_index(C23, e) for e in row.witness.as_list()]
        cert = Certificate(
            constant="D_k", group=C25, k=2, value=7, interval=None,
            witness=invariants._ids_to_sequence(C25, ids), witness_check=row.witness_check,
            upper_chain=(invariants.e2g_d2_upper(3),),
        )
        assert _problems_in_memory_and_from_json(cert) == (
            "chain[0] ub.e2g_d2: input r = 3 is not the group's 5",
        )

    def test_elementary_two_rule_on_another_group_is_rejected(self):
        # D(C_3^2) is 5; ub.e2g_d at its rank 2 would claim 3
        atom = Sequence.from_elements(C32, [(1, 0), (0, 1), (2, 2)])
        cert = Certificate(
            constant="D", group=C32, k=None, value=3, interval=None, witness=atom,
            witness_check={"rule": "atom", "params": {}},
            upper_chain=(invariants.e2g_d_upper(2),),
        )
        assert _problems_in_memory_and_from_json(cert) == (
            "chain[0] ub.e2g_d: the rule needs an elementary 2-group",
        )

    def test_p_is_a_prime_exponent_or_none(self):
        assert invariants._group_properties(C32)["p"] == 3
        assert invariants._group_properties(make_group((4, 4)))["p"] is None
        assert invariants._group_properties(make_group((2, 4)))["p"] is None

    def test_kept_properties_are_read_only(self):
        # kept on the group, so an edit would reach every later verification
        props = invariants._group_properties(C32)
        assert invariants._group_properties(make_group((3, 3))) is props
        with pytest.raises(TypeError):
            props["p"] = 5
        with pytest.raises(TypeError):
            del props["r"]
        assert dict(props) == {
            "r": 2, "p": 3, "group": "3^2", "exponent": 3, "order": 9, "d_star": 5,
        }


def _assert_verifies_from_json(cert):
    assert_verifies(Certificate.from_json(json.loads(json.dumps(cert.to_json()))))


class TestElementaryTwoRules:
    """D and s_le of C_2^r from ub.e2g_d and ub.e2g_sphere, against the
    bitmask search kept as the tests' oracle and the coding literature."""

    @pytest.mark.parametrize("r", range(2, 7))
    def test_sle_holds_the_bitmask_search(self, r):
        G = make_group((2,) * r)
        for cap in range(2, r + 2):
            if (r, cap) == (6, 3):
                continue  # 13.6 s for the oracle; 33 is pinned from the extended Hamming code
            size, _ids = gf2.max_set_without_short_zero_sums(r, cap)
            cert = s_le(G, cap)
            assert cert.lower <= size + 1 <= cert.upper, cap
            if r <= 5:
                assert cert.value == size + 1, cap

    def test_davenport_is_the_bitmask_search(self):
        for r in range(1, 9):
            assert davenport(make_group((2,) * r)).value == 1 + gf2.max_independent_size(r)[0]

    @pytest.mark.parametrize("r,cap,value", [(6, 6, 8), (7, 6, 9), (7, 7, 9), (11, 6, 24), (12, 7, 25)])
    def test_codes_close_the_threshold(self, r, cap, value):
        # repetition codes at ranks 6 and 7, Golay codes at 11 and 12
        cert = s_le(make_group((2,) * r), cap)
        assert cert.value == value
        assert [s.rule_id for s in cert.upper_chain] == ["ub.e2g_sphere"]
        _assert_verifies_from_json(cert)

    @pytest.mark.parametrize("r", range(1, 13))
    def test_hamming_thresholds(self, r):
        G = make_group((2,) * r)
        for cert, value in ((eta(G), 2**r), (s_le(G, 3), 2 ** (r - 1) + 1)):
            assert cert.value == value
            _assert_verifies_from_json(cert)

    def test_no_library_path_calls_the_bitmask_search(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the bitmask search ran")

        monkeypatch.setattr(gf2, "max_set_without_short_zero_sums", refuse)
        for fn in (davenport, s_le, davenport_k, invariants._engine):
            fn.cache_clear()
        for r in range(1, 13):
            G = make_group((2,) * r)
            davenport(G)
            eta(G)
            for cap in range(1, 9):
                s_le(G, cap)
        assert [davenport_k(C25, k).upper for k in range(1, 11)] == [
            6, 10, 14, 17, 19, 21, 23, 26, 28, 31
        ]

    def test_rows_under_two_budgets_share_their_sweeps(self, monkeypatch):
        calls = []
        real = gf2.run_sweep

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(gf2, "run_sweep", counted)
        invariants._engine.cache_clear()
        davenport_k.cache_clear()
        first = davenport_k(C25, 7)
        assert davenport_k(C25, 7, 10**7).digest() == first.digest()
        assert len(calls) == 6


def abelian_groups(max_order):
    """Invariant factors of every nontrivial abelian group of order <= max_order."""
    out = []

    def grow(factors, order):
        if factors:
            out.append(tuple(factors))
        m = factors[-1] if factors else 2
        while order * m <= max_order:
            grow(factors + [m], order * m)
            m += factors[-1] if factors else 1

    grow([], 1)
    return sorted(out)


def test_trial_division_answers_as_before():
    # olson_applies and is_prime factor through groups.factorize; each
    # once ran its own loop, kept here as the reference
    def old_olson_applies(G):
        if G.rank <= 2:
            return True
        order = G.order
        p = next(f for f in range(2, order + 1) if order % f == 0)
        while order % p == 0:
            order //= p
        return order == 1

    def old_is_prime(n):
        return n >= 2 and all(n % f for f in range(2, isqrt(n) + 1))

    assert [is_prime(n) for n in range(-2, 1025)] == [old_is_prime(n) for n in range(-2, 1025)]
    groups = [make_group(f) for f in abelian_groups(1024)]
    assert len(groups) == 2171
    assert [olson_applies(G) for G in groups] == [old_olson_applies(G) for G in groups]


THEOREM_GROUPS = [f for f in abelian_groups(32) if olson_applies(make_group(f))]
RANK_TWO_GROUPS = [f for f in abelian_groups(32) if len(f) == 2]


class TestTheoremRules:
    """ub.olson, ub.halter_koch and ub.eta_rank2 against the exhaustive
    search they replace, and forged steps of each."""

    def test_the_search_groups_are_the_ones_left_out(self):
        assert [f for f in abelian_groups(32) if f not in THEOREM_GROUPS] == [(2, 2, 6)]

    @pytest.mark.parametrize("factors", THEOREM_GROUPS, ids=group_ids(THEOREM_GROUPS))
    def test_olson_is_the_zero_sum_free_search(self, factors):
        G = make_group(factors)
        cert = davenport(G)
        if not G.is_elementary_2:
            assert [s.rule_id for s in cert.upper_chain] == ["ub.olson"]
        assert cert.value == 1 + invariants._short_free(G, G.order, None)[0]
        _assert_verifies_from_json(cert)

    @pytest.mark.parametrize(
        "factors", [f for f in RANK_TWO_GROUPS if f[0] * f[1] <= 18],
        ids=group_ids([f for f in RANK_TWO_GROUPS if f[0] * f[1] <= 18]),
    )
    def test_halter_koch_is_the_generic_row(self, monkeypatch, factors):
        # the generic rows close on every rank-2 group here without the rule
        real = invariants.dk_upper_bounds

        def without_theorem(*args):
            return [step for step in real(*args) if step.rule_id != "ub.halter_koch"]

        G = make_group(factors)
        invariants._generic_rows.cache_clear()
        monkeypatch.setattr(invariants, "dk_upper_bounds", without_theorem)
        try:
            rows = [invariants._generic_dk(G, k, None) for k in range(1, 5)]
        finally:
            invariants._generic_rows.cache_clear()
        m, n = factors
        for k, row in enumerate(rows, start=1):
            assert (row.lower, row.upper) == (m + k * n - 1,) * 2, k
            if k >= 2 and not G.is_elementary_2:
                cert = davenport_k(G, k)
                assert [s.rule_id for s in cert.upper_chain] == ["ub.halter_koch"]
                assert cert.value == row.value
                _assert_verifies_from_json(cert)

    @pytest.mark.parametrize("factors", RANK_TWO_GROUPS, ids=group_ids(RANK_TWO_GROUPS))
    def test_eta_rank2_is_the_short_search(self, factors):
        G = make_group(factors)
        cert = eta(G)
        if not G.is_elementary_2:
            assert [s.rule_id for s in cert.upper_chain] == ["ub.eta_rank2"]
        assert cert.value == 1 + invariants._short_free(G, G.exponent, None)[0]
        _assert_verifies_from_json(cert)

    def test_davenport_of_eight_eight(self):
        # the D search ran out of its 8,000,000 nodes here
        cert = davenport(make_group((8, 8)))
        assert cert.value == 15
        _assert_verifies_from_json(cert)

    def test_olson_on_a_group_it_does_not_cover(self):
        # D(C_2 + C_2 + C_6) is 8 by search, but no theorem step may say so
        step = BoundReport("ub.olson", 8, (("group", InputValue("2^2,6", COMPUTED)),))
        cert = replace(davenport(C226), upper_chain=(step,))
        assert _problems_in_memory_and_from_json(cert) == (
            "chain[0] ub.olson: re-evaluation failed "
            "(the rule needs a p-group or a group of rank at most 2)",
        )

    def test_halter_koch_on_rank_three(self):
        # this claims D* + exp = 10
        inputs = (("group", InputValue("3^3", COMPUTED)), ("k", InputValue(2)))
        cert = _forged_c33_dk2(BoundReport("ub.halter_koch", 10, inputs))
        assert _problems_in_memory_and_from_json(cert) == (
            "chain[0] ub.halter_koch: re-evaluation failed (the rule needs a group of rank 2)",
        )

    def test_eta_rank2_below_the_exponent_cap(self):
        # s_le(C_3^2, 4) is 6; this claims eta's 7 at cap 4
        inputs = (("cap", InputValue(4)), ("group", InputValue("3^2", COMPUTED)))
        cert = Certificate(
            constant="s_le", group=C32, k=4, value=7, interval=None, witness=None,
            witness_check=None,
            upper_chain=(BoundReport("ub.eta_rank2", 7, inputs),),
        )
        assert s_le(C32, 4).value == 6
        assert _problems_in_memory_and_from_json(cert) == (
            "chain[0] ub.eta_rank2: re-evaluation failed (cap must be the exponent 3)",
        )

    def test_theorem_step_of_a_subgroup_is_rejected(self):
        # D(C_3^3) is 7; this cites D(C_3^2)'s theorem step, next to its
        # atom with a third coordinate 0
        sub = davenport(C32)
        atom = Sequence.from_elements(C33, [e + (0,) for e in sub.witness.as_list()])
        cert = Certificate(
            constant="D", group=C33, k=None, value=5, interval=None, witness=atom,
            witness_check={"rule": "atom", "params": {}}, upper_chain=sub.upper_chain,
        )
        assert _problems_in_memory_and_from_json(cert) == (
            "chain[0] ub.olson: input group = '3^2' is not the group's '3^3'",
        )


C3_ETA = {3: (17, 17), 4: (39, 39), 5: (79, 89), 6: (161, 223)}


class TestEtaOfThrees:
    """eta(C_3^r), 3 <= r <= 6, from ub.eta_c3 and a doubled cap, against
    the search it replaces at r = 3 and forged witnesses and steps."""

    def test_rule_is_the_short_search(self):
        cert = eta(C33)
        assert [s.rule_id for s in cert.upper_chain] == ["ub.eta_c3"]
        size, seq, _nodes = _generic_search(C33, 3, None)
        assert size + 1 == cert.value == 17
        # the doubled 9-cap is the search's lex-least witness
        assert cert.witness == Sequence.from_elements(C33, seq)

    def test_eta_needs_no_search(self, monkeypatch):
        def refused(*args):
            raise AssertionError("searched %r" % (args[1:],))

        monkeypatch.setattr(invariants, "_generic_search", refused)
        invariants.s_le.cache_clear()
        for r, ends in C3_ETA.items():
            cert = eta(make_group((3,) * r))
            assert (cert.lower, cert.upper) == ends, r
            assert [s.rule_id for s in cert.upper_chain] == ["ub.eta_c3"]
            _assert_verifies_from_json(cert)

    @pytest.mark.parametrize("edit", ["line", "triple"])
    def test_forged_witness_is_refused(self, edit):
        # eta(C_3^5) is [79, 89]; one more term claims 80
        G = make_group((3,) * 5)
        cert = eta(G)
        elements = cert.witness.as_list()
        a, b = cert.witness.support[:2]
        elements.append(neg(G, add(G, a, b)) if edit == "line" else a)
        cert = replace(cert, interval=(80, 89), witness=Sequence.from_elements(G, elements))
        assert _problems_in_memory_and_from_json(cert) == (
            "witness: sequence contains a zero-sum of length at most 3",
        )

    def test_edited_step_value_is_refused(self):
        assert _verify_edited(eta(make_group((3,) * 4)), _step_field(0, "value", 40)) == (
            "chain[0] ub.eta_c3: re-evaluates to 39, not 40",
            "final chain value 40 differs from claimed upper 39",
        )


class TestProvenance:
    """An input is labelled search only when its certificate rests on a
    search step."""

    @pytest.mark.parametrize("build", [
        lambda: davenport_k(C25, 2),
        lambda: davenport_k(make_group((6,)), 3),
        lambda: davenport_k(make_group((2,) * 6), 8),
        lambda: s_le(C23, 4),
        lambda: s_le(make_group((4,)), 5),
    ], ids=["2^5-k2", "6-k3", "2^6-k8", "2^3-sle4", "4-sle5"])
    def test_no_search_label_without_a_search_step(self, build):
        chain = build().upper_chain
        assert not any(step.rule_id.startswith("search.") for step in chain)
        labels = {iv.provenance for step in chain for _, iv in step.inputs}
        assert COMPUTED in labels and SEARCH not in labels

    @pytest.mark.parametrize("group,d_label", [(C33, COMPUTED), (C226, SEARCH)],
                             ids=["3^3", "2^2,6"])
    def test_searched_thresholds_keep_their_label(self, group, d_label):
        # D_2(C_3^3) takes D from ub.olson and s_le from searches
        steps = [s for s in davenport_k(group, 2).upper_chain if s.rule_id == "ub.recursion"]
        assert steps
        for step in steps:
            labels = {name: iv.provenance for name, iv in step.inputs}
            assert (labels["D"], labels["s_values"]) == (d_label, SEARCH)
