"""Tests for certified invariant computation."""

import inspect
import json
import sys
from dataclasses import replace
from itertools import combinations, combinations_with_replacement, permutations

import pytest

from zerosum import invariants
from zerosum.arith import INFINITE
from zerosum.bounds import BoundReport, InputValue, elb_lower, remark_ub, s_le_from_extension
from zerosum.factorizations import max_disjoint_zero_sums, max_length
from zerosum.groups import add, enumerate_elements, make_group, profile
from zerosum.invariants import (
    Certificate,
    CertificateError,
    ChainStep,
    SearchError,
    _automorphism_generators,
    _dstar_witness,
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
        cert = davenport(make_group((2,) * r))
        assert cert.value == value
        assert cert.exhaustive
        assert_verifies(cert)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_cyclic(self, n):
        cert = davenport(make_group((n,)))
        assert cert.value == n
        assert_verifies(cert)

    def test_rank_two_of_threes(self):
        cert = davenport(C32)
        assert cert.value == 5
        assert cert.exhaustive
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
        assert cert.exhaustive
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
        assert cert.exhaustive
        assert_verifies(cert)

    @pytest.mark.parametrize("r,cap,bracket", [(6, 5, (7, 13)), (7, 5, (8, 17)), (7, 7, (8, 12))])
    def test_odd_cap_past_rank_five_is_bracketed(self, r, cap, bracket):
        # s_le is nonincreasing in the cap, so the counting bound for cap - 1 applies
        cert = s_le(make_group((2,) * r), cap)
        assert cert.interval == bracket
        assert [(s.rule_id, s.input_value("m")) for s in cert.upper_chain] == [
            ("ub.e2g_s2m", (cap - 1) // 2)
        ]
        assert_verifies(Certificate.from_json(cert.to_json()))

    def test_witness_is_extremal(self):
        # the stored witness has length value - 1 and no short zero-sum
        cert = s_le(C24, 3)
        assert cert.witness.length == cert.value - 1


class TestElementaryTwoSearchDigests:
    """Certificates of the C_2^r search, pinned bit for bit."""

    D_DIGESTS = {
        1: "c40eb8fb131e6342", 2: "660d09f6a7660ca5", 3: "4ca15b7e149aecb7",
        4: "148c9441c91ab35d", 5: "6349811e1cf0ea62", 6: "af4e175ac04204f0",
        7: "3e147bde02b38cd8", 8: "32d7e94de7a5f0dc", 9: "c896cb66bbc2aed3",
        10: "2f21f7c99b5f831e", 11: "ddfc4a02a76bd564", 12: "cad1f407218a11b4",
    }
    # every cap exponent <= cap < D that the search serves at rank <= 5
    SLE_DIGESTS = {
        (2, 2): "5cce7129fc675dab",
        (3, 2): "4473727973963ac8", (3, 3): "4bb2988fedcb51fa",
        (4, 2): "2db24b97eb1b2132", (4, 3): "d91c17f929c021aa",
        (4, 4): "2f039f15477cb44d",
        (5, 2): "90b6b733b5b57caa", (5, 3): "173f037a9fbfc5dd",
        (5, 4): "00c05a6d8e7364d2", (5, 5): "b43edc2c909b38d7",
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

    def test_sle_steps_are_searches(self):
        for r, cap in self.SLE_DIGESTS:
            cert = s_le(make_group((2,) * r), cap)
            assert [s.rule_id for s in cert.upper_chain] == ["search.sle"]
            assert cert.exhaustive
            assert_verifies(cert)


class TestDkSmallRank:
    @pytest.mark.parametrize("k,value", [(1, 4), (2, 7), (3, 9), (4, 11), (5, 13)])
    def test_rank_three_table(self, k, value):
        cert = davenport_k(C23, k)
        assert cert.value == value
        assert cert.exhaustive
        assert_verifies(cert)

    @pytest.mark.parametrize("k,value", [(1, 5), (2, 8), (3, 11), (4, 13), (5, 15)])
    def test_rank_four_table(self, k, value):
        cert = davenport_k(C24, k)
        assert cert.value == value
        assert cert.exhaustive
        assert_verifies(cert)

    def test_witness_packs_to_claimed_value(self):
        cert = davenport_k(C24, 3)
        assert cert.witness.length == 11
        assert max_disjoint_zero_sums(cert.witness) <= 3
        assert max_length(cert.witness) <= 3


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


# digests of the generic D_k rows k = 1..8, computed when each call rebuilt
# rows 2..k for itself
GENERIC_DK_DIGESTS = {
    (3, 3): (
        "2d6f0011e43fb2b4", "13e3e4bbedf6f5f4", "f6d7d2b0eff01f59", "f7adb1da388e4bac",
        "219e2dbaee4c2e8a", "a14cff1c41532910", "674b306944055019", "fd4b21585ba6447a",
    ),
    (2, 4): (
        "a3d1143ac0872383", "ea682cd1a152ec53", "dc2f0f159eb45e4b", "9f4887e2282832d7",
        "60ea5fc7d902a683", "7de2907a5f437108", "1620c6ce2a7f53e9", "1d8eba61d226940e",
    ),
    (2, 6): (
        "1e523ab2233a59f3", "926afe23ff86f0ce", "c64a7cdda91e93b7", "e517f3bf169f92b7",
        "7c11b75d34fe5a59", "fce81b53a1f06cc3", "6df16273aebf33aa", "4414548ab8bb8223",
    ),
    (4, 4): (
        "b53fa7d92ef61b16", "9e1c18507c713309", "6da8be7a6e8ab540", "3470c1fb7c917643",
        "65c6ef7060fd54fc", "fed3b27ec56ba721", "57f268b5784af610", "96e8b323ef31a4cb",
    ),
    (3, 6): (
        "4d8581da5cb9ed6b", "a135152dbae9ffb1", "11ec6b604b4234d0", "18f5a039e947d516",
        "acf591e59c0f6792", "13299f50f9409026", "56df666560253249", "93f51493ba9f84e4",
    ),
    (2, 2, 4): (
        "97703fffb5e2fe28", "19c312b982346c77", "928b2b3ecb6a5f39", "8e6397856992abae",
        "87136e85017273b9", "4c4da5b6f4a9e857", "901532e9bb8fa3ca", "c2c7a8b8e1a738c8",
    ),
    (2, 8): (
        "a8ae0ce3813b7275", "a023377bed9cbc0c", "c3d23919e57d4668", "2a6fbdf2dac3d89d",
        "5018406d2c424154", "ee9c2f7b01057f99", "b375b1195e99d099", "d7929ed82c1d758e",
    ),
    (2, 2, 2, 2, 2, 2): (
        "5ae171110cb8621c", "79e13b116b9ea93e", "04f23ad5480dc809", "9a462fd808d6792e",
        "596a274274d40732", "d1b1541f40297928", "ee9e56bc9b79226e", "382068409ed785b4",
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
        # no D_2(C_3^2) witness verifies within 20 nodes, and a row with
        # no witness would fail verify_certificate
        with pytest.raises(SearchError, match=r"D_2\(3\^2\).* budget 20$"):
            davenport_k(C32, 2, 20)

    def test_cold_rows_need_no_recursion_per_row(self):
        # rows 2..120 are built in a loop; the depth needed is the
        # verifier's factorization search, about one frame per block
        invariants.davenport_k.cache_clear()
        invariants._generic_rows.cache_clear()
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 200)
        try:
            cert = davenport_k(C32, 120)
        finally:
            sys.setrecursionlimit(limit)
        assert cert.value == 3 * 120 + 2


# digests of D and s_le(ell) certificates, exp <= ell < D and ell <= exp + 2,
# computed when zero-sum-free and short-zero-sum searches were separate
GENERIC_CERT_DIGESTS = {
    (3, 3): {"D": "ffcfc3cd4fb958b0", 3: "2e1df3978a81ded3", 4: "50675cc279b2ff9d"},
    (2, 4): {"D": "ba57541139d420fc", 4: "d1baa20a50ed706a"},
    (2, 6): {"D": "c16c6876dcb40509", 6: "02983ee68bd020a3"},
    (4, 4): {"D": "7eb47ecab6c07761", 4: "7b5eb502b24ddcef", 5: "860cf9a839a54cfa",
             6: "a1a84884a3bf5396"},
    (3, 6): {"D": "48603e174ac6b781", 6: "cd40ce2b88397076", 7: "3e23c9615526568f"},
    (2, 2, 4): {"D": "3bc74eedd8bb942b", 4: "64bcbd1a51f9e36e", 5: "e5d5eaaac8792a09"},
    (2, 8): {"D": "d4fbb53d546ab93e", 8: "dbf6fe11190b231b"},
    (3, 3, 3): {"D": "8903b2a217027fe2", 3: "f74acdf10307998a", 4: "ce8cbf96ca403430",
                5: "1a9da101de1305ce"},
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


def pin_ids(pins):
    """Test ids naming a pin's group and cap, not its pinned counts."""
    return ["x".join(map(str, f)) + "-cap%d" % cap for f, cap, _, _ in pins]


def swaps_only(monkeypatch):
    """Prune by the swaps of equal invariant factors alone, to depth 4."""
    monkeypatch.setattr(invariants, "_automorphism_generators", invariants._factor_swaps)
    monkeypatch.setattr(invariants, "ORBIT_PRUNE_DEPTH", 4)


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

    def test_dk_rank_three_of_threes_digest_pinned(self):
        assert davenport_k(C33, 2).digest() == "d8023cca7ca3af01"

    def test_eta_rank_three_of_threes_digest_pinned(self):
        assert eta(C33).digest() == "868ad0f8e5a50874"

    def test_dk_six_six_digest_pinned(self):
        cert = davenport_k(make_group((6, 6)), 2)
        assert (cert.value, cert.digest()) == (17, "5639f64f0cf56e2c")

    @pytest.mark.parametrize("factors", sorted({f for f, _, _, _ in SEARCH_PINS}))
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
        # enough for D (1,110 nodes), not for s_le(3) (4,080)
        with pytest.raises(SearchError) as excinfo:
            s_le(C33, 3, 2_000)
        assert str(excinfo.value) == (
            "short-zero-sum search (cap 3) on 3^3 exhausted its budget after 2000 nodes"
        )

    def test_exhausted_search_is_not_rerun(self, monkeypatch):
        # the second call raises the remembered SearchError at once
        calls = []
        search = invariants._generic_search

        def counted(*args):
            calls.append(args)
            return search(*args)

        monkeypatch.setattr(invariants, "_generic_search", counted)
        message = "short-zero-sum search (cap 3) on 3^3 exhausted its budget after 2001 nodes"
        for _ in range(2):
            with pytest.raises(SearchError) as excinfo:
                s_le(C33, 3, 2_001)
            assert str(excinfo.value) == message
        # D once (1,110 nodes) and s_le(3) once
        assert [args[1:] for args in calls] == [(27, 2_001), (3, 2_001)]

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

    def test_cap_below_exponent_rejected(self):
        # exp(G) copies of an element of order exp(G) are a zero-sum of
        # length exp(G), so the multiplicity bound needs cap >= exp(G)
        with pytest.raises(ValueError, match="cap 2 is below the exponent 3 of 3\\^2"):
            _generic_search(C32, 2, None)
        with pytest.raises(ValueError, match="cap 3 is below the exponent 4 of 2,4"):
            _generic_search(make_group((2, 4)), 3, None)

    def test_zero_budget_searches_nothing(self):
        with pytest.raises(SearchError, match="zero-sum-free search .* after 0 nodes"):
            davenport(C32, 0)

    def test_order_guard(self):
        with pytest.raises(SearchError, match="exceeds the exhaustive-search guard"):
            davenport(make_group((3,) * 6))


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

    def test_external_table_certifies_tail(self):
        table = {k: 3 + 2 * k for k in range(1, 6)}
        rep = stabilization(C23, 5, external_upper=table)
        assert rep.certified

    def test_wrong_external_table_does_not_certify(self):
        rep = stabilization(C23, 5, external_upper={k: 99 for k in range(1, 6)})
        assert not rep.certified

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
        data = davenport_k(C25, 2).to_json()
        for step in data["upper_chain"]:
            if step["rule"].startswith("search."):
                step["value"] = step["value"] - 1
        result = verify_certificate(Certificate.from_json(data))
        assert not result.ok

    def test_value_and_interval_are_exclusive(self):
        with pytest.raises(ValueError):
            Certificate(constant="D", group=C22, k=1, value=3, interval=(3, 4),
                        witness=None, witness_check=None, upper_chain=(),
                        exhaustive=False)

    def test_interval_must_be_ordered(self):
        with pytest.raises(ValueError):
            Certificate(constant="D", group=C22, k=1, value=None, interval=(5, 4),
                        witness=None, witness_check=None, upper_chain=(),
                        exhaustive=False)

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


class TestRuleStepsRecheckPreconditions:
    def forged_c33_dk2(self):
        # D_2(C_3^3) is 11; this claims 10 from one ub.cpr step whose
        # inputs break r(p-1)+1 < 2 p^m, next to a sound length-10 witness
        step = BoundReport(
            "ub.cpr",
            "upper",
            10,
            tuple((name, InputValue(v)) for name, v in (("p", 3), ("r", 3), ("k", 2), ("m", 1))),
        )
        return Certificate(
            constant="D_k", group=C33, k=2, value=10, interval=None,
            witness=_dstar_witness(C33, 2),
            witness_check={"rule": "max-disjoint", "params": {}},
            upper_chain=(step,), exhaustive=False,
        )

    def test_forged_cpr_certificate_is_rejected(self):
        cert = self.forged_c33_dk2()
        result = verify_certificate(cert)
        assert result.problems == (
            "chain[0] ub.cpr: re-evaluation failed (need r(p-1)+1 < 2 p^m)",
        )
        revived = Certificate.from_json(json.loads(json.dumps(cert.to_json())))
        assert verify_certificate(revived).problems == result.problems

    def test_tampered_s2m_root_is_rejected(self):
        result = _tamper(davenport_k(C25, 2), "ub.e2g_s2m", {"root": 10})
        assert not result.ok
        assert any("ub.e2g_s2m: re-evaluation failed" in p for p in result.problems)

    def test_tampered_elb_delta_is_rejected(self):
        cert = _with_step(davenport_k(C24, 2), elb_lower(C25, 3, 1, 2))
        # delta 0 -> 1 with d_star 6 -> 5 keeps the recorded value 9
        result = _tamper(cert, "lb.elb", {"delta": 1, "d_star": 5})
        assert not result.ok
        assert any("lb.elb: re-evaluation failed" in p for p in result.problems)

    def test_tampered_extension_m_is_rejected(self):
        cert = _with_step(davenport_k(C24, 2), s_le_from_extension(2, 6, 5))
        result = _tamper(cert, "ub.extension", {"m": 3})
        assert not result.ok
        assert any("ub.extension: re-evaluation failed" in p for p in result.problems)

    def test_infinite_threshold_in_step_is_reported(self):
        result = _tamper(davenport_k(C25, 2), "ub.step", {"s_value": "inf"})
        assert any("ub.step: re-evaluation failed" in p for p in result.problems)

    def test_infinite_threshold_in_remark_is_reported(self):
        cert = _with_step(davenport_k(C24, 2), remark_ub(C24, 3, 2, 16, 5))
        result = _tamper(cert, "ub.remark", {"s_value": "inf"})
        assert any("ub.remark: re-evaluation failed" in p for p in result.problems)

    def test_wrongly_typed_input_is_reported(self):
        result = _tamper(davenport_k(C32, 2), "ub.cpr", {"k": "2"})
        assert any("ub.cpr: re-evaluation failed" in p for p in result.problems)

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

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_mask_maxl_witness_fails_one_block_lower(self, r):
        G = make_group((2,) * r)
        certs = {k: davenport_k(G, k) for k in range(2, 9)}
        # the check refutes partitions itself, without the engine that
        # produced the witnesses
        invariants._engine.cache_clear()
        for k, cert in certs.items():
            assert cert.witness_check["rule"] == "mask-maxl"
            check = cert.witness_check
            assert not invariants._check_witness(G, cert.witness, k, check, None)
            assert invariants._check_witness(G, cert.witness, k - 1, check, None)
        assert invariants._engine.cache_info().currsize == 0

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


class TestForgedUpperSide:
    @pytest.mark.parametrize(
        "factors,value", [((2,) * 5, 13), ((3, 3, 3), 14)], ids=["2^5", "3^3"]
    )
    def test_exhaustive_flag_backs_nothing(self, factors, value):
        # a bracketed row claims its lower end, with no chain, as exhaustive
        def forge(data):
            del data["interval"]
            data.update(value=value, upper_chain=[], exhaustive=True)

        problems = _verify_edited(davenport_k(make_group(factors), 3), forge)
        assert problems == ("no chain backing the upper side",)


class TestTamperedFields:
    """Each edit of one field of a real certificate draws its own problem."""

    @pytest.mark.parametrize("build,edit,problem", [
        (lambda: davenport(C22), _witness_rule("zeros"),
         "witness: zeros rule requires every element to be the identity"),
        (lambda: davenport_k(make_group(()), 3), _setting(k=2),
         "witness: 3 identity elements exceed 2 blocks"),
        (lambda: davenport_k(make_group((6,)), 3),
         _setting(witness=[{"coords": [0], "mult": 18}]),
         "witness: cyclic-power rule needs a single nonzero element"),
        (lambda: davenport_k(make_group((6,)), 3), _setting(k=2),
         "witness: 3 repetitions of a length-6 block exceed 2"),
        (lambda: davenport_k(C25, 2), _witness_rule("coset-quarter", functional=0),
         "witness: coset-quarter rule needs a nonzero functional"),
        (lambda: davenport_k(C25, 2), _witness_rule("coset-quarter", functional=1),
         "witness: core element 16 lies outside the selected coset"),
        (lambda: davenport_k(C25, 4), _setting(k=3),
         "witness: quarter-bound 4 exceeds remaining 3 blocks"),
        (lambda: davenport_k(C25, 8), _setting(k=7),
         "witness: third-bound 8 exceeds remaining 7 blocks"),
        (lambda: davenport_k(C25, 7), _setting(k=1),
         "witness: pairs and zeros alone exceed 1 blocks"),
        (lambda: davenport_k(C25, 2), _witness_rule("mask-maxl"),
         "witness: mask-maxl rule only covers rank <= 4"),
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
        (lambda: eta(C32), _setting(k=2), "eta certificate must use k = exponent"),
    ], ids=[
        "zeros-nonzero", "zeros-count", "cyclic-support", "cyclic-blocks",
        "coset-functional", "coset-outside", "coset-quarter", "squarefree-third",
        "pairs-and-zeros", "mask-maxl-rank", "non-2-group-rule", "no-rule",
        "infinite-threshold", "threshold-length", "no-witness", "eta-k",
    ])
    def test_edit_is_reported(self, build, edit, problem):
        assert _verify_edited(build(), edit) == (problem,)

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
