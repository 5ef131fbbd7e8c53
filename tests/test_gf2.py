"""Tests for the bitmask engines and code witnesses on elementary 2-groups."""

import functools
import itertools
import random

import pytest

from zerosum import cache, gf2, invariants
from zerosum.factorizations import max_length
from zerosum.gf2 import (
    ORBIT_TABLE,
    RANK5_CORE_MAXL3,
    RANK5_CORE_MAXL4,
    RANK5_CORE_MAXL5,
    RANK5_SWEEP_PIECES,
    CircuitTable,
    SmallRankEngine,
    canonical_zero_sum_subsets,
    circuits,
    find_circuit_partition,
    full_set_minus,
    is_circuit,
    lex_least_coset_zero_sum,
    mask_rank,
    max_independent_size,
    max_set_without_short_zero_sums,
    SweepRecord,
    run_sweep,
    squarefree_max_length_at_most,
    top_coset_ids,
    universe_table,
    xor_all,
)
from zerosum.groups import element_at, make_group
from zerosum.invariants import davenport_k
from zerosum.sequences import Sequence


def oracle_circuits(r):
    """Brute-force list of circuits: minimal zero-sum sets of size >= 3."""
    ids = range(1, 1 << r)
    found = []
    for size in range(3, r + 2):
        for sub in itertools.combinations(ids, size):
            if xor_all(sub) != 0:
                continue
            if any(
                xor_all(p) == 0
                for j in range(2, size)
                for p in itertools.combinations(sub, j)
            ):
                continue
            found.append(sub)
    return sorted(found)


def gl2_maps(r):
    """All linear automorphisms of C_2^r as id permutation tuples."""
    n = 1 << r
    singles = list(range(1, n))
    maps = []
    for images in itertools.permutations(singles, r):
        if mask_rank(images) < r:
            continue
        table = [0] * n
        for v in range(1, n):
            img = 0
            for bit in range(r):
                if (v >> bit) & 1:
                    img ^= images[r - 1 - bit]
            table[v] = img
        maps.append(tuple(table))
    return maps


class TestCircuits:
    def test_rank2_single_triangle(self):
        assert circuits(2) == [(1, 2, 3)]

    def test_rank3_matches_oracle(self):
        assert sorted(circuits(3)) == oracle_circuits(3)

    def test_rank4_matches_oracle(self):
        assert sorted(circuits(4)) == oracle_circuits(4)

    def test_no_duplicates_rank5_length_capped(self):
        got = [c for c in circuits(5) if len(c) <= 4]
        assert len(got) == len(set(got))
        assert all(is_circuit(c) and len(c) <= 4 for c in got)

    def test_is_circuit_rejects_non_minimal(self):
        assert not is_circuit((1, 2, 3, 4, 5, 6, 7))
        assert not is_circuit((1, 2))
        assert not is_circuit((0, 1, 2, 3))
        assert is_circuit((1, 2, 4, 7))


def zero_sum_subsets(r):
    """Every nonempty zero-sum set of nonzero ids of C_2^r."""
    ids = range(1, 1 << r)
    return [
        sub
        for size in range(3, len(ids) + 1)
        for sub in itertools.combinations(ids, size)
        if xor_all(sub) == 0
    ]


def mask_of(ids):
    return sum(1 << (v - 1) for v in ids)


def table_masks(table):
    return sorted(
        m
        for v in range(1, 1 << table.r)
        for size in range(3, table.r + 2)
        for m in table.bucket(v, size)
    )


def eager_circuits(pool, cap):
    """Circuits of length <= cap inside the id set pool, in one DFS over
    ascending independent prefixes closed by their XOR: the up-front
    enumeration the lazily filled buckets must reproduce, order included."""
    pool = sorted(set(pool))
    members = sum(1 << v for v in pool)
    out = []

    def dfs(start, prefix, span, elems, xr):
        for i in range(start, len(pool)):
            x = pool[i]
            if (span >> x) & 1:
                continue
            y = xr ^ x
            if prefix and y > x and (members >> y) & 1:
                out.append(tuple(prefix) + (x, y))
            if len(prefix) + 2 < cap:
                shifted = [e ^ x for e in elems]
                dfs(i + 1, prefix + [x], span | sum(1 << e for e in shifted), elems + shifted, y)

    dfs(0, [], 1, [0], 0)
    return out


def eager_buckets(ids, r):
    """by_low of every circuit inside ids, bucketed in eager_circuits order."""
    by_low = [[[] for _ in range(r + 2)] for _ in range(1 << r)]
    for circ in eager_circuits(ids, r + 1):
        by_low[circ[0]][len(circ)].append(mask_of(circ))
    return by_low


def read_buckets(table):
    return [
        [[] if v == 0 or size < 3 else table.bucket(v, size) for size in range(table.r + 2)]
        for v in range(1 << table.r)
    ]


class EagerCutTable:
    """Every circuit of at most max_len ids, filled up front and searched
    with max_len as the longest part: the reference a lazily filled
    table with no cut must search alike."""

    def __init__(self, ids, r, max_len):
        self.by_low = [
            [bucket if size <= max_len else [] for size, bucket in enumerate(buckets)]
            for buckets in eager_buckets(ids, r)
        ]
        self.top = max_len
        self.mask = mask_of(ids)
        self.refuted = set()

    def partition(self, avail, pieces):
        by_low, top, fail = self.by_low, self.top, self.refuted

        def solve(avail, n, pieces):
            if pieces == 0:
                return None if avail else []
            if not (3 * pieces <= n <= top * pieces) or (avail, pieces) in fail:
                return None
            buckets = by_low[(avail & -avail).bit_length()]
            for size in range(3, min(top, n - 3 * (pieces - 1)) + 1):
                for circ in buckets[size]:
                    if circ & avail == circ:
                        sub = solve(avail ^ circ, n - size, pieces - 1)
                        if sub is not None:
                            sub.append(circ)
                            return sub
            fail.add((avail, pieces))
            return None

        parts = solve(avail, bin(avail).count("1"), pieces)
        return None if parts is None else parts[::-1]


class TestCircuitTable:
    def test_universe_table_matches_circuits(self):
        for r in (2, 3, 4, 5):
            expected = sorted(mask_of(c) for c in circuits(r))
            assert table_masks(universe_table(r)) == expected
        assert universe_table(5) is universe_table(5)

    @pytest.mark.parametrize("r", (3, 4))
    def test_buckets_match_oracle(self, r):
        table = CircuitTable(range(1, 1 << r), r)
        assert read_buckets(table) == eager_buckets(range(1, 1 << r), r)
        assert table_masks(table) == sorted(mask_of(c) for c in oracle_circuits(r))

    def test_rank5_buckets_match_eager_enumeration(self):
        by_low = read_buckets(CircuitTable(range(1, 32), 5))
        assert by_low == eager_buckets(range(1, 32), 5)
        counts = [sum(len(buckets[size]) for buckets in by_low) for size in range(3, 7)]
        assert counts == [155, 1085, 5208, 13888]

    def test_rank5_subset_buckets_match_eager_enumeration(self):
        rng = random.Random(21)
        for _ in range(40):
            ids = rng.sample(range(1, 32), rng.randrange(3, 31))
            assert read_buckets(CircuitTable(ids, 5)) == eager_buckets(ids, 5), ids

    def test_buckets_fill_on_first_read(self):
        table = CircuitTable(range(1, 16), 4)
        assert table.by_low[1][3] is None
        first = table.bucket(1, 3)
        assert table.by_low[1][3] is first
        assert table.bucket(1, 3) is first
        assert all(b is None for buckets in table.by_low[2:] for b in buckets[3:])

    def test_buckets_hold_lowest_id_and_size(self):
        table = universe_table(4)
        for low, buckets in enumerate(read_buckets(table)):
            for size, bucket in enumerate(buckets):
                for circ in bucket:
                    assert (circ & -circ).bit_length() == low
                    assert bin(circ).count("1") == size

    def test_restricted_table_keeps_circuits_inside(self):
        ids = (3, 5, 6, 9, 10, 12, 15)
        expected = sorted(
            mask_of(c) for c in circuits(4) if set(c) <= set(ids)
        )
        assert table_masks(CircuitTable(ids, 4)) == expected

    def test_ids_outside_the_group_rejected(self):
        for ids in ((0, 1, 2, 3), (1, 2, 3, 8), (-1, 1)):
            with pytest.raises(ValueError):
                CircuitTable(ids, 3)
            with pytest.raises(ValueError):
                find_circuit_partition(ids, 1, 3)


class TestSmallRankEngine:
    def test_rank3_size_caps(self):
        eng = SmallRankEngine(3)
        assert eng.f_caps == {0: 0, 1: 4, 2: 7}

    def test_rank4_size_caps(self):
        eng = SmallRankEngine(4)
        assert eng.f_caps == {0: 0, 1: 5, 2: 8, 3: 11, 4: 12, 5: 15}

    def test_rank3_dk_values(self):
        eng = SmallRankEngine(3)
        assert [eng.dk(k) for k in range(1, 6)] == [4, 7, 9, 11, 13]

    def test_rank4_dk_values(self):
        eng = SmallRankEngine(4)
        assert [eng.dk(k) for k in range(1, 6)] == [5, 8, 11, 13, 15]

    def test_rank1_has_only_the_empty_core(self):
        # C_2 has no zero-sum set of nonzero ids, so every D_k is 2k
        eng = SmallRankEngine(1)
        assert eng.f_caps == {0: 0}
        assert [eng.dk(k) for k in range(1, 6)] == [2, 4, 6, 8, 10]
        assert eng.eventual_offset() == (0, 1)

    def test_eventual_offsets(self):
        assert SmallRankEngine(3).eventual_offset() == (3, 2)
        assert SmallRankEngine(4).eventual_offset() == (5, 3)

    def test_maxl_full_sets(self):
        assert SmallRankEngine(3).maxl((1 << 7) - 1) == 2
        assert SmallRankEngine(4).maxl((1 << 15) - 1) == 5

    def test_maxl_rejects_non_zero_sum(self):
        with pytest.raises(ValueError):
            SmallRankEngine(3).maxl(0b11)  # ids {1, 2}, xor 3

    def test_maxl_matches_generic_engine(self):
        eng = SmallRankEngine(3)
        group = make_group((2, 2, 2))
        checked = 0
        for mask in range(1, 1 << 7):
            ids = eng.ids_of_mask(mask)
            if xor_all(ids) != 0:
                continue
            seq = Sequence.from_elements(
                group, [element_at(group, i) for i in ids]
            )
            assert eng.maxl(mask) == max_length(seq)
            checked += 1
        assert checked == 15

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_tables_match_all_masks_loop(self, r):
        # the oracle XORs every subset mask in increasing order; the engine
        # builds the zero-sum ones alone, so its caps and examples (the
        # first mask of each size record) must come out the same
        eng = SmallRankEngine(r)
        zero_sums = [m for m in range(1, 1 << eng.n_ids) if not xor_all(eng.ids_of_mask(m))]
        assert eng._zero_sum_masks() == zero_sums
        exact, example = {}, {}
        for mask in zero_sums:
            j, size = eng.maxl(mask), bin(mask).count("1")
            if size > exact.get(j, -1):
                exact[j], example[j] = size, mask
        caps, examples, best, best_mask = {0: 0}, {0: 0}, 0, 0
        for j in range(1, max(exact, default=0) + 1):
            if exact.get(j, 0) > best:
                best, best_mask = exact[j], example[j]
            caps[j], examples[j] = best, best_mask
        assert (eng.f_caps, eng.f_examples) == (caps, examples)

    def test_witness_reaches_dk(self):
        eng = SmallRankEngine(4)
        for k in range(1, 7):
            ids, pairs = eng.dk_witness(k)
            assert len(ids) + 2 * pairs == eng.dk(k)
            mask = 0
            for v in ids:
                mask |= 1 << (v - 1)
            assert eng.maxl(mask) + pairs <= k

    def test_rank_cap(self):
        with pytest.raises(ValueError):
            SmallRankEngine(5)


class TestCanonicalEnumeration:
    def test_tuples_are_zero_sum_and_ascending(self):
        for size in (3, 4, 5, 6):
            for tup in canonical_zero_sum_subsets(5, size):
                assert xor_all(tup) == 0
                assert list(tup) == sorted(set(tup))

    def test_covers_every_orbit_rank3(self):
        maps = gl2_maps(3)
        for size in (3, 4, 5, 6, 7):
            canon = set(canonical_zero_sum_subsets(3, size))
            for sub in itertools.combinations(range(1, 8), size):
                if xor_all(sub) != 0:
                    continue
                hit = any(
                    tuple(sorted(m[v] for v in sub)) in canon for m in maps
                )
                assert hit, sub

    def test_dedupes_orbits_substantially(self):
        # 4 covering instances, in 2 GL(5,2) orbits, stand in for all
        # 22,568 zero-sum 6-subsets
        assert len(canonical_zero_sum_subsets(5, 6)) == 4

    def test_max_independent_matches_rank(self):
        for r in (2, 3, 4):
            size, witness = max_independent_size(r)
            assert size == r
            assert mask_rank(witness) == r

    @pytest.mark.parametrize("r", range(1, 7))
    def test_max_independent_is_the_capped_search(self, r):
        # a zero-sum set of nonzero ids contains a circuit of <= r + 1 ids
        expected = max_independent_size(r)
        for cap in (r + 1, 1 << r):
            assert max_set_without_short_zero_sums(r, cap) == expected


# ---------------------------------------------------------------------------
# The orbit table, proven a transversal


@functools.lru_cache(maxsize=None)
def canonical_form(ids):
    """(least image, bases, d) of a tuple of nonzero ids spanning d dimensions.

    The least image is the least sorted image of the set over the ordered
    bases (b_1, ..., b_d) of its span, where b_i goes to id 2^(i - 1); a
    GL(r, 2) map moves bases to bases, so the least image is the same on
    a whole orbit. `bases` counts the ordered bases that reach it, which
    is |Stab| of the set within GL(span). The least image holds every
    2^(i - 1), so each b_i lies in the set. The ids below 2^j are the
    image of span(b_1, ..., b_j), so a partial basis whose new layer of
    ids is larger, or a prefix of another's, cannot reach the least
    image: the search keeps only the least layer at each level.
    """
    members = frozenset(ids)
    frontier = [{0: 0}]  # per kept partial basis: its span's vectors -> ids
    image = ()
    d = 0
    while len(image) < len(members):
        bit = 1 << d
        best, kept = None, []
        for coords in frontier:
            for b in members:
                if b in coords:
                    continue
                layer = sorted(i | bit for v, i in coords.items() if v ^ b in members)
                layer = tuple(layer) + (1 << 32,)  # a longer layer wins a tie
                if best is None or layer < best:
                    best, kept = layer, []
                if layer == best:
                    grown = dict(coords)
                    grown.update((v ^ b, i | bit) for v, i in coords.items())
                    kept.append(grown)
        image += best[:-1]
        frontier = kept
        d += 1
    return image, len(frontier), d


def gl_order(n):
    """|GL(n, 2)|."""
    return functools.reduce(lambda acc, i: acc * ((1 << n) - (1 << i)), range(n), 1)


def orbit_size(r, ids):
    """|GL(r, 2)| / |Stab(ids)|. A map fixing the set fixes its span V of d
    dimensions, acts on V as one of the `bases` stabilising maps, and
    sends a basis of a complement of V to any r - d vectors independent
    modulo V: 2^(d(r - d)) |GL(r - d, 2)| ways."""
    _, bases, d = canonical_form(ids)
    return gl_order(r) // (bases * (1 << d * (r - d)) * gl_order(r - d))


def zero_sum_count(r, c):
    """The number of zero-sum c-sets of nonzero ids of C_2^r, by a DP over
    (set size, XOR value)."""
    ways = [[0] * (1 << r) for _ in range(c + 1)]
    ways[0][0] = 1
    for v in range(1, 1 << r):
        for size in range(c, 0, -1):
            row, below = ways[size], ways[size - 1]
            for x in range(1 << r):
                row[x ^ v] += below[x]
    return ways[c][0]


def transversal_problems(r, c, sets):
    """What keeps `sets` from being one zero-sum c-set of C_2^r per GL(r, 2)
    orbit: a set that is no sorted zero-sum c-set of nonzero ids (check
    1), two sets with one canonical form (check 2), or orbit sizes that do
    not add up to the zero-sum c-sets (check 3). Distinct forms put the
    sets in distinct orbits, and the count says those orbits are all."""
    problems, forms, total = [], {}, 0
    for ids in sets:
        ids = tuple(ids)
        if (len(ids) != c or list(ids) != sorted(set(ids)) or xor_all(ids)
                or not all(0 < v < 1 << r for v in ids)):
            problems.append("%r is not a sorted zero-sum %d-set of nonzero ids" % (ids, c))
            continue
        form = canonical_form(ids)[0]
        if form in forms:
            problems.append("%r and %r share the canonical form %r" % (forms[form], ids, form))
        forms[form] = ids
        total += orbit_size(r, ids)
    expected = zero_sum_count(r, c)
    if total != expected:
        problems.append("orbit sizes add up to %d, not to the %d zero-sum sets" % (total, expected))
    return problems


def random_gl_map(r, rng):
    """A seeded linear automorphism of C_2^r, as an id -> id function."""
    while True:
        images = [rng.randrange(1, 1 << r) for _ in range(r)]
        if mask_rank(images) == r:
            break
    return lambda v: xor_all(images[bit] for bit in range(r) if (v >> bit) & 1)


class TestOrbitTable:
    """gf2.ORBIT_TABLE holds one zero-sum c-set per GL(r, 2) orbit."""

    @pytest.mark.parametrize("r,c", sorted(ORBIT_TABLE))
    def test_cell_is_a_transversal(self, r, c):
        assert transversal_problems(r, c, ORBIT_TABLE[r, c]) == []

    def test_cells_are_those_the_sweeps_ask_for(self):
        # r = 3, 4 at each c of test_sweep_failures_match_brute_force, and
        # r = 5 at each c of the rank-5 rows
        cells = {(r, c) for r in (3, 4) for c in range((1 << r) - 3)}
        assert set(ORBIT_TABLE) == cells | {(5, c) for c in RANK5_SWEEP_PIECES}

    @pytest.mark.parametrize("r,c", sorted(ORBIT_TABLE))
    def test_each_set_is_its_canonical_form(self, r, c):
        assert [canonical_form(ids)[0] for ids in ORBIT_TABLE[r, c]] == list(ORBIT_TABLE[r, c])

    def test_canonical_form_is_a_rank3_orbit_invariant(self):
        # against all 168 maps of GL(3, 2): one form per orbit, and the
        # bases that reach it are the maps that fix the set
        maps = gl2_maps(3)
        for ids in zero_sum_subsets(3):
            images = [tuple(sorted(m[v] for v in ids)) for m in maps]
            form, bases, d = canonical_form(ids)
            assert {canonical_form(image)[0] for image in images} == {form}
            assert images.count(ids) == bases * (1 << d * (3 - d)) * gl_order(3 - d)

    def test_dropping_any_set_is_caught(self):
        for (r, c), sets in ORBIT_TABLE.items():
            for i in range(len(sets)):
                problems = transversal_problems(r, c, sets[:i] + sets[i + 1:])
                assert len(problems) == 1 and problems[0].startswith("orbit sizes add up to")

    def test_an_image_of_another_set_is_caught(self):
        rng = random.Random(34)
        for (r, c), sets in ORBIT_TABLE.items():
            for i, j in itertools.permutations(range(len(sets)), 2):
                g = random_gl_map(r, rng)
                image = tuple(sorted(g(v) for v in sets[j]))
                mutant = sets[:i] + (image,) + sets[i + 1:]
                problems = transversal_problems(r, c, mutant)
                assert any("share the canonical form" in p for p in problems), (r, c, i, j)

    def test_a_set_of_the_wrong_shape_is_caught(self):
        for bad in ((1, 2, 3, 4, 5, 6, 7, 8), (1, 2, 3, 4, 8, 12, 16, 16), (2, 1, 3, 4, 5, 6, 8, 15)):
            problems = transversal_problems(5, 8, (bad,) + ORBIT_TABLE[5, 8][1:])
            assert problems[0] == "%r is not a sorted zero-sum 8-set of nonzero ids" % (bad,)

    @pytest.mark.parametrize("r,c", [(r, c) for r, c in sorted(ORBIT_TABLE) if r <= 4 or c <= 8])
    def test_covering_canonicalises_onto_the_table(self, r, c):
        forms = {canonical_form(ids)[0] for ids in canonical_zero_sum_subsets(r, c)}
        assert forms == set(ORBIT_TABLE[r, c])

    def test_run_sweep_reads_only_the_table(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the covering was enumerated")

        monkeypatch.setattr(gf2, "canonical_zero_sum_subsets", refuse)
        assert run_sweep(5, 8, RANK5_SWEEP_PIECES[8]).instances == 4
        with pytest.raises(ValueError, match="no orbit table for zero-sum 14-sets of C_2\\^5"):
            run_sweep(5, 14, 5)
        with pytest.raises(ValueError, match="no orbit table for zero-sum 3-sets of C_2\\^6"):
            run_sweep(6, 3, 2)


class TestShortZeroSumFreeSearch:
    def test_rank3_thresholds(self):
        assert max_set_without_short_zero_sums(3, 2)[0] == 7
        assert max_set_without_short_zero_sums(3, 3)[0] == 4

    def test_rank4_thresholds(self):
        assert max_set_without_short_zero_sums(4, 3)[0] == 8
        assert max_set_without_short_zero_sums(4, 4)[0] == 5

    def test_witness_has_no_short_zero_sum(self):
        size, witness = max_set_without_short_zero_sums(4, 3)
        assert len(witness) == size
        for j in (1, 2, 3):
            for sub in itertools.combinations(witness, j):
                assert xor_all(sub) != 0


def shortest_zero_sum(ids, cap):
    """Brute force: the least j <= cap with a j-subset of XOR 0, else None."""
    for j in range(1, cap + 1):
        if any(xor_all(sub) == 0 for sub in itertools.combinations(ids, j)):
            return j
    return None


class TestCodeIds:
    @pytest.mark.parametrize("r", range(1, 7))
    def test_sets_have_no_short_zero_sum(self, r):
        # brute force up to length 4; the s_le certificates that cite these
        # sets check every cap through their short-free witness rule
        for cap in range(2, r + 2):
            for ids in gf2.code_ids(r, cap):
                assert len(set(ids)) == len(ids) and 0 < min(ids) and max(ids) < 1 << r
                assert shortest_zero_sum(ids, min(cap, 4)) is None, (cap, ids)

    def test_codes_by_cap(self):
        assert [len(ids) for ids in gf2.code_ids(5, 2)] == [31, 16, 6]
        assert [len(ids) for ids in gf2.code_ids(5, 3)] == [16, 6]
        assert [len(ids) for ids in gf2.code_ids(12, 6)] == [23, 24, 13]
        assert [len(ids) for ids in gf2.code_ids(12, 7)] == [24, 13]
        assert gf2.code_ids(12, 8) == [gf2.basis_plus_sum(12)]
        assert gf2.code_ids(5, 6) == []

    def test_golay_distances(self):
        # the Golay code has distance 7 and its extension 8
        golay = gf2.GOLAY_IDS
        extended = gf2.code_ids(12, 7)[0]
        assert len(set(golay)) == 23 and max(golay) < 1 << 11
        assert shortest_zero_sum(golay, 7) == 7
        assert shortest_zero_sum(extended, 8) == 8

    def test_basis_plus_sum_is_one_circuit(self):
        for r in range(2, 9):
            ids = gf2.basis_plus_sum(r)
            assert is_circuit(ids) and len(ids) == r + 1


class TestCircuitPartitions:
    def test_full_rank3_splits_in_two(self):
        parts = find_circuit_partition(range(1, 8), 2, 3)
        assert parts is not None
        assert sorted(len(p) for p in parts) == [3, 4]
        assert set().union(*parts) == set(range(1, 8))
        assert all(is_circuit(p) for p in parts)

    def test_full_rank3_cannot_split_in_three(self):
        assert find_circuit_partition(range(1, 8), 3, 3) is None

    def test_full_rank4_splits_in_five(self):
        parts = find_circuit_partition(range(1, 16), 5, 4)
        assert parts is not None
        assert all(len(p) == 3 for p in parts)

    def test_full_rank5_splits_in_ten(self):
        parts = find_circuit_partition(range(1, 32), 10, 5)
        assert parts is not None
        assert all(is_circuit(p) for p in parts)

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_full_set_splits_into_a_third_of_its_ids(self, r):
        # the row caps rely on the full set splitting into (2^r - 1) // 3
        # circuits; one more would need more ids than the set has
        full, most = range(1, 1 << r), ((1 << r) - 1) // 3
        parts = find_circuit_partition(full, most, r)
        assert parts is not None and len(parts) == most
        assert all(is_circuit(p) for p in parts)
        assert set().union(*parts) == set(full)
        assert find_circuit_partition(full, most + 1, r) is None

    def test_refutation_guard_rejects_bad_input(self):
        with pytest.raises(ValueError):
            squarefree_max_length_at_most((1, 2, 3, 4), 2, 3)
        with pytest.raises(ValueError):
            squarefree_max_length_at_most((0, 1, 2, 3), 2, 3)

    def test_partition_depth_matches_engine_maxl(self):
        # every nonempty zero-sum subset of C_2^3 and C_2^4 splits into
        # exactly maxl circuits and never into maxl + 1
        checked = 0
        for r in (3, 4):
            eng = SmallRankEngine(r)
            for mask in range(1, 1 << eng.n_ids):
                ids = eng.ids_of_mask(mask)
                if xor_all(ids) != 0:
                    continue
                maxl = eng.maxl(mask)
                parts = find_circuit_partition(ids, maxl, r)
                assert parts is not None and len(parts) == maxl
                assert all(is_circuit(p) for p in parts)
                assert set().union(*parts) == set(ids)
                assert find_circuit_partition(ids, maxl + 1, r) is None
                checked += 1
        assert checked == 2062

    def test_refutation_full_rank3(self):
        assert squarefree_max_length_at_most(range(1, 8), 2, 3)
        assert not squarefree_max_length_at_most(range(1, 8), 1, 3)


class TestRank5NamedSets:
    def test_core_shapes(self):
        for core, size in (
            (RANK5_CORE_MAXL3, 13),
            (RANK5_CORE_MAXL4, 16),
            (RANK5_CORE_MAXL5, 19),
        ):
            assert len(core) == size
            assert len(set(core)) == size
            assert 0 not in core
            assert xor_all(core) == 0

    def test_core_max_lengths_exact(self):
        for core, bound in (
            (RANK5_CORE_MAXL3, 3),
            (RANK5_CORE_MAXL4, 4),
            (RANK5_CORE_MAXL5, 5),
        ):
            assert squarefree_max_length_at_most(core, bound, 5)
            assert find_circuit_partition(core, bound, 5) is not None

    def test_coset_subset_lex_least(self):
        got = lex_least_coset_zero_sum(5, 10)
        assert got == (16, 17, 18, 19, 20, 21, 24, 26, 28, 31)
        assert set(got) <= set(top_coset_ids(5))

    def test_coset_subset_odd_size_impossible(self):
        with pytest.raises(ValueError):
            lex_least_coset_zero_sum(5, 9)

    def test_full_set_minus(self):
        got = full_set_minus(5, (1, 2, 3))
        assert len(got) == 28
        assert xor_all(got) == 0


class TestSweeps:
    def test_rank4_size12_needs_four_pieces(self):
        rec = run_sweep(4, 3, 4)
        assert rec.failures == 0
        assert rec.instances == 1
        assert (1 << rec.r) - 1 - rec.complement_size == 12

    def test_rank5_smallest_sweep(self):
        rec = run_sweep(5, 3, RANK5_SWEEP_PIECES[3])
        assert rec.failures == 0
        assert rec.pieces == 9

    def test_digest_is_stable(self):
        a = run_sweep(4, 3, 4)
        b = run_sweep(4, 3, 4)
        assert a.digest == b.digest

    def test_failed_sweep_reports_failures(self):
        # size-12 sets of rank 4 never split into 5 circuits (needs 15 ids)
        rec = run_sweep(4, 3, 5)
        assert rec.failures == rec.instances == 1

    @pytest.mark.parametrize("r", (3, 4))
    def test_sweep_failures_match_brute_force(self, r, monkeypatch):
        # a sweep fails exactly when some zero-sum set of its size has no
        # partition into `pieces` circuits, each asked with a fresh memo.
        # Each sweep starts without a kept table, so it fills its own
        # buckets.
        monkeypatch.setattr(gf2, "_UNIVERSE", {})
        n_ids = (1 << r) - 1
        by_size = {}
        for ids in zero_sum_subsets(r):
            by_size.setdefault(len(ids), []).append(ids)
        for c in range(n_ids - 2):
            size = n_ids - c
            for pieces in range(-(-size // (r + 1)), size // 3 + 1):
                some_fail = any(
                    find_circuit_partition(ids, pieces, r) is None
                    for ids in by_size.get(size, ())
                )
                gf2._UNIVERSE.clear()
                assert (run_sweep(r, c, pieces).failures > 0) == some_fail, (c, pieces)

    @pytest.mark.parametrize("r", (4, 5))
    def test_shared_memo_gives_the_fresh_memo_answers(self, r):
        # one memo across many sets and part counts, some of which split
        # and some not. In C_2^4 (every zero-sum set) a part count within
        # [n / (r + 1), n / 3] always splits, so only the seeded sample of
        # C_2^5 sets makes the memo refute residuals.
        if r == 4:
            sets = zero_sum_subsets(4)
        else:
            rng = random.Random(16)
            sets = []
            while len(sets) < 1000:
                ids = rng.sample(range(1, 32), rng.randrange(8, 28))
                if xor_all(ids) and xor_all(ids) not in ids:
                    sets.append(ids + [xor_all(ids)])
        shared, fresh = (CircuitTable(range(1, 1 << r), r) for _ in range(2))
        outcomes = set()
        for ids in sets:
            for pieces in range(1, len(ids) // 3 + 1):
                got = shared.partition(mask_of(ids), pieces)
                fresh.refuted.clear()
                assert got == fresh.partition(mask_of(ids), pieces), (ids, pieces)
                outcomes.add(got is None)
        assert outcomes == {True, False}
        assert bool(shared.refuted) == (r == 5)

    def test_kept_refutations_leave_records_unchanged(self, monkeypatch):
        # the universe table keeps every residual a sweep refutes, so a
        # sweep's work depends on the sweeps before it; its record must
        # not, in either order, against each sweep on a fresh table
        sweeps = range(3, 12)
        fresh = {}
        for c in sweeps:
            monkeypatch.setattr(gf2, "_UNIVERSE", {})
            fresh[c] = run_sweep(5, c, RANK5_SWEEP_PIECES[c])
        for order in (sweeps, reversed(sweeps)):
            monkeypatch.setattr(gf2, "_UNIVERSE", {})
            for c in order:
                rec = run_sweep(5, c, RANK5_SWEEP_PIECES[c])
                got = (rec.instances, rec.failures, rec.digest)
                assert got == (fresh[c].instances, fresh[c].failures, fresh[c].digest), c
        kept = gf2._UNIVERSE[5].refuted
        assert kept
        # a sample of them still has no partition when asked afresh
        table = CircuitTable(range(1, 32), 5)
        for avail, pieces in random.Random(25).sample(sorted(kept), 200):
            table.refuted.clear()
            assert table.partition(avail, pieces) is None, (avail, pieces)

    @pytest.mark.parametrize("c", range(3, 9))
    def test_lazy_table_searches_as_eager_cut_table(self, c):
        # a sweep's parts hold at most L = 31 - c - 3(pieces - 1) ids; the
        # lazy table with no cut must search as an eager one cut to L,
        # partition for partition and refuted residual for refuted residual
        pieces = RANK5_SWEEP_PIECES[c]
        tables = [
            EagerCutTable(range(1, 32), 5, 31 - c - 3 * (pieces - 1)),
            CircuitTable(range(1, 32), 5),
        ]
        runs = []
        for table in tables:
            parts = [
                table.partition(table.mask ^ mask_of(inst), pieces)
                for inst in canonical_zero_sum_subsets(5, c)
            ]
            runs.append((parts, table.refuted))
        assert runs[0] == runs[1]
        assert len(runs[0][1]) == len(runs[1][1])
        assert None not in runs[1][0]

    def test_cold_line_fills_few_buckets(self, monkeypatch):
        # the sweeps of rows 8, 9 and 10 scan a few hundred circuits of
        # 3 to 5 ids; the full table holds 20,336 of 3 to 6
        monkeypatch.setattr(gf2, "_UNIVERSE", {})
        invariants._engine.cache_clear()
        davenport_k.cache_clear()
        G = make_group((2,) * 5)
        got = {k: davenport_k(G, k).digest() for k in (1, 2, 3, 4, 8, 9, 10)}
        assert got == {k: RANK5_CERT_DIGESTS[k] for k in got}
        by_low = gf2._UNIVERSE[5].by_low
        assert sum(len(b) for buckets in by_low for b in buckets if b is not None) < 1000
        assert all(buckets[6] is None for buckets in by_low)

    def test_rank5_sweep_counts_pinned(self):
        # one instance per GL(5, 2) orbit; the covering held 1, 1, 1, 4, 21,
        # 103, 497, 2,082 and 7,208
        expected = {3: 1, 4: 1, 5: 1, 6: 2, 7: 3, 8: 4, 9: 5, 10: 7, 11: 9}
        for c, instances in expected.items():
            rec = run_sweep(5, c, RANK5_SWEEP_PIECES[c])
            assert (rec.instances, rec.failures) == (instances, 0), c


# digests of the C_2^5 certificates for k = 1..10
RANK5_CERT_DIGESTS = {
    1: "5b3980ba081585a5",
    2: "b0d955efbecb2021",
    3: "f929bd1e1aeb10d2",
    4: "1fc9e5792b2b4a30",
    5: "e8a5d32ba9e87990",
    6: "cc1c9e05b05f6be8",
    7: "a9e27fb771219c7d",
    8: "2d96c706037a5953",
    9: "68473e688fe3116f",
    10: "85ac662a163eb81c",
}

# complement sizes of the sweeps in each C_2^5 row's chain
DERIVED_SWEEPS = {
    1: (), 2: (), 3: (), 4: (),
    5: (11,),
    6: (8, 9, 11),
    7: (5, 6, 7, 8, 9, 11),
    8: (3, 4, 5, 6, 8),
    9: (3, 4, 5, 6, 8),
    10: (3, 5), 11: (3, 5), 12: (3, 5), 13: (3, 5),
}


def rank5_bound(k, sweeps):
    """The ub.squarefree_caps bound on row k with these sweeps counted as run."""
    pipeline = invariants._engine(5)
    m_bounds = {j: pipeline.m_bound(j).value for j in range(1, min(k, 9) + 1)}
    swept = {c: RANK5_SWEEP_PIECES[c] for c in sweeps}
    caps = invariants._e2_caps(5, k, m_bounds, swept)
    return max(cap + 2 * (k - j) for j, cap in caps.items())


class TestRank5Certificates:
    def test_certificate_digests_pinned(self):
        G = make_group((2,) * 5)
        got = {k: davenport_k(G, k).digest() for k in RANK5_CERT_DIGESTS}
        assert got == RANK5_CERT_DIGESTS

    @pytest.mark.parametrize("k", sorted(DERIVED_SWEEPS))
    def test_each_row_runs_its_derived_sweeps(self, k):
        cert = davenport_k(make_group((2,) * 5), k)
        sweeps = tuple(
            step.plain_inputs()["complement_size"]
            for step in cert.upper_chain
            if step.rule_id == "search.sweep"
        )
        assert sweeps == DERIVED_SWEEPS[k]

    @pytest.mark.parametrize("k", [k for k in sorted(DERIVED_SWEEPS) if DERIVED_SWEEPS[k]])
    def test_derived_sweeps_are_the_least_set_reaching_the_bound(self, k):
        upper = davenport_k(make_group((2,) * 5), k).upper
        sweeps = DERIVED_SWEEPS[k]
        assert rank5_bound(k, sweeps) == upper
        assert rank5_bound(k, RANK5_SWEEP_PIECES) == upper
        for c in sweeps:
            assert rank5_bound(k, set(sweeps) - {c}) > upper, c

    def test_stored_sweep_records_are_not_read(self, monkeypatch, tmp_path):
        # a forged c = 3 record: its digest is an unkeyed hash of its own
        # fields, so no check on load could tell it from a real one
        monkeypatch.setenv(cache.ENV_VAR, str(tmp_path))
        invariants._engine.cache_clear()
        davenport_k.cache_clear()
        cache.store_sweep(
            SweepRecord(r=5, complement_size=3, pieces=9, instances=7, failures=0)
        )
        cert = davenport_k(make_group((2,) * 5), 10)
        assert cert.digest() == RANK5_CERT_DIGESTS[10]
