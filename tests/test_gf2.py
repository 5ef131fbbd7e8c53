"""Tests for the bitmask engines and code witnesses on elementary 2-groups."""

import itertools
import random

import pytest

from zerosum import cache, gf2, invariants
from zerosum.factorizations import max_length
from zerosum.gf2 import (
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
        got = circuits(5, max_len=4)
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

    def partition(self, avail, pieces, fail):
        by_low, top = self.by_low, self.top

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
        assert rec.set_size == 12

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
        table = universe_table(r)
        fail = set()
        outcomes = set()
        for ids in sets:
            for pieces in range(1, len(ids) // 3 + 1):
                got = table.partition(mask_of(ids), pieces, fail)
                assert got == table.partition(mask_of(ids), pieces, set()), (ids, pieces)
                outcomes.add(got is None)
        assert outcomes == {True, False}
        assert bool(fail) == (r == 5)

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
            assert table.partition(avail, pieces, set()) is None, (avail, pieces)

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
            fail = set()
            parts = [
                table.partition(table.mask ^ mask_of(inst), pieces, fail)
                for inst in canonical_zero_sum_subsets(5, c)
            ]
            runs.append((parts, fail))
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
        expected = {3: 1, 4: 1, 5: 1, 6: 4, 7: 21, 8: 103, 9: 497, 10: 2082, 11: 7208}
        for c, instances in expected.items():
            rec = run_sweep(5, c, RANK5_SWEEP_PIECES[c])
            assert (rec.instances, rec.failures) == (instances, 0), c


# digests of the C_2^5 certificates for k = 1..10
RANK5_CERT_DIGESTS = {
    1: "5b3980ba081585a5",
    2: "ea17afdd24bb0cba",
    3: "cc0ee01207055375",
    4: "0f5b3b88aff92a99",
    5: "33479c59d212fc89",
    6: "73e0a6ba3cabea8c",
    7: "0b7a0ec0ff355d38",
    8: "ca6e37433e9d15df",
    9: "62d3fbcc81d7c615",
    10: "5da24d8f8800077a",
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
            SweepRecord(r=5, complement_size=3, pieces=9, instances=7, failures=0, elapsed_ms=0)
        )
        cert = davenport_k(make_group((2,) * 5), 10)
        assert cert.digest() == RANK5_CERT_DIGESTS[10]
