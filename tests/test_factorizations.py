"""Tests for atom enumeration, disjoint zero-sum search, and length sets."""

import contextlib
import functools
import itertools
import random
from collections import OrderedDict

import pytest

from zerosum import factorizations as fz
from zerosum.groups import (
    add,
    element_at,
    element_index,
    enumerate_elements,
    format_group,
    make_group,
    neg,
    parse_group,
    slot_rows,
    zero,
)
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
from zerosum.sequences import (
    Sequence,
    SequenceError,
    format_sequence,
    is_zero_sum_free_brute,
    parse_sequence,
)

C2_2 = make_group([2, 2])
C2_3 = make_group([2, 2, 2])
C2_4 = make_group([2] * 4)
C3 = make_group([3])
C3_2 = make_group([3, 3])
C4 = make_group([4])
C6 = make_group([6])
C2_C4 = make_group([2, 4])
C2_C6 = make_group([2, 6])
C3_C6 = make_group([3, 6])
C2_2_C4 = make_group([2, 2, 4])
C4_2 = make_group([4, 4])
C5 = make_group([5])
C8 = make_group([8])
TRIVIAL = make_group([])
# the group shapes of the benchmark's factorization queries
QUERY_GROUPS = (C2_4, C3_2, C6, C2_C4, C4_2, C2_3, C5, C8, C3_C6, C2_C6)


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


def oracle_kernel_nodes(S, pruned, per_copy=True):
    """Nodes of the atom DFS, counted from their definition.

    The DFS grows prefixes: multisets of slots taken in nondecreasing
    order. It tries each slot as a first element, and each slot from a
    grown prefix's last one on that S has left; a prefix grows when it is
    zero-sum free and, if pruned, when the negative of its sum is the sum
    of a nonempty sub-multiset of the slots from its last one on: of the
    copies S has left of that last slot, and of S's full counts of the
    slots after it. With per_copy False the last slot too counts at S's
    full count, as an earlier form of the reach test did.
    """
    G = S.group
    items = S.items
    k = len(items)
    z = zero(G)

    @functools.lru_cache(maxsize=None)
    def reach(j, left):
        out = set()
        ranges = [range(left + 1)] + [range(m + 1) for _, m in items[j + 1:]]
        for counts in itertools.product(*ranges):
            total = z
            for (e, _), c in zip(items[j:], counts):
                for _ in range(c):
                    total = add(G, total, e)
            if any(counts):
                out.add(total)
        return out

    def grows(used, j):
        P = Sequence(G, tuple((e, c) for (e, _), c in zip(items, used) if c))
        left = items[j][1] - used[j] if per_copy else items[j][1]
        return is_zero_sum_free_brute(P) and (not pruned or neg(G, P.sum()) in reach(j, left))

    def tried(used, last):
        nodes = 0
        for j in range(last, k):
            if used[j] < items[j][1]:
                nodes += 1
                used[j] += 1
                if grows(used, j):
                    nodes += tried(used, j)
                used[j] -= 1
        return nodes

    nodes = 0
    for i in range(k):
        used = [0] * k
        used[i] = 1
        nodes += 1 + (tried(used, i) if grows(used, i) else 0)
    return nodes


def kernel_nodes(S, max_len=None):
    budget = fz._Budget(None, "kernel")
    fz._Kernel(S, max_len, budget)
    return budget.spent


def memo_asks():
    """Two ways to run a length query: on a length-mask memo cleared
    first (cold), or twice, returning the second answer, which the memo
    gives (warm).

    Cold runs test the kernel, warm runs the memo; either way the memo
    never holds more entries than its limit.
    """

    def ask(cold, query, *args, **kwargs):
        if cold:
            fz._MASKS.clear()
        else:
            with contextlib.suppress(ValueError):
                query(*args, **kwargs)
        try:
            return query(*args, **kwargs)
        finally:
            assert len(fz._MASKS) <= fz.MASKS_LIMIT

    return [functools.partial(ask, cold) for cold in (True, False)]


class TestAgainstOracles:
    GROUPS = (C2_3, C4, C6, C3_2, C2_C4, C2_C6, C3_C6, C2_2_C4)
    # Fixed inputs: the trivial group, the empty sequence, and multiplicities
    # of 8 or more, which need a wider packed count field than 7 does.
    EDGE_CASES = (
        Sequence.from_elements(TRIVIAL, [()] * 8),
        Sequence.empty(C2_C6),
        parse_sequence(C6, "3^8; 1; 5"),
        parse_sequence(C2_C6, "1,3^9; 0,2; 0,4"),
        parse_sequence(C3_C6, "0,2^8; 1,1; 2,1"),
        parse_sequence(C2_2_C4, "0,0,2^8; 1,0,1; 1,0,3; 0,1,2"),
    )

    def test_lengths_and_packings_match_oracle(self):
        for ask in memo_asks():
            rng = random.Random(6011)
            zero_sum = 0
            inputs = [random_sequence(G, rng, 7) for G in self.GROUPS for _ in range(40)]
            for S in inputs + list(self.EDGE_CASES):
                G = S.group
                assert ask(max_disjoint_zero_sums, S) == oracle_max_disjoint(S), S
                lengths = oracle_length_set(S)
                if S.sum() != zero(G):
                    assert not lengths
                    continue
                zero_sum += 1
                assert ask(length_set, S).lengths == tuple(sorted(lengths)), S
                assert ask(max_length, S) == max(lengths), S
                assert ask(max_disjoint_zero_sums, S) == max(lengths), S
            assert zero_sum >= 20

    def test_zero_sum_closures_match_oracle(self):
        # random sequences are seldom zero-sum; close each one with the
        # negative of its sum to test the length sets, capped too, on more
        # inputs
        for ask in memo_asks():
            rng = random.Random(6012)
            inputs = [random_sequence(G, rng, 6) for G in self.GROUPS for _ in range(25)]
            for S in inputs + list(self.EDGE_CASES):
                G = S.group
                B = S.times(Sequence.from_elements(G, [neg(G, S.sum())]))
                lengths = tuple(sorted(oracle_length_set(B)))
                assert ask(length_set, B).lengths == lengths, B
                assert ask(max_length, B) == lengths[-1], B
                assert ask(max_disjoint_zero_sums, B) == lengths[-1], B
                for cap in (2, 3):
                    capped = tuple(sorted(oracle_length_set(B, cap)))
                    if capped:
                        assert ask(length_set, B, atom_cap=cap).lengths == capped, B
                    else:
                        with pytest.raises(ValueError):
                            ask(length_set, B, atom_cap=cap)

    def test_memo_evicts_within_its_limit(self, monkeypatch):
        # a memo far smaller than the inputs keeps evicting; every answer,
        # evicted or kept, still matches the oracle
        monkeypatch.setattr(fz, "MASKS_LIMIT", 4)
        monkeypatch.setattr(fz, "_MASKS", OrderedDict())
        rng = random.Random(6013)
        inputs = [random_sequence(G, rng, 6) for G in self.GROUPS for _ in range(6)]
        for S in inputs + inputs[::-1]:
            assert max_disjoint_zero_sums(S) == oracle_max_disjoint(S), S
            assert len(fz._MASKS) <= 4
        assert len(fz._MASKS) == 4

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


class TestTable:
    """Each element's slot row, kept on its group, against groups.add and
    groups.neg."""

    @staticmethod
    def moved(u, moves):
        for low, high, up, down in moves:
            u = (u & low) << up | (u & high) >> down
        return u

    @pytest.mark.parametrize("G", QUERY_GROUPS + (make_group([2] * 6),), ids=repr)
    def test_rows_match_group_arithmetic(self, G):
        elements = list(enumerate_elements(G))
        table = slot_rows(G)
        for e in elements:
            bit, minus, moves, back = table[e]
            assert bit == 1 << element_index(G, e)
            assert minus == 1 << element_index(G, neg(G, e))
            for x in elements:
                u = 1 << element_index(G, x)
                assert self.moved(u, moves) == 1 << element_index(G, add(G, x, e))
                assert self.moved(u, back) == 1 << element_index(G, add(G, x, neg(G, e)))
        assert slot_rows(G) is table
        assert slot_rows(parse_group(format_group(G))) is table  # the shared group's


class TestPrunedKernel:
    """The reach test of the atom DFS drops nodes but no atom."""

    # Per group, a zero-sum input and one that is not (the discard branch),
    # each with prefixes the test drops. In C_6, "1; 2^3; 4^2" has the
    # prefix 4^2 of sum 2, whose negative 4 no sub-multiset of the last
    # slot (4, 4^2 = 2) reaches, so the slot 4 is never tried on it.
    # The squarefree "2; 3; 4" (SQUAREFREE) has the prefix 2, 3 of sum 5:
    # the negative 1 is 3 + 4 only with the copy of 3 the prefix holds, so
    # the row for the copies left drops it, where S's full counts did not.
    SQUAREFREE = parse_sequence(C6, "2; 3; 4")
    PRUNED = (SQUAREFREE,) + tuple(
        parse_sequence(G, text)
        for G, texts in (
            (C2_4, ("0,0,0,1; 0,1,1,0; 0,1,1,1; 1,0,0,0; 1,0,1,1; 1,1,0,0; 1,1,1,1",
                    "0,0,0,1; 0,0,1,1; 0,1,0,0; 1,0,1,0; 1,1,0,1; 1,1,1,0")),
            (C3_2, ("0,1; 0,2; 1,0; 1,1^2; 1,2; 2,2", "0,2^2; 1,0; 1,1^2; 2,2")),
            (C6, ("1^2; 2^2; 4^3", "1; 2^3; 4^2")),
            (C2_C4, ("0,1; 0,2; 0,3; 1,0; 1,1; 1,2; 1,3", "0,1; 0,2; 0,3; 1,0; 1,2^2")),
            (C4_2, ("0,1; 0,2; 1,0; 1,2; 1,3; 2,3; 3,1", "0,1; 1,0; 1,1; 2,0; 2,1; 3,0")),
            (C2_3, ("0,0,1; 0,1,0; 0,1,1; 1,0,1^2; 1,1,0^2",
                    "0,0,1; 0,1,0; 0,1,1; 1,0,1^2; 1,1,0")),
            (C5, ("1^3; 2^2; 3", "1^2; 2^2; 3")),
            (C8, ("1^2; 2; 4^2; 5; 7", "1^2; 2; 4; 5; 7")),
            (C3_C6, ("0,4; 0,5; 1,3; 2,0; 2,1; 2,2; 2,3", "0,5; 1,1; 1,2; 2,2; 2,3; 2,4")),
            (C2_C6, ("0,2; 0,3; 0,5; 1,1; 1,4^2; 1,5", "0,1; 0,3; 0,4; 1,1; 1,2; 1,4")),
        )
        for text in texts
    )

    @staticmethod
    def pool(seed, per_group, max_len):
        """Seeded inputs over the query groups, each also closed to a zero-sum."""
        rng = random.Random(seed)
        out = []
        for G in QUERY_GROUPS:
            for _ in range(per_group):
                S = random_sequence(G, rng, max_len)
                out += [S, S.times(Sequence.from_elements(G, [neg(G, S.sum())]))]
        return out

    def test_prune_fires_on_these_inputs(self):
        for S in self.PRUNED:
            nodes = kernel_nodes(S)
            assert nodes == oracle_kernel_nodes(S, pruned=True), S
            assert nodes < oracle_kernel_nodes(S, pruned=False), S
        assert {S.sum() == zero(S.group) for S in self.PRUNED} == {True, False}

    def test_per_copy_rows_drop_what_full_counts_keep(self):
        S = self.SQUAREFREE
        unpruned = oracle_kernel_nodes(S, pruned=False)
        assert oracle_kernel_nodes(S, pruned=True, per_copy=False) == unpruned
        assert kernel_nodes(S) == oracle_kernel_nodes(S, pruned=True) < unpruned

    def test_nodes_match_their_definition(self):
        for S in self.pool(2811, 4, 6):
            nodes = kernel_nodes(S)
            assert nodes == oracle_kernel_nodes(S, pruned=True), S
            assert nodes <= oracle_kernel_nodes(S, pruned=False), S

    def test_atoms_match_oracle_in_lexicographic_order(self):
        for S in self.pool(2812, 4, 7) + list(self.PRUNED):
            atoms = oracle_atoms(S)
            for cap in (None, 2, 3):
                found = [a.items for a in minimal_divisors(S, max_len=cap)]
                assert set(found) == {
                    a for a in atoms if cap is None or sum(m for _, m in a) <= cap
                }, (S, cap)
                # sorted slots, as tuples, strictly increase along the list
                slots = [
                    tuple(S.support.index(e) for e, m in a for _ in range(m)) for a in found
                ]
                assert slots == sorted(set(slots)), (S, cap)

    def test_lengths_match_oracle(self):
        for ask in memo_asks():
            for S in self.pool(2813, 4, 7) + list(self.PRUNED):
                assert ask(max_disjoint_zero_sums, S) == oracle_max_disjoint(S), S
                lengths = tuple(sorted(oracle_length_set(S)))
                if S.sum() != zero(S.group):
                    for query in (max_length, length_set):
                        with pytest.raises(SequenceError):
                            ask(query, S)
                    continue
                assert ask(length_set, S).lengths == lengths, S
                assert ask(max_length, S) == lengths[-1], S

    def test_total_nodes_pinned(self):
        # Losing the reach test raises the kernel's total: the unpruned DFS
        # spends 15,656 nodes on the same pool, and the reach test with the
        # last slot at S's full count, not at the copies left, 11,180. The
        # search after it spends what it did before the test, and more
        # without its memo.
        kernel = search = 0
        for S in self.pool(2814, 20, 10):
            fz._MASKS.clear()
            max_disjoint_zero_sums(S)
            (_, nodes), = fz._MASKS.values()
            kernel += kernel_nodes(S)
            search += nodes - kernel_nodes(S)
        assert (kernel, search) == (9_290, 2_720)


class TestKernelBudgets:
    """A budget counts the kernel's nodes, then the search's, from a cold memo."""

    SEQUENCES = (
        parse_sequence(C3_C6, "0,4; 0,5; 1,3; 2,0; 2,1; 2,2; 2,3"),
        parse_sequence(C4_2, "0,1; 0,2; 1,0; 1,2; 1,3; 2,3; 3,1"),
        parse_sequence(C2_C6, "0,1; 0,3; 0,4; 1,1; 1,2; 1,4"),
        parse_sequence(C6, "1; 2^3; 4^2"),
    )

    @staticmethod
    def run_cold(query, S, budget):
        fz._MASKS.clear()
        return query(S, budget=budget)

    @pytest.mark.parametrize("S", SEQUENCES, ids=format_sequence)
    def test_every_limit_below_the_count_raises(self, S):
        queries = [max_disjoint_zero_sums]
        if S.sum() == zero(S.group):
            queries += [max_length, length_set]
        discard = S.sum() != zero(S.group)
        for query in queries:
            answer = self.run_cold(query, S, None)
            _, nodes = fz._MASKS.get((S, None, discard))
            assert nodes > kernel_nodes(S)  # some limits stop the kernel, some the search
            for limit in range(nodes):
                with pytest.raises(BudgetExhausted) as spent:
                    self.run_cold(query, S, limit)
                assert spent.value.nodes == limit
                assert str(spent.value) == "%s: budget exhausted after %d nodes" % (
                    query.__name__, limit)
            assert self.run_cold(query, S, nodes) == answer

    @pytest.mark.parametrize("S", SEQUENCES, ids=format_sequence)
    def test_atom_listing_needs_the_kernel_count(self, S):
        nodes = kernel_nodes(S)
        for limit in range(nodes):
            with pytest.raises(BudgetExhausted) as spent:
                list(minimal_divisors(S, budget=limit))
            assert spent.value.nodes == limit
            assert str(spent.value) == "minimal_divisors: budget exhausted after %d nodes" % limit
        assert list(minimal_divisors(S, budget=nodes)) == list(minimal_divisors(S))


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

    # the trivial group, the empty sequence, sequences holding 0, and
    # multiplicities >= exp(G)
    EDGE_CASES = (
        Sequence.from_elements(TRIVIAL, [()]),
        Sequence.from_elements(TRIVIAL, [()] * 2),
        Sequence.empty(C3_C6),
        parse_sequence(C6, "1^6"),
        parse_sequence(C6, "0; 1^6"),
        parse_sequence(C6, "1^7; 5"),
        parse_sequence(C2_C4, "0,1^4"),
        parse_sequence(C2_C4, "0,1^5; 0,3"),
        parse_sequence(C3_C6, "0,1^5; 1,1; 2,0"),
        parse_sequence(C3_C6, "0,0; 0,3^2"),
        parse_sequence(C2_2_C4, "0,0,1^3; 1,0,1; 1,0,0"),
        parse_sequence(C2_2_C4, "0,1,1^4"),
    )

    def test_matches_oracle_on_generic_group(self):
        rng = random.Random(917)
        inputs = [random_sequence(C6, rng, 6) for _ in range(150)]
        # random sequences are seldom zero-sum, so the other groups add
        # each one closed by the negative of its sum
        for G in (C2_C4, C3_C6, C2_2_C4, TRIVIAL):
            for _ in range(60):
                S = random_sequence(G, rng, 6)
                inputs += [S, S.times(Sequence.from_elements(G, [neg(G, S.sum())]))]
        for S in inputs + list(self.EDGE_CASES):
            assert is_minimal_zero_sum(S) == oracle_minimal(S), S


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
        inputs = [random_sequence(C4, rng, 6) for _ in range(30)]
        for S in inputs + list(TestAgainstOracles.EDGE_CASES):
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

    def test_budget_exhaustion_raises(self):
        with pytest.raises(BudgetExhausted) as spent:
            list(minimal_divisors(full_squarefree(C2_4), budget=7))
        assert spent.value.nodes == 7
        assert str(spent.value) == "minimal_divisors: budget exhausted after 7 nodes"

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
        with pytest.raises(BudgetExhausted) as spent:
            max_disjoint_zero_sums(full_squarefree(C2_4), budget=5)
        assert spent.value.nodes == 5
        assert str(spent.value) == "max_disjoint_zero_sums: budget exhausted after 5 nodes"

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
        with pytest.raises(BudgetExhausted) as spent:
            length_set(full_squarefree(C2_4), budget=5)
        assert spent.value.nodes == 5
        assert str(spent.value) == "length_set: budget exhausted after 5 nodes"


class TestLengthMemoBudgets:
    """A budget acts on a memo hit as on the search the hit replaces."""

    QUERIES = (max_length, max_disjoint_zero_sums, length_set)

    @pytest.fixture
    def warm(self):
        fz._MASKS.clear()
        S = full_squarefree(C2_4)
        assert max_length(S) == 5
        return S

    @staticmethod
    def outcome(query, S, budget):
        try:
            return query(S, budget=budget)
        except BudgetExhausted as err:
            return err.nodes, str(err)

    @pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.__name__)
    def test_small_budget_still_raises(self, warm, query):
        with pytest.raises(BudgetExhausted) as spent:
            query(warm, budget=5)
        assert spent.value.nodes == 5
        assert str(spent.value) == "%s: budget exhausted after 5 nodes" % query.__name__

    @pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.__name__)
    def test_budget_outcomes_match_a_cold_search(self, warm, query):
        _, nodes = fz._MASKS.get((warm, None, False))
        budgets = (None, -1, 0, 5, nodes - 1, nodes, nodes + 1)
        hits = [self.outcome(query, warm, b) for b in budgets]
        assert query(warm, budget=nodes) == query(warm)  # the recorded count suffices
        colds = []
        for b in budgets:
            fz._MASKS.clear()
            colds.append(self.outcome(query, warm, b))
        assert hits == colds
        message = "%s: budget exhausted after %d nodes" % (query.__name__, nodes - 1)
        assert hits[4] == (nodes - 1, message)

    def test_exhausted_search_stores_nothing(self, warm):
        # 5 runs out while the atoms are listed, nodes - 1 in the search
        _, nodes = fz._MASKS.get((warm, None, False))
        for budget in (5, nodes - 1):
            fz._MASKS.clear()
            with pytest.raises(BudgetExhausted):
                max_length(warm, budget=budget)
            assert not fz._MASKS


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
        inputs = [random_sequence(C3_2, rng, 6) for _ in range(40)]
        for S in inputs + list(TestAgainstOracles.EDGE_CASES):
            if S.sum() != zero(S.group) or S.length == 0:
                continue
            facs = list(enumerate_factorizations(S))
            assert len(facs) == oracle_factorization_count(S)
            checked += 1
        assert checked >= 5

    def test_budget_exhaustion_raises(self):
        with pytest.raises(BudgetExhausted) as spent:
            list(enumerate_factorizations(full_squarefree(C2_4), budget=9))
        assert spent.value.nodes == 9
        assert str(spent.value) == "enumerate_factorizations: budget exhausted after 9 nodes"

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
