"""Factorizations of zero-sum sequences into minimal zero-sum parts.

Every query builds one kernel, ``_Kernel``: a plain DFS lists each atom
(minimal zero-sum divisor) of S once. Slot j stands for S's j-th support
element, and a multiset of slots is an int with one bit field per slot,
topped by a guard bit, so that "atom A fits in counts C" is one
subtraction and one mask test. While the DFS grows a zero-sum-free
prefix, the sums of its nonempty subsequences are an int bitset over
``enumerate_elements`` positions, translated by a new element through
the masked rotates of ``groups.translation``; ``groups.slot_rows`` keeps,
on each group, each element's bit, its negative's bit and both rotates.
Element tuples appear only at the API boundary.

The DFS prunes on reachable sums: a prefix grows only if the copies it
has left of its last slot, with the slots after it at S's full counts,
can still sum to the negative of its sum. Each slot keeps a row of
reach sets, one per number of copies left (see ``_Kernel``), and the
sums bitset is translated only for a prefix that passes. The test drops
no atom and keeps the atom order. A node is one slot tried on a prefix,
and the pruned DFS tries a subset of the slots the unpruned one did, so
a budget that let a query finish without the test lets it finish with
it.

There is one memoised search, ``_lengths``, keyed on the packed counts.
It pins the least slot left and branches over the atoms through the pin:
the atoms of a sub-multiset of S are those atoms of S that fit in it, so
each node scans the pin's bucket of the one atom list. Pinning breaks
the symmetry between orderings of the same decomposition, so every
decomposition is visited once. It returns the reachable part counts as
a bitmask: ``length_set`` lists its bits, ``max_length`` and
``max_disjoint_zero_sums`` take its highest.

The masks are kept in one bounded FIFO memo for the process, ``_MASKS``
(an insertion-ordered dict of at most ``MASKS_LIMIT`` entries), keyed on
(S, atom cap, discard), with the nodes the full search spent;
nodes are counted with or without a budget. A hit whose budget is below
that count raises the ``BudgetExhausted`` the search would have raised,
so budgets act as without the memo. A search that runs out stores
nothing, and no kernel is kept.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from .groups import (
    Element,
    Group,
    add,  # not called here; perfbench/tracer.py counts group additions through it
    slot_rows,
)
from .sequences import (
    Sequence,
    SequenceError,
    format_sequence,
    is_zero_sum_free,
    parse_sequence,
)

MEMO_LIMIT = 1 << 18


class BudgetExhausted(RuntimeError):
    """A search hit its node budget before finishing.

    Carries no partial answer on purpose: exhaustion is an outcome
    distinct from any mathematical result. nodes is the number spent,
    which is the budget, and search names the entry point that ran out.
    """

    def __init__(self, nodes: int, search: str = "search"):
        super().__init__("%s: budget exhausted after %d nodes" % (search, nodes))
        self.nodes = nodes
        self.search = search


class _Budget:
    """Node budget of one query: a node is one step of the atom DFS (one
    slot tried on a prefix) or one search node (one memo miss, or one
    partial factorization when enumerating).

    A search counts its nodes in a local variable, checks it against
    stop (-1 when there is no limit, which no count reaches) and writes
    it back to spent when it ends or raises, so spent also counts the
    nodes of an unlimited search: the length-mask memo records what a
    full search costs.
    """

    __slots__ = ("stop", "spent", "search")

    def __init__(self, limit: Optional[int], search: str):
        # a negative budget runs out at the first node, as a zero one does
        self.stop = -1 if limit is None else max(limit, 0)
        self.spent = 0
        self.search = search

    def exhausted(self, spent: int) -> BudgetExhausted:
        self.spent = spent
        return BudgetExhausted(spent, self.search)


# ---------------------------------------------------------------------------
# Minimality


def is_minimal_zero_sum(S: Sequence) -> bool:
    """Nonempty, zero-sum, and no proper nonempty zero-sum subsequence."""
    if S.length == 0 or any(S.sum()):
        return False
    # a proper zero-sum part and its complement are both zero-sum, and one
    # of them misses any given element of S: so S is minimal iff S without
    # one copy of its first element is zero-sum free
    (e, m), rest = S.items[0], S.items[1:]
    return is_zero_sum_free(Sequence(S.group, ((e, m - 1),) + rest if m > 1 else rest))


# ---------------------------------------------------------------------------
# The packed-count kernel


class _Kernel:
    """The atoms of S, enumerated once, on counts packed into guarded fields.

    Slot j is S's j-th support element. A multiset of slots is an int
    holding the count of slot j in bits [j*width, (j+1)*width); the top bit
    of each field is a guard that no count reaches. With the guards set,
    (C | guards) - A borrows out of no field, and it keeps every guard iff
    A fits in C: then clearing the guards leaves C - A.

    atoms lists every atom of S (of length <= max_len) once, packed, in
    lexicographic order of its sorted slots; atoms[first[i]:first[i + 1]]
    are the ones whose least slot is i. An atom of a sub-multiset of S is
    an atom of S, so the atoms of a sub-multiset C whose least slot is i
    are the ones in that range that fit in C.

    The DFS grows zero-sum-free prefixes in slot order. Before it starts,
    reach[j][c] is set, through the rotates by -e, to the negatives of the
    sums of the nonempty sub-multisets of slots j..k-1 with at most c
    copies of slot j and S's full counts of the slots after it. A prefix
    with sum s whose last slot is j, of which S has c copies left, grows
    only if s is in reach[j][c]: an atom through it adds such a
    sub-multiset summing to -s, so the test drops no atom. Only the bit
    of s is translated before the test; the prefix's sums bitset is
    translated once the test passes. A node is one slot tried on a
    prefix (or as a first element); no slot is tried on a prefix the test
    drops.
    """

    __slots__ = ("support", "width", "guards", "counts", "atoms", "first")

    def __init__(self, S: Sequence, max_len: Optional[int], budget: _Budget):
        support = self.support = S.support
        left = [m for _, m in S.items]
        k = len(left)
        w = self.width = max(left, default=0).bit_length() + 1
        unit = [1 << j * w for j in range(k)]
        self.guards = sum(unit) << (w - 1)
        self.counts = sum(m * u for m, u in zip(left, unit))
        rows = slot_rows(S.group)
        bit, minus, moves, back = zip(*map(rows.__getitem__, support)) if k else ((),) * 4
        # reach[j][c]: the negatives of the sums of the nonempty
        # sub-multisets of slots j..k-1 with at most c copies of slot j
        reach: List[List[int]] = [[]] * k
        r = 0
        for j in range(k - 1, -1, -1):
            row = reach[j] = [r]
            for _ in range(left[j]):
                t = r | 1  # the zero element is bit 0
                for low, high, up, down in back[j]:
                    t = (t & low) << up | (t & high) >> down
                if t | r == r:
                    break  # one more copy of slot j reaches nothing new
                r |= t
                row.append(r)
            row += [r] * (left[j] + 1 - len(row))
        stop, spent = budget.stop, budget.spent
        atoms: List[int] = []

        def extend(start: int, atom: int, room: int, sums: int, total: int) -> None:
            # The prefix atom is zero-sum free and may grow by room more
            # elements; sums is the bitset of the sums of its nonempty
            # subsequences and total the bit of its own sum. No proper
            # subsequence sums to total (the rest would be a zero-sum), so
            # adding e closes an atom iff e = -total, and is refused iff
            # some other subsequence sums to -e.
            nonlocal spent
            for j in range(start, k):
                c = left[j]
                if not c:
                    continue
                if spent == stop:
                    raise budget.exhausted(spent)
                spent += 1
                if total == minus[j]:
                    atoms.append(atom + unit[j])
                elif room > 1 and not sums & minus[j]:
                    u = total
                    for low, high, up, down in moves[j]:
                        u = (u & low) << up | (u & high) >> down
                    if u & reach[j][c - 1]:
                        t = sums
                        for low, high, up, down in moves[j]:
                            t = (t & low) << up | (t & high) >> down
                        left[j] = c - 1
                        extend(j, atom + unit[j], room - 1, sums | t | bit[j], u)
                        left[j] = c

        room = S.length if max_len is None else max_len - 1
        first = []
        for i in range(k):
            first.append(len(atoms))
            if spent == stop:
                raise budget.exhausted(spent)
            spent += 1
            if bit[i] == 1:  # the zero element is an atom on its own
                atoms.append(unit[i])
            elif room > 0 and bit[i] & reach[i][left[i] - 1]:
                left[i] -= 1
                extend(i, unit[i], room, bit[i], bit[i])
                left[i] += 1
        first.append(len(atoms))
        del extend  # a recursive closure is a reference cycle; free it now
        budget.spent = spent
        self.atoms = atoms
        self.first = first

    def items(self, atom: int) -> tuple:
        """Canonical Sequence items of a packed multiset."""
        w = self.width
        field = (1 << w) - 1
        out = []
        for j, e in enumerate(self.support):
            m = atom >> j * w & field
            if m:
                out.append((e, m))
        return tuple(out)


def minimal_divisors(
    S: Sequence, max_len: Optional[int] = None, budget: Optional[int] = None
) -> Iterator[Sequence]:
    """All minimal zero-sum T dividing S, each once, in lexicographic order."""
    kernel = _Kernel(S, max_len, _Budget(budget, "minimal_divisors"))
    for atom in kernel.atoms:
        yield Sequence(S.group, kernel.items(atom))


def atoms_through(
    S: Sequence,
    g: Element,
    max_len: Optional[int] = None,
    budget: Optional[_Budget] = None,
) -> Iterator[Tuple[Element, ...]]:
    """Minimal zero-sum divisors of S containing g, as element tuples."""
    if g not in S.support:
        return
    b = _Budget(None, "atoms_through") if budget is None else budget
    kernel = _Kernel(S, max_len, b)
    shift = S.support.index(g) * kernel.width
    for atom in kernel.atoms:
        if atom >> shift & ((1 << kernel.width) - 1):
            yield tuple(e for e, m in kernel.items(atom) for _ in range(m))


# ---------------------------------------------------------------------------
# The one search: reachable numbers of disjoint atoms


# (S, atom_cap, discard) -> (length mask, nodes of the full search), oldest
# first: past MASKS_LIMIT entries the oldest is evicted
MASKS_LIMIT = 1 << 10
_MASKS: "OrderedDict[tuple, Tuple[int, int]]" = OrderedDict()


def _lengths(
    S: Sequence,
    atom_cap: Optional[int],
    discard: bool,
    entry: str,
    budget: Optional[int],
) -> int:
    """Numbers of disjoint atoms (of length <= atom_cap) in S, as a bitmask.

    Bit n is set iff n is reachable. Without discard the atoms must
    exhaust S, so these are the factorization lengths. With discard the
    pinned element may also be left out, so the maximum is the largest
    number of disjoint nonempty zero-sum subsequences: each of them
    contains an atom. The search pins the least slot left and branches
    over the atoms through it, so every decomposition is visited once.
    """
    key = (S, atom_cap, discard)
    hit = _MASKS.get(key)
    if hit is not None:
        lengths, nodes = hit
        if budget is not None and max(budget, 0) < nodes:
            raise BudgetExhausted(max(budget, 0), entry)  # where the search stops
        return lengths
    b = _Budget(budget, entry)
    kernel = _Kernel(S, atom_cap, b)
    w, guards, first = kernel.width, kernel.guards, kernel.first
    buckets = [kernel.atoms[first[i]:first[i + 1]] for i in range(len(first) - 1)]
    # bounded, not evicting: past MEMO_LIMIT entries new ones are not kept
    memo: Dict[int, int] = {}
    stop, spent = b.stop, b.spent

    def search(counts: int) -> int:
        nonlocal spent
        if not counts:
            return 1
        hit = memo.get(counts)
        if hit is not None:
            return hit
        if spent == stop:
            raise b.exhausted(spent)
        spent += 1
        i = ((counts & -counts).bit_length() - 1) // w
        out = search(counts - (1 << i * w)) if discard else 0
        high = counts | guards
        for atom in buckets[i]:
            rest = high - atom
            if rest & guards == guards:
                out |= search(rest ^ guards) << 1
        if len(memo) < MEMO_LIMIT:
            memo[counts] = out
        return out

    lengths = search(kernel.counts)
    del search  # a recursive closure is a reference cycle; free it now
    if len(_MASKS) >= MASKS_LIMIT:
        _MASKS.popitem(last=False)
    _MASKS[key] = (lengths, spent)
    return lengths


def _require_zero_sum(B: Sequence, caller: str) -> None:
    if any(B.sum()):
        raise SequenceError("%s requires a zero-sum sequence" % caller)


def max_disjoint_zero_sums(S: Sequence, budget: Optional[int] = None) -> int:
    """Largest k with a product of k nonempty zero-sum sequences dividing S.

    For zero-sum S this is max_length: merging the zero-sum remainder of
    a largest disjoint family into one of its blocks leaves k zero-sum
    blocks that exhaust S, and they refine into at least k atoms. So the
    discard branch runs only when S is not zero-sum.
    """
    discard = any(S.sum())
    return _lengths(S, None, discard, "max_disjoint_zero_sums", budget).bit_length() - 1


def max_length(B: Sequence, budget: Optional[int] = None) -> int:
    """Largest factorization length of a zero-sum sequence."""
    _require_zero_sum(B, "max_length")
    return _lengths(B, None, False, "max_length", budget).bit_length() - 1


# ---------------------------------------------------------------------------
# Length sets and factorization enumeration


@dataclass(frozen=True)
class LengthSet:
    lengths: tuple

    def __post_init__(self):
        if list(self.lengths) != sorted(set(self.lengths)):
            raise ValueError("lengths must be strictly sorted and unique")

    @classmethod
    def _of_mask(cls, mask: int) -> "LengthSet":
        """The set bits of mask: listed in order, so already strictly
        sorted, and built without the check."""
        out = object.__new__(cls)
        object.__setattr__(
            out, "lengths", tuple(n for n in range(mask.bit_length()) if mask >> n & 1)
        )
        return out

    @property
    def min(self) -> int:
        return self.lengths[0]

    @property
    def max(self) -> int:
        return self.lengths[-1]

    def gaps(self) -> tuple:
        """Set of successive differences, deduplicated and sorted."""
        diffs = {
            self.lengths[i + 1] - self.lengths[i]
            for i in range(len(self.lengths) - 1)
        }
        return tuple(sorted(diffs))

    def __contains__(self, k: int) -> bool:
        return k in self.lengths

    def __iter__(self):
        return iter(self.lengths)

    def __len__(self) -> int:
        return len(self.lengths)


def length_set(
    B: Sequence, atom_cap: Optional[int] = None, budget: Optional[int] = None
) -> LengthSet:
    """Exact set of factorization lengths of a zero-sum sequence."""
    _require_zero_sum(B, "length_set")
    mask = _lengths(B, atom_cap, False, "length_set", budget)
    if not mask:
        raise SequenceError(
            "no factorization within atom length cap %r" % (atom_cap,)
        )
    return LengthSet._of_mask(mask)


@dataclass(frozen=True)
class Factorization:
    """Multiset of minimal zero-sum sequences, each verified on construction."""

    group: Group
    atoms: tuple  # ((Sequence, multiplicity), ...) sorted by atom items

    @staticmethod
    def from_atoms(G: Group, atoms) -> "Factorization":
        atoms = list(atoms)
        for a in atoms:
            if a.group != G:
                raise SequenceError("atom belongs to a different group")
            if not is_minimal_zero_sum(a):
                raise SequenceError("part %r is not a minimal zero-sum sequence" % (a,))
        return Factorization._grouped(G, atoms)

    @staticmethod
    def _grouped(G: Group, atoms) -> "Factorization":
        """Atoms already known to be minimal zero-sums of G, with multiplicities."""
        counts: Dict[Sequence, int] = {}
        for a in atoms:
            counts[a] = counts.get(a, 0) + 1
        ordered = tuple(sorted(counts.items(), key=lambda kv: kv[0].items))
        return Factorization(G, ordered)

    @property
    def length(self) -> int:
        return sum(m for _, m in self.atoms)

    def product(self) -> Sequence:
        out = Sequence.empty(self.group)
        for a, m in self.atoms:
            for _ in range(m):
                out = out.times(a)
        return out

    def multiplicity(self, atom: Sequence) -> int:
        for a, m in self.atoms:
            if a == atom:
                return m
        return 0

    def to_json(self) -> list:
        return [{"atom": format_sequence(a), "mult": m} for a, m in self.atoms]

    @staticmethod
    def from_json(G: Group, data: list) -> "Factorization":
        atoms = []
        for entry in data:
            a = parse_sequence(G, entry["atom"])
            atoms.extend([a] * entry["mult"])
        return Factorization.from_atoms(G, atoms)

    def __repr__(self) -> str:
        parts = []
        for a, m in self.atoms:
            text = "(%s)" % format_sequence(a)
            parts.append(text if m == 1 else "%s^%d" % (text, m))
        return "Factorization[%s]" % " ".join(parts)


def enumerate_factorizations(
    B: Sequence, budget: Optional[int] = None
) -> Iterator[Factorization]:
    """All factorizations of B, each exactly once.

    Atoms are chosen in nondecreasing canonical order; an atom's least
    element is always the current pin, so the ordering constraint is a
    single global threshold: an index into the kernel's atom list.
    """
    _require_zero_sum(B, "enumerate_factorizations")
    G = B.group
    b = _Budget(budget, "enumerate_factorizations")
    kernel = _Kernel(B, None, b)
    w, guards, atoms, first = kernel.width, kernel.guards, kernel.atoms, kernel.first
    # the kernel yields only minimal zero-sums, so from_atoms' check is skipped
    parts = [Sequence(G, kernel.items(atom)) for atom in atoms]

    stop, spent = b.stop, b.spent

    def search(counts: int, lo: int) -> Iterator[List[int]]:
        # lo is the index of the last atom taken; atoms are listed in order
        nonlocal spent
        if not counts:
            yield []
            return
        if spent == stop:
            raise b.exhausted(spent)
        spent += 1
        i = ((counts & -counts).bit_length() - 1) // w
        high = counts | guards
        for x in range(max(lo, first[i]), first[i + 1]):
            rest = high - atoms[x]
            if rest & guards == guards:
                for chain in search(rest ^ guards, x):
                    yield [x] + chain

    for chain in search(kernel.counts, 0):
        yield Factorization._grouped(G, [parts[x] for x in chain])
    del search  # a recursive closure is a reference cycle; free it now


# ---------------------------------------------------------------------------
# Distances


def distance(z1: Factorization, z2: Factorization) -> int:
    """Cancel the common atoms, then take the larger remaining length."""
    if z1.group != z2.group:
        raise SequenceError("factorizations belong to different groups")
    c1 = dict(z1.atoms)
    common = 0
    for a, m in z2.atoms:
        common += min(m, c1.get(a, 0))
    return max(z1.length - common, z2.length - common)


def successive_distance_of(z: Factorization, budget: Optional[int] = None) -> int:
    """Least m reaching every adjacent factorization length within m.

    For each length adjacent to |z| in the length set of the product,
    some factorization of that length must be within distance m of z;
    the answer is 0 when no adjacent length exists.
    """
    B = z.product()
    by_length: Dict[int, List[Factorization]] = {}
    for xi in enumerate_factorizations(B, budget=budget):
        by_length.setdefault(xi.length, []).append(xi)
    lengths = sorted(by_length)
    k = z.length
    pos = lengths.index(k)
    adjacent = []
    if pos > 0:
        adjacent.append(lengths[pos - 1])
    if pos + 1 < len(lengths):
        adjacent.append(lengths[pos + 1])
    if not adjacent:
        return 0
    worst = 0
    for other in adjacent:
        best = min(distance(z, xi) for xi in by_length[other])
        worst = max(worst, best)
    return worst
