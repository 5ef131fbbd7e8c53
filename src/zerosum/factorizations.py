"""Factorizations of zero-sum sequences into minimal zero-sum parts.

The searches work on a count vector over the positions of S's support.
Group elements are ``enumerate_elements`` positions, and adding a
support element is a lookup in its translation row: one row of |G|
positions per group and element, cached, so no Cayley table is built
and groups far larger than the exhaustive-search guard are fine.
Element tuples appear only at the API boundary.

There is one atom enumerator, ``_atoms``, a DFS over nondecreasing
positions, and one memoised search, ``_lengths``. The search pins the
first nonzero position and branches over the atoms through the pin;
pinning breaks the symmetry between orderings of the same
decomposition, so every decomposition is visited once. It returns the
set of reachable part counts: ``length_set`` sorts it, ``max_length``
and ``max_disjoint_zero_sums`` take its maximum.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Tuple

from .gf2 import mask_rank
from .groups import Element, Group, add, element_index, enumerate_elements, zero
from .sequences import (
    Sequence,
    SequenceError,
    _support_masks,
    format_sequence,
    parse_sequence,
    shortest_zero_sum_length,
)

MEMO_LIMIT = 1 << 18


class BudgetExhausted(RuntimeError):
    """A search hit its node budget before finishing.

    Carries no partial answer on purpose: exhaustion is an outcome
    distinct from any mathematical result.
    """

    def __init__(self, nodes: int):
        super().__init__("search budget exhausted after %d nodes" % nodes)
        self.nodes = nodes


class _Budget:
    __slots__ = ("remaining",)

    def __init__(self, limit: Optional[int]):
        self.remaining = limit

    def spend(self) -> None:
        if self.remaining is None:
            return
        if self.remaining <= 0:
            raise BudgetExhausted(0)
        self.remaining -= 1


class _Memo:
    """Mapping with FIFO eviction; lookups stay value-correct."""

    def __init__(self, limit: int = MEMO_LIMIT):
        self.data: "OrderedDict" = OrderedDict()
        self.limit = limit

    def get(self, key):
        return self.data.get(key)

    def put(self, key, value) -> None:
        if key in self.data:
            self.data[key] = value
            return
        if len(self.data) >= self.limit:
            self.data.popitem(last=False)
        self.data[key] = value


# ---------------------------------------------------------------------------
# Minimality


def is_minimal_zero_sum(S: Sequence) -> bool:
    """Nonempty, zero-sum, and no proper nonempty zero-sum subsequence."""
    G = S.group
    n = S.length
    if n == 0:
        return False
    z = zero(G)
    if S.sum() != z:
        return False
    if n == 1:
        return True  # the single element is 0, and 0 alone is minimal
    if G.is_elementary_2:
        # only shapes: the zero singleton, a doubled element, or a
        # squarefree circuit (dependent set whose proper subsets are free)
        if S.contains_zero():
            return False
        if n == 2:
            return S.items[0][1] == 2  # g*g for a single g
        if not S.is_squarefree():
            return False
        masks = _support_masks(S)
        return mask_rank(masks) == n - 1
    # a proper zero-sum part and its complement are both zero-sum; one of
    # them has length at most half, so a capped search settles minimality
    return shortest_zero_sum_length(S, n // 2) is None


# ---------------------------------------------------------------------------
# Atom enumeration on support positions


@lru_cache(maxsize=1024)
def _row(G: Group, e: Element) -> Tuple[int, ...]:
    """Position of x + e for each x, in enumerate_elements order."""
    return tuple(element_index(G, add(G, x, e)) for x in enumerate_elements(G))


def _rows(S: Sequence) -> List[Tuple[int, ...]]:
    return [_row(S.group, e) for e in S.support]


def _atom_dfs(
    rows: List[Tuple[int, ...]],
    counts: List[int],
    start: int,
    prefix: List[int],
    s: int,
    proper: set,
    max_len: Optional[int],
    budget: _Budget,
) -> Iterator[List[int]]:
    """Extend prefix with nondecreasing positions.

    s is the prefix sum and proper the set of sums of its nonempty
    proper subsequences; a zero among the new proper sums means no
    extension can be minimal. Position 0 of a group is its zero.
    """
    for i in range(start, len(counts)):
        if counts[i] == 0:
            continue
        budget.spend()
        row = rows[i]
        e = row[0]
        if prefix:
            if e == 0:
                continue
            shifted = {row[x] for x in proper}
            if 0 in shifted:
                continue
            proper2 = proper | shifted
            proper2.add(s)
            proper2.add(e)
        else:
            proper2 = set()
        s2 = row[s]
        prefix.append(i)
        if s2 == 0:
            yield list(prefix)
        elif max_len is None or len(prefix) < max_len:
            counts[i] -= 1
            yield from _atom_dfs(rows, counts, i, prefix, s2, proper2, max_len, budget)
            counts[i] += 1
        prefix.pop()


def _atoms(
    rows: List[Tuple[int, ...]],
    counts: List[int],
    pin: Optional[int],
    max_len: Optional[int],
    budget: _Budget,
) -> Iterator[List[int]]:
    """Each minimal zero-sum sub-multiset of counts once, as positions.

    Without a pin: every atom, in lexicographic order. With a pin: the
    atoms containing that position, pin first. counts is restored when
    the iterator is exhausted.
    """
    if pin is None:
        yield from _atom_dfs(rows, counts, 0, [], 0, set(), max_len, budget)
        return
    e = rows[pin][0]
    if e == 0:
        yield [pin]
        return
    if max_len is not None and max_len < 2:
        return
    counts[pin] -= 1
    yield from _atom_dfs(rows, counts, 0, [pin], e, set(), max_len, budget)
    counts[pin] += 1


def _items(support: tuple, atom: List[int]) -> tuple:
    """Canonical Sequence items of an atom given as positions."""
    return tuple((support[j], atom.count(j)) for j in sorted(set(atom)))


def minimal_divisors(
    S: Sequence, max_len: Optional[int] = None, budget: Optional[int] = None
) -> Iterator[Sequence]:
    """All minimal zero-sum T dividing S, each once, in lexicographic order."""
    counts = [m for _, m in S.items]
    for atom in _atoms(_rows(S), counts, None, max_len, _Budget(budget)):
        yield Sequence(S.group, _items(S.support, atom))


def atoms_through(
    S: Sequence,
    g: Element,
    max_len: Optional[int] = None,
    budget: Optional[_Budget] = None,
) -> Iterator[Tuple[Element, ...]]:
    """Minimal zero-sum divisors of S containing g, as element tuples."""
    support = S.support
    if g not in support:
        return
    counts = [m for _, m in S.items]
    b = _Budget(None) if budget is None else budget
    for atom in _atoms(_rows(S), counts, support.index(g), max_len, b):
        yield tuple(support[j] for j in sorted(atom))


# ---------------------------------------------------------------------------
# The one search: reachable numbers of disjoint atoms


def _first_nonzero(counts: List[int]) -> int:
    for i, c in enumerate(counts):
        if c:
            return i
    return -1


def _lengths(
    S: Sequence, atom_cap: Optional[int], discard: bool, budget: Optional[int]
) -> frozenset:
    """Numbers of disjoint atoms (of length <= atom_cap) in S.

    Without discard the atoms must exhaust S, so these are the
    factorization lengths. With discard the pinned element may also be
    left out, so the maximum is the largest number of disjoint
    nonempty zero-sum subsequences: each of them contains an atom.
    """
    rows = _rows(S)
    b = _Budget(budget)
    memo = _Memo()
    done = frozenset([0])

    def search(counts: List[int]) -> frozenset:
        i = _first_nonzero(counts)
        if i < 0:
            return done
        key = tuple(counts)
        hit = memo.get(key)
        if hit is not None:
            return hit
        b.spend()
        out = set()
        if discard:
            counts[i] -= 1
            out |= search(counts)
            counts[i] += 1
        for atom in list(_atoms(rows, counts, i, atom_cap, b)):
            for j in atom:
                counts[j] -= 1
            out.update(1 + n for n in search(counts))
            for j in atom:
                counts[j] += 1
        result = frozenset(out)
        memo.put(key, result)
        return result

    return search([m for _, m in S.items])


def _require_zero_sum(B: Sequence, caller: str) -> None:
    if B.sum() != zero(B.group):
        raise SequenceError("%s requires a zero-sum sequence" % caller)


def max_disjoint_zero_sums(S: Sequence, budget: Optional[int] = None) -> int:
    """Largest k with a product of k nonempty zero-sum sequences dividing S.

    For zero-sum S this is max_length: merging the zero-sum remainder of
    a largest disjoint family into one of its blocks leaves k zero-sum
    blocks that exhaust S, and they refine into at least k atoms. So the
    discard branch runs only when S is not zero-sum.
    """
    return max(_lengths(S, None, S.sum() != zero(S.group), budget))


def max_length(B: Sequence, budget: Optional[int] = None) -> int:
    """Largest factorization length of a zero-sum sequence."""
    _require_zero_sum(B, "max_length")
    return max(_lengths(B, None, False, budget))


# ---------------------------------------------------------------------------
# Length sets and factorization enumeration


@dataclass(frozen=True)
class LengthSet:
    lengths: tuple

    def __post_init__(self):
        if list(self.lengths) != sorted(set(self.lengths)):
            raise ValueError("lengths must be strictly sorted and unique")

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
    lengths = _lengths(B, atom_cap, False, budget)
    if not lengths:
        raise SequenceError(
            "no factorization within atom length cap %r" % (atom_cap,)
        )
    return LengthSet(tuple(sorted(lengths)))


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
    single global threshold.
    """
    _require_zero_sum(B, "enumerate_factorizations")
    G = B.group
    rows = _rows(B)
    b = _Budget(budget)

    def search(counts: List[int], last) -> Iterator[List[List[int]]]:
        i = _first_nonzero(counts)
        if i < 0:
            yield []
            return
        b.spend()
        for atom in list(_atoms(rows, counts, i, None, b)):
            atom.sort()
            if last is not None and atom < last:
                continue
            for j in atom:
                counts[j] -= 1
            for rest in search(counts, atom):
                yield [atom] + rest
            for j in atom:
                counts[j] += 1

    # _atoms yields only minimal zero-sums, so from_atoms' check is skipped
    for chain in search([m for _, m in B.items], None):
        yield Factorization._grouped(
            G, [Sequence(G, _items(B.support, atom)) for atom in chain]
        )


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
