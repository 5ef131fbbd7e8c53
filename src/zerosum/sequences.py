"""Sequences over a finite abelian group as multisets of elements.

A sequence is an unordered multiset; equality is multiplicity-map
equality. Iteration over the support is always in lexicographic
coordinate order so that searches and serialized output are
reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .gf2 import mask_rank, reduce_mod_basis
from .groups import (
    Element,
    Group,
    GroupError,
    add,
    element_index,
    element_order,
    neg,
    translation,
    validate_element,
    zero,
)


class SequenceError(ValueError):
    pass


class NonDivisibleError(SequenceError):
    """Raised when T does not divide S; carries the offending element."""

    def __init__(self, element: Element):
        super().__init__("sequence is not divisible at element %r" % (element,))
        self.element = element


class SequenceParseError(SequenceError):
    def __init__(self, message: str, position: int):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


@dataclass(frozen=True)
class Sequence:
    """Multiset of group elements with positive multiplicities.

    items is the canonical form: pairs (element, multiplicity) sorted by
    element coordinates, every multiplicity >= 1.
    """

    # the length, support, sum and hash are kept, once computed, in slots
    # that equality, repr and pickling never see; slots, since a dict
    # costs more than a hash. None marks a value not yet computed: most
    # sequences ask for each once, and testing for None costs less than
    # the AttributeError of an empty slot
    __slots__ = ("group", "items", "_length", "_support", "_sum", "_hash")

    group: Group
    items: tuple

    def __post_init__(self) -> None:
        for name in ("_length", "_support", "_sum", "_hash"):
            object.__setattr__(self, name, None)

    @staticmethod
    def from_counts(
        G: Group, counts: "Dict[Element, int] | Iterable[Tuple[Element, int]]"
    ) -> "Sequence":
        """The sequence with the given multiplicities: a dict, or
        (element, multiplicity) pairs whose repeats add up. Each
        multiplicity is checked on its own, before any sum."""
        norm: Dict[Element, int] = {}
        for e, m in counts.items() if isinstance(counts, dict) else counts:
            el = validate_element(G, e)
            if not isinstance(m, int) or isinstance(m, bool):
                raise SequenceError("multiplicity must be an integer, got %r" % (m,))
            if m < 0:
                raise SequenceError("negative multiplicity %d for %r" % (m, el))
            if m > 0:
                norm[el] = norm.get(el, 0) + m
        return Sequence(G, tuple(sorted(norm.items())))

    @staticmethod
    def from_elements(G: Group, elements: Iterable) -> "Sequence":
        counts: Dict[Element, int] = {}
        for e in elements:
            el = validate_element(G, e)
            counts[el] = counts.get(el, 0) + 1
        return Sequence(G, tuple(sorted(counts.items())))

    @staticmethod
    def empty(G: Group) -> "Sequence":
        return Sequence(G, ())

    @property
    def length(self) -> int:
        n = self._length
        if n is None:
            n = sum(m for _, m in self.items)
            object.__setattr__(self, "_length", n)
        return n

    @property
    def support(self) -> tuple:
        support = self._support
        if support is None:
            support = tuple(e for e, _ in self.items)
            object.__setattr__(self, "_support", support)
        return support

    def multiplicity(self, e: Element) -> int:
        for el, m in self.items:
            if el == e:
                return m
        return 0

    def counts(self) -> Dict[Element, int]:
        return dict(self.items)

    def as_list(self) -> List[Element]:
        out: List[Element] = []
        for e, m in self.items:
            out.extend([e] * m)
        return out

    def is_squarefree(self) -> bool:
        return all(m == 1 for _, m in self.items)

    def contains_zero(self) -> bool:
        z = zero(self.group)
        return any(e == z for e, _ in self.items)

    def sum(self) -> Element:
        total = self._sum
        if total is None:
            # the elements were validated when the sequence was built
            items = self.items
            total = tuple(
                sum(e[i] * m for e, m in items) % n
                for i, n in enumerate(self.group.invariant_factors)
            )
            object.__setattr__(self, "_sum", total)
        return total

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.group, self.items))  # the dataclass hash
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self) -> dict:
        return {"group": self.group, "items": self.items}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)
        self.__post_init__()

    def cross_number(self) -> Fraction:
        total = Fraction(0)
        for e, m in self.items:
            total += Fraction(m, element_order(self.group, e))
        return total

    def divides(self, other: "Sequence") -> bool:
        theirs = other.counts()
        return all(theirs.get(e, 0) >= m for e, m in self.items)

    def divide(self, T: "Sequence") -> "Sequence":
        """Return T^{-1} * self; error if T does not divide self."""
        if T.group != self.group:
            raise SequenceError("sequences belong to different groups")
        counts = self.counts()
        for e, m in T.items:
            if counts.get(e, 0) < m:
                raise NonDivisibleError(e)
            counts[e] -= m
        return Sequence.from_counts(self.group, counts)

    def times(self, T: "Sequence") -> "Sequence":
        """Concatenation product of the two multisets."""
        if T.group != self.group:
            raise SequenceError("sequences belong to different groups")
        counts = self.counts()
        for e, m in T.items:
            counts[e] = counts.get(e, 0) + m
        return Sequence.from_counts(self.group, counts)

    def __repr__(self) -> str:
        return "Sequence(%r, %s)" % (self.group, format_sequence(self) or "<empty>")


def format_sequence(S: Sequence) -> str:
    """Literal form: semicolon-separated "coords^mult" items."""
    parts = []
    for e, m in S.items:
        coords = ",".join(str(x) for x in e)
        parts.append(coords if m == 1 else "%s^%d" % (coords, m))
    return "; ".join(parts)


def parse_sequence(G: Group, text: str) -> Sequence:
    """Parse the literal grammar, e.g. "1,0,0^3; 0,1,0; 1,1,1^2"."""
    if text.strip() == "":
        return Sequence.empty(G)
    counts: Dict[Element, int] = {}
    pos = 0
    for chunk in text.split(";"):
        item = chunk.strip()
        item_pos = pos + (chunk.index(item) if item else 0)
        if not item:
            raise SequenceParseError("empty sequence item", item_pos)
        mult = 1
        body = item
        if "^" in item:
            body, _, mult_text = item.rpartition("^")
            mult_text = mult_text.strip()
            body = body.strip()
            if not mult_text.isdigit():
                raise SequenceParseError(
                    "expected integer multiplicity after '^'",
                    item_pos + item.rindex("^") + 1,
                )
            mult = int(mult_text)
            if mult < 1:
                raise SequenceParseError("multiplicity must be >= 1", item_pos)
        coord_texts = [c.strip() for c in body.split(",")]
        coords = []
        for c in coord_texts:
            if not c or not c.lstrip("-").isdigit():
                raise SequenceParseError("expected integer coordinate", item_pos)
            coords.append(int(c))
        try:
            el = validate_element(G, tuple(coords))
        except GroupError as err:
            raise SequenceParseError(str(err), item_pos) from err
        counts[el] = counts.get(el, 0) + mult
        pos += len(chunk) + 1
    return Sequence.from_counts(G, counts)


def sequence_to_json(S: Sequence) -> list:
    return [{"coords": list(e), "mult": m} for e, m in S.items]


def sequence_from_json(G: Group, data: list) -> Sequence:
    return Sequence.from_counts(G, ((tuple(entry["coords"]), entry["mult"]) for entry in data))


# ---------------------------------------------------------------------------
# Zero-sum-free tests


def is_zero_sum_free_brute(S: Sequence) -> bool:
    """Direct subsequence-sum search; the cross-checking oracle.

    Accumulates the set of sums achievable by nonempty subsequences and
    reports whether 0 ever appears.
    """
    G = S.group
    z = zero(G)
    achievable: set = set()
    for e, m in S.items:
        new = set()
        step = z
        powers = []
        for _ in range(m):
            step = add(G, step, e)
            powers.append(step)
        for base in list(achievable) + [None]:
            for p in powers:
                s = p if base is None else add(G, base, p)
                new.add(s)
        achievable |= new
        if z in achievable:
            return False
    return True


def is_zero_sum_free(S: Sequence) -> bool:
    """No nonempty subsequence sums to zero."""
    return S.length == 0 or shortest_zero_sum_length(S, S.length) is None


# ---------------------------------------------------------------------------
# Shortest zero-sum subsequence


def shortest_zero_sum_length(S: Sequence, cap: int) -> Optional[int]:
    """Minimum length <= cap of a nonempty zero-sum subsequence.

    Returns None when every nonempty subsequence of length <= cap has a
    nonzero sum.

    A cap of 1 or 2 is answered from the support: a zero-sum of length 1
    is the element 0, and one of length 2 is e twice with 2e = 0 or a pair
    e, -e with -e != e. Larger caps go through _shortest_by_levels.
    """
    if cap < 1:
        raise SequenceError("cap must be >= 1")
    if cap > 2:
        return _shortest_by_levels(S, cap)
    G = S.group
    counts = dict(S.items)
    if zero(G) in counts:
        return 1
    if cap == 2:
        for e, m in S.items:
            minus = neg(G, e)
            if m >= 2 if minus == e else minus in counts:
                return 2
    return None


def _shortest_by_levels(S: Sequence, cap: int) -> Optional[int]:
    """shortest_zero_sum_length by sum levels, for any cap >= 1.

    The elements are taken one at a time. Level j holds the sums of the
    subsequences of length <= j of the elements taken so far, the empty
    sum included, as an int bitset over enumerate_elements positions
    stored negated, as in the generic invariants search: bit x is set iff
    -x is such a sum. A zero-sum of length j + 1 ends at the next element
    e iff bit element_index(e) of level j is set; taking e then grows each
    level j by level j - 1 translated by -e. Once a zero-sum of length L
    is found only a shorter one matters, so only the levels below L - 1
    are kept.
    """
    G = S.group
    best = None
    levels = [1]  # level 0 holds the empty sum: bit 0
    for e, m in S.items:
        bit = 1 << element_index(G, e)
        moves = translation(G, neg(G, e))
        for _ in range(m):
            for j, level in enumerate(levels):
                if level & bit:
                    best = j + 1
                    del levels[j:]
                    break
            if best is None and len(levels) < cap:
                levels.append(levels[-1])
            for j in range(len(levels) - 1, 0, -1):
                t = levels[j - 1]
                for low, high, up, down in moves:
                    t = (t & low) << up | (t & high) >> down
                levels[j] |= t
    return best


# ---------------------------------------------------------------------------
# Set predicates


def _as_element_set(G: Group, A: Iterable) -> List[Element]:
    seen = []
    have = set()
    for e in A:
        el = validate_element(G, e)
        if el in have:
            raise SequenceError("set input contains %r twice" % (el,))
        have.add(el)
        seen.append(el)
    return seen


def is_sum_free(G: Group, A: Iterable) -> bool:
    """No a, b, c in A (repetition allowed) with a + b = c."""
    elems = _as_element_set(G, A)
    have = set(elems)
    for a in elems:
        for b in elems:
            if add(G, a, b) in have:
                return False
    return True


def is_sidon(G: Group, A: Iterable) -> bool:
    """All pairwise sums distinct apart from forced coincidences.

    Fails exactly when a + b = c + d with at least 3 distinct elements
    among a, b, c, d. Pairs are unordered with repetition allowed.
    """
    elems = _as_element_set(G, A)
    by_sum: Dict[Element, List[Tuple[Element, Element]]] = {}
    for i, a in enumerate(elems):
        for b in elems[i:]:
            by_sum.setdefault(add(G, a, b), []).append((a, b))
    for pairs in by_sum.values():
        mixed = [p for p in pairs if p[0] != p[1]]
        doubles = [p for p in pairs if p[0] == p[1]]
        # two distinct pairs sharing a sum always involve >= 3 distinct
        # elements unless both are doubled elements
        if len(mixed) >= 2:
            return False
        if mixed and doubles:
            return False
    return True


@dataclass(frozen=True)
class ShortZeroSumReport:
    """Structure report for sequences over elementary 2-groups.

    implied_min_length is the least possible length of a nonempty
    zero-sum subsequence given the four structural flags; it is exact
    (implied_exact True) except in the final class, where the flags only
    force the minimum to be at least 5.
    """

    contains_zero: bool
    squarefree: bool
    support_sum_free: bool
    support_sidon: bool
    implied_min_length: int
    implied_exact: bool


def short_zero_sum_criteria(S: Sequence) -> ShortZeroSumReport:
    G = S.group
    if not G.is_elementary_2:
        raise SequenceError("structure criteria apply to elementary 2-groups only")
    contains_zero = S.contains_zero()
    squarefree = S.is_squarefree()
    support = S.support
    sum_free = is_sum_free(G, support)
    sidon = is_sidon(G, support)
    if contains_zero:
        implied, exact = 1, True
    elif not squarefree:
        implied, exact = 2, True
    elif not sum_free:
        # a + b = c in the support forces the length-3 zero-sum a b c
        implied, exact = 3, True
    elif not sidon:
        # sum-free kills length 3; a Sidon violation is a 4-term zero-sum
        implied, exact = 4, True
    else:
        implied, exact = 5, False
    return ShortZeroSumReport(
        contains_zero=contains_zero,
        squarefree=squarefree,
        support_sum_free=sum_free,
        support_sidon=sidon,
        implied_min_length=implied,
        implied_exact=exact,
    )


# ---------------------------------------------------------------------------
# Large sum-free set classification over C_2^r


class ThresholdError(SequenceError):
    """Input set too small for the classification to be guaranteed."""


@dataclass(frozen=True)
class DavydovTombakClass:
    kind: str  # "index2-coset" | "five-coset" | "neither"
    functional: Optional[int] = None  # mask of the index-2 kernel functional
    subgroup_basis: tuple = ()
    coset_reps: tuple = ()


def davydov_tombak_threshold(r: int) -> int:
    """Smallest guaranteed size, 9 * 2^(r-5) rounded up."""
    return -((-9 * (1 << r)) // 32)


def _inner(mask_a: int, mask_b: int) -> int:
    return bin(mask_a & mask_b).count("1") & 1


def _enumerate_subspace_bases(r: int, d: int) -> Iterator[List[int]]:
    """All d-dimensional subspaces of GF(2)^r, one reduced basis each.

    Bases are produced in reduced row echelon form over the bit
    positions, highest bit first, so every subspace appears exactly
    once.
    """
    if d == 0:
        yield []
        return
    positions = list(range(r - 1, -1, -1))  # pivot candidates, high to low
    for pivots in itertools.combinations(range(r), d):
        pivot_bits = [positions[p] for p in pivots]
        free_bits_per_row = []
        for i, pb in enumerate(pivot_bits):
            later = [b for b in range(pb - 1, -1, -1) if b not in pivot_bits]
            free_bits_per_row.append(later)
        choices = [range(1 << len(f)) for f in free_bits_per_row]
        for combo in itertools.product(*choices):
            basis = []
            for i, pb in enumerate(pivot_bits):
                row = 1 << pb
                pattern = combo[i]
                for j, fb in enumerate(free_bits_per_row[i]):
                    if (pattern >> j) & 1:
                        row |= 1 << fb
                basis.append(row)
            yield basis


def davydov_tombak_check(G: Group, A: Iterable) -> DavydovTombakClass:
    """Classify a large zero-free subset of C_2^r with no repeated element.

    Either A lies in the nonzero coset of an index-2 subgroup, or it
    lies in the 5-coset configuration {e1, e2, e3, e4, e1+e2+e3+e4} + G'
    for an index-16 subgroup G', or neither. Above the size threshold,
    "neither" guarantees a length-3 zero-sum inside A.
    """
    if not G.is_elementary_2:
        raise SequenceError("classification applies to elementary 2-groups only")
    r = G.rank
    if r > 8:
        raise SequenceError("subspace enumeration is guarded to rank <= 8")
    elems = _as_element_set(G, A)
    masks = [element_index(G, e) for e in elems]
    if 0 in masks:
        raise SequenceError("input set must not contain zero")
    if len(masks) < davydov_tombak_threshold(r):
        raise ThresholdError(
            "set of size %d is below the guaranteed threshold %d"
            % (len(masks), davydov_tombak_threshold(r))
        )

    # class (i): a functional evaluating to 1 on every element
    for chi in range(1, 1 << r):
        if all(_inner(chi, v) for v in masks):
            kernel = [v for v in range(1, 1 << r) if _inner(chi, v) == 0]
            basis = []
            for v in kernel:
                w = reduce_mod_basis(v, basis)
                if w:
                    basis.append(w)
            return DavydovTombakClass(
                kind="index2-coset", functional=chi, subgroup_basis=tuple(sorted(basis))
            )

    # class (ii): five-coset configuration over an index-16 subgroup.
    # Bases are reduced echelon, so one reduction pass per row clears that
    # row's pivot bit and the residue is a canonical coset representative;
    # residues add by plain XOR, so quotient rank and sums can be read off
    # the residues directly.
    if r >= 4:
        for basis in _enumerate_subspace_bases(r, r - 4):
            classes: Dict[int, int] = {}
            for v in masks:
                classes.setdefault(reduce_mod_basis(v, basis), v)
            if 0 in classes:
                continue  # some element falls into the subgroup itself
            reps = sorted(classes)
            rk = mask_rank(reps)
            if len(reps) == 5:
                total = 0
                for v in reps:
                    total ^= v
                quotient_ok = rk == 4 and total == 0
            elif len(reps) == 4:
                quotient_ok = rk == 4
            elif len(reps) <= 3:
                quotient_ok = rk == len(reps)
            else:
                quotient_ok = False
            if quotient_ok:
                return DavydovTombakClass(
                    kind="five-coset",
                    subgroup_basis=tuple(sorted(basis)),
                    coset_reps=tuple(classes[rep] for rep in reps),
                )

    return DavydovTombakClass(kind="neither")
