"""Finite abelian groups in invariant-factor form.

A group is the direct sum of cyclic groups C_{n_1} + ... + C_{n_r} with
n_1 | n_2 | ... | n_r, each n_i >= 2. The empty factor list is the
trivial group. Elements are plain tuples of residues, one per factor, in
the same order; operations take the group as explicit context and
validate lengths, so elements stay compact inside large searches.

``make_group`` (and so ``parse_group``) hands out one shared ``Group`` per
invariant-factor tuple, from a weak-valued table that keeps no group
alive; the table also holds each shared group under its label, so
parsing a label ``format_group`` wrote is one lookup. A group keeps
what is derived from it in its instance dict, computed on first use:
its hash, its label (``format_group``), its ``profile``, the coordinate
tuples ``validate_element`` has accepted, the masked rotates of
``translation`` and its ``slot_rows``; the verifier keeps its step
properties there too. Kept data never enters equality, repr or
pickling, so a group built directly with ``Group(...)`` behaves as the
shared one, only without the sharing.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm, prod
from typing import Iterator, Sequence as Seq

Element = tuple  # tuple[int, ...], one residue per invariant factor


class GroupError(ValueError):
    pass


class GroupParseError(GroupError):
    """Raised on malformed group spec strings; carries the position."""

    def __init__(self, message: str, position: int):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


@dataclass(frozen=True)
class Group:
    invariant_factors: tuple

    def __post_init__(self):
        factors = self.invariant_factors
        for n in factors:
            if not isinstance(n, int) or n < 2:
                raise GroupError("invariant factors must be integers >= 2, got %r" % (n,))
        for a, b in zip(factors, factors[1:]):
            if b % a != 0:
                raise GroupError(
                    "not in invariant-factor form: %d does not divide %d" % (a, b)
                )

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)

    @property
    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors

    @property
    def is_elementary_2(self) -> bool:
        """True when every invariant factor equals 2 (and rank >= 1)."""
        return bool(self.invariant_factors) and all(
            n == 2 for n in self.invariant_factors
        )

    def __repr__(self) -> str:
        if self.is_trivial:
            return "Group(trivial)"
        return "Group(%s)" % "|".join(str(n) for n in self.invariant_factors)

    # Derived data, computed once and kept in the instance dict (see the
    # module docstring); __getstate__ leaves it out of pickles and copies.

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self) -> dict:
        return {"invariant_factors": self.invariant_factors}

    @cached_property
    def _hash(self) -> int:
        return hash((self.invariant_factors,))  # the dataclass hash

    @cached_property
    def _label(self) -> str:
        parts = []
        for n, run in itertools.groupby(self.invariant_factors):
            count = len(list(run))
            parts.append(str(n) if count == 1 else "%d^%d" % (n, count))
        return ",".join(parts)

    @cached_property
    def _profile(self) -> "GroupProfile":
        factors = self.invariant_factors
        return GroupProfile(
            order=self.order,
            exponent=self.exponent,
            rank=self.rank,
            d_star=sum(n - 1 for n in factors) + 1,
            minus_factors=factors[:-1],
        )

    @cached_property
    def _checked(self) -> set:
        return set()

    @cached_property
    def _rotates(self) -> dict:
        return {}

    @cached_property
    def _slot_rows(self) -> "_SlotRows":
        return _SlotRows(self)


@dataclass(frozen=True)
class GroupProfile:
    order: int
    exponent: int
    rank: int
    d_star: int
    minus_factors: tuple


def factorize(n: int) -> dict:
    """The prime factorization of n as {prime: exponent}, by trial
    division; empty for n < 2. Inputs are desk scale."""
    out: dict = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# the one shared Group under its invariant factors and under its label;
# weak-valued, so it keeps no group alive
_GROUPS: "weakref.WeakValueDictionary[object, Group]" = weakref.WeakValueDictionary()


def make_group(factors: Seq) -> Group:
    """Canonicalize an arbitrary cyclic decomposition.

    Accepts any list of integers >= 2 (in any order, e.g. [2,3] or
    [4,2,8]) and returns the group in invariant-factor form via
    elementary-divisor merging: per prime, the largest prime powers are
    multiplied into the largest invariant factor, and so on down. Every
    call for one group returns the same instance.
    """
    clean = []
    for n in factors:
        if isinstance(n, bool) or not isinstance(n, int):
            raise GroupError("group factors must be integers, got %r" % (n,))
        if n < 2:
            raise GroupError("group factors must be >= 2, got %d" % n)
        clean.append(int(n))
    invariant = tuple(clean)
    if any(b % a for a, b in zip(invariant, invariant[1:])):
        invariant = _invariant_factors(clean)
    G = _GROUPS.get(invariant)
    if G is None:
        G = Group(invariant)
        _GROUPS[invariant] = _GROUPS[G._label] = G
    return G


def _invariant_factors(clean: list) -> tuple:
    """The invariant factors of a nonempty list of integers >= 2."""
    per_prime: dict = {}
    for n in clean:
        for p, e in factorize(n).items():
            per_prime.setdefault(p, []).append(e)
    depth = max(len(v) for v in per_prime.values())
    for p in per_prime:
        exps = sorted(per_prime[p], reverse=True)
        exps += [0] * (depth - len(exps))
        per_prime[p] = exps
    # position 0 holds the largest prime powers, so build descending
    # then reverse into ascending invariant factors
    descending = []
    for i in range(depth):
        n_i = prod(p ** per_prime[p][i] for p in per_prime)
        descending.append(n_i)
    return tuple(reversed(descending))


def parse_group(text: str) -> Group:
    """Parse a group spec string.

    Grammar: comma-separated items, each either an integer ("2,2,2") or
    a power shorthand base^count ("2^4", "2^2,4"). Whitespace around
    items is ignored. The empty string denotes the trivial group.
    Errors report the character position of the offending token.
    """
    if not isinstance(text, str):
        raise GroupError("a group spec must be a string, got %r" % (text,))
    G = _GROUPS.get(text)  # the label of a shared group
    if G is not None:
        return G
    if text.strip() == "":
        return make_group([])
    factors = []
    pos = 0
    for chunk in text.split(","):
        item = chunk.strip()
        item_pos = pos + chunk.index(item) if item else pos
        if not item:
            raise GroupParseError("empty group factor", item_pos)
        if "^" in item:
            base_text, _, count_text = item.partition("^")
            base_text = base_text.strip()
            count_text = count_text.strip()
            if not base_text.isdigit():
                raise GroupParseError("expected integer base", item_pos)
            if not count_text.isdigit():
                raise GroupParseError(
                    "expected integer exponent after '^'", item_pos + item.index("^") + 1
                )
            base = int(base_text)
            count = int(count_text)
            if base < 2:
                raise GroupParseError("group factor must be >= 2", item_pos)
            if count < 1:
                raise GroupParseError("power count must be >= 1", item_pos)
            factors.extend([base] * count)
        else:
            if not item.isdigit():
                raise GroupParseError("expected integer group factor", item_pos)
            value = int(item)
            if value < 2:
                raise GroupParseError("group factor must be >= 2", item_pos)
            factors.append(value)
        pos += len(chunk) + 1
    return make_group(factors)


def format_group(G: Group) -> str:
    """Inverse of parse_group: run-length encoded factor list ("2^5", "2,4");
    kept on the group."""
    return G._label


def profile(G: Group) -> GroupProfile:
    """Order, exponent, rank, D* and the factors below the exponent; kept
    on the group, and frozen, so every caller may share one."""
    return G._profile


def _check_element(G: Group, a: Element) -> None:
    if len(a) != G.rank:
        raise GroupError(
            "element %r has %d coordinates, group has rank %d" % (a, len(a), G.rank)
        )


def zero(G: Group) -> Element:
    return (0,) * G.rank


def add(G: Group, a: Element, b: Element) -> Element:
    _check_element(G, a)
    _check_element(G, b)
    return tuple((x + y) % n for x, y, n in zip(a, b, G.invariant_factors))


def neg(G: Group, a: Element) -> Element:
    _check_element(G, a)
    return tuple((-x) % n for x, n in zip(a, G.invariant_factors))


def scale(G: Group, a: Element, m: int) -> Element:
    _check_element(G, a)
    return tuple((x * m) % n for x, n in zip(a, G.invariant_factors))


def element_order(G: Group, a: Element) -> int:
    _check_element(G, a)
    if G.rank == 0:
        return 1
    return lcm(*(n // gcd(n, x) for x, n in zip(a, G.invariant_factors))) if a else 1


def enumerate_elements(G: Group) -> Iterator[Element]:
    """All elements in lexicographic coordinate order."""
    return iter(itertools.product(*(range(n) for n in G.invariant_factors)))


def element_index(G: Group, a: Element) -> int:
    """Position of a in the lexicographic enumeration.

    For elementary 2-groups this is the big-endian bitmask of the
    coordinates, which the GF(2) fast paths rely on.
    """
    _check_element(G, a)
    idx = 0
    for x, n in zip(a, G.invariant_factors):
        if not (0 <= x < n):
            raise GroupError("coordinate %d out of range [0, %d)" % (x, n))
        idx = idx * n + x
    return idx


def element_at(G: Group, idx: int) -> Element:
    """Inverse of element_index."""
    if not (0 <= idx < G.order):
        raise GroupError("element index %d out of range" % idx)
    coords = []
    for n in reversed(G.invariant_factors):
        coords.append(idx % n)
        idx //= n
    return tuple(reversed(coords))


def translation(G: Group, a: Element) -> tuple:
    """Masked rotates that translate a set of elements by a.

    A set of elements is an int bitset over enumerate_elements positions.
    Adding y to coordinate i (factor m, stride s) moves the bits whose
    coordinate i is below m - y up by y*s and the rest down by (m - y)*s:
    one masked rotate (low, high, up, down), applied as
    t -> (t & low) << up | (t & high) >> down. The result holds one rotate
    per nonzero coordinate of a; applying them in turn translates by a.
    The group keeps each rotate under its (i, y), so the elements that
    share a coordinate share its masks: those of C_2^15 are 4 KB each.
    """
    _check_element(G, a)
    rotates = G._rotates
    out = []
    for i, y in enumerate(a):
        if y:
            rotate = rotates.get((i, y))
            if rotate is None:
                rotate = rotates[i, y] = _rotate(G, i, y)
            out.append(rotate)
    return tuple(out)


def _rotate(G: Group, i: int, y: int) -> tuple:
    """The masked rotate that adds y to coordinate i (see translation)."""
    n = G.order
    full = (1 << n) - 1
    m = G.invariant_factors[i]
    stride = n // prod(G.invariant_factors[: i + 1])
    period = m * stride
    # the lowest (m - y)*s bits of each period of m*s positions
    low = ((1 << (m - y) * stride) - 1) * (full // ((1 << period) - 1))
    return (low, full ^ low, y * stride, (m - y) * stride)


def validate_element(G: Group, coords: Seq) -> Element:
    """Check ranges and return the canonical tuple form.

    A tuple of exact ints that the group has accepted before passes on a
    set lookup. The type test comes first: (True, 0) and (1.0, 0) equal
    (1, 0), and ([1], 0) cannot be hashed, so each is refused below.
    """
    a = tuple(coords)
    for x in a:
        if type(x) is not int:
            break
    else:
        if a in G._checked:
            return a
    _check_element(G, a)
    for x, n in zip(a, G.invariant_factors):
        if not isinstance(x, int) or isinstance(x, bool) or not (0 <= x < n):
            raise GroupError("coordinate %r out of range [0, %d)" % (x, n))
    G._checked.add(a)
    return a


class _SlotRows(dict):
    """The slot rows of one group, filled as elements are first asked for:
    e -> (bit of e, bit of -e, rotates that translate by e, rotates that
    translate by -e). Bits and rotates act on int bitsets over
    enumerate_elements positions (see translation)."""

    __slots__ = ("group",)

    def __init__(self, G: Group):
        super().__init__()
        self.group = G

    def __missing__(self, e: Element) -> tuple:
        G = self.group
        m = neg(G, e)
        row = self[e] = (
            1 << element_index(G, e),
            1 << element_index(G, m),
            translation(G, e),
            translation(G, m),
        )
        return row


def slot_rows(G: Group) -> "_SlotRows":
    """The slot rows of G, kept on the group: the atom DFS of
    factorizations reads each support element's row from it."""
    return G._slot_rows
