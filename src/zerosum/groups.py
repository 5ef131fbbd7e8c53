"""Finite abelian groups in invariant-factor form.

A group is the direct sum of cyclic groups C_{n_1} + ... + C_{n_r} with
n_1 | n_2 | ... | n_r, each n_i >= 2. The empty factor list is the
trivial group. Elements are plain tuples of residues, one per factor, in
the same order; operations take the group as explicit context and
validate lengths, so elements stay compact inside large searches.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
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


@dataclass(frozen=True)
class GroupProfile:
    order: int
    exponent: int
    rank: int
    d_star: int
    minus_factors: tuple


def _factorize(n: int) -> dict:
    """Prime factorization by trial division; inputs are desk scale."""
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


def make_group(factors: Seq) -> Group:
    """Canonicalize an arbitrary cyclic decomposition.

    Accepts any list of integers >= 2 (in any order, e.g. [2,3] or
    [4,2,8]) and returns the group in invariant-factor form via
    elementary-divisor merging: per prime, the largest prime powers are
    multiplied into the largest invariant factor, and so on down.
    """
    clean = []
    for n in factors:
        if isinstance(n, bool) or not isinstance(n, int):
            raise GroupError("group factors must be integers, got %r" % (n,))
        if n < 2:
            raise GroupError("group factors must be >= 2, got %d" % n)
        clean.append(n)
    if not clean:
        return Group(())
    per_prime: dict = {}
    for n in clean:
        for p, e in _factorize(n).items():
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
    invariant = tuple(reversed(descending))
    return Group(invariant)


def parse_group(text: str) -> Group:
    """Parse a group spec string.

    Grammar: comma-separated items, each either an integer ("2,2,2") or
    a power shorthand base^count ("2^4", "2^2,4"). Whitespace around
    items is ignored. The empty string denotes the trivial group.
    Errors report the character position of the offending token.
    """
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
    """Inverse of parse_group: run-length encoded factor list ("2^5", "2,4")."""
    parts = []
    factors = G.invariant_factors
    i = 0
    while i < len(factors):
        j = i
        while j < len(factors) and factors[j] == factors[i]:
            j += 1
        count = j - i
        parts.append(str(factors[i]) if count == 1 else "%d^%d" % (factors[i], count))
        i = j
    return ",".join(parts)


def profile(G: Group) -> GroupProfile:
    d_star = sum(n - 1 for n in G.invariant_factors) + 1
    minus = G.invariant_factors[:-1] if G.rank >= 1 else ()
    return GroupProfile(
        order=G.order,
        exponent=G.exponent,
        rank=G.rank,
        d_star=d_star,
        minus_factors=minus,
    )


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


def validate_element(G: Group, coords: Seq) -> Element:
    """Check ranges and return the canonical tuple form."""
    a = tuple(coords)
    _check_element(G, a)
    for x, n in zip(a, G.invariant_factors):
        if not isinstance(x, int) or isinstance(x, bool) or not (0 <= x < n):
            raise GroupError("coordinate %r out of range [0, %d)" % (x, n))
    return a
