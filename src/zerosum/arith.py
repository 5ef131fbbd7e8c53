"""Exact integer helpers shared across the toolkit.

All values are arbitrary-precision Python integers. No floating point is
used to produce any bound or invariant value; float seeds may appear
inside root isolation but every returned number is justified by exact
integer comparisons.
"""

from __future__ import annotations

from typing import Union


class _Infinite:
    """Distinguished value for invariants that are unbounded.

    A singleton. It compares strictly greater than every integer, equal
    only to itself, and serializes as the literal string "inf".
    """

    _instance: "_Infinite | None" = None

    def __new__(cls) -> "_Infinite":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFINITE"

    def __str__(self) -> str:
        return "inf"

    def __eq__(self, other: object) -> bool:
        return other is self

    def __hash__(self) -> int:
        return hash("zerosum.INFINITE")

    def __lt__(self, other: object) -> bool:
        if isinstance(other, (int, _Infinite)):
            return False
        return NotImplemented

    def __le__(self, other: object) -> bool:
        if isinstance(other, _Infinite):
            return True
        if isinstance(other, int):
            return False
        return NotImplemented

    def __gt__(self, other: object) -> bool:
        if isinstance(other, int):
            return True
        if isinstance(other, _Infinite):
            return False
        return NotImplemented

    def __ge__(self, other: object) -> bool:
        if isinstance(other, (int, _Infinite)):
            return True
        return NotImplemented


INFINITE = _Infinite()

ExtInt = Union[int, _Infinite]


def is_finite(value: ExtInt) -> bool:
    return not isinstance(value, _Infinite)


def ceil_div(a: int, b: int) -> int:
    """Exact ceiling of a/b for integers, b > 0."""
    assert b > 0
    return -((-a) // b)


def least_root_at_least(x: int, m: int) -> int:
    """Smallest integer u >= 0 with u**m >= x.

    Exact: a float seed is corrected by integer comparisons, so the
    result is right even when x is large or a perfect power.
    """
    assert m >= 1
    if x <= 0:
        return 0
    if x == 1:
        return 1
    try:
        u = int(round(float(x) ** (1.0 / m)))
    except OverflowError:
        u = 1 << ((x.bit_length() + m - 1) // m)
    u = max(u, 1)
    while u ** m >= x:
        u -= 1
        if u == 0:
            break
    # now u**m < x (or u == 0 with x > 0)
    while u ** m < x:
        u += 1
    return u


def serialize_value(value: ExtInt) -> "int | str":
    """JSON-friendly form: plain int, or the literal "inf"."""
    if isinstance(value, _Infinite):
        return "inf"
    return value


def parse_value(raw: "int | str") -> ExtInt:
    if raw == "inf":
        return INFINITE
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ValueError("expected an integer or the literal 'inf', got %r" % (raw,))
    return raw
