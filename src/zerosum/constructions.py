"""Explicit extremal sequences, bijections, and factorizations.

Four deterministic builders: the pair-pattern sequence behind the
enriched lower bound, a fixed-point-free-style doubling bijection on
elementary 2-groups, the longest factorization of the full squarefree
sequence over C_2^r, and the doubled cap that meets eta(C_3^r).
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Tuple

from .bounds import BoundError, elb_lower, eta_c3_applies
from .factorizations import Factorization
from .groups import Group, add, make_group, zero
from .sequences import Sequence

Element = Tuple[int, ...]


def elb_witness(G: Group, s: int, t: int, k: int) -> Sequence:
    """Long sequence with at most k-1 disjoint zero-sum blocks.

    Pair patterns over s slots are planted on the coordinates from
    position t on (one coordinate per pattern, in lexicographic pattern
    order), each scaled so its order drops to the t-th factor; the
    pattern sums, the near-full basis layers, and k-2 extra runs of the
    last generator make up the sequence. Its preconditions and length
    are those of bounds.elb_lower: the sequence is one element short of
    the bound, and BoundError is raised where the rule does not apply.
    """
    bound = elb_lower(G, s, t, k)
    factors = G.invariant_factors
    r = G.rank
    n_t = bound.input_value("n_t")

    def basis(i: int) -> Element:
        return tuple(1 if j == i - 1 else 0 for j in range(r))

    def scaled(i: int) -> Element:
        # order n_t element along coordinate i
        scale_by = factors[i - 1] // n_t
        return tuple(scale_by if j == i - 1 else 0 for j in range(r))

    position_of: Dict[Tuple[int, int], int] = {
        pat: t + idx for idx, pat in enumerate(combinations(range(1, s + 1), 2))
    }
    pattern_sums: List[Element] = []
    for j in range(1, s + 1):
        g_j = zero(G)
        for pat, pos in position_of.items():
            if j in pat:
                g_j = add(G, g_j, scaled(pos))
        pattern_sums.append(g_j)

    items: List[Element] = []
    for g_j in pattern_sums:
        items.extend([g_j] * (n_t // 2))
    if bound.input_value("delta"):
        items.append(pattern_sums[-1])
    for i in range(1, r + 1):
        items.extend([basis(i)] * (factors[i - 1] - 1))
    items.extend([basis(r)] * ((k - 2) * bound.input_value("n_r")))
    seq = Sequence.from_elements(G, items)
    if seq.length != bound.value - 1:
        raise AssertionError(
            "length %d is not one short of the lb.elb bound %d" % (seq.length, bound.value)
        )
    return seq


# Fixed base tables: coordinates are big-endian, first coordinate is the
# high bit. Both tables are bijections whose doubling map g + phi(g) is
# also a bijection.
_PAIGE_BASE_2: Dict[Element, Element] = {
    (0, 0): (0, 0),
    (1, 0): (0, 1),
    (0, 1): (1, 1),
    (1, 1): (1, 0),
}

_PAIGE_BASE_3: Dict[Element, Element] = {
    (0, 0, 0): (0, 0, 0),
    (1, 0, 0): (1, 1, 0),
    (0, 1, 0): (0, 1, 1),
    (0, 0, 1): (1, 0, 0),
    (1, 1, 0): (1, 0, 1),
    (1, 0, 1): (0, 1, 0),
    (0, 1, 1): (1, 1, 1),
    (1, 1, 1): (0, 0, 1),
}


def paige_bijection(r: int) -> Dict[Element, Element]:
    """Bijection phi of C_2^r whose doubling map g + phi(g) is onto.

    Built from the fixed rank-2 and rank-3 tables by gluing a rank-2
    block onto the front, two ranks at a time.
    """
    if r < 2:
        raise BoundError("need rank at least 2")
    if r == 2:
        return dict(_PAIGE_BASE_2)
    if r == 3:
        return dict(_PAIGE_BASE_3)
    tail = paige_bijection(r - 2)
    out: Dict[Element, Element] = {}
    for head, head_img in _PAIGE_BASE_2.items():
        for rest, rest_img in tail.items():
            out[head + rest] = head_img + rest_img
    return out


def maxfull_factorization(r: int) -> Factorization:
    """Factorization of the full squarefree sequence over C_2^r into
    the largest possible number of blocks, floor((2^r - 1) / 3).

    Rank 2 and 3 are fixed small tables; larger ranks split off one
    triple per element of an index-4 subgroup, pairing the three
    nonzero head patterns through the doubling bijection, then recurse.
    """
    if r < 2:
        raise BoundError("need rank at least 2")
    G = make_group((2,) * r)
    atoms = [Sequence.from_elements(G, atom) for atom in _maxfull_atoms(r)]
    return Factorization.from_atoms(G, atoms)


def _maxfull_atoms(r: int) -> List[List[Element]]:
    if r == 2:
        return [[(1, 0), (0, 1), (1, 1)]]
    if r == 3:
        return [
            [(1, 0, 0), (0, 1, 0), (1, 1, 0)],
            [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)],
        ]
    phi = paige_bijection(r - 2)
    atoms: List[List[Element]] = []
    for h, phi_h in phi.items():
        doubled = tuple(a ^ b for a, b in zip(h, phi_h))
        atoms.append(
            [
                (1, 0) + h,
                (0, 1) + phi_h,
                (1, 1) + doubled,
            ]
        )
    for tail_atom in _maxfull_atoms(r - 2):
        atoms.append([(0, 0) + g for g in tail_atom])
    return atoms


# Caps of AG(r, 3) through 0: no three distinct points sum to 0, which is
# no three on a line. The 9-cap is 0 and the support of the lex-least
# longest sequence over C_3^3 without zero-sums of length <= 3; the
# 20-cap, of the largest size in AG(4, 3), is one a seeded random greedy
# found.
C3_CAP_3: Tuple[Element, ...] = (
    (0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0),
    (1, 0, 1), (1, 1, 2), (1, 2, 2), (2, 1, 2),
)

C3_CAP_4: Tuple[Element, ...] = (
    (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (0, 0, 2, 1), (0, 1, 2, 1),
    (0, 2, 1, 0), (1, 0, 0, 0), (1, 0, 0, 2), (1, 0, 1, 2), (1, 0, 2, 0),
    (1, 1, 2, 0), (1, 2, 1, 2), (2, 1, 0, 1), (2, 1, 0, 2), (2, 1, 1, 0),
    (2, 1, 1, 2), (2, 2, 0, 1), (2, 2, 0, 2), (2, 2, 2, 0), (2, 2, 2, 1),
)


# c3_cap(r) is the product of these caps
_C3_CAP_FACTORS = {
    3: (C3_CAP_3,),
    4: (C3_CAP_4,),
    5: (((0,), (1,)), C3_CAP_4),
    6: (C3_CAP_3, C3_CAP_3),
}


def c3_cap(r: int) -> Tuple[Element, ...]:
    """A cap of AG(r, 3) through 0, for 3 <= r <= 6: the stored 9- and
    20-caps, {0, e_1} x the 20-cap (40 points) for r = 5, and the 9-cap
    x the 9-cap (81 points) for r = 6.

    A product of caps is a cap: three distinct points (a_i, b_i) summing
    to 0 have a_1 + a_2 + a_3 = 0 and b_1 + b_2 + b_3 = 0. In a cap three
    points summing to 0 are one point taken thrice, as x + x + y = 0
    forces y = x over C_3; so the a_i agree, the b_i agree, and the three
    points are one.
    """
    if r not in _C3_CAP_FACTORS:
        raise BoundError("stored caps cover 3 <= r <= 6")
    points: List[Element] = [()]
    for factor in _C3_CAP_FACTORS[r]:
        points = [p + q for p in points for q in factor]
    return tuple(points)


def c3_cap_witness(G: Group) -> Sequence:
    """Each nonzero point of c3_cap(r) taken twice, over G = C_3^r: a
    sequence with no zero-sum of length <= 3, of length 2(|cap| - 1)."""
    if not eta_c3_applies(G):
        raise BoundError("the cap witness needs C_3^r with 3 <= r <= 6")
    return Sequence.from_counts(G, {p: 2 for p in c3_cap(G.rank) if any(p)})
