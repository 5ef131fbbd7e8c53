"""Closed-form and recursive bound calculators for k-wise zero-sum constants.

Every rule is a pure function from named integer inputs to a value,
packaged as a BoundReport that records the inputs with their provenance
so the value can be re-derived later without repeating any search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import factorial, isqrt
from typing import Callable, Dict, List, Optional, Sequence as Seq, Tuple

from .arith import INFINITE, ExtInt, ceil_div, is_finite, least_root_at_least, serialize_value
from .groups import Group, profile


class BoundError(ValueError):
    """A bound rule was invoked outside its preconditions."""


class BoundConsistencyError(RuntimeError):
    """Some lower bound exceeded some upper bound for the same target."""


COMPUTED = "computed"
SUPPLIED = "supplied"
SEARCH = "search"

_PROVENANCES = (COMPUTED, SUPPLIED, SEARCH)


@dataclass(frozen=True)
class InputValue:
    value: object  # int, INFINITE, or tuple of ints
    provenance: str = SUPPLIED

    def __post_init__(self):
        if self.provenance not in _PROVENANCES:
            raise ValueError("unknown provenance %r" % self.provenance)

    def to_json(self):
        v = self.value
        if isinstance(v, tuple):
            v = list(v)
        elif v is INFINITE:
            v = serialize_value(v)
        return {"value": v, "provenance": self.provenance}


@dataclass(frozen=True)
class BoundReport:
    rule_id: str
    direction: str  # "lower" | "upper"
    value: ExtInt
    inputs: Tuple[Tuple[str, InputValue], ...]
    constant: str = "D_k"  # which quantity the bound constrains
    note: str = ""

    def __post_init__(self):
        if self.direction not in ("lower", "upper"):
            raise ValueError("direction must be lower or upper")

    def input_value(self, name: str):
        for key, iv in self.inputs:
            if key == name:
                return iv.value
        raise KeyError(name)

    def to_json(self) -> dict:
        out = {
            "rule": self.rule_id,
            "direction": self.direction,
            "constant": self.constant,
            "value": serialize_value(self.value),
            "inputs": {name: iv.to_json() for name, iv in self.inputs},
        }
        if self.note:
            out["note"] = self.note
        return out


def _inputs(pairs: Seq[Tuple[str, object, str]]) -> Tuple[Tuple[str, InputValue], ...]:
    return tuple((name, InputValue(value, prov)) for name, value, prov in pairs)


# ---------------------------------------------------------------------------
# Upper bounds


def k_times_d(k: int, D: int, d_prov: str = SUPPLIED) -> BoundReport:
    """Each of the k blocks is at most a longest minimal zero-sum."""
    if k < 1 or D < 1:
        raise BoundError("k and D must be positive")
    return BoundReport(
        rule_id="ub.k_times_d",
        direction="upper",
        value=k * D,
        inputs=_inputs([("k", k, SUPPLIED), ("D", D, d_prov)]),
    )


def lower_max_length(
    ell: Seq[int], s_values: Seq[ExtInt], D: int, m: int
) -> int:
    """Minimum number of blocks any zero-sum sequence of length m forces.

    Greedy layer counts: the i-th layer removes blocks of length at most
    ell[i] while more than s_values[i] - 1 elements remain, and a final
    layer removes blocks of length at most D.
    """
    if len(ell) != len(s_values):
        raise BoundError("ell and s_values must align")
    if any(not is_finite(s) for s in s_values):
        raise BoundError("threshold values must be finite")
    if list(ell) != sorted(set(ell)):
        raise BoundError("ell must be strictly increasing")
    used = 0
    total = 0
    for l_i, s_i in zip(ell, s_values):
        k_i = max(0, ceil_div(m - used - s_i + 1, l_i))
        total += k_i
        used += k_i * l_i
    total += max(0, ceil_div(m - used, D))
    return total


def _recursion_scan(ell: Seq[int], s_values: Seq[ExtInt], D: int, k: int) -> int:
    """Largest m whose forced block count lower_max_length stays within k."""
    m = 0
    while lower_max_length(ell, s_values, D, m + 1) <= k:
        m += 1
        if m > k * D:
            raise BoundError("scan escaped its ceiling; inputs inconsistent")
    return m


def ub_recursion(
    G: Group,
    ell: Seq[int],
    s_values: Seq[ExtInt],
    D: int,
    k: int,
    s_prov: str = SUPPLIED,
    d_prov: str = SUPPLIED,
) -> BoundReport:
    """Largest length whose forced block count stays within k.

    With the single level [ell_1] and threshold s this never exceeds the
    one-long-block cap of remark_ub: the last layer counts ceil(rest / D)
    blocks where the cap keeps the rest whole. The two agree exactly when
    D >= s - ell_1, and the recursion is strictly smaller otherwise.
    """
    prof = profile(G)
    if any(not is_finite(s) for s in s_values):
        raise BoundError("threshold values must be finite")
    if ell:
        if ell[0] < prof.exponent or ell[-1] > D:
            raise BoundError(
                "ell must stay within [exponent, D]"
            )
        if list(ell) != sorted(set(ell)):
            raise BoundError("ell must be strictly increasing")
    m = _recursion_scan(ell, s_values, D, k)
    return BoundReport(
        rule_id="ub.recursion",
        direction="upper",
        value=m,
        inputs=_inputs(
            [
                ("k", k, SUPPLIED),
                ("ell", tuple(ell), SUPPLIED),
                ("s_values", tuple(s_values), s_prov),
                ("D", D, d_prov),
            ]
        ),
    )


def remark_ub(
    G: Group,
    k: int,
    ell_1: int,
    s_value: ExtInt,
    D: int,
    s_prov: str = SUPPLIED,
    d_prov: str = SUPPLIED,
) -> BoundReport:
    """All blocks but one kept short: (k-1) ell_1 + max(D, s - ell_1).

    Never below ub_recursion with the single level [ell_1]; the two agree
    exactly when D >= s - ell_1.
    """
    prof = profile(G)
    if not is_finite(s_value):
        raise BoundError("threshold value must be finite")
    if not prof.exponent <= ell_1 <= max(prof.exponent, D - 1):
        raise BoundError("ell_1 must lie in [exponent, D-1]")
    value = (k - 1) * ell_1 + max(D, s_value - ell_1)
    return BoundReport(
        rule_id="ub.remark",
        direction="upper",
        value=value,
        inputs=_inputs(
            [
                ("k", k, SUPPLIED),
                ("ell_1", ell_1, SUPPLIED),
                ("s_value", s_value, s_prov),
                ("D", D, d_prov),
            ]
        ),
    )


def step_ub(
    dk: int, ell: int, s_value: ExtInt, dk_prov: str = SUPPLIED, s_prov: str = SUPPLIED
) -> BoundReport:
    """One more block: either it fits in ell, or few elements remain."""
    if not is_finite(s_value):
        raise BoundError("threshold value must be finite")
    return BoundReport(
        rule_id="ub.step",
        direction="upper",
        value=max(dk + ell, s_value - 1),
        inputs=_inputs(
            [("dk", dk, dk_prov), ("ell", ell, SUPPLIED), ("s_value", s_value, s_prov)]
        ),
    )


def s_le_from_extension(
    n: int, D_ext: int, D_G: int, ext_prov: str = SUPPLIED, d_prov: str = SUPPLIED
) -> BoundReport:
    """Short-block threshold bounded through a cyclic extension."""
    if n < 1:
        raise BoundError("n must be positive")
    m = max((D_ext // n) * n // 2, (D_G // n) * n)
    return BoundReport(
        rule_id="ub.extension",
        direction="upper",
        value=D_ext,
        constant="s_le",
        inputs=_inputs(
            [
                ("n", n, SUPPLIED),
                ("D_ext", D_ext, ext_prov),
                ("D_G", D_G, d_prov),
                ("m", m, COMPUTED),
            ]
        ),
        note="bounds the threshold for blocks of length at most m",
    )


def cpr_upper(p: int, r: int, k: int, m: int) -> BoundReport:
    """Homogeneous-group bound via the two layer strategies."""
    if r < 2 or k < 1 or m < 1:
        raise BoundError("need r >= 2, k >= 1, m >= 1")
    if not r * (p - 1) + 1 < 2 * p**m:
        raise BoundError("need r(p-1)+1 < 2 p^m")
    value = min((k * (r - 1) + 1) * p - r + 1, (k - 1) * p**m + r * (p - 1) + 1)
    return BoundReport(
        rule_id="ub.cpr",
        direction="upper",
        value=value,
        inputs=_inputs(
            [("p", p, SUPPLIED), ("r", r, SUPPLIED), ("k", k, SUPPLIED), ("m", m, SUPPLIED)]
        ),
    )


def inductive_ub(
    sub_dk: int,
    quotient_dk: Optional[int] = None,
    ell: Optional[int] = None,
    D_quot: Optional[int] = None,
    s_quot: Optional[ExtInt] = None,
    sub_prov: str = SUPPLIED,
    quot_prov: str = SUPPLIED,
) -> BoundReport:
    """Push blocks through a coordinate-aligned summand.

    Either supply the quotient's table value at index sub_dk, or an
    (ell, D_quot, s_quot) triple to close with the one-long-block form.
    """
    if quotient_dk is not None:
        return BoundReport(
            rule_id="ub.inductive",
            direction="upper",
            value=quotient_dk,
            inputs=_inputs(
                [("sub_dk", sub_dk, sub_prov), ("quotient_dk", quotient_dk, quot_prov)]
            ),
        )
    if ell is None or D_quot is None or s_quot is None:
        raise BoundError("supply quotient_dk or the (ell, D_quot, s_quot) triple")
    if not is_finite(s_quot):
        raise BoundError("threshold value must be finite")
    value = (sub_dk - 1) * ell + max(D_quot, s_quot - ell)
    return BoundReport(
        rule_id="ub.inductive",
        direction="upper",
        value=value,
        inputs=_inputs(
            [
                ("sub_dk", sub_dk, sub_prov),
                ("ell", ell, SUPPLIED),
                ("D_quot", D_quot, quot_prov),
                ("s_quot", s_quot, quot_prov),
            ]
        ),
    )


def delta_upper(G: Group) -> BoundReport:
    """Crude cap on the largest factorization-length jump."""
    order = profile(G).order
    note = ""
    if order <= 2:
        note = "vacuous: groups of order at most 2 have no length jumps"
    return BoundReport(
        rule_id="ub.delta",
        direction="upper",
        value=(2 * order) ** (3 * order + 1),
        constant="delta",
        inputs=_inputs([("order", order, COMPUTED)]),
        note=note,
    )


def kd_upper(
    G: Group,
    delta_val: Optional[int] = None,
    atoms_count: Optional[int] = None,
    eta_val: Optional[int] = None,
    d_minus: Optional[int] = None,
) -> BoundReport:
    """Onset index of the eventual arithmetic progression of D_k.

    With the refined inputs the bound is delta * exponent * atoms + eta
    - d_minus; with none it falls back to the crude closed form.
    """
    prof = profile(G)
    refined = (delta_val, atoms_count, eta_val, d_minus)
    if all(v is not None for v in refined):
        value = delta_val * prof.exponent * atoms_count + eta_val - d_minus
        return BoundReport(
            rule_id="ub.kd",
            direction="upper",
            value=value,
            constant="k_D",
            inputs=_inputs(
                [
                    ("delta", delta_val, SUPPLIED),
                    ("exponent", prof.exponent, COMPUTED),
                    ("atoms", atoms_count, SUPPLIED),
                    ("eta", eta_val, SUPPLIED),
                    ("d_minus", d_minus, SUPPLIED),
                ]
            ),
        )
    if any(v is not None for v in refined):
        raise BoundError("supply all refined inputs or none")
    order = prof.order
    return BoundReport(
        rule_id="ub.kd",
        direction="upper",
        value=(2 * order) ** (4 * order + 2),
        constant="k_D",
        inputs=_inputs([("order", order, COMPUTED)]),
        note="crude closed form",
    )


# ---------------------------------------------------------------------------
# Lower bounds


def lower_direct_sum(dk1: int, dk2: int, prov1: str = SUPPLIED, prov2: str = SUPPLIED) -> BoundReport:
    """Concatenate extremal sequences of two summands."""
    return BoundReport(
        rule_id="lb.direct_sum",
        direction="lower",
        value=dk1 + dk2 - 1,
        inputs=_inputs([("dk1", dk1, prov1), ("dk2", dk2, prov2)]),
    )


def lower_dstar(G: Group, k: int) -> BoundReport:
    """Independent layers plus k-1 extra copies of a max-order element."""
    prof = profile(G)
    return BoundReport(
        rule_id="lb.dstar",
        direction="lower",
        value=prof.d_star + (k - 1) * prof.exponent,
        inputs=_inputs(
            [
                ("k", k, SUPPLIED),
                ("d_star", prof.d_star, COMPUTED),
                ("exponent", prof.exponent, COMPUTED),
            ]
        ),
    )


def elb_lower(G: Group, s: int, t: int, k: int) -> BoundReport:
    """Pair-pattern enrichment of the independent-layer sequence."""
    prof = profile(G)
    factors = G.invariant_factors
    r = prof.rank
    if r == 0:
        raise BoundError("trivial group has no coordinates")
    if s < 2 or k < 2 or not 1 <= t <= r:
        raise BoundError("need s >= 2, k >= 2, t in [1, rank]")
    if s * (s - 1) // 2 > r - t + 1:
        raise BoundError("pair patterns exceed available coordinates")
    n_t = factors[t - 1]
    n_r = factors[r - 1]
    delta = n_t % 2
    value = prof.d_star + s * (n_t // 2) + delta + (k - 2) * n_r
    return BoundReport(
        rule_id="lb.elb",
        direction="lower",
        value=value,
        inputs=_inputs(
            [
                ("k", k, SUPPLIED),
                ("s", s, SUPPLIED),
                ("t", t, SUPPLIED),
                ("d_star", prof.d_star, COMPUTED),
                ("n_t", n_t, COMPUTED),
                ("n_r", n_r, COMPUTED),
                ("delta", delta, COMPUTED),
            ]
        ),
    )


def step_append_lower(dk: int, dk_prov: str = SUPPLIED) -> BoundReport:
    """Append an element and its inverse to any extremal sequence."""
    return BoundReport(
        rule_id="lb.step_append",
        direction="lower",
        value=dk + 2,
        inputs=_inputs([("dk", dk, dk_prov)]),
    )


# ---------------------------------------------------------------------------
# Elementary 2-group specials


def e2g_d2_upper(r: int) -> BoundReport:
    """Strict half-integer cap on the 2-block constant."""
    if r < 1:
        raise BoundError("rank must be positive")
    return BoundReport(
        rule_id="ub.e2g_d2",
        direction="upper",
        value=(3 * r + 5) // 2,
        inputs=_inputs([("r", r, SUPPLIED)]),
    )


def e2g_s2m_upper(r: int, m: int) -> BoundReport:
    """Counting bound on the threshold for blocks of length <= 2m."""
    if m < 2:
        raise BoundError("need m >= 2")
    u = least_root_at_least(factorial(m) * 2**r, m)
    return BoundReport(
        rule_id="ub.e2g_s2m",
        direction="upper",
        value=(m - 1) + u,
        constant="s_le",
        inputs=_inputs([("r", r, SUPPLIED), ("m", m, SUPPLIED), ("root", u, COMPUTED)]),
        note="bounds the threshold for blocks of length at most 2m",
    )


def e2g_split_upper(
    s: int, sub_dk: int, rest_value: int, sub_prov: str = SUPPLIED, rest_prov: str = SUPPLIED
) -> BoundReport:
    """Split off s coordinates and recurse on the rest."""
    if s < 0:
        raise BoundError("s must be nonnegative")
    return BoundReport(
        rule_id="ub.e2g_split",
        direction="upper",
        value=rest_value + s,
        inputs=_inputs(
            [("s", s, SUPPLIED), ("sub_dk", sub_dk, sub_prov), ("rest", rest_value, rest_prov)]
        ),
    )


def e2g_d0_bounds(r: int) -> Tuple[BoundReport, BoundReport]:
    """Bracket on the eventual offset of the progression."""
    if r < 1:
        raise BoundError("rank must be positive")
    lo = ceil_div((1 << r) - 1, 3)
    hi = lo + isqrt(1 << r)
    lower = BoundReport(
        rule_id="lb.e2g_d0",
        direction="lower",
        value=lo,
        constant="D_0",
        inputs=_inputs([("r", r, SUPPLIED)]),
    )
    upper = BoundReport(
        rule_id="ub.e2g_d0",
        direction="upper",
        value=hi,
        constant="D_0",
        inputs=_inputs([("r", r, SUPPLIED)]),
    )
    return lower, upper


def e2g_kd_upper(r: int) -> BoundReport:
    """Onset index bounded by the largest full-support block count."""
    if r < 1:
        raise BoundError("rank must be positive")
    return BoundReport(
        rule_id="ub.e2g_kd",
        direction="upper",
        value=((1 << r) - 1) // 3,
        constant="k_D",
        inputs=_inputs([("r", r, SUPPLIED)]),
    )


def e2g_bounds(r: int, k: int, split_inputs=None) -> List[BoundReport]:
    """All elementary-2-group special bounds that apply to (r, k)."""
    out: List[BoundReport] = []
    if k == 2:
        out.append(e2g_d2_upper(r))
    out.append(e2g_s2m_upper(r, 2))
    if split_inputs is not None:
        out.append(e2g_split_upper(*split_inputs))
    lo, hi = e2g_d0_bounds(r)
    out.extend([lo, hi])
    out.append(e2g_kd_upper(r))
    return out


# ---------------------------------------------------------------------------
# Re-evaluation of rules from recorded inputs


def _listed(raw):
    return tuple(raw) if isinstance(raw, (list, tuple)) else raw


def _eval_recursion(inp: Dict[str, object]) -> int:
    return _recursion_scan(
        list(_listed(inp["ell"])), list(_listed(inp["s_values"])), inp["D"], inp["k"]
    )


RULE_EVALUATORS: Dict[str, Callable[[Dict[str, object]], object]] = {
    "ub.k_times_d": lambda i: i["k"] * i["D"],
    "ub.recursion": _eval_recursion,
    "ub.remark": lambda i: (i["k"] - 1) * i["ell_1"] + max(i["D"], i["s_value"] - i["ell_1"]),
    "ub.step": lambda i: max(i["dk"] + i["ell"], i["s_value"] - 1),
    "ub.extension": lambda i: i["D_ext"],
    "ub.cpr": lambda i: min(
        (i["k"] * (i["r"] - 1) + 1) * i["p"] - i["r"] + 1,
        (i["k"] - 1) * i["p"] ** i["m"] + i["r"] * (i["p"] - 1) + 1,
    ),
    "ub.inductive": lambda i: (
        (i["sub_dk"] - 1) * i["ell"] + max(i["D_quot"], i["s_quot"] - i["ell"])
        if "ell" in i
        else i["quotient_dk"]
    ),
    "ub.delta": lambda i: (2 * i["order"]) ** (3 * i["order"] + 1),
    "ub.kd": lambda i: (
        i["delta"] * i["exponent"] * i["atoms"] + i["eta"] - i["d_minus"]
        if "delta" in i
        else (2 * i["order"]) ** (4 * i["order"] + 2)
    ),
    "lb.direct_sum": lambda i: i["dk1"] + i["dk2"] - 1,
    "lb.dstar": lambda i: i["d_star"] + (i["k"] - 1) * i["exponent"],
    "lb.elb": lambda i: i["d_star"]
    + i["s"] * (i["n_t"] // 2)
    + i["delta"]
    + (i["k"] - 2) * i["n_r"],
    "lb.step_append": lambda i: i["dk"] + 2,
    "ub.e2g_d2": lambda i: (3 * i["r"] + 5) // 2,
    "ub.e2g_s2m": lambda i: (i["m"] - 1)
    + least_root_at_least(factorial(i["m"]) * 2 ** i["r"], i["m"]),
    "ub.e2g_split": lambda i: i["rest"] + i["s"],
    "lb.e2g_d0": lambda i: ceil_div((1 << i["r"]) - 1, 3),
    "ub.e2g_d0": lambda i: ceil_div((1 << i["r"]) - 1, 3) + isqrt(1 << i["r"]),
    "ub.e2g_kd": lambda i: ((1 << i["r"]) - 1) // 3,
}


def evaluate_rule(rule_id: str, inputs: Dict[str, object]):
    """Recompute a rule's value from plain named inputs.

    Search steps (rule ids starting with "search.") have no closed form
    and are outside this dispatcher on purpose.
    """
    fn = RULE_EVALUATORS.get(rule_id)
    if fn is None:
        raise BoundError("no evaluator for rule %r" % rule_id)
    return fn(inputs)


# ---------------------------------------------------------------------------
# Assembly


@dataclass
class KnownValues:
    """Inputs a bound sweep may draw on, each with its provenance."""

    D: Optional[int] = None
    d_prov: str = SUPPLIED
    s_le: Dict[int, ExtInt] = field(default_factory=dict)
    s_prov: str = SUPPLIED


def _ell_vectors(candidates: Seq[int]) -> List[Tuple[int, ...]]:
    out: List[Tuple[int, ...]] = [()]
    cand = sorted(set(candidates))
    for size in (1, 2, 3):
        out.extend(combinations(cand, size))
    return out


def _usable_levels(G: Group, s_values: Dict[int, ExtInt], D: int) -> List[int]:
    """Levels with a finite threshold inside [exponent, D], ascending."""
    exp = profile(G).exponent
    return sorted(l for l, s in s_values.items() if is_finite(s) and exp <= l <= D)


def best_recursion(
    G: Group,
    s_values: Dict[int, ExtInt],
    D: int,
    k: int,
    s_prov: str = SUPPLIED,
    d_prov: str = SUPPLIED,
) -> BoundReport:
    """The least ub_recursion over up to three usable levels.

    s_values maps a level to its threshold s_le. The empty level list
    comes first, then the lists in combinations order; the first
    minimum wins.
    """
    best: Optional[BoundReport] = None
    for vec in _ell_vectors(_usable_levels(G, s_values, D)):
        rep = ub_recursion(
            G, vec, [s_values[l] for l in vec], D, k, s_prov=s_prov, d_prov=d_prov
        )
        if best is None or rep.value < best.value:
            best = rep
    return best


def collect_bounds(G: Group, k: int, known: KnownValues) -> List[BoundReport]:
    """Every applicable bound on the k-block constant, best settings first.

    Raises BoundConsistencyError when any lower bound exceeds any upper
    bound, since that can only mean an input or a rule is wrong.
    """
    prof = profile(G)
    out: List[BoundReport] = []
    if prof.order == 1:
        raise BoundError("trivial group is handled by direct computation")
    out.append(lower_dstar(G, k))
    if k >= 2:
        best_elb: Optional[BoundReport] = None
        for t in range(1, prof.rank + 1):
            for s in range(2, prof.rank + 2):
                if s * (s - 1) // 2 > prof.rank - t + 1:
                    break
                rep = elb_lower(G, s, t, k)
                if best_elb is None or rep.value > best_elb.value:
                    best_elb = rep
        if best_elb is not None:
            out.append(best_elb)
    if known.D is not None:
        D = known.D
        out.append(k_times_d(k, D, d_prov=known.d_prov))
        best_rec = best_recursion(G, known.s_le, D, k, known.s_prov, known.d_prov)
        if best_rec.input_value("ell"):
            out.append(best_rec)
        for ell_1 in _usable_levels(G, known.s_le, D):
            if ell_1 <= max(prof.exponent, D - 1):
                out.append(
                    remark_ub(
                        G,
                        k,
                        ell_1,
                        known.s_le[ell_1],
                        D,
                        s_prov=known.s_prov,
                        d_prov=known.d_prov,
                    )
                )
    if prof.exponent == 2 and k == 2:
        out.append(e2g_d2_upper(prof.rank))
    check_consistency(out)
    return out


def check_consistency(reports: Seq[BoundReport]) -> None:
    by_constant: Dict[str, List[BoundReport]] = {}
    for rep in reports:
        by_constant.setdefault(rep.constant, []).append(rep)
    for constant, reps in by_constant.items():
        lowers = [r for r in reps if r.direction == "lower"]
        uppers = [r for r in reps if r.direction == "upper"]
        for lo in lowers:
            for hi in uppers:
                if is_finite(hi.value) and lo.value > hi.value:
                    raise BoundConsistencyError(
                        "%s: lower %s=%s exceeds upper %s=%s"
                        % (constant, lo.rule_id, lo.value, hi.rule_id, hi.value)
                    )
