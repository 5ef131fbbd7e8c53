"""Bound rules for k-wise zero-sum constants, each defined once.

A bound rule is a function of named inputs, registered in RULES under
its rule id. It returns the rule's value, and raises BoundError when the
inputs break the rule's precondition. report() builds a BoundReport from
(name, value, provenance) triples and takes its value from the rule, so
a calculator below checks only what needs the group and is not recorded
in the step, then returns report(...). A search is a rule too, giving
its step's value from the search's record. verify_certificate
re-evaluates a recorded step through the same rule with evaluate_rule,
preconditions included, and never repeats a search.

RULES also says what a rule bounds: the constant registered with it,
from below for an lb. rule and from above for every other family. A
step takes both from its rule, so no certificate can relabel them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb, factorial, isqrt
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence as Seq, Tuple

from .arith import (
    INFINITE,
    ExtInt,
    ceil_div,
    is_finite,
    least_root_at_least,
    parse_value,
    serialize_value,
)
from .groups import Group, factorize, format_group, parse_group, profile


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
    """One bound step: a rule applied to recorded inputs. Its direction
    and constant are its rule's. A search step also carries a digest of
    its inputs."""

    rule_id: str
    value: ExtInt
    inputs: Tuple[Tuple[str, InputValue], ...]
    note: str = ""
    digest: Optional[str] = None

    @property
    def direction(self) -> str:
        """lower for an lb. rule, upper for every other family."""
        return "lower" if self.rule_id.startswith("lb.") else "upper"

    @property
    def constant(self) -> Optional[str]:
        """The quantity the step's rule bounds; None for an unknown rule."""
        rule = RULES.get(self.rule_id)
        return None if rule is None else rule.constant

    def input_value(self, name: str):
        for key, iv in self.inputs:
            if key == name:
                return iv.value
        raise KeyError(name)

    def plain_inputs(self) -> Dict[str, object]:
        return {name: iv.value for name, iv in self.inputs}

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
        if self.digest is not None:
            out["digest"] = self.digest
        return out

    @classmethod
    def from_json(cls, data: dict) -> "BoundReport":
        """The step data records. Raises ValueError, naming the field, when
        a field is missing or of another type, or when a step of a known
        rule is labelled with another direction or constant than its rule's."""

        def revive(raw):
            if isinstance(raw, list):
                return tuple(revive(x) for x in raw)
            if raw == "inf":
                return INFINITE
            return raw

        if not isinstance(data, dict):
            raise ValueError("must be an object, not %r" % (data,))
        for key in ("rule", "direction", "value"):
            if key not in data:
                raise ValueError("has no %s" % key)
        if not isinstance(data["rule"], str):
            raise ValueError("rule must be a string, not %r" % (data["rule"],))
        recorded = data.get("inputs", {})
        if not isinstance(recorded, dict):
            raise ValueError("inputs must be an object, not %r" % (recorded,))
        inputs = []
        for name in sorted(recorded):
            entry = recorded[name]
            if not isinstance(entry, dict):
                raise ValueError("input %s must be an object, not %r" % (name, entry))
            if "value" not in entry:
                raise ValueError("input %s has no value" % name)
            if not _plain_input(entry["value"]):
                raise ValueError(
                    "input %s must be an int, a string or a list of these, not %r"
                    % (name, entry["value"])
                )
            inputs.append(
                (name, InputValue(revive(entry["value"]), entry.get("provenance", SUPPLIED)))
            )
        step = cls(
            rule_id=data["rule"],
            value=parse_value(data["value"]),
            inputs=tuple(inputs),
            note=data.get("note", ""),
            digest=data.get("digest"),
        )
        labels = (data["direction"], data.get("constant", step.constant))
        ruled = (step.direction, step.constant)
        if step.rule_id in RULES and labels != ruled:
            raise ValueError(
                "step %s is labelled %s %s, not its rule's %s %s" % (step.rule_id, *labels, *ruled)
            )
        return step


def _plain_input(value) -> bool:
    """Whether a step input read from JSON is an int (not a bool), a
    string ("inf" among them) or a list of these. A search digest formats
    its inputs with %d and a sweep's are compared by equality, so 4.0 or
    true would pass both as 4 or 1."""
    if isinstance(value, (list, tuple)):  # to_json leaves inner tuples as they are
        return all(_plain_input(item) for item in value)
    return isinstance(value, str) or (isinstance(value, int) and not isinstance(value, bool))


# ---------------------------------------------------------------------------
# The rule registry


class Rule(NamedTuple):
    """A registered rule: its value on named inputs and what it bounds."""

    evaluate: Callable[[Dict[str, object]], ExtInt]
    constant: str  # D, D_k, s_le, split, D_0, k_D or delta


RULES: Dict[str, Rule] = {}


def _rule(rule_id: str, constant: str):
    """Register the decorated function as the one definition of rule_id,
    a bound on constant."""

    def register(fn):
        RULES[rule_id] = Rule(fn, constant)
        return fn

    return register


def evaluate_rule(rule_id: str, inputs: Dict[str, object]) -> ExtInt:
    """A rule's value on plain named inputs.

    Raises BoundError when the inputs break the rule's precondition.
    A search rule reads the value off the search's record, which it
    trusts; every step kind a certificate holds has a rule here.
    """
    rule = RULES.get(rule_id)
    if rule is None:
        raise BoundError("no evaluator for rule %r" % rule_id)
    return rule.evaluate(inputs)


def report(rule_id: str, pairs: Seq[Tuple[str, object, str]], note: str = "") -> BoundReport:
    """The step applying rule_id to (name, value, provenance) triples."""
    value = evaluate_rule(rule_id, {name: v for name, v, _prov in pairs})
    inputs = tuple((name, InputValue(v, prov)) for name, v, prov in pairs)
    return BoundReport(rule_id, value, inputs, note)


def _require(holds: bool, message: str) -> None:
    if not holds:
        raise BoundError(message)


def _finite(s: ExtInt) -> ExtInt:
    _require(is_finite(s), "threshold value must be finite")
    return s


def _rank(i: Dict[str, object]) -> int:
    _require(i["r"] >= 1, "rank must be positive")
    return i["r"]


def lower_max_length(
    ell: Seq[int], s_values: Seq[ExtInt], D: int, m: int
) -> int:
    """Minimum number of blocks any zero-sum sequence of length m forces.

    Greedy layer counts: the i-th layer removes blocks of length at most
    ell[i] while more than s_values[i] - 1 elements remain, and a final
    layer removes blocks of length at most D.
    """
    return _layer_count(_checked_levels(ell, s_values, D), D, m)


def _checked_levels(ell: Seq[int], s_values: Seq[ExtInt], D: int) -> List[Tuple[int, int]]:
    """The (ell[i], s_values[i]) pairs, once the inputs pass every check."""
    if D < 1 or any(l < 1 for l in ell):
        raise BoundError("D and every ell must be positive")
    if len(ell) != len(s_values):
        raise BoundError("ell and s_values must align")
    if any(not is_finite(s) for s in s_values):
        raise BoundError("threshold values must be finite")
    if list(ell) != sorted(set(ell)):
        raise BoundError("ell must be strictly increasing")
    return list(zip(ell, s_values))


def _layer_count(levels: List[Tuple[int, int]], D: int, m: int) -> int:
    """lower_max_length on checked (ell[i], s_values[i]) pairs."""
    used = total = 0
    for l_i, s_i in levels:
        k_i = (m - used - s_i + l_i) // l_i  # ceil((m - used - s_i + 1) / l_i)
        if k_i > 0:
            total += k_i
            used += k_i * l_i
    return total + max(0, (m - used + D - 1) // D)


def _extension_m(n: int, D_ext: int, D_G: int) -> int:
    """Block length the cyclic-extension bound covers."""
    _require(n >= 1, "n must be positive")
    return max((D_ext // n) * n // 2, (D_G // n) * n)


def _input_group(i) -> Group:
    """The group a step's group input names; parse_group hands out the
    one shared instance, which keeps its profile."""
    _require(isinstance(i["group"], str), "group must be a label")
    return parse_group(i["group"])


def _rank_two(i) -> Tuple[int, int]:
    """The invariant factors (m, n) of the labelled group, which must have rank 2."""
    G = _input_group(i)
    _require(G.rank == 2, "the rule needs a group of rank 2")
    return G.invariant_factors


def _s2m_root(r: int, m: int) -> int:
    """Least u with u^m >= m! 2^r, for the counting bound on blocks <= 2m."""
    _require(m >= 2, "need m >= 2")
    return least_root_at_least(factorial(m) * 2**r, m)


# Upper bounds on D_k


@_rule("ub.k_times_d", "D_k")
def _k_times_d(i):
    _require(i["k"] >= 1 and i["D"] >= 1, "k and D must be positive")
    return i["k"] * i["D"]


@_rule("ub.recursion", "D_k")
def _recursion(i):
    """The largest m such that no length 1..m forces more than k blocks.

    Needs every ell <= D: then the forced count c(m) is nondecreasing in
    m, and m is found by bisection on c. Compare the greedy layers on
    m + 1 and on m, level by level. Before a level, with L the last
    level passed (1 before the first), either both have counted the same
    blocks and m + 1 has 0..L more ids left, or m + 1 has counted one
    more block and has at most L - 1 fewer left. A level ell >= L (the
    levels increase) changes its count by at most one between the two,
    and only in the direction that keeps this so, with ell as the new L.
    The final layer, of blocks of length D, then counts at least as many
    blocks for m + 1, or, one block ahead and at most L - 1 <= D - 1 ids
    short, at most one fewer. With ell > D that last step fails: D = 1,
    ell = 3, s = 3 gives c(2) = 2 and c(3) = 1.
    """
    D, k = i["D"], i["k"]
    levels = _checked_levels(i["ell"], i["s_values"], D)
    _require(all(l <= D for l, _ in levels), "every ell must be at most D")
    # c(1) >= 1 > k when k < 1; otherwise every block is at most D long,
    # so c(kD + 1) > k and the ceiling check below never fires
    lo, hi = 0, max(1, k * D + 1)
    if _layer_count(levels, D, hi) <= k:
        raise BoundError("scan escaped its ceiling; inputs inconsistent")
    while hi - lo > 1:  # c(lo) <= k or lo = 0, and c(hi) > k
        mid = (lo + hi) // 2
        if _layer_count(levels, D, mid) <= k:
            lo = mid
        else:
            hi = mid
    return lo


@_rule("ub.remark", "D_k")
def _remark(i):
    s = _finite(i["s_value"])
    return (i["k"] - 1) * i["ell_1"] + max(i["D"], s - i["ell_1"])


@_rule("ub.step", "D_k")
def _step(i):
    return max(i["dk"] + i["ell"], _finite(i["s_value"]) - 1)


@_rule("ub.cpr", "D_k")
def _cpr(i):
    p, r, k, m = i["p"], i["r"], i["k"], i["m"]
    _require(r >= 2 and k >= 1 and m >= 1, "need r >= 2, k >= 1, m >= 1")
    _require(r * (p - 1) + 1 < 2 * p**m, "need r(p-1)+1 < 2 p^m")
    return min((k * (r - 1) + 1) * p - r + 1, (k - 1) * p**m + r * (p - 1) + 1)


@_rule("ub.inductive", "D_k")
def _inductive(i):
    if "quotient_dk" in i:
        return i["quotient_dk"]
    s = _finite(i["s_quot"])
    return (i["sub_dk"] - 1) * i["ell"] + max(i["D_quot"], s - i["ell"])


@_rule("ub.squarefree_caps", "D_k")
def _squarefree_caps(i):
    k = i["k"]
    usable = [cap + 2 * (k - j) for j, cap in i["caps"] if j <= k]
    _require(bool(usable), "no cap with index at most k")
    return max(usable)


@_rule("ub.delta", "delta")
def _delta(i):
    return (2 * i["order"]) ** (3 * i["order"] + 1)


@_rule("ub.kd", "k_D")
def _kd(i):
    if "delta" in i:
        return i["delta"] * i["exponent"] * i["atoms"] + i["eta"] - i["d_minus"]
    return (2 * i["order"]) ** (4 * i["order"] + 2)


# Lower bounds on D_k


@_rule("lb.direct_sum", "D_k")
def _direct_sum(i):
    return i["dk1"] + i["dk2"] - 1


@_rule("lb.dstar", "D_k")
def _dstar(i):
    return i["d_star"] + (i["k"] - 1) * i["exponent"]


@_rule("lb.elb", "D_k")
def _elb(i):
    _require(i["s"] >= 2 and i["k"] >= 2 and i["t"] >= 1, "need s >= 2, k >= 2, t >= 1")
    _require(i["delta"] == i["n_t"] % 2, "delta must be n_t mod 2")
    return i["d_star"] + i["s"] * (i["n_t"] // 2) + i["delta"] + (i["k"] - 2) * i["n_r"]


@_rule("lb.step_append", "D_k")
def _step_append(i):
    return i["dk"] + 2


# Thresholds s_le


@_rule("ub.extension", "s_le")
def _extension(i):
    m = _extension_m(i["n"], i["D_ext"], i["D_G"])
    _require(i["m"] == m, "recorded m differs from the derived %d" % m)
    return i["D_ext"]


@_rule("sle.trivial_group", "s_le")
def _sle_trivial(i):
    _require(i["order"] == 1, "the group is not trivial")
    return 1


@_rule("sle.infinite", "s_le")
def _sle_infinite(i):
    _require(i["k"] < i["exponent"], "threshold is finite at or above the exponent")
    return INFINITE


@_rule("sle.equals_davenport", "s_le")
def _sle_equals_davenport(i):
    _require(i["k"] >= i["D"], "threshold equals D only from k = D on")
    return i["D"]


# Theorems on families of groups. Each reads its group off the input
# group, which the verifier binds to the certificate's group


@_rule("ub.olson", "D")
def _olson(i):
    """D(G) = D*(G) for a p-group (Olson, J. Number Theory 1, 1969, part I)
    and for rank <= 2 (part II, same volume; van Emde Boas 1969)."""
    G = _input_group(i)
    _require(olson_applies(G), "the rule needs a p-group or a group of rank at most 2")
    return profile(G).d_star


@_rule("ub.halter_koch", "D_k")
def _halter_koch(i):
    """D_k(C_m + C_n) = m + kn - 1 for m | n (Halter-Koch, Colloq. Math. 63, 1992)."""
    m, n = _rank_two(i)
    _require(i["k"] >= 1, "k must be positive")
    return m + i["k"] * n - 1


@_rule("ub.eta_rank2", "s_le")
def _eta_rank2(i):
    """eta(C_m + C_n) = 2m + n - 2 for m | n (Gao and Geroldinger,
    Expo. Math. 24, 2006), the threshold at cap n."""
    m, n = _rank_two(i)
    _require(i["cap"] == n, "cap must be the exponent %d" % n)
    return 2 * m + n - 2


# The largest cap of AG(r, 3), a set of points with no three on a line:
# Pellegrino (Boll. Un. Mat. Ital. 3, 1970) for r = 4, Edel, Ferret,
# Landjev and Storme (J. Combin. Theory Ser. A 99, 2002) for r = 5 and
# Potechin (Des. Codes Cryptogr. 46, 2008) for r = 6
C3_MAX_CAPS = {3: 9, 4: 20, 5: 45, 6: 112}


@_rule("ub.eta_c3", "s_le")
def _eta_c3(i):
    """eta(C_3^r) = 2g - 1 for 3 <= r <= 6, g the largest cap of AG(r, 3),
    the threshold at cap 3.

    Three distinct points of C_3^r lie on a line iff they sum to 0, and a
    line through 0 is {0, a, -a}. So S has no zero-sum of length <= 3 iff
    0 is not in S, no element occurs three times, and supp(S) + 0 holds no
    line: a cap of size |supp(S)| + 1. Then |S| <= 2(g - 1), and each
    nonzero point of a g-cap through 0, taken twice, meets it. Edel,
    Elsholtz, Geroldinger, Kubertin and Rackham (Quart. J. Math. 58, 2007)
    and the Gao-Geroldinger survey (Expo. Math. 24, 2006) state the same
    fact for zero-sums of length exactly 3, as s(C_3^r) = 2g(C_3^r) - 1.
    Their g(C_3^r) is the Harborth constant, one more than the largest
    cap; the g here is the largest cap itself.
    """
    G = _input_group(i)
    _require(eta_c3_applies(G), "the rule needs C_3^r with 3 <= r <= 6")
    _require(i["cap"] == 3, "cap must be the exponent 3")
    return 2 * C3_MAX_CAPS[G.rank] - 1


# Search records


@_rule("search.zsf", "D")
@_rule("search.sle", "s_le")
def _max_free_plus_one(i):
    return i["max_free"] + 1


@_rule("search.sweep", "split")
def _sweep(i):
    _require(i["failures"] == 0, "sweep recorded failures")
    return (1 << _rank(i)) - 1 - i["complement_size"]


# Elementary 2-groups


# the one k ub.e2g_d2 bounds D_k at; its inputs record none
E2G_D2_K = 2


@_rule("ub.e2g_d2", "D_k")
def _e2g_d2(i):
    return (3 * _rank(i) + 5) // 2


@_rule("ub.e2g_s2m", "s_le")
def _e2g_s2m(i):
    root = _s2m_root(_rank(i), i["m"])
    _require(i["root"] == root, "recorded root differs from the least root %d" % root)
    return (i["m"] - 1) + root


@_rule("ub.e2g_d", "D")
def _e2g_d(i):
    """D(C_2^r) <= r + 1: a zero-sum-free sequence over C_2^r has no
    repeat and no nonempty sum 0, so its elements are independent."""
    return _rank(i) + 1


@_rule("ub.e2g_sphere", "s_le")
def _e2g_sphere(i):
    """s_le(C_2^r, cap) <= 1 + the largest n with sum_{j <= cap // 2}
    C(n, j) <= 2^r (the Hamming bound).

    A sequence with no zero-sum of length <= cap, cap >= 2, has no 0 and
    no repeat. Its n elements are the parity-check columns of a binary
    code of length n, dimension >= n - r and minimum distance > cap,
    whose balls of radius cap // 2 are disjoint. For odd cap the code
    punctured at one coordinate keeps its dimension and has distance
    > cap - 1, so the same test applies to n - 1 and r - 1.
    """
    r, cap = _rank(i), i["cap"]
    _require(cap >= 2, "cap must be at least 2")
    t, odd = cap // 2, cap % 2
    room = 1 << (r - odd)
    lo, hi = 0, room  # sum_{j <= t} C(n, j) >= 1 + n, so hi is too long
    while hi - lo > 1:  # lo fits, hi does not
        mid = (lo + hi) // 2
        if sum(comb(mid, j) for j in range(t + 1)) <= room:
            lo = mid
        else:
            hi = mid
    return 1 + lo + odd


@_rule("ub.e2g_split", "D_k")
def _e2g_split(i):
    _require(i["s"] >= 0, "s must be nonnegative")
    return i["rest"] + i["s"]


@_rule("lb.e2g_d0", "D_0")
def _e2g_d0_lower(i):
    return ceil_div((1 << _rank(i)) - 1, 3)


@_rule("ub.e2g_d0", "D_0")
def _e2g_d0_upper(i):
    return _e2g_d0_lower(i) + isqrt(1 << i["r"])


@_rule("ub.e2g_kd", "k_D")
def _e2g_kd(i):
    return ((1 << _rank(i)) - 1) // 3


# ---------------------------------------------------------------------------
# Calculators: upper bounds


def olson_applies(G: Group) -> bool:
    """Whether ub.olson holds on G: G is a p-group or has rank <= 2."""
    return G.rank <= 2 or len(factorize(G.order)) == 1


def olson_upper(G: Group) -> BoundReport:
    """D(G) = D*(G) on a p-group or rank <= 2."""
    return report("ub.olson", [("group", format_group(G), COMPUTED)])


def halter_koch_upper(G: Group, k: int) -> BoundReport:
    """D_k(G) = D*(G) + (k - 1) exp(G) on rank 2."""
    return report("ub.halter_koch", [("group", format_group(G), COMPUTED), ("k", k, SUPPLIED)])


def eta_rank2_upper(G: Group, cap: int) -> BoundReport:
    """eta(G) = 2m + n - 2 on G = C_m + C_n with m | n, at cap n."""
    return report("ub.eta_rank2", [("group", format_group(G), COMPUTED), ("cap", cap, SUPPLIED)])


def eta_c3_applies(G: Group) -> bool:
    """Whether ub.eta_c3 holds on G: G is C_3^r with 3 <= r <= 6."""
    return G.invariant_factors == (3,) * G.rank and G.rank in C3_MAX_CAPS


def eta_c3_upper(G: Group, cap: int) -> BoundReport:
    """eta(C_3^r) = 2g - 1 from the largest cap g of AG(r, 3), at cap 3."""
    return report("ub.eta_c3", [("group", format_group(G), COMPUTED), ("cap", cap, SUPPLIED)])


def k_times_d(k: int, D: int, d_prov: str = SUPPLIED) -> BoundReport:
    """Each of the k blocks is at most a longest minimal zero-sum."""
    return report("ub.k_times_d", [("k", k, SUPPLIED), ("D", D, d_prov)])


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
    if ell and (ell[0] < profile(G).exponent or ell[-1] > D):
        raise BoundError("ell must stay within [exponent, D]")
    return report(
        "ub.recursion",
        [
            ("k", k, SUPPLIED),
            ("ell", tuple(ell), SUPPLIED),
            ("s_values", tuple(s_values), s_prov),
            ("D", D, d_prov),
        ],
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
    exponent = profile(G).exponent
    if not exponent <= ell_1 <= max(exponent, D - 1):
        raise BoundError("ell_1 must lie in [exponent, D-1]")
    return report(
        "ub.remark",
        [
            ("k", k, SUPPLIED),
            ("ell_1", ell_1, SUPPLIED),
            ("s_value", s_value, s_prov),
            ("D", D, d_prov),
        ],
    )


def step_ub(
    dk: int, ell: int, s_value: ExtInt, dk_prov: str = SUPPLIED, s_prov: str = SUPPLIED
) -> BoundReport:
    """One more block: either it fits in ell, or few elements remain."""
    return report(
        "ub.step", [("dk", dk, dk_prov), ("ell", ell, SUPPLIED), ("s_value", s_value, s_prov)]
    )


def s_le_from_extension(n: int, D_ext: int, D_G: int) -> BoundReport:
    """Short-block threshold bounded through a cyclic extension."""
    return report(
        "ub.extension",
        [
            ("n", n, SUPPLIED),
            ("D_ext", D_ext, SUPPLIED),
            ("D_G", D_G, SUPPLIED),
            ("m", _extension_m(n, D_ext, D_G), COMPUTED),
        ],
        note="bounds the threshold for blocks of length at most m",
    )


def cpr_upper(p: int, r: int, k: int, m: int) -> BoundReport:
    """Homogeneous-group bound via the two layer strategies."""
    pairs = [("p", p, SUPPLIED), ("r", r, SUPPLIED), ("k", k, SUPPLIED), ("m", m, SUPPLIED)]
    return report("ub.cpr", pairs)


def inductive_ub(
    sub_dk: int,
    quotient_dk: Optional[int] = None,
    ell: Optional[int] = None,
    D_quot: Optional[int] = None,
    s_quot: Optional[ExtInt] = None,
) -> BoundReport:
    """Push blocks through a coordinate-aligned summand.

    Either supply the quotient's table value at index sub_dk, or an
    (ell, D_quot, s_quot) triple to close with the one-long-block form.
    """
    if quotient_dk is not None:
        pairs = [("sub_dk", sub_dk, SUPPLIED), ("quotient_dk", quotient_dk, SUPPLIED)]
    elif ell is None or D_quot is None or s_quot is None:
        raise BoundError("supply quotient_dk or the (ell, D_quot, s_quot) triple")
    else:
        pairs = [
            ("sub_dk", sub_dk, SUPPLIED),
            ("ell", ell, SUPPLIED),
            ("D_quot", D_quot, SUPPLIED),
            ("s_quot", s_quot, SUPPLIED),
        ]
    return report("ub.inductive", pairs)


def delta_upper(G: Group) -> BoundReport:
    """Crude cap on the largest factorization-length jump."""
    order = profile(G).order
    note = ""
    if order <= 2:
        note = "vacuous: groups of order at most 2 have no length jumps"
    return report("ub.delta", [("order", order, COMPUTED)], note=note)


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
        return report(
            "ub.kd",
            [
                ("delta", delta_val, SUPPLIED),
                ("exponent", prof.exponent, COMPUTED),
                ("atoms", atoms_count, SUPPLIED),
                ("eta", eta_val, SUPPLIED),
                ("d_minus", d_minus, SUPPLIED),
            ],
        )
    if any(v is not None for v in refined):
        raise BoundError("supply all refined inputs or none")
    return report("ub.kd", [("order", prof.order, COMPUTED)], note="crude closed form")


# ---------------------------------------------------------------------------
# Calculators: lower bounds


def lower_direct_sum(dk1: int, dk2: int) -> BoundReport:
    """Concatenate extremal sequences of two summands."""
    return report("lb.direct_sum", [("dk1", dk1, SUPPLIED), ("dk2", dk2, SUPPLIED)])


def lower_dstar(G: Group, k: int) -> BoundReport:
    """Independent layers plus k-1 extra copies of a max-order element."""
    prof = profile(G)
    return report(
        "lb.dstar",
        [
            ("k", k, SUPPLIED),
            ("d_star", prof.d_star, COMPUTED),
            ("exponent", prof.exponent, COMPUTED),
        ],
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
    return report(
        "lb.elb",
        [
            ("k", k, SUPPLIED),
            ("s", s, SUPPLIED),
            ("t", t, SUPPLIED),
            ("d_star", prof.d_star, COMPUTED),
            ("n_t", n_t, COMPUTED),
            ("n_r", factors[r - 1], COMPUTED),
            ("delta", n_t % 2, COMPUTED),
        ],
    )


def step_append_lower(dk: int) -> BoundReport:
    """Append an element and its inverse to any extremal sequence."""
    return report("lb.step_append", [("dk", dk, SUPPLIED)])


# ---------------------------------------------------------------------------
# Calculators: elementary 2-group specials


def e2g_d2_upper(r: int) -> BoundReport:
    """Strict half-integer cap on the 2-block constant."""
    return report("ub.e2g_d2", [("r", r, SUPPLIED)])


def e2g_d_upper(r: int) -> BoundReport:
    """Independence cap on the Davenport constant of C_2^r."""
    return report("ub.e2g_d", [("r", r, COMPUTED)])


def e2g_sphere_upper(r: int, cap: int) -> BoundReport:
    """Sphere-packing cap on the threshold of C_2^r for blocks <= cap."""
    return report(
        "ub.e2g_sphere",
        [("r", r, COMPUTED), ("cap", cap, SUPPLIED)],
        note="parity-check columns of a code with distance above cap",
    )


def e2g_s2m_upper(r: int, m: int) -> BoundReport:
    """Counting bound on the threshold for blocks of length <= 2m."""
    return report(
        "ub.e2g_s2m",
        [("r", r, SUPPLIED), ("m", m, SUPPLIED), ("root", _s2m_root(r, m), COMPUTED)],
        note="bounds the threshold for blocks of length at most 2m",
    )


def e2g_split_upper(s: int, sub_dk: int, rest_value: int) -> BoundReport:
    """Split off s coordinates and recurse on the rest."""
    return report(
        "ub.e2g_split",
        [("s", s, SUPPLIED), ("sub_dk", sub_dk, SUPPLIED), ("rest", rest_value, SUPPLIED)],
    )


def e2g_d0_bounds(r: int) -> Tuple[BoundReport, BoundReport]:
    """Bracket on the eventual offset of the progression."""
    pairs = [("r", r, SUPPLIED)]
    return report("lb.e2g_d0", pairs), report("ub.e2g_d0", pairs)


def e2g_kd_upper(r: int) -> BoundReport:
    """Onset index bounded by the largest full-support block count."""
    return report("ub.e2g_kd", [("r", r, SUPPLIED)])


def e2g_bounds(r: int, k: int) -> List[BoundReport]:
    """All elementary-2-group special bounds that apply to (r, k)."""
    out: List[BoundReport] = []
    if k == E2G_D2_K:
        out.append(e2g_d2_upper(r))
    out.append(e2g_s2m_upper(r, 2))
    lo, hi = e2g_d0_bounds(r)
    out.extend([lo, hi])
    out.append(e2g_kd_upper(r))
    return out


# ---------------------------------------------------------------------------
# Assembly


@dataclass
class KnownValues:
    """Supplied inputs a bound sweep may draw on."""

    D: Optional[int] = None
    s_le: Dict[int, ExtInt] = field(default_factory=dict)


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


def is_prime(n: int) -> bool:
    return factorize(n) == {n: 1}


def dk_upper_bounds(
    G: Group,
    k: int,
    D: Optional[int],
    s_values: Dict[int, ExtInt],
    prev_dk: Optional[int] = None,
    d_prov: str = SUPPLIED,
    s_prov: str = SUPPLIED,
) -> List[BoundReport]:
    """Every upper bound rule on D_k(G) the inputs allow, in a fixed order.

    Given D: k * D, best_recursion when it uses a level, then per usable
    level ub.remark and, given prev_dk = D_{k-1}, ub.step. Then ub.cpr on
    C_p^r with r >= 2, at the least m its precondition accepts,
    ub.halter_koch on rank 2, and ub.e2g_d2 at k = E2G_D2_K on C_2^r. D is
    recorded with provenance d_prov, the thresholds with s_prov, and
    prev_dk as computed.
    """
    prof = profile(G)
    factors = G.invariant_factors
    out: List[BoundReport] = []
    if D is not None:
        out.append(k_times_d(k, D, d_prov=d_prov))
        rec = best_recursion(G, s_values, D, k, s_prov, d_prov)
        if rec.input_value("ell"):
            out.append(rec)
        for ell in _usable_levels(G, s_values, D):
            s = s_values[ell]
            if ell <= max(prof.exponent, D - 1):
                out.append(remark_ub(G, k, ell, s, D, s_prov=s_prov, d_prov=d_prov))
            if prev_dk is not None:
                out.append(step_ub(prev_dk, ell, s, dk_prov=COMPUTED, s_prov=s_prov))
    if prof.rank >= 2 and len(set(factors)) == 1 and is_prime(factors[0]):
        p, r = factors[0], prof.rank
        m = 1
        while r * (p - 1) + 1 >= 2 * p**m:
            m += 1
        out.append(cpr_upper(p, r, k, m))
    if prof.rank == 2:
        out.append(halter_koch_upper(G, k))
    if prof.exponent == 2 and k == E2G_D2_K:
        out.append(e2g_d2_upper(prof.rank))
    return out


def elb_settings(G: Group) -> List[Tuple[int, int]]:
    """The (s, t) pairs elb_lower accepts on G, by t and then s."""
    r = profile(G).rank
    return [
        (s, t)
        for t in range(1, r + 1)
        for s in range(2, r + 2)
        if s * (s - 1) // 2 <= r - t + 1
    ]


def collect_bounds(G: Group, k: int, known: KnownValues) -> List[BoundReport]:
    """The lower bounds on the k-block constant, then dk_upper_bounds.

    The lower bounds are lb.dstar and, for k >= 2, the best lb.elb.
    Raises BoundConsistencyError when any lower bound exceeds any upper
    bound, since that can only mean an input or a rule is wrong.
    """
    if profile(G).order == 1:
        raise BoundError("trivial group is handled by direct computation")
    out = [lower_dstar(G, k)]
    if k >= 2:
        elbs = [elb_lower(G, s, t, k) for s, t in elb_settings(G)]
        out.append(max(elbs, key=lambda rep: rep.value))
    out.extend(dk_upper_bounds(G, k, known.D, known.s_le))
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
