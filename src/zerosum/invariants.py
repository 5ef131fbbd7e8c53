"""Exact invariant computation with self-contained certificates.

Every public operation returns a Certificate: the claimed value (or an
honest bracketing interval), a witness sequence realizing the lower
side, a named rule under which the witness re-verifies cheaply, and an
upper chain of bound steps that re-evaluate from their recorded inputs.
A search enters the chain as a digest-stamped step whose value follows
from what the search recorded, by its rule in bounds.RULES. Verification
recomputes digests, re-evaluates every rule and binds the chain to the
certificate's k, but never repeats a search.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from dataclasses import dataclass, field, replace
from functools import lru_cache, wraps
from itertools import groupby
from math import gcd
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple

from . import gf2
from .gf2 import SearchError  # raised by the search; importable from here
from .arith import ExtInt, ceil_div, is_finite, parse_value, serialize_value
# cpr_upper, e2g_d2_upper, e2g_s2m_upper, elb_lower, lower_dstar,
# remark_ub, step_ub and ub_recursion are unused here but stay importable
# from this module: perfbench/tracer.py wraps the bound calculators and
# evaluate_rule in this namespace by name
from .bounds import (
    COMPUTED,
    SEARCH,
    SUPPLIED,
    E2G_D2_K,
    BoundError,
    BoundReport,
    best_recursion,
    cpr_upper,
    dk_upper_bounds,
    e2g_d2_upper,
    e2g_d_upper,
    e2g_s2m_upper,
    e2g_sphere_upper,
    elb_lower,
    elb_settings,
    eta_rank2_upper,
    evaluate_rule,
    halter_koch_upper,
    is_prime,
    k_times_d,
    lower_dstar,
    olson_applies,
    olson_upper,
    remark_ub,
    report,
    step_ub,
    ub_recursion,
)
from .constructions import elb_witness
# max_length and minimal_divisors are unused here but stay importable from
# this module: perfbench/tracer.py wraps them in this namespace by name
from .factorizations import (
    BudgetExhausted,
    is_minimal_zero_sum,
    max_disjoint_zero_sums,
    max_length,
    minimal_divisors,
)
from .groups import (
    Group,
    add,  # not called here; perfbench/tracer.py counts group additions through it
    element_at,
    element_index,
    element_order,
    enumerate_elements,
    format_group,
    make_group,
    neg,
    profile,
    translation,
    zero,
)
from .sequences import (
    Sequence,
    sequence_from_json,
    sequence_to_json,
    shortest_zero_sum_length,
)


class CertificateError(ValueError):
    """A certificate is malformed or failed re-verification."""


GENERIC_ORDER_GUARD = 256
DEFAULT_SEARCH_BUDGET = 8_000_000
DEFAULT_VERIFY_BUDGET = 4_000_000
# _generic_search tests prefixes up to this length for orbit minimality.
# On C_3^3 deeper tests cost more in orbit BFS than they save in nodes,
# even with the orbit flags shared by every search on a group: at depth 4
# the four searches behind davenport_k(C_3^3, 2) drop from 6,992 to 4,390
# nodes but take 0.10-0.17 s against 0.03-0.05 s from cold (2 vCPUs).
# The four C_6^2 searches behind davenport_k(C_6^2, 2) gain at depth 4
# (187,429 -> 89,063 nodes, 0.76-0.84 s -> 0.58-0.59 s)
ORBIT_PRUNE_DEPTH = 3


def _memoized(maxsize: int):
    """lru_cache keyed on the bound arguments with defaults applied.

    f(G, 3), f(G, 3, None) and f(G, 3, budget=None) share one entry.
    A SearchError is remembered too, so a search that ran out of its
    budget is not rerun to the full budget by a later call: that call
    raises a fresh SearchError with the same message at once. The
    wrapper keeps cache_info() and cache_clear().
    """

    def decorate(fn):
        def outcome(*args):
            try:
                return fn(*args), None
            except SearchError as error:
                return None, str(error)

        cached = lru_cache(maxsize=maxsize)(outcome)
        signature = inspect.signature(fn)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            value, error = cached(*bound.args)
            if error is not None:
                raise SearchError(error)
            return value

        wrapper.cache_info = cached.cache_info
        wrapper.cache_clear = cached.cache_clear
        return wrapper

    return decorate


def _digest16(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Chain steps


# Both names are public; a chain step is a BoundReport.
ChainStep = BoundReport


def _expected_digest(step: BoundReport) -> Optional[str]:
    """Canonical digest of a search step, from its inputs alone.

    A sweep's digest is its SweepRecord digest; other searches hash a
    canonical text. None when the step cannot be digested.
    """
    inp = step.plain_inputs()
    if step.rule_id == "search.sweep":
        rec = gf2.SweepRecord(
            r=inp["r"],
            complement_size=inp["complement_size"],
            pieces=inp["pieces"],
            instances=inp["instances"],
            failures=inp["failures"],
            elapsed_ms=0,
        )
        return None if rec.failures else rec.digest
    if step.rule_id == "search.zsf":
        text = "zsf:g=%s:max_free=%d" % (inp["group"], inp["max_free"])
    elif step.rule_id == "search.sle":
        text = "sle:g=%s:cap=%d:max_free=%d" % (inp["group"], inp["cap"], inp["max_free"])
    else:
        return None
    return _digest16(text)


def _search_step(rule_id: str, note: str, **record) -> BoundReport:
    """The digest-stamped step of a search, its value ruled from the record."""
    step = report(rule_id, [(name, value, SEARCH) for name, value in record.items()], note=note)
    return replace(step, digest=_expected_digest(step))


def _provenance(chain) -> str:
    """How a value backed by chain was found: by a search when some step
    of the chain is one, else computed by rules."""
    return SEARCH if any(step.rule_id.startswith("search.") for step in chain) else COMPUTED


# ---------------------------------------------------------------------------
# Certificates


_CONSTANTS = ("D", "D_k", "s_le", "eta")


def _check(rule: str, **params) -> dict:
    """A witness_check: the rule a witness re-verifies under, with its params."""
    return {"rule": rule, "params": params}


def _copy_check(check: Optional[dict]) -> Optional[dict]:
    """A witness_check rebuilt down to its params, so that a certificate
    and the JSON it is written to or read from share no dict."""
    if check is None:
        return None
    return {key: dict(val) if isinstance(val, dict) else val for key, val in check.items()}


def _witness_lower(constant: str, witness: Sequence) -> int:
    """The lower end a witness backs. A D or D_k witness is a zero-sum of
    its length; an s_le or eta witness avoids short zero-sums, so the
    threshold is one more than its length."""
    return witness.length + (constant in ("s_le", "eta"))


@dataclass(frozen=True)
class Certificate:
    constant: str
    group: Group
    k: Optional[int]
    value: Optional[ExtInt]
    interval: Optional[Tuple[int, int]]
    witness: Optional[Sequence]
    witness_check: Optional[dict]
    upper_chain: Tuple[BoundReport, ...]
    notes: Tuple[str, ...] = ()
    stored_digest: Optional[str] = None

    def __post_init__(self):
        if self.constant not in _CONSTANTS:
            raise CertificateError("unknown constant %r" % self.constant)
        if (self.value is None) == (self.interval is None):
            raise CertificateError("exactly one of value/interval must be set")
        if self.interval is not None:
            if any(isinstance(end, bool) or not isinstance(end, int) for end in self.interval):
                raise CertificateError("interval ends must be ints, not %r" % (self.interval,))
            lo, hi = self.interval
            if not lo <= hi:
                raise CertificateError("interval must satisfy lo <= hi")
        if self.constant == "D":
            if self.k is not None:
                raise CertificateError("a D certificate has no k")
        elif type(self.k) is not int or self.k < 1:
            raise CertificateError("k must be a positive int, not %r" % (self.k,))

    @classmethod
    def from_evidence(
        cls, constant: str, group: Group, k: Optional[int], witness: Optional[Sequence],
        witness_check: Optional[dict], upper_chain, notes=(),
    ) -> "Certificate":
        """The certificate whose claim is what its evidence backs.

        The upper end is the chain's last value (the witness length with no
        chain, on the trivial group's D), the lower end what the witness
        backs (the upper end with no witness). The claim is the value when
        the two meet, else the interval. Each chain step is kept at its
        first use.
        """
        first: Dict = {}
        for step in upper_chain:
            first.setdefault((step.rule_id, step.inputs, serialize_value(step.value)), step)
        chain = tuple(first.values())
        hi = chain[-1].value if chain else witness.length
        lo = hi if witness is None else _witness_lower(constant, witness)
        exact = lo == hi
        return cls(
            constant=constant, group=group, k=k, value=lo if exact else None,
            interval=None if exact else (lo, hi), witness=witness,
            witness_check=witness_check, upper_chain=chain, notes=tuple(notes),
        )

    @property
    def lower(self) -> ExtInt:
        return self.value if self.value is not None else self.interval[0]

    @property
    def upper(self) -> ExtInt:
        return self.value if self.value is not None else self.interval[1]

    def payload_json(self) -> dict:
        out = {
            "constant": self.constant,
            "group": format_group(self.group),
            "k": self.k,
            "witness": None if self.witness is None else sequence_to_json(self.witness),
            "witness_check": _copy_check(self.witness_check),
            "upper_chain": [step.to_json() for step in self.upper_chain],
        }
        if self.value is not None:
            out["value"] = serialize_value(self.value)
        else:
            out["interval"] = {"lo": self.interval[0], "hi": self.interval[1]}
        if self.notes:
            out["notes"] = list(self.notes)
        return out

    def digest(self) -> str:
        return _digest16(json.dumps(self.payload_json(), sort_keys=True))

    def to_json(self, elapsed_ms: Optional[int] = None) -> dict:
        out = self.payload_json()
        out["digest"] = _digest16(json.dumps(out, sort_keys=True))  # as digest() does
        if elapsed_ms is not None:
            out["elapsed_ms"] = elapsed_ms
        return out

    @classmethod
    def from_json(cls, data: dict) -> "Certificate":
        from .groups import parse_group

        label = data["group"]
        if not isinstance(label, str):
            raise CertificateError("group must be a label, not %r" % (label,))
        G = parse_group(label)
        value = None
        interval = None
        if "value" in data:
            value = parse_value(data["value"])
        elif "interval" in data:
            interval = (data["interval"]["lo"], data["interval"]["hi"])
        else:
            raise CertificateError("certificate carries neither value nor interval")
        witness = None
        if data.get("witness") is not None:
            witness = sequence_from_json(G, data["witness"])
        check = data.get("witness_check")
        if check is not None:
            if not isinstance(check, dict):
                raise CertificateError("witness_check must be an object, not %r" % (check,))
            if not isinstance(check.get("params", {}), dict):
                raise CertificateError(
                    "witness_check params must be an object, not %r" % (check["params"],)
                )
        chain = data.get("upper_chain", [])
        for i, step in enumerate(chain):
            if not isinstance(step, dict):
                raise CertificateError("upper_chain[%d] must be an object, not %r" % (i, step))
            if not isinstance(step.get("rule", ""), str):
                raise CertificateError(
                    "upper_chain[%d] rule must be a string, not %r" % (i, step["rule"])
                )
        return cls(
            constant=data["constant"],
            group=G,
            k=data.get("k"),
            value=value,
            interval=interval,
            witness=witness,
            witness_check=_copy_check(check),
            upper_chain=tuple(BoundReport.from_json(step) for step in chain),
            notes=tuple(data.get("notes", ())),
            stored_digest=data.get("digest"),
        )


# ---------------------------------------------------------------------------
# Witness verification


def _decompose_2group(S: Sequence) -> Tuple[Tuple[int, ...], int, int]:
    """Split into a squarefree 0-free core, doubled pairs, and zeros.

    Any block structure of S refines to blocks of the core plus one
    block per pair and per zero, so maxl(S) <= maxl(core) + pairs + zeros.
    """
    G = S.group
    core = []
    pairs = 0
    zeros = 0
    for e, m in S.items:
        if e == zero(G):
            zeros += m
            continue
        if m % 2:
            core.append(element_index(G, e))
            pairs += (m - 1) // 2
        else:
            pairs += m // 2
    return tuple(sorted(core)), pairs, zeros


def _check_witness(
    G: Group, S: Sequence, k: int, check: dict, budget: Optional[int]
) -> List[str]:
    """Re-verify that maxl(S) <= k under the named rule. No searches."""
    problems: List[str] = []
    rule = check.get("rule")
    params = check.get("params", {})
    prof = profile(G)

    def fail(msg: str):
        problems.append("witness: " + msg)

    if rule == "zeros":
        if any(e != zero(G) for e, _ in S.items):
            fail("zeros rule requires every element to be the identity")
        elif S.length > k:
            fail("%d identity elements exceed %d blocks" % (S.length, k))
        return problems

    if rule == "short-free":
        cap = min(k, S.length)
        if cap >= 1 and shortest_zero_sum_length(S, cap) is not None:
            fail("sequence contains a zero-sum of length at most %d" % cap)
        return problems

    if S.sum() != zero(G):
        fail("sequence is not zero-sum")
        return problems

    if rule == "atom":
        if not is_minimal_zero_sum(S):
            fail("sequence is not a minimal zero-sum")
        return problems

    if rule == "cyclic-power":
        support = S.support
        if len(support) != 1 or support[0] == zero(G):
            fail("cyclic-power rule needs a single nonzero element")
            return problems
        g = support[0]
        # S is zero-sum, so ord(g) divides the multiplicity
        m = S.multiplicity(g)
        order = element_order(G, g)
        if m // order > k:
            fail("%d repetitions of a length-%d block exceed %d" % (m // order, order, k))
        return problems

    if rule in ("squarefree-third", "coset-quarter", "max-disjoint"):
        if G.is_elementary_2:
            core, pairs, zeros_n = _decompose_2group(S)
            slack = k - pairs - zeros_n
            if slack < 0:
                fail("pairs and zeros alone exceed %d blocks" % k)
                return problems
            if rule == "squarefree-third":
                if len(core) // 3 > slack:
                    fail("third-bound %d exceeds remaining %d blocks" % (len(core) // 3, slack))
                return problems
            if rule == "coset-quarter":
                f = params.get("functional")
                if not isinstance(f, int) or f <= 0:
                    fail("coset-quarter rule needs a nonzero functional")
                    return problems
                for v in core:
                    if bin(v & f).count("1") % 2 == 0:
                        fail("core element %d lies outside the selected coset" % v)
                        return problems
                if len(core) // 4 > slack:
                    fail("quarter-bound %d exceeds remaining %d blocks" % (len(core) // 4, slack))
                return problems
            # max-disjoint over a 2-group: refute every deeper partition
            if not gf2.squarefree_max_length_at_most(core, slack, prof.rank):
                fail("core splits into more than %d disjoint blocks" % slack)
            return problems
        if rule != "max-disjoint":
            fail("rule %r needs an elementary 2-group" % rule)
            return problems
        try:
            value = max_disjoint_zero_sums(
                S, DEFAULT_VERIFY_BUDGET if budget is None else budget
            )
        except BudgetExhausted:
            fail("verification budget exhausted")
            return problems
        if value > k:
            fail("maximum block count %d exceeds %d" % (value, k))
        return problems

    fail("unknown rule %r" % rule)
    return problems


def _group_properties(G: Group) -> Mapping[str, object]:
    """What a step input of each of these names must equal on G. p is the
    exponent when G is C_p^r with p prime, and None otherwise. Built once
    and kept, read-only, in G's instance dict, beside the data groups
    keeps there."""
    try:
        return G.__dict__["_properties"]
    except KeyError:
        pass
    prof = profile(G)
    elementary = len(set(G.invariant_factors)) == 1 and is_prime(prof.exponent)
    kept = G.__dict__["_properties"] = MappingProxyType({
        "r": prof.rank,
        "p": prof.exponent if elementary else None,
        "group": format_group(G),
        "exponent": prof.exponent,
        "order": prof.order,
        "d_star": prof.d_star,
    })
    return kept


def _check_chain(G: Group, steps: Tuple[BoundReport, ...]) -> List[str]:
    """Re-evaluate every step by its rule; a search step must also match
    its digest. A step's inputs that name a property of the group must
    match G's, and an ub.e2g_* rule needs G to be an elementary 2-group,
    so no step of another group can be spliced in. The theorem rules
    ub.olson, ub.halter_koch and ub.eta_rank2 read their group off the
    input group, so their preconditions are checked on G."""
    problems: List[str] = []
    properties = _group_properties(G)
    for i, step in enumerate(steps):
        label = "chain[%d] %s" % (i, step.rule_id)
        inputs = step.plain_inputs()
        for name, value in properties.items():
            if name in inputs and inputs[name] != value:
                problems.append(
                    label + ": input %s = %r is not the group's %r" % (name, inputs[name], value)
                )
        if step.rule_id.startswith("ub.e2g_") and not G.is_elementary_2:
            problems.append(label + ": the rule needs an elementary 2-group")
        if step.rule_id.startswith("search."):
            try:
                expected = _expected_digest(step)
            except (KeyError, TypeError, ValueError) as err:
                problems.append(label + ": cannot be digested (%s)" % err)
                continue
            if step.digest != expected:
                problems.append(label + ": digest mismatch")
        try:
            value = evaluate_rule(step.rule_id, inputs)
        except (BoundError, KeyError, TypeError, ValueError) as err:
            problems.append(label + ": re-evaluation failed (%s)" % err)
            continue
        if value != step.value:
            problems.append(
                label + ": re-evaluates to %s, not %s"
                % (serialize_value(value), serialize_value(step.value))
            )
    return problems


def _check_caps(G: Group, steps: Tuple[BoundReport, ...]) -> List[str]:
    """Re-derive the caps of a closing ub.squarefree_caps step from the
    rest of the chain, as the row builder derives them. The sweep results
    themselves are trusted."""
    label = "chain[%d] ub.squarefree_caps" % (len(steps) - 1)
    if not G.is_elementary_2:
        # two elements per extra block needs every element of order 2
        return [label + ": caps are only derived on C_2^r"]
    try:
        final = steps[-1].plain_inputs()
        derived = sorted(_e2_chain_caps(profile(G).rank, final["k"], steps[:-1]).items())
        claimed = [tuple(pair) for pair in final["caps"]]
    except (KeyError, TypeError, ValueError) as err:
        return [label + ": caps cannot be re-derived (%s)" % err]
    if claimed != derived:
        return [
            label + ": caps %s do not follow from the chain, which gives %s" % (claimed, derived)
        ]
    return []


def _closes(steps: Tuple[BoundReport, ...], i: int, k: int, constant: str) -> bool:
    """Whether steps[i] bounds constant, D_k or s_le, from above at k (the
    cap, for s_le). A D step bounds D_k at k = 1 only, and ub.e2g_d2 at
    k = E2G_D2_K only. ub.step bounds k when an earlier step of its value
    dk bounds k - 1; any other step's recorded k or cap must equal k."""
    step = steps[i]
    rule, inp = step.rule_id, step.plain_inputs()
    if step.direction != "upper":
        return False
    if step.constant == "D":  # D = D_1
        return constant == "D_k" and k == 1
    if step.constant != constant:
        return False
    if rule == "ub.e2g_d2":
        return k == E2G_D2_K
    if rule == "ub.step":
        return any(
            steps[j].value == inp.get("dk") and _closes(steps, j, k - 1, constant)
            for j in range(i)
        )
    return rule == "sle.trivial_group" or inp.get("cap", inp.get("k")) == k


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    problems: Tuple[str, ...]


def verify_certificate(cert: Certificate, budget: Optional[int] = None) -> CheckResult:
    """Re-verify witness, chain, coherence, and digest. Never re-searches."""
    problems: List[str] = []
    G = cert.group
    k_eff = cert.k if cert.k is not None else 1

    if cert.constant == "eta" and cert.k != profile(G).exponent and G.order > 1:
        problems.append("eta certificate must use k = exponent")

    if cert.witness is not None:
        if cert.witness.group != G:
            problems.append("witness lives in a different group")
        else:
            # s_le and eta witnesses avoid short zero-sums, under the
            # short-free rule alone; D and D_k witnesses are zero-sums,
            # which that rule does not even check
            threshold = cert.constant in ("s_le", "eta")
            expected = cert.lower
            check = cert.witness_check or (_check("short-free") if threshold else None)
            if threshold and not is_finite(expected):
                problems.append("infinite threshold should carry no witness")
            elif _witness_lower(cert.constant, cert.witness) != expected:
                problems.append(
                    "witness length %d differs from claimed %s%s"
                    % (cert.witness.length, serialize_value(expected), " - 1" if threshold else "")
                )
            if check is None:
                problems.append("witness present without a check rule")
            elif (check.get("rule") == "short-free") != threshold:
                problems.append(
                    "witness: rule %r does not bound %s" % (check.get("rule"), cert.constant)
                )
            else:
                problems.extend(_check_witness(G, cert.witness, k_eff, check, budget))
    elif cert.constant in ("D", "D_k") and is_finite(cert.lower) and cert.lower > 0:
        problems.append("no witness for a positive lower side")

    problems.extend(_check_chain(G, cert.upper_chain))

    if cert.upper_chain:
        final = cert.upper_chain[-1]
        last = len(cert.upper_chain) - 1
        constant = "s_le" if cert.constant in ("s_le", "eta") else "D_k"
        # _check_chain refuses a step of an unknown rule, which bounds no constant
        if final.constant is not None and not _closes(cert.upper_chain, last, k_eff, constant):
            problems.append(
                "chain[%d] %s does not bound the certificate's k = %d"
                % (last, final.rule_id, k_eff)
            )
        if final.rule_id == "ub.squarefree_caps":
            problems.extend(_check_caps(G, cert.upper_chain))
        if final.value != cert.upper:
            problems.append(
                "final chain value %s differs from claimed upper %s"
                % (serialize_value(final.value), serialize_value(cert.upper))
            )
    elif is_finite(cert.upper) and G.order > 1:
        # a search backs a side only through the digest-stamped step it
        # leaves in the chain
        problems.append("no chain backing the upper side")

    if cert.stored_digest is not None and cert.stored_digest != cert.digest():
        problems.append("stored digest does not match payload")

    return CheckResult(ok=not problems, problems=tuple(problems))


# ---------------------------------------------------------------------------
# Exhaustive searches


def _automorphism_generators(G: Group) -> List[List[int]]:
    """Index maps of automorphisms that generate a subgroup H of Aut(G).

    Elements are their enumerate_elements positions; map g sends x to
    g[x]. A block is a run a_0, a_1, ... of equal invariant factors n_A.
    Each block gives the swap of a_0 and a_1, the cycle a_0 -> a_1 -> ...
    when it has three or more coordinates, the unit scalings
    x_{a_0} -> u*x_{a_0} for u in a generating set of the units mod n_A,
    and the transvection x_{a_0} -> x_{a_0} + x_{a_1}. Each ordered pair
    of blocks A != B gives the transvection
    x_{a_0} -> x_{a_0} + (n_A / gcd(n_A, n_B))*x_{b_0}: it is well defined
    since n_A divides its coefficient times n_B, and it is inverted by
    subtracting the same multiple.

    H is the group generated by the swaps of adjacent equal invariant
    factors, the unit scalings of every coordinate and the transvections
    x_i -> x_i + (n_i / gcd(n_i, n_j))*x_j for all i != j. Each of those
    maps is the conjugate of one above by a permutation of coordinates
    inside blocks, and those permutations lie in the group the maps above
    generate, since a block's swap and cycle generate all permutations
    of its coordinates. Conversely each map above is one of those maps or
    a product of adjacent swaps. So both lists generate H, and taking one
    map per conjugacy class keeps the orbit BFS of _generic_search at a
    few maps per orbit member (4 on C_3^3, not 11) with the same orbits.
    H need not be all of Aut(G): pruning by H is sound as long as each
    map is an automorphism.
    """
    factors = G.invariant_factors
    elements = list(enumerate_elements(G))
    index = {a: x for x, a in enumerate(elements)}

    def setting(i: int, value) -> List[int]:
        # the map that rewrites coordinate i as value(a) mod n_i
        return [index[a[:i] + (value(a) % factors[i],) + a[i + 1:]] for a in elements]

    def cycling(coords: List[int]) -> List[int]:
        # the map that moves coordinate coords[t] to coords[t + 1], cyclically
        source = dict(zip(coords[1:] + coords[:1], coords))
        return [index[tuple(a[source.get(i, i)] for i in range(len(a)))] for a in elements]

    def transvection(i: int, j: int) -> List[int]:
        # x_i -> x_i + (n_i / gcd(n_i, n_j))*x_j
        c = factors[i] // gcd(factors[i], factors[j])
        return setting(i, lambda a: a[i] + c * a[j])

    blocks = [list(run) for _, run in groupby(range(len(factors)), factors.__getitem__)]
    maps = []
    for block in blocks:
        a0, m = block[0], factors[block[0]]
        if len(block) > 1:
            maps += [cycling(block[:2]), transvection(a0, block[1])]
        if len(block) > 2:
            maps.append(cycling(block))
        # scale only by a generating set of the units mod m, taken greedily:
        # each orbit BFS then costs a few maps per member, not phi(m)
        units = {1}
        for u in range(2, m):
            if gcd(u, m) == 1 and u not in units:
                maps.append(setting(a0, lambda a, u=u: u * a[a0]))
                frontier = units
                while frontier:
                    frontier = {x * u % m for x in frontier} - units
                    units |= frontier
        maps += [transvection(a0, other[0]) for other in blocks if other is not block]
    return maps


@lru_cache(maxsize=16)
def _orbit_map(G: Group, generate, depth: int) -> Tuple[List[List[int]], bytearray]:
    """H = generate(G) as index maps, and a flag per prefix of length <= depth.

    Prefix (e_1, ..., e_L) has slot sum of (e_i + 1)(|G| + 1)^(L - i).
    Slots of one length order as their prefixes do, since each digit
    e_i + 1 lies in 1..|G|. A prefix's byte is 0 until _flag_orbit fills
    its orbit, then 1 if it is the orbit's least sorted image and 2 if
    not. An orbit does not depend on the cap, so every search on G shares
    the flags: the four C_3^3 searches behind davenport_k(C_3^3, 2) fill
    3,172 of them in 6 orbits, in any order. They are keyed on the
    generating function as well as on G, so they only serve searches
    under the generators they were filled from. One byte per slot, with
    no object per prefix, keeps a group's flags at (|G| + 1)^depth bytes
    (22 KB on C_3^3 at depth 3) for as long as they are cached.
    """
    return generate(G), bytearray((G.order + 1) ** depth)


def _slot(prefix, n: int) -> int:
    """The index of a prefix's flag in _orbit_map, on a group of order n."""
    key = 0
    for e in prefix:
        key = key * (n + 1) + e + 1
    return key


def _flag_orbit(generators: List[List[int]], prefix: List[int], n: int, flags: bytearray) -> None:
    """Flag the H-orbit of a nondecreasing prefix in _orbit_map's flags.

    H is generated by the index maps in generators, on a group of order
    n; the orbit is the set of sorted images of the prefix. The BFS
    applies every generator to every member and keeps the orbit as a set
    of slots, so the least slot is the least sorted image. An image of
    length 2 or 3 is sorted by compare-swaps, with the length chosen per
    BFS level, not per image; length 1 (a few orbits per group) and
    lengths past 3 (ORBIT_PRUNE_DEPTH raised, as some tests do) go
    through sorted(). On C_3^3 this takes the BFS of the four searches
    behind davenport_k(C_3^3, 2), 12,688 images, from 0.013-0.024 s with
    a sorted tuple per image to 0.004-0.007 s (2 vCPUs).
    """
    m = n + 1
    orbit = {_slot(prefix, n)}
    frontier = [tuple(prefix)]
    while frontier:
        reached = []
        if len(prefix) == 2:
            for a, b in frontier:
                for g in generators:
                    x, y = g[a], g[b]
                    if x > y:
                        x, y = y, x
                    key = (x + 1) * m + y + 1
                    if key not in orbit:
                        orbit.add(key)
                        reached.append((x, y))
        elif len(prefix) == 3:
            for a, b, c in frontier:
                for g in generators:
                    x, y, z = g[a], g[b], g[c]
                    if x > y:
                        x, y = y, x
                    if y > z:
                        y, z = z, y
                        if x > y:
                            x, y = y, x
                    key = ((x + 1) * m + y + 1) * m + z + 1
                    if key not in orbit:
                        orbit.add(key)
                        reached.append((x, y, z))
        else:
            for t in frontier:
                for g in generators:
                    image = sorted([g[e] for e in t])
                    key = _slot(image, n)
                    if key not in orbit:
                        orbit.add(key)
                        reached.append(image)
        frontier = reached
    for key in orbit:
        flags[key] = 2
    flags[min(orbit)] = 1


def _generic_search(G: Group, cap: int, budget: Optional[int]) -> Tuple[int, Tuple, int]:
    """Longest sequence with no nonempty zero-sum of length <= cap.

    Returns (length, sequence, nodes). With cap >= |G| this is a longest
    zero-sum-free sequence, since a zero-sum longer than |G| >= D(G)
    contains a shorter one. Needs cap >= exp(G), else raises ValueError;
    then every searched sequence is shorter than |G|, as eta(G) <= |G|
    and D(G) <= |G|.

    DFS on nondecreasing element index. Elements are their
    enumerate_elements positions. Level j holds the sums of subsequences
    of length <= j, the empty sum included, as an int bitset stored
    negated: bit x is set iff -x is such a sum. The top level is
    j = min(cap - 1, depth), and a candidate e is refused iff bit e of it
    is set. Levels below cap - |G| + depth can feed no later check and
    are dropped, so the zero-sum-free case keeps only the set of all
    subsequence sums.

    Multiplicity bound: with cap >= exp(G), ord(e) copies of e form a
    zero-sum of length ord(e) <= cap, so e occurs at most ord(e) - 1
    times in a searched sequence. Every extension of a node draws only
    on its free candidates, a set that only shrinks down a branch. So no
    extension of a child is longer than depth + 1 + sum of ord(f) - 1
    over the child's free f; a child where that is <= the best length
    found could at best tie, and a tie never replaces the lex-least
    best. The parent tests it in its candidate loop, before the orbit
    test: the loop stops at the first e where the bound fails over the
    parent's free f >= e (a superset of every later child's free set,
    and one that only shrinks as e grows), and any other child is
    skipped when the bound fails over the free set its new top level
    leaves, before its lower levels are grown. A skipped child is not a
    node. The zero-sum-free search (cap >= |G|) uses its own bound
    instead, depth + |G| - |sums|, tested on entry; it is tighter and
    cheaper there.

    Isomorph rejection (McKay, J. Algorithms 26, 1998): a prefix of length
    <= ORBIT_PRUNE_DEPTH is searched only if it is the least sorted image
    in its orbit under the group H of _automorphism_generators. The DFS
    returns the lex-least longest sequence S*. If some g in H mapped a
    prefix of S* to a smaller sorted image, the sorted image of S* under g
    would be a smaller sequence of the same length with the same
    property. So S* is never pruned: pruning moves node counts, not
    results. H and the flags of the prefixes come from _orbit_map, and
    _flag_orbit fills the flags of an orbit the first time a search meets
    one of its members, so each orbit is found once per process, not
    once per search. That BFS applies every generator to every member,
    so it is given one generator per conjugacy class (4 maps on C_3^3):
    the orbits, flags and node counts are those of the full list. A cyclic
    group is not pruned: its H is the unit scalings, which cut about 3%
    of the nodes (C_97: 4,657 -> 4,515) while the orbit BFS makes the
    search 2-6 times slower.
    """
    if cap < G.exponent:
        raise ValueError(
            "cap %d is below the exponent %d of %s" % (cap, G.exponent, format_group(G))
        )
    if G.order > GENERIC_ORDER_GUARD:
        raise SearchError(
            "order %d exceeds the exhaustive-search guard (%d)"
            % (G.order, GENERIC_ORDER_GUARD)
        )
    n = G.order
    elements = list(enumerate_elements(G))
    if G.rank > 1:
        generators, flags = _orbit_map(G, _automorphism_generators, ORBIT_PRUNE_DEPTH)
    else:
        generators = []
    full = (1 << n) - 1
    # a negated level grows by the one below it translated by -e
    minus = [translation(G, neg(G, a)) for a in elements]
    zero_sum_free = cap >= n
    # ord(e) - 1 per element index, and per order > 1 the pair
    # (ord(e) - 1, indices of the elements of order ord(e))
    weight = [element_order(G, a) - 1 for a in elements]
    by_order: Dict[int, int] = {}
    for x, w in enumerate(weight):
        if w:
            by_order[w] = by_order.get(w, 0) | 1 << x
    multiplicity = list(by_order.items())
    limit = DEFAULT_SEARCH_BUDGET if budget is None else budget
    nodes = 0
    best_len = 0
    best_seq: List[int] = []

    def canonical(seq: List[int]) -> bool:
        # seq is nondecreasing, so it is its own sorted form. The first
        # time a multiset is met, its H-orbit is flagged.
        key = _slot(seq, n)
        if not flags[key]:
            _flag_orbit(generators, seq, n, flags)
        return flags[key] == 1

    def rec(seq: List[int], levels: List[int], lo: int):
        nonlocal nodes, best_len, best_seq
        nodes += 1
        if nodes > limit:
            raise gf2.budget_exhausted(format_group(G), cap, zero_sum_free, limit)
        depth = len(seq)
        if depth > best_len:
            best_len = depth
            best_seq = list(seq)
        top = levels[-1]
        if zero_sum_free and depth + n - top.bit_count() <= best_len:
            return
        free = (full ^ top) >> lo << lo
        # room: sum of ord(f) - 1 over the free f >= e, the most any child
        # from e on can add past depth + 1
        room = 0
        if not zero_sum_free:
            for w, mask in multiplicity:
                room += w * (free & mask).bit_count()
        # a new top while depth < cap - 1; the bottom goes once depth >= |G| - cap
        src = levels + [top] if depth < cap - 1 else levels
        keep = [] if depth >= n - cap else [src[0]]
        while free:
            bit = free & -free
            free ^= bit
            e = bit.bit_length() - 1
            if not zero_sum_free:
                if depth + 1 + room <= best_len:
                    return
                room -= weight[e]
            t = src[-2]
            for low, high, up, down in minus[e]:
                t = (t & low) << up | (t & high) >> down
            new_top = src[-1] | t
            if not zero_sum_free:
                bound = depth + 1
                below = (full ^ new_top) >> e << e
                for w, mask in multiplicity:
                    bound += w * (below & mask).bit_count()
                if bound <= best_len:
                    continue
            seq.append(e)
            if generators and len(seq) <= ORBIT_PRUNE_DEPTH and not canonical(seq):
                seq.pop()
                continue
            grown = list(keep)
            for j in range(1, len(src) - 1):
                t = src[j - 1]
                for low, high, up, down in minus[e]:
                    t = (t & low) << up | (t & high) >> down
                grown.append(src[j] | t)
            grown.append(new_top)
            rec(seq, grown, e)
            seq.pop()

    rec([], [1], 1)  # level 0 holds the empty sum: bit 0
    return best_len, tuple(elements[e] for e in best_seq), nodes


def _ids_to_sequence(G: Group, ids) -> Sequence:
    counts: Dict = {}
    for v in ids:
        e = element_at(G, v)
        counts[e] = counts.get(e, 0) + 1
    return Sequence.from_counts(G, counts)


def _with_closing(S: Sequence) -> Sequence:
    """S followed by the one element that makes the whole sequence zero-sum."""
    return Sequence.from_elements(S.group, S.as_list() + [neg(S.group, S.sum())])


def _short_free(G: Group, cap: int, budget: Optional[int]) -> Tuple[int, Sequence]:
    """A longest sequence with no nonempty zero-sum of length <= cap, with its length.

    The one search behind D and s_le, on every group. With cap >= |G| the
    sequence is a longest zero-sum-free one. Raises SearchError past the
    budget, DEFAULT_SEARCH_BUDGET nodes when None.
    """
    size, seq, _nodes = _generic_search(G, cap, budget)
    return size, Sequence.from_elements(G, seq)


# ---------------------------------------------------------------------------
# Davenport constant


@_memoized(maxsize=128)
def davenport(G: Group, budget: Optional[int] = None) -> Certificate:
    """Exact longest-minimal-zero-sum constant: on C_2^r from ub.e2g_d,
    met by a basis and its sum; on other p-groups and on rank <= 2 from
    ub.olson, met by the D* atom; elsewhere by exhaustive search, which
    alone spends the budget."""
    if G.order == 1:
        return Certificate.from_evidence(
            "D", G, None, Sequence.from_counts(G, {zero(G): 1}), _check("atom"), (),
            notes=("the identity element is the only minimal zero-sum",),
        )
    if G.is_elementary_2:
        witness = _ids_to_sequence(G, gf2.basis_plus_sum(G.rank))
        step = e2g_d_upper(G.rank)
    elif olson_applies(G):
        witness = _dstar_witness(G, 1)
        step = olson_upper(G)
    else:
        size, free = _short_free(G, G.order, budget)
        witness = _with_closing(free)
        step = _search_step("search.zsf", "exhaustive zero-sum-free maximum",
                            group=format_group(G), max_free=size)
    return Certificate.from_evidence("D", G, None, witness, _check("atom"), (step,))


# ---------------------------------------------------------------------------
# Short-block thresholds


@_memoized(maxsize=128)
def s_le(G: Group, k: int, budget: Optional[int] = None) -> Certificate:
    """Threshold forcing a nonempty zero-sum of length at most k.

    On C_2^r with 2 <= k < D the upper side is ub.e2g_sphere and the
    lower side the longest of gf2.code_ids. Where they differ the search
    decides up to rank 5, which happens only for k = 4 at rank 5; past
    rank 5 the two give a bracket, since the search is too slow there
    (s_le(C_2^6, 4) takes 53,389 nodes). On C_m + C_n with m | n the
    case k = n is ub.eta_rank2, met by f^(n-1) e^(m-1) (e+f)^(m-1) with e
    and f the unit vectors: a zero-sum f^a e^b (e+f)^c has n | a + c and
    m | b + c, so a + c = n and then b >= 1.
    """
    if k < 1:
        raise ValueError("k must be positive")
    prof = profile(G)

    def threshold(chain, witness) -> Certificate:
        check = None if witness is None else _check("short-free")
        return Certificate.from_evidence("s_le", G, k, witness, check, chain)

    if G.order == 1:
        step = report("sle.trivial_group", [("order", 1, COMPUTED)])
        return threshold([step], Sequence.empty(G))
    if k < prof.exponent:
        step = report(
            "sle.infinite",
            [("k", k, SUPPLIED), ("exponent", prof.exponent, COMPUTED)],
            note="powers of a maximal-order element never close a short block",
        )
        return threshold([step], None)
    d_cert = davenport(G, budget)
    D = d_cert.value
    if k >= D:
        step = report(
            "sle.equals_davenport", [("k", k, SUPPLIED), ("D", D, _provenance(d_cert.upper_chain))]
        )
        return threshold(d_cert.upper_chain + (step,), _strip_closing(d_cert.witness))
    # exponent <= k < D
    if G.is_elementary_2:
        step = e2g_sphere_upper(prof.rank, k)
        ids = max(gf2.code_ids(prof.rank, k), key=len)
        if len(ids) + 1 == step.value or prof.rank > 5:
            return threshold([step], _ids_to_sequence(G, ids))
    elif prof.rank == 2 and k == prof.exponent:
        m, n = G.invariant_factors
        witness = Sequence.from_counts(G, {(0, 1): n - 1, (1, 0): m - 1, (1, 1): m - 1})
        return threshold([eta_rank2_upper(G, k)], witness)
    size, witness = _short_free(G, k, budget)
    step = _search_step("search.sle", "exhaustive maximum without zero-sums of length <= cap",
                        group=format_group(G), cap=k, max_free=size)
    return threshold([step], witness)


def _strip_closing(witness: Sequence) -> Sequence:
    """Drop one element from a minimal zero-sum to get a zero-sum-free run."""
    return Sequence.from_elements(witness.group, witness.as_list()[:-1])


def eta(G: Group, budget: Optional[int] = None) -> Certificate:
    """Threshold for blocks no longer than the exponent."""
    prof = profile(G)
    k = prof.exponent if G.order > 1 else 1
    base = s_le(G, k, budget)
    return replace(base, constant="eta")


# ---------------------------------------------------------------------------
# k-wise Davenport constants


def _e2_caps(r: int, k: int, m_bounds: Dict[int, int], swept: Dict[int, int]) -> Dict[int, int]:
    """caps[j] for j = 0..min(k, J): the largest size a zero-sum set of
    distinct nonzero ids of C_2^r can have when it splits into at most j
    disjoint circuits. J = (2^r - 1) // 3 is the most circuits any such
    set splits into, and the full set splits into J of them: a line
    spread for even r, a maximal partial spread plus one 4-circuit for
    odd r (Beutelspacher, Math. Z. 145, 1975).

    The walk for j starts at m_bounds[j] (a ub.recursion bound on D_j;
    the full 2^r - 1 ids when absent) and steps down past every size it
    can exclude. A size of 2^r - 1 - c ids is excluded when swept maps c
    to at least j + 1 pieces, since that sweep proves every such set
    splits into that many circuits.
    """
    full = (1 << r) - 1
    most = full // 3
    caps = {0: 0}
    for j in range(1, min(k, most) + 1):
        w = min(m_bounds.get(j, full), full)
        if w < full or j < most:
            # the full set splits into J > j circuits, and full - 1 or
            # full - 2 ids leave a complement of 1 or 2 ids, not zero-sum
            w = min(w, full - 3)
            while w > 0 and swept.get(full - w, 0) >= j + 1:
                w -= 1
        caps[j] = w
    return caps


def _e2_chain_caps(r: int, k: int, steps) -> Dict[int, int]:
    """_e2_caps on what the steps of a C_2^r row record: per j the least
    ub.recursion value with k = j, and per complement size the most pieces
    a sweep of rank r proved. A sweep that recorded failures is refused by
    its rule in _check_chain, not here."""
    m_bounds: Dict[int, int] = {}
    swept: Dict[int, int] = {}
    for step in steps:
        inp = step.plain_inputs()
        if step.rule_id == "ub.recursion":
            j = inp["k"]
            m_bounds[j] = min(step.value, m_bounds.get(j, step.value))
        elif step.rule_id == "search.sweep" and inp["r"] == r:
            c = inp["complement_size"]
            swept[c] = max(inp["pieces"], swept.get(c, 0))
    return _e2_caps(r, k, m_bounds, swept)


def _e2_witnesses(r: int) -> Dict[int, Tuple[Tuple[int, ...], str, dict]]:
    """Row witnesses of C_2^r from row 2 to row J = (2^r - 1) // 3, which
    is the full set: the ids, a doubled id listed twice, and the witness
    rule with its params. Rows 2..J - 1 exist for r = 4 and 5 only."""
    full = gf2.full_set_minus(r, ())
    quarter = ("coset-quarter", {"functional": 1 << (r - 1)})
    disjoint = ("max-disjoint", {})
    third = ("squarefree-third", {})
    rows = {len(full) // 3: (full, *third)}
    if r == 4:
        minus_circuit = gf2.full_set_minus(4, (1, 2, 4, 7))
        rows.update({
            2: (gf2.top_coset_ids(4), *quarter),
            3: (minus_circuit, *third),
            4: (minus_circuit + (1, 1), *third),
        })
    elif r == 5:
        rows.update({
            2: (gf2.lex_least_coset_zero_sum(5, 10), *quarter),
            3: (gf2.RANK5_CORE_MAXL3, *disjoint),
            4: (gf2.RANK5_CORE_MAXL4, *quarter),
            5: (gf2.RANK5_CORE_MAXL5, *disjoint),
            6: (gf2.RANK5_CORE_MAXL5 + (1, 1), *disjoint),
            7: (gf2.RANK5_CORE_MAXL5 + (1, 1, 2, 2), *disjoint),
            8: (gf2.full_set_minus(5, (1, 2, 4, 8, 15)), *third),
            9: (gf2.full_set_minus(5, (1, 2, 3)), *third),
        })
    return rows


class _E2Pipeline:
    """Shared state for the D_k rows of C_2^r, 2 <= r <= 5: thresholds,
    caps, and sweep records. Only rank 5 has sweeps to run: the caps of
    r <= 4 come out exact from the thresholds alone.

    A row's chain holds only what its closing ub.squarefree_caps step
    reads, the ub.recursion and search.sweep steps, and the evidence for
    the recursions' inputs: ub.e2g_d for D, and the ub.e2g_sphere step of
    each level ell some recursion uses. No step is a search that takes a
    budget.
    """

    def __init__(self, r: int):
        self.G = make_group((2,) * r)
        self.r = r
        self.pieces = gf2.RANK5_SWEEP_PIECES if r == 5 else {}
        self._sweeps: Dict[int, gf2.SweepRecord] = {}
        self._m_steps: Dict[int, BoundReport] = {}
        self.d_step = e2g_d_upper(r)
        self.D1 = self.d_step.value
        # the threshold step of each level a ub.recursion step may use
        self.s_steps = {ell: e2g_sphere_upper(r, ell) for ell in (2, 3, 4)}
        self.s_values = {ell: step.value for ell, step in self.s_steps.items()}
        self.witnesses = _e2_witnesses(r)

    def sweep(self, c: int) -> gf2.SweepRecord:
        rec = self._sweeps.get(c)
        if rec is not None:
            return rec
        rec = gf2.run_sweep(self.r, c, self.pieces[c])
        if rec.failures:
            raise SearchError("partition sweep c=%d reported failures" % c)
        self._sweeps[c] = rec
        return rec

    def m_bound(self, j: int) -> BoundReport:
        """Best one-row recursion cap on zero-sum sizes with maxl <= j."""
        if j not in self._m_steps:
            self._m_steps[j] = best_recursion(
                self.G, self.s_values, self.D1, j, COMPUTED, COMPUTED
            )
        return self._m_steps[j]

    def caps_for(self, k: int) -> Tuple[Dict[int, int], List[BoundReport]]:
        """The row's caps and steps, with only the sweeps its bound needs.

        A first walk counts every sweep of self.pieces as run, and runs
        none, to find the least bound V they can reach. Each size w <=
        full - 3 with V - 2(k - j) < w <= the walk's start for j must be
        excluded for j, and only the sweep of complement full - w can do
        that. So those sweeps are the one least set that reaches V: they
        run, and the caps are those _e2_chain_caps derives from the row's
        steps, as the verifier derives them.
        """
        full = (1 << self.r) - 1
        most = full // 3
        m_bounds = {j: self.m_bound(j).value for j in range(1, min(k, most - 1) + 1)}
        recursions = [self.m_bound(j) for j in m_bounds]
        levels = sorted({ell for step in recursions for ell in step.input_value("ell")})
        steps = [self.d_step] if recursions else []
        steps += [self.s_steps[ell] for ell in levels] + recursions
        every = _e2_caps(self.r, k, m_bounds, self.pieces)
        bound = max(cap + 2 * (k - j) for j, cap in every.items())
        sweeps = sorted(
            {
                full - w
                for j in range(1, min(k, most) + 1)
                for w in range(bound - 2 * (k - j) + 1, min(m_bounds.get(j, full), full - 3) + 1)
            }
        )
        for c in sweeps:
            rec = self.sweep(c)
            note = "sets of this size split into at least %d disjoint blocks" % rec.pieces
            steps.append(
                _search_step("search.sweep", note, r=rec.r,
                             complement_size=rec.complement_size, pieces=rec.pieces,
                             instances=rec.instances, failures=rec.failures)
            )
        return _e2_chain_caps(self.r, k, steps), steps

    def upper(self, k: int) -> List[BoundReport]:
        caps, steps = self.caps_for(k)
        steps.append(report(
            "ub.squarefree_caps",
            [("k", k, SUPPLIED), ("caps", tuple(sorted(caps.items())), COMPUTED)],
            note="squarefree caps plus two elements per extra block",
        ))
        return steps

    def witness(self, k: int) -> Tuple[Sequence, dict]:
        """Row k's witness: past the table's last row, that row plus a pair
        of id 1 per extra block."""
        last = max(self.witnesses)
        ids, rule, params = self.witnesses[min(k, last)]
        return _ids_to_sequence(self.G, ids + (1,) * 2 * max(k - last, 0)), _check(rule, **params)

    def row(self, k: int) -> Certificate:
        return Certificate.from_evidence("D_k", self.G, k, *self.witness(k), self.upper(k))


@lru_cache(maxsize=16)
def _engine(r: int) -> _E2Pipeline:
    """The one D_k row pipeline of C_2^r per rank, 2 <= r <= 5. It runs no
    search that takes a budget, and its sweeps run without one."""
    return _E2Pipeline(r)


def _dstar_witness(G: Group, k: int) -> Sequence:
    """e_i^(n_i - 1) for each lower coordinate i, e_r^(k exp - 1) and the
    closing element (1, ..., 1): a zero-sum of length D*(G) + (k - 1) exp."""
    r = G.rank
    unit = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    counts = {unit[i]: n - 1 for i, n in enumerate(G.invariant_factors[:-1])}
    counts[unit[-1]] = k * G.exponent - 1
    counts[(1,) * r] = counts.get((1,) * r, 0) + 1  # on a cyclic group, e_r itself
    return Sequence.from_counts(G, counts)


def _verified_lower(
    G: Group, k: int, candidates: List[Tuple[Sequence, dict]], budget: Optional[int]
) -> Tuple[Optional[Sequence], Optional[dict]]:
    """Best candidate whose block bound re-verifies under its rule."""
    best: Optional[Sequence] = None
    best_check: Optional[dict] = None
    for seq, check in sorted(candidates, key=lambda c: -c[0].length):
        if best is not None and seq.length <= best.length:
            break
        if not _check_witness(G, seq, k, check, budget):
            best, best_check = seq, check
    return best, best_check


@lru_cache(maxsize=128)
def _generic_rows(G: Group, budget: Optional[int]) -> List[Certificate]:
    """The D_k rows of G built so far: rows[k - 1] is row k.

    Starts at row 1 and only grows, as _generic_dk appends each row
    built from the one before it, so a row is built once per budget.
    """
    return [davenport_k(G, 1, budget)]


def _generic_dk(G: Group, k: int, budget: Optional[int]) -> Certificate:
    """Row k, sandwiched from searches, bound rules and constructions.

    Appends the rows missing from _generic_rows in a loop. Row kk's upper
    side is the least of bounds.dk_upper_bounds, fed D, the thresholds
    s_le(G, ell) for exp <= ell < min(D, exp + 3) and row kk - 1's upper
    side; a rule step rests on the chains of the inputs it names (dk, D,
    ell, ell_1). D and the thresholds are labelled search only when their
    certificates rest on a search step. Its lower candidates include row
    kk - 1's witness plus a pair g, -g. Raises SearchError when no lower
    witness re-verifies within the budget.
    """
    rows = _generic_rows(G, budget)
    if k <= len(rows):
        return rows[k - 1]
    prof = profile(G)
    d_cert = davenport(G, budget)
    D = d_cert.value

    s_map: Dict[int, int] = {}
    s_steps: Dict[int, BoundReport] = {}
    for ell in range(prof.exponent, min(D, prof.exponent + 3)):
        try:
            cert = s_le(G, ell, budget)
        except (SearchError, BoundError):
            continue
        if cert.value is not None and is_finite(cert.value):
            s_map[ell] = cert.value
            s_steps[ell] = cert.upper_chain[-1]
    d_prov = _provenance(d_cert.upper_chain)
    s_prov = _provenance(s_steps.values())

    while len(rows) < k:
        kk = len(rows) + 1
        prev = rows[-1]
        chains: List[List[BoundReport]] = []
        for step in dk_upper_bounds(G, kk, D, s_map, prev.upper, d_prov, s_prov):
            inputs = step.plain_inputs()
            chain = list(prev.upper_chain) if "dk" in inputs else []
            if "D" in inputs:
                chain += d_cert.upper_chain
            for name in ("ell", "ell_1"):
                levels = inputs.get(name, ())
                for ell in levels if isinstance(levels, tuple) else (levels,):
                    chain.append(s_steps[ell])
            chains.append(chain + [step])
        hi_steps = min(chains, key=lambda chain: (chain[-1].value, len(chain)))

        disjoint = _check("max-disjoint")
        lower_candidates: List[Tuple[Sequence, dict]] = [(_dstar_witness(G, kk), disjoint)]
        for s, t in elb_settings(G):
            lower_candidates.append((_with_closing(elb_witness(G, s, t, kk)), disjoint))
        g = element_at(G, 1)
        appended = Sequence.from_elements(G, prev.witness.as_list() + [g, neg(G, g)])
        lower_candidates.append((appended, disjoint))
        witness, check = _verified_lower(G, kk, lower_candidates, budget)
        if witness is None:
            raise SearchError(
                "no lower witness for D_%d(%s) verified within the budget %d"
                % (kk, format_group(G), DEFAULT_VERIFY_BUDGET if budget is None else budget)
            )
        rows.append(Certificate.from_evidence("D_k", G, kk, witness, check, hi_steps))
    return rows[k - 1]


@_memoized(maxsize=256)
def davenport_k(G: Group, k: int, budget: Optional[int] = None) -> Certificate:
    """Largest zero-sum length factorizable into at most k blocks."""
    if k < 1:
        raise ValueError("k must be positive")
    prof = profile(G)
    if G.order == 1:
        return Certificate.from_evidence(
            "D_k", G, k, Sequence.from_counts(G, {zero(G): k}), _check("zeros"),
            (k_times_d(k, 1, d_prov=COMPUTED),),
        )
    if k == 1:
        d_cert = davenport(G, budget)
        return replace(d_cert, constant="D_k", k=1)
    if prof.rank == 1:
        d_cert = davenport(G, budget)
        witness = Sequence.from_counts(G, {element_at(G, 1): k * G.order})
        step = k_times_d(k, d_cert.value, d_prov=_provenance(d_cert.upper_chain))
        return Certificate.from_evidence(
            "D_k", G, k, witness, _check("cyclic-power"), d_cert.upper_chain + (step,)
        )
    if G.is_elementary_2 and prof.rank <= 5:
        return _engine(prof.rank).row(k)
    if prof.rank == 2:
        # the D* sequence with k - 1 more periods of the top coordinate
        return Certificate.from_evidence(
            "D_k", G, k, _dstar_witness(G, k), _check("max-disjoint"), (halter_koch_upper(G, k),)
        )
    return _generic_dk(G, k, budget)


def certify_dk(G: Group, k: int, budget: Optional[int] = None) -> Certificate:
    """Compute and re-verify a row certificate before returning it."""
    cert = davenport_k(G, k, budget)
    check = verify_certificate(cert, budget)
    if not check.ok:
        raise CertificateError(
            "internal certificate failed verification: " + "; ".join(check.problems)
        )
    return cert


# ---------------------------------------------------------------------------
# Eventual linearity


@dataclass(frozen=True)
class StabilizationReport:
    """Empirical tail read of the rows, with an explicit certification gate."""

    group: Group
    exponent: int
    k_max: int
    rows: Tuple[Tuple[int, int, int], ...]  # (k, lo, hi)
    d0: Optional[int]
    k_onset: Optional[int]
    certified: bool
    method: str

    def to_json(self) -> dict:
        return {
            "group": format_group(self.group),
            "exponent": self.exponent,
            "k_max": self.k_max,
            "rows": [
                {"k": k, "lo": lo, "hi": hi} for k, lo, hi in self.rows
            ],
            "d0": self.d0,
            "k_onset": self.k_onset,
            "certified": self.certified,
            "method": self.method,
        }


def stabilization(G: Group, k_max: int, budget: Optional[int] = None) -> StabilizationReport:
    """Read the eventual arithmetic progression off the computed rows.

    The offset and onset are certified only when a sufficient criterion
    applies: the final rows step by exactly the exponent, the table is
    long enough relative to the short-block threshold at the exponent,
    and the offset matches the complement-group constant minus one.
    """
    if k_max < 1:
        raise ValueError("k_max must be positive")
    prof = profile(G)
    exp = prof.exponent if G.order > 1 else 1
    certs = [davenport_k(G, k, budget) for k in range(1, k_max + 1)]
    rows = tuple(
        (c.k, c.lower, c.upper) for c in certs
    )
    final = certs[-1]
    if final.value is None:
        return StabilizationReport(
            group=G,
            exponent=exp,
            k_max=k_max,
            rows=rows,
            d0=None,
            k_onset=None,
            certified=False,
            method="final row is a bracket; no tail read",
        )
    d0 = final.value - k_max * exp
    onset = k_max
    while onset > 1:
        prev = certs[onset - 2]
        if prev.value is None or prev.value != d0 + (onset - 1) * exp:
            break
        onset -= 1
    certified = False
    method = "empirical tail read"
    if k_max >= onset + 1:
        try:
            eta_cert = eta(G, budget)
            eta_value = eta_cert.upper
        except (SearchError, BoundError):
            eta_value = None
        if eta_value is not None and is_finite(eta_value):
            threshold = ceil_div(eta_value, exp) - 1
            if k_max >= threshold:
                minus = make_group(prof.minus_factors)
                try:
                    d_minus = davenport(minus, budget).value
                except SearchError:
                    d_minus = None
                if d_minus is not None and d0 == d_minus - 1:
                    certified = True
                    method = (
                        "threshold criterion: table depth %d >= %d and offset "
                        "matches the complement constant" % (k_max, threshold)
                    )
    return StabilizationReport(
        group=G,
        exponent=exp,
        k_max=k_max,
        rows=rows,
        d0=d0,
        k_onset=onset,
        certified=certified,
        method=method,
    )
