"""Spans and counters recorded from outside the program.

``install`` replaces public functions of each zerosum module with
wrappers, in the namespace the caller looks them up in: ``invariants``
calls ``davenport`` and the bound rules through its own globals, the
sweep through ``gf2.run_sweep``, and the cache through ``cache.*``.
Spans stay in memory and are written once, as JSON lines, at the end.
"""

import json
import os
from time import perf_counter

# the bound rules invariants imports from bounds, timed together as bounds.rule
BOUND_RULES = (
    "cpr_upper",
    "e2g_d2_upper",
    "e2g_s2m_upper",
    "elb_lower",
    "k_times_d",
    "lower_dstar",
    "remark_ub",
    "step_ub",
    "ub_recursion",
)


class Tracer:
    """Spans as [group, function, start, end, parent index]; a group is the
    layer metric a span counts toward, and may cover several functions."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {}

    def call(self, group, function, fn, *args, **kwargs):
        spans, stack = self.spans, self.stack
        index = len(spans)
        record = [group, function, 0.0, 0.0, stack[-1] if stack else -1]
        spans.append(record)
        stack.append(index)
        record[2] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[3] = perf_counter()
            stack.pop()

    def retime(self, convert):
        """Map every span's start and end through convert."""
        for record in self.spans:
            record[2] = convert(record[2])
            record[3] = convert(record[3])

    def bump(self, name, by=1):
        self.counts[name] = self.counts.get(name, 0) + by

    def wrap(self, module, attr, group, eager=False, hook=None):
        """Replace module.attr by a span-recording wrapper."""
        fn = getattr(module, attr)
        call = self.call
        if eager:
            # generators are consumed inside the span; every caller lists them
            def body(*args, **kwargs):
                return list(fn(*args, **kwargs))

            def wrapper(*args, **kwargs):
                items = call(group, attr, body, *args, **kwargs)
                if hook:
                    hook(items)
                return iter(items)

        else:

            def wrapper(*args, **kwargs):
                result = call(group, attr, fn, *args, **kwargs)
                if hook:
                    hook(result)
                return result

        setattr(module, attr, wrapper)

    def count_calls(self, module, attr, name):
        """Replace module.attr by a wrapper that only counts calls."""
        fn = getattr(module, attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        setattr(module, attr, wrapper)

    def write_jsonl(self, path):
        selfs = self_times(self.spans)
        with open(path, "w", encoding="utf-8") as handle:
            for i, (group, function, start, end, parent) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": group + ":" + function,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "self_s": selfs[i],
                        }
                    )
                    + "\n"
                )


def install(tracer):
    """Wrap the layer functions of the zerosum modules, recording into tracer."""
    from zerosum import cache, constructions, gf2, groups, sequences
    from zerosum import factorizations as fz
    from zerosum import invariants as inv

    tracer.wrap(inv, "davenport_k", "invariants.davenport_k")
    for name in ("davenport", "s_le"):
        tracer.wrap(inv, name, "invariants.search")
    tracer.wrap(inv, "_check_witness", "invariants.witness_check")
    tracer.wrap(inv, "verify_certificate", "invariants.verify")
    tracer.wrap(inv, "evaluate_rule", "bounds.eval")
    for name in BOUND_RULES:
        tracer.wrap(inv, name, "bounds.rule")
    tracer.wrap(inv, "elb_witness", "constructions.elb")
    tracer.wrap(inv, "shortest_zero_sum_length", "sequences.short_zero_sum")
    for name in ("is_minimal_zero_sum", "max_disjoint_zero_sums", "max_length"):
        tracer.wrap(inv, name, "factorizations.query")
    for module in (inv, fz):
        tracer.wrap(
            module,
            "minimal_divisors" if module is inv else "atoms_through",
            "factorizations.atoms",
            eager=True,
            hook=lambda items: tracer.bump("factorizations.atoms_count", len(items)),
        )
    for name in ("max_length", "max_disjoint_zero_sums", "length_set"):
        tracer.wrap(fz, name, "factorizations.query")

    tracer.wrap(
        gf2,
        "run_sweep",
        "gf2.sweep",
        hook=lambda rec: tracer.bump("gf2.sweep_instances", rec.instances),
    )
    tracer.wrap(gf2, "canonical_zero_sum_subsets", "gf2.enum")
    tracer.wrap(gf2, "find_circuit_partition", "gf2.partition")
    for name in ("max_independent_size", "max_set_without_short_zero_sums", "SmallRankEngine"):
        tracer.wrap(gf2, name, "gf2.small_search")

    def loaded(result):
        tracer.bump("cache.misses" if result is None else "cache.hits")

    for name in ("load_atoms", "load_sweep"):
        tracer.wrap(cache, name, "cache.load", hook=loaded)
    for name in ("store_atoms", "store_sweep"):
        tracer.wrap(cache, name, "cache.store")

    # one add is too cheap to time through a wrapper, so it is only counted
    for module in (inv, fz, sequences, constructions, groups):
        tracer.count_calls(module, "add", "groups.add_calls")


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    selfs = [end - start for _, _, start, end, _ in spans]
    for _, _, start, end, parent in spans:
        if parent >= 0:
            selfs[parent] -= end - start
    return selfs


def _outermost(spans, groups):
    """Spans in ``groups`` with no ancestor in ``groups``, and their totals."""
    total, calls = {}, {}
    for group, _, start, end, parent in spans:
        if group not in groups:
            continue
        calls[group] = calls.get(group, 0) + 1
        p = parent
        while p >= 0 and spans[p][0] != group:
            p = spans[p][4]
        if p < 0:
            total[group] = total.get(group, 0.0) + end - start
    return total, calls


ASSEMBLY_CHILDREN = ("invariants.search", "gf2.sweep", "invariants.witness_check")


def assemble_time(spans):
    """davenport_k time minus the searches, sweeps and witness checks under it."""
    total = 0.0
    for group, _, start, end, parent in spans:
        if group == "invariants.davenport_k":
            p = parent
            while p >= 0 and spans[p][0] != group:
                p = spans[p][4]
            if p < 0:
                total += end - start
        elif group in ASSEMBLY_CHILDREN:
            p = parent
            while p >= 0 and spans[p][0] not in ASSEMBLY_CHILDREN + ("invariants.davenport_k",):
                p = spans[p][4]
            if p >= 0 and spans[p][0] == "invariants.davenport_k":
                total -= end - start
    return total


LAYER_GROUPS = (
    "gf2.sweep",
    "gf2.enum",
    "gf2.partition",
    "gf2.small_search",
    "invariants.search",
    "invariants.verify",
    "invariants.json",
    "bounds.rule",
    "bounds.eval",
    "factorizations.query",
    "factorizations.atoms",
    "constructions.elb",
    "sequences.short_zero_sum",
    "cache.load",
    "cache.store",
)


def layer_metrics(tracer, cache_dir):
    """Per-layer values of one traced pass, keyed by metric name."""
    time_s, calls = _outermost(tracer.spans, LAYER_GROUPS)
    counts = tracer.counts
    sweep_s = time_s.get("gf2.sweep", 0.0)
    instances = counts.get("gf2.sweep_instances", 0)
    out = {
        "gf2.sweep_s": sweep_s,
        "gf2.sweep_calls": calls.get("gf2.sweep", 0),
        "gf2.sweep_instances": instances,
        "gf2.instances_per_s": instances / sweep_s if sweep_s else 0.0,
        "gf2.enum_s": time_s.get("gf2.enum", 0.0),
        "gf2.partition_calls": calls.get("gf2.partition", 0),
        "gf2.partition_s": time_s.get("gf2.partition", 0.0),
        "gf2.small_search_s": time_s.get("gf2.small_search", 0.0),
        "invariants.search_s": time_s.get("invariants.search", 0.0),
        "invariants.search_calls": calls.get("invariants.search", 0),
        "invariants.assemble_s": assemble_time(tracer.spans),
        "invariants.verify_s": time_s.get("invariants.verify", 0.0),
        "invariants.verify_calls": calls.get("invariants.verify", 0),
        "invariants.json_s": time_s.get("invariants.json", 0.0),
        "bounds.rule_calls": calls.get("bounds.rule", 0),
        "bounds.rule_s": time_s.get("bounds.rule", 0.0),
        "bounds.eval_calls": calls.get("bounds.eval", 0),
        "bounds.eval_s": time_s.get("bounds.eval", 0.0),
        "factorizations.query_calls": calls.get("factorizations.query", 0),
        "factorizations.query_s": time_s.get("factorizations.query", 0.0),
        "factorizations.atoms_s": time_s.get("factorizations.atoms", 0.0),
        "factorizations.atoms_count": counts.get("factorizations.atoms_count", 0),
        "groups.add_calls": counts.get("groups.add_calls", 0),
        "constructions.elb_calls": calls.get("constructions.elb", 0),
        "constructions.elb_s": time_s.get("constructions.elb", 0.0),
        "sequences.short_zero_sum_s": time_s.get("sequences.short_zero_sum", 0.0),
        "cache.load_s": time_s.get("cache.load", 0.0),
        "cache.hits": counts.get("cache.hits", 0),
        "cache.misses": counts.get("cache.misses", 0),
        "cache.store_s": time_s.get("cache.store", 0.0),
        "cache.bytes": dir_bytes(cache_dir),
    }
    return out


def dir_bytes(path):
    total = 0
    for folder, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(folder, name))
    return total
