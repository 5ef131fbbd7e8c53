"""One pass of a workload, in a fresh process started by run.py.

Phases:
  prefill  compute the certificate table once, to fill ZS_CACHE_DIR;
  setup    import and build the inputs, then stop (a set-up sample);
  timed    run every operation, verify and check it, and time it.

Times are read twice: as wall time, and at the machine's reference speed
through ``refclock`` (``*_ref_s``). The result goes to --out as one JSON
object. With --trace 1 the layer functions are wrapped first; spans are
converted to reference seconds after the pass and go to --spans.
"""

import argparse
import functools
import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import refclock  # noqa: E402  (these three sit beside this file)
import tracer  # noqa: E402
import workloads  # noqa: E402

MAX_ERRORS = 5


def compute(inv, constant, G, k):
    # budget goes positionally, as in the library's own internal calls, so
    # a query that davenport_k already answered is a read of its lru_cache
    if constant == "D":
        return inv.davenport(G, None)
    if constant == "D_k":
        return inv.davenport_k(G, k, None)
    return inv.s_le(G, k, None)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--phase", required=True, choices=("prefill", "setup", "timed"))
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()

    from zerosum import cache, factorizations, groups, invariants, sequences
    from zerosum.invariants import Certificate

    memoized = [invariants.davenport, invariants.s_le, invariants.davenport_k, invariants._engine]
    clock = refclock.RefClock()
    spans = None
    if args.trace:
        spans = tracer.Tracer()
        tracer.install(spans)

    group = functools.lru_cache(maxsize=None)(groups.make_group)
    cert_ops = [(c, f, k, group(f)) for c, f, k in workloads.cert_ops(args.workload)]
    queries = [
        (f, items, sequences.Sequence.from_elements(group(f), items))
        for f, items in workloads.zero_sum_sequences(args.workload, args.seed)
    ]

    setup_s = time.monotonic() - args.t0
    # set-up is short, so one sample right after it rescales all of it
    setup_ref_s = setup_s * refclock.CAL_REF_S / refclock.calibrate()
    if args.phase == "setup":
        write(args.out, {"setup_s": setup_s, "setup_ref_s": setup_ref_s})
        return
    if args.phase == "prefill":
        clock.start()
        for constant, _, k, G in cert_ops:
            compute(invariants, constant, G, k)
        clock.stop()
        raw, ref = clock.read()
        write(args.out, {"setup_s": setup_s + raw, "setup_ref_s": setup_ref_s + ref})
        return

    def span(group_name, function, fn, *fn_args):
        if spans is None:
            return fn(*fn_args)
        return spans.call(group_name, function, fn, *fn_args)

    def round_trip(cert):
        blob = json.dumps(cert.to_json(), sort_keys=True)
        return blob, Certificate.from_json(json.loads(blob))

    latencies = []
    failed = 0
    errors = []
    open_width = 0
    cert_bytes = 0
    cert_hash = hashlib.sha256()
    fact_hash = hashlib.sha256()

    def fail(message):
        nonlocal failed
        failed += 1
        if len(errors) < MAX_ERRORS:
            errors.append(message)

    def cert_op(constant, factors, k, G):
        nonlocal open_width, cert_bytes
        cert = compute(invariants, constant, G, k)
        if not invariants.verify_certificate(cert).ok:
            return "certificate rejected"
        blob, back = span("invariants.json", "round_trip", round_trip, cert)
        if not invariants.verify_certificate(back).ok:
            return "JSON round trip rejected"
        if (back.lower, back.upper) != (cert.lower, cert.upper):
            return "JSON round trip changed the bracket"
        open_width += cert.upper - cert.lower
        cert_bytes += len(blob)
        cert_hash.update(blob.encode())
        return workloads.bracket_problem(constant, factors, k, cert.lower, cert.upper)

    clock.start()
    for constant, factors, k, G in cert_ops:
        label = "%s %s k=%s" % (constant, factors, k)
        started = clock.read()[0]
        try:
            problem = span("bench.op", label, cert_op, constant, factors, k, G)
        except Exception as err:  # an operation that raises is a failed one
            problem = "raised %r" % err
        latencies.append(clock.read()[0] - started)
        if problem:
            fail(label + ": " + problem)

    queries_fns = (
        ("max_length", lambda B: factorizations.max_length(B)),
        ("max_disjoint_zero_sums", lambda B: factorizations.max_disjoint_zero_sums(B)),
        ("length_set", lambda B: factorizations.length_set(B).max),
    )
    for factors, items, B in queries:
        values = []
        for name, fn in queries_fns:
            started = clock.read()[0]
            try:
                values.append(span("bench.op", name, fn, B))
            except Exception as err:  # an operation that raises is a failed one
                values.append(None)
                fail("%s %s %s: raised %r" % (name, factors, items, err))
            latencies.append(clock.read()[0] - started)
        if None not in values and len(set(values)) != 1:
            for name, _ in queries_fns:
                fail("%s %s %s: max lengths differ: %s" % (name, factors, items, values))
        fact_hash.update(repr((factors, items, values)).encode())
    clock.stop()
    wall_s, wall_ref_s = clock.read()

    memo = [fn.cache_info() for fn in memoized]
    result = {
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "wall_s": wall_s,
        "wall_ref_s": wall_ref_s,
        "calibrations": clock.samples,
        "latencies_s": latencies,
        "attempted": len(latencies),
        "failed": failed,
        "errors": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "counters": {
            "open_width": open_width,
            "cert_bytes": cert_bytes,
            "cert_digest": cert_hash.hexdigest()[:16],
            "factorization_digest": fact_hash.hexdigest()[:16],
            "memo_hits": sum(info.hits for info in memo),
            "memo_misses": sum(info.misses for info in memo),
        },
    }
    if spans is not None:
        spans.retime(clock.to_ref)
        result["layers"] = tracer.layer_metrics(spans, cache.cache_dir())
        result["layers"].update(
            {
                "invariants.cert_bytes": cert_bytes,
                "invariants.memo_hits": result["counters"]["memo_hits"],
                "invariants.memo_misses": result["counters"]["memo_misses"],
                "invariants.open_width": open_width,
            }
        )
        result["counters"]["sweep_instances"] = result["layers"]["gf2.sweep_instances"]
        if args.spans:
            spans.write_jsonl(args.spans)
    write(args.out, result)


def write(path, payload):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


if __name__ == "__main__":
    main()
