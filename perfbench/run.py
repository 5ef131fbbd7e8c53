"""zerosum benchmark: time to a verified certificate, end to end and by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload e2r5_rows --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all          # every workload, end to end and by layer

One client in a closed loop: each pass is a fresh worker process with an
empty ZS_CACHE_DIR and HOME in a temp dir under .perfbench/, issuing one
operation after another. Passes repeat while the next one still fits in
--seconds (at least one, and with --trace 1 at least one untraced and one
traced); figures are medians over passes. Every pass reads time at the
machine's reference speed as well as on the wall (see refclock.py); the
gated times are the former. The last line of output is one JSON object:
end-to-end metrics with --trace 0, per-layer ones with --trace 1.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

RUN_LIMIT_S = 170  # every process of one run ends within this
SETUP_SAMPLES = 7

END_TO_END = (  # name, unit; reported in the final JSON line, times at reference speed
    ("ref_wall_s", "s"),
    ("ref_ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
REPORT_ONLY = (  # printed, but not in the JSON line: wall-clock twins, or zero on some workloads
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("setup_wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("failed_frac", "1"),
    ("open_width", "count"),
)
LATENCY_WORKLOADS = ("small_queries",)  # the others run too few operations for a percentile
LAYER_UNITS = (("_per_s", "1/s"), ("_s", "s"), ("bytes", "B"))  # first match wins


class RunError(RuntimeError):
    pass


class Runner:
    def __init__(self, root, workload, seed, trace_spans_path):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.spans_path = trace_spans_path
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.work = tempfile.mkdtemp(prefix="run-", dir=os.path.join(root, ".perfbench"))

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def _worker(self, phase, pass_dir, trace=0):
        out = os.path.join(pass_dir, phase + ".json")
        env = dict(
            os.environ,
            ZS_CACHE_DIR=os.path.join(pass_dir, "cache"),
            HOME=os.path.join(pass_dir, "home"),
        )
        argv = [
            sys.executable,
            os.path.join(HERE, "worker.py"),
            "--workload", self.workload,
            "--seed", str(self.seed),
            "--phase", phase,
            "--trace", str(trace),
            "--out", out,
        ]
        if trace:
            argv += ["--spans", os.path.join(pass_dir, "spans.jsonl")]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RunError("run time limit reached before the %s phase" % phase)
        started = time.monotonic()
        try:
            done = subprocess.run(
                argv + ["--t0", repr(started)],
                env=env,
                cwd=self.root,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise RunError("%s phase exceeded the run time limit" % phase) from None
        if done.returncode != 0:
            raise RunError("%s phase exited %d: %s" % (phase, done.returncode, done.stderr[-2000:]))
        with open(out, encoding="utf-8") as handle:
            result = json.load(handle)
        result["process_s"] = time.monotonic() - started
        return result

    def one_pass(self, phase, trace=0):
        """Fresh cache and home; prefill first for small_queries."""
        pass_dir = tempfile.mkdtemp(prefix="pass-", dir=self.work)
        home = os.path.join(pass_dir, "home")
        os.makedirs(home)
        os.makedirs(os.path.join(pass_dir, "cache"))
        prefill = {"setup_s": 0.0, "setup_ref_s": 0.0, "process_s": 0.0}
        if self.workload == "small_queries":
            prefill = self._worker("prefill", pass_dir)
        result = self._worker(phase, pass_dir, trace)
        if os.path.exists(os.path.join(home, ".cache", "zerosum")):
            raise RunError("the program wrote to ~/.cache/zerosum despite ZS_CACHE_DIR")
        result["setup_s"] += prefill["setup_s"]
        result["setup_ref_s"] += prefill["setup_ref_s"]
        result["pass_s"] = prefill["process_s"] + result["process_s"]
        if trace and self.spans_path:
            os.replace(os.path.join(pass_dir, "spans.jsonl"), self.spans_path)
        shutil.rmtree(pass_dir, ignore_errors=True)
        return result

    def measure(self, seconds, trace):
        """Untraced passes (and traced ones, alternating, with trace=1)."""
        started = time.monotonic()
        plain, traced = [], []
        while True:
            use_trace = bool(trace) and len(traced) < len(plain)
            (traced if use_trace else plain).append(self.one_pass("timed", int(use_trace)))
            if trace and not traced:
                continue
            elapsed = time.monotonic() - started
            typical = statistics.median(p["pass_s"] for p in plain + traced)
            if elapsed + typical > seconds:
                break
        setups = plain + traced
        while len(setups) < SETUP_SAMPLES:
            setups.append(self.one_pass("setup"))
        return plain, traced, setups


def check_inputs(workload, seed):
    """The seed changes the small_queries inputs and nothing else."""
    changes = workloads.inputs_digest(workload, seed) != workloads.inputs_digest(workload, seed + 1)
    if changes != (workload == "small_queries"):
        return ["the seed %s the %s inputs" % ("changes" if changes else "does not change", workload)]
    return []


def check_counters(passes):
    """Every deterministic counter repeats exactly across the passes of a run."""
    problems = []
    for name in sorted({name for p in passes for name in p["counters"]}):
        values = {json.dumps(p["counters"][name]) for p in passes if name in p["counters"]}
        if len(values) > 1:
            problems.append("counter %s differs across passes: %s" % (name, sorted(values)))
    return problems


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(workload, passes, setups):
    med = statistics.median
    latencies = [x for p in passes for x in p["latencies_s"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    out = {
        "ref_wall_s": med(p["wall_ref_s"] for p in passes),
        "ref_ops_per_s": med((p["attempted"] - p["failed"]) / p["wall_ref_s"] for p in passes),
        "setup_s": med(s["setup_ref_s"] for s in setups),
        "wall_s": med(p["wall_s"] for p in passes),
        "ops_per_s": med((p["attempted"] - p["failed"]) / p["wall_s"] for p in passes),
        "setup_wall_s": med(s["setup_s"] for s in setups),
        "peak_rss_mb": med(p["peak_rss_mb"] for p in passes),
        "failed_frac": failed / attempted,
        "open_width": passes[0]["counters"]["open_width"],
    }
    if workload in LATENCY_WORKLOADS:
        out["op_p50_ms"] = 1000 * percentile(latencies, 0.50)
        out["op_p99_ms"] = 1000 * percentile(latencies, 0.99)
    return out, attempted, failed, len(latencies)


def layers(plain, traced):
    med = statistics.median
    names = list(traced[0]["layers"])
    out = {name: med(p["layers"][name] for p in traced) for name in names}
    out["trace.overhead_s"] = med(p["wall_ref_s"] for p in traced) - med(
        p["wall_ref_s"] for p in plain
    )
    return out


def layer_unit(name):
    for suffix, unit in LAYER_UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


def run_workload(root, workload, seed, seconds, trace):
    """One benchmark run; returns the result object for the final line."""
    spans_path = os.path.join(root, ".perfbench", "trace-%s.jsonl" % workload) if trace else None
    problems = check_inputs(workload, seed)
    runner = Runner(root, workload, seed, spans_path)
    try:
        plain, traced, setups = runner.measure(seconds, trace)
    except RunError as err:
        print("perfbench: %s: %s" % (workload, err), file=sys.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    finally:
        runner.close()
    passes = plain + traced
    problems += check_counters(passes)
    for p in passes:
        problems += p["errors"]
    e2e, attempted, failed, n_lat = end_to_end(workload, plain, setups)

    print("workload %s, seed %d: %d untraced pass(es), %d traced, %d set-up samples, "
          "%d operations per pass" % (workload, seed, len(plain), len(traced), len(setups),
                                       plain[0]["attempted"]))
    for name, unit in END_TO_END + REPORT_ONLY:
        if name in e2e:
            print("  %-14s %14.6g %s" % (name, e2e[name], unit))
        else:
            print("  %-14s %14s    (too few operations for a percentile)" % (name, "-"))
    if n_lat and workload in LATENCY_WORKLOADS:
        print("  latency percentiles over %d operations" % n_lat)
    print("  pass ref_wall_s: " + " ".join("%.4g" % p["wall_ref_s"] for p in plain))
    print("  pass wall_s:     " + " ".join("%.4g" % p["wall_s"] for p in plain))
    print("  calibrations per pass: " + " ".join("%d" % p["calibrations"] for p in plain))
    print("  counters: " + json.dumps(passes[-1]["counters"], sort_keys=True))
    metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    if trace:
        per_layer = layers(plain, traced)
        wall = statistics.median(p["wall_ref_s"] for p in traced)
        print("  traced ref_wall_s %.6g s, wall_s %.6g s; per-layer figures in reference "
              "seconds (median of %d traced pass(es)):"
              % (wall, statistics.median(p["wall_s"] for p in traced), len(traced)))
        for name, value in per_layer.items():
            unit = layer_unit(name)
            share = "  %5.1f%% of traced ref_wall_s" % (100 * value / wall) if unit == "s" else ""
            print("    %-28s %14.6g %s%s" % (name, value, unit, share))
        if spans_path:
            print("  spans: %s" % os.path.relpath(spans_path, root))
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in per_layer.items()}
        attempted += sum(p["attempted"] for p in traced)
        failed += sum(p["failed"] for p in traced)
    for problem in problems:
        print("  FAIL %s" % problem)
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--all", action="store_true", help="every workload, with --trace 1")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == bool(args.workload):
        parser.error("give exactly one of --workload and --all")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "zerosum", "__init__.py")):
        print("perfbench: no src/zerosum under %s; run from a zerosum checkout" % root,
              file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, ".perfbench"), exist_ok=True)

    if not args.all:
        result = run_workload(root, args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result))
        return 0
    # a traced run also makes untraced passes, so it prints both tables
    summary = {w: run_workload(root, w, args.seed, args.seconds, 1) for w in workloads.WORKLOADS}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
