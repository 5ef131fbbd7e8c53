"""The benchmark still runs against the library: its tracer finds every
function it wraps by name, and a short run of a workload is correct."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_install_finds_every_wrapped_name():
    # install() patches module globals, so it runs in its own process
    code = (
        "import sys\n"
        "sys.path[:0] = [%r, %r]\n"
        "import tracer\n"
        "tracer.install(tracer.Tracer())\n"
    ) % (os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src"))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def test_worker_memo_names_expose_cache_info():
    # the benchmark worker reports the memo counters of these by name
    from zerosum import invariants

    for name in ("davenport", "s_le", "davenport_k", "_engine"):
        info = getattr(invariants, name).cache_info()
        assert info.hits >= 0 and info.misses >= 0, name


def smoke_counters(workload):
    """Counters of one short untraced run of a workload, end to end."""
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0
    counters = next(line for line in lines if line.strip().startswith("counters:"))
    return json.loads(counters.split(":", 1)[1])


def test_c3r3_dk2_smoke_run_is_correct():
    # the generic-search workload
    assert smoke_counters("c3r3_dk2")["cert_digest"] == "37fb02bec36869de"


def test_small_queries_smoke_run_is_correct():
    # the factorization queries and the certificate table
    counters = smoke_counters("small_queries")
    assert counters["cert_digest"] == "47bb92c93e6d58bf"
    assert counters["factorization_digest"] == "19fb6001d9bed3f0"
