"""The benchmark's tracer still finds every function it wraps by name."""

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
