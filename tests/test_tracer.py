"""The benchmark's per-layer tracer still finds every name it reports.

``perfbench/spans.py`` wraps calbounds functions by name, some of them
private (``mi._cell_statistics``), so renaming or removing one breaks
``perfbench/run.py --trace 1`` without failing any other test. The tracer
replaces module attributes for good, so it is installed in a subprocess.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
import calbounds, calbounds.cli  # what perfbench/worker.py imports before tracing
sys.path.insert(0, sys.argv[1])
from spans import Tracer
tracer = Tracer()
tracer.install()
print(json.dumps(sorted(tracer.metrics(1.0))))
"""


def test_tracer_produces_every_per_layer_metric():
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    declared.discard("trace_overhead_s")  # timed by the runner, not by the tracer
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    missing = declared - set(json.loads(proc.stdout))
    assert not missing
