"""The benchmark tracer must still find every function it wraps.

``perfbench/tracer.py`` names the functions it times in ``TRACED``. A
rename or deletion of one of them would only show in a traced benchmark
run; this test runs the tracer on a small job so it shows here.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def _traced_names() -> set[str]:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {
        f"{module.rsplit('.', 1)[1]}.{name}"
        for module, names in tracer.TRACED.items()
        for name in names
    }


def test_tracer_wraps_every_traced_function(tmp_path):
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(TRACER), str(spans), "--", "fedotov", "construct", "--n", "4", "--k", "2"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    names = set(json.loads(spans.read_text())["names"])
    assert _traced_names() <= names
