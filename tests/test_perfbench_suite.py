"""The benchmark harness's own unittests, collected here.

``perfbench/test_perfbench.py`` imports ``checks``, ``run`` and ``tracer``
as top-level modules, so it runs from inside ``perfbench/``:

    python3 -m unittest discover -s perfbench -p "test_*.py"

This module puts that directory on ``sys.path`` and loads the file, so its
test classes run with the rest of the suite. They start the real CLI on
small instances and check that ``checks.py`` passes its genuine outputs
(the ``hodge primitive`` JSON among them) and fails tampered ones.
"""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

_spec = importlib.util.spec_from_file_location("perfbench_tests", PERFBENCH / "test_perfbench.py")
_module = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_module)

Bench, Exact, Spans = _module.Bench, _module.Exact, _module.Spans
