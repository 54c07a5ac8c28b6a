import os
import sys
from pathlib import Path

# allow running the suite from a fresh checkout without installing, in this
# process and in the `python -m boxcert.cli` children the tests start
src = str(Path(__file__).resolve().parent.parent / "src")
if src not in sys.path:
    sys.path.insert(0, src)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
