import os
import sys
from pathlib import Path

import pytest

# allow running the suite from a fresh checkout without installing, in this
# process and in the `python -m boxcert.cli` children the tests start
src = str(Path(__file__).resolve().parent.parent / "src")
if src not in sys.path:
    sys.path.insert(0, src)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def cert_12_4():
    """The (12,4) pipeline certificate: 195 bodies in 52 width classes, four cube C bodies."""
    from boxcert.fedotov import construct_counterexample

    return construct_counterexample(12, 4)
