"""numpy is the package's only runtime dependency: importing bernsum and its
CLI in a fresh interpreter loads no scipy, no test tool and no test oracle."""
import json
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
FORBIDDEN = {"scipy", "hypothesis", "_hypothesis_pytestplugin", "pytest", "_pytest", "oracles"}


def test_import_loads_no_test_or_scipy_module():
    # tests/ is on the path, so an import of the oracles would succeed and show.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(TESTS)])}
    code = "import json, sys, bernsum, bernsum.cli; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    loaded = json.loads(proc.stdout)
    assert "numpy" in loaded and "bernsum.cli" in loaded
    assert [m for m in loaded if m.split(".")[0] in FORBIDDEN] == []
