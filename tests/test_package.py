"""The installed surface: what ``import ipszeta`` loads and exports."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
# numpy is the one runtime dependency; these are test and tooling extras
NOT_AT_RUNTIME = {"scipy", "sympy", "mpmath", "hypothesis", "pytest"}

_PROBE = """
import json, sys
import ipszeta
print(json.dumps({
    "loaded": sorted({name.split(".")[0] for name in sys.modules}),
    "all": list(ipszeta.__all__),
    "unresolved": [name for name in ipszeta.__all__ if not hasattr(ipszeta, name)],
}))
"""


def test_import_loads_only_numpy_and_every_export_resolves():
    # a fresh interpreter, since this one has pytest and hypothesis loaded
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _PROBE], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120, check=True)
    doc = json.loads(proc.stdout)
    assert NOT_AT_RUNTIME.isdisjoint(doc["loaded"])
    assert "numpy" in doc["loaded"]
    assert doc["unresolved"] == []
    assert len(doc["all"]) == len(set(doc["all"]))
