"""The installed surface: what ``import ipszeta`` loads and exports."""

import functools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ipszeta
from ipszeta import GlobalOperator, LocalOperator, StateKind, TensorFactors, initial_state

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


README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_tour() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("## Library quick tour\n")
    return text[start:text.index("\n## ", start)]


def test_readme_quick_tour_runs(capsys):
    code = re.search(r"```python\n(.*?)```", _quick_tour(), re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    printed = capsys.readouterr().out.split()
    # is_qca, then the series against the closed form and against the spectrum
    assert printed[0] == "True"
    assert all(float(error) < 1e-12 for error in printed[1:]) and len(printed) == 3


def test_readme_api_list_resolves():
    tour = _quick_tour()
    # the bullet list between the line that introduces it and the next blank line
    start = tour.index("\n\n", tour.index("`ipszeta.__all__` is the public API:")) + 2
    listed = re.findall(r"`([\w.]+)`", tour[start:tour.index("\n\n", start)])
    assert len(listed) > 30
    for name in listed:
        # a dotted name is read through the package, a bare one is exported
        assert name in ipszeta.__all__ or "." in name, name
        functools.reduce(getattr, name.removeprefix("ipszeta.").split("."), ipszeta)


@pytest.mark.parametrize("make", [
    lambda: LocalOperator(np.eye(4)),
    lambda: TensorFactors(np.eye(2), np.eye(2)),
    lambda: GlobalOperator(LocalOperator(np.eye(4)), 2).trace_powers(3),
    lambda: initial_state((0, 1), StateKind.PCA_PROBABILITY),
], ids=["LocalOperator", "TensorFactors", "ZetaLogSeries", "StateVector"])
def test_array_holders_compare_by_identity(make):
    # equal values are not the same object; numpy arrays would make a
    # value comparison raise, and the hash of an array fail
    a, b = make(), make()
    assert a == a and a != b
    assert len({a: 1, b: 2}) == 2
