"""Smoke tests of the benchmark at N = 4..6; run with ``python3 -m pytest perfbench``.

They run every workload, its oracle, the traced run and the result schema
in a few seconds, and check that the oracles reject wrong outputs.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

from tracer import FORMULA_IDS
from oracles import dk_local, one_step_marginals, qca2_traces_r1_r2, reference
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_smoke(trace: int, cwd=HERE.parent, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", "all", "--seed", "7", "--seconds", "0",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def result_of(done):
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


def expected_units(kind):
    return {f"{w['name']}.{m['name']}": m["unit"] for w in SPEC["workloads"] for m in SPEC[kind]}


def test_untraced_run_reports_every_end_to_end_metric():
    metrics = result_of(run_smoke(0))["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == expected_units("end_to_end")
    assert all(v["value"] > 0 for v in metrics.values())


def test_traced_run_reports_every_layer_metric_and_counts():
    metrics = result_of(run_smoke(1))["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == expected_units("per_layer")
    value = {k: v["value"] for k, v in metrics.items()}
    # cmd_zeta computes trace_powers twice and reads the spectrum three times
    assert value["zeta-dense.operators.trace_powers.repeat_calls"] == 1
    assert value["zeta-dense.operators.eigenvalues.cache_hits"] == 2
    assert value["trace-mf.kernels.sweep.calls"] >= 1
    assert value["evolve-wide.dynamics.site_marginals.busy_s"] > 0
    assert value["verify-all.verify.operators_built"] > 0
    assert all(value[f"verify-all.verify.{fid}.busy_s"] > 0 for fid in FORMULA_IDS)


def test_checkout_without_package_fails_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = run_smoke(0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert done.returncode != 0
    assert done.stdout == ""


def test_formula_ids_match_the_package():
    sys.path.insert(0, str(HERE.parent / "src"))
    try:
        from ipszeta import FORMULA_IDS as package_ids
    finally:
        sys.path.pop(0)
    assert tuple(package_ids) == FORMULA_IDS


def test_recurrences_match_the_quoted_traces():
    x1, x2 = qca2_traces_r1_r2(1.0, 13)
    assert abs(x1 - -45.21858389883) < 1e-9
    assert abs(x2 - 1043.705546568) < 1e-8


def workload_inputs(name):
    workload = WORKLOADS[name]
    commands = workload.commands(random.Random(1), smoke=True)
    return workload, commands, reference(name, commands)


def test_zeta_check_rejects_wrong_series_and_traces():
    zeta, commands, ref = workload_inputs("zeta-dense")
    doc = {"table": [{"c_r": [c, 0.0]} for c in ref["c_r"]],
           "evaluations": [{"series": [0.0, 0.0], "difference": 0.0}] * 2}
    assert any("series at" in e for e in zeta.check(ref, commands, [json.dumps(doc)]))
    doc["table"][3]["c_r"][0] += 1e-6
    assert any("Kronecker" in e for e in zeta.check(ref, commands, [json.dumps(doc)]))


def test_trace_check_rejects_a_wrong_trace():
    trace, commands, ref = workload_inputs("trace-mf")
    good = "r,trace_re,trace_im,c_r_re,c_r_im\n" + "".join(
        f"{r},{t!r},0,{t / 2 ** ref['n']!r},0\n" for r, t in enumerate(ref["traces"], 1))
    assert trace.check(ref, commands, [good]) == []
    bad = good.replace(f"{ref['traces'][0]!r}", f"{ref['traces'][0] + 1e-3!r}")
    assert any("recurrence" in e for e in trace.check(ref, commands, [bad]))


def test_evolve_check_rejects_a_moving_last_site():
    evolve, commands, ref = workload_inputs("evolve-wide")
    bits = [int(b) for b in commands[0][commands[0].index("--initial") + 1]]
    steps = int(commands[0][commands[0].index("--steps") + 1])
    rows = [bits, ref["step1"]] + [ref["step1"]] * (steps - 1)

    def csv(rows):
        return "step," + ",".join(f"site_{x}" for x in range(len(bits))) + "\n" + "".join(
            f"{i}," + ",".join(repr(float(v)) for v in row) + "\n" for i, row in enumerate(rows))

    assert evolve.check(ref, commands, [csv(rows)]) == []
    rows[2] = rows[2][:-1] + [0.5]
    assert any("last site" in e for e in evolve.check(ref, commands, [csv(rows)]))


def test_one_step_reference_keeps_the_last_site():
    marginals = np.array(one_step_marginals(dk_local(0.6, 0.8), [1, 0, 1, 1, 0]))
    assert marginals[-1] == 0.0
    assert np.all((marginals >= 0) & (marginals <= 1))
