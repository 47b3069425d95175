"""The four CLI workloads and the checks of their outputs.

Each workload turns a seeded ``random.Random`` into the argv of the CLI
children that make up one run and checks each run's outputs against the
reference values ``oracles.py`` computed from that argv.  This module
stays free of numpy so the benchmark process stays small (see
``oracles.py``).

Sizes follow from what each workload is meant to stress; see README.md.
``smoke`` swaps in N = 4..6 so the whole benchmark runs in seconds.
"""

from __future__ import annotations

import cmath
import json
import math

from tracer import FORMULA_IDS

R_MAX = 20


def flag(argv, name):
    """Value that follows ``name`` in a CLI argv."""
    return argv[argv.index(name) + 1]


def _csv_rows(text: str):
    lines = text.strip().splitlines()
    return lines[0].split(","), [[float(v) for v in line.split(",")] for line in lines[1:]]


class ZetaDense:
    name = "zeta-dense"
    why = ("dense path: materialize, dense trace_powers (computed twice), eigenvalues "
           "and series evaluation at N=10; the sweep is a small share")

    def commands(self, rng, smoke):
        points = []
        for _ in range(2):
            u = cmath.rect(rng.uniform(0.05, 0.5), rng.uniform(0.0, 2.0 * math.pi))
            points.append(f"{u.real:.6f}{u.imag:+.6f}j")
        # "--u=" because argparse reads a separate "-0.2-0.1j" as an unknown option
        return [["zeta", "--model", "qca2", "--params", "0.3,0.7", "--n", "5" if smoke else "10",
                 "--rmax", str(R_MAX), "--u=" + ",".join(points), "--format", "json"]]

    def check(self, ref, commands, outputs):
        doc = json.loads(outputs[0])
        c_ref = ref["c_r"]
        c_r = [complex(*row["c_r"]) for row in doc["table"]]
        errors = []
        if len(c_r) != R_MAX or max(abs(a - b) for a, b in zip(c_r, c_ref)) > 1e-10:
            errors.append("C_r differs from the Kronecker-product reference")
        u_arg = next(a for a in commands[0] if a.startswith("--u="))
        points = [complex(p) for p in u_arg[len("--u="):].split(",")]
        evaluations = doc.get("evaluations", [])
        if len(evaluations) != len(points):
            errors.append("missing series evaluations")
        for u, ev in zip(points, evaluations):
            series = sum(-c / r * u ** r for r, c in enumerate(c_ref, 1))
            if abs(complex(*ev["series"]) - series) > 1e-10:
                errors.append(f"series at u={u} differs from the reference sum")
            # |C_r| <= 1 for a unitary model bounds the neglected tail r > R
            tail = abs(u) ** (R_MAX + 1) / ((R_MAX + 1) * (1 - abs(u)))
            if ev["difference"] > 1e-10 + tail:
                errors.append(f"series-versus-eigen difference {ev['difference']:.3e} at u={u}")
        return errors


class TraceMatrixFree:
    name = "trace-mf"
    why = ("N=13, the first size above the dense cap: the matrix-free engine, ~99% "
           "kernels.sweep over 256-column blocks, no materialize or eig")

    def commands(self, rng, smoke):
        return [["zeta", "--model", "qca2", "--params", "0,1.0", "--n", "6" if smoke else "13",
                 "--rmax", "2", "--format", "csv"]]

    def check(self, ref, commands, outputs):
        header, rows = _csv_rows(outputs[0])
        if header != ["r", "trace_re", "trace_im", "c_r_re", "c_r_im"] or len(rows) != 2:
            return ["unexpected trace table layout"]
        errors = []
        for (r, t_re, t_im, c_re, c_im), expected in zip(rows, ref["traces"]):
            trace = complex(t_re, t_im)
            if abs(trace - expected) > 1e-9 * max(1.0, abs(expected)):
                errors.append(f"tr(Q^{r:g}) = {trace} but the recurrence gives {expected}")
            if abs(complex(c_re, c_im) - trace / 2.0 ** ref["n"]) > 1e-12:
                errors.append(f"C_{r:g} is not tr(Q^{r:g}) / 2^N")
        return errors


class EvolveWide:
    name = "evolve-wide"
    why = ("one 2^20-entry vector per step (16 MB, above L2) with tail=1, the opposite "
           "sweep shape to trace-mf; also invariant checks, site_marginals and CSV")

    def commands(self, rng, smoke):
        n, steps = (6, 3) if smoke else (20, 20)
        bits = "".join(rng.choice("01") for _ in range(n))
        return [["evolve", "--model", "dk", "--params", "0.6,0.8", "--n", str(n),
                 "--initial", bits, "--steps", str(steps), "--format", "csv"]]

    def check(self, ref, commands, outputs):
        bits = [int(b) for b in flag(commands[0], "--initial")]
        steps = int(flag(commands[0], "--steps"))
        header, rows = _csv_rows(outputs[0])
        if header != ["step"] + [f"site_{x}" for x in range(len(bits))]:
            return ["unexpected trajectory header"]
        if [row[0] for row in rows] != list(range(steps + 1)):
            return ["trajectory does not list every step once"]
        marginals = [row[1:] for row in rows]

        def worst(row, expected):
            return max(abs(a - b) for a, b in zip(row, expected))

        errors = []
        if any(not -1e-12 <= m <= 1 + 1e-12 for row in marginals for m in row):
            errors.append("a marginal lies outside [0, 1]")
        if any(abs(row[-1] - bits[-1]) > 1e-12 for row in marginals):
            errors.append("the last site's marginal moved from its initial bit")
        if worst(marginals[0], bits) > 1e-12:
            errors.append("step-0 marginals differ from the initial bits")
        if worst(marginals[1], ref["step1"]) > 1e-12:
            errors.append("step-1 marginals differ from the per-pair einsum reference")
        return errors


class VerifyAll:
    name = "verify-all"
    why = ("verify <id> for all 11 formula ids, one child each: many small operators "
           "(N<=10), per-call overhead and process start-up")

    # grids small enough for smoke mode that every formula still passes
    SMOKE_N = {"cor5_7": None, "prop6_rule90_r": None, "thm6_rule90zeta": None,
               "conj_rule90": "5"}

    def commands(self, rng, smoke):
        commands = []
        for formula_id in FORMULA_IDS:
            n = self.SMOKE_N.get(formula_id, "4") if smoke else None
            commands.append(["verify", formula_id] + (["--n", n] if n else []))
        return commands

    def check(self, ref, commands, outputs):
        errors = []
        for argv, text in zip(commands, outputs):
            report = json.loads(text)
            if report.get("formula_id") != argv[1] or report.get("passed") is not True:
                errors.append(f"verify {argv[1]} did not pass")
        return errors


WORKLOADS = {w.name: w for w in (ZetaDense(), TraceMatrixFree(), EvolveWide(), VerifyAll())}
