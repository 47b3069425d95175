"""In-memory span tracer installed around the public API of ``ipszeta``.

The wrappers live here, in the benchmark, so the package itself carries
no tracing code.  ``install`` replaces each traced function or method
with a wrapper that opens a span on entry and closes it on exit.  A
function that another module imported by name (``cli`` imports
``run_formula``, ``verify`` imports ``zeta_log_series`` and the closed
forms) is replaced under every name that refers to it.

A span is ``[id, parent, run, name, start_ns, end_ns, attrs]``; ``parent``
is the span open when it started, ``run`` the id of the CLI invocation.
Spans stay in memory until ``Tracer.dump`` writes them as JSON lines.

``layer_metrics`` turns the spans of one traced workload run into the
per-layer metrics that BENCHMARK.json lists.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import weakref
from collections import defaultdict

# every module whose namespace may hold a reference to a traced function
MODULES = (
    "ipszeta", "ipszeta.kernels", "ipszeta.operators", "ipszeta.zeta",
    "ipszeta.verify", "ipszeta.dynamics", "ipszeta.serialize", "ipszeta.cli",
)

OPERATOR_METHODS = (
    "apply", "materialize", "trace_powers", "eigenvalues", "log_det_factor",
    "power_equals_identity",
)

# closed-form evaluators; nested calls of the group are counted once
CLOSED_FORMS = (
    "tensor_model_cr", "binomial_zeta_qca1", "clt_limit_zeta", "qca2_c1_closed_form",
    "qca2_x1_recurrence", "qca2_x2_recurrence", "rule90_trace_general_r",
    "zeta_closed_form_qca2", "_rule90_zeta_formula", "chebyshev_t", "chebyshev_u",
    "arctanh",
)

CSV_WRITERS = ("trace_csv", "series_csv", "spectrum_csv", "trajectory_csv")

# verifier ids of the verify-all workload, in FORMULA_IDS order at the time
# the benchmark was defined; each has a verify.<id>.busy_s metric
FORMULA_IDS = (
    "thm5_3", "cor5_4", "thm5_6", "cor5_7", "prop6_r1", "prop6_r2", "prop6_pi2",
    "thm6_pi2zeta", "prop6_rule90_r", "thm6_rule90zeta", "conj_rule90",
)

# bytes one two-site update touches per complex entry: 16 read + 16 written
BYTES_PER_ENTRY = 32


class Tracer:
    """Collects spans of one process; ``run`` tags them with an invocation id."""

    def __init__(self, run: int):
        self.run = run
        self.spans: list = []
        self._open: list = []
        self.missing: list = []

    def start(self, name: str, attrs: dict) -> list:
        parent = self._open[-1][0] if self._open else None
        span = [len(self.spans), parent, self.run, name, time.perf_counter_ns(), None, attrs]
        self.spans.append(span)
        self._open.append(span)
        return span

    def finish(self, span: list) -> None:
        span[5] = time.perf_counter_ns()
        self._open.pop()

    def wrap(self, name, fn, before=None, after=None):
        """Wrapper of ``fn`` recording a span; ``before`` and ``after`` add attrs."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.start(name, before(*args, **kwargs) if before else {})
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(span)
            if after:
                span[6].update(after(result))
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"missing": self.missing}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _replace_everywhere(modules, fn, wrapper) -> None:
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is fn:
                setattr(module, key, wrapper)


def _labelled(fn_name):
    return lambda *a, **k: {"fn": fn_name}


def install(tracer: Tracer) -> None:
    """Wrap the traced API of the imported package in place."""
    modules = [importlib.import_module(name) for name in MODULES]
    kernels = importlib.import_module("ipszeta.kernels")
    operators = importlib.import_module("ipszeta.operators")
    zeta = importlib.import_module("ipszeta.zeta")
    verify = importlib.import_module("ipszeta.verify")
    dynamics = importlib.import_module("ipszeta.dynamics")
    serialize = importlib.import_module("ipszeta.serialize")

    def function(module, attr, name, before=None, after=None):
        fn = getattr(module, attr, None)
        if fn is None:
            tracer.missing.append(f"{module.__name__}.{attr}")
            return
        _replace_everywhere(modules, fn, tracer.wrap(name, fn, before, after))

    def method(cls, attr, name, before=None):
        fn = vars(cls).get(attr)
        if fn is None:
            tracer.missing.append(f"{cls.__name__}.{attr}")
            return
        setattr(cls, attr, tracer.wrap(name, fn, before))

    function(kernels, "sweep", "kernels.sweep",
             before=lambda vec, local, n_sites, tail=1, *a, **k:
             {"n_sites": int(n_sites), "tail": int(tail)})

    op_cls = operators.GlobalOperator
    seen_orders = weakref.WeakKeyDictionary()

    def trace_powers_attrs(op, r_max, *args, **kwargs):
        orders = seen_orders.setdefault(op, set())
        repeat = r_max in orders
        orders.add(r_max)
        return {"r_max": int(r_max), "repeat": repeat}

    def cache_probe(field):
        return lambda op, *a, **k: {"hit": getattr(op, field, None) is not None}

    probes = {"trace_powers": trace_powers_attrs,
              "materialize": cache_probe("_dense"),
              "eigenvalues": cache_probe("_eigenvalues")}
    for attr in OPERATOR_METHODS:
        method(op_cls, attr, f"operators.{attr}", probes.get(attr))
    method(op_cls, "__init__", "operators.init")

    function(zeta, "zeta_log_series", "zeta.zeta_log_series")
    function(zeta, "conjecture_test_rule90", "zeta.conjecture_test_rule90")
    method(zeta.ZetaLogSeries, "evaluate", "zeta.evaluate")
    for attr in CLOSED_FORMS:
        function(zeta, attr, "zeta.closed_form", before=_labelled(attr))

    function(verify, "run_formula", "verify.run_formula",
             before=lambda formula_id, *a, **k: {"id": formula_id})

    function(dynamics, "evolve", "dynamics.evolve")
    function(dynamics, "site_marginals", "dynamics.site_marginals")

    for attr in CSV_WRITERS:
        function(serialize, attr, "serialize.csv", after=lambda text: {"bytes": len(text)})


def load_spans(path):
    """Spans and the list of targets the installed package lacked."""
    with open(path, "r", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        return [json.loads(line) for line in fh], header["missing"]


def layer_metrics(spans, output_bytes: int) -> dict:
    """Per-layer counts and times of one workload run, from its spans.

    ``spans`` may come from several CLI invocations; ``(run, id)`` keys a
    span.  Busy time sums the spans of a name that have no ancestor of
    the same name; self time subtracts the time of direct children.
    """
    by_key = {(s[2], s[0]): s for s in spans}
    children = defaultdict(float)
    for s in spans:
        if s[1] is not None:
            children[(s[2], s[1])] += (s[5] - s[4]) / 1e9

    def ancestors(s):
        while s[1] is not None:
            s = by_key[(s[2], s[1])]
            yield s

    def duration(s):
        return (s[5] - s[4]) / 1e9

    def named(name, **match):
        return [s for s in spans if s[3] == name
                and all(s[6].get(k) == v for k, v in match.items())]

    def busy(name, **match):
        return sum((duration(s) for s in named(name, **match)
                    if not any(a[3] == name for a in ancestors(s))), 0.0)

    def self_time(name):
        return sum((duration(s) - children[(s[2], s[0])] for s in named(name)), 0.0)

    sweeps = named("kernels.sweep")
    sweep_busy = busy("kernels.sweep")
    bytes_computed = sum(BYTES_PER_ENTRY * (1 << s[6]["n_sites"]) * s[6]["tail"]
                         * (s[6]["n_sites"] - 1) for s in sweeps)
    root_total = sum(duration(s) for s in named("cli"))

    m = {
        "kernels.sweep.calls": len(sweeps),
        "kernels.sweep.busy_s": sweep_busy,
        "kernels.sweep.columns": sum(s[6]["tail"] for s in sweeps),
        "kernels.sweep.bytes_computed": bytes_computed,
        "kernels.sweep.gbps_computed": bytes_computed / sweep_busy / 1e9 if sweep_busy else 0.0,
        "operators.materialize.calls": len(named("operators.materialize")),
        "operators.materialize.busy_s": busy("operators.materialize"),
        "operators.materialize.cache_hits": len(named("operators.materialize", hit=True)),
        "operators.trace_powers.calls": len(named("operators.trace_powers")),
        "operators.trace_powers.self_s": self_time("operators.trace_powers"),
        "operators.trace_powers.repeat_calls": len(named("operators.trace_powers", repeat=True)),
        "operators.eigenvalues.calls": len(named("operators.eigenvalues")),
        "operators.eigenvalues.busy_s": busy("operators.eigenvalues"),
        "operators.eigenvalues.cache_hits": len(named("operators.eigenvalues", hit=True)),
        "operators.apply.busy_s": busy("operators.apply"),
        "operators.power_equals_identity.busy_s": busy("operators.power_equals_identity"),
        "zeta.zeta_log_series.self_s": self_time("zeta.zeta_log_series"),
        "zeta.evaluate.busy_s": busy("zeta.evaluate"),
        "zeta.closed_form.busy_s": busy("zeta.closed_form"),
        "verify.run_formula.self_s": self_time("verify.run_formula"),
        "verify.operators_built": sum(
            1 for s in named("operators.init")
            if any(a[3] == "verify.run_formula" for a in ancestors(s))),
    }
    for formula_id in FORMULA_IDS:
        m[f"verify.{formula_id}.busy_s"] = busy("verify.run_formula", id=formula_id)
    m.update({
        "dynamics.evolve.self_s": self_time("dynamics.evolve"),
        "dynamics.site_marginals.busy_s": busy("dynamics.site_marginals"),
        "serialize.csv.self_s": self_time("serialize.csv"),
        "serialize.csv.bytes": sum(s[6].get("bytes", 0) for s in named("serialize.csv")),
        "cli.self_s": self_time("cli"),
        "cli.output_bytes": output_bytes,
    })
    shares = {}
    if root_total:
        per_name = defaultdict(float)
        for s in spans:
            per_name[s[3]] += duration(s) - children[(s[2], s[0])]
        shares = {name: t / root_total for name, t in
                  sorted(per_name.items(), key=lambda item: -item[1])}
    return {"metrics": m, "self_share": shares, "traced_total_s": root_total}
