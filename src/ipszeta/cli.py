"""Command-line interface.

Subcommands: validate | zeta | verify | evolve | spectrum.  Complex
numbers are written ``re+imj`` on the command line and ``[re, im]`` in
JSON; angles accept plain radians or fractions of pi such as ``pi/6`` or
``-3pi/4``.  Exit codes: 0 success/pass, 1 runtime error, 2 invalid
input, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass, field
from typing import Optional

from .config import DEFAULTS
from .errors import (
    ConstraintViolation,
    DimensionMismatch,
    DomainError,
    IpsZetaError,
    KindMismatch,
    SizeExceeded,
)
from .models import MODEL_NAMES, ModelSpec, build_local, classify
from .operators import Configuration, GlobalOperator
from .dynamics import StateKind, evolve, evolve_trajectory, initial_state
from .serialize import complex_pair, from_pair, series_csv, spectrum_csv, trace_csv, trajectory_csv
from .verify import FORMULA_IDS, run_formula
from .zeta import ZetaLogSeries

_PI_FRACTION = re.compile(r"^(?P<sign>[+-]?)(?P<coef>\d+(?:\.\d+)?)?pi(?:/(?P<den>\d+(?:\.\d+)?))?$")


def parse_angle(text: str) -> float:
    """Radians from a decimal or a symbolic pi fraction like ``pi/6``."""
    text = text.strip().lower().replace(" ", "")
    m = _PI_FRACTION.match(text)
    if m:
        value = math.pi * float(m.group("coef") or 1.0)
        if m.group("den"):
            value /= float(m.group("den"))
        return -value if m.group("sign") == "-" else value
    try:
        return float(text)
    except ValueError:
        raise DomainError(f"cannot parse angle {text!r}")


def parse_complex(text: str) -> complex:
    """Complex number from ``re``, ``imj`` or ``re+imj`` notation."""
    try:
        return complex(text.strip().replace(" ", ""))
    except ValueError:
        raise DomainError(f"cannot parse complex number {text!r}")


def parse_n_values(text: str) -> list:
    """Site counts from ``6`` or an inclusive range ``5..8``."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise DomainError(f"empty site range {text!r}")
        return list(range(lo, hi + 1))
    return [int(text)]


@dataclass
class RunConfig:
    """Merged view of a JSON config file and command-line flags."""

    spec: Optional[ModelSpec] = None
    n_values: list = field(default_factory=list)
    r_max: Optional[int] = None
    u_points: list = field(default_factory=list)
    tol: Optional[float] = None
    fmt: Optional[str] = None
    out: Optional[str] = None
    steps: Optional[int] = None
    initial: Optional[str] = None
    kind: Optional[str] = None


_FORMATS = ("json", "csv")
_STATE_KINDS = {"pca": StateKind.PCA_PROBABILITY, "qca": StateKind.QCA_AMPLITUDE}

# every key a config file may hold: its JSON types and the choices of its flag
_CONFIG_KEYS = {
    "model": ((str,), MODEL_NAMES),
    "params": ((list,), None),
    "n": ((int, str), None),
    "rmax": ((int,), None),
    "u": ((list, str), None),
    "tol": ((int, float), None),
    "format": ((str,), _FORMATS),
    "out": ((str,), None),
    "steps": ((int,), None),
    "initial": ((str,), None),
    "kind": ((str,), tuple(_STATE_KINDS)),
}


def _check_config(data: dict) -> None:
    for key, value in data.items():
        if key not in _CONFIG_KEYS:
            raise DomainError(
                f"unknown config key {key!r}; expected one of {tuple(_CONFIG_KEYS)}"
            )
        types, choices = _CONFIG_KEYS[key]
        if isinstance(value, bool) or not isinstance(value, types):
            names = " or ".join(t.__name__ for t in types)
            raise DomainError(f"config key {key!r} takes {names}, got {value!r}")
        if choices is not None and value not in choices:
            raise DomainError(f"config key {key!r} must be one of {choices}, got {value!r}")


def _u_from_json(value) -> complex:
    if isinstance(value, str):
        return parse_complex(value)
    try:
        return from_pair(value)
    except DimensionMismatch as exc:
        raise DomainError(f"config key 'u': {exc}")


def _load_config(args) -> RunConfig:
    data = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise DomainError("config file must hold a JSON object")
        _check_config(data)

    def pick(key):
        value = getattr(args, key, None)
        return value if value is not None else data.get(key)

    # commands fall back to their natural format when none is given
    cfg = RunConfig(r_max=pick("rmax"), tol=pick("tol"), fmt=pick("format"), out=pick("out"),
                    steps=pick("steps"), initial=pick("initial"), kind=pick("kind"))

    model = pick("model")
    if model is not None:
        if getattr(args, "matrix", None):
            params = json.loads(args.matrix)
        elif getattr(args, "params", None):
            params = [parse_angle(p) for p in args.params.split(",")]
        else:
            params = data.get("params")
        if params is None:
            raise DomainError(f"model {model!r} needs --params, --matrix or config params")
        cfg.spec = ModelSpec.from_json({"model": model, "params": params})

    n_value = pick("n")
    if n_value is not None:
        cfg.n_values = parse_n_values(str(n_value))

    u_value = pick("u")
    if isinstance(u_value, str):
        cfg.u_points = [parse_complex(t) for t in u_value.split(",")]
    elif u_value is not None:
        cfg.u_points = [_u_from_json(t) for t in u_value]
    return cfg


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _require_model(cfg: RunConfig) -> ModelSpec:
    if cfg.spec is None:
        raise DomainError("a model is required (--model plus --params/--matrix, or --config)")
    return cfg.spec


def _single_n(cfg: RunConfig) -> int:
    if not cfg.n_values:
        raise DomainError("a site count is required (--n)")
    if len(cfg.n_values) != 1:
        raise DomainError("this command takes a single --n, not a range")
    return cfg.n_values[0]


def cmd_validate(args) -> int:
    cfg = _load_config(args)
    report = classify(build_local(_require_model(cfg)),
                      cfg.tol if cfg.tol is not None else DEFAULTS.classify_tol)
    _emit(json.dumps(report.to_json(), indent=2), cfg.out)
    return 0


def cmd_zeta(args) -> int:
    cfg = _load_config(args)
    op = GlobalOperator(build_local(_require_model(cfg)), _single_n(cfg))
    r_max = DEFAULTS.series_order if cfg.r_max is None else cfg.r_max
    traces = op.trace_powers(r_max)
    series = ZetaLogSeries.from_traces(traces)
    if cfg.fmt == "csv":
        if getattr(args, "coefficients", False):
            _emit(series_csv(series), cfg.out)
        else:
            _emit(trace_csv(traces), cfg.out)
        return 0
    doc = {
        "model": cfg.spec.to_json(),
        "n_sites": op.n_sites,
        "r_max": r_max,
        "table": [
            {
                "r": i + 1,
                "trace": complex_pair(traces.values[i]),
                "c_r": complex_pair(traces.c_values[i]),
                "coefficient": complex_pair(series.coefficients[i]),
            }
            for i in range(r_max)
        ],
    }
    if op.n_sites <= op.dense_cap:
        spectral_radius = float(max(abs(l) for l in op.eigenvalues()))
        # the series radius is reported empirically, never asserted
        doc["empirical_radius"] = math.inf if spectral_radius == 0 else 1.0 / spectral_radius
        doc["evaluations"] = []
        for u in cfg.u_points:
            series_value = series.evaluate(u)
            eigen_value = op.log_det_factor(u)
            doc["evaluations"].append({
                "u": complex_pair(u),
                "series": complex_pair(series_value),
                "eigen": complex_pair(eigen_value),
                "difference": abs(series_value - eigen_value),
            })
    _emit(json.dumps(doc, indent=2), cfg.out)
    return 0


def cmd_verify(args) -> int:
    cfg = _load_config(args)
    report = run_formula(
        args.formula_id,
        n_values=cfg.n_values or None,
        r_max=cfg.r_max,
        u_points=cfg.u_points or None,
        tol=cfg.tol,
    )
    _emit(json.dumps(report.to_json(), indent=2), cfg.out)
    return 0 if report.passed else 3


def cmd_evolve(args) -> int:
    cfg = _load_config(args)
    spec = _require_model(cfg)
    n = _single_n(cfg)
    op = GlobalOperator(build_local(spec), n)
    if cfg.initial is None:
        raise DomainError("an initial configuration is required (--initial, e.g. 001)")
    bits = tuple(int(b) for b in cfg.initial)
    config = Configuration(bits)
    if config.n_sites != n:
        raise DimensionMismatch(
            f"initial configuration has {config.n_sites} sites, --n is {n}"
        )
    if cfg.kind is not None:
        kind = _STATE_KINDS[cfg.kind]
    else:
        cls = classify(op.local)
        if cls.is_pca:
            kind = StateKind.PCA_PROBABILITY
        elif cls.is_qca:
            kind = StateKind.QCA_AMPLITUDE
        else:
            raise KindMismatch("model is neither stochastic nor unitary; pass --kind")
    steps = 1 if cfg.steps is None else cfg.steps
    if steps < 0:
        raise DomainError(f"steps must be a nonnegative integer, got {steps!r}")
    start = initial_state(config, kind)
    if cfg.fmt == "json":
        doc = {"model": spec.to_json(), "n_sites": n, "kind": kind.value, "states": []}
        state = start
        for step in range(steps + 1):
            doc["states"].append({
                "step": state.time_step,
                "components": [complex_pair(z) for z in state.components],
            })
            if step < steps:
                state = evolve(state, op, 1)
        _emit(json.dumps(doc, indent=2), cfg.out)
        return 0
    _emit(trajectory_csv(evolve_trajectory(start, op, steps), n), cfg.out)
    return 0


def cmd_spectrum(args) -> int:
    cfg = _load_config(args)
    op = GlobalOperator(build_local(_require_model(cfg)), _single_n(cfg))
    _emit(spectrum_csv(op.eigenvalues()), cfg.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ipszeta",
        description="Evolution operators, trace sequences and zeta-type "
                    "series for two-state interacting particle systems on a path.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--model", choices=MODEL_NAMES,
                        help="model family")
    common.add_argument("--params", help="comma-separated parameters; angles accept pi fractions like pi/6")
    common.add_argument("--matrix", help="JSON matrix data for tensor/custom models (row-major [re,im] pairs)")
    common.add_argument("--n", help="site count, or inclusive range like 5..8 where supported")
    common.add_argument("--rmax", type=int, help="trace/series truncation order")
    common.add_argument("--u", help="comma-separated complex points like 0.1,0.4j,0.2+0.3j")
    common.add_argument("--tol", type=float, help="tolerance override")
    common.add_argument("--format", choices=_FORMATS, help="output format where both exist")
    common.add_argument("--out", help="write output to this path instead of stdout")
    common.add_argument("--config", help="JSON config file; flags override its keys")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common],
                       help="build a local operator and report its classification")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("zeta", parents=[common],
                       help="trace/C_r table (csv) or series with eigenvalue cross-check (json)")
    p.add_argument("--coefficients", action="store_true",
                   help="with --format csv, emit the log-series coefficients "
                        "r,coeff_re,coeff_im instead of the trace table")
    p.set_defaults(func=cmd_zeta)

    p = sub.add_parser("verify", parents=[common],
                       help="run one closed-form verification and report pass/fail")
    p.add_argument("formula_id", choices=FORMULA_IDS, metavar="formula_id",
                   help="one of: " + ", ".join(FORMULA_IDS))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("evolve", parents=[common],
                       help="evolve a basis configuration and dump site marginals as CSV")
    p.add_argument("--initial", help="initial configuration bits, e.g. 001")
    p.add_argument("--steps", type=int, help="number of time steps (default 1)")
    p.add_argument("--kind", choices=tuple(_STATE_KINDS),
                   help="state kind; inferred from the model when omitted")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("spectrum", parents=[common],
                       help="dump the dense spectrum as CSV idx,re,im,abs")
    p.set_defaults(func=cmd_spectrum)
    return parser


_INPUT_ERRORS = (
    ConstraintViolation,
    DimensionMismatch,
    DomainError,
    KindMismatch,
    SizeExceeded,
    ValueError,
    OSError,
    json.JSONDecodeError,
)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IpsZetaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
