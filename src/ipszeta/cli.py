"""Command-line interface.

Subcommands: validate | zeta | verify | evolve | spectrum.  Complex
numbers are written ``re+imj`` on the command line and ``[re, im]`` in
JSON; angles accept plain radians or fractions of pi such as ``pi/6`` or
``-3pi/4``.  Exit codes: 0 success/pass, 1 runtime error, 2 invalid
input, 3 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import re
import sys
from typing import Optional

import numpy as np

from .config import DEFAULTS
from .errors import DomainError, InvalidInput, IpsZetaError, SizeExceeded
from .models import MODEL_NAMES, ModelSpec, build_local, classify
from .operators import GlobalOperator
from .dynamics import StateKind, evolve_states, evolve_trajectory, initial_state, state_kind
from .serialize import (complex_pair, from_pair, number, series_csv, spectrum_csv, tolerance,
                        trace_csv, trajectory_csv)
from .verify import FORMULA_IDS, run_formula

_PI_FRACTION = re.compile(r"^(?P<sign>[+-]?)(?P<coef>\d+(?:\.\d+)?)?pi(?:/(?P<den>\d+(?:\.\d+)?))?$")


def parse_angle(text: str) -> float:
    """Radians from a decimal or a symbolic pi fraction like ``pi/6``."""
    text = text.strip().lower().replace(" ", "")
    m = _PI_FRACTION.match(text)
    if m:
        den = float(m.group("den") or 1.0)
        if den == 0.0:
            raise DomainError(f"angle {text!r} divides by zero")
        value = math.pi * float(m.group("coef") or 1.0) / den
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


def parse_n_values(text: str) -> range:
    """Site counts from ``6`` or an inclusive range ``5..8``, as a range that is not built."""
    text = text.strip()
    try:
        lo, hi = (int(t) for t in text.split("..", 1)) if ".." in text else (int(text),) * 2
    except ValueError:
        raise DomainError(f"--n takes a site count like 6 or a range like 5..8, got {text!r}")
    if hi < lo:
        raise DomainError(f"empty site range {text!r}")
    if hi - lo >= sys.maxsize:
        raise DomainError(f"--n range {text!r} holds more than {sys.maxsize} site counts")
    return range(lo, hi + 1)


_STATE_KINDS = {"pca": StateKind.PCA_PROBABILITY, "qca": StateKind.QCA_AMPLITUDE}

# One row per option: the settings of its flag, and the JSON types a config
# file may give it (None: flag only).  A config value must also be one of
# the flag's choices, when it has some.
_OPTIONS = {
    "model": ({"choices": MODEL_NAMES, "help": "model family"}, (str,)),
    "params": ({"help": "comma-separated parameters; angles accept pi fractions like pi/6"},
               (list,)),
    "matrix": ({"help": "JSON matrix data for tensor/custom models (row-major [re,im] pairs); "
                        "not with --params"}, None),
    "n": ({"help": "site count, or inclusive range like 5..8 where supported"}, (int, str)),
    "rmax": ({"type": int, "help": "trace/series truncation order"}, (int,)),
    "u": ({"help": "comma-separated complex points like 0.1,0.4j,-0.2-0.3j"}, (list, str)),
    "tol": ({"type": float, "help": "tolerance override"}, (int, float)),
    "format": ({"choices": ("json", "csv"),
                "help": "output format (zeta defaults to json, evolve to csv)"}, (str,)),
    "out": ({"help": "write output to this path instead of stdout"}, (str,)),
    "steps": ({"type": int, "help": "number of time steps (default 1)"}, (int,)),
    "initial": ({"help": "initial configuration bits, e.g. 001"}, (str,)),
    "kind": ({"choices": tuple(_STATE_KINDS),
              "help": "state kind; inferred from the model when omitted"}, (str,)),
    "coefficients": ({"action": "store_true",
                      "help": "with --format csv, emit the log-series coefficients "
                              "r,coeff_re,coeff_im instead of the trace table"}, None),
    "config": ({"help": "JSON config file; flags override its keys"}, None),
}


def _check_config_value(key: str, value) -> None:
    settings, types = _OPTIONS.get(key, (None, None))
    if types is None:
        keys = tuple(k for k, (_, t) in _OPTIONS.items() if t is not None)
        raise DomainError(f"unknown config key {key!r}; expected one of {keys}")
    if isinstance(value, bool) or not isinstance(value, types):
        names = " or ".join(t.__name__ for t in types)
        raise DomainError(f"config key {key!r} takes {names}, got {value!r}")
    choices = settings.get("choices")
    if choices is not None and value not in choices:
        raise DomainError(f"config key {key!r} must be one of {choices}, got {value!r}")


def _u_from_json(value) -> complex:
    if isinstance(value, str):
        return parse_complex(value)
    try:
        return from_pair(value)
    except InvalidInput as exc:
        raise DomainError(f"config key 'u': {exc}")


def _load_config(args) -> None:
    """Merge the ``--config`` file into ``args`` and check every value.

    Flags win over the file.  A file may hold any config key, whether or not
    the command reads it, and each value is checked before any work starts.
    Afterwards ``args.spec`` holds the model (or None), ``args.n`` a range of
    site counts and ``args.u`` a list of finite complex points.
    """
    if args.matrix is not None and args.params is not None:
        raise DomainError("give --matrix or --params, not both")
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise DomainError("config file must hold a JSON object")
        for key, value in data.items():
            _check_config_value(key, value)
            if getattr(args, key) is None:
                setattr(args, key, value)

    args.spec = None
    if args.model is not None:
        if args.matrix is not None:
            params = json.loads(args.matrix)
        elif isinstance(args.params, str):
            params = [parse_angle(p) for p in args.params.split(",")]
        else:
            params = args.params
        if params is None:
            raise DomainError(f"model {args.model!r} needs --params, --matrix or config params")
        args.spec = ModelSpec.from_json({"model": args.model, "params": params})
    if args.n is not None:
        args.n = parse_n_values(str(args.n))
    if isinstance(args.u, str):
        args.u = [parse_complex(t) for t in args.u.split(",")]
    elif args.u is not None:
        args.u = [_u_from_json(t) for t in args.u]
    args.u = None if args.u is None else [number("--u", u) for u in args.u]
    args.tol = None if args.tol is None else tolerance("--tol", args.tol)


def _emit(text, out: Optional[str]) -> None:
    """Write ``text``, a str or an iterable of str chunks, ending in a newline.

    The first chunk is drawn before ``out`` is opened, so a run that fails
    before its first chunk writes nothing.
    """
    chunks = iter((text,) if isinstance(text, str) else text)
    chunk = next(chunks)
    with open(out, "w", encoding="utf-8") if out else contextlib.nullcontext(sys.stdout) as fh:
        fh.write(chunk)
        for chunk in chunks:
            fh.write(chunk)
        if not chunk.endswith("\n"):
            fh.write("\n")


# one [re, im] component of a state, at its depth in the evolve document
_PAIR = "        [\n          {},\n          {}\n        ]"
# components formatted per chunk of the evolve document
_CHUNK = 1 << 12


def states_json(head: dict, states):
    """``json.dumps({**head, "states": [...]}, indent=2)`` as chunks of text.

    Each state becomes ``{"step": time_step, "components": [[re, im], ...]}``,
    formatted ``_CHUNK`` components at a time from ``state.chunks``, so
    neither the document nor the component list of a state is built.  The
    numbers are cut from ``json.dumps`` of a flat list, so they read as in
    the whole document.
    Nothing is yielded before the first state is drawn, so an error in
    drawing it comes before any output.
    """
    empty = json.dumps({**head, "states": []}, indent=2)
    lead = empty[:-len("]\n}")]  # the document up to the bracket that opens "states"
    for state in states:
        yield f'{lead}\n    {{\n      "step": {state.time_step},\n      "components": [\n'
        lead = ","
        for i, part in enumerate(state.chunks(_CHUNK)):
            flat = np.stack((part.real, part.imag), axis=-1).reshape(-1).tolist()
            numbers = json.dumps(flat)[1:-1].split(", ")
            yield (",\n" if i else "") + ",\n".join(
                map(_PAIR.format, numbers[0::2], numbers[1::2]))
        yield "\n      ]\n    }"
    yield "\n  ]\n}" if lead == "," else empty


def _require_model(args) -> ModelSpec:
    if args.spec is None:
        raise DomainError("a model is required (--model plus --params/--matrix, or --config)")
    return args.spec


def _single_n(args) -> int:
    if not args.n:
        raise DomainError("a site count is required (--n)")
    if args.n[-1] != args.n[0]:
        raise DomainError("this command takes a single --n, not a range")
    return args.n[0]


def cmd_validate(args) -> int:
    report = classify(build_local(_require_model(args)),
                      args.tol if args.tol is not None else DEFAULTS.classify_tol)
    _emit(json.dumps(report.to_json(), indent=2), args.out)
    return 0


def cmd_zeta(args) -> int:
    spec = _require_model(args)
    n = _single_n(args)
    if args.coefficients and args.format != "csv":
        raise DomainError("--coefficients needs --format csv")
    if args.u and args.format == "csv":
        raise DomainError("--u needs --format json; the csv tables hold no evaluations")
    dense = n <= DEFAULTS.dense_cap
    if args.u and not dense:
        raise SizeExceeded(f"--u needs the dense parity blocks, which are built up to the "
                           f"dense cap N={DEFAULTS.dense_cap}; got N={n}")
    op = GlobalOperator(build_local(spec), n)
    r_max = DEFAULTS.series_order if args.rmax is None else args.rmax
    series = op.trace_powers(r_max)
    if args.format == "csv":
        _emit(series_csv(series) if args.coefficients else trace_csv(series), args.out)
        return 0
    values = series.values
    doc = {
        "model": spec.to_json(),
        "n_sites": n,
        "r_max": r_max,
        "table": [
            {
                "r": i + 1,
                "trace": complex_pair(values[i]),
                "c_r": complex_pair(series.c_values[i]),
                "coefficient": complex_pair(series.coefficients[i]),
            }
            for i in range(r_max)
        ],
    }
    if dense:
        # exactly 1 for a stochastic or unitary model, otherwise read off the spectrum;
        # null where 1 / max|lambda| is not a finite float (a nilpotent or subnormal spectrum)
        spectral_radius = op.spectral_radius()
        inverse = 1.0 / spectral_radius if spectral_radius else math.inf
        doc["empirical_radius"] = inverse if math.isfinite(inverse) else None
        doc["evaluations"] = []
        for u in args.u or ():
            series_value = series.evaluate(u)
            eigen_value = op.log_det_factor(u)
            doc["evaluations"].append({
                "u": complex_pair(u),
                "series": complex_pair(series_value),
                "eigen": complex_pair(eigen_value),
                "difference": number("|series - eigen|", abs(series_value - eigen_value),
                                     real=True),
            })
    _emit(json.dumps(doc, indent=2), args.out)
    return 0


def cmd_verify(args) -> int:
    report = run_formula(args.formula_id, n_values=args.n, r_max=args.rmax,
                         u_points=args.u, tol=args.tol)
    _emit(json.dumps(report.to_json(), indent=2), args.out)
    return 0 if report.passed else 3


def cmd_evolve(args) -> int:
    spec = _require_model(args)
    n = _single_n(args)
    op = GlobalOperator(build_local(spec), n)
    if args.initial is None:
        raise DomainError("an initial configuration is required (--initial, e.g. 001)")
    try:
        bits = tuple(int(b) for b in args.initial)
    except ValueError:
        raise DomainError(f"--initial takes site bits like 001, got {args.initial!r}")
    # a --kind the model does not fit is refused before the start block is built
    kind = state_kind(op.local, _STATE_KINDS.get(args.kind))
    steps = 1 if args.steps is None else args.steps
    # no name holds the start state: it is freed once its working copy is made
    evolution = evolve_states if args.format == "json" else evolve_trajectory
    rows = evolution(initial_state(bits, kind, n), op, steps)
    if args.format == "json":
        # streamed: no document is built, and one state is alive
        head = {"model": spec.to_json(), "n_sites": n, "kind": kind.value}
        _emit(states_json(head, rows), args.out)
    else:
        _emit(trajectory_csv(rows, n), args.out)
    return 0


def cmd_spectrum(args) -> int:
    op = GlobalOperator(build_local(_require_model(args)), _single_n(args))
    _emit(spectrum_csv(op.eigenvalues()), args.out)
    return 0


# each command: its handler, its help line and the options it reads; every
# command also takes --out and --config, and any other flag exits 2
_COMMANDS = {
    "validate": (cmd_validate, "build a local operator and report its classification",
                 ("model", "params", "matrix", "tol")),
    "zeta": (cmd_zeta, "trace/C_r table (csv) or series with eigenvalue cross-check (json)",
             ("model", "params", "matrix", "n", "rmax", "u", "format", "coefficients")),
    "verify": (cmd_verify, "run one closed-form verification and report pass/fail",
               ("n", "rmax", "u", "tol")),
    "evolve": (cmd_evolve, "evolve a basis configuration and dump site marginals as CSV",
               ("model", "params", "matrix", "n", "format", "initial", "steps", "kind")),
    "spectrum": (cmd_spectrum, "dump the dense spectrum as CSV idx,re,im,abs",
                 ("model", "params", "matrix", "n")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ipszeta",
        description="Evolution operators, trace sequences and zeta-type "
                    "series for two-state interacting particle systems on a path.",
    )
    # every option's dest exists on every namespace, so a caller may read any
    # of them; it is None where the command does not take the option
    parser.set_defaults(**dict.fromkeys(_OPTIONS))
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name == "verify":
            p.add_argument("formula_id", choices=FORMULA_IDS, metavar="formula_id",
                           help="one of: " + ", ".join(FORMULA_IDS))
        for option in options + ("out", "config"):
            p.add_argument(f"--{option}", **_OPTIONS[option][0])
        p.set_defaults(func=func)
    return parser


def _attach_dash_values(argv) -> list:
    """``--flag=value`` for each ``--flag value`` whose value starts with one dash.

    argparse reads such a token as an option unless it is a plain negative
    number, so ``--u -0.2-0.1j`` would leave ``--u`` without its value.
    """
    takes_value = {f"--{key}" for key, (settings, _) in _OPTIONS.items()
                   if "action" not in settings}
    joined = []
    for arg in argv:
        dash_value = arg[:1] == "-" and arg[:2] != "--" and arg != "-h"
        if dash_value and joined and joined[-1] in takes_value:
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def main(argv=None) -> int:
    args = build_parser().parse_args(_attach_dash_values(sys.argv[1:] if argv is None else argv))
    try:
        _load_config(args)
        return args.func(args)
    except (InvalidInput, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IpsZetaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
