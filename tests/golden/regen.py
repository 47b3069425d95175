"""Record the golden-output corpus: what ``ipszeta`` prints for a fixed set of argv.

Run from the repository root to rewrite ``corpus.json`` beside this file:

    PYTHONPATH=src python tests/golden/regen.py

Each case is replayed in-process through ``cli.main`` and stored with its
exit code, stdout and stderr; ``test_golden.py`` replays the corpus and
compares.  A case may carry a config object, which the replay writes to a
temporary file that ``--config`` names; no recorded text holds that path.
A case's mode says how its output is compared:

- ``text``: the text between numbers byte for byte, each number within
  1e-12 relative; numbers under the JSON keys ``eigen`` and ``difference``
  (spectral solves) within 1e-10 absolute;
- ``spectrum``: a unitary spectrum, the text between numbers byte for
  byte and each number within 1e-10 absolute;
- ``shape``: a non-normal spectrum, whose eigenvalues move with the BLAS
  thread count (by 1.9e-2 once), compared by header and row count only.

The cases are the benchmark's argv at seeds 1-3, every ``verify`` id at
its default grid, each CLI step of the CI workflow at a size that replays
in well under a second, QCA amplitudes as CSV, a sample of the refusals,
the ``--config`` runs of the CLI tests, and the three runs whose values
leave the float range.
"""

import contextlib
import io
import json
import pathlib
import sys
import tempfile
import warnings

from ipszeta import FORMULA_IDS, cli

CORPUS = pathlib.Path(__file__).with_name("corpus.json")

_COMPLEX_UNITARY = "[[[0.6,0],[0,-0.8],[0,-0.8],[0.6,0]],[[0.6,0.8],[0,0],[0,0],[-0.8,0.6]]]"
_BIG_IDENTITY = json.dumps([[1e200 if i % 5 == 0 else 0.0, 0.0] for i in range(16)])
_TINY_IDENTITY = json.dumps([[1e-160 if i % 5 == 0 else 0.0, 0.0] for i in range(16)])
_HUGE_IDENTITY = json.dumps([[1e10 if i % 5 == 0 else 0.0, 0.0] for i in range(16)])
_QCA2 = ("--model", "qca2", "--params", "0.3,0.7")
_DK = ("--model", "dk", "--params", "0.6,0.8")

_CONFIG = {"model": "qca1", "params": [0.9, 0.9], "n": 3}

# (argv, mode) or (argv, mode, config object)
CASES = [
    # the benchmark: zeta-dense, trace-mf and evolve-wide at seeds 1, 2 and 3
    *((("zeta", *_QCA2, "--n", "10", "--rmax", "20", f"--u={u}", "--format", "json"), "text")
      for u in ("0.063480-0.090402j,-0.012537+0.393499j",
                "0.454644-0.154615j,0.064972+0.038354j",
                "-0.151057-0.043094j,-0.171949-0.131518j")),
    (("zeta", "--model", "qca2", "--params", "0,1.0", "--n", "13", "--rmax", "2",
      "--format", "csv"), "text"),
    *((("evolve", *_DK, "--n", "20", "--initial", bits, "--steps", "20", "--format", "csv"),
       "text")
      for bits in ("00101111001011011001", "00010110001111100111", "00110011001110001000")),
    # the benchmark's verify-all: every formula at its default grid
    *((("verify", formula_id), "text") for formula_id in FORMULA_IDS),
    # the CI workflow's CLI steps, smaller where the step is slow
    (("spectrum", *_QCA2, "--n", "8"), "spectrum"),
    (("spectrum", "--model", "tensor", "--matrix", _COMPLEX_UNITARY, "--n", "7"), "spectrum"),
    (("spectrum", *_DK, "--n", "7"), "shape"),
    (("zeta", *_DK, "--n", "9", "--rmax", "20", "--format", "csv"), "text"),
    (("zeta", *_QCA2, "--n", "9", "--rmax", "20", "--u=0.3+0.1j", "--format", "json"), "text"),
    (("zeta", *_QCA2, "--n", "9", "--rmax", "20", "--u=0.3+0.1j,0.95", "--format", "json"),
     "text"),
    (("zeta", *_DK, "--n", "9", "--rmax", "20", "--format", "json"), "text"),
    (("zeta", *_QCA2, "--n", "9", "--rmax", "22", "--format", "csv"), "text"),
    (("evolve", *_DK, "--n", "20", "--initial", "01101001011010010110", "--steps", "2",
      "--format", "csv"), "text"),
    (("evolve", *_DK, "--n", "6", "--initial", "011010", "--steps", "2", "--format", "json"),
     "text"),
    (("evolve", "--model", "tensor", "--matrix", _COMPLEX_UNITARY, "--n", "5", "--initial",
      "01101", "--steps", "2", "--format", "json"), "text"),
    (("evolve", *_DK, "--n", "14", "--initial", "01101001011010", "--steps", "2",
      "--format", "csv"), "text"),
    (("evolve", *_DK, "--n", "15", "--initial", "011010010110100", "--steps", "1",
      "--format", "csv"), "text"),
    (("evolve", *_DK, "--n", "16", "--initial", "0110100101101001", "--steps", "1",
      "--format", "csv"), "text"),
    # QCA amplitudes as CSV marginals: real, then complex
    (("evolve", *_QCA2, "--n", "8", "--initial", "01101001", "--steps", "2", "--format", "csv"),
     "text"),
    (("evolve", "--model", "tensor", "--matrix", _COMPLEX_UNITARY, "--n", "5", "--initial",
      "01101", "--steps", "2", "--format", "csv"), "text"),
    (("zeta", *_QCA2, "--n", "64", "--rmax", "12", "--format", "csv"), "text"),
    (("zeta", "--model", "qca2", "--params", "0,1.0", "--n", "512", "--rmax", "2",
      "--format", "csv"), "text"),
    (("zeta", "--model", "qca2", "--params", "0,1.0", "--n", "1500", "--rmax", "2",
      "--format", "csv", "--coefficients"), "text"),
    (("verify", "prop6_r2", "--n", "30..64"), "text"),
    (("verify", "thm5_6", "--n", "1025", "--rmax", "1"), "text"),
    (("verify", "cor5_4", "--n", "256", "--rmax", "6"), "text"),
    (("verify", "thm5_6", "--n", "256", "--rmax", "6"), "text"),
    (("verify", "prop6_r1", "--n", "512"), "text"),
    (("verify", "prop6_r2", "--n", "512"), "text"),
    (("verify", "cor5_4", "--n", "200..206", "--rmax", "6"), "text"),
    (("verify", "thm5_6", "--n", "200..206", "--rmax", "6"), "text"),
    (("verify", "conj_rule90", "--n", "9..10"), "text"),
    (("zeta", "--model", "dk", "--params", "0.3,0.7", "--n", "1..100000000000000000000"),
     "text"),
    # refusals
    (("zeta", "--model", "qca2", "--params", "0,1", "--n", "3", "--u", "nan"), "text"),
    (("verify", "thm6_pi2zeta", "--n", "2", "--u", "nan"), "text"),
    (("verify", "thm5_3", "--n", "2..100000000000000000000"), "text"),
    (("spectrum", "--model", "dk", "--params", "0.3,0.7", "--n", "1..10000000"), "text"),
    (("validate", "--model", "qca1", "--params", "0.4,1.1", "--tol", "-1"), "text"),
    (("zeta", "--model", "qca2", "--params", "pie/2,0", "--n", "3"), "text"),
    (("zeta", "--model", "dk", "--params", "0.3,0.7", "--n", "3", "--u", "0.1+j2"), "text"),
    (("zeta", "--model", "dk", "--params", "0.3,0.7", "--n", "5..8"), "text"),
    (("zeta", "--model", "dk", "--params", "0.3,0.7", "--n", "3", "--matrix", "[0.5, 0.5]"),
     "text"),
    (("verify", "thm5_3", "--n", "1"), "text"),
    (("evolve", "--model", "dk", "--params", "0.3,0.7", "--n", "2", "--initial", "01",
      "--steps", "-1"), "text"),
    (("zeta", "--model", "custom", "--matrix", _BIG_IDENTITY, "--n", "3", "--format", "csv"),
     "text"),
    (("spectrum", "--model", "custom", "--matrix", _BIG_IDENTITY, "--n", "3"), "text"),
    # config files: a flag wins over the file, and each refusal names its key
    (("zeta", "--rmax", "2"), "text", dict(_CONFIG, rmax=4, format="csv")),
    *((("zeta",), "text", dict(_CONFIG, **keys)) for keys in (
        {"rmax": "5"}, {"tol": "x"}, {"tol": -1}, {"u": "nan"}, {"u": [[0.1]]},
        {"format": "xml"}, {"rmx": 5}, {"n": True}, {"params": [[1], 2]},
        {"model": "custom", "params": [[[1], [0]]] + [[0, 0]] * 15})),
    (("validate",), "text", {"model": "tensor", "params": [1, 2]}),
    (("spectrum",), "text", {"model": "dk", "params": [0.3, 0.7], "n": "abc"}),
    (("zeta", "--n", "3", "--rmax", "2", "--format", "csv"), "text",
     {"model": "dk", "params": [True, 0.5]}),
    (("zeta", "--n", "3", "--rmax", "2"), "text",
     {"model": "dk", "params": [0.6, 0.8], "u": [[True, False]]}),
    (("zeta", *_DK, "--n", "3"), "text", {"u": ["0.1", "half"]}),
    (("zeta", *_DK, "--n", "3"), "text", [0.1, 0.2]),
    (("zeta", "--n", "3"), "text", {"model": "qca1", "params": [10 ** 400, 0]}),
    (("verify", "thm5_3", "--n", "3"), "text", {"tol": -1}),
    (("verify", "thm6_pi2zeta", "--n", "2"), "text", {"u": []}),
    (("evolve",), "text",
     {"model": "qca2", "params": [0, 0], "n": 3, "initial": "001", "kind": "bogus"}),
    # values past the float range: refused, or null in strict JSON; the
    # difference of a finite series and a finite eigen mean can overflow too
    (("zeta", "--model", "qca2", "--params", "0.3,0.7", "--n", "3", "--rmax", "40", "--u=1e20",
      "--format", "json"), "text"),
    (("zeta", "--model", "custom", "--matrix", _TINY_IDENTITY, "--n", "3", "--format", "json"),
     "text"),
    (("zeta", "--model", "custom", "--matrix", _HUGE_IDENTITY, "--n", "2", "--rmax", "1",
      "--u=-1.5e298-1.5e298j", "--format", "json"), "text"),
]


def replay(argv, config=None) -> tuple:
    """``(exit code, stdout, stderr)`` of ``cli.main(argv)`` run in this process.

    A ``config`` object is written to a temporary file that ``--config``
    names.  A warning is appended to stderr as ``Category: message``, so a
    run that warns differs from one that does not, whatever the warning
    filters.
    """
    if config is not None:
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp, "run.json")
            path.write_text(json.dumps(config), encoding="utf-8")
            return replay((*argv, "--config", str(path)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    lines = "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    return code, out.getvalue(), err.getvalue() + lines


def main() -> int:
    corpus = []
    for argv, mode, *config in CASES:
        code, out, err = replay(argv, *config)
        corpus.append({"argv": list(argv), "mode": mode,
                       **({"config": config[0]} if config else {}),
                       "exit": code, "stdout": out, "stderr": err})
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(corpus)} cases to {CORPUS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
