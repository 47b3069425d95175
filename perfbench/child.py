"""Child processes the benchmark times, one at a time.

    python3 perfbench/child.py probe --
    python3 perfbench/child.py setup -- <cli argv>
    python3 perfbench/child.py traced <spans file> <run id> -- <cli argv>

``probe`` prints where ``ipszeta`` was imported from, its kernel backend,
the dtype its operators compute in, and the numpy and BLAS it runs on.

``setup`` imports ``ipszeta``, parses the CLI argv, builds the
``LocalOperator`` and ``GlobalOperator`` it names and exits before any
trace, eigen or evolve call.  ``verify`` argv names no model, so there it
stops after parsing.

``traced`` installs the span tracer, runs ``ipszeta.cli.main`` in this
process inside a root span named ``cli``, writes the spans and exits with
the CLI's code.
"""

import sys


def probe() -> int:
    import json

    import numpy as np

    import ipszeta
    import ipszeta.cli  # noqa: F401  (compiles the CLI's bytecode too)

    op = ipszeta.GlobalOperator(ipszeta.build_local(ipszeta.ModelSpec.dk(0.5, 0.5)), 2)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(json.dumps({"file": ipszeta.__file__, "backend": ipszeta.KERNEL_BACKEND,
                      "dtype": str(op.apply([1, 0, 0, 0]).dtype), "numpy": np.__version__,
                      "blas": f"{blas.get('name')} {blas.get('version')}"}))
    return 0


def setup(argv) -> int:
    from ipszeta import GlobalOperator, ModelSpec, build_local
    from ipszeta.cli import build_parser, parse_angle

    args = build_parser().parse_args(argv)
    if args.model is None:
        return 0
    params = [parse_angle(p) for p in args.params.split(",")]
    spec = ModelSpec.from_json({"model": args.model, "params": params})
    GlobalOperator(build_local(spec), int(args.n))
    return 0


def traced(spans_path, run, argv) -> int:
    import ipszeta.cli
    from tracer import Tracer, install

    tracer = Tracer(run)
    install(tracer)
    span = tracer.start("cli", {})
    try:
        return ipszeta.cli.main(argv)
    finally:
        tracer.finish(span)
        tracer.dump(spans_path)


def main(argv) -> int:
    split = argv.index("--")
    mode, options, cli_argv = argv[0], argv[1:split], argv[split + 1:]
    if mode == "probe":
        return probe()
    if mode == "setup":
        return setup(cli_argv)
    if mode == "traced":
        return traced(options[0], int(options[1]), cli_argv)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
