"""Benchmark of the ipszeta CLI: end-to-end runs and a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from anywhere inside a source checkout; the package is imported from
``src/`` next to this directory, nothing is installed.  ``--workload all``
runs the four workloads in turn.

One closed-loop client starts the workload's CLI children one at a time
and starts the next run only when the previous one has exited, until
``--seconds`` have passed.  ``--trace 0`` reports the end-to-end metrics
of BENCHMARK.json; ``--trace 1`` alternates untraced runs with runs whose
children load ``tracer.py`` and reports the per-layer metrics.  Every run
is checked against the workload's oracle.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 when every run passed its checks, 1 when
one failed, and 2 when the checkout holds no ``src/ipszeta``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import layer_metrics, load_spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5
# each invocation must end within 180 s; children still running past this
# many seconds after the start are killed and count as failed runs
HARD_LIMIT_S = 170.0


class Children:
    """Starts one child at a time and measures it from spawn to exit."""

    def __init__(self, env: dict, deadline: float, tmp: Path):
        self.env = env
        self.deadline = deadline
        self.tmp = tmp

    def run(self, argv, slot=0):
        """(exit code, wall s, peak RSS MB, stdout text) of one child."""
        stdout_path = self.tmp / f"stdout-{slot}"
        with open(stdout_path, "wb") as out, open(self.tmp / f"stderr-{slot}", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0, stdout_path.read_text()

    def iteration(self, commands, spans=None):
        """Wall from first spawn to last exit, peak RSS, codes, stdout of one run.

        With ``spans``, a list of one path per command, the children are traced.
        """
        codes, outputs, rss = [], [], 0.0
        start = time.perf_counter()
        for i, argv in enumerate(commands):
            if spans is None:
                full = [sys.executable, "-m", "ipszeta.cli", *argv]
            else:
                spans[i].unlink(missing_ok=True)
                full = [sys.executable, str(HERE / "child.py"), "traced", str(spans[i]), str(i),
                        "--", *argv]
            code, _, child_rss, text = self.run(full, slot=i)
            codes.append(code)
            outputs.append(text)
            rss = max(rss, child_rss)
        return time.perf_counter() - start, rss, codes, outputs


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    env.update(PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    return env


def src_loc() -> int:
    lines = 0
    for path in SRC.rglob("*"):
        if (path.is_file() and path.name != "_sweep.c" and "__pycache__" not in path.parts
                and path.suffix not in (".so", ".pyc")):
            lines += len(path.read_bytes().splitlines())
    return lines


def provenance(seed: int, probe: dict, env: dict) -> dict:
    rev = cpu = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True)
            rev = done.stdout.strip() or None
        except OSError:
            pass
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_rev": rev,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor() or platform.machine(),
        "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2 ** 20,
        "python": platform.python_version(),
        "numpy": probe["numpy"],
        "blas": probe["blas"],
        "blas_threads": int(env["OPENBLAS_NUM_THREADS"]),
        "kernel_backend": probe["backend"],
        "dtype": probe["dtype"],
        "seed": seed,
        "src_loc": src_loc(),
    }


def tail(samples):
    """Highest percentile with at least ten samples above it, with that percentile.

    None below 20 samples, where that percentile would not reach the median.
    """
    n = len(samples)
    if n < 20:
        return None, None
    return sorted(samples)[n - 11], 100.0 * (n - 10) / n


def problems_of(workload, reference, commands, codes, outputs) -> list:
    """Failures of one workload run: non-zero exits, else the oracle's findings."""
    problems = [f"exit {c} from {' '.join(a)}" for c, a in zip(codes, commands) if c]
    if problems:
        return problems
    try:
        return workload.check(reference, commands, outputs)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


def run_workload(workload, seed, seconds, trace, smoke, env, tmp):
    """Closed loop over one workload; returns the result record."""
    children = Children(env, time.monotonic() + HARD_LIMIT_S, tmp)
    (OUT / "spans").mkdir(parents=True, exist_ok=True)
    commands = workload.commands(random.Random(seed), smoke)
    code, _, _, text = children.run([sys.executable, str(HERE / "oracles.py"), workload.name,
                                     json.dumps(commands)])
    if code != 0:
        raise SystemExit(f"the {workload.name} oracle exited {code}")
    reference = json.loads(text)

    errors, setup = [], []
    attempted = failed = 0
    for _ in range(1 if smoke else SETUP_REPEATS):
        code, wall, _, _ = children.run([sys.executable, str(HERE / "child.py"), "setup",
                                         "--", *commands[0]])
        setup.append(wall)
        attempted += 1
        if code != 0:
            failed += 1
            errors.append(f"setup child exited {code}")

    walls, traced_walls, layers, rss, missing = [], [], [], [], set()
    start = time.monotonic()
    while True:
        for traced in ((False, True) if trace else (False,)):
            spans = None
            if traced:
                spans = [OUT / "spans" / f"{workload.name}-seed{seed}-{len(traced_walls)}-{i}.jsonl"
                         for i in range(len(commands))]
            wall, run_rss, codes, outputs = children.iteration(commands, spans)
            attempted += 1
            problems = problems_of(workload, reference, commands, codes, outputs)
            if problems:
                failed += 1
                errors.extend(problems)
            if traced:
                traced_walls.append(wall)
                run_spans = []
                for path in filter(Path.exists, spans):
                    child_spans, child_missing = load_spans(path)
                    run_spans.extend(child_spans)
                    missing.update(child_missing)
                layers.append(layer_metrics(run_spans, sum(len(o.encode()) for o in outputs)))
            else:
                walls.append(wall)
                rss.append(run_rss)
        elapsed = time.monotonic() - start
        longest = max(walls + traced_walls)
        if elapsed >= seconds or time.monotonic() + 2 * longest > children.deadline:
            break

    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "smoke": smoke, "commands": commands, "attempted": attempted, "failed": failed,
        "errors": errors[:20], "samples": {"wall_s": walls, "setup_s": setup, "peak_rss_mb": rss},
    }
    if trace:
        keys = layers[0]["metrics"]
        metrics = {k: statistics.median(run["metrics"][k] for run in layers)
                   if unit(k) in ("s", "GB/s") else keys[k] for k in keys}
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        record["metrics"] = metrics
        record["counts_repeat"] = all(run["metrics"][k] == keys[k] for run in layers
                                      for k in keys if unit(k) not in ("s", "GB/s"))
        record["self_share"] = layers[0]["self_share"]
        record["untraced_targets"] = sorted(missing)
        record["samples"]["traced_wall_s"] = traced_walls
    else:
        tail_value, tail_pct = tail(walls)
        record["metrics"] = {
            "wall_s": statistics.median(walls),
            "peak_rss_mb": max(rss),
            "setup_s": statistics.median(setup),
        }
        record["info"] = {
            "wall_s_tail": tail_value, "wall_s_tail_percentile": tail_pct,
            "wall_s_samples": len(walls),
            "error_rate": failed / attempted,
        }
    return record


UNITS = (("_s", "s"), ("_mb", "MB"), ("bytes", "B"), ("bytes_computed", "B"),
         ("gbps_computed", "GB/s"))


def unit(name: str) -> str:
    """Unit of a metric from its name's suffix; the rest are counts."""
    return next((u for suffix, u in UNITS if name.endswith(suffix)), "count")


def summary(record) -> list:
    lines = [f"{record['workload']}: {record['attempted']} runs attempted, "
             f"{record['failed']} failed, {len(record['samples']['wall_s'])} timed"]
    for name, value in record["metrics"].items():
        lines.append(f"  {name:<40} {value:>14.6g} {unit(name)}")
    if "info" in record:
        info = record["info"]
        if info["wall_s_tail"] is None:
            lines.append(f"  {'wall_s_tail':<40} {'n/a':>14} s  "
                         f"(needs 20 samples, have {info['wall_s_samples']})")
        else:
            lines.append(f"  {'wall_s_tail':<40} {info['wall_s_tail']:>14.6g} s  "
                         f"(p{info['wall_s_tail_percentile']:.0f} of {info['wall_s_samples']})")
        lines.append(f"  {'error_rate':<40} {info['error_rate']:>14.6g} "
                     f"({record['failed']}/{record['attempted']})")
    for error in record["errors"]:
        lines.append(f"  error: {error}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes (N=4..6)")
    args = parser.parse_args(argv)

    if not (SRC / "ipszeta" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'ipszeta'}", file=sys.stderr)
        return 2
    env = child_env()
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        # the probe child also compiles the package's bytecode before any timing
        code, _, _, text = Children(env, time.monotonic() + 60, tmp).run(
            [sys.executable, str(HERE / "child.py"), "probe", "--"])
        probe = json.loads(text) if code == 0 else {}
        if not str(probe.get("file", "")).startswith(str(SRC)):
            print(f"error: ipszeta did not import from {SRC}", file=sys.stderr)
            return 2
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        records = [run_workload(WORKLOADS[name], args.seed, args.seconds, args.trace,
                                args.smoke, env, tmp) for name in names]
    finally:
        shutil.rmtree(tmp)
    for record in records:
        print("\n".join(summary(record)))

    report = {"provenance": provenance(args.seed, probe, env), "runs": records}
    results = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.write_text(json.dumps(report, indent=1))
    print(f"provenance: {json.dumps(report['provenance'])}")
    print(f"results: {results.relative_to(ROOT)}")

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    metrics = {}
    for record in records:
        prefix = "" if len(records) == 1 else record["workload"] + "."
        for name, value in record["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": unit(name)}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
