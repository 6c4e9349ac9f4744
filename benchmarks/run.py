"""locgame benchmark: one workload, one seed, one result line.

    python3 benchmarks/run.py --workload exact_play --seed 1 --seconds 50 --trace 0

Run from the repository root.  Set-up (import locgame, generate the seeded
inputs, write them as graph files) is repeated and its median reported as
``setup_s``.  With ``--trace 0`` the workload's ops then run pass after pass,
at least MIN_PASSES times and then while another pass fits in
``--seconds``; ``wall_s`` and ``cpu_s`` are the mean pass times.
With ``--trace 1`` two traced passes, between two untraced ones, give the
per-layer metrics; both traced passes must give identical work counters.  Every answer is checked against ``golden.json`` and against
independent recomputation.  The last line of stdout is the result object;
the line before it is a report with every metric of the workload, its
inputs and the machine.  Exit status: 0 when every answer is right, 1 when
one is wrong, 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import os

# one BLAS thread, fixed before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import gzip
import importlib
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import tracing
import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 9
MIN_PASSES = 3
TRACED_PASSES = 2
COMMANDS = ("zeta", "bounds", "beta", "stats", "play", "experiment", "lovasz")


@dataclass
class Pass:
    wall: float
    cpu: float
    op_seconds: list[float]
    answers: list[dict]


def setup(workload: str, seed: int, workdir: Path):
    """Import locgame afresh, then write the workload's inputs as graph files."""
    for name in [n for n in sys.modules if n == "locgame" or n.startswith("locgame.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    lg = importlib.import_module("locgame")
    importlib.import_module("locgame.cli")
    insts, ops = wl.plan(workload, seed)
    workdir.mkdir()
    graphs = wl.write_inputs(insts, workdir)
    elapsed = time.perf_counter() - t0
    if Path(lg.__file__).resolve().parent != SRC / "locgame":
        raise RuntimeError(f"imported locgame from {lg.__file__}, not from {SRC}")
    return elapsed, insts, ops, graphs


def run_pass(ops, graphs, workdir: Path, tracer: tracing.Tracer | None = None) -> Pass:
    """Run every op once; answers are read back after the timed loop."""
    gc.collect()
    outs = [wl.out_path(workdir, i, op) for i, op in enumerate(ops)]
    raws, seconds = [], []
    start, cpu_start = time.perf_counter(), time.process_time()
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                raw = wl.run_op(op, graphs, outs[i])
            else:
                tracer.op = i
                with tracer.span("op." + op.command):
                    raw = wl.run_op(op, graphs, outs[i])
        except (Exception, SystemExit) as exc:
            traceback.print_exc(file=sys.stderr)
            raw = exc
        seconds.append(time.perf_counter() - t0)
        raws.append(raw)
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu_start
    answers = []
    for op, raw, out in zip(ops, raws, outs):
        if isinstance(raw, BaseException):
            answers.append({"error": repr(raw)})
        else:
            try:
                answers.append(wl.answer(op, raw, out))
            except (OSError, ValueError, KeyError, IndexError) as exc:
                answers.append({"error": f"unreadable answer: {exc!r}"})
    return Pass(wall, cpu, seconds, answers)


def traced_pass(insts, ops, graphs, workdir: Path) -> tuple[tracing.Tracer, Pass]:
    """A pass under instrumentation, preceded by a traced build of the
    inputs so that ``families.build`` is measured."""
    tr = tracing.Tracer()
    with tracing.instrument(tr):
        with tr.span("setup.build"):
            for inst in insts:
                wl.build(inst)
        p = run_pass(ops, graphs, workdir, tr)
    return tr, p


def grade(ops, passes: list[Pass], graphs, workdir: Path) -> tuple[int, list[str]]:
    """Count failed op runs: raised, differs from golden.json, or fails a
    cross-check.  Cross-checks read the output files of the last pass."""
    golden = json.loads((BENCH / "golden.json").read_text())["answers"]
    bad_keys: dict[str, str] = {}
    last = passes[-1]
    for i, (op, ans) in enumerate(zip(ops, last.answers)):
        if "error" in ans or op.key in bad_keys:
            continue
        try:
            why = checks.cross_check(op, ans, graphs, wl.out_path(workdir, i, op))
        except Exception as exc:  # a crash in a check is a failed check
            why = f"cross-check raised {exc!r}"
        if why:
            bad_keys[op.key] = why
    failed, problems = 0, []
    for p in passes:
        for op, ans in zip(ops, p.answers):
            want = golden.get(op.key)
            if "error" in ans:
                why = ans["error"]
            elif want is None:
                why = "no pinned answer"
            elif not wl.same_answer(ans, want):
                why = f"differs from golden: {ans}"
            else:
                why = bad_keys.get(op.key)
            if why:
                failed += 1
                problems.append(f"{op.key}: {why}")
    return failed, sorted(set(problems))


def environment() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def command_seconds(ops, p: Pass) -> dict[str, float]:
    out = {c: 0.0 for c in COMMANDS}
    for op, s in zip(ops, p.op_seconds):
        out[op.command] += s
    return out


def mean_pass_commands(ops, passes: list[Pass]) -> dict[str, float]:
    per = [command_seconds(ops, p) for p in passes]
    return {c: statistics.mean(d[c] for d in per) for c in COMMANDS}


def layer_metrics(traced: list[tuple[tracing.Tracer, Pass]], untraced: list[Pass], ops) -> dict:
    metrics: dict[str, dict] = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    times = [tr.layer_times() for tr, _ in traced]
    for layer in tracing.LAYERS:
        incl = statistics.mean(t.get(layer, (0.0, 0.0))[0] for t in times)
        own = statistics.mean(t.get(layer, (0.0, 0.0))[1] for t in times)
        put(f"{layer}_s", incl, "s")
        put(f"{layer}_self_s", own, "s")
    first = traced[0][0]
    for name in tracing.COUNTERS:
        put(name, first.counts[name], "bytes_computed" if name == "lp.tableau_bytes" else "count")
    solve = metrics["game.solve_s"]["value"]
    put("game.states_per_s", first.counts["game.explored_states"] / solve if solve else 0.0, "1/s")
    for cmd, s in mean_pass_commands(ops, untraced).items():
        put(f"cmd.{cmd}_s", s, "s")
    traced_wall = statistics.mean(p.wall for _, p in traced)
    untraced_wall = statistics.mean(p.wall for p in untraced)
    put("trace.wall_s", traced_wall, "s")
    put("trace.untraced_wall_s", untraced_wall, "s")
    put("trace.overhead_s", traced_wall - untraced_wall, "s")
    put("trace.spans", len(first.spans), "count")
    return metrics


def declared_metrics(trace: bool) -> list[str] | None:
    spec = ROOT / "BENCHMARK.json"
    if not spec.exists():
        return None
    data = json.loads(spec.read_text())
    return [m["name"] for m in data["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # let numpy finish lazy initialisation before anything is timed
    np.linalg.matrix_power(np.ones((8, 8), dtype=np.int64), 4)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    # a fresh bytecode cache: the first set-up compiles locgame, later ones
    # load the cached bytecode, whatever the environment or the checkout hold
    sys.dont_write_bytecode = False
    sys.pycache_prefix = str(workdir / "pycache")
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: Path) -> int:
    try:
        setups = [setup(args.workload, args.seed, workdir / f"setup{i}")
                  for i in range(SETUP_REPEATS if not args.trace else 1)]
    except ImportError as exc:
        print(f"error: cannot import locgame from {SRC}: {exc}", file=sys.stderr)
        return 2
    _, insts, ops, graphs = setups[-1]
    setup_s = statistics.median(s[0] for s in setups)

    untraced: list[Pass] = []
    traced: list[tuple[tracing.Tracer, Pass]] = []
    if not args.trace:
        # at least MIN_PASSES; more while another pass of average length
        # still ends within --seconds
        start = time.perf_counter()
        while len(untraced) < MIN_PASSES or (
            time.perf_counter() - start
            + statistics.mean(p.wall for p in untraced) <= args.seconds
        ):
            untraced.append(run_pass(ops, graphs, workdir))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        # untraced passes on both sides, so a warm-up cost lands on both
        untraced.append(run_pass(ops, graphs, workdir))
        traced = [traced_pass(insts, ops, graphs, workdir) for _ in range(TRACED_PASSES)]
        untraced.append(run_pass(ops, graphs, workdir))
    passes = untraced + [p for _, p in traced]

    failed, problems = grade(ops, passes, graphs, workdir)
    attempted = len(ops) * len(passes)
    counts = [dict(tr.counts) for tr, _ in traced]
    if any(c != counts[0] for c in counts):
        problems.append(f"counters differ between traced passes: {counts}")
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    correct = not problems

    cmd = mean_pass_commands(ops, untraced)
    report_metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": statistics.mean(p.wall for p in untraced), "unit": "s"},
        "cpu_s": {"value": statistics.mean(p.cpu for p in untraced), "unit": "s"},
    }
    for c in sorted({op.command for op in ops}, key=COMMANDS.index):
        report_metrics[f"{c}_s"] = {"value": cmd[c], "unit": "s"}
    if not traced:
        report_metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    report_metrics["error_rate"] = {"value": failed / attempted, "unit": "ratio"}

    if traced:
        metrics = layer_metrics(traced, untraced, ops)
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json.gz"
        with gzip.open(spans_file, "wt") as fh:
            json.dump({"fields": ["name", "parent", "op", "start", "end"],
                       "ops": [op.key for op in ops],
                       "passes": [tr.spans for tr, _ in traced]}, fh)
    else:
        metrics = {k: report_metrics[k] for k in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")}
    declared = declared_metrics(bool(traced))
    if declared is not None and sorted(declared) != sorted(metrics):
        print(f"error: metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(declared)}",
              file=sys.stderr)
        return 2

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "inputs": [i.key for i in insts],
        "passes": len(passes),
        "setups_s": [s[0] for s in setups],
        "pass_walls_s": [p.wall for p in passes],
        "pass_cpu_s": [p.cpu for p in passes],
        "metrics": report_metrics,
        "environment": environment(),
    }
    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**report, "per_layer": metrics if traced else None,
                    "ops": [op.key for op in ops],
                    "op_seconds": [p.op_seconds for p in passes]}, indent=1))
    print(json.dumps(report))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
