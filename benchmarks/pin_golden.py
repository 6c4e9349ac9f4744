"""Pin the answer of every op that any seed can draw into golden.json.

    python3 benchmarks/pin_golden.py

Run it only at a commit whose answers are known good: the benchmark fails
every later run whose answers differ from the pinned ones.  An answer is
pinned only after it passes the independent cross-checks.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run  # first, so the BLAS thread settings precede numpy
import checks
import workloads as wl


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="pin-", dir=run.OUT))
    try:
        insts, ops = wl.pool_plan()
        graphs = wl.write_inputs(insts, workdir)
        answers, problems = {}, []
        for i, op in enumerate(ops):
            (ans,) = run.run_pass([op], graphs, workdir).answers
            why = ans.get("error") or checks.cross_check(
                op, ans, graphs, wl.out_path(workdir, 0, op))
            if why:
                problems.append(f"{op.key}: {why}")
            answers[op.key] = ans
            print(f"[{i + 1}/{len(ops)}] {op.key}", file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    text = json.dumps({"pool": wl.POOL, "answers": answers}, indent=1, sort_keys=True)
    (run.BENCH / "golden.json").write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
