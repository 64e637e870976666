"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload uniform_t1 --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` makes the same untraced run, then a traced pass over the same
inputs, prints the per-layer metrics and writes every span to
``.perfbench_spans/<workload>-seed<seed>.jsonl``.  ``--tiny`` shrinks every
workload to a few chips (the benchmark's own tests use it).  The last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``;
the lines before it are a readable report and an environment stamp.
Exits non-zero without that line when the package sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("uniform_t1", "adaptive_t2", "service_sweep")
#: Scratch space for the service workload's stores, inside the checkout.
WORK_DIR = ROOT / ".perfbench_work"
#: Where ``--trace 1`` writes its spans, one JSON line each.
SPANS_DIR = ROOT / ".perfbench_spans"
#: End-to-end metric name -> unit (``BENCHMARK.json`` lists the same).
END_TO_END = {
    "chips_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ta_iters": "iterations",
    "yield_pct": "%",
    "op_ms": "ms",
}


def environment() -> dict:
    """Interpreter, libraries, CPUs and source revision this run used."""
    import numpy
    import scipy

    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    cpus = getattr(os, "process_cpu_count", None)
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode())
        source.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": has_numba,
        "process_cpu_count": cpus() if cpus else len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "src_sha256": source.hexdigest()[:16],
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few chips per workload (for tests)")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no package sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import layers, spans, workloads

    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    try:
        if args.workload == "service_sweep":
            workload = workloads.SERVICE
            if args.tiny:
                workload = workloads.tiny_service(workload)
            outcome = workloads.run_service(
                workload, args.seed, args.seconds, bool(args.trace), work
            )
        else:
            workload = workloads.BATCH[args.workload]
            if args.tiny:
                workload = workloads.tiny_batch(workload)
            outcome = workloads.run_batch(
                workload, args.seed, args.seconds, bool(args.trace)
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()

    if args.trace:
        values = {
            name: outcome.layers.get(name, 0.0) for name in layers.PER_LAYER
        }
        values["error_rate"] = outcome.failed / max(outcome.attempted, 1)
        units = layers.PER_LAYER
        path = SPANS_DIR / f"{args.workload}-seed{args.seed}.jsonl"
        spans.dump(outcome.spans, path)
        outcome.notes.append(f"spans: {path.relative_to(ROOT)}")
    else:
        values = outcome.metrics
        units = END_TO_END
    for note in outcome.notes:
        print(f"# {note}")
    for name, value in values.items():
        print(f"{name:28s} {value:14.6g} {units[name]}")
    print("# env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
