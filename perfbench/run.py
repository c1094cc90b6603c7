"""End-to-end round benchmark of the MixNN federated simulation.

Run from the repository root::

    python3 perfbench/run.py --workload paper-cifar10-mixnn --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
split from a traced run.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give every metric with its unit and every failed check.

The benchmark builds and writes only under ``.bench_build/perfbench`` (the
native crypto helper, temporary files and span traces).  It pins the BLAS
pools to one thread; the library's own pools keep their defaults (two shard
workers; a decrypt pool of ``min(8, cpu_count)`` threads, two on a 2-core
machine).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"
#: the native helper compiles once per checkout; later runs load the cache
NATIVE_BUILD_TIMEOUT_S = 900


def _configure_environment() -> None:
    """Settings every process of the run inherits; set before numpy loads."""
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    (BUILD / "native").mkdir(mode=0o700, exist_ok=True)
    os.environ.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        REPRO_NATIVE_CACHE=str(BUILD / "native"),
        TMPDIR=str(BUILD / "tmp"),
        PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
    )
    sys.path.insert(0, str(SRC))


def _build_native() -> None:
    """Compile (or load the cached) native crypto helper in a child process,
    so neither the compiler nor the build time lands in a measured run."""
    probe = "import sys; from repro.utils import native; sys.exit(0 if native.available() else 1)"
    built = subprocess.run(
        [sys.executable, "-c", probe], cwd=ROOT, timeout=NATIVE_BUILD_TIMEOUT_S, check=False
    )
    if built.returncode != 0:
        print("  native crypto helper unavailable: the pure-Python fallback is measured")


def _stop_resource_tracker() -> None:
    """Wait for the shared-memory resource tracker the sharded plane starts."""
    from multiprocessing import resource_tracker

    stop = getattr(getattr(resource_tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


def _run_all(args) -> dict:
    """Each workload in its own process, so peak memory is measured alone."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        command = [
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
            lines = []
            for line in child.stdout:
                print(line, end="", flush=True)
                lines.append(line)
        result = json.loads(lines[-1]) if child.returncode == 0 and lines else None
        if result is None:
            combined["correct"] = False
            combined["attempted"] += 1
            combined["failed"] += 1
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    _configure_environment()
    if args.workload == "all":
        result = _run_all(args)
    else:
        _build_native()
        import measure

        print(f"{args.workload} seed {args.seed} trace {args.trace}", flush=True)
        result = measure.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), str(BUILD)
        )
        _stop_resource_tracker()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
