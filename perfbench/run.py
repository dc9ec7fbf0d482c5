"""NCP pipeline benchmark: one workload, one seed, one JSON result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload atp-ppr --seed 0 --seconds 28 --trace 0

``--trace 0`` prints the end-to-end metrics (``setup_s``, ``cold_s``,
``warm_s``, ``peak_rss_mb``, ``ncp_phi_gmean``); ``--trace 1`` prints the
per-layer metrics of a separate traced run.  The last line of standard
output is ``{"correct": ..., "attempted": ..., "failed": ..., "metrics":
{...}}``; progress and diagnostics go to standard error.

The measuring happens in fresh child processes (``perfbench/measure.py``):
one that runs the workload, plus further set-up-only processes, so that
``setup_s`` -- process start to graph built and fingerprinted -- is the
median of several fresh starts.  This script itself imports no NumPy and
no ``repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from workloads import workloads  # noqa: E402

# Hard cap on one whole run: measuring processes still alive then are
# killed and the run fails.
RUN_DEADLINE_S = 170.0

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# glibc's malloc raises its mmap threshold (and with it the trim
# threshold) as a process frees large blocks, so two processes doing the
# same work can settle in different states: the atp-ppr memo read, which
# allocates a ~0.5 MB array per candidate, ran at 1.4 s in some processes
# and 2.2 s in others.  Fixing both at the ceilings the adjustment climbs
# to on 64-bit glibc (32 MiB and twice that) makes every process start in
# the same state.  The variables must be set before the process starts.
MALLOC_VARS = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20),
               "MALLOC_TRIM_THRESHOLD_": str(64 << 20)}


class ChildFailed(RuntimeError):
    """A measuring process exited non-zero, timed out or printed no result."""


def child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env.update(MALLOC_VARS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return env


def run_child(argv, deadline):
    """Run ``measure.py`` with ``argv``; return its events by name.

    The ``setup`` event gains ``setup_s``: seconds from just before the
    process was started to the moment its ``setup`` line arrived.
    """
    began = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "measure.py"), *argv],
        stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT,
    )
    timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    timer.start()
    events = {}
    try:
        for line in proc.stdout:
            try:
                record = json.loads(line)
            except ValueError:
                sys.stderr.write(line)
                continue
            if record.get("event") == "setup":
                record["setup_s"] = time.perf_counter() - began
            events[record.get("event")] = record
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or "setup" not in events:
        raise ChildFailed(f"measure.py {' '.join(argv)} exited with {code}")
    return events


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced-size workloads, for perfbench/selftest.py",
    )
    args = parser.parse_args(argv)

    known = workloads(args.quick)
    if args.workload not in known:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(known)}")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}: run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    workload = known[args.workload]
    deadline = time.monotonic() + RUN_DEADLINE_S
    work_root = ROOT / ".perfbench_work"
    work_dir = work_root / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--work-dir", str(work_dir)]
    if args.quick:
        common.append("--quick")

    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        mode = "trace" if args.trace else "run"
        main_events = run_child(
            ["--mode", mode, "--seconds", str(args.seconds), *common],
            deadline,
        )
        if "result" not in main_events:
            raise ChildFailed(f"measure.py --mode {mode} printed no result")
        setups = [main_events["setup"]]
        for _ in range(workload.setup_samples - 1):
            setups.append(run_child(["--mode", "setup", *common],
                                    deadline)["setup"])
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    result = main_events["result"]
    same_inputs = len({s["fingerprint"] for s in setups}) == 1
    if not same_inputs:
        print("set-up processes built different graphs from one seed",
              file=sys.stderr)
    if args.trace:
        metrics = {
            "datasets.build_s": {
                "value": statistics.median(s["build_s"] for s in setups),
                "unit": "s",
            },
            **result["metrics"],
        }
    else:
        metrics = {
            "setup_s": {
                "value": statistics.median(s["setup_s"] for s in setups),
                "unit": "s",
            },
            **result["metrics"],
        }
    record = {
        "identity": result["identity"],
        "setup": setups,
        "child": {k: v for k, v in result.items() if k != "identity"},
    }
    record_path = (work_root / f"result-{args.workload}-seed{args.seed}"
                   f"-trace{args.trace}.json")
    record_path.write_text(json.dumps(record, indent=1))
    print(f"{args.workload} seed={args.seed} "
          f"fingerprint={result['identity']['fingerprint'][:16]} "
          f"chunks={result['identity']['chunks']} "
          f"candidates={result['identity']['candidates']} "
          f"record={record_path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps({
        "correct": bool(result["correct"] and same_inputs),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
