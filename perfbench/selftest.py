"""Fast self-test of the NCP pipeline benchmark.

Runs every workload at reduced size (``run.py --quick``), twice with
``--trace 0`` and twice with ``--trace 1`` on one seed, and checks that:

* the last stdout line has exactly the keys ``correct``, ``attempted``,
  ``failed`` and ``metrics``, with every check passed;
* every metric ``BENCHMARK.json`` names is emitted with its unit, and no
  other metric is;
* every count, and the deterministic ``ncp_phi_gmean``, repeats exactly
  across the two invocations;
* ``run.py`` fails without printing a result when the ``repro`` sources
  are missing.

Run from the root of a checkout::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_output(proc, expected, problems, label):
    """Parse the result line and check it against ``expected`` units."""
    if proc.returncode != 0:
        problems.append(
            f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}"
        )
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
        return None
    if not (result["correct"] is True and result["failed"] == 0
            and result["attempted"] >= 1):
        problems.append(f"{label}: correct={result['correct']} "
                        f"attempted={result['attempted']} "
                        f"failed={result['failed']}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append(
            f"{label}: missing {sorted(set(expected) - set(metrics))}, "
            f"unexpected {sorted(set(metrics) - set(expected))}"
        )
    for name, unit in expected.items():
        entry = metrics.get(name)
        if entry is None:
            continue
        if entry.get("unit") != unit:
            problems.append(f"{label}: {name} unit {entry.get('unit')!r} "
                            f"!= {unit!r}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {name} value {value!r}")
    return metrics


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    deterministic = {"ncp_phi_gmean"}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            known = len(problems)
            first, second = (
                check_output(run_bench(ROOT, workload, trace),
                             expected[trace], problems, f"{label} #{i}")
                for i in (1, 2)
            )
            if first is None or second is None:
                continue
            for name, unit in expected[trace].items():
                if unit != "count" and name not in deterministic:
                    continue
                a, b = first.get(name), second.get(name)
                if a and b and a["value"] != b["value"]:
                    problems.append(f"{label}: {name} {a['value']} then "
                                    f"{b['value']}")
            if len(problems) == known:
                print(f"ok  {label}", flush=True)

    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run_bench(bare, spec["workloads"][0]["name"], 0)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("run.py succeeded without the repro sources")
    else:
        print("ok  fails without the repro sources", flush=True)
    shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
