#!/usr/bin/env python3
"""Smoke-size self-test of the benchmark.

Run from the root of a source checkout:

    python3 perfbench/selftest.py

Runs every workload at tiny size with and without tracing and asserts that the
result line has exactly the expected keys, that every metric BENCHMARK.json
names is present with its unit, and that every output check of the workload
ran and passed.  It also asserts that the traced counts of certify repeat
exactly over two runs, that the traced design at seed 0 makes the expected
two-v and GEVP calls (about 1.0-1.1e5 two-v calls and 1 GEVP for the linear
plant, 10 GEVPs for planar), and that the benchmark refuses to run where there
are no sources.  Takes three to four minutes, most of it the designs, which
have no smaller size.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["python3", "perfbench/run.py"]
# GEVP solves per design plant at seed 0; the linear plants solve one each
DESIGN_GEVPS = {"ex1_sub1_control": 1, "planar": 10}
TWO_V_PER_LINEAR_PLANT = (100_000, 110_000)


def run(workload: str, trace: int, cwd: Path = ROOT):
    cmd = RUN + ["--workload", workload, "--seed", "0", "--seconds", "1",
                 "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)


def check_run(spec: dict, workload: str, trace: int) -> dict:
    rc, lines, err = run(workload, trace)
    expect(rc == 0, f"{workload} trace {trace}: exit code {rc}\n{err}")
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{workload}: result keys {sorted(result)}")
    expect(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
           f"{workload} trace {trace}: {result}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(got == units, f"{workload} trace {trace}: metrics {got} != {units}")
    for name, m in result["metrics"].items():
        expect(isinstance(m["value"], (int, float)), f"{workload}: {name} is not a number")
    checks = json.loads(next(line for line in lines if line.startswith("checks "))[len("checks "):])
    for name, c in checks.items():
        expect(c["runs"] >= 1, f"{workload} trace {trace}: check {name} never ran")
        expect(c["failures"] == 0, f"{workload} trace {trace}: check {name} failed")
    return result["metrics"]


def check_design_counts(layer: dict) -> None:
    """The seed-0 traced design's two-v and GEVP calls, in total and per plant."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import DESIGN_PLANTS

    record = json.loads((ROOT / ".perfbench" / "results" / "design-seed0-trace1.json").read_text())
    per_op = record["trace_data"]["per_op_calls"]
    expect(len(per_op) == len(DESIGN_PLANTS), f"design traced {len(per_op)} ops")
    for plant, calls in zip(DESIGN_PLANTS, per_op):
        gevps = calls.get("lmi.minimize_gevp", 0)
        expect(gevps == DESIGN_GEVPS[plant], f"design {plant}: {gevps} GEVP calls")
        if plant != "planar":
            lo, hi = TWO_V_PER_LINEAR_PLANT
            two_v = calls.get("bounds.two_v", 0)
            expect(lo <= two_v <= hi, f"design {plant}: {two_v} two-v calls")
    total = layer["lmi.minimize_gevp.calls"]["value"]
    expect(total == sum(DESIGN_GEVPS.values()), f"design: {total} GEVP calls in all")
    two_v = layer["bounds.two_v.calls"]["value"]
    expect(two_v == sum(c.get("bounds.two_v", 0) for c in per_op),
           f"design: two-v total {two_v} is not the sum over plants")


def check_refuses_without_sources() -> None:
    (ROOT / ".perfbench" / "tmp").mkdir(parents=True, exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench" / "tmp"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        rc, lines, _ = run("certify", 0, cwd=bare)
        expect(rc != 0, "benchmark ran without sources")
        expect(not any(line.startswith("{") for line in lines), "printed a result without sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in [w["name"] for w in spec["workloads"]]:
        check_run(spec, workload, 0)
        layer = check_run(spec, workload, 1)
        if workload == "design":
            check_design_counts(layer)
        if workload == "certify":
            again = check_run(spec, workload, 1)
            for name, m in layer.items():
                if m["unit"] == "count":
                    expect(m["value"] == again[name]["value"], f"count {name} did not repeat")
        print(f"selftest: {workload} ok", flush=True)
    check_refuses_without_sources()
    print("selftest: refuses to run without sources: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
