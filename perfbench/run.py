#!/usr/bin/env python3
"""sdstab benchmark: closed-loop runs of the sdstab CLI with checked outputs.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload design --seed 0 --seconds 10 --trace 0

Workloads: design, mc-wide, mc-long, certify (see workloads.py for why each
exists).  Load is a closed loop with one client in this process: each
operation, an in-process ``sdstab.cli.main(argv)`` call, starts after the
previous one finished.  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` runs a fixed amount of work once untraced and once with the
package wrapped by tracer.py, and reports the per-layer metrics.  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  Spans, counters, checks and run metadata are written to
.perfbench/results/ when the run ends.

The package is imported from ./src, never from an installed copy; without it
the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".perfbench"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5

END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_ms_p50", "ms"),
]


class MissingSource(RuntimeError):
    pass


def import_sdstab():
    """Import sdstab.cli from ./src, plus the lazy scipy.optimize every design pays."""
    src = ROOT / "src"
    if not (src / "sdstab" / "__init__.py").is_file():
        raise MissingSource(f"no sdstab sources under {src}")
    sys.path.insert(0, str(src))
    import scipy.optimize  # noqa: F401
    import sdstab.cli

    if Path(sdstab.cli.__file__).resolve().parent != (src / "sdstab").resolve():
        raise MissingSource(f"sdstab imported from {sdstab.cli.__file__}, not from {src}")
    return sdstab.cli


def setup_only(args) -> int:
    """Child process for setup_s: import (done by main), generate the inputs, say ready."""
    from workloads import WORKLOADS

    workdir = Path(tempfile.mkdtemp())
    try:
        WORKLOADS[args.workload].build(args.seed, workdir, args.smoke)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def measure_setup(args, cpu) -> list:
    """Set-up times of SETUP_REPEATS child processes, each pinned to ``cpu``.

    Set-up runs on one thread on every workload, so the children share one CPU
    even where the operations use two.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              preexec_fn=functools.partial(os.sched_setaffinity, 0, {cpu})) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            rc = proc.wait(timeout=120)
        if rc != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup child failed with exit code {rc}")
        times.append(elapsed)
    return times


# ---------------------------------------------------------------------------
# running operations
# ---------------------------------------------------------------------------

class _Discard(io.TextIOBase):
    def write(self, text):
        return len(text)


def run_op(cli, op):
    """Run an op's CLI calls back to back; returns (rcs, reports, latency, call latencies)."""
    for report in op.reports:
        Path(report).unlink(missing_ok=True)
    sink = _Discard()
    rcs, calls = [], []
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        for argv in op.argvs:
            t0 = time.perf_counter()
            rcs.append(cli.main(list(argv)))  # looked up per call, so tracing sees it
            calls.append(time.perf_counter() - t0)
        latency = time.perf_counter() - start
    reports = []
    for report in op.reports:
        path = Path(report)
        reports.append(json.loads(path.read_text()) if path.exists() else None)
    return rcs, reports, latency, calls


def tail_percentile(samples):
    """Highest of p99.9/p99/p90 with at least ten samples beyond it, or None."""
    for p in (99.9, 99.0, 90.0):
        if len(samples) * (100.0 - p) / 100.0 >= 10:
            cut = statistics.quantiles(samples, n=1000, method="inclusive")[int(p * 10) - 1]
            return f"p{p:g}", cut
    return None


def timed_run(args, cli, workload, inputs):
    """Closed loop for --seconds (at least min_ops ops); outputs checked as they arrive."""
    from workloads import Checks

    checks = Checks(workload.checks)
    latencies, call_times, results = [], [], []
    failed = 0
    check_s = 0.0
    start = time.perf_counter()
    i = 0
    while True:
        op = inputs.ops[i % len(inputs.ops)]
        rcs, reports, latency, calls = run_op(cli, op)
        t0 = time.perf_counter()
        if not workload.check(op, rcs, reports, checks):
            failed += 1
        results.append(summarize(workload.name, op, reports))
        check_s += time.perf_counter() - t0
        latencies.append(latency)
        call_times.append(calls)
        i += 1
        if i >= inputs.min_ops and time.perf_counter() - start - check_s >= args.seconds:
            break
    busy = time.perf_counter() - start - check_s
    attempted = i
    if workload.run_checks is not None:
        attempted += 1
        if not workload.run_checks(inputs.ops[0], checks):
            failed += 1
    metrics = {"op_ms_p50": statistics.median(latencies) * 1e3}
    details = workload_details(workload.name, inputs, latencies, call_times, results)
    details["samples"] = len(latencies)
    details["ops_per_s"] = i / busy
    return metrics, details, checks, attempted, failed


def summarize(name, op, reports):
    """The few report fields the details line needs, so reports are not kept."""
    if name == "design" and reports[0] is not None:
        res = reports[0]["results"]
        return {"plant": op.expect["plant"], "tau_max": res["tau_max"], "gain_norm": res["gain_norm"]}
    return None


def workload_details(name, inputs, latencies, call_times, results):
    """Workload-specific figures, printed by name but not gated."""
    out = {}
    if name == "design":
        per_plant = {}
        for r, lat in zip(results, latencies):
            if r is not None:
                per_plant.setdefault(r["plant"], []).append(
                    {"s": lat, "tau_max_s": r["tau_max"], "gain_norm": r["gain_norm"]})
        out["design_s_p50"] = statistics.median(latencies)
        taus = [v["tau_max_s"] for runs in per_plant.values() for v in runs]
        out["design_tau_min_s"] = min(taus) if taus else None
        out["plants"] = per_plant
    elif name in ("mc-wide", "mc-long"):
        e = inputs.ops[0].expect
        from workloads import sim_config

        cfg = sim_config(e)
        nominal = e["paths"] * e["horizon"] / cfg.dt_sim
        out["sim_path_steps_per_s_nominal"] = statistics.median(nominal / t for t in latencies)
        out["nominal_path_steps"] = nominal
    elif name == "certify":
        verify = [c[0] for c in call_times]
        bound = [c[1] for c in call_times]
        out["verify_ms_p50"] = statistics.median(verify) * 1e3
        tail = tail_percentile(verify)
        if tail is not None:
            out[f"verify_ms_{tail[0]}"] = tail[1] * 1e3
        out["bound_ms_p50"] = statistics.median(bound) * 1e3
        out["verify_samples"] = len(verify)
    return out


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def sim_probe(op, repeats=3):
    """Direct run_ensemble calls on the op's inputs: two-horizon fit, worker speed-up, sizes.

    Each point is the fastest of ``repeats`` calls, so a slow spell of the
    machine during one call does not tip the fit.  The workers-2 leg runs only
    when the paths fill more than one chunk; otherwise run_ensemble takes the
    serial path and the speed-up reads 0, meaning not exercised.
    """
    from sdstab.sim import run_ensemble
    from workloads import SIM_CHUNK, resolved_model, sim_config

    model = resolved_model(op.expect)
    horizon = op.expect["horizon"]
    paths = op.expect["paths"]
    sizes = {}

    def fastest(h, workers):
        cfg = sim_config(op.expect, horizon=h)
        best = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            ens = run_ensemble(model, cfg, workers=workers)
            elapsed = time.perf_counter() - t0
            best = elapsed if best is None else min(best, elapsed)
            sizes[h] = (len(ens.times) - 1, ens.states.nbytes + ens.alive.nbytes
                        + ens.diverged_at.nbytes)
            del ens
        return best

    t_half = fastest(0.5 * horizon, 1)
    t_full = fastest(horizon, 1)
    chunks = -(-paths // SIM_CHUNK)
    speedup = t_full / fastest(horizon, 2) if chunks > 1 else 0.0
    (s_half, _), (s_full, store_bytes) = sizes[0.5 * horizon], sizes[horizon]
    per_step = (t_full - t_half) / (paths * (s_full - s_half))
    per_path = (t_full - per_step * paths * s_full) / paths
    # noise is drawn one chunk at a time, so at most one chunk per busy worker is live
    live_chunks = min(op.expect["workers"], chunks)
    return {
        "sim.per_path_us": per_path * 1e6,
        "sim.per_path_step_ns": per_step * 1e9,
        "sim.workers2_speedup": speedup,
        "sim.noise_bytes": float(min(paths, SIM_CHUNK) * s_full * model.m * 8 * live_chunks),
        "sim.store_bytes": float(store_bytes),
    }


def _calls(name):
    return lambda t, p: t.stat(name).calls


def _busy(name):
    return lambda t, p: t.stat(name).busy_s


def _mean(name, scale, attr="busy_s"):
    """Mean per call of a stat's busy (or self) time, scaled to the metric's unit."""
    def value(t, p):
        st = t.stat(name)
        return getattr(st, attr) / st.calls * scale if st.calls else 0.0
    return value


def _counter(name, key):
    return lambda t, p: t.stat(name).counters.get(key, 0)


def _ratio(name, key):
    def value(t, p):
        st = t.stat(name)
        return st.counters.get(key, 0) / st.calls if st.calls else 0.0
    return value


def _probed(name):
    return lambda t, p: p.get(name, 0.0)


PER_LAYER = [
    # (name, unit, value from (tracer, probe)); a layer a workload never calls reads 0
    ("bounds.two_v.calls", "count", _calls("bounds.two_v")),
    ("bounds.two_v.us_per_call", "us", _mean("bounds.two_v", 1e6)),
    ("numerics.find_root.calls", "count", _calls("numerics.find_root")),
    ("numerics.find_root.us_per_call", "us", _mean("numerics.find_root", 1e6)),
    ("lmi.minimize_gevp.calls", "count", _calls("lmi.minimize_gevp")),
    ("lmi.minimize_gevp.busy_s", "s", _busy("lmi.minimize_gevp")),
    ("lmi.solve_feasibility.calls", "count", _calls("lmi.solve_feasibility")),
    ("lmi.solve_feasibility.iterations", "count", _counter("lmi.solve_feasibility", "iterations")),
    ("lmi.solve_feasibility.feasible_ratio", "ratio", _ratio("lmi.solve_feasibility", "feasible")),
    ("design.synthesize.busy_s", "s", _busy("design.synthesize")),
    ("design.self_s", "s", lambda t, p: t.layer_self_s("design")),
    ("design.refine.calls", "count", _calls("design.refine")),
    ("design.refine.nfev", "count", _counter("design.refine", "nfev")),
    ("design.refine.busy_s", "s", _busy("design.refine")),
    ("lmi.verify.calls", "count", _calls("lmi.verify")),
    ("lmi.verify.us_per_call", "us", _mean("lmi.verify", 1e6)),
    ("numerics.lam_max.calls", "count", _calls("numerics.lam_max")),
    ("numerics.lam_max.us_per_call", "us", _mean("numerics.lam_max", 1e6)),
    ("cli.self_ms", "ms", _mean("cli.main", 1e3, attr="self_s")),
    ("models.load_ms", "ms", _mean("models.load", 1e3)),
    ("sim.run_ensemble.busy_s", "s", _busy("sim.run_ensemble")),
    ("sim.estimators.busy_s", "s", _busy("sim.estimators")),
    ("sim.per_path_us", "us", _probed("sim.per_path_us")),
    ("sim.per_path_step_ns", "ns", _probed("sim.per_path_step_ns")),
    ("models.schedule_instants_s", "s", _busy("models.schedule_instants")),
    ("sim.workers2_speedup", "ratio", _probed("sim.workers2_speedup")),
    ("sim.noise_bytes", "bytes-computed", _probed("sim.noise_bytes")),
    ("sim.store_bytes", "bytes-computed", _probed("sim.store_bytes")),
    ("tracing.overhead_frac", "ratio", _probed("tracing.overhead_frac")),
]


def traced_run(args, cli, workload, inputs):
    """Fixed work: the reference ops untraced, then every op traced; checks run after."""
    from tracer import Tracer, install_sdstab
    from workloads import Checks

    # design ops take seconds each, so only the first is repeated untraced and
    # no warm-up op is needed; the others warm up on one untimed op first
    reference = inputs.ops[:1] if workload.name == "design" else inputs.ops
    outputs = []
    if workload.name != "design":
        rcs, reports, _, _ = run_op(cli, inputs.ops[0])
        outputs.append((inputs.ops[0], rcs, reports))
    untraced_s = 0.0
    for op in reference:
        rcs, reports, latency, _ = run_op(cli, op)
        outputs.append((op, rcs, reports))
        untraced_s += latency
    probe = sim_probe(inputs.ops[0]) if workload.name.startswith("mc-") else {}

    tracer = Tracer()
    install_sdstab(tracer)
    traced_s = 0.0
    per_op_calls = []
    try:
        for k, op in enumerate(inputs.ops):
            before = {name: st.calls for name, st in tracer.stats.items()}
            rcs, reports, latency, _ = run_op(cli, op)
            outputs.append((op, rcs, reports))
            per_op_calls.append({name: st.calls - before.get(name, 0)
                                 for name, st in tracer.stats.items()
                                 if st.calls != before.get(name, 0)})
            if k < len(reference):
                traced_s += latency
    finally:
        tracer.close()
    probe["tracing.overhead_frac"] = traced_s / untraced_s - 1.0

    checks = Checks(workload.checks)
    failed = sum(not workload.check(op, rcs, reports, checks) for op, rcs, reports in outputs)
    attempted = len(outputs)
    if workload.run_checks is not None:
        attempted += 1
        failed += not workload.run_checks(inputs.ops[0], checks)
    metrics = {name: (float(fn(tracer, probe)), unit) for name, unit, fn in PER_LAYER}
    trace = tracer.export()
    trace["per_op_calls"] = per_op_calls  # call counts of each traced op, in input order
    return metrics, trace, checks, attempted, failed


# ---------------------------------------------------------------------------
# metadata and entry point
# ---------------------------------------------------------------------------

def metadata(allowed_cpus):
    import numpy
    import scipy

    digest = hashlib.sha256()
    lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30)
            commit = out.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "nproc": len(allowed_cpus),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "machine": platform.machine(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("design", "mc-wide", "mc-long", "certify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    # pin BLAS to one thread before numpy loads: the process then runs at most
    # the simulator's two worker threads, within nproc
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    try:
        cli = import_sdstab()
    except MissingSource as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    allowed = sorted(os.sched_getaffinity(0))
    if workload.threads == 1:
        # the vCPUs of a shared host can differ in speed for minutes at a time and
        # an unpinned one-thread run lands on either, so such runs stay on one
        # CPU; mc-wide needs both for its workers (its setup children are pinned)
        os.sched_setaffinity(0, {allowed[0]})
    (STATE / "tmp").mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(STATE / "tmp")
    if args.setup_only:
        return setup_only(args)
    setup_times = [] if args.trace else measure_setup(args, allowed[0])
    workdir = Path(tempfile.mkdtemp())
    try:
        inputs = workload.build(args.seed, workdir, args.smoke)
        if args.trace:
            layer, trace, checks, attempted, failed = traced_run(args, cli, workload, inputs)
            metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
            details = {}
        else:
            e2e, details, checks, attempted, failed = timed_run(args, cli, workload, inputs)
            e2e["setup_s"] = statistics.median(setup_times)
            e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
            details["setup_samples_s"] = setup_times
            trace = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    meta = metadata(allowed)
    check_summary = {n: {"runs": checks.runs[n], "failures": checks.failures[n]} for n in checks.names}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "meta": meta, "checks": check_summary,
              "details": details, "result": result, "trace_data": trace}
    out_dir = STATE / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print("meta " + json.dumps(meta))
    print("checks " + json.dumps(check_summary))
    if details:
        print("details " + json.dumps(details))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
