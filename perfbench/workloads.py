"""Workload inputs, operations and output checks for the sdstab benchmark.

Every operation is one or more in-process calls to ``sdstab.cli.main(argv)``
with ``--out`` pointing at a JSON report that the benchmark reads back.  The
seed only shapes the generated input files and flags; the program sees
nothing else.

Why these workloads:
- design: synthesis is the slowest command users run; it drives design,
  bounds, numerics and the lmi GEVP/subgradient code and never calls sim.
- mc-wide: many short paths, so the fixed per-path cost of the simulator
  (generator setup, buffers, the worker pool) dominates.
- mc-long: few long paths, so per-step Python overhead in the integration loop
  dominates; a change that batches across paths is visible on both mc sides.
- certify: verify and bound calls, where lmi verification, the Jacobi
  eigensolver and the CLI itself are most of the time; they are under 1% of
  the other three workloads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

FIXTURES = Path(__file__).resolve().parent / "fixtures"

# reported two-function bounds of the fixture certificates (reference values)
FIXTURE_BOUNDS = {
    "cert_ex1_sub1_analysis": 0.0116,
    "cert_ex1_sub2_analysis": 0.0102,
    "cert_ex1_sub1_design": 0.0235,
    "cert_planar": 0.0175,
}
CERT_PAIRS = [
    ("ex1_sub1", "cert_ex1_sub1_analysis"),
    ("ex1_sub2", "cert_ex1_sub2_analysis"),
    ("ex1_sub1_control", "cert_ex1_sub1_design"),
    ("ex1_sub2_control", "cert_ex1_sub2_design"),
    ("planar", "cert_planar"),
]
# ex1_sub2_control is left out: it runs the same code as ex1_sub1_control at the
# same cost, and a third synthesis would stretch a run past a minute and a half
# on a 2-vCPU machine
DESIGN_PLANTS = ["ex1_sub1_control", "planar"]
A_PERTURBATION = 0.02      # relative, per entry of A, for seeds other than 0
SIM_CHUNK = 4096           # paths per simulator chunk, the unit run_ensemble gives a worker
BIT_CHECK_PATHS = 2 * SIM_CHUNK  # two chunks, so workers 2 really splits


@dataclass
class Op:
    """One closed-loop operation: CLI calls run back to back, plus what to expect."""

    argvs: list
    reports: list
    expect: dict = field(default_factory=dict)


@dataclass
class Inputs:
    ops: list
    min_ops: int  # a timed run completes at least this many ops


class Checks:
    """Named output checks; a failing check marks its operation failed."""

    def __init__(self, names):
        self.names = list(names)
        self.runs = {n: 0 for n in self.names}
        self.failures = {n: 0 for n in self.names}

    def check(self, name: str, ok: bool) -> bool:
        self.runs[name] += 1
        if not ok:
            self.failures[name] += 1
        return bool(ok)


def _load(name: str) -> dict:
    return json.loads((FIXTURES / f"{name}.json").read_text())


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# design
# ---------------------------------------------------------------------------

def build_design(seed: int, workdir: Path, smoke: bool) -> Inputs:
    """One linear and one planar plant; synthesis has no smaller size, so smoke is full size."""
    rng = np.random.default_rng(seed)
    ops = []
    for name in DESIGN_PLANTS:
        doc = _load(name)
        if seed != 0:
            a = np.asarray(doc["A"], dtype=float)
            doc["A"] = (a * (1.0 + rng.uniform(-A_PERTURBATION, A_PERTURBATION, a.shape))).tolist()
        model = _write(workdir / f"{name}.json", doc)
        report = str(workdir / f"design_{name}.json")
        ops.append(Op([["design", "--model", model, "--out", report]], [report],
                      {"plant": name, "linear": "nonlinearity" not in doc}))
    return Inputs(ops=ops, min_ops=len(ops))


def check_design(op: Op, rcs, reports, checks: Checks) -> bool:
    from sdstab.lmi import LmiCertificate, verify_certificate
    from sdstab.models import model_from_dict

    ok = checks.check("exit_code", rcs == [0])
    if not ok:
        return False
    res = reports[0]["results"]
    outcome = verify_certificate(
        model_from_dict(res["model"]), LmiCertificate.from_dict(res["certificate"]), tol=0.0
    )
    ok &= checks.check("reverify_strict", outcome.passed)
    if op.expect["linear"]:
        good = res["tau_max"] >= 0.02 and res["gain_norm"] <= 10.0
    else:
        good = res["tau_max"] >= 0.015
    ok &= checks.check("quality_floor", good)
    return ok


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def _simulate_op(workdir: Path, model: str, cert: str, schedule: str, horizon: float,
                 paths: int, workers: int, sim_seed: int) -> Op:
    model_path = _write(workdir / f"{model}.json", _load(model))
    cert_path = _write(workdir / f"{cert}.json", _load(cert))
    report = str(workdir / "simulate.json")
    argv = ["simulate", "--model", model_path, "--cert", cert_path, "--schedule", schedule,
            "--horizon", repr(horizon), "--paths", str(paths), "--workers", str(workers),
            "--seed", str(sim_seed)]
    return Op([argv + ["--out", report]], [report],
              {"model": model_path, "cert": cert_path, "schedule": schedule,
               "horizon": horizon, "paths": paths, "workers": workers, "seed": sim_seed})


def build_mc_wide(seed: int, workdir: Path, smoke: bool) -> Inputs:
    # certified sub1 design loop (tau 0.0235); the largest gap stays below tau
    op = _simulate_op(workdir, "ex1_sub1_control", "cert_ex1_sub1_design",
                      "uniform:0.01,0.02", 0.05 if smoke else 0.1,
                      BIT_CHECK_PATHS if smoke else 100_000, 2, seed)
    return Inputs(ops=[op], min_ops=1)


def build_mc_long(seed: int, workdir: Path, smoke: bool) -> Inputs:
    # certified planar loop (tau 0.0175) with random gaps; dt_sim = 0.0005
    op = _simulate_op(workdir, "planar", "cert_planar", "uniform:0.005,0.015",
                      2.0 if smoke else 20.0, 8 if smoke else 128, 1, seed)
    return Inputs(ops=[op], min_ops=1)


def check_simulate(op: Op, rcs, reports, checks: Checks) -> bool:
    ok = checks.check("exit_code", rcs == [0])
    if not ok:
        return False
    res = reports[0]["results"]
    ok &= checks.check("no_divergence", res["n_diverged"] == 0)
    decay = res["ms_decay"]
    ok &= checks.check("ms_decay_negative", decay is not None and decay["rate"] < 0.0)
    return ok


def resolved_model(expect: dict):
    """The closed-loop model a simulate op runs, resolved as the CLI does."""
    from sdstab.lmi import load_certificate
    from sdstab.models import load_model

    model = load_model(expect["model"])
    cert = load_certificate(expect["cert"])
    if cert.K_hat is not None:
        return model.with_gain(cert.K_hat)
    return model.with_gain(cert.Y @ np.linalg.inv(cert.Q))


def sim_config(expect: dict, horizon: Optional[float] = None, paths: Optional[int] = None):
    from sdstab.models import SamplingSchedule
    from sdstab.sim import SimConfig

    schedule = SamplingSchedule.parse(expect["schedule"])
    return SimConfig(schedule=schedule, horizon=horizon or expect["horizon"],
                     dt_sim=schedule.underline_dt / 10.0,
                     n_paths=paths or expect["paths"], seed=expect["seed"])


def check_workers_bit_identical(op: Op, checks: Checks) -> bool:
    """A fixed subset of the paths is bit-identical at workers 1 and 2."""
    from sdstab.sim import run_ensemble

    model = resolved_model(op.expect)
    cfg = sim_config(op.expect, paths=BIT_CHECK_PATHS)
    one = run_ensemble(model, cfg, workers=1)
    two = run_ensemble(model, cfg, workers=2)
    same = (one.states.tobytes() == two.states.tobytes()
            and one.alive.tobytes() == two.alive.tobytes()
            and one.diverged_at.tobytes() == two.diverged_at.tobytes())
    return checks.check("workers_bit_identical", same)


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def build_certify(seed: int, workdir: Path, smoke: bool) -> Inputs:
    """Fixture certificates plus variants with alpha_bar scaled down (PASS) or up (FAIL)."""
    rng = np.random.default_rng(seed)
    n_pass, n_fail = (1, 1) if smoke else (6, 3)
    ops = []
    for model_name, cert_name in CERT_PAIRS:
        model = _write(workdir / f"{model_name}.json", _load(model_name))
        base = _load(cert_name)
        scales = [1.0] + list(rng.uniform(0.5, 1.0, n_pass)) + list(rng.uniform(1.5, 2.0, n_fail))
        for k, scale in enumerate(scales):
            doc = dict(base, alpha_bar=base["alpha_bar"] * float(scale))
            cert = _write(workdir / f"{cert_name}_{k}.json", doc)
            verify_out = str(workdir / "verify.json")
            bound_out = str(workdir / "bound.json")
            constants = ["--alpha", repr(doc["alpha_bar"]), "--alpha-b", repr(doc["alpha_b"]),
                         "--gamma1", repr(doc["gamma1"]), "--gamma2", repr(doc["gamma2"])]
            ops.append(Op(
                [["verify", "--model", model, "--cert", cert, "--out", verify_out],
                 ["bound", "--two-v", *constants, "--out", bound_out]],
                [verify_out, bound_out],
                {"cert": cert_name, "scale": float(scale), "passes": scale <= 1.0,
                 "reference": FIXTURE_BOUNDS.get(cert_name) if k == 0 else None},
            ))
    return Inputs(ops=ops, min_ops=1)


def check_certify(op: Op, rcs, reports, checks: Checks) -> bool:
    verify, bound = reports
    passes = op.expect["passes"]
    ok = checks.check("verify_verdict", rcs[0] == (0 if passes else 1)
                      and verify is not None and verify["results"]["passed"] == passes)
    ok &= checks.check("bound_exit_code", rcs[1] == 0 and bound is not None)
    if not ok:
        return False
    tau = bound["results"]["tau_max"]
    if op.expect["reference"] is not None:
        ok &= checks.check("fixture_bound", abs(tau - op.expect["reference"]) <= 1e-4)
    if passes:
        tau_verify = verify["results"]["tau_max"]
        ok &= checks.check("bound_verify_agree",
                           tau_verify is not None and math.isclose(tau, tau_verify, rel_tol=1e-9))
    return ok


@dataclass
class Workload:
    name: str
    build: Callable
    check: Callable
    checks: tuple
    run_checks: Optional[Callable] = None   # once per run, on the first op
    threads: int = 1                        # threads an op computes on


WORKLOADS = {
    "design": Workload("design", build_design, check_design,
                       ("exit_code", "reverify_strict", "quality_floor")),
    "mc-wide": Workload("mc-wide", build_mc_wide, check_simulate,
                        ("exit_code", "no_divergence", "ms_decay_negative",
                         "workers_bit_identical"),
                        run_checks=check_workers_bit_identical, threads=2),
    "mc-long": Workload("mc-long", build_mc_long, check_simulate,
                        ("exit_code", "no_divergence", "ms_decay_negative")),
    "certify": Workload("certify", build_certify, check_certify,
                        ("verify_verdict", "bound_exit_code", "fixture_bound",
                         "bound_verify_agree")),
}
