"""Acceptance gate: one test per criterion, each printed as a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import json
import math
import time

import numpy as np
import pytest

from sdstab.bounds import (
    EmulationConstants,
    TwoFunctionConstants,
    dta_bound,
    dta_map,
    emulation_bound_single,
    emulation_bound_two,
    single_v_curve,
    single_v_stationarity,
    two_v_curve,
)
from sdstab.cli import main as cli_main
from sdstab.design import DesignOptions, synthesize_feedback
from sdstab.models import LinearSampledModel, SamplingSchedule, load_model
from sdstab.numerics import pencil_max_eig
from sdstab.sim import (
    SimConfig,
    estimate_as_exponent,
    estimate_ms_decay,
    run_ensemble,
)

from oracles import jacobi_eigh, single_v_grid_oracle

FX = "tests/fixtures"

TWO_V_REGRESSIONS = [
    ("analysis-1", (4.3957, 241.9335, 1.2491, 60.5024), 0.0116),
    ("analysis-2", (4.4352, 6.5438, 57.5429, 61.6297), 0.0102),
    ("design-1", (3.6536, 4.2422, 26.2456, 26.7130), 0.0235),
    ("planar", (3.4369, 0.1507, 137.2912, 142.0755), 0.0175),
]


def test_criterion_1_bound_regression(tmp_path):
    t0 = time.perf_counter()
    for name, (a, ab, g1, g2), expected in TWO_V_REGRESSIONS:
        out = tmp_path / f"{name}.json"
        code = cli_main([
            "bound", "--two-v", "--alpha", str(a), "--alpha-b", str(ab),
            "--gamma1", str(g1), "--gamma2", str(g2), "--out", str(out),
        ])
        assert code == 0
        tau = json.loads(out.read_text())["results"]["tau_max"]
        assert tau == pytest.approx(expected, abs=1e-4), name
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1: PASS — two-v bound reproduces 0.0116/0.0102/0.0235/0.0175 "
          f"within 1e-4 in {elapsed:.2f}s")


CERT_PAIRS = [
    (f"{FX}/ex1_sub1.json", f"{FX}/cert_ex1_sub1_analysis.json"),
    (f"{FX}/ex1_sub2.json", f"{FX}/cert_ex1_sub2_analysis.json"),
    (f"{FX}/ex1_sub1_control.json", f"{FX}/cert_ex1_sub1_design.json"),
    (f"{FX}/planar.json", f"{FX}/cert_planar.json"),
]


def test_criterion_2_certificate_verification(tmp_path):
    for model_path, cert_path in CERT_PAIRS:
        assert cli_main(["verify", "--model", model_path, "--cert", cert_path,
                         "--tol", "1e-2"]) == 0, cert_path
        doc = json.loads(open(cert_path).read())
        doc["alpha_bar"] *= 1.5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert cli_main(["verify", "--model", model_path, "--cert", str(bad),
                         "--tol", "1e-2"]) == 1, cert_path
    print("\nACCEPTANCE 2: PASS — all four reported certificates verify at 1e-2 "
          "relative; +50% rate flips each to FAIL")


def test_criterion_3_kkt_vs_grid_oracle():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        a, ab, af = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=3))
        c = EmulationConstants(a, ab, af)
        res = emulation_bound_single(c)
        assert abs(single_v_stationarity(res.q_star, c)) <= 1e-9
        tau_grid = single_v_grid_oracle(a, ab, af)[0]
        rel = abs(res.tau_max - tau_grid) / tau_grid
        worst = max(worst, rel)
        assert rel <= 0.01, (a, ab, af, rel)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 3: PASS — closed form within 1% of the grid oracle on 50 "
          f"random triples (worst {worst:.2e}), residuals <= 1e-9, {elapsed:.1f}s")


def test_criterion_4_discrete_design_equivalence():
    rng = np.random.default_rng(202)
    for _ in range(100):
        alpha, alpha_u = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=2))
        theta = rng.uniform(0.05, 0.95)
        h = theta * min(2 * alpha / alpha_u, 1 / (2 * alpha))
        c_bar = (2 * alpha - alpha_u * h) * h
        assert 0.0 < c_bar < 1.0
        assert abs(dta_map(c_bar, h, alpha_u) - alpha) <= 1e-12 * max(1.0, alpha)
        ab, af = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=2))
        via_dta = dta_bound(c_bar, h, alpha_u, ab, af)
        direct = emulation_bound_single(EmulationConstants(alpha, ab, af))
        assert abs(via_dta.tau_max - direct.tau_max) <= 1e-10 * max(1.0, direct.tau_max)
    print("\nACCEPTANCE 4: PASS — rate map round-trips to 1e-12 and the discrete-design "
          "bound equals the single-V bound to 1e-10 on 100 random draws")


PRIOR_BOUND = 0.0074


@pytest.mark.parametrize("fixture", ["ex1_sub1_control", "ex1_sub2_control"])
def test_criterion_5_synthesis_quality(fixture):
    model = load_model(f"{FX}/{fixture}.json")
    t0 = time.perf_counter()
    result = synthesize_feedback(model, DesignOptions())
    elapsed = time.perf_counter() - t0
    gain_norm = float(np.linalg.norm(result.gain))
    assert result.bound.tau_max >= 0.02
    assert gain_norm <= 10.0
    assert result.bound.tau_max > PRIOR_BOUND
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 5 ({fixture}): PASS — tau_max={result.bound.tau_max:.4f} "
          f">= 0.02, |K|={gain_norm:.3f} <= 10, beats {PRIOR_BOUND}, {elapsed:.0f}s")


def test_criterion_6_simulation_decay():
    t0 = time.perf_counter()
    gains = {
        "ex1_sub1": np.array([[-5.5085, -0.1520]]),
        "ex1_sub2": np.array([[0.1738, -5.5639]]),
    }
    for name, gain in gains.items():
        model = load_model(f"{FX}/{name}_control.json").with_gain(gain)
        cfg = SimConfig(
            schedule=SamplingSchedule.periodic(0.0234), horizon=5.0,
            dt_sim=0.00234, n_paths=200, seed=7, store_stride=10,
        )
        ens = run_ensemble(model, cfg, workers=2)
        assert ens.n_diverged == 0
        decay = estimate_ms_decay(ens)
        assert decay.rate < 0.0, name
        assert decay.r_squared >= 0.9, name
    planar = load_model(f"{FX}/planar.json").with_gain(np.array([[-27.5776, -8.2817]]))
    cfg = SimConfig(
        schedule=SamplingSchedule.periodic(0.0174), horizon=5.0,
        dt_sim=0.00174, n_paths=1, seed=0, store_stride=50,
    )
    path = run_ensemble(planar, cfg).states[0]
    terminal = float(np.linalg.norm(path[-1]))
    assert terminal < 1e-2
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 6: PASS — both closed loops decay in mean square "
          f"(r^2 >= 0.9); planar loop reaches |x(5)|={terminal:.2e} < 1e-2; {elapsed:.0f}s")


def test_criterion_7_estimator_calibration():
    # geometric Brownian motion, a = 1, sigma = 2
    gbm = LinearSampledModel(
        name="gbm", n=1, A=np.array([[1.0]]), diffusion=(np.array([[2.0]]),),
        B_bar_explicit=np.zeros((1, 1)), x0=np.array([1.0]),
    )
    cfg = SimConfig(schedule=SamplingSchedule.periodic(0.3), horizon=0.3,
                    dt_sim=1e-3, n_paths=10_000, seed=11, store_stride=10)
    rate = estimate_ms_decay(run_ensemble(gbm, cfg, workers=2), window=(0.05, 0.3)).rate
    assert rate == pytest.approx(6.0, rel=0.10)  # 2a + sigma^2

    cfg = SimConfig(schedule=SamplingSchedule.periodic(1.0), horizon=1.0,
                    dt_sim=1e-3, n_paths=10_000, seed=12, store_stride=1000)
    expo = estimate_as_exponent(run_ensemble(gbm, cfg, workers=2)).median
    assert expo == pytest.approx(-1.0, rel=0.10)  # a - sigma^2 / 2

    # EM weak-error halving ladder on a milder linear SDE (a=1, sigma=0.2)
    lin = LinearSampledModel(
        name="lin", n=1, A=np.array([[1.0]]), diffusion=(np.array([[0.2]]),),
        B_bar_explicit=np.zeros((1, 1)), x0=np.array([1.0]),
    )
    errors = []
    for dt in (0.1, 0.05, 0.025, 0.0125):
        cfg = SimConfig(schedule=SamplingSchedule.periodic(1.0), horizon=1.0,
                        dt_sim=dt, n_paths=100_000, seed=31, store_stride=10**9)
        ens = run_ensemble(lin, cfg, workers=4)
        errors.append(abs(float(ens.states[:, -1, 0].mean()) - math.e))
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    assert all(1.4 <= r <= 2.6 for r in ratios), (errors, ratios)
    print(f"\nACCEPTANCE 7: PASS — GBM moment rate {rate:.2f}~6, pathwise exponent "
          f"{expo:.2f}~-1 at 1e4 paths; EM error halving ratios "
          f"{['%.2f' % r for r in ratios]}")


def test_criterion_8_property_suites(rng):
    # bounds: maximality on a 1e4-point grid, brackets, monotonicity sweeps
    c1 = EmulationConstants(1.3, 0.8, 2.1)
    r1 = emulation_bound_single(c1)
    qs = np.exp(np.linspace(np.log(1e-8), np.log(1 - 1e-9), 10_000))
    assert r1.tau_max >= max(single_v_curve(float(q), c1, r1.q_star) for q in qs) * (1 - 1e-12)
    assert 0 < r1.q_star < 1 / math.e
    c2 = TwoFunctionConstants(4.0, 3.0, 2.0, 5.0)
    r2 = emulation_bound_two(c2)
    assert r2.tau_max >= max(two_v_curve(float(q), c2) for q in qs) * (1 - 1e-12)
    assert 0 < r2.q_star < 1 / math.e
    taus_ab = [emulation_bound_single(EmulationConstants(1.0, ab, 1.0)).tau_max
               for ab in (0.5, 1.0, 2.0)]
    taus_af = [emulation_bound_single(EmulationConstants(1.0, 1.0, af)).tau_max
               for af in (0.5, 1.0, 2.0)]
    taus_a = [emulation_bound_single(EmulationConstants(a, 1.0, 1.0)).tau_max
              for a in (0.5, 1.0, 2.0)]
    assert taus_ab[0] > taus_ab[1] > taus_ab[2]
    assert taus_af[0] > taus_af[1] > taus_af[2]
    assert taus_a[0] < taus_a[1] < taus_a[2]

    # numerics: the Jacobi oracle's reconstruction, and joint-congruence invariance
    s = rng.normal(size=(5, 5))
    s = 0.5 * (s + s.T)
    w, v = jacobi_eigh(s)
    assert np.abs((v * w) @ v.T - s).max() <= 1e-10 * (1 + np.linalg.norm(s))
    a = rng.normal(size=(3, 3))
    a = 0.5 * (a + a.T)
    w = rng.normal(size=(3, 3))
    b = w @ w.T + 3 * np.eye(3)
    lam = pencil_max_eig(a, b)
    m = rng.normal(size=(3, 3)) + np.eye(3)
    assert pencil_max_eig(m.T @ a @ m, m.T @ b @ m) == pytest.approx(lam, rel=1e-7, abs=1e-7)

    # ensemble determinism across worker counts
    model = load_model(f"{FX}/ex1_sub1.json")
    cfg = SimConfig(schedule=SamplingSchedule.periodic(0.0234), horizon=1.0,
                    dt_sim=0.00234, n_paths=12, seed=99, store_stride=5)
    ref = run_ensemble(model, cfg, workers=1)
    for workers in (2, 5):
        ens = run_ensemble(model, cfg, workers=workers)
        assert np.array_equal(np.nan_to_num(ref.states), np.nan_to_num(ens.states))
    print("\nACCEPTANCE 8: PASS — bound maximality/bracket/monotonicity, eigensolver "
          "reconstruction/congruence, and worker-count determinism all hold")
