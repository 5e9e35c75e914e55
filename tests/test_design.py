import importlib.util
import pathlib
import sys

import numpy as np
import pytest

from sdstab.bounds import emulation_bound_two
from sdstab.design import (
    _GAIN_CAP,
    _GAMMA_SCAN,
    DesignOptions,
    _best_gamma_pair,
    _gamma1_at,
    _nelder_mead,
    _schur_terms,
    extract_alpha_b,
    ito_generator,
    solve_rate_lyapunov,
    synthesize_feedback,
)
from sdstab.errors import InfeasibleError, ValidationError
from sdstab.lmi import load_certificate, run_gain, verify_certificate
from sdstab.models import SampledModel, load_model

from oracles import bisect, planar_rate_block, rate_lyapunov_basis, sphere_ratio_max

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def random_spd(rng, n, shift=1.0):
    m = rng.normal(size=(n, n))
    return m @ m.T + shift * np.eye(n)


def random_stable_loop(rng, n=2):
    """(F, B_bar): a random feedback term and a closed loop F = A + B_bar with spectral abscissa -1."""
    b_bar = rng.normal(size=(n, n))
    a = rng.normal(size=(n, n))
    return a - (np.linalg.eigvals(a + b_bar).real.max() + 1.0) * np.eye(n) + b_bar, b_bar


class TestExtractAlphaB:
    def test_zero_feedback(self):
        assert extract_alpha_b(np.eye(2), np.eye(2), np.zeros((2, 2))) == 0.0

    def test_axis_feedback(self):
        assert extract_alpha_b(np.eye(2), np.eye(2), np.diag([-10.0, 0.0])) == pytest.approx(100.0)

    def test_sphere_oracle(self, rng):
        p, pt = random_spd(rng, 3), random_spd(rng, 3)
        b = rng.normal(size=(3, 3))
        val = extract_alpha_b(p, pt, b)
        oracle = sphere_ratio_max(b.T @ p @ b, pt, 3)
        assert oracle <= val * (1 + 1e-9)
        assert val == pytest.approx(oracle, rel=1e-3)

    def test_minimality(self, rng):
        p, pt = random_spd(rng, 2), random_spd(rng, 2)
        b = rng.normal(size=(2, 2))
        val = extract_alpha_b(p, pt, b)
        shaved = val - 1e-6
        # some direction violates the shaved constant
        oracle = sphere_ratio_max(b.T @ p @ b, pt, 2, n_dirs=20_000)
        assert oracle > shaved


class TestFitGamma:
    def test_reported_certificate_dominated(self, fixtures):
        # with the reported P, P_tilde the fitted pair must do at least as
        # well as the reported bound (the reported pair is in the scan box)
        model = load_model(fixtures / "ex1_sub1.json")
        cert = load_certificate(fixtures / "cert_ex1_sub1_analysis.json")
        b_bar = model.B_bar
        g1, g2, tau_scan = _best_gamma_pair(model.A + b_bar, model.diffusion, b_bar, cert.P, cert.P_tilde,
                                            cert.alpha_bar, cert.alpha_b, _GAMMA_SCAN)
        from sdstab.bounds import TwoFunctionConstants
        tau = emulation_bound_two(
            TwoFunctionConstants(cert.alpha_bar, cert.alpha_b, g1, g2)
        ).tau_max
        assert tau >= 0.0116 - 1e-4
        assert tau_scan == pytest.approx(tau, rel=1e-12)
        # the returned pair is feasible
        import dataclasses
        refit = dataclasses.replace(cert, gamma1=g1, gamma2=g2)
        out = verify_certificate(model, refit, tol=0.0)
        assert out.margins["cross"] <= 0.0

    def test_zero_feedback_feasible_at_gamma2_of_two(self):
        # at B = 0 the proof-chain cap on gamma2 degenerates to exactly 2;
        # the cross block is feasible there with the Schur-minimal gamma1
        from sdstab.lmi import assemble_cross_block
        from sdstab.numerics import lam_max

        f = -np.eye(2) * 2.0
        p = np.eye(2)
        g1 = _gamma1_at(_schur_terms(f, (), np.zeros((2, 2)), p, p)[1:], 2.0)
        assert g1 is not None and g1 == pytest.approx(2.0, rel=1e-9)
        block = assemble_cross_block(f, (), np.zeros((2, 2)), p, p, g1 * (1 + 1e-9), 2.0)
        assert lam_max(block) <= 1e-12

    def test_batched_gamma1_matches_bisection_oracle(self, rng):
        # the stacked Schur/pencil gamma1 against plain bisection on the full
        # cross block, at gamma2 on both sides of the Schur corner's floor
        from sdstab.lmi import assemble_cross_block
        from sdstab.numerics import lam_max

        for _ in range(3):
            f, b_bar = random_stable_loop(rng)
            g_list = [0.3 * rng.normal(size=(2, 2)) for _ in range(2)]
            p, pt = random_spd(rng, 2), random_spd(rng, 2, shift=0.5)
            # S = B^T Pt + Pt B + g2 Pt > 0 exactly when g2 exceeds this floor
            floor = np.linalg.eigvals(np.linalg.solve(pt, -(b_bar.T @ pt + pt @ b_bar))).real.max()
            offsets = np.geomspace(1e-3, 10.0, 20) * max(1.0, abs(floor))
            g2 = np.concatenate([floor - offsets[::-1], floor + offsets])
            got = _gamma1_at(_schur_terms(f, g_list, b_bar, p, pt)[1:], g2)
            assert got.shape == g2.shape
            for g2_i, g1_i in zip(g2, got):
                def top(log_g1):
                    return lam_max(assemble_cross_block(f, g_list, b_bar, p, pt, np.exp(log_g1), g2_i))

                if top(np.log(1e8)) >= 0.0:  # no gamma1 makes the block negative definite
                    assert g2_i < floor and np.isnan(g1_i)
                    continue
                assert g2_i > floor
                oracle = np.exp(bisect(top, np.log(1e-6), np.log(1e8), iters=60))
                assert g1_i == pytest.approx(oracle, rel=1e-8)

    def test_adversarial_infeasible(self):
        # unstable uncontrolled pair: the required gamma1 outgrows any
        # gamma2 the box offers, so the scan exhausts
        f, b_bar = 100.0 * np.eye(2), np.zeros((2, 2))
        with pytest.raises(InfeasibleError):
            _best_gamma_pair(f, (), b_bar, np.eye(2), np.eye(2), 1.0, 1.0, (1e-4, 0.5))

    def test_gamma2_floor_outside_box(self):
        # positive feedback pushes the gamma2 feasibility floor above the box
        f, b_bar = -2.0 * np.eye(2), -np.eye(2)  # A = -I plus the feedback
        with pytest.raises(InfeasibleError):
            _best_gamma_pair(f, (), b_bar, np.eye(2), np.eye(2), 1.0, 1.0, (1e-4, 1.0))


def _per_point_scan(f, g_list, b_bar, p, pt, alpha_bar, alpha_b, scan,
                    lhs_extra=None, shift22=0.0, coarse=120, refine_rounds=3):
    """The gamma2 scan one point at a time, kept as the batched scan's reference.

    lhs_extra and shift22 add to the corner Schur complement and shift its
    gamma2, the planar cross block as the paper writes it (weight c:
    lhs_extra = E1^T Pt E1 / c, shift22 = c)."""
    from sdstab.bounds import TwoFunctionConstants
    from sdstab.design import _INFLATE, _TINY
    from sdstab.numerics import pencil_max_eig

    lo, hi = scan
    bp = b_bar.T @ pt + pt @ b_bar
    start = max(lo, (shift22 + pencil_max_eig(-bp, pt)) * (1 + 1e-9) + _TINY, _TINY)
    best = None
    grid = np.exp(np.linspace(np.log(start), np.log(hi), coarse))
    for _ in range(refine_rounds + 1):
        for g2 in grid:
            s = bp + (g2 - shift22) * pt
            s = 0.5 * (s + s.T)
            if np.linalg.eigvalsh(s)[0] <= 0.0:
                continue
            lhs = f.T @ pt @ np.linalg.solve(s, pt @ f)
            for g in g_list:
                lhs = lhs + g.T @ pt @ g
            if lhs_extra is not None:
                lhs = lhs + lhs_extra
            g1 = max(pencil_max_eig(lhs, p) * (1 + _INFLATE), _TINY, lo)
            if g1 > hi:
                continue
            tau = emulation_bound_two(TwoFunctionConstants(alpha_bar, alpha_b, g1, g2)).tau_max
            if best is None or tau > best[2]:
                best = (g1, float(g2), tau)
        step = grid[1] / grid[0]
        grid = np.exp(np.linspace(np.log(max(best[1] / step**2, start)),
                                  np.log(min(best[1] * step**2, hi)), 25))
    return best


class TestBatchedScan:
    @pytest.mark.parametrize("planar", [False, True])
    def test_matches_per_point_scan(self, rng, planar):
        # same grids, refine rule, inflation, clamp and first-max choice
        if planar:
            return self.check_planar_cells(rng)
        for _ in range(4):
            f, b_bar = random_stable_loop(rng)
            g_list = [0.3 * rng.normal(size=(2, 2))]
            p, pt = random_spd(rng, 2), random_spd(rng, 2, shift=0.5)
            args = (f, g_list, b_bar, p, pt, 1.5, 0.7, (1e-4, 1e6))
            assert _best_gamma_pair(*args) == pytest.approx(_per_point_scan(*args), rel=1e-12)

    @staticmethod
    def check_planar_cells(rng):
        # the planar design's scan: one stack of (P_tilde, c) cells, each cell's cross
        # block the linear one with diffusion E1/sqrt(c) and feedback B_bar - (c/2) I,
        # against the per-point scan of the paper's form (E1^T Pt E1 / c added, gamma2 shifted by c)
        cells = 6
        f, b_bar = random_stable_loop(rng)
        e1, p = rng.normal(size=(2, 2)), random_spd(rng, 2)
        pt = np.array([random_spd(rng, 2, shift=0.5) for _ in range(cells)])
        c = np.exp(rng.uniform(np.log(0.1), np.log(1e3), cells))
        alpha_b = rng.uniform(0.3, 2.0, cells)
        got = _best_gamma_pair(
            f, [e1 / np.sqrt(c)[:, None, None]], b_bar - 0.5 * c[:, None, None] * np.eye(2), p, pt,
            1.5, alpha_b, (1e-4, 1e6), coarse=40, refine_rounds=1,
        )
        for i in range(cells):
            want = _per_point_scan(f, [], b_bar, p, pt[i], 1.5, alpha_b[i], (1e-4, 1e6),
                                   lhs_extra=e1.T @ pt[i] @ e1 / c[i], shift22=c[i], coarse=40, refine_rounds=1)
            assert [v[i] for v in got] == pytest.approx(want, rel=1e-12)


class TestRateLyapunov:
    def test_recovers_certificate(self, rng):
        f = -2.0 * np.eye(2) + 0.1 * rng.normal(size=(2, 2))
        g = 0.1 * rng.normal(size=(2, 2))
        p = solve_rate_lyapunov(f, [g], two_alpha=1.0, R=np.eye(2))
        res = f.T @ p + p @ f + g.T @ p @ g + 1.0 * p
        assert np.allclose(res, -np.eye(2), atol=1e-10)
        assert np.all(np.linalg.eigvalsh(p) > 0)

    def test_matches_symmetric_basis_solve(self, rng):
        # the generator solve against the hand-built basis solve, orders 2 and 3
        for n in (2, 2, 3, 3):
            f = rng.normal(size=(n, n)) - 2.0 * np.eye(n)
            gs = [0.3 * rng.normal(size=(n, n)) for _ in range(2)]
            r = random_spd(rng, n)
            got = solve_rate_lyapunov(f, gs, 0.7, r)
            want = rate_lyapunov_basis(f, gs, 0.7, r)
            assert np.array_equal(got, got.T)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


class TestItoGenerator:
    def test_rate_is_the_lyapunov_threshold(self, rng):
        # 2*alpha = -max Re eig(L) is exactly where the rate Lyapunov solve
        # stops being positive definite, on either side by one part in 1e6
        for _ in range(50):
            f, _ = random_stable_loop(rng)
            g = 0.3 * rng.normal(size=(2, 2))
            two_alpha = -np.linalg.eigvals(ito_generator(f, [g])).real.max()
            assert two_alpha > 0.0
            below = rate_lyapunov_basis(f, [g], two_alpha * (1 - 1e-6), np.eye(2))
            above = rate_lyapunov_basis(f, [g], two_alpha * (1 + 1e-6), np.eye(2))
            assert np.linalg.eigvalsh(below)[0] > 0.0
            assert np.linalg.eigvalsh(above)[0] < 0.0


@pytest.fixture(scope="module")
def linear_designs():
    models = [load_model(FIXTURES / f"{name}.json") for name in ("ex1_sub1_control", "ex1_sub2_control")]
    return [(model, synthesize_feedback(model)) for model in models]


class TestExactRateDesign:
    def test_coordinate_swap_gives_the_same_design(self, linear_designs):
        # sub2 is sub1 with its two coordinates swapped
        (_, r1), (_, r2) = linear_designs
        assert r2.trace["two_alpha_max"] == pytest.approx(r1.trace["two_alpha_max"], rel=1e-9)
        assert r2.bound.tau_max == pytest.approx(r1.bound.tau_max, rel=1e-4)

    def test_quality_and_strict_reverification(self, linear_designs):
        for model, res in linear_designs:
            assert res.bound.tau_max >= 0.0241500045  # what a local Nelder-Mead refinement reached
            assert np.linalg.norm(res.gain) <= 10.0
            outcome = verify_certificate(model, res.certificate, tol=0.0)
            assert outcome.passed and outcome.margins["rate"] <= -1e-9  # the scorer's rate_check rule

    def test_cyber_certificate_scale_leaves_tau_unchanged(self, linear_designs):
        # P_tilde = c P scales alpha_b by 1/c and gamma1 by c (a congruence of
        # the cross block) and leaves gamma2 alone, so the bound, which reads
        # only alpha_b gamma1 and gamma2, cannot depend on c
        from sdstab.bounds import TwoFunctionConstants
        from sdstab.lmi import LmiCertificate

        model, res = linear_designs[0]
        cert, k = res.certificate, res.constants
        for c in (1e-2, 1.0, 1e2):
            scaled = LmiCertificate(
                alpha_bar=k.alpha_bar, P=cert.P, P_tilde=c * cert.P,
                alpha_b=k.alpha_b / c, gamma1=c * k.gamma1, gamma2=k.gamma2, K_hat=res.gain,
            )
            assert verify_certificate(model, scaled, tol=0.0).passed
            tau = emulation_bound_two(TwoFunctionConstants(k.alpha_bar, k.alpha_b / c, c * k.gamma1, k.gamma2))
            assert tau.tau_max == pytest.approx(res.bound.tau_max, rel=1e-12)

    def test_fallback_certificate_at_unit_scale(self, monkeypatch):
        # with no refined point, the design falls back to the R = I Lyapunov
        # solve at K*, whose P is rescaled to trace n like the refined one
        import sdstab.design as design

        monkeypatch.setattr(design, "_refine_gain", lambda *args: None)
        model = load_model(FIXTURES / "ex1_sub1_control.json")
        res = synthesize_feedback(model)
        cert = res.certificate
        assert res.trace["fallback"] == 1.0
        assert np.trace(cert.P) == pytest.approx(model.n, rel=1e-12)
        # the analysis form only: P_tilde = P and the gain, no (Q, Y, c_tilde)
        assert cert.P_tilde is cert.P and cert.K_hat is res.gain
        assert cert.Q is None and cert.Y is None and cert.c_tilde is None
        assert verify_certificate(model, cert, tol=0.0).passed

    def test_alpha_fraction_only_seeds_the_search(self):
        # a local search from alpha_fraction 0.3 stalled at tau 0.024114 on sub2,
        # below the 0.024150 it reached from 0.9
        model = load_model(FIXTURES / "ex1_sub2_control.json")
        res = synthesize_feedback(model, DesignOptions(alpha_fraction=0.3))
        assert res.bound.tau_max >= 0.02415
        assert np.linalg.norm(res.gain) <= 10.0
        assert verify_certificate(model, res.certificate, tol=0.0).passed

    def test_three_state_design(self):
        # a 3-state plant: every symmetric eigenvalue of its search is eigvalsh's own, not the 2x2
        # closed form; tau is the bit pattern the one-point-per-call search designed
        model = SampledModel(
            name="three", n=3, A=np.array([[1.0, -1.0, 0.2], [1.0, -5.0, 0.0], [0.0, 0.5, -1.0]]),
            diffusion=(np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 0.3]]),),
            B_hat=np.array([[1.0], [0.0], [0.0]]),
        )
        res = synthesize_feedback(model)
        assert verify_certificate(model, res.certificate, tol=0.0).passed
        assert res.bound.tau_max == 0.01015665966567561

    def test_alpha_fraction_outside_unit_interval_rejected(self):
        for bad in (0.0, 1.0, 1.5, float("nan")):
            with pytest.raises(ValidationError):
                DesignOptions(alpha_fraction=bad)


def _rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def _kinked(x):  # nonsmooth, with plateaus that make the simplex shrink
    return float(np.max(np.abs(x - 0.3)) + np.floor(4.0 * np.abs(x[0])) + 0.1 * np.abs(x).sum())


class TestNelderMead:
    """_nelder_mead against scipy.optimize.minimize(method="Nelder-Mead"), bit for bit."""

    @staticmethod
    def _pair(f, x0, simplex, maxfev, xatol=1e-10, fatol=1e-13):
        from scipy.optimize import minimize

        stacks = []

        def values(points):
            stacks.append(len(points))
            return np.array([f(p) for p in points])

        x, fun, nfev = _nelder_mead(values, x0 if simplex is None else simplex, maxfev, xatol, fatol)
        ref = minimize(f, x0, method="Nelder-Mead",
                       options={"initial_simplex": simplex, "maxfev": maxfev, "xatol": xatol, "fatol": fatol})
        assert x.tobytes() == ref.x.tobytes()
        assert np.float64(fun).tobytes() == np.float64(ref.fun).tobytes()
        assert nfev == ref.nfev
        return stacks

    @pytest.mark.parametrize("f", [_rosenbrock, _kinked], ids=["smooth", "nonsmooth"])
    def test_given_and_default_simplex(self, f, rng):
        for n in (1, 2, 3, 5):
            x0 = rng.normal(size=n)
            x0[0] = 0.0  # the default simplex steps a zero coordinate by 0.00025, others by 5%
            self._pair(f, x0, None, 2000)
            self._pair(f, x0, np.vstack([x0, x0 + np.diag(rng.uniform(0.1, 2.0, n))]), 2000, 1e-6, 1e-8)

    @pytest.mark.parametrize("f", [_rosenbrock, _kinked], ids=["smooth", "nonsmooth"])
    def test_every_maxfev_cut(self, f):
        # every budget from 1 to 120 evaluations: cuts in the first simplex, after a reflection
        # (before its expansion or contraction) and inside a shrink, where one vertex more moves
        # than is scored
        x0 = np.array([-1.2, 1.0, 0.5])
        simplex = np.vstack([x0, x0 + np.diag([0.5, 0.5, 0.5])])
        sizes = set()
        for maxfev in range(1, 121):
            sizes |= set(self._pair(f, x0, simplex, maxfev))
        if f is _kinked:
            assert {1, 2, 3} <= sizes  # shrinks of 3 vertices, and shrinks cut after 1 and 2
        assert 4 in sizes  # the four probes of an iteration, one stack


def _scalar_scores(model, k_hat, r_mat, alpha_bar):
    """(reason or None, tau, P) per row, one scalar scorer call each, as the design called it."""
    from collections import Counter

    from oracles import bound_for_gain

    out = []
    for k, r, a in zip(k_hat, r_mat, alpha_bar):
        rejected = Counter()
        if np.linalg.norm(k) > _GAIN_CAP:
            out.append(("gain_cap", -np.inf, None))
        elif not np.isfinite(r).all():  # a residual shape with a vanishing pivot
            out.append(("singular_solve", -np.inf, None))
        elif (res := bound_for_gain(model, k, r, a, rejected)) is None:
            out.append((next(iter(rejected)), -np.inf, None))
        else:
            out.append((None, res[0], res[1]))
    return out


class TestStackedScorer:
    # one model on which some row meets each rejection reason: B_hat = 2^20 I
    # makes the gain's scaling exact, and the nilpotent diffusion makes the
    # shifted operator exactly singular when A + B_hat K = -alpha_bar I
    SCALE = 2.0**20
    MODEL = SampledModel(name="reasons", n=2, A=np.array([[-1.0, 0.5], [0.0, -2.0]]),
                               diffusion=(np.array([[0.0, 0.3], [0.0, 0.0]]),), B_hat=SCALE * np.eye(2))
    ROWS = [  # (reason, K, R, alpha_bar)
        (None, np.zeros((2, 2)), np.eye(2), 0.2),
        (None, np.array([[1e-7, -3e-7], [2e-7, 0.0]]), np.array([[2.0, 0.3], [0.3, 0.5]]), 0.3),
        (None, np.array([[-2e-6, 1e-6], [0.0, -1e-6]]), np.eye(2), 1.5),
        ("gain_cap", np.array([[8.0, 8.0], [0.0, 0.0]]), np.eye(2), 0.2),
        ("singular_solve", np.zeros((2, 2)), np.full((2, 2), np.nan), 0.2),
        ("singular_solve", np.array([[0.5, -0.5], [0.0, 1.5]]) / SCALE, np.eye(2), 0.5),
        ("singular_solve", np.zeros((2, 2)), np.eye(2), 5.0),  # alpha_bar above the rate: P indefinite
        ("rate_check", np.zeros((2, 2)), np.diag([1.0, 1e-12]), 0.2),
        ("gamma_box", -np.eye(2), np.eye(2), 0.2),
    ]

    def _check(self, model, k_hat, r_mat, alpha_bar):
        from collections import Counter

        from sdstab.design import _bound_for_gain

        rejected = Counter()
        tau, p = _bound_for_gain(model, k_hat, r_mat, alpha_bar, rejected)
        want = _scalar_scores(model, k_hat, r_mat, alpha_bar)
        assert rejected == Counter(reason for reason, _, _ in want if reason)
        for i, (reason, t, p_row) in enumerate(want):
            assert tau[i] == t  # bit for bit, -inf on a rejected row
            if reason is None:
                assert np.array_equal(p[i], p_row)
            else:
                assert np.isnan(p[i]).all()
        return want

    def test_rows_match_the_scalar_scorer_with_every_reason(self):
        model = self.MODEL
        reasons, k, r, a = (list(v) for v in zip(*self.ROWS))
        k, r, a = np.array(k), np.array(r), np.array(a)
        # the shifted operator of that row is exactly singular, so one solve over
        # the whole stack would raise; the scorer masks the row out first
        op = ito_generator(model.A + model.B_hat @ k[5], model.diffusion).T + 2 * a[5] * np.eye(4)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(op, np.ones(4))
        want = self._check(model, k, r, a)
        assert [reason for reason, _, _ in want] == reasons
        order = np.random.default_rng(3).permutation(np.tile(np.arange(len(a)), 3))
        self._check(model, k[order], r[order], a[order])
        for i in range(len(a)):  # stack size 1, the polish's
            self._check(model, k[i: i + 1], r[i: i + 1], a[i: i + 1])
        self._check(model, k[8:], r[8:], a[8:])  # no row of the stack has a feasible gamma pair

    def test_search_box_rows_match_the_scalar_scorer(self):
        # rows drawn from the refinement box on a fixture plant, at stack sizes 1 to 256
        from sdstab.design import _search_box, _unpack_points

        model = load_model(FIXTURES / "ex1_sub1_control.json")
        lo, hi = _search_box(model)
        rng = np.random.default_rng(5)
        z = lo + (hi - lo) * rng.random((256, len(lo)))
        z[::2, :2] = [-5.15, -0.03] + 0.5 * rng.normal(size=(128, 2))  # half near the optimum
        k, r, a = _unpack_points(z, model, 1.3)
        seen = set()
        for size in (1, 7, 64, 256):
            seen |= {reason for reason, _, _ in self._check(model, k[:size], r[:size], a[:size])}
        assert {None, "gain_cap", "singular_solve"} <= seen


def test_benchmark_tracer_finds_every_name(monkeypatch):
    # the benchmark tracer wraps functions by name in each sdstab module, so a
    # name removed from a module must fail here rather than in a traced run
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_mod = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer_mod)  # dataclasses look the module up
    spec.loader.exec_module(tracer_mod)
    tracer = tracer_mod.Tracer()
    try:
        tracer_mod.install_sdstab(tracer)
    finally:
        tracer.close()


class TestSynthesize:
    def test_stable_plant_trivial(self):
        model = SampledModel(
            name="easy", n=2, A=-np.eye(2), diffusion=(),
            B_hat=np.eye(2), K_hat=None,
        )
        res = synthesize_feedback(model)
        assert res.bound.tau_max > 0
        out = verify_certificate(model.with_gain(res.gain), res.certificate, tol=0.0)
        assert out.passed

    def test_requires_design_mode(self, fixtures):
        model = load_model(fixtures / "ex1_sub1.json")
        with pytest.raises(ValidationError):
            synthesize_feedback(model)

    def test_gain_consistency_invariant(self, fixtures):
        # cheap run: reuse the lighter stable plant, full fixtures live in acceptance
        model = SampledModel(
            name="easy2", n=2, A=np.array([[0.2, 1.0], [0.0, -1.0]]), diffusion=(),
            B_hat=np.array([[0.0], [1.0]]), K_hat=None,
        )
        res = synthesize_feedback(model)
        # the certificate carries the gain it certifies, the one simulate runs
        assert np.array_equal(res.certificate.K_hat, res.gain)
        assert np.array_equal(run_gain(model, res.certificate), res.gain)
        # bound equals the two-function formula on the stored constants
        assert res.bound.tau_max == pytest.approx(
            emulation_bound_two(res.constants).tau_max, rel=1e-12
        )


def _random_planar_loops(rng, count):
    """(model, K, b, 2*alpha) for random stabilizing planar gains with a positive exact rate."""
    model = load_model(FIXTURES / "planar.json")
    out = []
    while len(out) < count:
        k2 = rng.uniform(-10.0, -1.0)
        k = np.array([[0.25 * k2 - rng.uniform(0.5, 10.0), k2]])
        b = float(np.exp(rng.uniform(np.log(0.02), np.log(5.0))))
        f = model.A + model.B_hat @ k
        two_alpha = -np.linalg.eigvals(ito_generator(f, [model.envelope / np.sqrt(b)])).real.max() - b
        if two_alpha > 0.0:
            out.append((model, k, b, two_alpha))
    return out


class TestPlanarRate:
    def test_exact_rate_is_the_planar_lmi_threshold(self, rng):
        # 2*alpha(K, b) = -max Re eig(L) - b: just below it the rate Lyapunov solve of
        # the shifted loop certifies the planar rate block, just above it no P > 0 exists
        from sdstab.lmi import rate_loop

        for model, k, b, two_alpha in _random_planar_loops(rng, 50):
            a_tilde = model.A + model.B_hat @ k
            e1 = model.envelope
            low = two_alpha * (1 - 1e-6)
            p = solve_rate_lyapunov(*rate_loop(model, model.B_hat @ k, b), low, np.eye(2))
            assert np.linalg.eigvalsh(p)[0] > 0.0
            assert np.linalg.eigvalsh(planar_rate_block(a_tilde, e1, p, 0.5 * low, b))[-1] < 0.0
            high = two_alpha * (1 + 1e-6)
            above = rate_lyapunov_basis(a_tilde, [e1 / np.sqrt(b)], b + high, np.eye(2))
            assert np.linalg.eigvalsh(above)[0] < 0.0


class TestPlanarSynthesis:
    def test_default_options_beat_floor(self):
        from sdstab.design import synthesize_nonlinear_planar

        planar = load_model(FIXTURES / "planar.json")
        res = synthesize_nonlinear_planar(planar, DesignOptions())
        assert res.bound.tau_max >= 0.0285
        assert np.linalg.norm(res.gain) < 10.0
        out = verify_certificate(planar, res.certificate, tol=0.0)
        assert out.passed
        # envelope holds for the synthesized closed loop on random states
        model = planar.with_gain(res.gain)
        rng = np.random.default_rng(17)
        xs = rng.uniform(-8, 8, size=(10_000, 2))
        phi = model.phi(xs)
        p = res.certificate.P
        lhs = np.einsum("ij,jk,ik->i", phi, p, phi)
        ex = xs @ model.envelope.T
        rhs = np.einsum("ij,jk,ik->i", ex, p, ex)
        assert np.all(lhs <= rhs + 1e-9)

    def test_reported_gain_replay(self, fixtures):
        # replaying the reported planar certificate reproduces its bound
        from sdstab.lmi import load_certificate
        from sdstab.models import load_model

        model = load_model(fixtures / "planar.json")
        cert = load_certificate(fixtures / "cert_planar.json")
        out = verify_certificate(model, cert, tol=1e-2)
        assert out.passed
        assert out.tau_max == pytest.approx(0.0175, abs=1e-4)


    def test_stacked_cross_scores_match_one_certificate(self, fixtures):
        # a generation of the (P_tilde, c) search is one stacked gamma scan; each row must
        # score the tau its certificate scores alone
        from sdstab.design import _cross_scores

        model = load_model(fixtures / "planar.json")
        cert = load_certificate(fixtures / "cert_planar.json")
        b_bar = model.B_hat @ cert.K_hat
        rng = np.random.default_rng(5)
        pts = np.array([cert.P_tilde] + [random_spd(rng, 2, 0.1) * 100.0 for _ in range(11)])
        # the last two weights leave no feasible gamma pair in the scan box
        cs = np.concatenate([cert.c * np.exp(rng.uniform(-3.0, 3.0, len(pts) - 2)), [1e-9, 1e7]])
        for scan in ({"coarse": 40, "refine_rounds": 1}, {}):
            alpha_b, (_, _, tau) = _cross_scores(model, b_bar, cert.P, pts, cert.alpha_bar, cs, **scan)
            assert 2 <= np.isfinite(tau).sum() < len(pts)  # feasible and infeasible rows alike
            for i, (pt, c) in enumerate(zip(pts, cs)):
                one_b, (_, _, one) = _cross_scores(model, b_bar, cert.P, pt, cert.alpha_bar, float(c), **scan)
                assert alpha_b[i] == pytest.approx(one_b, rel=1e-12)
                assert tau[i] == (-np.inf if one == -np.inf else pytest.approx(one, rel=1e-12))

    def test_failed_reverification_is_infeasible(self, monkeypatch, capsys):
        # the design returns only what verify passes at tol 0: a FAIL there leaves no design
        import dataclasses

        import sdstab.design as design
        from sdstab.cli import main

        real = design.verify_certificate
        monkeypatch.setattr(design, "verify_certificate",
                            lambda model, cert, tol: dataclasses.replace(real(model, cert, tol), passed=False))
        with pytest.raises(InfeasibleError, match="no verifiable planar certificate"):
            design.synthesize_nonlinear_planar(load_model(FIXTURES / "planar.json"))
        assert main(["design", "--model", str(FIXTURES / "planar.json")]) == 2


class TestExtractMinimality:
    def test_shaving_any_constant_breaks_it(self, rng):
        p = random_spd(rng, 3)
        pt = random_spd(rng, 3)
        b = rng.normal(size=(3, 3))
        val = extract_alpha_b(p, pt, b)
        worst = sphere_ratio_max(b.T @ p @ b, pt, 3, n_dirs=20_000)
        assert worst > val - 1e-6


class TestCongruenceConsistency:
    def test_design_and_analysis_reject_together(self, fixtures):
        import dataclasses

        from oracles import design_rate_block

        model = load_model(fixtures / "ex1_sub1_control.json")
        cert = load_certificate(fixtures / "cert_ex1_sub1_design.json")
        bad = dataclasses.replace(cert, alpha_bar=1.5 * cert.alpha_bar)
        out_design = verify_certificate(model, bad, tol=1e-2)
        k_hat = bad.Y @ np.linalg.inv(bad.Q)
        translated = dataclasses.replace(bad.analysis_form(), Q=None, Y=None, c_tilde=None)
        out_analysis = verify_certificate(model.with_gain(k_hat), translated, tol=1e-2)
        assert (out_design.form, out_analysis.form) == ("design", "analysis")
        assert not out_design.passed and not out_analysis.passed
        assert (out_design.margins["rate"] > 0) and (out_analysis.margins["rate"] > 0)
        rate_qy = design_rate_block(model.A, model.diffusion, model.B_hat, bad.Q, bad.Y, bad.alpha_bar)
        assert np.linalg.eigvalsh(rate_qy)[-1] > 0
