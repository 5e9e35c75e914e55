import math
import warnings

import numpy as np
import pytest

from sdstab.bounds import (
    EmulationConstants,
    GainConstants,
    TwoFunctionConstants,
    check_condition_iii,
    dta_bound,
    dta_map,
    emulation_bound_single,
    emulation_bound_two,
    htau_generic,
    single_v_curve,
    single_v_stationarity,
    solve_qhat_star,
    two_v_curve,
    two_v_tau,
)
from sdstab.errors import DomainError, InfeasibleError

from oracles import bisect, single_v_grid_oracle

E = math.e


class TestConditionIii:
    def test_zero_is_degenerate(self):
        r = check_condition_iii(GainConstants(1, 1, 1, 1))
        assert r.value == 0.0 and r.ok and r.degenerate

    def test_arithmetic(self):
        g = GainConstants(2, 1, 1, 1, beta1=1.0, beta2=0.2, beta3=0.1)
        r = check_condition_iii(g)
        assert r.value == pytest.approx(0.8, abs=1e-15)
        assert r.ok and not r.degenerate

    def test_violation(self):
        g = GainConstants(1, 1, 1, 1, beta2=0.7, beta3=0.4)
        r = check_condition_iii(g)
        assert r.value == pytest.approx(1.1) and not r.ok


class TestHtauGeneric:
    def test_unit_constants(self):
        g = GainConstants(1, 1, 1, 1)
        assert htau_generic(1 / E, g) == pytest.approx(1 / (E + 1), rel=1e-12)

    def test_vanishes_at_one(self):
        g = GainConstants(1, 1, 1, 1)
        assert htau_generic(1 - 1e-9, g) < 1e-8

    def test_no_coupling_branch(self):
        g = GainConstants(1, 0, 0, 2)
        assert htau_generic(1 / E, g) == pytest.approx(0.5, rel=1e-12)
        # alpha1 * q underflows to 0 here; the uncoupled bound is still -ln q / alphat2
        g = GainConstants(1e-300, 0, 0, 2)
        assert htau_generic(1e-300, g) == pytest.approx(-math.log(1e-300) / 2, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            htau_generic(0.0, GainConstants(1, 1, 1, 1))
        with pytest.raises(DomainError):
            htau_generic(1.0, GainConstants(1, 1, 1, 1))


class TestSolveQhatStar:
    def test_unit_constants_against_bisection(self):
        g = GainConstants(1, 1, 1, 1)
        res = solve_qhat_star(g)
        expected = bisect(lambda q: 1 + math.log(q) + q, math.exp(-2), 1.0)
        assert res.auxiliary["q_hat_star"] == pytest.approx(expected, abs=1e-10)
        assert res.auxiliary["q_hat_star"] == pytest.approx(0.2785, abs=1e-4)
        assert res.auxiliary["bracket"][0] == pytest.approx(math.exp(-2), rel=1e-12)
        assert res.tau_max == pytest.approx(htau_generic(res.q_star, g), rel=1e-12)

    def test_iss_free_branch(self):
        g = GainConstants(1, 0, 1, 2)
        with pytest.raises(DomainError):
            solve_qhat_star(g)
        res = solve_qhat_star(g, q_hat=1 / E)
        assert res.provenance == "generic-iss-free"
        assert res.tau_max == pytest.approx(0.5, rel=1e-12)

    def test_infeasible_comparison(self):
        g = GainConstants(1, 1, 1, 1, beta2=1.0)
        with pytest.raises(InfeasibleError):
            solve_qhat_star(g)

    def test_q0_floor_applies(self):
        # impulse-comparison value above the stationary point forces q0
        g = GainConstants(1, 1, 1, 1, beta2=0.5)
        res = solve_qhat_star(g)
        assert res.q_star == pytest.approx(max(res.auxiliary["q_hat_star"], 0.5))

    def test_unrepresentable_q_star_raises(self):
        # alpha1 alphat2 underflows, alpha2 alphat1 underflows
        for constants in [(1e-200, 1.0, 1.0, 1e-200), (1.0, 1e-200, 1e-200, 1.0)]:
            with pytest.raises(DomainError):
                solve_qhat_star(GainConstants(*constants))

    def test_maximality_on_grid(self):
        g = GainConstants(2.0, 0.7, 1.3, 0.9)
        res = solve_qhat_star(g)
        lo = res.auxiliary["q_hat_0"]
        qs = np.exp(np.linspace(np.log(max(lo, 1e-12) + 1e-12), np.log(1 - 1e-9), 10_000))
        taus = np.array([htau_generic(float(q), g) for q in qs])
        assert res.tau_max >= taus.max() * (1 - 1e-12)

    def test_residual(self, rng):
        # constants spanning six decades; q* from the closed form must match
        # plain bisection of a2 at1 (1 + ln q) + a1 at2 q to near machine precision
        draws = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=(2000, 4)))
        for a1, a2, at1, at2 in [(3.0, 0.5, 2.0, 1.1), *draws]:
            res = solve_qhat_star(GainConstants(a1, a2, at1, at2))
            c = a2 * at1 / (a1 * at2)
            assert abs(res.auxiliary["stationarity_residual"]) <= 1e-9 * max(1.0, c)
            oracle = bisect(lambda q: a2 * at1 * (1.0 + math.log(q)) + a1 * at2 * q, 1e-300, 1.0)
            assert res.auxiliary["q_hat_star"] == pytest.approx(oracle, rel=1e-12, abs=0.0)


class TestEmulationBoundSingle:
    def test_unit_constants_frozen_oracle(self):
        # frozen from the brute-force grid oracle (pts=24, rounds=5):
        # (tau, q, b1, b2) = (0.07720555968, 0.2281687, 0.6767411, 2.0934952)
        res = emulation_bound_single(EmulationConstants(1, 1, 1))
        assert res.q_star == pytest.approx(0.22816868838254425, abs=1e-9)
        assert res.auxiliary["b1_star"] == pytest.approx(0.6767410571128369, abs=1e-9)
        assert res.auxiliary["b2_star"] == pytest.approx(2.093495236569713, abs=1e-9)
        assert res.tau_max == pytest.approx(0.07720555968802623, abs=1e-9)
        assert res.tau_max == pytest.approx(0.0772, abs=1e-4)

    def test_residual_is_tiny(self):
        for c in (EmulationConstants(1, 1, 1), EmulationConstants(2, 4, 9), EmulationConstants(0.3, 7, 0.2)):
            res = emulation_bound_single(c)
            assert abs(single_v_stationarity(res.q_star, c)) <= 1e-9

    def test_scaling_vs_grid_oracle(self):
        c = EmulationConstants(2, 4, 9)
        res = emulation_bound_single(c)
        tau_oracle = single_v_grid_oracle(2, 4, 9)[0]
        assert res.tau_max == pytest.approx(tau_oracle, rel=0.01)

    def test_bracket(self, rng):
        for _ in range(20):
            a, ab, af = np.exp(rng.uniform(np.log(0.1), np.log(10), size=3))
            res = emulation_bound_single(EmulationConstants(a, ab, af))
            assert 0.0 < res.q_star < 1 / E

    def test_root_matches_bisection_oracle(self, rng):
        # the stationarity root over wide lognormal constants, against plain bisection
        for _ in range(50):
            c = EmulationConstants(*np.exp(rng.normal(0.0, 3.0, size=3)))
            f = lambda q: single_v_stationarity(q, c)
            oracle = bisect(f, 1e-300, 1 / E)
            assert emulation_bound_single(c).q_star == pytest.approx(oracle, rel=1e-12, abs=1e-14)

    def test_unrepresentable_constants_raise(self):
        # sqrt(alpha_b * alpha_f) overflows, so the stationarity condition is
        # NaN at q = 1/e: a typed DomainError, not an untyped root-finder error
        with pytest.raises(DomainError):
            emulation_bound_single(EmulationConstants(1.0, 1e300, 1e300))
        # the root is fine but b2* or tau_max is not finite
        for c in (EmulationConstants(1e-300, 1.0, 1e300), EmulationConstants(5e-324, 1.0, 1.0)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError, match="not finite"):
                    emulation_bound_single(c)

    def test_curve_maximality(self):
        c = EmulationConstants(1.7, 0.4, 2.2)
        res = emulation_bound_single(c)
        qs = np.exp(np.linspace(np.log(1e-8), np.log(1 - 1e-9), 10_000))
        taus = np.array([single_v_curve(float(q), c, res.q_star) for q in qs])
        assert res.tau_max >= taus.max() * (1 - 1e-12)

    def test_monotonicity(self):
        base = dict(alpha_bar=1.0, alpha_b=1.0, alpha_f=1.0)
        tau0 = emulation_bound_single(EmulationConstants(**base)).tau_max
        # decreasing in alpha_b and alpha_f, increasing in alpha_bar
        last = np.inf
        for ab in (0.5, 1.0, 2.0, 4.0):
            t = emulation_bound_single(EmulationConstants(1.0, ab, 1.0)).tau_max
            assert t < last
            last = t
        last = np.inf
        for af in (0.5, 1.0, 2.0, 4.0):
            t = emulation_bound_single(EmulationConstants(1.0, 1.0, af)).tau_max
            assert t < last
            last = t
        last = 0.0
        for a in (0.5, 1.0, 2.0, 4.0):
            t = emulation_bound_single(EmulationConstants(a, 1.0, 1.0)).tau_max
            assert t > last
            last = t
        assert tau0 == emulation_bound_single(EmulationConstants(1, 1, 1)).tau_max


class TestRateForm:
    """dta_bound reports the rate parameterization r* = alpha sqrt(q*) of its single-V bound."""

    @staticmethod
    def dta_at(a, ab, af):
        # c_bar = 1/2 and alpha_u h^2 = 1/4 give alpha = 3 / (8 h), and c_bar + alpha_u h^2 < 1
        h = 0.375 / a
        return dta_bound(0.5, h, 0.25 / (h * h), ab, af)

    def test_unit_constants(self):
        res = self.dta_at(1.0, 1.0, 1.0)
        assert res.auxiliary["alpha_bar"] == pytest.approx(1.0, rel=1e-15)
        assert res.auxiliary["r_star"] == pytest.approx(math.sqrt(0.22816868838254425), abs=1e-9)
        assert res.auxiliary["r_star"] == pytest.approx(0.4777, abs=2e-4)

    def test_parameterization_equivalence(self, rng):
        for _ in range(100):
            a, ab, af = np.exp(rng.uniform(np.log(0.1), np.log(10), size=3))
            r2 = self.dta_at(a, ab, af)
            r1 = emulation_bound_single(EmulationConstants(r2.auxiliary["alpha_bar"], ab, af))
            assert abs(r1.tau_max - r2.tau_max) <= 1e-10 * max(1.0, r1.tau_max)
            assert abs(r2.auxiliary["r_star"] - a * math.sqrt(r1.q_star)) <= 1e-8

    def test_rate_bracket(self, rng):
        for _ in range(20):
            a, ab, af = np.exp(rng.uniform(np.log(0.1), np.log(10), size=3))
            res = self.dta_at(a, ab, af)
            assert 0.0 < res.auxiliary["r_star"] < a / math.sqrt(E)
            assert res.auxiliary["r_bracket"] == (0.0, res.auxiliary["alpha_bar"] / math.sqrt(E))


class TestEmulationBoundTwo:
    # the four reported certificate evaluations
    CASES = [
        ((4.3957, 241.9335, 1.2491, 60.5024), 0.0116),
        ((4.4352, 6.5438, 57.5429, 61.6297), 0.0102),
        ((3.6536, 4.2422, 26.2456, 26.7130), 0.0235),
        ((3.4369, 0.1507, 137.2912, 142.0755), 0.0175),
    ]

    @pytest.mark.parametrize("constants,expected", CASES)
    def test_reported_values(self, constants, expected):
        res = emulation_bound_two(TwoFunctionConstants(*constants))
        assert res.tau_max == pytest.approx(expected, abs=1e-4)

    def test_intermediate_q_star(self):
        res = emulation_bound_two(TwoFunctionConstants(4.3957, 241.9335, 1.2491, 60.5024))
        oracle = bisect(
            lambda q: 4.3957**2 * 60.5024 * q + 241.9335 * 1.2491 * (math.log(q) + 1.0),
            1e-12, 1 / E,
        )
        assert res.q_star == pytest.approx(oracle, abs=1e-10)
        assert res.q_star == pytest.approx(0.1821, abs=2e-4)

    def test_residuals_and_bracket(self, rng):
        # q* down to ~1e-13 here: an absolute root tolerance would lose digits
        for a, ab, g1, g2 in np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=(2000, 4))):
            c = TwoFunctionConstants(a, ab, g1, g2)
            res = emulation_bound_two(c)
            assert 0.0 < res.q_star < 1 / E
            assert abs(res.auxiliary["stationarity_residual"]) <= 1e-9 * max(1.0, a * a * g2)
            oracle = bisect(lambda q: a * a * g2 * q + ab * g1 * (math.log(q) + 1.0), 1e-300, 1 / E)
            assert res.q_star == pytest.approx(oracle, rel=1e-12, abs=0.0)

    def test_unrepresentable_q_star_raises(self):
        # alpha^2 gamma2 underflows, alpha_b gamma1 underflows, alpha_b gamma1 overflows
        for constants in [(1e-200, 1.0, 1.0, 1.0), (1.0, 1e-200, 1e-200, 1.0), (1.0, 1e200, 1e200, 1.0)]:
            with pytest.raises(DomainError):
                emulation_bound_two(TwoFunctionConstants(*constants))

    def test_array_matches_scalar(self, rng):
        a, ab, g1, g2 = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=(4, 2000)))
        q, tau = two_v_tau(a, ab, g1, g2)
        assert q.shape == tau.shape == (2000,)
        for i in range(2000):
            res = emulation_bound_two(TwoFunctionConstants(a[i], ab[i], g1[i], g2[i]))
            assert tau[i] == pytest.approx(res.tau_max, rel=1e-15, abs=0.0)
            assert q[i] == pytest.approx(res.q_star, rel=1e-15, abs=0.0)

    def test_array_unrepresentable_element_raises(self, rng):
        a, ab, g1, g2 = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=(4, 50)))
        a[17] = 1e-200  # alpha^2 gamma2 underflows at this element only
        with pytest.raises(DomainError):
            emulation_bound_two(TwoFunctionConstants(a[17], ab[17], g1[17], g2[17]))
        with pytest.raises(DomainError):
            two_v_tau(a, ab, g1, g2)
        with pytest.raises(DomainError):
            two_v_tau(a[:17], ab[:17], g1[:17], np.where(np.arange(17) == 3, 0.0, g2[:17]))

    def test_curve_maximality(self):
        c = TwoFunctionConstants(4.3957, 241.9335, 1.2491, 60.5024)
        res = emulation_bound_two(c)
        qs = np.exp(np.linspace(np.log(1e-8), np.log(1 - 1e-9), 10_000))
        taus = np.array([two_v_curve(float(q), c) for q in qs])
        assert res.tau_max >= taus.max() * (1 - 1e-12)


class TestDta:
    def test_map_value(self):
        assert dta_map(0.36, 0.1, 4.0) == pytest.approx(2.0, rel=1e-12)

    def test_round_trip(self):
        alpha, alpha_u = 2.0, 4.0
        h = 0.1
        assert h < min(2 * alpha / alpha_u, 1 / (2 * alpha))
        c_bar = (2 * alpha - alpha_u * h) * h
        assert c_bar == pytest.approx(0.36)
        assert dta_map(c_bar, h, alpha_u) == pytest.approx(alpha, abs=1e-13)

    def test_open_interval_edge_rejected(self):
        # c_bar + alpha_u h^2 == 1 puts h exactly at 1/(2 alpha)
        alpha_u, h = 4.0, 0.1
        c_bar = 1.0 - alpha_u * h * h
        with pytest.raises(DomainError):
            dta_map(c_bar, h, alpha_u)

    def test_domain(self):
        with pytest.raises(DomainError):
            dta_map(0.0, 0.1, 1.0)
        with pytest.raises(DomainError):
            dta_map(0.5, -0.1, 1.0)

    def test_reduces_to_single_v(self):
        res = dta_bound(0.36, 0.1, 4.0, 1.0, 1.0)
        ref = emulation_bound_single(EmulationConstants(2.0, 1.0, 1.0))
        assert res.tau_max == pytest.approx(ref.tau_max, abs=1e-10)
        assert res.auxiliary["alpha_bar"] == pytest.approx(2.0)

    def test_monotone_in_alpha_b(self):
        taus = [dta_bound(0.36, 0.1, 4.0, ab, 1.0).tau_max for ab in (0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(taus, taus[1:]))

    def test_small_stepsize_raises_rate_and_bound(self):
        # h -> 0 at fixed c_bar sends the implied rate to infinity; the bound
        # grows with the rate (strictly, per the monotonicity of the closed
        # form) and saturates at the rate-free limit rather than vanishing
        t_small = dta_bound(0.1, 1e-4, 1.0, 1.0, 1.0).tau_max
        t_big = dta_bound(0.1, 1e-2, 1.0, 1.0, 1.0).tau_max
        assert dta_map(0.1, 1e-4, 1.0) > dta_map(0.1, 1e-2, 1.0)
        assert t_small > t_big
