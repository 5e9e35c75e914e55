import json

import numpy as np
import pytest

from sdstab.errors import DomainError, FormatError, ValidationError
from sdstab.models import (
    LinearSampledModel,
    NonlinearPlanarModel,
    SamplingSchedule,
    load_model,
    model_from_dict,
    model_to_dict,
    schedule_instants,
)


class TestLoadModel:
    def test_reported_plant(self, fixtures):
        m = load_model(fixtures / "ex1_sub1.json")
        assert isinstance(m, LinearSampledModel)
        assert m.n == 2 and m.m == 1
        assert np.array_equal(m.A, [[1.0, -1.0], [1.0, -5.0]])
        assert np.array_equal(m.B_bar, np.diag([-10.0, 0.0]))

    def test_dimension_mismatch(self):
        doc = {"name": "bad", "n": 2, "A": [[1, 0], [0, 1]],
               "diffusion": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]], "B_bar": [[0, 0], [0, 0]]}
        with pytest.raises(ValidationError):
            model_from_dict(doc)

    def test_design_mode(self, fixtures):
        m = load_model(fixtures / "ex1_sub1_control.json")
        assert m.design_mode
        assert m.B_bar is None
        assert np.array_equal(m.B_hat, [[1.0], [0.0]])

    def test_unknown_keys_rejected(self):
        with pytest.raises(FormatError):
            model_from_dict({"name": "x", "n": 1, "A": [[0]], "diffusion": [], "B_bar": [[0]],
                             "extra_key": 1})

    def test_both_feedback_forms_rejected(self):
        with pytest.raises(ValidationError):
            model_from_dict({"n": 1, "A": [[0]], "diffusion": [], "B_bar": [[0]], "B_hat": [[1]]})

    def test_parse_failure(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(FormatError):
            load_model(p)

    def test_planar(self, fixtures):
        m = load_model(fixtures / "planar.json")
        assert isinstance(m, NonlinearPlanarModel)
        assert m.design_mode
        g = m.with_gain(np.array([[-27.5776, -8.2817]]))
        assert np.allclose(g.B_bar, [[0, 0], [-27.5776, -8.2817]])

    @pytest.mark.parametrize("shape", [(2,), (5, 2), (3, 4, 2)])
    def test_planar_phi_shapes(self, fixtures, rng, shape):
        # phi = (s/4, s) with s = x1 sin(K x * x2), and drift = A_bar x + phi, bit for bit at any batch shape
        m = load_model(fixtures / "planar.json").with_gain(np.array([[-27.5776, -8.2817]]))
        x = rng.normal(size=shape)
        s = x[..., 0] * np.sin((x @ m.K_hat[0]) * x[..., 1])
        ref = np.stack([0.25 * s, s], axis=-1)
        out = m.phi(x)
        assert out.shape == ref.shape == shape
        assert out.tobytes() == ref.tobytes()
        assert m.drift(x).tobytes() == (x @ m.A_bar.T + ref).tobytes()

    def test_planar_drift_any_memory_order(self, fixtures, rng):
        # the simulator passes Fortran-ordered rows and out; a gemv on them rounds the
        # last rows of some batch sizes differently, so drift must not depend on it
        m = load_model(fixtures / "planar.json").with_gain(np.array([[-27.5776, -8.2817]]))
        for rows in range(1, 40):
            x = rng.normal(size=(rows, 2))
            s = x[:, 0] * np.sin((x @ m.K_hat[0]) * x[:, 1])
            ref = x @ m.A_bar.T + np.stack([0.25 * s, s], axis=-1)
            xf = np.asfortranarray(x)
            got = m.drift(xf, out=np.empty_like(xf))
            assert np.ascontiguousarray(got).tobytes() == ref.tobytes(), rows

    def test_round_trip_bit_exact(self, fixtures, tmp_path):
        for name in ("ex1_sub1", "ex1_sub2", "ex1_sub1_control", "planar"):
            m = load_model(fixtures / f"{name}.json")
            out = tmp_path / f"{name}.json"
            out.write_text(json.dumps(model_to_dict(m), allow_nan=False))
            m2 = load_model(out)
            assert model_to_dict(m) == model_to_dict(m2)
            if isinstance(m, LinearSampledModel):
                assert np.array_equal(m.A, m2.A)
                for g1, g2 in zip(m.diffusion, m2.diffusion):
                    assert np.array_equal(g1, g2)


class TestScheduleInstants:
    def test_periodic_count(self):
        t = schedule_instants(SamplingSchedule.periodic(0.0234), 1.0)
        assert len(t) == 43
        assert np.allclose(t, 0.0234 * np.arange(43), atol=0)
        assert t[-1] <= 1.0

    def test_uniform_deterministic(self):
        sched = SamplingSchedule.uniform_random(0.01, 0.02)
        r1 = schedule_instants(sched, 1.0, rng=np.random.default_rng(5))
        r2 = schedule_instants(sched, 1.0, rng=np.random.default_rng(5))
        assert np.array_equal(r1, r2)
        gaps = np.diff(r1)
        assert gaps.min() >= 0.01 - 1e-12 and gaps.max() <= 0.02 + 1e-12

    def test_explicit_not_increasing(self):
        with pytest.raises(ValidationError):
            SamplingSchedule.explicit([0.1, 0.05])

    def test_explicit_non_finite(self):
        # NaN compares False, so a NaN instant would pass the increasing-gaps test
        for instants in ([np.nan, 1.0], [0.1, np.inf], [0.0, 0.1, -np.inf]):
            with pytest.raises(ValidationError):
                SamplingSchedule.explicit(instants)
        with pytest.raises(ValidationError):
            SamplingSchedule.parse("explicit:nan,1")

    def test_explicit_gap_bounds(self):
        s = SamplingSchedule.explicit([0.0, 0.1, 0.25, 0.3])
        assert s.underline_dt == pytest.approx(0.05)
        assert s.overline_dt == pytest.approx(0.15)

    def test_bad_horizon(self):
        rng = np.random.default_rng(0)
        for schedule in (SamplingSchedule.periodic(0.1), SamplingSchedule.uniform_random(0.1, 0.2)):
            for horizon in (0.0, np.inf, np.nan):
                with pytest.raises(DomainError):
                    schedule_instants(schedule, horizon, rng=rng)
        # more instants than numpy can index: refused before np.arange allocates
        with pytest.raises(DomainError):
            schedule_instants(SamplingSchedule.periodic(0.02), 1e300)

    def test_parse(self):
        assert SamplingSchedule.parse("periodic:0.02").dt == 0.02
        s = SamplingSchedule.parse("uniform:0.01,0.03")
        assert (s.dt_lo, s.dt_hi) == (0.01, 0.03)
        with pytest.raises(ValidationError):
            SamplingSchedule.parse("weird:1")


class TestAssumptionCheck:
    """The planar model's sector assumption, checked on random states."""

    def test_planar_envelope_ratio(self, fixtures):
        m = load_model(fixtures / "planar.json").with_gain(np.array([[-27.5776, -8.2817]]))
        e1 = m.envelope
        # |phi(x)|^2 <= lam_max(Q) |E1|^2 |x|^2 with Q = I
        cap = np.linalg.norm(e1) ** 2
        rng = np.random.default_rng(3)
        xs = rng.uniform(-10, 10, size=(500, 2))
        phi = m.phi(xs)
        ratio = np.max(np.sum(phi**2, axis=1) / np.sum(xs**2, axis=1))
        assert ratio <= cap + 1e-12
