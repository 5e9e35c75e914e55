import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sdstab.errors import DomainError, FormatError, ToolkitError, ValidationError
from sdstab.models import (
    SamplingSchedule,
    load_model,
    model_from_dict,
    model_to_dict,
    schedule_instants,
)


class TestLoadModel:
    def test_reported_plant(self, fixtures):
        m = load_model(fixtures / "ex1_sub1.json")
        assert m.nonlinearity is None and m.envelope is None
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
        assert m.nonlinearity == "planar_sin" and m.m == 0
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
        drift = np.empty(shape)
        m.drift_step(x, drift)()
        assert drift.tobytes() == (x @ m.A.T + ref).tobytes()

    def test_planar_drift_any_memory_order(self, fixtures, rng):
        # the simulator passes Fortran-ordered rows and out; a gemv on them rounds the
        # last rows of some batch sizes differently, so drift must not depend on it
        m = load_model(fixtures / "planar.json").with_gain(np.array([[-27.5776, -8.2817]]))
        for rows in range(1, 40):
            x = rng.normal(size=(rows, 2))
            s = x[:, 0] * np.sin((x @ m.K_hat[0]) * x[:, 1])
            ref = x @ m.A.T + np.stack([0.25 * s, s], axis=-1)
            xf = np.asfortranarray(x)
            got = m.drift_step(xf, np.empty_like(xf))()
            assert np.ascontiguousarray(got).tobytes() == ref.tobytes(), rows

    def test_round_trip_bit_exact(self, fixtures, tmp_path):
        models = [load_model(fixtures / f"{name}.json") for name in ("ex1_sub1", "ex1_sub2", "ex1_sub1_control", "planar")]
        models.append(models[-1].with_gain(np.array([[-27.5776, -8.2817]])))  # a planar model with K_hat and x0
        for i, m in enumerate(models):
            out = tmp_path / f"{i}.json"
            out.write_text(json.dumps(model_to_dict(m), allow_nan=False))
            m2 = load_model(out)
            assert model_to_dict(m) == model_to_dict(m2)
            assert_same_model(m, m2)

    def test_planar_descriptor(self):
        # the descriptor holds only its type; B_hat defaults to the scalar input [0, 1]^T
        doc = {"n": 2, "A": [[0.25, 1.0], [0.0, 0.0]], "diffusion": [], "nonlinearity": {"type": "planar_sin"}}
        m = model_from_dict(doc)
        assert m.B_hat.tolist() == [[0.0], [1.0]] and m.envelope.tolist() == [[0.25, 0.0], [1.0, 0.0]]
        for bad in ({"type": "planar_sin", "gain": 3.0}, {"type": "cubic"}, "planar_sin", {}):
            with pytest.raises(FormatError):
                model_from_dict({**doc, "nonlinearity": bad})
        for changes in ({"n": 3, "A": np.eye(3).tolist()}, {"B_hat": [[1.0, 0.0], [0.0, 1.0]]},
                        {"B_bar": [[0.0, 0.0], [0.0, 0.0]]}, {"diffusion": [[[0.1, 0.0], [0.0, 0.0]]]},
                        {"diffusion": [[[0.0, 0.0], [0.0, 0.0]]]}):  # a report would drop a zero G
            with pytest.raises(ValidationError):
                model_from_dict({**doc, **changes})

    @pytest.mark.parametrize("field", ["A", "B_hat", "K_hat", "B_bar", "x0", "diffusion"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, field, value):
        doc = {"n": 2, "A": [[1.0, 0.0], [0.0, 1.0]], "diffusion": [[[0.1, 0.0], [0.0, 0.1]]],
               "B_hat": [[1.0], [0.0]], "K_hat": [[-1.0, 0.0]], "x0": [1.0, 2.0]}
        if field == "B_bar":
            doc = {**{k: v for k, v in doc.items() if k not in ("B_hat", "K_hat")}, "B_bar": np.eye(2).tolist()}
        doc = json.loads(json.dumps(doc))
        target = doc[field]
        while isinstance(target[-1], list):
            target = target[-1]
        target[-1] = value
        with pytest.raises(ValidationError, match="finite"):
            model_from_dict(doc)



def assert_same_model(m, m2):
    """Every field of two models equal, arrays bit for bit."""
    for name in ("A", "B_hat", "K_hat", "B_bar_explicit", "x0"):
        a, b = getattr(m, name), getattr(m2, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert len(m.diffusion) == len(m2.diffusion)
    for g1, g2 in zip(m.diffusion, m2.diffusion):
        assert g1.shape == g2.shape and g1.tobytes() == g2.tobytes()
    assert (m.name, m.n, m.nonlinearity) == (m2.name, m2.n, m2.nonlinearity)


_FLOAT = st.floats(-1e3, 1e3, allow_nan=False)


@st.composite
def _valid_model_docs(draw):
    """A model document that loads: a linear plant with B_bar, with B_hat (and maybe K_hat),
    or the planar plant, each maybe with x0."""
    planar = draw(st.booleans())
    n = 2 if planar else draw(st.integers(1, 3))
    inputs = 1 if planar else draw(st.integers(1, 2))

    def mat(rows, cols):
        return draw(st.lists(st.lists(_FLOAT, min_size=cols, max_size=cols), min_size=rows, max_size=rows))

    doc = {"name": draw(st.text(max_size=8)), "n": n, "A": mat(n, n)}
    doc["diffusion"] = [] if planar else [mat(n, n) for _ in range(draw(st.integers(0, 2)))]
    if planar:
        doc["nonlinearity"] = {"type": "planar_sin"}
        if draw(st.booleans()):
            doc["B_hat"] = mat(2, 1)
    elif draw(st.booleans()):
        doc["B_bar"] = mat(n, n)
    else:
        doc["B_hat"] = mat(n, inputs)
    if "B_bar" not in doc and draw(st.booleans()):
        doc["K_hat"] = mat(inputs, n)
    if draw(st.booleans()):
        doc["x0"] = draw(st.lists(_FLOAT, min_size=n, max_size=n))
    return doc


# values that a mutation puts in place of a field, or of one entry of it
_JUNK = st.one_of(
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 10**400, -(10**400), "x", None, [], {}, [[]],
                     {"type": "planar_sin", "gain": 3.0}, {"type": "cubic"}, "planar_sin"]),
    st.integers(-3, 4), _FLOAT,
    st.lists(st.lists(_FLOAT, max_size=3), max_size=3),
)
_FIELDS = sorted({"name", "n", "A", "diffusion", "B_bar", "B_hat", "K_hat", "nonlinearity", "x0"})


@st.composite
def _model_docs(draw):
    """A valid model document with at most one field or entry mutated: replaced with junk, deleted,
    added, or one entry of an array replaced; or an unknown key added."""
    doc = draw(_valid_model_docs())
    how = draw(st.sampled_from(["none", "replace", "delete", "entry", "unknown_key"]))
    field = draw(st.sampled_from(_FIELDS))
    if how == "replace":
        doc[field] = draw(_JUNK)
    elif how == "delete":
        doc.pop(field, None)
    elif how == "unknown_key":
        doc["gain"] = 3.0
    elif how == "entry" and isinstance(doc.get(field), list) and doc[field]:
        target = doc[field]
        while isinstance(target[-1], list) and target[-1]:
            target = target[-1]
        target[-1] = draw(_JUNK)
    return doc


class TestModelDocuments:
    @settings(max_examples=200, deadline=None)
    @given(doc=_model_docs())
    @example(doc={"n": 1, "A": [[-1.0]], "diffusion": [], "B_hat": [[1, float("nan")]]})
    def test_load_or_refuse(self, doc):
        # a document either loads into a model of finite arrays that round-trips through
        # model_to_dict bit for bit, or is refused with a typed error
        try:
            m = model_from_dict(doc)
        except ToolkitError:
            return
        arrays = [m.A, *m.diffusion] + [a for a in (m.B_hat, m.K_hat, m.B_bar_explicit, m.x0) if a is not None]
        assert all(np.all(np.isfinite(a)) for a in arrays)
        text = json.dumps(model_to_dict(m), allow_nan=False)
        m2 = model_from_dict(json.loads(text))
        assert json.dumps(model_to_dict(m2), allow_nan=False) == text
        assert_same_model(m, m2)


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
