import dataclasses
import json

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import sdstab.lmi as lmi
from sdstab.design import DesignOptions, synthesize_feedback, synthesize_nonlinear_planar
from sdstab.errors import DomainError, ValidationError
from sdstab.lmi import (
    LmiCertificate,
    assemble_lyapunov_ito,
    cross_loop,
    load_certificate,
    rate_loop,
    verify_certificate,
)
from sdstab.models import LinearSampledModel, NonlinearPlanarModel, load_model
from sdstab.numerics import is_pos_def, lam_max

from oracles import bisect, design_rate_block, jacobi_eigh, planar_cross_block, planar_rate_block


def random_hurwitz(rng, n):
    a = rng.normal(size=(n, n))
    return a - (np.max(np.linalg.eigvals(a).real) + 1.0) * np.eye(n)


class TestVerifyLyapunovIto:
    """The Ito rate block F^T P + P F + sum G^T P G + 2 alpha_bar P, whose
    lambda_max is the rate margin of verify_certificate."""

    @staticmethod
    def margin(F, G_list, P, alpha_bar):
        return lam_max(assemble_lyapunov_ito(F, G_list, P, alpha_bar))

    def test_exact_zero_margin(self):
        m = self.margin(-np.eye(2), [], np.eye(2), alpha_bar=1.0)
        assert m == pytest.approx(0.0, abs=1e-14)

    def test_reported_certificate(self, fixtures):
        model = load_model(fixtures / "ex1_sub1.json")
        p = np.array([[2.2173, 0.8212], [0.8212, 6.1228]])
        m = self.margin(model.A + model.B_bar, model.diffusion, p, 4.3957)
        assert m <= 1e-2 * np.linalg.norm(p)

    def test_lyapunov_equation_oracle(self, rng):
        f = random_hurwitz(rng, 3)
        p = scipy.linalg.solve_lyapunov(f.T, -np.eye(3))
        alpha = 1.0 / (2.0 * np.max(np.linalg.eigvalsh(p)))
        assert self.margin(f, [], p, alpha) <= 1e-8

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            self.margin(np.eye(3), [], np.eye(2), 1.0)


class TestReportedCertificates:
    def test_analysis_pass(self, fixtures):
        for mname, cname in (
            ("ex1_sub1", "cert_ex1_sub1_analysis"),
            ("ex1_sub2", "cert_ex1_sub2_analysis"),
        ):
            model = load_model(fixtures / f"{mname}.json")
            cert = load_certificate(fixtures / f"{cname}.json")
            out = verify_certificate(model, cert, tol=1e-2)
            assert out.passed
            assert out.implies_almost_sure
            assert all(m <= 1e-2 * out.scales[k] for k, m in out.margins.items())

    def test_design_pass_and_congruence(self, fixtures, tmp_path):
        # a (Q, Y) file is verified as P = Q^{-1}, P_tilde = c_tilde Q^{-1},
        # K_hat = Y Q^{-1}, so its explicit translation gives identical margins
        model = load_model(fixtures / "ex1_sub1_control.json")
        cert = load_certificate(fixtures / "cert_ex1_sub1_design.json")
        out = verify_certificate(model, cert, tol=1e-2)
        assert out.passed and out.form == "design"
        p = np.linalg.inv(cert.Q)
        p = 0.5 * (p + p.T)
        k_hat = cert.Y @ np.linalg.inv(cert.Q)
        doc = {key: v for key, v in cert.to_dict().items() if key not in ("Q", "Y", "c_tilde")}
        doc.update(P=p.tolist(), P_tilde=(cert.c_tilde * p).tolist(), K_hat=k_hat.tolist())
        (tmp_path / "analysis.json").write_text(json.dumps(doc))
        out2 = verify_certificate(model, load_certificate(tmp_path / "analysis.json"), tol=1e-2)
        assert out2.form == "analysis"
        assert out2.margins == out.margins and out2.scales == out.scales
        assert out2.tau_max == out.tau_max
        assert np.linalg.norm(k_hat) == pytest.approx(5.5106, abs=1e-3)

    @pytest.mark.parametrize("mname,cname,edge", [
        ("ex1_sub1_control", "cert_ex1_sub1_design", 1.005947),
        ("ex1_sub2_control", "cert_ex1_sub2_design", 1.004658),
    ])
    def test_design_file_alpha_bar_edge(self, fixtures, mname, cname, edge):
        # scaling alpha_bar up, the tol-0 verdict of a (Q, Y) file flips where
        # the rate LMI in (Q, Y) itself stops holding
        model = load_model(fixtures / f"{mname}.json")
        cert = load_certificate(fixtures / f"{cname}.json")

        def verified(s):
            bad = dataclasses.replace(cert, alpha_bar=s * cert.alpha_bar)
            return verify_certificate(model, bad, tol=0.0).passed

        def design_margin(s):
            block = design_rate_block(model.A, model.diffusion, model.B_hat, cert.Q, cert.Y,
                                      s * cert.alpha_bar)
            return jacobi_eigh(block)[0][-1]

        assert verified(1.0) and not verified(1.5)
        lo, hi = 1.0, 1.5
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if verified(mid) else (lo, mid)
        assert lo == pytest.approx(edge, abs=1e-5)
        assert bisect(design_margin, 1.0, 1.5, iters=50) == pytest.approx(lo, rel=1e-9)

    def test_every_gain_on_hand_is_the_one_simulate_runs(self, fixtures):
        # simulate runs the model's K_hat, else the certificate's, else Y Q^{-1};
        # verify must check that gain, or refuse the pair when two gains differ
        import dataclasses

        ctl = load_model(fixtures / "ex1_sub1_control.json")
        design = load_certificate(fixtures / "cert_ex1_sub1_design.json")
        k = design.Y @ np.linalg.inv(design.Q)
        assert verify_certificate(ctl, dataclasses.replace(design, K_hat=k * (1 + 1e-9))).passed
        assert verify_certificate(ctl.with_gain(k * (1 + 1e-9)), design).passed
        analysis = dataclasses.replace(design.analysis_form(), Q=None, Y=None)
        planar = load_certificate(fixtures / "cert_planar.json")
        refused = [
            (ctl, dataclasses.replace(design, K_hat=np.zeros((1, 2)))),
            (ctl, dataclasses.replace(design, K_hat=k * (1 + 1e-5))),
            (ctl, dataclasses.replace(design, K_hat=np.zeros((2, 2)))),
            (ctl.with_gain(np.zeros((1, 2))), design),
            (ctl.with_gain(np.zeros((1, 2))), dataclasses.replace(analysis, K_hat=k)),
            (load_model(fixtures / "ex1_sub1.json"), dataclasses.replace(analysis, K_hat=k)),
            (load_model(fixtures / "planar.json").with_gain(np.zeros((1, 2))), planar),
        ]
        for model, cert in refused:
            with pytest.raises(ValidationError):
                verify_certificate(model, cert)

    def test_planar_pass(self, fixtures):
        model = load_model(fixtures / "planar.json")
        cert = load_certificate(fixtures / "cert_planar.json")
        out = verify_certificate(model, cert, tol=1e-2)
        assert out.passed
        assert out.tau_max == pytest.approx(0.0175, abs=1e-4)

    def test_rate_inflation_fails_all_forms(self, fixtures):
        import dataclasses

        pairs = [
            ("ex1_sub1", "cert_ex1_sub1_analysis"),
            ("ex1_sub2", "cert_ex1_sub2_analysis"),
            ("ex1_sub1_control", "cert_ex1_sub1_design"),
            ("planar", "cert_planar"),
        ]
        for mname, cname in pairs:
            model = load_model(fixtures / f"{mname}.json")
            cert = load_certificate(fixtures / f"{cname}.json")
            bad = dataclasses.replace(cert, alpha_bar=1.5 * cert.alpha_bar)
            assert not verify_certificate(model, bad, tol=1e-2).passed

    def test_zero_feedback_reduction(self, rng):
        # B = 0, Hurwitz F, P_tilde = P: the cross block Schur-reduces to
        # sum G'PG + F'P(g2 P)^{-1}PF <= g1 P, checked by hand here
        from sdstab.models import LinearSampledModel

        f = random_hurwitz(rng, 2)
        p = scipy.linalg.solve_lyapunov(f.T, -np.eye(2))
        model = LinearSampledModel(
            name="zero-b", n=2, A=f, diffusion=(), B_bar_explicit=np.zeros((2, 2))
        )
        g2 = 2.5
        hand = f.T @ p @ np.linalg.solve(g2 * p, p @ f)
        g1 = np.max(np.linalg.eigvals(np.linalg.solve(p, hand)).real) * 1.001
        alpha = 0.9 / (2 * np.max(np.linalg.eigvalsh(p)))
        cert = LmiCertificate(
            alpha_bar=alpha, P=p, P_tilde=p, alpha_b=1.0, gamma1=g1, gamma2=g2
        )
        out = verify_certificate(model, cert, tol=0.0)
        assert out.margins["cross"] <= 1e-10

    def test_missing_p_tilde_rejected(self, fixtures):
        model = load_model(fixtures / "ex1_sub1.json")
        cert = LmiCertificate(
            alpha_bar=4.3957,
            P=np.array([[2.2173, 0.8212], [0.8212, 6.1228]]),
            alpha_b=241.9335, gamma1=1.2491, gamma2=60.5024,
        )
        with pytest.raises(ValidationError):
            verify_certificate(model, cert)

    def test_design_y_zero_stable_plant(self):
        model = LinearSampledModel(
            name="stable", n=2, A=-np.eye(2), diffusion=(),
            B_hat=np.eye(2), K_hat=None,
        )
        cert = LmiCertificate(alpha_bar=0.5, Q=np.eye(2), Y=np.zeros((2, 2)), c_tilde=1.0)
        out = verify_certificate(model, cert, tol=0.0)
        assert out.form == "design" and out.passed
        assert out.margins["rate"] == pytest.approx(-1.0, abs=1e-12)

    def test_planar_envelope_structural(self, fixtures):
        model = load_model(fixtures / "planar.json").with_gain(
            np.array([[-27.5776, -8.2817]])
        )
        p = np.array([[3.0050, 0.4509], [0.4509, 0.0983]])
        e1 = model.envelope
        rng = np.random.default_rng(7)
        xs = rng.uniform(-5, 5, size=(100, 2))
        phi = model.phi(xs)
        lhs = np.einsum("ij,jk,ik->i", phi, p, phi)
        rhs = np.einsum("ij,jk,ik->i", xs @ e1.T, p, xs @ e1.T)
        assert np.all(lhs <= rhs + 1e-12)

    def test_planar_margin_continuity_in_b(self, fixtures):
        model = load_model(fixtures / "planar.json")
        cert = load_certificate(fixtures / "cert_planar.json")
        bs = np.linspace(0.3, 0.7, 81)
        outs = [verify_certificate(model, dataclasses.replace(cert, b=float(b))) for b in bs]
        vals = np.array([out.margins["rate"] for out in outs])
        # d margin / d b is bounded by ||P|| + ||E1' P E1|| / b^2 on this range
        p, e1 = cert.P, model.envelope
        lip = np.linalg.norm(p, 2) + np.linalg.norm(e1.T @ p @ e1, 2) / 0.3**2
        assert np.abs(np.diff(vals)).max() <= lip * (bs[1] - bs[0]) * 1.01
        a_tilde = model.A_bar + model.B_hat @ cert.K_hat
        for b, out in zip(bs, outs):  # the margin is that of the paper's block
            want = lam_max(planar_rate_block(a_tilde, e1, p, cert.alpha_bar, b))
            assert abs(out.margins["rate"] - want) <= 1e-12 * out.scales["rate"]

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.tuples(st.floats(-30.0, 30.0), st.floats(-30.0, 30.0)),
        log_b=st.floats(-6.0, 4.0), log_c=st.floats(-3.0, 8.0),
    )
    def test_planar_margins_match_the_paper_blocks(self, seed, k, log_b, log_c):
        # the shifted linear Ito blocks verify assembles are the paper's planar blocks
        rng = np.random.default_rng(seed)
        p, pt = (m @ m.T + 0.1 * np.eye(2) for m in rng.normal(size=(2, 2, 2)))
        b, c = np.exp(log_b), np.exp(log_c)
        alpha_bar, alpha_b, g1, g2 = np.exp(rng.uniform(-3.0, 3.0, 4))
        gain = np.array([k])
        cert = LmiCertificate(alpha_bar=alpha_bar, P=p, P_tilde=pt, alpha_b=alpha_b,
                              gamma1=g1, gamma2=g2, b=b, c=c, K_hat=gain)
        model = NonlinearPlanarModel(name="planar")
        b_bar = model.B_hat @ gain
        a_tilde, e1 = model.A_bar + b_bar, model.envelope
        want = {
            "rate": planar_rate_block(a_tilde, e1, p, alpha_bar, b),
            "feedback_energy": b_bar.T @ p @ b_bar - alpha_b * pt,
            "cross": planar_cross_block(a_tilde, e1, b_bar, p, pt, g1, g2, c),
        }
        out = verify_certificate(model, cert, tol=0.0)
        assert set(out.margins) == set(want)
        for name, m in want.items():
            m = 0.5 * (m + m.T)
            assert abs(out.margins[name] - np.linalg.eigvalsh(m)[-1]) <= 1e-12 * (1.0 + np.linalg.norm(m))

    @pytest.mark.parametrize("field", ["b", "c"])
    def test_planar_weights_must_be_positive(self, fixtures, field):
        model = load_model(fixtures / "planar.json")
        cert = load_certificate(fixtures / "cert_planar.json")
        for value in (0.0, -1.0):
            with pytest.raises(DomainError, match="must be positive"):
                verify_certificate(model, dataclasses.replace(cert, **{field: value}))


class TestPlantLoops:
    """rate_loop and cross_loop, the linear Ito loops whose blocks certify each plant."""

    def test_linear_plant_is_its_own_loop(self, fixtures):
        model = load_model(fixtures / "ex1_sub1.json")
        b_bar = model.B_bar
        f, g = rate_loop(model, b_bar)
        assert np.array_equal(f, model.A + b_bar) and g is model.diffusion
        fc, gc, bc = cross_loop(model, b_bar)
        assert np.array_equal(fc, f) and gc is model.diffusion and bc is b_bar

    def test_cross_loop_stack_matches_scalar_calls(self, rng):
        # the design scores a stack of envelope weights c in one call; each row must be
        # the loop the verifier assembles for that c alone, bit for bit
        model = NonlinearPlanarModel(name="planar")
        b_bar = model.B_hat @ rng.normal(scale=5.0, size=(1, 2))
        cs = np.exp(rng.uniform(-3.0, 8.0, 9))
        f, (g,), b = cross_loop(model, b_bar, cs)
        assert g.shape == b.shape == (len(cs), 2, 2)
        for i, c in enumerate(cs):
            f1, (g1,), b1 = cross_loop(model, b_bar, float(c))
            assert f1.tobytes() == f.tobytes()
            assert g1.tobytes() == g[i].tobytes() and b1.tobytes() == b[i].tobytes()

    def test_planar_rate_loop_is_the_paper_block(self, rng):
        model = NonlinearPlanarModel(name="planar")
        b_bar = model.B_hat @ rng.normal(scale=5.0, size=(1, 2))
        p = np.array([[2.0, 0.3], [0.3, 0.5]])
        for b in (0.01, 0.46, 7.0):
            block = assemble_lyapunov_ito(*rate_loop(model, b_bar, b), p, 1.5)
            want = planar_rate_block(model.A_bar + b_bar, model.envelope, p, 1.5, b)
            assert np.abs(block - want).max() <= 1e-12 * np.abs(want).max()


class TestCertificateSchema:
    def test_unknown_keys_rejected(self):
        with pytest.raises(Exception):
            LmiCertificate.from_dict({"alpha_bar": 1.0, "P": [[1.0]], "bogus": 2})

    def test_nonpd_rejected(self):
        with pytest.raises(ValidationError):
            LmiCertificate.from_dict({"alpha_bar": 1.0, "P": [[0.0, 0.0], [0.0, 1.0]]})

    def test_design_requires_y(self):
        with pytest.raises(ValidationError):
            LmiCertificate.from_dict({"alpha_bar": 1.0, "Q": [[1.0]]})
        with pytest.raises(ValidationError):
            LmiCertificate.from_dict({"alpha_bar": 1.0, "Q": [[1.0]], "Y": [[1.0, 2.0]]})

    def test_both_forms_must_be_one_certificate(self, fixtures):
        # a file with P and Q is checked through P, so P must be Q^{-1} and
        # P_tilde must be c_tilde P, each to 1e-6 relative
        doc = json.loads((fixtures / "cert_ex1_sub1_design.json").read_text())
        p = np.linalg.inv(doc["Q"])
        p = 0.5 * (p + p.T)
        pt = doc["c_tilde"] * p
        assert LmiCertificate.from_dict({**doc, "P": p.tolist(), "P_tilde": pt.tolist()}).P is not None
        near = {"P": (p * (1 + 1e-8)).tolist(), "P_tilde": (pt * (1 - 1e-8)).tolist()}
        assert LmiCertificate.from_dict({**doc, **near}).P is not None
        bad = [
            {"P": np.diag([1.0, 1e-3]).tolist(), "P_tilde": np.diag([1.0, 1e-3]).tolist()},
            {"P": (p * (1 + 1e-5)).tolist(), "P_tilde": pt.tolist()},
            {"P": p.tolist(), "P_tilde": p.tolist()},
            {"P": p.tolist(), "P_tilde": pt.tolist(), "c_tilde": None},
            {"P": p.tolist()},
        ]
        for changes in bad:
            with pytest.raises(ValidationError, match="P = Q"):
                LmiCertificate.from_dict({**doc, **changes})

    def test_asymmetric_rejected(self):
        # certificate matrices must be symmetric to 1e-6 relative to their largest entry
        p = np.array([[2.0, 0.5], [0.5, 3.0]])
        skewed = p + np.array([[0.0, 1e-3], [0.0, 0.0]])
        nudged = p + np.array([[0.0, 1e-6], [0.0, 0.0]])
        assert LmiCertificate(alpha_bar=1.0, P=nudged).P is nudged
        for key in ("P", "P_tilde", "Q"):
            doc = {"alpha_bar": 1.0, "P": p.tolist(), "Y": [[0.0, 0.0]], key: skewed.tolist()}
            with pytest.raises(DomainError, match="not symmetric"):
                LmiCertificate.from_dict(doc)
        with pytest.raises(DomainError):
            LmiCertificate(alpha_bar=1.0, P=np.eye(3)[:2])


_CERTIFIED = [
    ("ex1_sub1", "cert_ex1_sub1_analysis"),
    ("ex1_sub2", "cert_ex1_sub2_analysis"),
    ("ex1_sub1_control", "cert_ex1_sub1_design"),
    ("ex1_sub2_control", "cert_ex1_sub2_design"),
    ("planar", "cert_planar"),
]


class TestMarginsAgainstJacobiOracle:
    """Every margin is LAPACK's lambda_max of an assembled block; the verdict
    compares it with tol (1 + ||M||_F), so it must agree with the independent
    cyclic-Jacobi oracle to 1e-12 of that scale."""

    @pytest.fixture
    def blocks(self, monkeypatch):
        seen = []
        real = lmi.lam_max
        monkeypatch.setattr(lmi, "lam_max", lambda m: seen.append(np.array(m)) or real(m))
        return seen

    @staticmethod
    def check(margins, blocks, scales=None):
        assert len(margins) == len(blocks)
        for (name, margin), m in zip(margins.items(), blocks):
            scale = 1.0 + np.linalg.norm(m)
            assert abs(margin - jacobi_eigh(m)[0][-1]) <= 1e-12 * scale
            assert scales is None or scales[name] == scale
        blocks.clear()

    def check_certificate(self, model, cert, blocks, tol):
        for name in ("P", "P_tilde", "Q"):
            m = getattr(cert, name)
            if m is not None:
                assert is_pos_def(m) == (jacobi_eigh(0.5 * (m + m.T))[0][0] > 0.0)
        out = verify_certificate(model, cert, tol=tol)
        assert out.passed
        self.check(out.margins, blocks, out.scales)

    def test_fixture_certificates(self, fixtures, blocks):
        for mname, cname in _CERTIFIED:
            model = load_model(fixtures / f"{mname}.json")
            cert = load_certificate(fixtures / f"{cname}.json")
            self.check_certificate(model, cert, blocks, tol=1e-2)

    def test_fresh_designs(self, fixtures, blocks):
        for name in ("ex1_sub1_control", "ex1_sub2_control"):
            model = load_model(fixtures / f"{name}.json")
            cert = synthesize_feedback(model).certificate
            blocks.clear()  # drop the blocks of the design's own re-verification
            self.check_certificate(model, cert, blocks, tol=0.0)
        planar = NonlinearPlanarModel(name="planar")
        cert = synthesize_nonlinear_planar(DesignOptions(), model=planar).certificate
        blocks.clear()
        self.check_certificate(planar, cert, blocks, tol=0.0)
