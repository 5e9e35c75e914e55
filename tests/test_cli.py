import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdstab.cli import build_parser, main, reverify_report

FX = "tests/fixtures"


def run(argv):
    return main(argv)


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which are not JSON."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def _write(path, doc):
    return _write_text(path, json.dumps(doc))


def _write_text(path, text):
    path.write_text(text)
    return str(path)


class TestBoundCommand:
    def test_two_v_reported(self, capsys, tmp_path):
        out = tmp_path / "r.json"
        code = run(["bound", "--two-v", "--alpha", "4.3957", "--alpha-b", "241.9335",
                    "--gamma1", "1.2491", "--gamma2", "60.5024", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        tau = float([l for l in text.splitlines() if l.startswith("tau_max")][0].split("=")[1])
        assert tau == pytest.approx(0.0116, abs=1e-4)
        rep = json.loads(out.read_text())
        assert rep["results"]["tau_max"] == pytest.approx(tau, rel=1e-9)

    def test_generic_no_coupling(self, capsys):
        code = run(["bound", "--generic", "--alpha1", "1", "--alpha2", "0",
                    "--alphat2", "2", "--q", "0.3678794"])
        assert code == 0
        text = capsys.readouterr().out
        tau = float(text.splitlines()[0].split("=")[1])
        assert tau == pytest.approx(0.5, abs=1e-6)

    def test_single_v(self, capsys):
        code = run(["bound", "--single-v", "--alpha", "1", "--alpha-b", "1", "--alpha-f", "1"])
        assert code == 0
        tau = float(capsys.readouterr().out.splitlines()[0].split("=")[1])
        assert tau == pytest.approx(0.0772, abs=1e-4)

    def test_constants_file(self, capsys, tmp_path):
        doc = tmp_path / "c.json"
        doc.write_text(json.dumps({"alpha": 1.0, "alpha_b": 1.0, "alpha_f": 1.0}))
        assert run(["bound", "--single-v", "--constants", str(doc)]) == 0

    def test_missing_constant_exit_3(self, capsys):
        assert run(["bound", "--two-v", "--alpha", "1.0"]) == 3

    def test_infeasible_exit_2(self, capsys):
        code = run(["bound", "--generic", "--alpha1", "1", "--alpha2", "1",
                    "--alphat1", "1", "--alphat2", "1", "--beta2", "1.0"])
        assert code == 2


class TestVerifyCommand:
    def test_pass_with_tau(self, capsys, tmp_path):
        out = tmp_path / "rep.json"
        code = run(["verify", "--model", f"{FX}/ex1_sub1.json",
                    "--cert", f"{FX}/cert_ex1_sub1_analysis.json", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "PASS" in text
        assert "tau_max = 0.0116" in text

    def test_perturbed_rate_fails_exit_1(self, capsys, tmp_path):
        cert = json.loads(open(f"{FX}/cert_ex1_sub1_analysis.json").read())
        cert["alpha_bar"] *= 1.5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cert))
        code = run(["verify", "--model", f"{FX}/ex1_sub1.json", "--cert", str(bad)])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_missing_p_tilde_exit_3(self, capsys, tmp_path):
        cert = json.loads(open(f"{FX}/cert_ex1_sub1_analysis.json").read())
        del cert["P_tilde"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cert))
        assert run(["verify", "--model", f"{FX}/ex1_sub1.json", "--cert", str(bad)]) == 3

    def test_report_self_contained(self, capsys, tmp_path):
        out = tmp_path / "rep.json"
        run(["verify", "--model", f"{FX}/ex1_sub2.json",
             "--cert", f"{FX}/cert_ex1_sub2_analysis.json", "--out", str(out)])
        rep = json.loads(out.read_text())
        margins = reverify_report(rep)
        for name, value in rep["results"]["margins"].items():
            assert margins[name] == pytest.approx(value, abs=1e-12)


class TestSimulateCommand:
    def test_deterministic_csv_bytes(self, capsys, tmp_path):
        outs = []
        for tag in ("a", "b"):
            traj = tmp_path / f"{tag}.csv"
            code = run(["simulate", "--model", f"{FX}/ex1_sub1.json",
                        "--schedule", "periodic:0.0234", "--paths", "1",
                        "--horizon", "1", "--seed", "7", "--store-stride", "5",
                        "--traj-out", str(traj)])
            assert code == 0
            outs.append(traj.read_bytes())
        assert outs[0] == outs[1]

    def test_zero_initial_state_note_exit_0(self, capsys):
        code = run(["simulate", "--model", f"{FX}/ex1_sub1.json",
                    "--schedule", "periodic:0.0234", "--paths", "2",
                    "--horizon", "0.5", "--seed", "1", "--x0", "0,0"])
        assert code == 0
        assert "unavailable" in capsys.readouterr().out

    def test_gain_from_certificate(self, capsys, tmp_path):
        out = tmp_path / "sim.json"
        code = run(["simulate", "--model", f"{FX}/ex1_sub1_control.json",
                    "--cert", f"{FX}/cert_ex1_sub1_design.json",
                    "--schedule", "periodic:0.0234", "--paths", "20",
                    "--horizon", "2", "--seed", "3", "--store-stride", "5", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        rate = float([l for l in text.splitlines() if l.startswith("ms_decay_rate")][0].split("=")[1])
        assert rate < 0
        # the report carries the Monte Carlo error bar and where the time went
        rep = json.loads(out.read_text())
        res = rep["results"]
        assert 0 < res["terminal_mean_sq_se"] < res["terminal_mean_sq"]
        # the noise streams' layout and the numpy whose normals the seed names
        assert res["noise"] == {"B": 1024, "W": 16, "numpy": np.__version__}
        stages = rep["stage_s"]
        assert set(stages) == {"integrate", "estimate"} and min(stages.values()) > 0
        assert sum(stages.values()) == pytest.approx(rep["wall_time_s"])

    @pytest.mark.parametrize("model", ["sub1", "gbm"])
    def test_traj_out_route_same_statistics(self, model, capsys, monkeypatch, tmp_path):
        # without --traj-out the statistics fold chunk by chunk, with it they come
        # from the full ensemble: report results and stats CSV bytes must agree
        from sdstab import sim

        monkeypatch.setattr(sim, "_CHUNK", 4)   # 10 paths: three chunks
        if model == "sub1":
            argv = ["--model", f"{FX}/ex1_sub1.json", "--schedule", "periodic:0.0234", "--horizon", "1"]
        else:   # sigma sqrt(h) = 1.6: some paths pass the divergence cap, not all
            doc = {"name": "gbm", "n": 1, "A": [[100.0]], "diffusion": [[[16.0]]],
                   "B_bar": [[0.0]], "x0": [1.0]}
            argv = ["--model", _write(tmp_path / "gbm.json", doc), "--schedule", "periodic:0.1",
                    "--horizon", "8", "--dt-sim", "0.01"]
        outs = []
        for extra in ([], ["--traj-out", str(tmp_path / "traj.csv")]):
            out, stats = tmp_path / "r.json", tmp_path / "s.csv"
            code = run(["simulate", *argv, "--paths", "10", "--seed", "2", "--workers", "2",
                        "--store-stride", "3", "--out", str(out), "--stats-out", str(stats), *extra])
            outs.append((code, strict_json(out.read_text())["results"], stats.read_bytes()))
        assert outs[0] == outs[1]
        if model == "gbm":
            # at least two alive paths with |x(T)|^2 >= 1e280: their deviations' squares
            # would overflow, and the error needs two alive paths
            rows = np.loadtxt(tmp_path / "traj.csv", delimiter=",", skiprows=1)
            terminal = rows[rows[:, 0] == rows[:, 0].max(), 2]
            assert np.sum(terminal ** 2 >= 1e280) >= 2   # NaN, a dead path, compares False
            assert 0 < outs[0][1]["n_diverged"] < 10
            assert outs[0][1]["terminal_mean_sq_se"] > 1e280

    def test_standard_error_scaling_is_exact(self, capsys, rng):
        from types import SimpleNamespace

        from sdstab.cli import _terminal_mean_sq_se

        # scaled by a power of two: the bits of the unscaled formula wherever that
        # neither overflows nor underflows
        for scale in (1e-30, 1.0, 1e30):
            last = scale * rng.lognormal(0.0, 2.0, size=(50, 2))
            alive = rng.random(50) < 0.8
            sq = np.einsum("pi,pi->p", last[alive], last[alive])
            ens = SimpleNamespace(terminal=last, terminal_alive=alive)
            assert _terminal_mean_sq_se(ens) == float(sq.std(ddof=1) / np.sqrt(len(sq)))
        # |x(T)|^2 itself overflows: no error is reported, and the report says why
        ens = SimpleNamespace(terminal=np.array([[1e200], [1.0]]), terminal_alive=np.array([True, True]))
        assert _terminal_mean_sq_se(ens) is None
        assert "standard error unavailable" in capsys.readouterr().out

    @pytest.mark.parametrize("traj", [False, True])
    def test_one_alive_path_has_no_standard_error(self, traj, capsys, tmp_path):
        out = tmp_path / "r.json"
        extra = ["--traj-out", str(tmp_path / "traj.csv")] if traj else []
        code = run(["simulate", "--model", f"{FX}/ex1_sub1.json", "--schedule", "periodic:0.0234",
                    "--horizon", "0.5", "--paths", "1", "--out", str(out), *extra])
        assert code == 0
        res = json.loads(out.read_text())["results"]
        assert res["terminal_mean_sq"] > 0 and res["terminal_mean_sq_se"] is None

    def test_divergent_exit_1(self, capsys, tmp_path):
        # unstable plant without feedback: most paths blow up
        doc = {"name": "unstable", "n": 1, "A": [[1000.0]], "diffusion": [[[0.0]]],
               "B_bar": [[0.0]], "x0": [1.0]}
        mp = tmp_path / "m.json"
        mp.write_text(json.dumps(doc))
        code = run(["simulate", "--model", str(mp), "--schedule", "periodic:10.0",
                    "--paths", "4", "--horizon", "60", "--dt-sim", "1.0",
                    "--seed", "1"])
        assert code == 1


class TestReportCommand:
    def test_merged_table_and_curve(self, capsys, tmp_path):
        r1 = tmp_path / "b.json"
        run(["bound", "--two-v", "--alpha", "4.3957", "--alpha-b", "241.9335",
             "--gamma1", "1.2491", "--gamma2", "60.5024", "--out", str(r1)])
        r2 = tmp_path / "v.json"
        run(["verify", "--model", f"{FX}/ex1_sub1.json",
             "--cert", f"{FX}/cert_ex1_sub1_analysis.json", "--out", str(r2)])
        capsys.readouterr()
        curve = tmp_path / "curve.csv"
        code = run(["report", str(r1), str(r2), "--curve-out", str(curve)])
        assert code == 0
        text = capsys.readouterr().out
        assert "bound" in text and "verify" in text
        lines = curve.read_text().splitlines()
        assert lines[0] == "report,q,tau"
        assert len(lines) == 1 + 200

    def test_empty_exit_3(self, capsys):
        assert run(["report"]) == 3


class TestExitCodes:
    def test_unknown_command_exit_3(self, capsys):
        assert run(["nonsense"]) == 3

    def test_bad_model_path_exit_3(self, capsys):
        assert run(["verify", "--model", "does/not/exist.json",
                    "--cert", f"{FX}/cert_ex1_sub1_analysis.json"]) == 3

    @pytest.mark.parametrize("case", [
        "x0_flag", "x0_nan", "c_tilde_flag", "cert_scalar", "model_A",
        "model_x0", "model_diffusion", "report_list", "report_no_constants",
        "constants_file", "verify_tol_nan", "report_decay_number", "report_command_number",
        "report_tau_text", "report_tau_nan", "report_decay_infinite", "report_name_number",
        "bound_out_unwritable", "verify_out_unwritable",
        "traj_out_unwritable", "stats_out_unwritable",
        "report_out_unwritable", "curve_out_unwritable",
        "alpha_fraction_nan", "alpha_fraction_zero", "alpha_fraction_one", "alpha_fraction_above_one",
        "report_generic_overflow", "cert_k_hat_not_certified", "model_k_hat_not_certified",
        "cert_k_hat_without_input_map", "cert_p_and_q_disagree", "simulate_model_k_hat_not_certified",
        "simulate_design_cert_without_input_map", "generic_q_below_condition", "single_v_overflow",
        "single_v_tau_not_finite", "horizon_inf", "cert_p_overflow", "cert_norm_overflow", "verify_tol_inf",
        "workers_zero", "workers_negative", "dt_sim_unindexable", "horizon_unindexable",
        "paths_unindexable", "schedule_explicit_nan", "schedule_explicit_inf",
        "model_boolean", "cert_boolean", "constants_boolean", "model_deeply_nested",
        "planar_cert_linear_model",
    ])
    def test_malformed_input_exit_3(self, case, capsys, tmp_path):
        # exit 1 means verified-negative, so malformed input must never land there
        def patched(fixture, **changes):
            doc = json.loads(open(f"{FX}/{fixture}.json").read())
            path = tmp_path / f"{fixture}.json"
            path.write_text(json.dumps({**doc, **changes}))
            return str(path)

        def verify(**model_changes):
            return ["verify", "--model", patched("ex1_sub1", **model_changes),
                    "--cert", f"{FX}/cert_ex1_sub1_analysis.json"]

        simulate = ["simulate", "--model", f"{FX}/ex1_sub1.json",
                    "--schedule", "periodic:0.01", "--horizon", "0.1"]
        design = ["design", "--model", f"{FX}/ex1_sub1_control.json"]

        def report(**doc):
            return ["report", _write(tmp_path / "report.json", doc)]

        missing = str(tmp_path / "no_such_dir" / "out.json")
        bound = ["bound", "--two-v", "--alpha", "1", "--alpha-b", "1", "--gamma1", "1", "--gamma2", "1"]

        def bound_report():
            path = str(tmp_path / "bound.json")
            assert run(bound + ["--out", path]) == 0
            return path

        argv = {
            "x0_flag": lambda: simulate + ["--x0", "a,b"],
            "x0_nan": lambda: simulate + ["--x0", "nan,1"],
            # c_tilde cannot change tau, so design has no such flag
            "c_tilde_flag": lambda: design + ["--c-tilde", "1"],
            "cert_scalar": lambda: ["verify", "--model", f"{FX}/ex1_sub1.json",
                                    "--cert", patched("cert_ex1_sub1_analysis", alpha_b="x")],
            # simulate runs the model's K_hat, else the certificate's, else Y Q^{-1}:
            # verify refuses a pair whose gains disagree, or a gain the model cannot run
            "cert_k_hat_not_certified": lambda: ["verify", "--model", f"{FX}/ex1_sub1_control.json", "--cert",
                                                 patched("cert_ex1_sub1_design", K_hat=[[0.0, 0.0]])],
            "cert_k_hat_without_input_map": lambda: ["verify", "--model", f"{FX}/ex1_sub1.json", "--cert",
                                                     patched("cert_ex1_sub1_analysis", K_hat=[[0.0, 0.0]])],
            "model_k_hat_not_certified": lambda: ["verify", "--model", patched("ex1_sub1_control", K_hat=[[0.0, 0.0]]),
                                                  "--cert", f"{FX}/cert_ex1_sub1_design.json"],
            # a file with P and Q is checked through P, so P must be Q^{-1} and P_tilde c_tilde P
            "cert_p_and_q_disagree": lambda: ["verify", "--model", f"{FX}/ex1_sub1_control.json", "--cert",
                                              patched("cert_ex1_sub1_design", P=[[1.0, 0.0], [0.0, 1e-3]],
                                                      P_tilde=[[1.0, 0.0], [0.0, 1e-3]])],
            # simulate refuses the same pairs verify refuses: it would run a gain nothing certified
            "simulate_model_k_hat_not_certified": lambda: [
                "simulate", "--model", patched("ex1_sub1_control", K_hat=[[-1.0, -1.0]]),
                "--cert", f"{FX}/cert_ex1_sub1_design.json", "--schedule", "periodic:0.01", "--horizon", "0.1"],
            "simulate_design_cert_without_input_map": lambda: simulate + [
                "--cert", f"{FX}/cert_ex1_sub1_design.json"],
            "model_A": lambda: verify(A="zz"),
            "model_x0": lambda: verify(x0=["a", 1]),
            "model_diffusion": lambda: verify(diffusion=5),
            "constants_file": lambda: ["bound", "--single-v", "--constants", _write(
                tmp_path / "c.json", {"alpha": "x", "alpha_b": 1.0, "alpha_f": 1.0})],
            # Python reads JSON true as 1, so a boolean would pass as a number (A[0][0] is 1.0)
            "model_boolean": lambda: verify(A=[[True, -1.0], [1.0, -5.0]]),
            "cert_boolean": lambda: ["verify", "--model", f"{FX}/ex1_sub1.json",
                                     "--cert", patched("cert_ex1_sub1_analysis", gamma1=True)],
            "constants_boolean": lambda: ["bound", "--two-v", "--constants", _write(
                tmp_path / "c.json", {"alpha": True, "alpha_b": 1.0, "gamma1": 1.0, "gamma2": 1.0})],
            "model_deeply_nested": lambda: verify()[:2] + [
                _write_text(tmp_path / "deep.json", "[" * 100_000 + "]" * 100_000)] + verify()[3:],
            # the envelope weights b and c mean nothing to a linear loop, so verify refuses them
            "planar_cert_linear_model": lambda: ["verify", "--model", f"{FX}/ex1_sub1_control.json",
                                                 "--cert", f"{FX}/cert_planar.json"],
            "verify_tol_nan": lambda: verify() + ["--tol", "nan"],
            # an infinite tol would pass any margin
            "verify_tol_inf": lambda: verify() + ["--tol", "inf"],
            # the blocks overflow to inf, or their norm does (an infinite scale passes any margin)
            "cert_p_overflow": lambda: ["verify", "--model", f"{FX}/ex1_sub1.json", "--cert",
                                        patched("cert_ex1_sub1_analysis", P=[[1e307, 0.0], [0.0, 1e307]])],
            "cert_norm_overflow": lambda: ["verify", "--model", f"{FX}/ex1_sub1.json", "--cert", patched(
                "cert_ex1_sub1_analysis", alpha_bar=10.0, P=[[1e160, 0.0], [0.0, 1e160]],
                P_tilde=[[1e160, 0.0], [0.0, 1e160]])],
            "horizon_inf": lambda: simulate[:-1] + ["inf"],
            "workers_zero": lambda: simulate + ["--workers", "0"],
            "workers_negative": lambda: simulate + ["--workers", "-2"],
            # integration grids too long for numpy to index
            "dt_sim_unindexable": lambda: simulate + ["--dt-sim", "1e-300"],
            "horizon_unindexable": lambda: simulate[:3] + ["--schedule", "periodic:0.02", "--horizon", "1e300"],
            # per-path arrays too large for numpy to index: refused before any allocation
            "paths_unindexable": lambda: simulate + ["--paths", str(10**18)],
            # a NaN instant passes an increasing-gaps test, and an infinite one gives an infinite gap
            "schedule_explicit_nan": lambda: simulate[:3] + ["--schedule", "explicit:nan,1", "--dt-sim", "0.001",
                                                             "--horizon", "0.5"],
            "schedule_explicit_inf": lambda: simulate[:3] + ["--schedule", "explicit:0.1,inf", "--dt-sim", "0.001",
                                                             "--horizon", "0.5"],
            "report_list": lambda: ["report", _write(tmp_path / "list.json", [1, 2])],
            "report_no_constants": lambda: ["report", _write(
                tmp_path / "bound.json",
                {"command": ["bound"], "results": {"mode": "two-v", "tau_max": 0.01}},
            )],
            "report_decay_number": lambda: report(command=["simulate"], results={"ms_decay": 5}),
            "report_command_number": lambda: report(command=5, results={}),
            "report_tau_text": lambda: report(command=["design"], results={"tau_max": "0.02"}),
            # NaN and Infinity are not JSON, and a row holding one could not be written as JSON
            "report_tau_nan": lambda: report(command=["design"], results={"tau_max": float("nan")}),
            "report_decay_infinite": lambda: report(command=["simulate"],
                                                    results={"ms_decay": {"rate": -float("inf")}}),
            "report_name_number": lambda: report(command=["verify"], results={"model": {"name": 7}}),
            # an unwritable output path is a bad argument, found after the work is done
            "bound_out_unwritable": lambda: bound + ["--out", missing],
            "verify_out_unwritable": lambda: verify() + ["--out", missing],
            "traj_out_unwritable": lambda: simulate + ["--traj-out", missing],
            "stats_out_unwritable": lambda: simulate + ["--stats-out", missing],
            "report_out_unwritable": lambda: ["report", bound_report(), "--out", missing],
            "curve_out_unwritable": lambda: ["report", bound_report(), "--curve-out", missing],
            "alpha_fraction_nan": lambda: design + ["--alpha-fraction", "nan"],
            "alpha_fraction_zero": lambda: design + ["--alpha-fraction", "0"],
            "alpha_fraction_one": lambda: design + ["--alpha-fraction", "1"],
            "alpha_fraction_above_one": lambda: design + ["--alpha-fraction", "1.5"],
            # the condition value is 0.5, so q must lie in (0.5, 1) as in solve_qhat_star
            "generic_q_below_condition": lambda: ["bound", "--generic", "--alpha1", "1", "--alpha2", "0",
                                                  "--alphat2", "1", "--beta2", "0.5", "--q", "0.1"],
            # sqrt(alpha_b alpha_f) overflows: the stationarity condition is not finite
            "single_v_overflow": lambda: ["bound", "--single-v", "--alpha", "1",
                                          "--alpha-b", "1e300", "--alpha-f", "1e300"],
            # q* is fine, but b2* is 1.6e300 and tau_max is NaN
            "single_v_tau_not_finite": lambda: ["bound", "--single-v", "--alpha", "1e-300",
                                                "--alpha-b", "1", "--alpha-f", "1e300"],
            # the condition value overflows to inf: no admissible q for the curve
            "report_generic_overflow": lambda: report(command=["bound"], results={
                "mode": "generic",
                "constants": {"alpha1": 1.0, "alpha2": 1e308, "alphat1": 1.0, "alphat2": 1.0,
                              "beta1": 1e308},
            }),
        }[case]()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(argv) == 3
        err = capsys.readouterr().err
        assert "error" in err
        assert "Traceback" not in err and "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


    @pytest.mark.parametrize("traj", [False, True])
    def test_ensemble_out_of_memory_exit_3(self, traj, capsys, monkeypatch, tmp_path):
        # an allocation the machine refuses, faked here so nothing large is asked for
        real_empty = np.empty

        def empty(shape, *args, **kwargs):
            if np.ndim(shape) and shape[0] == 54321:
                raise MemoryError
            return real_empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", empty)
        extra = ["--traj-out", str(tmp_path / "traj.csv")] if traj else []
        code = run(["simulate", "--model", f"{FX}/ex1_sub1.json", "--schedule", "periodic:0.01",
                    "--horizon", "0.1", "--paths", "54321", *extra])
        assert code == 3
        err = capsys.readouterr().err
        assert "error" in err and "memory" in err and "Traceback" not in err


class TestRepeatedCalls:
    def test_cached_parser_keeps_no_state(self, capsys, tmp_path):
        # main builds its parser once per process: a call must not see the previous one
        bound = ["bound", "--two-v", "--alpha", "4.3957", "--alpha-b", "241.9335",
                 "--gamma1", "1.2491", "--gamma2", "60.5024"]
        verify = ["verify", "--model", f"{FX}/ex1_sub1.json",
                  "--cert", f"{FX}/cert_ex1_sub1_analysis.json"]
        out = tmp_path / "out.json"

        def call(argv):
            out.unlink(missing_ok=True)
            code = run(argv + ["--out", str(out)])
            std = capsys.readouterr()
            report = json.loads(out.read_text()) if out.exists() else None
            if report:
                report.pop("wall_time_s")
            return code, std.out, std.err, report

        sequence = [bound, verify, bound[:-2], verify]   # bound[:-2] lacks --gamma2
        first = []
        for argv in sequence:
            build_parser.cache_clear()
            first.append(call(argv))
        assert [f[0] for f in first] == [0, 0, 3, 0]
        build_parser.cache_clear()
        assert [call(argv) for argv in sequence] == first
        assert build_parser.cache_info().misses == 1


_REPORT_KEYS = ("tool", "version", "command", "inputs", "results", "mode", "constants", "q_star",
                "tau_max", "gain_norm", "ms_decay", "rate", "passed", "model", "name")
_CONSTANTS = ("alpha", "alpha_b", "alpha_f", "gamma1", "gamma2", "alpha1", "alpha2", "alphat1",
              "alphat2", "beta1", "beta2", "beta3")
_WORDS = ("bound", "verify", "design", "simulate", "two-v", "single-v", "generic", "0.1.0")
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text() | st.sampled_from(_WORDS),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.sampled_from(_REPORT_KEYS + _CONSTANTS) | st.text(), kids, max_size=6),
    max_leaves=12,
)
# numbers at the edges of the float range, where bound arithmetic under- or overflows
_NUMBER = st.floats() | st.integers() | st.sampled_from([5e-324, 1e-200, 1e-100, 1e200, 10**400])
_RUN_REPORT = st.fixed_dictionaries(
    {"command": _JSON | st.lists(st.sampled_from(_WORDS) | _JSON, max_size=3),
     "results": st.dictionaries(st.sampled_from(_REPORT_KEYS), _JSON | _NUMBER)},
    optional={"version": _JSON},
)
_BOUND_REPORT = st.fixed_dictionaries({
    "command": st.just(["bound"]),
    "results": st.fixed_dictionaries(
        {"mode": st.sampled_from(["two-v", "single-v", "generic"]),
         "constants": st.fixed_dictionaries({}, optional={k: _NUMBER for k in _CONSTANTS})},
        optional={"q_star": _NUMBER, "tau_max": _NUMBER},
    ),
})


class TestReportGenerated:
    @settings(max_examples=200, deadline=None)
    @given(doc=_JSON | _RUN_REPORT | _BOUND_REPORT)
    def test_any_json_exits_0_or_3(self, doc):
        # every JSON document is either a report or malformed input: exit 0 or
        # 3, never an escaped exception, with output on strict UTF-8 streams
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "report.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            out, err = (io.TextIOWrapper(io.BytesIO(), encoding="utf-8") for _ in range(2))
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["report", path, "--curve-out", os.path.join(tmp, "curve.csv"),
                             "--format", "csv", "--out", os.path.join(tmp, "summary.csv")])
            err.flush()
            assert code in (0, 3)
            assert "Traceback" not in err.buffer.getvalue().decode("utf-8")


class TestDesignCommand:
    def test_trace_records_stages(self, capsys, tmp_path):
        doc = {"name": "easy", "n": 2, "A": [[-1.0, 0.0], [0.0, -1.0]],
               "diffusion": [], "B_hat": [[1.0, 0.0], [0.0, 1.0]]}
        mp = tmp_path / "m.json"
        mp.write_text(json.dumps(doc))
        cert = tmp_path / "cert.json"
        code = run(["design", "--model", str(mp),
                    "--cert-out", str(cert), "--out", str(tmp_path / "rep.json")])
        assert code == 0
        text = capsys.readouterr().out
        assert "tau_max =" in text and "K_hat =" in text
        # the report records where the time went and what the search decided
        trace = json.loads((tmp_path / "rep.json").read_text())["results"]["trace"]
        assert set(trace["stage_s"]) == {"rate_search", "refine", "finish"}
        for count in ("nfev", "rows", "stacks"):
            assert set(trace[count]) == {"rate_search", "refine", "polish"}
        assert set(trace["rejected"]) == {"singular_solve", "rate_check", "gamma_box", "gain_cap"}
        for group in ("stage_s", "nfev", "rows", "stacks", "rejected"):
            assert all(type(v) is float and v >= 0.0 for v in trace[group].values())
        nfev, rows, stacks = trace["nfev"], trace["rows"], trace["stacks"]
        # the differential evolution reads every row it scores, whole generations per call
        assert nfev["refine"] == rows["refine"] > stacks["refine"] > 0
        # the Nelder-Mead searches score each step's probes as one stack, so they score more rows
        # than their iterates read, in fewer calls
        assert 0 < nfev["polish"] <= 150
        for search in ("rate_search", "polish"):
            assert 0 < stacks[search] < nfev[search] < rows[search]
        assert type(trace["two_alpha_max"]) is float and trace["two_alpha_max"] > 0.0
        assert 0.0 < trace["alpha_fraction"] < 1.0
        # a design's bits depend on scipy's search and lambertw and on numpy's LAPACK
        import scipy

        search = json.loads((tmp_path / "rep.json").read_text())["results"]["search"]
        assert search == {"numpy": np.__version__, "scipy": scipy.__version__}
        # the written certificate verifies against the model
        assert run(["verify", "--model", str(mp), "--cert", str(cert)]) == 0
        # the search is random only through a fixed seed: a second run writes the same bytes
        again = tmp_path / "again.json"
        assert run(["design", "--model", str(mp), "--cert-out", str(again)]) == 0
        assert again.read_bytes() == cert.read_bytes()

    def test_unstabilizable_exit_2(self, capsys, tmp_path):
        # unstable mode outside the input range
        doc = {"name": "stuck", "n": 2, "A": [[1.0, 0.0], [0.0, -1.0]],
               "diffusion": [], "B_hat": [[0.0], [1.0]]}
        mp = tmp_path / "m.json"
        mp.write_text(json.dumps(doc))
        assert run(["design", "--model", str(mp)]) == 2

    @pytest.mark.parametrize("a", [
        [[1e300, 1.0], [0.0, 0.0]],  # the generator is finite, its abscissa about 2e300
        [[50.0, 1.0], [0.0, 50.0]],  # stabilizing needs |K| > 100
    ])
    def test_planar_unstabilizable_exit_2_without_warnings(self, a, capsys, tmp_path):
        doc = json.loads(open(f"{FX}/planar.json").read())
        mp = _write(tmp_path / "planar.json", {**doc, "A": a})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["design", "--model", mp]) == 2
        err = capsys.readouterr().err
        assert "infeasible" in err
        assert "RuntimeWarning" not in err and "Traceback" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestDtaAndCurves:
    def test_dta_bound_matches_single_v(self, capsys):
        code = run(["bound", "--dta", "--c-bar", "0.36", "--h", "0.1",
                    "--alpha-u", "4", "--alpha-b", "1", "--alpha-f", "1"])
        assert code == 0
        tau_dta = float(capsys.readouterr().out.splitlines()[0].split("=")[1])
        run(["bound", "--single-v", "--alpha", "2", "--alpha-b", "1", "--alpha-f", "1"])
        tau_single = float(capsys.readouterr().out.splitlines()[0].split("=")[1])
        assert tau_dta == pytest.approx(tau_single, rel=1e-9)

    def test_curves_for_all_bound_modes(self, capsys, tmp_path):
        reports = []
        for tag, argv in (
            ("g", ["bound", "--generic", "--alpha1", "1", "--alpha2", "1",
                   "--alphat1", "1", "--alphat2", "1"]),
            ("s", ["bound", "--single-v", "--alpha", "1", "--alpha-b", "1", "--alpha-f", "1"]),
            ("t", ["bound", "--two-v", "--alpha", "1", "--alpha-b", "1",
                   "--gamma1", "1", "--gamma2", "1"]),
        ):
            out = tmp_path / f"{tag}.json"
            assert run(argv + ["--out", str(out)]) == 0
            reports.append(str(out))
        capsys.readouterr()
        curve = tmp_path / "curves.csv"
        assert run(["report", *reports, "--curve-out", str(curve)]) == 0
        lines = curve.read_text().splitlines()
        assert len(lines) == 1 + 3 * 200
        vals = [float(l.split(",")[2]) for l in lines[1:]]
        assert all(v > 0 for v in vals)


class TestReportFormats:
    def test_csv_summary(self, capsys, tmp_path):
        rep = tmp_path / "b.json"
        run(["bound", "--two-v", "--alpha", "1", "--alpha-b", "1",
             "--gamma1", "1", "--gamma2", "1", "--out", str(rep)])
        out = tmp_path / "summary.csv"
        assert run(["report", str(rep), "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("report,command,model,tau_max")
        assert len(lines) == 2


class TestPlanarCliRoundTrip:
    def test_design_then_simulate(self, capsys, tmp_path):
        cert = tmp_path / "planar_cert.json"
        code = run(["design", "--model", f"{FX}/planar.json",
                    "--cert-out", str(cert), "--out", str(tmp_path / "rep.json")])
        assert code == 0
        text = capsys.readouterr().out
        tau = float([l for l in text.splitlines() if l.startswith("tau_max")][0].split("=")[1])
        assert tau >= 0.0285
        # the report records where the time went and what the search decided, in the
        # linear design's stages and counts
        trace = json.loads((tmp_path / "rep.json").read_text())["results"]["trace"]
        assert set(trace) == {"b", "c", "gain_norm", "two_alpha_max", "alpha_fraction",
                              "stage_s", "nfev", "rows", "stacks", "rejected"}
        assert set(trace["stage_s"]) == {"rate_search", "refine", "finish"}
        for count in ("nfev", "rows", "stacks"):
            assert set(trace[count]) == {"rate_search", "refine"}
        assert set(trace["rejected"]) == {"gamma_box"}
        for group in ("stage_s", "nfev", "rows", "stacks", "rejected"):
            assert all(type(v) is float and v >= 0.0 for v in trace[group].values())
        for key in ("b", "c", "gain_norm", "two_alpha_max", "alpha_fraction"):
            assert type(trace[key]) is float and trace[key] > 0.0
        # 3 search coordinates: 30 generations of 30 rows, plus the first population
        assert trace["nfev"]["refine"] == trace["rows"]["refine"] == 31 * 30
        assert trace["stacks"]["refine"] == 31
        # the rate search's evaluations, as scipy's Nelder-Mead counted them at the same steps
        assert trace["nfev"]["rate_search"] == 579
        assert trace["stacks"]["rate_search"] < trace["nfev"]["rate_search"] < trace["rows"]["rate_search"]
        assert trace["alpha_fraction"] == 0.9 and trace["gain_norm"] < 10.0
        assert run(["verify", "--model", f"{FX}/planar.json", "--cert", str(cert)]) == 0
        capsys.readouterr()
        code = run(["simulate", "--model", f"{FX}/planar.json", "--cert", str(cert),
                    "--schedule", f"periodic:{0.99 * tau:.6f}", "--paths", "1",
                    "--horizon", "5", "--seed", "0", "--store-stride", "50"])
        assert code == 0
        out = capsys.readouterr().out
        median = float([l for l in out.splitlines()
                        if l.startswith("as_exponent_median")][0].split("=")[1])
        assert median < 0


def test_cli_import_loads_no_scipy():
    # scipy is imported inside the functions that need it, so the bound,
    # verify and simulate commands start without paying for it
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, sdstab.cli; sys.exit(int('scipy' in sys.modules))"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


class TestInputFiles:
    @pytest.mark.parametrize("command", ["verify", "design", "simulate"])
    def test_inputs_read_once_and_hashed_as_parsed(self, command, monkeypatch, tmp_path):
        # a second read of an input could hash other bytes than the ones checked
        import builtins
        import collections
        import hashlib

        model, cert = f"{FX}/ex1_sub1_control.json", f"{FX}/cert_ex1_sub1_design.json"
        inputs = {"model": model} if command == "design" else {"model": model, "cert": cert}
        flags = [arg for name, path in inputs.items() for arg in (f"--{name}", path)]
        extra = {"verify": [], "design": [],
                 "simulate": ["--schedule", "periodic:0.0234", "--horizon", "0.1"]}[command]
        opened = collections.Counter()
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened[file] += 1
            return real_open(file, *args, **kwargs)

        out = tmp_path / "r.json"
        monkeypatch.setattr(builtins, "open", counting_open)
        code = run([command, *flags, *extra, "--out", str(out)])
        monkeypatch.undo()
        assert code == 0
        report = strict_json(out.read_text())
        for name, path in inputs.items():
            data = pathlib.Path(path).read_bytes()
            assert opened[path] == 1, name
            assert report["inputs"][name] == {"path": path, "sha256": hashlib.sha256(data).hexdigest()}
        if command != "simulate":   # the report holds the model it parsed
            assert report["results"]["model"] == json.loads(pathlib.Path(model).read_bytes())
