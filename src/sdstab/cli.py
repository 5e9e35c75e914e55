"""Command-line interface: bound, verify, design, simulate, report.

Exit codes are stable across commands: 0 success, 1 verified-negative
(certificate FAIL or excessive divergence), 2 infeasible, 3 input error
(an output path that cannot be written included).
Reports are single JSON documents that embed the inputs they were computed
from, so every recorded margin and bound can be reproduced from the report
alone.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from functools import cache, partial
from typing import Optional

import numpy as np

from . import __version__
from .bounds import (
    EmulationConstants,
    GainConstants,
    TwoFunctionConstants,
    check_condition_iii,
    dta_bound,
    emulation_bound_single,
    emulation_bound_two,
    htau_generic,
    single_v_curve,
    solve_qhat_star,
    two_v_curve,
)
from .design import DesignOptions, synthesize_feedback, synthesize_nonlinear_planar
from .errors import (
    DegenerateEnsemble,
    DomainError,
    FormatError,
    InfeasibleError,
    NumericalFailure,
    OutputError,
    ToolkitError,
    ValidationError,
)
from .lmi import LmiCertificate, load_certificate, run_gain, save_certificate, verify_certificate
from .models import (
    NonlinearPlanarModel,
    SamplingSchedule,
    load_model,
    model_from_dict,
    model_to_dict,
    read_input,
    read_json,
)
from .sim import (
    SimConfig,
    ensemble_moments,
    estimate_as_exponent,
    estimate_ms_decay,
    export_ensemble_stats_csv,
    export_trajectories_csv,
    run_ensemble,
    _BLOCK,
    _WINDOW,
    _sq_norm,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INFEASIBLE = 2
EXIT_INPUT = 3


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with the input-error exit code."""

    def error(self, message):
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _read_input(report: dict, name: str, path, what: str) -> bytes:
    """The bytes of an input file, read once: the command parses these bytes,
    and their sha256 goes in report["inputs"][name]."""
    data = read_input(path, what)
    report["inputs"][name] = {"path": str(path), "sha256": hashlib.sha256(data).hexdigest()}
    return data


def _report_skeleton(command, args_list) -> dict:
    return {
        "tool": "sdstab",
        "version": __version__,
        "command": [command] + list(args_list),
        "inputs": {},
        "results": {},
        "wall_time_s": None,
    }


def _save(path, write) -> None:
    """Call write(path); an OSError from it (unwritable path, full disk) is an
    input error, exit 3, never the verified-negative exit 1."""
    try:
        write(path)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc


def _write_text(text: str, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _emit_report(report: dict, out: Optional[str]) -> None:
    if out:
        _save(out, partial(_write_text, json.dumps(report, indent=2, allow_nan=False) + "\n"))


def _print_kv(key: str, value) -> None:
    if isinstance(value, float):
        print(f"{key} = {value:.10g}")
    else:
        print(f"{key} = {value}")


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------

def _load_constants_file(path) -> dict:
    doc = read_json(path, "constants")
    if not isinstance(doc, dict):
        raise FormatError("constants file must hold a JSON object")
    return doc


def _flag(args, doc, name, default=None):
    v = getattr(args, name, None)
    if v is None:
        v = doc.get(name, default)
    if v is None:
        raise FormatError(f"missing constant {name!r} (flag --{name.replace('_', '-')})")
    try:
        return float(v)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"constant {name!r} is not a number: {v!r}") from exc


def cmd_bound(args, argv) -> int:
    report = _report_skeleton("bound", argv)
    doc = _load_constants_file(args.constants) if args.constants else {}
    t0 = time.perf_counter()
    if args.mode == "generic":
        g = GainConstants(
            alpha1=_flag(args, doc, "alpha1"),
            alpha2=_flag(args, doc, "alpha2", 0.0),
            alphat1=_flag(args, doc, "alphat1", 0.0),
            alphat2=_flag(args, doc, "alphat2"),
            beta1=_flag(args, doc, "beta1", 0.0),
            beta2=_flag(args, doc, "beta2", 0.0),
            beta3=_flag(args, doc, "beta3", 0.0),
        )
        if args.q is not None:
            cond = check_condition_iii(g)
            if not cond.ok:
                raise InfeasibleError(f"condition value {cond.value:.6g} >= 1")
            if not cond.value < args.q < 1.0:  # NaN fails too
                raise DomainError(f"q must lie in ({cond.value:.6g}, 1), got {args.q}")
            res_tau = htau_generic(args.q, g)
            result = {"tau_max": res_tau, "q_star": args.q, "provenance": "generic-at-q"}
        else:
            res = solve_qhat_star(g)
            result = {"tau_max": res.tau_max, "q_star": res.q_star, "provenance": res.provenance,
                      "auxiliary": _plain(res.auxiliary)}
        report["results"]["constants"] = {
            "alpha1": g.alpha1, "alpha2": g.alpha2, "alphat1": g.alphat1, "alphat2": g.alphat2,
            "beta1": g.beta1, "beta2": g.beta2, "beta3": g.beta3,
        }
    elif args.mode == "single-v":
        c = EmulationConstants(
            alpha_bar=_flag(args, doc, "alpha"),
            alpha_b=_flag(args, doc, "alpha_b"),
            alpha_f=_flag(args, doc, "alpha_f"),
        )
        res = emulation_bound_single(c)
        result = {"tau_max": res.tau_max, "q_star": res.q_star, "provenance": res.provenance,
                  "auxiliary": _plain(res.auxiliary)}
        report["results"]["constants"] = {"alpha": c.alpha_bar, "alpha_b": c.alpha_b, "alpha_f": c.alpha_f}
    elif args.mode == "two-v":
        c = TwoFunctionConstants(
            alpha_bar=_flag(args, doc, "alpha"),
            alpha_b=_flag(args, doc, "alpha_b"),
            gamma1=_flag(args, doc, "gamma1"),
            gamma2=_flag(args, doc, "gamma2"),
        )
        res = emulation_bound_two(c)
        result = {"tau_max": res.tau_max, "q_star": res.q_star, "provenance": res.provenance}
        report["results"]["constants"] = {
            "alpha": c.alpha_bar, "alpha_b": c.alpha_b, "gamma1": c.gamma1, "gamma2": c.gamma2,
        }
    else:  # dta
        res = dta_bound(
            c_bar=_flag(args, doc, "c_bar"),
            h=_flag(args, doc, "h"),
            alpha_u=_flag(args, doc, "alpha_u"),
            alpha_b=_flag(args, doc, "alpha_b"),
            alpha_f=_flag(args, doc, "alpha_f"),
        )
        result = {"tau_max": res.tau_max, "q_star": res.q_star, "provenance": res.provenance,
                  "auxiliary": _plain(res.auxiliary)}
        report["results"]["constants"] = {
            k: result["auxiliary"][k] for k in ("alpha_bar", "c_bar", "h", "alpha_u")
        }
    report["results"].update(result)
    report["results"]["mode"] = args.mode
    report["wall_time_s"] = time.perf_counter() - t0
    _print_kv("tau_max", result["tau_max"])
    _print_kv("q_star", result["q_star"])
    for key in ("b1_star", "b2_star", "r_star"):
        aux = result.get("auxiliary", {})
        if key in aux:
            _print_kv(key, aux[key])
    _emit_report(report, args.out)
    return EXIT_OK


def _plain(obj):
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (tuple, list)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.floating, np.integer)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    return str(obj)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args, argv) -> int:
    report = _report_skeleton("verify", argv)
    model = load_model(args.model, _read_input(report, "model", args.model, "model"))
    cert = load_certificate(args.cert, _read_input(report, "cert", args.cert, "certificate"))
    t0 = time.perf_counter()
    outcome = verify_certificate(model, cert, tol=args.tol)
    report["results"] = {
        "form": outcome.form,
        "tol": outcome.tol,
        "margins": outcome.margins,
        "scales": outcome.scales,
        "passed": outcome.passed,
        "implies_almost_sure": outcome.implies_almost_sure,
        "tau_max": outcome.tau_max,
        "q_star": outcome.q_star,
        "model": model_to_dict(model),
        "certificate": cert.to_dict(),
    }
    report["wall_time_s"] = time.perf_counter() - t0
    for name, margin in outcome.margins.items():
        print(f"margin[{name}] = {margin:.6e}  (scale {outcome.scales[name]:.3e})")
    print("PASS" if outcome.passed else "FAIL")
    if outcome.passed and outcome.tau_max is not None:
        _print_kv("tau_max", outcome.tau_max)
        print("stability: mean-square exponential; almost-sure exponential (implied)")
    _emit_report(report, args.out)
    return EXIT_OK if outcome.passed else EXIT_NEGATIVE


def reverify_report(report: dict) -> dict:
    """Recompute the margins recorded in a verify report from its own payload."""
    res = report.get("results", {})
    model = model_from_dict(res["model"])
    cert = LmiCertificate.from_dict(res["certificate"])
    outcome = verify_certificate(model, cert, tol=res.get("tol", 1e-2))
    return outcome.margins


# ---------------------------------------------------------------------------
# design
# ---------------------------------------------------------------------------

def _parse_fraction(text: str) -> float:
    """--alpha-fraction: a number strictly between 0 and 1."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value < 1.0:  # NaN fails too
        raise argparse.ArgumentTypeError(f"expected a number in (0, 1), got {text!r}")
    return value


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",")])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None


def cmd_design(args, argv) -> int:
    report = _report_skeleton("design", argv)
    model = load_model(args.model, _read_input(report, "model", args.model, "model"))
    options = DesignOptions(alpha_fraction=args.alpha_fraction)
    t0 = time.perf_counter()
    if isinstance(model, NonlinearPlanarModel):
        result = synthesize_nonlinear_planar(options, model=model)
    else:
        result = synthesize_feedback(model, options)
    import scipy  # loaded by the design search already; `import sdstab.cli` loads no scipy

    report["results"] = {
        "gain": result.gain.tolist(),
        "gain_norm": float(np.linalg.norm(result.gain)),
        "tau_max": result.bound.tau_max,
        "q_star": result.bound.q_star,
        "constants": {
            "alpha": result.constants.alpha_bar,
            "alpha_b": result.constants.alpha_b,
            "gamma1": result.constants.gamma1,
            "gamma2": result.constants.gamma2,
        },
        "trace": _plain(result.trace),
        # the design's bits depend on scipy's differential_evolution and lambertw, and on
        # numpy's LAPACK
        "search": {"numpy": np.__version__, "scipy": scipy.__version__},
        "model": model_to_dict(model),
        "certificate": result.certificate.to_dict(),
    }
    report["wall_time_s"] = time.perf_counter() - t0
    _print_kv("tau_max", result.bound.tau_max)
    _print_kv("gain_norm", float(np.linalg.norm(result.gain)))
    print(f"K_hat = {result.gain.tolist()}")
    if args.cert_out:
        _save(args.cert_out, partial(save_certificate, result.certificate))
        print(f"certificate written to {args.cert_out}")
    _emit_report(report, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args, argv) -> int:
    report = _report_skeleton("simulate", argv)
    model = load_model(args.model, _read_input(report, "model", args.model, "model"))
    if args.cert:
        cert = load_certificate(args.cert, _read_input(report, "cert", args.cert, "certificate"))
        gain = run_gain(model, cert)  # refuses a certificate gain other than the one run
        if gain is not None:
            model = model.with_gain(gain)
    if model.B_bar is None:
        raise ValidationError("model gain unresolved; pass --cert with K_hat or Q/Y")
    schedule = SamplingSchedule.parse(args.schedule)
    dt_sim = args.dt_sim if args.dt_sim is not None else schedule.underline_dt / 10.0
    cfg = SimConfig(
        schedule=schedule,
        horizon=args.horizon,
        dt_sim=dt_sim,
        n_paths=args.paths,
        seed=args.seed,
        store_stride=args.store_stride,
        x0=args.x0,
    )
    t0 = time.perf_counter()
    # only the trajectory CSV needs every stored state; the statistics fold chunk by chunk
    if args.traj_out:
        ens = run_ensemble(model, cfg, workers=args.workers)
    else:
        ens = ensemble_moments(model, cfg, workers=args.workers)
    t_integrated = time.perf_counter()
    frac_diverged = ens.n_diverged / ens.n_paths
    terminal = float(ens.mean_sq()[-1])
    results = {
        "n_paths": ens.n_paths,
        "n_diverged": ens.n_diverged,
        "schedule": args.schedule,
        "horizon": args.horizon,
        "dt_sim": dt_sim,
        "seed": args.seed,
        # the normals of a seed are those of this numpy: NEP 19 fixes the raw Philox words
        # across numpy versions, but not Generator.standard_normal
        "noise": {"B": _BLOCK, "W": _WINDOW, "numpy": np.__version__},
        "terminal_mean_sq": None if np.isnan(terminal) else terminal,
        "terminal_mean_sq_se": _terminal_mean_sq_se(ens),
    }
    try:
        decay = estimate_ms_decay(ens)
        results["ms_decay"] = {
            "rate": decay.rate, "intercept": decay.intercept,
            "r_squared": decay.r_squared, "window": list(decay.window),
        }
        _print_kv("ms_decay_rate", decay.rate)
        _print_kv("ms_decay_r_squared", decay.r_squared)
    except DegenerateEnsemble as exc:
        results["ms_decay"] = None
        print(f"note: mean-square decay estimate unavailable ({exc})")
    try:
        expo = estimate_as_exponent(ens)
        results["as_exponent"] = {
            "median": expo.median, "max": expo.max,
            "t_used": expo.t_used, "n_zero": expo.n_zero,
        }
        _print_kv("as_exponent_median", expo.median)
    except (DegenerateEnsemble, DomainError) as exc:
        results["as_exponent"] = None
        print(f"note: pathwise exponent estimate unavailable ({exc})")
    report["results"] = results
    t_done = time.perf_counter()
    report["wall_time_s"] = t_done - t0
    report["stage_s"] = {"integrate": t_integrated - t0, "estimate": t_done - t_integrated}
    if args.traj_out:
        _save(args.traj_out, partial(export_trajectories_csv, ens))
        print(f"trajectories written to {args.traj_out}")
    if args.stats_out:
        _save(args.stats_out, partial(export_ensemble_stats_csv, ens))
        print(f"ensemble stats written to {args.stats_out}")
    _print_kv("diverged_fraction", frac_diverged)
    _emit_report(report, args.out)
    if frac_diverged > 0.5:
        print("FAIL: more than half of the paths diverged")
        return EXIT_NEGATIVE
    return EXIT_OK


def _terminal_mean_sq_se(ens) -> Optional[float]:
    """Monte Carlo standard error of E|x(T)|^2: the sample standard deviation
    of |x(T)|^2 over the alive paths over the root of their count.

    The squares are scaled by the power of two above the largest one, so the
    deviations' squares cannot overflow, and the error then cannot exceed that
    square; scaling by a power of two is exact, so the result is that of the
    unscaled formula wherever that one neither overflows nor underflows.
    """
    last = ens.terminal[ens.terminal_alive]
    if len(last) < 2:
        return None
    with np.errstate(over="ignore"):   # an overflowing square is reported below
        sq = _sq_norm(last)
    top = sq.max()
    if not math.isfinite(top):
        print("note: terminal mean-square standard error unavailable (|x(T)|^2 overflows)")
        return None
    _, e = np.frexp(top)
    return float(np.ldexp(np.ldexp(sq, -e).std(ddof=1) / math.sqrt(len(sq)), e))


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def _curve_points(path, results: dict, n: int = 200):
    """tau(q) curve samples for a bound-style result, over the admissible interval."""
    mode = results.get("mode")
    cs = results.get("constants", {})
    qs = np.linspace(1e-4, 1.0 - 1e-4, n)
    if mode == "two-v":
        c = TwoFunctionConstants(cs["alpha"], cs["alpha_b"], cs["gamma1"], cs["gamma2"])
        return [(float(q), two_v_curve(float(q), c)) for q in qs]
    if mode == "single-v":
        c = EmulationConstants(cs["alpha"], cs["alpha_b"], cs["alpha_f"])
        q_star = results["q_star"]
        return [(float(q), single_v_curve(float(q), c, q_star)) for q in qs]
    if mode == "generic":
        g = GainConstants(
            alpha1=cs["alpha1"], alpha2=cs["alpha2"],
            alphat1=cs["alphat1"], alphat2=cs["alphat2"],
            beta1=cs.get("beta1", 0.0), beta2=cs.get("beta2", 0.0), beta3=cs.get("beta3", 0.0),
        )
        value = check_condition_iii(g).value
        lo = max(value, 1e-4) + 1e-6
        if not lo < 1.0 - 1e-4:  # NaN fails too
            raise FormatError(
                f"bound report {path}: condition value {value!r} leaves no admissible q interval"
            )
        qs = np.linspace(lo, 1.0 - 1e-4, n)
        return [(float(q), htau_generic(float(q), g)) for q in qs]
    return None


def _report_field(path, key: str, value, kind: str):
    """A checked field of a run report: None if absent, else a finite float, a bool or text.

    Raises FormatError for any other shape, so that a malformed report never
    reaches the table and CSV formatting below.
    """
    if value is None:
        return None
    if kind == "number" and isinstance(value, (int, float)) and not isinstance(value, bool):
        # JSON ints are unbounded; NaN and Infinity are not JSON, and --out writes none
        if abs(value) <= sys.float_info.max:
            return float(value)
    elif kind == "bool" and isinstance(value, bool):
        return value
    elif kind == "text" and isinstance(value, str) and value.isprintable():
        return value
    raise FormatError(f"report {path}: {key} must be {kind}, got {type(value).__name__}")


def _report_row(path, rep: dict) -> dict:
    """The summary row of one run report, with every field shape checked."""
    res = rep.get("results", {})
    command = rep.get("command", [])
    if not isinstance(command, list):
        raise FormatError(f"report {path}: command must be a list, got {type(command).__name__}")
    model = res.get("model")
    decay = res.get("ms_decay")
    if decay is not None and not isinstance(decay, dict):
        raise FormatError(f"report {path}: ms_decay must be an object, got {type(decay).__name__}")
    return {
        "report": str(path),
        "command": _report_field(path, "command", (command or [None])[0], "text") or "?",
        "model": (_report_field(path, "model name", model.get("name"), "text")
                  if isinstance(model, dict) else None) or "-",
        "tau_max": _report_field(path, "tau_max", res.get("tau_max"), "number"),
        "gain_norm": _report_field(path, "gain_norm", res.get("gain_norm"), "number"),
        "ms_decay_rate": _report_field(path, "ms_decay rate", (decay or {}).get("rate"), "number"),
        "passed": _report_field(path, "passed", res.get("passed"), "bool"),
    }


def cmd_report(args, argv) -> int:
    if not args.reports:
        print("error: no report files given", file=sys.stderr)
        return EXIT_INPUT
    rows = []
    curve_rows = []
    for path in args.reports:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                rep = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON or UTF-8
            raise FormatError(f"cannot read report {path}: {exc}") from exc
        if not isinstance(rep, dict) or not isinstance(rep.get("results", {}), dict):
            raise FormatError(f"report {path} is not a run report object")
        if rep.get("version") != __version__:
            print(f"warning: report {path} from version {rep.get('version')!r:.40}", file=sys.stderr)
        row = _report_row(path, rep)
        rows.append(row)
        if row["command"] == "bound":
            try:
                pts = _curve_points(path, rep.get("results", {}))
            except (KeyError, TypeError, ArithmeticError) as exc:
                raise FormatError(f"bound report {path} has no usable constants ({exc!r})") from exc
            if pts:
                for q, tau in pts:
                    curve_rows.append((str(path), q, tau))
    header = f"{'command':10s} {'model':20s} {'tau_max':>12s} {'|K|':>10s} {'decay':>10s} {'passed':>7s}"
    print(header)
    for r in rows:
        tau = "-" if r["tau_max"] is None else f"{r['tau_max']:.6g}"
        gn = "-" if r["gain_norm"] is None else f"{r['gain_norm']:.4g}"
        dr = "-" if r["ms_decay_rate"] is None else f"{r['ms_decay_rate']:.4g}"
        ps = "-" if r["passed"] is None else str(r["passed"])
        print(f"{r['command']:10s} {r['model'][:20]:20s} {tau:>12s} {gn:>10s} {dr:>10s} {ps:>7s}")
    if args.curve_out and curve_rows:
        lines = ["report,q,tau"] + [f"{path},{q!r},{tau!r}" for path, q, tau in curve_rows]
        _save(args.curve_out, partial(_write_text, "\n".join(lines) + "\n"))
        print(f"curve samples written to {args.curve_out}")
    if args.out:
        if args.format == "csv":
            lines = ["report,command,model,tau_max,gain_norm,ms_decay_rate,passed"]
            for r in rows:
                cells = [r["report"], r["command"], r["model"]]
                cells += ["" if r[k] is None else repr(r[k])
                          for k in ("tau_max", "gain_norm", "ms_decay_rate", "passed")]
                lines.append(",".join(str(c) for c in cells))
            text = "\n".join(lines) + "\n"
        else:
            text = json.dumps({"rows": rows}, indent=2, allow_nan=False) + "\n"
        _save(args.out, partial(_write_text, text))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

@cache   # the tree is immutable once built; parse_args keeps no state in it
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sdstab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"sdstab {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("bound", help="compute a maximum allowable sampling interval")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--generic", dest="mode", action="store_const", const="generic")
    mode.add_argument("--single-v", dest="mode", action="store_const", const="single-v")
    mode.add_argument("--two-v", dest="mode", action="store_const", const="two-v")
    mode.add_argument("--dta", dest="mode", action="store_const", const="dta")
    p.add_argument("--constants", help="JSON file of named constants")
    for flag in ("alpha", "alpha-b", "alpha-f", "alpha1", "alpha2", "alphat1", "alphat2",
                 "beta1", "beta2", "beta3", "gamma1", "gamma2", "c-bar", "h", "alpha-u", "q"):
        p.add_argument(f"--{flag}", dest=flag.replace("-", "_"), type=float, default=None)
    p.add_argument("--out", help="write a JSON run report here")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("verify", help="verify a certificate against a model")
    p.add_argument("--model", required=True)
    p.add_argument("--cert", required=True)
    p.add_argument("--tol", type=float, default=1e-2, help="relative margin tolerance")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("design", help="synthesize a state-feedback gain")
    p.add_argument("--model", required=True)
    p.add_argument("--alpha-fraction", dest="alpha_fraction", type=_parse_fraction, default=0.9,
                   help="share of the largest certifiable rate, in (0, 1): the starting point "
                        "of the linear rate search, the fixed share for the planar plant")
    p.add_argument("--cert-out", dest="cert_out", help="write the certificate here")
    p.add_argument("--out")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("simulate", help="Monte Carlo simulation of the closed loop")
    p.add_argument("--model", required=True)
    p.add_argument("--cert", help="certificate supplying the gain when the model lacks one")
    p.add_argument("--schedule", required=True, help="periodic:dt | uniform:lo,hi | explicit:t1,...")
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--paths", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dt-sim", dest="dt_sim", type=float, default=None)
    p.add_argument("--store-stride", dest="store_stride", type=int, default=1)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--x0", type=_parse_vector, help="comma-separated initial state, overrides the model")
    p.add_argument("--traj-out", dest="traj_out", help="trajectory CSV path")
    p.add_argument("--stats-out", dest="stats_out", help="ensemble stats CSV path")
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("report", help="merge run reports into a summary table")
    p.add_argument("reports", nargs="*")
    p.add_argument("--curve-out", dest="curve_out", help="tau(q) curve CSV for bound reports")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="format of the merged summary written to --out")
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args, argv)
    except (FormatError, ValidationError, DomainError, OutputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (NumericalFailure, ToolkitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE


if __name__ == "__main__":
    sys.exit(main())
