"""Command line front end.

Subcommands: density (transition density values), sample (raw increment
dumps), estimate (Monte Carlo semigroup values), verify (inequality
verification with constant fitting).

Exit codes: 0 success / all verifications passed; 2 a verification ran to
completion and failed (violations are written next to the report); 1
operational errors (bad flags, malformed config, unknown inequality id) and
numerical failures (quadrature, density estimate, sampler calibration), each
reported as one ``harnacklab: error:`` line.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__
from .density import DensityEstimateError, DensityGrid, stable_density_grid, truncated_density
from .harnack_lab import (
    INEQUALITY_IDS,
    default_comparison_grid,
    default_ratio_grid,
    jensen_suite,
    verify_harnack,
    verify_log_harnack,
    verify_p_harnack,
    verify_ratio_lemma,
    verify_truncated_ratio,
    young_suite,
)
from .levy_core import OUSpec, QuadratureError, StableSpec, TruncatedStableSpec, describe_spec
from .ou_semigroup import SemigroupSampler, ball_indicator, constant, gaussian_bump
from .reports import (
    indented_json,
    timestamp,
    validate_config,
    validate_grid_override,
    write_report,
    write_samples_dump,
)
from .sampling import SeedSpec, sample_rot_stable, sample_truncated_stable

__all__ = ["main"]


class CLIError(Exception):
    """Operational failure that should exit with status 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; 2 is reserved for verification failures
    def error(self, message):
        raise CLIError(message)


def _read_json(path: str, what: str, validate) -> dict:
    """The JSON document in ``path`` as ``validate`` hands it on, refusing
    the NaN and infinite numbers that Python's json module would accept."""

    def finite(literal: str) -> float:
        value = float(literal)
        if not math.isfinite(value):
            raise CLIError(f"{what} {path} holds the non-finite number {literal}")
        return value

    try:
        doc = json.loads(Path(path).read_text(), parse_float=finite, parse_constant=finite)
    except OSError as exc:
        raise CLIError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CLIError(f"{what} {path} is not valid JSON: {exc}") from exc
    validate(doc)
    return doc


def _driver_from_config(cfg: dict):
    common = dict(d=cfg["d"], alpha=cfg["alpha"], c=cfg.get("c", 1.0))
    if cfg["driver"] == "stable":
        return StableSpec(**common)
    return TruncatedStableSpec(**common, r=cfg.get("r", 1.0))


def _ou_from_config(cfg: dict) -> OUSpec:
    driver = _driver_from_config(cfg)
    A = np.array(cfg["A"], dtype=float) if "A" in cfg else np.zeros((driver.d, driver.d))
    if A.shape != (driver.d, driver.d):
        raise CLIError(f"drift matrix must be {driver.d}x{driver.d}, got {A.shape}")
    return OUSpec(A=A, driver=driver)


def _parse_vector(text: str, d: int, flag: str) -> np.ndarray:
    try:
        vec = np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError as exc:
        raise CLIError(f"{flag} expects comma-separated floats, got {text!r}") from exc
    if vec.size != d:
        raise CLIError(f"{flag} must have {d} components, got {vec.size}")
    if not np.all(np.isfinite(vec)):
        raise CLIError(f"{flag} must be finite, got {text!r}")
    return vec


@cache
def _build_parser() -> _Parser:
    # built once per process: parse_args leaves the parser unchanged
    parser = _Parser(prog="harnacklab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"harnacklab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--spec", required=True, help="JSON process config file")
    common.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    common.add_argument("--out", help="output path")

    p_density = sub.add_parser("density", parents=[common], help="transition density values")
    p_density.add_argument("--t", type=float, required=True)
    p_density.add_argument("--x", action="append", help="point, comma-separated; repeatable")
    p_density.add_argument("--radii", help="comma-separated radii along the first axis")
    p_density.add_argument(
        "--threads", type=int, default=1, help="accepted for compatibility; has no effect"
    )
    p_density.add_argument("--format", choices=["json", "csv", "both"], default="json")

    p_sample = sub.add_parser("sample", parents=[common], help="raw increment dump")
    p_sample.add_argument("--t", type=float, required=True)
    p_sample.add_argument("--n", type=int, required=True)
    p_sample.add_argument("--epsilon", type=float, default=None)

    p_est = sub.add_parser("estimate", parents=[common], help="Monte Carlo P_t f(x)")
    p_est.add_argument("--t", type=float, required=True)
    p_est.add_argument("--x", required=True, help="starting point, comma-separated")
    p_est.add_argument("--n", type=int, default=10**5)
    p_est.add_argument(
        "--f", choices=["ball", "bump", "const"], default="ball", help="test function family"
    )
    p_est.add_argument("--f-center", default="0", help="center, comma-separated")
    p_est.add_argument("--f-scale", type=float, default=1.0)
    p_est.add_argument("--f-value", type=float, default=1.0)

    p_verify = sub.add_parser("verify", parents=[common], help="verify inequalities")
    p_verify.add_argument("--inequality", default="all", help="inequality id or 'all'")
    p_verify.add_argument("--format", choices=["json", "csv", "both"], default="json")
    p_verify.add_argument(
        "--threads", type=int, default=1, help="accepted for compatibility; has no effect"
    )
    p_verify.add_argument("--grid", help="JSON grid-override file")
    return parser


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_density(args) -> int:
    cfg = _read_json(args.spec, "config", validate_config)
    spec = _driver_from_config(cfg)
    points = []
    for text in args.x or []:
        points.append(_parse_vector(text, spec.d, "--x"))
    if args.radii:
        for v in args.radii.split(","):
            vec = np.zeros(spec.d)
            vec[0] = float(v)
            points.append(vec)
    if not points:
        raise CLIError("give at least one of --x or --radii")
    if isinstance(spec, StableSpec):
        grid = stable_density_grid(spec, args.t, np.array(points))
    else:
        points = np.array(points)
        values = truncated_density(spec, args.t, points[:, 0])
        grid = DensityGrid(args.t, points, values, {"clamped": int(np.count_nonzero(values == 0.0))})
    doc = {
        "t": args.t,
        "spec": describe_spec(spec),
        "points": grid.points.tolist(),
        "values": grid.values.tolist(),
        "meta": grid.meta,
        "created_at": timestamp(),
        "version": __version__,
    }
    if args.out is None:
        sys.stdout.write(indented_json(doc))
        return 0
    out = Path(args.out)
    text = indented_json(doc) if args.format in ("json", "both") else None
    out.parent.mkdir(parents=True, exist_ok=True)
    if text is not None:
        out.write_text(text)
    if args.format in ("csv", "both"):
        with out.with_suffix(".csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t"] + [f"x{i+1}" for i in range(spec.d)] + ["value"])
            for p, v in zip(grid.points, grid.values):
                writer.writerow([args.t] + list(p) + [float(v)])
    return 0


def _cmd_sample(args) -> int:
    if args.out is None:
        raise CLIError("sample requires --out (binary dump path)")
    cfg = _read_json(args.spec, "config", validate_config)
    if _has_drift(cfg):
        raise CLIError("sample draws the driver's increments, but the config sets a nonzero drift A")
    spec = _driver_from_config(cfg)
    seed = SeedSpec(args.seed)
    if isinstance(spec, StableSpec):
        if args.epsilon is not None:
            raise CLIError("--epsilon is the small-jump cutoff of a truncated driver; the exact stable sampler has none")
        samples = sample_rot_stable(spec, args.t, args.n, seed)
    else:
        samples = sample_truncated_stable(spec, args.t, args.epsilon, args.n, seed)
    write_samples_dump(
        samples,
        args.out,
        {
            "t": args.t,
            "spec": describe_spec(spec),
            "seed": {"master_seed": args.seed, "stream_id": 0},
            "created_at": timestamp(),
            "version": __version__,
        },
    )
    return 0


def _cmd_estimate(args) -> int:
    cfg = _read_json(args.spec, "config", validate_config)
    ou = _ou_from_config(cfg)
    x = _parse_vector(args.x, ou.d, "--x")
    center = _parse_vector(args.f_center if "," in args.f_center else ",".join([args.f_center] * ou.d), ou.d, "--f-center")
    if args.f == "ball":
        f = ball_indicator(center, args.f_scale)
    elif args.f == "bump":
        f = gaussian_bump(center, args.f_scale)
    else:
        f = constant(args.f_value)
    if args.n < 10**3:
        raise CLIError("semigroup estimation needs n >= 1e3")
    estimate = SemigroupSampler(ou, args.n, SeedSpec(args.seed)).estimate(f, x, args.t)
    doc = {
        "t": args.t,
        "x": x.tolist(),
        "f_tag": f.tag,
        "mean": estimate.mean,
        "std_err": estimate.std_err,
        "n": args.n,
        "seed": {"master_seed": args.seed, "stream_id": 0},
        "spec": describe_spec(ou),
        "created_at": timestamp(),
        "version": __version__,
    }
    text = indented_json(doc)
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text)
    return 0


def _has_drift(cfg: dict) -> bool:
    return "A" in cfg and bool(np.any(np.asarray(cfg["A"], dtype=float) != 0.0))


def _applicable_ids(cfg: dict) -> list[str]:
    if cfg["driver"] == "stable":
        harnack = "harnack_ou" if _has_drift(cfg) else "harnack_stable"
        return [harnack, "p_harnack", "ratio_lemma", "log_harnack", "young", "jensen"]
    # truncated_ratio reads the exact density, which exists for d=1 only
    ratio = ["truncated_ratio"] if cfg["d"] == 1 else []
    return ["log_harnack", *ratio, "young", "jensen"]


def _picked(overrides: dict, *keys: str) -> dict:
    """The entries of overrides under keys, for the ones it sets."""
    return {key: overrides[key] for key in keys if key in overrides}


def _run_one(ineq: str, cfg: dict, seed: SeedSpec, overrides: dict):
    driver = _driver_from_config(cfg)
    ou = _ou_from_config(cfg)
    has_drift = np.any(ou.A != 0.0)
    validation = overrides.get("validation", True)
    grid_kw = _picked(overrides, "t_values", "offsets")
    monte_carlo = {"n": overrides.get("n", 10**5), "seed": seed, "validation": validation}
    comparison_grid = default_comparison_grid(ou.d, **grid_kw) if grid_kw else None

    if ineq in ("harnack_stable", "harnack_ou"):
        if ineq == "harnack_stable" and has_drift:
            raise CLIError("harnack_stable needs a zero drift matrix; use harnack_ou")
        time_scale = "raw" if ineq == "harnack_stable" else "capped"
        return verify_harnack(ou, grid=comparison_grid, time_scale=time_scale, **monte_carlo)
    if ineq == "p_harnack":
        return verify_p_harnack(
            ou, grid=comparison_grid, **_picked(overrides, "p_list"), **monte_carlo
        )
    if ineq == "log_harnack":
        return verify_log_harnack(ou, grid=comparison_grid, **monte_carlo)
    if ineq == "ratio_lemma":
        if not isinstance(driver, StableSpec):
            raise CLIError("ratio_lemma applies to the stable driver")
        kw = {**grid_kw, **_picked(overrides, "n_z")}
        grid = default_ratio_grid(driver.d, driver.alpha, **kw) if kw else None
        return verify_ratio_lemma(driver, grid=grid, seed=seed, validation=validation)
    if ineq == "truncated_ratio":
        if not isinstance(driver, TruncatedStableSpec):
            raise CLIError("truncated_ratio applies to the truncated_stable driver")
        kw = _picked(overrides, "z_count")
        if "t_values" in grid_kw:
            kw["t_grid"] = tuple(grid_kw["t_values"])
        if "offsets" in grid_kw:
            kw["offsets"] = tuple(grid_kw["offsets"])
        return verify_truncated_ratio(driver, seed=seed, validation=validation, **kw)
    if ineq == "young":
        return young_suite(n_cases=overrides.get("n_cases", 1000), seed=seed)
    if ineq == "jensen":
        return jensen_suite(n_cases=overrides.get("n_cases", 1000), seed=seed)
    raise CLIError(f"unhandled inequality id {ineq}")


def _cmd_verify(args) -> int:
    cfg = _read_json(args.spec, "config", validate_config)
    ineq = args.inequality
    valid = INEQUALITY_IDS + ("all",)
    if ineq not in valid:
        raise CLIError(
            f"unknown inequality id {ineq!r}; valid ids: {', '.join(INEQUALITY_IDS)} or 'all'"
        )
    overrides = _read_json(args.grid, "grid override", validate_grid_override) if args.grid else {}

    ids = _applicable_ids(cfg) if ineq == "all" else [ineq]
    # write_report creates the directory with the first report, so a run that
    # fails before it leaves nothing behind
    out_dir = Path(args.out) if args.out else None

    all_passed = True
    for one in ids:
        report = _run_one(one, cfg, SeedSpec(args.seed), overrides)
        doc = report.to_dict()
        doc["version"] = __version__
        doc["created_at"] = timestamp()
        if out_dir is not None:
            write_report(doc, out_dir / f"report_{one}.json", args.format)
        status = "PASS" if report.passed else "FAIL"
        extra = f" validation_C={report.validation_C:.6g}" if report.validation_C is not None else ""
        print(f"{one}: {status} fitted_C={report.fitted_C:.6g}{extra}")
        if not report.passed:
            all_passed = False
            if out_dir is not None:
                violations = {"inequality_id": one, "violations": doc["violations"], "mc_meta": doc["mc_meta"]}
                (out_dir / f"violations_{one}.json").write_text(indented_json(violations))
    return 0 if all_passed else 2


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        run = {"density": _cmd_density, "sample": _cmd_sample, "estimate": _cmd_estimate, "verify": _cmd_verify}
        return run[args.command](args)
    except (CLIError, ValueError, OverflowError, OSError, NotImplementedError, QuadratureError, DensityEstimateError) as exc:
        print(f"harnacklab: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
