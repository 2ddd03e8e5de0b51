"""Acceptance battery: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the CRITERION lines
inline; without -s they appear for failing tests only (pytest captures stdout
of passing ones, whose -v status line carries the same verdict).

Every tolerance below is the contractual one.  Monte Carlo tests use fixed
master seeds; nothing is tuned per run.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import cdf_interpolant, ks_statistic, ks_threshold

import harnacklab
from harnacklab.cli import main as cli_main
from harnacklab.density import (
    check_truncated_bounds,
    estimate_bound_constants,
    phi_envelope,
    stable_density,
    stable_density_grid,
    tail_convexity_profile,
    truncated_density,
    truncated_density_estimate,
)
from harnacklab.harnack_lab import (
    default_ratio_grid,
    jensen_suite,
    verify_harnack,
    verify_log_harnack,
    verify_p_harnack,
    verify_ratio_lemma,
    young_suite,
)
from harnacklab.levy_core import (
    OUSpec,
    StableSpec,
    TruncatedStableSpec,
    compute_sigma,
    symbol,
)
from harnacklab.ou_semigroup import factorization_check
from harnacklab.reports import canonical_json
from harnacklab.sampling import (
    SeedSpec,
    empirical_cf,
    sample_rot_stable,
    sample_sym_stable_1d,
)

CAUCHY = StableSpec(d=1, alpha=1.0, c=1.0)
OU_FREE = OUSpec(A=np.zeros((1, 1)), driver=CAUCHY)
TSPEC = TruncatedStableSpec(d=1, alpha=1.0, c=1.0, r=1.0)


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def harnack_free_report():
    """Shared by criteria 6 and 7 (the p -> 1 continuity check)."""
    return verify_harnack(OU_FREE, n=10**5, seed=SeedSpec(61))


@pytest.fixture(scope="module")
def big_kde_estimates():
    """Million-sample truncated KDEs shared by criterion 8's two checks."""
    seed = SeedSpec(81)
    return [
        truncated_density_estimate(TSPEC, t, 10**6, seed=seed.substream(i))
        for i, t in enumerate((0.5, 1.0))
    ]


def test_criterion_01_cauchy_closed_form():
    start = time.time()
    spec = StableSpec(d=1, alpha=1.0, c=1.0 / math.pi)
    worst = 0.0
    for t in (0.5, 1.0, 2.0):
        xs = np.linspace(-10.0, 10.0, 81)
        got = stable_density_grid(spec, t, xs[:, None]).values
        want = t / (math.pi * (t**2 + xs**2))
        worst = max(worst, float(np.max(np.abs(got - want) / want)))
    elapsed = time.time() - start
    ok = worst <= 1e-6 and elapsed < 10.0
    _line(1, ok, f"closed-form density match, max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_scaling_law():
    start = time.time()
    rng = SeedSpec(202).rng()
    worst = 0.0
    for d, alpha in ((1, 0.5), (1, 1.5), (2, 1.0)):
        spec = StableSpec(d=d, alpha=alpha, c=1.0)
        t = rng.uniform(0.1, 2.0, 1000)
        scaled = rng.uniform(0.05, 10.0, 1000)  # |x| in units of t^(1/alpha)
        direction = rng.normal(size=(1000, d))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        for ti, si, ui in zip(t, scaled, direction):
            x = si * ti ** (1.0 / alpha) * ui
            lhs = stable_density(spec, float(ti), x)
            rhs = ti ** (-d / alpha) * stable_density(spec, 1.0, x * ti ** (-1.0 / alpha))
            worst = max(worst, abs(lhs - rhs) / rhs)
    elapsed = time.time() - start
    ok = worst <= 1e-6 and elapsed < 60.0
    _line(2, ok, f"self-similarity on 3x1000 nodes, max rel err {worst:.2e}, {elapsed:.0f}s")


def test_criterion_03_two_sided_bound():
    start = time.time()
    slack = 1e-9
    details = []
    violations = 0
    for d, alpha in ((1, 0.5), (1, 1.0), (2, 1.0)):
        spec = StableSpec(d=d, alpha=alpha, c=1.0)
        train = np.linspace(0.0, 22.0, 12)[1:, None] * np.eye(d)[:1]
        consts = estimate_bound_constants(spec, [1.0], train)
        for t in (0.1, 0.37, 0.8, 1.4, 2.0):
            for s in (0.05, 0.15, 0.45, 1.3, 2.7, 5.5, 9.5, 14.5, 19.9):
                x = np.zeros(d)
                x[0] = s * t ** (1.0 / alpha)
                p = stable_density(spec, t, x)
                env = float(phi_envelope(d, alpha, t, s * t ** (1.0 / alpha)))
                if p < consts.c1_hat * env * (1.0 - slack):
                    violations += 1
                if p > consts.c2_hat * env * (1.0 + slack):
                    violations += 1
        details.append(f"d={d},a={alpha}: [{consts.c1_hat:.3g},{consts.c2_hat:.3g}]")
    elapsed = time.time() - start
    ok = violations == 0 and elapsed < 120.0
    _line(3, ok, f"{violations} envelope violations on validation grids; "
                 f"{'; '.join(details)}; {elapsed:.0f}s")


def test_criterion_04_ratio_lemma():
    start = time.time()
    grid = default_ratio_grid(1, 1.0)
    report = verify_ratio_lemma(CAUCHY, grid=grid, validation=True)
    elapsed = time.time() - start
    ok = (
        len(grid) >= 10**4
        and report.violations == []
        and report.passed
        and math.isfinite(report.fitted_C)
        and elapsed < 300.0
    )
    counts = report.grid_meta["case_counts"]
    _line(4, ok, f"{len(grid)} nodes ({counts}), 0 case/global violations, "
                 f"fitted {report.fitted_C:.3g} <= lemma "
                 f"{report.mc_meta['lemma_constant']:.3g}, {elapsed:.0f}s")


def test_criterion_05_sampler_fidelity():
    start = time.time()
    n = 10**5
    level = 0.01
    ks_results = []
    ks_ok = True
    for i, alpha in enumerate((0.5, 1.0, 1.5)):
        spec = StableSpec(d=1, alpha=alpha, c=1.0)
        t = 1.0
        scale = (t * compute_sigma(1, alpha) * spec.c) ** (1.0 / alpha)
        samples = sample_sym_stable_1d(alpha, scale, n, SeedSpec(505).substream(i))
        F = cdf_interpolant(spec, t)
        D = ks_statistic(samples, F)
        ks_ok = ks_ok and D < ks_threshold(n, level)
        ks_results.append(f"a={alpha}: D={D:.4f}")

    spec2 = StableSpec(d=2, alpha=1.0, c=1.0)
    t2 = 0.3
    samples2 = sample_rot_stable(spec2, t2, n, SeedSpec(506))
    root = math.sqrt(0.5)
    xis = 0.9 * np.array([[1.0, 0.0], [0.0, 1.0], [root, root], [0.6, 0.8]])
    means, ses = empirical_cf(samples2, xis)
    exact = math.exp(-t2 * compute_sigma(2, 1.0) * 0.9)
    iso_ok = all(abs(m - exact) <= 3.0 * se for m, se in zip(means, ses))
    spread = float(np.max(means) - np.min(means))
    pair_ok = all(
        abs(means[i] - means[j]) <= 3.0 * math.hypot(ses[i], ses[j])
        for i in range(len(means))
        for j in range(i + 1, len(means))
    )
    elapsed = time.time() - start
    ok = ks_ok and iso_ok and pair_ok and elapsed < 120.0
    _line(5, ok, f"KS at level {level} ({'; '.join(ks_results)}, "
                 f"threshold {ks_threshold(n, level):.4f}); rotational cf spread "
                 f"{spread:.1e} within 3se; {elapsed:.0f}s")


def test_criterion_06_harnack(harnack_free_report):
    start = time.time()
    rep0 = harnack_free_report
    ok = (
        rep0.inequality_id == "harnack_stable"
        and math.isfinite(rep0.fitted_C)
        and rep0.fitted_C >= 1.0
        and rep0.mc_meta["stability_ok"] is True
        and rep0.passed
    )
    fits = [f"A=0: {rep0.fitted_C:.4g}"]
    for a in (0.5, 1.0):
        rep = verify_harnack(
            OUSpec(A=np.array([[a]]), driver=CAUCHY), n=10**5, seed=SeedSpec(62)
        )
        ok = ok and (
            rep.inequality_id == "harnack_ou"
            and rep.mc_meta["time_scale"] == "capped"
            and math.isfinite(rep.fitted_C)
            and rep.fitted_C >= 1.0
            and rep.mc_meta["stability_ok"] is True
            and rep.passed
        )
        fits.append(f"|A|={a}: {rep.fitted_C:.4g} (val {rep.validation_C:.4g})")
    elapsed = time.time() - start
    ok = ok and elapsed < 600.0
    _line(6, ok, f"fitted C finite, >= 1, stable within 25%: {'; '.join(fits)}; {elapsed:.0f}s")


def test_criterion_07_p_harnack(harnack_free_report):
    start = time.time()
    rep = verify_p_harnack(OU_FREE, p_list=(1.5, 2.0, 4.0), n=10**5, seed=SeedSpec(71))
    per_p = rep.mc_meta["per_p_fitted"]
    ok = (
        rep.passed
        and set(per_p) == {"1.5", "2.0", "4.0"}
        and all(math.isfinite(v) and v > 0.0 for v in per_p.values())
        and rep.mc_meta["jensen_failures"] == 0
    )
    # p -> 1 continuity: same seed as the plain run, so shared noise cancels
    near_one = verify_p_harnack(
        OU_FREE, p_list=(1.001,), n=10**5, seed=SeedSpec(61), validation=False
    )
    ref = harnack_free_report.fitted_C
    drift = abs(near_one.fitted_C - ref) / ref
    ok = ok and drift <= 0.05
    elapsed = time.time() - start
    ok = ok and elapsed < 600.0
    _line(7, ok, f"per-p fits {per_p}; p=1.001 vs plain rel diff {drift:.2e}; {elapsed:.0f}s")


def test_criterion_08_truncated_bounds(big_kde_estimates):
    start = time.time()
    consts = check_truncated_bounds(TSPEC, (0.5, 1.0), big_kde_estimates)
    cs = [consts.c1, consts.c2, consts.c3, consts.c4, consts.c5, consts.c6, consts.c7]
    tail_viol = consts.grid_meta["tail_violations"]
    ok = (
        all(math.isfinite(c) and c > 0.0 for c in cs)
        and consts.grid_meta["tail_fit"] == "ok"
        and consts.grid_meta["bulk_violations"] == 0
        and tail_viol == {"upper": 0, "lower": 0}
    )
    # probe the t = 0.5 estimate: there the radii sit at 3-6 diffusive scales,
    # inside the superexponential regime the shape describes (at t = 1 the
    # same radii still straddle the bulk shoulder, where the profile dips)
    radii, g, se_g = tail_convexity_profile(big_kde_estimates[0], radii=(1.5, 2.0, 3.0))
    convex_ok = bool(g[0] < g[1] < g[2])
    significant = bool(np.all(np.diff(g) > 2.0 * (se_g[:-1] + se_g[1:])))
    elapsed = time.time() - start
    ok = ok and convex_ok and significant and elapsed < 300.0
    _line(8, ok, f"c1..c7 fitted {['%.3g' % c for c in cs]}, 0 violations at fit; "
                 f"-log p/|x| at (1.5,2,3) = {np.round(g, 3).tolist()} increasing "
                 f"beyond 2se; {elapsed:.0f}s")


def test_criterion_08_exact_density_agrees(big_kde_estimates):
    # criterion 8's witness on the exact d=1 density, with no noise, and the
    # exact values against the seed-81 KDEs criterion 8 reads, within 3 SE in
    # every bin criterion 8 fits (standard error at most 30% of the estimate)
    radii = np.array([1.5, 2.0, 3.0])
    g = -np.log(truncated_density(TSPEC, 0.5, radii)) / radii
    assert g[0] < g[1] < g[2]
    for grid in big_kde_estimates:
        se = grid.meta["se"]
        good = (grid.values > 0.0) & (se <= 0.3 * grid.values)
        exact = truncated_density(TSPEC, grid.t, grid.points[good, 0])
        worst = float(np.max(np.abs(grid.values[good] - exact) / se[good]))
        assert worst <= 3.0, f"t={grid.t}: KDE {worst:.2f} SE off the exact density"


def test_criterion_09_log_harnack():
    start = time.time()
    rep = verify_log_harnack(OU_FREE, n=10**5, seed=SeedSpec(91))
    ok = (
        rep.passed
        and math.isfinite(rep.fitted_C)
        and rep.mc_meta["x_equals_y_C"] == 0.0
        and rep.violations == []
    )
    elapsed = time.time() - start
    ok = ok and elapsed < 600.0
    _line(9, ok, f"fitted C {rep.fitted_C:.4g} finite with f >= 1; "
                 f"x=y nodes hold at C=0 exactly; {elapsed:.0f}s")


def test_criterion_10_young_jensen_suites():
    start = time.time()
    young = young_suite(n_cases=1000, seed=SeedSpec(101))
    jensen = jensen_suite(n_cases=1000, seed=SeedSpec(102))
    ok = (
        young.violations == []
        and jensen.violations == []
        and young.mc_meta["min_margin"] >= -1e-12
        and jensen.mc_meta["min_margin"] >= -1e-12
        and young.passed
        and jensen.passed
    )
    elapsed = time.time() - start
    ok = ok and elapsed < 5.0
    _line(10, ok, f"2x1000 randomized instances, 0 violations, min margins "
                  f"{young.mc_meta['min_margin']:.1e} / "
                  f"{jensen.mc_meta['min_margin']:.1e}; {elapsed:.1f}s")


def test_criterion_11_factorization():
    start = time.time()
    ok = True
    excesses = []
    for a in (0.0, 0.5, 1.0):
        spec = OUSpec(A=np.array([[a]]), driver=CAUCHY)
        for t in (0.25, 1.0):
            rep = factorization_check(spec, t)
            ok = ok and rep.passed and rep.probes.shape[0] == 10
            excesses.append(rep.max_excess)
            if a == 0.0:
                exact = np.exp(-t * symbol(CAUCHY, rep.probes))
                ok = ok and bool(np.max(np.abs(rep.mu_hat - exact)) <= 1e-8)
    elapsed = time.time() - start
    ok = ok and elapsed < 30.0
    _line(11, ok, f"|pi_hat| <= 1+1e-8 at 10 probes for 6 (A, t) pairs "
                  f"(max excess {max(excesses):.1e}); A=0 reduces to exp(-t psi) "
                  f"within 1e-8; {elapsed:.0f}s")


def test_criterion_12_determinism(tmp_path):
    start = time.time()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"driver": "stable", "d": 1, "alpha": 1.0, "c": 1.0}))
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({
        "t_values": [0.5], "offsets": [0.0, 1.0], "n": 4000, "n_z": 8,
        "n_cases": 50, "validation": False,
    }))
    docs = {}
    for ineq in ("harnack_stable", "ratio_lemma"):
        for threads in ("1", "4"):
            for rerun in ("a", "b"):
                out = tmp_path / f"{ineq}_{threads}_{rerun}"
                rc = cli_main([
                    "verify", "--spec", str(cfg), "--grid", str(grid),
                    "--inequality", ineq, "--seed", "12", "--threads", threads,
                    "--out", str(out),
                ])
                assert rc == 0
                docs[(ineq, threads, rerun)] = canonical_json(
                    json.loads((out / f"report_{ineq}.json").read_text())
                )
    same = all(
        docs[(ineq, "1", "a")] == docs[(ineq, th, rr)]
        for ineq in ("harnack_stable", "ratio_lemma")
        for th in ("1", "4")
        for rr in ("a", "b")
    )
    elapsed = time.time() - start
    ok = same and elapsed < 60.0
    _line(12, ok, f"verify reruns with threads in {{1,4}} canonically identical "
                  f"for harnack_stable and ratio_lemma; {elapsed:.0f}s")


def test_reports_do_not_depend_on_blas_threads(tmp_path):
    # next to criterion 12: its threads are the CLI's --threads; these are
    # BLAS's, which split a dot product over 10,000 elements across threads.
    # d=2, alpha=1.5 with A = 0.5 I at n = 2e4 has arrays that long
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"driver": "stable", "d": 2, "alpha": 1.5, "c": 1.0, "A": [[0.5, 0.0], [0.0, 0.5]]}
    ))
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"n": 20000, "validation": False}))
    src = str(Path(harnacklab.__file__).resolve().parents[1])
    digests = set()
    for threads in ("1", "4"):
        out = tmp_path / f"blas_{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        subprocess.run(
            [sys.executable, "-m", "harnacklab", "verify", "--spec", str(cfg), "--grid", str(grid),
             "--inequality", "harnack_ou", "--seed", "1", "--out", str(out)],
            env=env, check=True, capture_output=True,
        )
        doc = json.loads((out / "report_harnack_ou.json").read_text())
        digests.add(hashlib.sha256(canonical_json(doc).encode()).hexdigest())
    assert len(digests) == 1
