"""Verifier-layer tests: constant fitting, case analysis, small end-to-end runs.

Monte Carlo runs here use deliberately small sample counts.  They pin report
structure, exact behavior at degenerate nodes (x = y under shared noise), and
error paths; the statistically demanding runs live in the acceptance suite.
"""

import gc
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harnacklab import harnack_lab
from harnacklab.density import BoundConstants, stable_density
from harnacklab.harnack_lab import (
    INEQUALITY_IDS,
    SUITE_MAX_DIM,
    _jensen_margins,
    _young_margins,
    InequalityReport,
    Node,
    NodeResult,
    classify_case,
    default_comparison_grid,
    default_ratio_grid,
    default_test_functions,
    fit_constant,
    harnack_shape,
    jensen_suite,
    lemma_ratio_bound,
    log_harnack_cost,
    log_test_functions,
    truncated_ratio_bound,
    validation_comparison_grid,
    validation_ratio_grid,
    verify_harnack,
    verify_log_harnack,
    verify_p_harnack,
    verify_ratio_lemma,
    verify_truncated_ratio,
    young_suite,
)
from harnacklab.levy_core import OUSpec, StableSpec, TruncatedStableSpec
from harnacklab.ou_semigroup import SemigroupSampler, ball_indicator, constant, gaussian_bump
from harnacklab.reports import canonical_json, validate_report
from harnacklab.sampling import SeedSpec

CAUCHY = StableSpec(d=1, alpha=1.0, c=1.0)
OU_FREE = OUSpec(A=np.zeros((1, 1)), driver=CAUCHY)
OU_DRIFT = OUSpec(A=np.array([[0.5]]), driver=CAUCHY)
OU_CONTRACT = OUSpec(A=np.array([[-0.5]]), driver=CAUCHY)
TSPEC = TruncatedStableSpec(d=1, alpha=1.0, c=1.0, r=1.0)
T_GRID = (0.5, 1.0)


def node(t, x, y, z=None):
    return Node(
        t=float(t),
        x=np.atleast_1d(np.asarray(x, dtype=float)),
        y=np.atleast_1d(np.asarray(y, dtype=float)),
        z=None if z is None else np.atleast_1d(np.asarray(z, dtype=float)),
    )


class TestFitConstant:
    def test_single_node(self):
        assert fit_constant([2.0], [1.0]) == 2.0

    def test_max_over_nodes(self):
        assert fit_constant([1.0, 8.0], [1.0, 2.0]) == 4.0

    def test_slack_clips_at_zero(self):
        # a node whose lhs is swallowed by slack asks nothing of C
        assert fit_constant([2.0], [1.0], [3.0]) == 0.0

    def test_scalar_slack_broadcasts(self):
        assert fit_constant([2.0, 3.0], [1.0, 1.0], 1.0) == 2.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fit_constant([], [])

    def test_nonpositive_rhs_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            fit_constant([1.0], [0.0])
        with pytest.raises(ValueError, match="positive"):
            fit_constant([1.0, 1.0], [1.0, -2.0])

    def test_nonfinite_rhs_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            fit_constant([1.0], [math.nan])

    @given(
        lhs=st.lists(st.floats(-5.0, 50.0), min_size=1, max_size=12),
        slack=st.floats(0.0, 3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_fitted_constant_is_feasible_and_minimal(self, lhs, slack):
        rhs = [1.0 + 0.5 * i for i in range(len(lhs))]
        C = fit_constant(lhs, rhs, slack)
        assert C >= 0.0
        for l, r in zip(lhs, rhs):
            assert l <= C * r + slack + 1e-12 * max(1.0, abs(l))
        if C > 0.0:
            shaved = C * (1.0 - 1e-9) - 1e-300
            assert any(l > shaved * r + slack for l, r in zip(lhs, rhs))


class TestHarnackShape:
    def test_raw_value(self):
        assert harnack_shape(1.0, 1.0, 1.0, 1, "raw") == 4.0

    def test_capped_uses_time_cap(self):
        assert harnack_shape(1.0, 4.0, 1.0, 1, "capped") == 4.0
        assert harnack_shape(1.0, 4.0, 1.0, 1, "raw") == pytest.approx(1.5625)

    def test_zero_distance_is_one(self):
        assert harnack_shape(0.0, 0.3, 1.7, 2) == 1.0

    def test_scale_invariance(self):
        # distance / t^(1/alpha) is invariant under (x, t) -> (2x, 2t) at alpha = 1
        assert harnack_shape(1.5, 0.5, 1.0, 1, "raw") == harnack_shape(
            3.0, 1.0, 1.0, 1, "raw"
        )

    def test_bad_time_scale(self):
        with pytest.raises(ValueError, match="time_scale"):
            harnack_shape(1.0, 1.0, 1.0, 1, "linear")

    def test_monotone_in_distance(self):
        vals = [harnack_shape(r, 0.5, 1.5, 1) for r in (0.0, 0.5, 1.0, 2.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert vals[0] == 1.0


class TestLogHarnackCost:
    def test_formula(self):
        assert log_harnack_cost(1.0, 0.5) == pytest.approx(2.0 * math.log(6.0))

    def test_zero_distance(self):
        assert log_harnack_cost(0.0, 0.25) == pytest.approx(math.log(8.0))

    def test_time_capped_at_one(self):
        assert log_harnack_cost(3.0, 2.0) == log_harnack_cost(3.0, 1.0)


class TestClassifyCase:
    """Regime assignment for the three-case density ratio analysis, from the
    distances |y - z| and |x - y|."""

    CONSTS = BoundConstants(c1_hat=1.0, c2_hat=1.0, grid_meta={})

    def test_overlap(self):
        case = classify_case(1.0, 0.5, 0.0, 1.0, 1, self.CONSTS)
        assert case.tag == "overlap"

    def test_overlap_boundary_inclusive(self):
        case = classify_case(1.0, 1.0, 3.0, 1.0, 1, self.CONSTS)
        assert case.tag == "overlap"

    def test_far_field_and_boundary(self):
        case = classify_case(1.0, 2.0, 0.0, 1.0, 1, self.CONSTS)
        assert case.tag == "far_field"
        # boundary |y-z| = 2 max(t_scale, |x-y|) still counts as far field
        case = classify_case(1.0, 3.0, 1.5, 1.0, 1, self.CONSTS)
        assert case.tag == "far_field"

    def test_transition(self):
        case = classify_case(1.0, 2.0, 3.0, 1.0, 1, self.CONSTS)
        assert case.tag == "transition"

    def test_factors_via_constants(self):
        consts = BoundConstants(c1_hat=0.5, c2_hat=2.0, grid_meta={})
        overlap = classify_case(1.0, 0.5, 0.0, 1.0, 1, consts)
        far = classify_case(1.0, 4.0, 0.0, 1.0, 1, consts)
        assert overlap.bound == pytest.approx(4.0)  # factor 1 * c2/c1
        assert far.bound == pytest.approx(2.0 ** 2 * 4.0)
        trans = classify_case(1.0, 2.0, 3.0, 1.0, 1, consts)
        assert trans.bound == pytest.approx(2.0 ** 2 * 4.0)  # (dyz/t_scale)^(d+alpha)

    def test_two_dimensional_points(self):
        case = classify_case(1.0, 3.0, 0.0, 1.0, 2, self.CONSTS)
        assert case.tag == "far_field"
        assert case.bound == pytest.approx(2.0 ** 3)


class TestLemmaRatioBound:
    def test_coincident_points(self):
        assert lemma_ratio_bound(1.0, 0.0, 1.0, 1, 1.0, 1.0) == 4.0

    def test_formula(self):
        got = lemma_ratio_bound(1.0, 1.0, 1.0, 1, 0.5, 2.0)
        assert got == pytest.approx(4.0 * 4.0 * 4.0)

    def test_grows_with_separation(self):
        near = lemma_ratio_bound(0.5, 0.5, 1.5, 1, 1.0, 2.0)
        far = lemma_ratio_bound(0.5, 3.0, 1.5, 1, 1.0, 2.0)
        assert far > near


class TestTruncatedRatioBoundShape:
    def test_minimum_scale_value(self):
        assert truncated_ratio_bound(TSPEC, 1.0, 2.0, 1.5, 0.5) == pytest.approx(1.5 * 2.0)

    def test_superpolynomial_growth_in_separation(self):
        vals = [truncated_ratio_bound(TSPEC, 0.5, m, 1.0, 0.4) for m in (2.0, 3.0, 5.0)]
        assert vals[0] < vals[1] < vals[2]


class TestGrids:
    def test_comparison_grid_counts(self):
        grid = default_comparison_grid(1)
        # 5 times x (1 diagonal + 2 orders x 4 offsets)
        assert len(grid) == 45
        diag = [nd for nd in grid if np.array_equal(nd.x, nd.y)]
        assert len(diag) == 5

    def test_comparison_grid_has_both_orders(self):
        grid = default_comparison_grid(2, t_values=(1.0,), offsets=(0.0, 2.0))
        assert len(grid) == 3
        offs = sorted(float(np.linalg.norm(nd.x)) for nd in grid)
        assert offs == [0.0, 0.0, 2.0]

    def test_validation_grid_disjoint(self):
        t_def = {nd.t for nd in default_comparison_grid(1)}
        t_val = {nd.t for nd in validation_comparison_grid(1)}
        assert not t_def & t_val
        off_def = {round(float(np.linalg.norm(nd.x - nd.y)), 12) for nd in default_comparison_grid(1)}
        off_val = {round(float(np.linalg.norm(nd.x - nd.y)), 12) for nd in validation_comparison_grid(1)}
        assert off_def & off_val == {0.0} or not off_def & off_val

    def test_ratio_grid_counts_and_z(self):
        grid = default_ratio_grid(1, 1.5)
        assert len(grid) == 5 * 5 * 401
        assert all(nd.z is not None for nd in grid)
        assert any(float(np.linalg.norm(nd.z)) == 0.0 for nd in grid)

    def test_ratio_grid_reach(self):
        grid = default_ratio_grid(1, 1.0, t_values=(1.0,), offsets=(4.0,), n_z=7)
        assert max(abs(float(nd.z[0])) for nd in grid) == pytest.approx(40.0)

    def test_validation_ratio_grid_disjoint(self):
        t_def = {nd.t for nd in default_ratio_grid(1, 1.0, n_z=3)}
        t_val = {nd.t for nd in validation_ratio_grid(1, 1.0)}
        assert not t_def & t_val
        assert len(validation_ratio_grid(1, 1.0)) == 4 * 4 * 121

    def test_default_test_functions(self):
        fs = default_test_functions(2)
        tags = [f.tag for f in fs]
        assert len(fs) == 3
        assert any("ball_indicator" in tag for tag in tags)
        assert any("gaussian_bump" in tag for tag in tags)
        assert any("constant" in tag for tag in tags)
        assert not all(f.geq_one for f in fs)

    def test_log_test_functions_all_admissible(self):
        fs = log_test_functions(1)
        assert len(fs) == 3
        assert all(f.geq_one for f in fs)


class TestReportTypes:
    def test_node_result_ratio_and_dict(self):
        r = NodeResult(
            node=node(0.5, [1.0], [0.0]), lhs=2.0, rhs_shape=4.0, slack=0.1,
            extra={"f": "tag"},
        )
        assert r.ratio == 0.5
        d = r.to_dict()
        assert d["ratio"] == 0.5
        assert d["f"] == "tag"
        assert "z" not in d
        assert d["x"] == [1.0] and d["y"] == [0.0]

    def test_node_result_degenerate_rhs(self):
        r = NodeResult(node=node(1.0, [0.0], [0.0], z=[2.0]), lhs=1.0, rhs_shape=0.0, slack=0.0)
        assert r.ratio == math.inf
        d = r.to_dict()
        assert d["ratio"] is None
        assert d["z"] == [2.0]

    @staticmethod
    def _toy(**kw):
        base = dict(
            inequality_id="young",
            claim="toy",
            spec_doc={},
            grid_meta={},
            per_node=[],
            fitted_C=1.0,
            validation_C=None,
            excluded_nodes=0,
            seed_doc=None,
        )
        base.update(kw)
        return InequalityReport(**base)

    def test_passed_logic(self):
        assert self._toy().passed
        assert not self._toy(violations=[{"case": 0}]).passed
        assert not self._toy(mc_meta={"stability_ok": False}).passed
        assert self._toy(mc_meta={"stability_ok": None}).passed
        assert not self._toy(fitted_C=math.inf).passed

    def test_to_dict_keys(self):
        d = self._toy().to_dict()
        assert set(d) == {
            "inequality_id", "claim", "spec", "grid", "per_node", "fitted_C",
            "validation_C", "excluded_nodes", "seed", "mc_meta", "violations",
            "passed",
        }

    def test_inequality_id_registry(self):
        assert INEQUALITY_IDS == (
            "harnack_stable", "harnack_ou", "p_harnack", "ratio_lemma",
            "truncated_ratio", "log_harnack", "young", "jensen",
        )


SMALL_RATIO_GRID = default_ratio_grid(1, 1.0, t_values=(0.5, 1.0), offsets=(0.0, 1.0), n_z=12)


class TestVerifyRatioLemma:
    def test_requires_z(self):
        with pytest.raises(ValueError, match="z point"):
            verify_ratio_lemma(CAUCHY, grid=[node(1.0, [1.0], [0.0])])

    def test_empty_grid(self):
        with pytest.raises(ValueError, match="empty"):
            verify_ratio_lemma(CAUCHY, grid=[])

    def test_undersized_certified_range_rejected(self):
        consts = BoundConstants(
            c1_hat=0.1, c2_hat=2.0, grid_meta={"certified_scaled_radius": 0.5}
        )
        with pytest.raises(ValueError, match="certified"):
            verify_ratio_lemma(CAUCHY, grid=SMALL_RATIO_GRID, constants=consts)

    def test_small_run_no_violations(self):
        report = verify_ratio_lemma(CAUCHY, grid=SMALL_RATIO_GRID, validation=False)
        assert report.inequality_id == "ratio_lemma"
        assert report.violations == []
        assert report.passed
        assert report.excluded_nodes == 0
        counts = report.grid_meta["case_counts"]
        assert set(counts) == {"overlap", "transition", "far_field"}
        assert sum(counts.values()) == len(SMALL_RATIO_GRID)
        lemma_C = report.mc_meta["lemma_constant"]
        assert report.fitted_C <= lemma_C * (1.0 + 1e-6)
        env = report.mc_meta["envelope"]
        assert 0.0 < env["c1"] <= env["c2"]

    def test_validation_grid_cut_to_the_certified_range(self, monkeypatch):
        # validation nodes past the certified range are not run: under a high
        # underflow floor the validation run excludes exactly its in-range
        # nodes whose p_t(y - z) lies below the floor
        certified, floor = 40.0, 1e-3
        monkeypatch.setattr(harnack_lab, "RATIO_UNDERFLOW", floor)
        consts = BoundConstants(c1_hat=0.05, c2_hat=5.0, grid_meta={"certified_scaled_radius": certified})
        vgrid = validation_ratio_grid(1, 1.0)
        below = [stable_density(CAUCHY, nd.t, nd.y - nd.z) < floor for nd in vgrid]
        in_range = [float(max(abs(nd.x - nd.z)[0], abs(nd.y - nd.z)[0])) / nd.t <= certified for nd in vgrid]
        expected = sum(b and kept for b, kept in zip(below, in_range))
        assert 0 < expected < sum(below)
        kw = dict(grid=SMALL_RATIO_GRID, constants=consts)
        with_validation = verify_ratio_lemma(CAUCHY, validation=True, **kw).excluded_nodes
        assert with_validation - verify_ratio_lemma(CAUCHY, validation=False, **kw).excluded_nodes == expected

    def test_validation_keeping_no_node_has_no_constant(self):
        # every validation node lies past scaled radius 0.06, so none is run
        consts = BoundConstants(c1_hat=0.05, c2_hat=5.0, grid_meta={"certified_scaled_radius": 0.06})
        report = verify_ratio_lemma(CAUCHY, grid=[node(1.0, [0.05], [0.0], [0.0])], constants=consts)
        assert report.validation_C is None
        assert report.mc_meta["stability_ok"] is True and report.passed

    def test_identical_runs_agree(self):
        consts = BoundConstants(
            c1_hat=0.05, c2_hat=5.0, grid_meta={"certified_scaled_radius": 1e9}
        )
        kw = dict(grid=SMALL_RATIO_GRID, constants=consts, validation=False)
        one = verify_ratio_lemma(CAUCHY, **kw)
        two = verify_ratio_lemma(CAUCHY, **kw)
        assert [r.lhs for r in one.per_node] == [r.lhs for r in two.per_node]
        assert one.fitted_C == two.fitted_C
        assert one.violations == [] and two.violations == []


class TestRatioLemmaReportsPinned:
    """sha256 of canonical_json for verify_ratio_lemma with constants fitted by
    the verifier itself, for three runs: the benchmark's quadrature config
    (d = 2, alpha = 1.5, t in {0.25, 1}, offsets {0, 1, 4}, n_z = 10,
    validation off); the d = 1 Cauchy process on its default grid with
    validation; and a small d = 2 grid whose validation grid is cut to its
    certified range.  They pin every density, case, bound and shape of the
    nodes and the refined envelope constants."""

    def test_quadrature_config_digest(self):
        spec = StableSpec(d=2, alpha=1.5, c=1.0)
        grid = default_ratio_grid(2, 1.5, t_values=[0.25, 1.0], offsets=[0.0, 1.0, 4.0], n_z=10)
        report = verify_ratio_lemma(spec, grid=grid, validation=False)
        assert hashlib.sha256(canonical_json(report.to_dict()).encode()).hexdigest() == (
            "0a25bed681ec2bcb41570a81c8b75ba867e4769613704a4a7a0d474b1e35b2c6"
        )

    def test_cauchy_default_grid_with_validation_digest(self):
        report = verify_ratio_lemma(CAUCHY, validation=True)
        assert hashlib.sha256(canonical_json(report.to_dict()).encode()).hexdigest() == (
            "70e53bbc76e5c7acc962aeeea93b0886ca8869dbd8ac6c3e5392f37150277782"
        )

    def test_small_grid_with_validation_digest(self):
        # the validation grid reaches past this small grid's certified range
        spec = StableSpec(d=2, alpha=1.5, c=1.0)
        grid = default_ratio_grid(2, 1.5, t_values=(0.5, 1.0), offsets=(0.0, 1.0), n_z=12)
        report = verify_ratio_lemma(spec, grid=grid, validation=True)
        assert hashlib.sha256(canonical_json(report.to_dict()).encode()).hexdigest() == (
            "14ad61b876226c6256b14397ad0d34c0bef082ea29d96ec9088defffac91ffba"
        )


SEMIGROUP_GRID = [node(0.5, [0.0], [0.0]), node(0.5, [1.0], [0.0]), node(1.0, [0.0], [1.0])]
# a Cauchy walk essentially never reaches it: every node excludes it
FAR_BALL = ball_indicator(np.array([1e6]), 0.01)
FITTED_RUNS = {
    "ratio_lemma": lambda validation, f_set: verify_ratio_lemma(
        CAUCHY, grid=SMALL_RATIO_GRID, validation=validation
    ),
    "truncated_ratio": lambda validation, f_set: verify_truncated_ratio(
        TSPEC, T_GRID, offsets=(0.0, 1.0), z_count=9, validation=validation
    ),
    "harnack_stable": lambda validation, f_set: verify_harnack(
        OU_FREE, f_set, SEMIGROUP_GRID, n=2000, seed=SeedSpec(3), validation=validation
    ),
    "p_harnack": lambda validation, f_set: verify_p_harnack(
        OU_FREE, f_set, SEMIGROUP_GRID, n=2000, seed=SeedSpec(3), validation=validation
    ),
    "log_harnack": lambda validation, f_set: verify_log_harnack(
        OU_FREE, None, SEMIGROUP_GRID, n=2000, seed=SeedSpec(3), validation=validation
    ),
}


class TestFittedReportSkeleton:
    """What every verifier of a fitted constant gets from the one skeleton
    that runs, fits, validates and reports it."""

    @pytest.mark.parametrize("ineq", list(FITTED_RUNS))
    def test_validation_off(self, ineq):
        report = FITTED_RUNS[ineq](False, None)
        assert report.validation_C is None
        # ratio_lemma's rule is "no violations", which holds without validation
        assert report.mc_meta["stability_ok"] is (True if ineq == "ratio_lemma" else None)
        assert ("stability_threshold" in report.mc_meta) is (ineq != "ratio_lemma")

    @pytest.mark.parametrize("ineq", list(FITTED_RUNS))
    def test_validation_on(self, ineq):
        report = FITTED_RUNS[ineq](True, None)
        assert math.isfinite(report.validation_C)
        if ineq == "ratio_lemma":
            assert report.mc_meta["stability_ok"] is (not report.violations)
        else:
            assert report.mc_meta["stability_ok"] is harnack_lab._stability(
                report.fitted_C, report.validation_C
            )

    @pytest.mark.parametrize("ineq", ["ratio_lemma", "truncated_ratio", "harnack_stable", "p_harnack"])
    def test_validation_exclusions_add_into_excluded_nodes(self, monkeypatch, ineq):
        # log_harnack excludes no node, so it has none to add
        f_set = None
        if ineq == "ratio_lemma":
            monkeypatch.setattr(harnack_lab, "RATIO_UNDERFLOW", 5e-3)
        elif ineq == "truncated_ratio":
            real = harnack_lab.truncated_density

            def far_zero(spec, t, x):
                # the nodes' densities are one 2-d array per time; zero those past 2
                values = real(spec, t, x)
                return np.where(np.abs(x) > 2.0, 0.0, values) if np.ndim(x) == 2 else values

            monkeypatch.setattr(harnack_lab, "truncated_density", far_zero)
        else:
            f_set = default_test_functions(1) + [FAR_BALL]
        excluded = []
        skeleton = harnack_lab._fitted_report

        def counting_skeleton(inequality_id, claim, spec, grid_meta, run, *rest):
            def counted(*args):
                assert len(args) == 1  # the skeleton hands a run its nodes alone
                out = run(*args)
                excluded.append(out[1])
                return out

            return skeleton(inequality_id, claim, spec, grid_meta, counted, *rest)

        monkeypatch.setattr(harnack_lab, "_fitted_report", counting_skeleton)
        report = FITTED_RUNS[ineq](True, f_set)
        # the default run, then the validation run
        assert len(excluded) == 2 and excluded[1] > 0
        assert report.excluded_nodes == sum(excluded)
        assert math.isfinite(report.validation_C)


class TestVerifyHarnack:
    def test_pure_stable_run(self):
        report = verify_harnack(OU_FREE, n=20000, seed=SeedSpec(31))
        assert report.inequality_id == "harnack_stable"
        assert report.mc_meta["time_scale"] == "raw"
        assert math.isfinite(report.fitted_C)
        assert report.fitted_C >= 1.0  # diagonal nodes witness C >= 1 exactly
        assert report.fitted_C < 10.0
        assert set(report.mc_meta["per_f_fitted"]) == {
            f.tag for f in default_test_functions(1)
        }
        assert isinstance(report.mc_meta["stability_ok"], bool)
        assert report.passed
        validate_report(report.to_dict())

    def test_drift_switches_id_and_cap(self):
        grid = [node(0.5, [0.0], [0.0]), node(0.5, [1.0], [0.0]), node(2.0, [1.0], [0.0])]
        report = verify_harnack(
            OU_DRIFT, grid=grid, n=6000, seed=SeedSpec(32), validation=False
        )
        assert report.inequality_id == "harnack_ou"
        assert report.mc_meta["time_scale"] == "capped"
        assert "min(t,1)" in report.claim
        assert report.fitted_C >= 1.0

    def test_time_scale_override(self):
        grid = [node(0.5, [0.0], [0.0]), node(0.5, [1.0], [0.0])]
        report = verify_harnack(
            OU_FREE, grid=grid, n=4000, seed=SeedSpec(33),
            time_scale="capped", validation=False,
        )
        assert report.mc_meta["time_scale"] == "capped"

    def test_all_nodes_excluded(self):
        # an indicator the walk essentially never hits has mean 0 at every node
        far_ball = ball_indicator(np.array([60.0]), 0.02)
        grid = [node(0.5, [0.0], [0.0]), node(0.5, [1.0], [0.0])]
        with pytest.raises(ValueError, match="excluded"):
            verify_harnack(
                OU_FREE, f_set=[far_ball], grid=grid, n=1500,
                seed=SeedSpec(34), validation=False,
            )


class TestVerifyPHarnack:
    def test_power_must_exceed_one(self):
        with pytest.raises(ValueError, match="exceed 1"):
            verify_p_harnack(OU_FREE, p_list=(1.0,), n=1000, validation=False)

    def test_small_run(self):
        report = verify_p_harnack(
            OU_FREE, p_list=(2.0, 4.0), n=20000, seed=SeedSpec(35)
        )
        assert report.inequality_id == "p_harnack"
        assert set(report.mc_meta["per_p_fitted"]) == {"2.0", "4.0"}
        assert report.mc_meta["jensen_failures"] == 0
        assert report.fitted_C >= 1.0  # constant test function pins the diagonal
        assert math.isfinite(report.fitted_C)
        assert report.grid_meta["p_list"] == [2.0, 4.0]
        assert report.passed

    @pytest.mark.parametrize(
        "f_set, expected_draws",
        [
            ([constant(2.0)], 0),
            ([ball_indicator([0.0], 1.0), gaussian_bump([0.0], 1.0), constant(2.0)], 1),
        ],
        ids=["constant", "three_functions"],
    )
    def test_samples_each_node_once_for_all_powers(self, monkeypatch, f_set, expected_draws):
        calls, draws = [], []
        moments, noise = SemigroupSampler.moments, SemigroupSampler.noise

        def counted(self, f, points, t, transforms=(), pairs=()):
            calls.append((f, t, len(points), tuple(transforms), len(pairs)))
            return moments(self, f, points, t, transforms, pairs)

        def drawn(self, t):
            draws.append(t)
            return noise(self, t)

        monkeypatch.setattr(SemigroupSampler, "moments", counted)
        monkeypatch.setattr(SemigroupSampler, "noise", drawn)
        grid = [node(0.5, [0.0], [0.0]), node(0.5, [1.0], [0.0])]
        report = verify_p_harnack(
            OU_FREE, f_set=f_set, grid=grid, p_list=(1.5, 2.0, 4.0),
            n=2000, seed=SeedSpec(37), validation=False,
        )
        # one call per (t, f) for both points, all powers and every node's
        # pair (x, y^p), one draw per time, and none for a constant
        assert calls == [(f, 0.5, 2, (1.5, 2.0, 4.0), 6) for f in f_set]
        assert len(draws) == expected_draws
        per_f = [1.5, 1.5, 2.0, 2.0, 4.0, 4.0]
        assert [r.extra["p"] for r in report.per_node] == sorted(per_f * len(f_set))
        assert [r.extra["f"] for r in report.per_node[:2 * len(f_set)]] == [
            f.tag for f in f_set for _ in range(2)
        ]

    def test_walk_reuses_the_sampler_buffers(self, monkeypatch):
        # after its first time, the default grid's other times allocate no
        # new buffer: every workspace array stays the same object
        seen = {}
        moments = SemigroupSampler.moments

        def watched(self, f, points, t, transforms=(), pairs=()):
            out = moments(self, f, points, t, transforms, pairs)
            seen.setdefault(self, {})[t] = dict(self._work)  # keys hold each sampler alive
            return out

        monkeypatch.setattr(SemigroupSampler, "moments", watched)
        verify_p_harnack(OU_DRIFT, n=2000, seed=SeedSpec(40))
        assert len(seen) == 2  # the default and the validation run
        for by_time in seen.values():
            first, *later = by_time.values()
            assert first and len(later) >= 3
            for work in later:
                assert work.keys() == first.keys()
                assert all(work[role] is first[role] for role in first)

    def test_memo_holds_one_time_block(self):
        # five times instead of one may add their four noise arrays to the
        # peak, not four more blocks of sampled values and powers
        n = 2 * 10**4
        f_set = [gaussian_bump([0.0], 1.0)]

        def peak(t_values):
            grid = default_comparison_grid(1, t_values=t_values)
            tracemalloc.start()
            try:
                verify_p_harnack(
                    OU_FREE, f_set=f_set, grid=grid, n=n, seed=SeedSpec(38), validation=False
                )
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak((0.5,))  # warm-up: first-use allocations outside the verifier
        one = peak((0.5,))
        five = peak((0.1, 0.25, 0.5, 1.0, 2.0))
        noise_bytes = n * 1 * 8  # one (n, d) float64 noise array, d = 1
        assert five - one <= 1.5 * 4 * noise_bytes

    @staticmethod
    def forty_times_over_five(n: int) -> int:
        """Peak traced bytes of a 40-time p_harnack run less a 5-time run's."""
        f_set = [ball_indicator([0.0], 1.0)]

        def peak(count):
            grid = default_comparison_grid(
                1, t_values=np.linspace(0.1, 2.0, count).tolist(), offsets=(0.0, 1.0)
            )
            tracemalloc.start()
            try:
                verify_p_harnack(
                    OU_FREE, f_set=f_set, grid=grid, n=n, seed=SeedSpec(39), validation=False
                )
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(5)  # warm-up: first-use allocations outside the verifier
        five = peak(5)
        return peak(40) - five

    def test_noise_held_for_one_time(self):
        # the sampler drops a time's noise before drawing the next, so forty
        # times peak within one noise array of five
        n = 10**5
        noise_bytes = n * 1 * 8  # one (n, d) float64 noise array, d = 1
        assert self.forty_times_over_five(n) < noise_bytes

    def test_blocks_freed_without_the_cycle_collector(self):
        # a block's samples hold no reference cycle, so reference counting
        # alone frees them with their block
        n = 10**5
        enabled = gc.isenabled()
        gc.disable()
        try:
            assert self.forty_times_over_five(n) < n * 1 * 8
        finally:
            if enabled:
                gc.enable()


class TestSemigroupReportsPinned:
    """sha256 of canonical_json for the d=2 OU with A = 0.5 I, alpha = 1.5,
    c = 1, at n = 2000, seed 7, with validation.  The digests were recorded
    before the per-point sample memo, so they pin both the sampled values and
    the arithmetic of every statistic; they were re-recorded once when sigma
    moved from quadrature to its closed form, which moved sigma(2, 1.5) by
    3.3e-13 and with it the last bits of every sample, and once when the
    variances and covariances moved from BLAS dot products to numpy's
    pairwise sums, which moved the last bits of the per-node standard errors
    (by at most 7.5e-15 relative; no fitted constant moved).  The p- and
    log-Harnack digests were re-recorded once more when a one-valued sample
    got its value as mean and variance 0, which moved the slack, rhs_shape
    and ratio of constant-f nodes and the last bits of the p-Harnack
    validation constant (no fitted constant moved).  A d = 3 case with a
    drift that is not conformal pins the jump-weighted noise."""

    SPEC = OUSpec(A=0.5 * np.eye(2), driver=StableSpec(d=2, alpha=1.5, c=1.0))

    @pytest.mark.parametrize(
        "verify, digest",
        [
            (verify_harnack, "302f201775910077b16bcf454e6872564b1e6b59515180aeaac4d6ebf1548e4d"),
            (verify_p_harnack, "0eb8e0ac9b3b1d3a5c37849effaba020e6001f64717d49386347b1136657c018"),
            (verify_log_harnack, "0514f2f0fe9cc799f67f580cb469e6009f7d1e8b90a7791e9c7d919fd9dd2ad8"),
        ],
        ids=lambda v: getattr(v, "__name__", "digest"),
    )
    def test_canonical_digest(self, verify, digest):
        report = verify(self.SPEC, n=2000, seed=SeedSpec(7), validation=True)
        assert hashlib.sha256(canonical_json(report.to_dict()).encode()).hexdigest() == digest

    def test_canonical_digest_d3(self):
        spec = OUSpec(
            A=np.array([[0.5, 0.2, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.3]]),
            driver=StableSpec(d=3, alpha=1.5, c=1.0),
        )
        report = verify_harnack(spec, n=2000, seed=SeedSpec(7), validation=True)
        assert hashlib.sha256(canonical_json(report.to_dict()).encode()).hexdigest() == (
            "0ae572945561a349aecaf8a9d5430b54c0a34f46111fdc0806dd19a6766d4c5e"
        )


class TestConstantsAreExact:
    """A constant f makes every side of the p- and log-Harnack inequalities
    that constant at x = y: its nodes there fit exactly 1, with no slack."""

    def test_p_harnack_fits_one_at_every_power(self):
        report = verify_p_harnack(OU_FREE, n=2000, seed=SeedSpec(7))
        assert report.mc_meta["per_p_fitted"] == {"1.5": 1.0, "2.0": 1.0, "4.0": 1.0}

    def test_log_harnack_constants_have_no_slack(self):
        report = verify_log_harnack(OU_FREE, n=2000, seed=SeedSpec(7))
        slacks = [r.slack for r in report.per_node if r.extra["f"].startswith("constant(")]
        assert slacks and slacks == [0.0] * len(slacks)


class TestVerifyLogHarnack:
    def test_rejects_functions_below_one(self):
        with pytest.raises(ValueError, match="f >= 1"):
            verify_log_harnack(
                OU_FREE, f_set=default_test_functions(1), n=1000, validation=False
            )

    def test_small_run(self):
        report = verify_log_harnack(OU_FREE, n=20000, seed=SeedSpec(36))
        assert report.inequality_id == "log_harnack"
        # shared noise makes x = y nodes an exact empirical Jensen inequality
        assert report.mc_meta["x_equals_y_C"] == 0.0
        assert report.excluded_nodes == 0
        assert report.violations == []
        assert math.isfinite(report.fitted_C)
        assert report.fitted_C >= 0.0
        assert report.validation_C is not None
        validate_report(report.to_dict())


@pytest.mark.parametrize("spec", [OU_DRIFT, OU_CONTRACT], ids=["expanding", "contracting"])
@pytest.mark.parametrize(
    "verify", [verify_harnack, verify_p_harnack, verify_log_harnack], ids=lambda v: v.__name__
)
def test_drift_runs_pass_with_stable_validation(verify, spec):
    report = verify(spec, n=20000, seed=SeedSpec(5))
    assert report.mc_meta["stability_ok"] is True
    assert report.passed
    assert report.mc_meta.get("time_scale", "capped") == "capped"
    validate_report(report.to_dict())


class TestVerifyTruncatedRatio:
    def test_one_dimension_only(self):
        with pytest.raises(NotImplementedError):
            verify_truncated_ratio(TruncatedStableSpec(d=2, alpha=1.0, c=1.0, r=1.0))

    def test_small_run(self):
        report = verify_truncated_ratio(
            TSPEC, T_GRID, offsets=(0.0, 1.0), z_count=9, seed=SeedSpec(7),
        )
        assert report.inequality_id == "truncated_ratio"
        assert report.violations == []
        assert math.isfinite(report.fitted_C) and report.fitted_C > 0.0
        assert report.mc_meta["C2"] >= 0.1
        assert report.grid_meta["z_count"] == 9
        assert report.grid_meta["z_max"] >= 1.0
        assert all("z" in r.to_dict() for r in report.per_node)
        assert report.excluded_nodes >= 0
        assert report.validation_C is None or math.isfinite(report.validation_C)
        validate_report(report.to_dict())

    def test_deterministic_and_seed_free(self):
        kw = dict(offsets=(0.0, 1.0), z_count=9)
        a = verify_truncated_ratio(TSPEC, T_GRID, seed=SeedSpec(7), **kw)
        b = verify_truncated_ratio(TSPEC, T_GRID, seed=SeedSpec(7), **kw)
        assert canonical_json(a.to_dict()) == canonical_json(b.to_dict())
        # the densities are exact: the seed is recorded and changes no value
        c = verify_truncated_ratio(TSPEC, T_GRID, seed=SeedSpec(8), **kw)
        assert [r.to_dict() for r in c.per_node] == [r.to_dict() for r in a.per_node]
        assert (c.fitted_C, c.validation_C) == (a.fitted_C, a.validation_C)

    def test_shapes_are_the_scalar_bound(self):
        # m = max(2, |x-y|, |y-z|): nodes closer than 2 share the clamped scale
        report = verify_truncated_ratio(TSPEC, T_GRID, offsets=(0.0, 1.0, 3.0), z_count=9, validation=False)
        c2 = report.mc_meta["C2"]
        clamped = set()
        for r in report.per_node:
            nd = r.node
            m = max(2.0, abs(nd.x[0] - nd.y[0]), abs(nd.y[0] - nd.z[0]))
            assert r.rhs_shape == truncated_ratio_bound(TSPEC, nd.t, m, 1.0, c2)
            assert r.lhs > 0.0
            if m == 2.0:
                clamped.add((nd.t, r.rhs_shape))
        assert len(clamped) == len(T_GRID)

    @pytest.mark.parametrize(
        "t, message",
        [(1.5, "fitted on t in \\(0, 1\\]"), (0.0, "time must be positive")],
    )
    def test_time_window(self, t, message):
        with pytest.raises(ValueError, match=message):
            verify_truncated_ratio(TSPEC, (t,), offsets=(0.0, 1.0), z_count=5, validation=False)


def young_margin(mu, g, h) -> float:
    """The Young margin of one case, checked as the one row of (1, m) stacks."""
    return float(_young_margins(*(np.array([v], dtype=float) for v in (mu, g, h)))[0])


def jensen_margin(mu, f) -> float:
    """The Jensen margin of one case, checked as the one row of (1, m) stacks."""
    return float(_jensen_margins(*(np.array([v], dtype=float) for v in (mu, f)))[0])


class TestYoungCheck:
    def test_trivial_equality(self):
        assert young_margin([0.5, 0.5], [1.0, 1.0], [0.0, 0.0]) == pytest.approx(0.0, abs=1e-15)

    def test_optimizer_saturates(self):
        # g proportional to e^h is the equality case
        mu = np.array([0.5, 0.5])
        h = np.array([math.log(2.0), 0.0])
        g = np.exp(h) / 1.5
        assert abs(young_margin(mu, g, h)) < 1e-14

    def test_zero_log_zero_convention(self):
        assert young_margin([0.5, 0.5], [2.0, 0.0], [0.0, 0.0]) == pytest.approx(math.log(2.0))

    def test_renormalization(self):
        raw = young_margin([2.0, 2.0], [4.0, 0.0], [0.1, 0.3])
        normed = young_margin([0.5, 0.5], [2.0, 0.0], [0.1, 0.3])
        assert raw == pytest.approx(normed, rel=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="nonnegative"):
            young_margin([-0.5, 1.5], [1.0, 1.0], [0.0, 0.0])
        with pytest.raises(ValueError, match="mass"):
            young_margin([0.0, 0.0], [1.0, 1.0], [0.0, 0.0])
        with pytest.raises(ValueError, match="nonnegative"):
            young_margin([0.5, 0.5], [-1.0, 3.0], [0.0, 0.0])
        with pytest.raises(ValueError, match="positive mean"):
            young_margin([0.5, 0.5], [0.0, 0.0], [0.0, 0.0])
        with pytest.raises(ValueError, match="finite"):
            young_margin([0.5, 0.5], [1.0, 1.0], [math.inf, 0.0])


class TestJensenCheck:
    def test_equality_for_constants(self):
        assert jensen_margin([0.3, 0.7], [2.5, 2.5]) == 0.0

    def test_strict_gap(self):
        assert jensen_margin([0.5, 0.5], [1.0, 4.0]) == pytest.approx(math.log(1.25))

    def test_input_validation(self):
        with pytest.raises(ValueError, match="positive"):
            jensen_margin([0.5, 0.5], [0.0, 1.0])
        with pytest.raises(ValueError, match="mass"):
            jensen_margin([0.0, 0.0], [1.0, 1.0])


def _good_rows(rng, k, m):
    """k rows of unnormalized weights with some zeros, densities with some
    zeros, bounded exponents and lognormal positives, all valid."""
    mu = rng.exponential(1.0, (k, m)) * (rng.random((k, m)) > 0.2)
    mu[:, 0] += 0.25
    g = rng.exponential(1.0, (k, m)) * (rng.random((k, m)) > 0.15)
    g[:, 0] += 0.5
    h = rng.uniform(-3.0, math.log(1e6), (k, m))
    f = np.exp(rng.normal(0.0, 2.0, (k, m)))
    return mu, g, h, f


class TestBatchedMargins:
    """Each row of a stack has the margin of that row stacked alone, bit for
    bit, and a bad row raises its own message."""

    K = 25

    @pytest.mark.parametrize("m", range(1, 21))
    def test_rows_match_rows_stacked_alone(self, m):
        mu, g, h, f = _good_rows(np.random.default_rng(1000 + m), self.K, m)
        young = [young_margin(*row) for row in zip(mu, g, h)]
        jensen = [jensen_margin(*row) for row in zip(mu, f)]
        assert _young_margins(mu, g, h).tobytes() == np.array(young).tobytes()
        assert _jensen_margins(mu, f).tobytes() == np.array(jensen).tobytes()

    @pytest.mark.parametrize(
        "which, column, value",
        [
            ("mu", 1, -0.5),
            ("mu", None, 0.0),
            ("mu", 0, math.nan),
            ("g", None, 0.0),
            ("g", 2, -1.0),
            ("g", 1, math.inf),
            ("h", 0, math.inf),
            ("h", 2, math.nan),
            ("f", 1, 0.0),
            ("f", 0, -2.0),
            ("f", 2, math.inf),
        ],
    )
    def test_bad_row_raises_its_own_message(self, which, column, value):
        rows = dict(zip("mu g h f".split(), _good_rows(np.random.default_rng(7), self.K, 3)))
        bad = rows[which][11]
        if column is None:
            bad[:] = value
        else:
            bad[column] = value
        if which in ("mu", "g", "h"):
            with pytest.raises(ValueError) as one_row:
                young_margin(rows["mu"][11], rows["g"][11], rows["h"][11])
            with pytest.raises(ValueError) as batched:
                _young_margins(rows["mu"], rows["g"], rows["h"])
            assert str(batched.value) == str(one_row.value)
        if which in ("mu", "f"):
            with pytest.raises(ValueError) as one_row:
                jensen_margin(rows["mu"][11], rows["f"][11])
            with pytest.raises(ValueError) as batched:
                _jensen_margins(rows["mu"], rows["f"])
            assert str(batched.value) == str(one_row.value)


class TestFiniteMeasureSuites:
    def test_young_suite(self):
        report = young_suite(n_cases=150, seed=SeedSpec(5))
        assert report.inequality_id == "young"
        assert report.violations == []
        assert report.passed
        assert report.fitted_C == 1.0
        assert len(report.per_node) == 150
        assert report.mc_meta["min_margin"] >= -1e-12
        assert report.grid_meta == {"n_cases": 150, "max_dim": SUITE_MAX_DIM}
        assert {r.extra["dim"] for r in report.per_node} <= set(range(1, SUITE_MAX_DIM + 1))
        validate_report(report.to_dict())

    def test_jensen_suite(self):
        report = jensen_suite(n_cases=150, seed=SeedSpec(6))
        assert report.inequality_id == "jensen"
        assert report.violations == []
        assert report.passed
        assert report.mc_meta["min_margin"] >= -1e-12

    def test_suites_deterministic(self):
        a = young_suite(n_cases=60, seed=SeedSpec(8))
        b = young_suite(n_cases=60, seed=SeedSpec(8))
        assert canonical_json(a.to_dict()) == canonical_json(b.to_dict())

    def test_report_is_plain_json(self):
        report = jensen_suite(n_cases=20, seed=SeedSpec(12))
        json.dumps(report.to_dict())


class TestFiniteMeasureAndTruncatedReportsPinned:
    """sha256 of canonical_json for the 1,000-case Young and Jensen batteries
    at seeds 1 and 2, and for truncated_ratio with its default grid and
    validation on the d = 1, alpha = 1.8, c = 1, r = 0.5 driver.  They pin
    every drawn case and margin of the batteries, and every density and
    shape of the truncated-ratio nodes."""

    @pytest.mark.parametrize(
        "suite, seed, digest",
        [
            (young_suite, 1, "110b86a2d53892c7f577482ea08bce5854397649694e9a149521f1cd07ad7ec3"),
            (young_suite, 2, "f9c9c00afd4bfd56fb2a14feaa6acf1f2144be8ef9fdf8b26c6bea271e9af5f4"),
            (jensen_suite, 1, "603e3380796e4a9d0286f6752269975926f10b1937d08060eebd9ef208acb002"),
            (jensen_suite, 2, "1e81160fcfe78a1c85f44feb189b3e1686dcfda34f9c603277054bb91ac25c06"),
        ],
        ids=lambda v: getattr(v, "__name__", str(v)[:8]),
    )
    def test_suite_digest(self, suite, seed, digest):
        report = suite(n_cases=1000, seed=SeedSpec(seed))
        assert hashlib.sha256(canonical_json(report.to_dict()).encode()).hexdigest() == digest

    def test_truncated_ratio_digest(self):
        spec = TruncatedStableSpec(d=1, alpha=1.8, c=1.0, r=0.5)
        report = verify_truncated_ratio(spec, seed=SeedSpec(1))
        assert hashlib.sha256(canonical_json(report.to_dict()).encode()).hexdigest() == (
            "3761244a71aed4c657b1e231bc7b0d00ba7f8f21529529ef107b0d08bd479e05"
        )
