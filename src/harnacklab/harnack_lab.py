"""Empirical verification of Harnack-type inequalities with constant fitting.

Every verifier walks a grid of space-time nodes, evaluates both sides of its
inequality (by quadrature for densities, by common-random-number Monte Carlo
for semigroups), and fits the smallest constant C that makes the inequality
hold on the grid after subtracting statistical slack.  A disjoint validation
grid then re-fits the constant; a verification only counts as stable when the
validation constant does not inflate by more than 25 % (STABILITY_THRESHOLD).
Every verifier of a fitted constant (ratio_lemma, truncated_ratio and the
three semigroup verifiers) hands its node runner to one skeleton, which runs
the default nodes, refuses a run that keeps none, fits, runs and re-fits the
validation nodes, and builds the report; the semigroup runner samples both
sides on shared noise and hands them to a per-node statistic.  Fitting,
not testing: the inequalities are existential in C, so the lab's job is to
exhibit a finite C and show it does not drift, never to hard-code one.

Conventions used throughout:

* all constants are fitted in the statement form with coefficient 1 on any
  logarithm (log-Harnack cost, truncated tail exponents);
* Monte Carlo slack is 3 delta-method standard errors of the fitted-side
  combination, computed from the paired per-sample values so that shared
  noise cancels (exactly zero when x = y);
* nodes whose denominator is not significantly positive (mean below 3
  standard errors, or a density below the underflow floor) are excluded and
  counted, never silently dropped.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import groupby
from typing import Callable, Sequence

import numpy as np

from .density import (
    BoundConstants,
    DensityGrid,
    _radial_densities,
    check_truncated_bounds,
    estimate_bound_constants,
    truncated_density,
)
from .density import stable_density  # noqa: F401  (kept importable as harnack_lab.stable_density)
from .levy_core import (
    OUSpec,
    StableSpec,
    TruncatedStableSpec,
    describe_spec,
)
from .sampling import SeedSpec
from .ou_semigroup import (
    Moments,
    SemigroupSampler,
    TestFunction,
    ball_indicator,
    constant,
    exp_cap,
    gaussian_bump,
)

__all__ = [
    "Node",
    "NodeResult",
    "InequalityReport",
    "RatioCase",
    "INEQUALITY_IDS",
    "STABILITY_THRESHOLD",
    "fit_constant",
    "harnack_shape",
    "classify_case",
    "lemma_ratio_bound",
    "truncated_ratio_bound",
    "default_comparison_grid",
    "validation_comparison_grid",
    "default_ratio_grid",
    "validation_ratio_grid",
    "default_test_functions",
    "log_test_functions",
    "verify_ratio_lemma",
    "verify_harnack",
    "verify_p_harnack",
    "verify_log_harnack",
    "verify_truncated_ratio",
    "young_suite",
    "jensen_suite",
]

INEQUALITY_IDS = (
    "harnack_stable",
    "harnack_ou",
    "p_harnack",
    "ratio_lemma",
    "truncated_ratio",
    "log_harnack",
    "young",
    "jensen",
)

# a validation constant above (1 + STABILITY_THRESHOLD) x the fitted one fails
STABILITY_THRESHOLD = 0.25


# ---------------------------------------------------------------------------
# nodes, reports, fitting


@dataclass(frozen=True)
class Node:
    """One evaluation point: time, two space points, optional third point."""

    t: float
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray | None = None


@dataclass(frozen=True)
class NodeResult:
    """Both sides of an inequality at one node, with its statistical slack.

    rhs_shape is the full right-hand side except for the fitted constant, so
    the implied per-node constant is max(lhs - slack, 0) / rhs_shape.
    """

    node: Node
    lhs: float
    rhs_shape: float
    slack: float
    extra: dict = field(default_factory=dict)

    @property
    def ratio(self) -> float:
        if self.rhs_shape <= 0.0:
            return math.inf
        return self.lhs / self.rhs_shape

    def to_dict(self) -> dict:
        out = {
            "t": self.node.t,
            "x": self.node.x.tolist(),
            "y": self.node.y.tolist(),
            "lhs": self.lhs,
            "rhs_shape": self.rhs_shape,
            "slack": self.slack,
            "ratio": self.ratio if math.isfinite(self.ratio) else None,
        }
        if self.node.z is not None:
            out["z"] = self.node.z.tolist()
        out.update(self.extra)
        return out


@dataclass
class InequalityReport:
    """Outcome of one verification run: fitted constant plus full node log."""

    inequality_id: str
    claim: str
    spec_doc: dict
    grid_meta: dict
    per_node: list[NodeResult]
    fitted_C: float
    validation_C: float | None
    excluded_nodes: int
    seed_doc: dict | None
    mc_meta: dict = field(default_factory=dict)
    violations: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        if self.violations:
            return False
        stable = self.mc_meta.get("stability_ok")
        if stable is False:
            return False
        return math.isfinite(self.fitted_C)

    def to_dict(self) -> dict:
        return {
            "inequality_id": self.inequality_id,
            "claim": self.claim,
            "spec": self.spec_doc,
            "grid": self.grid_meta,
            "per_node": [r.to_dict() for r in self.per_node],
            "fitted_C": self.fitted_C,
            "validation_C": self.validation_C,
            "excluded_nodes": self.excluded_nodes,
            "seed": self.seed_doc,
            "mc_meta": self.mc_meta,
            "violations": self.violations,
            "passed": self.passed,
        }


def fit_constant(lhs, rhs_shape, slack=0.0) -> float:
    """Smallest C with lhs <= C * rhs_shape + slack at every node.

    Equivalent to max over nodes of max(lhs - slack, 0) / rhs_shape; nodes
    with nonpositive lhs - slack ask nothing of C.  rhs_shape must be
    strictly positive (exclude degenerate nodes before fitting).
    """
    lhs = np.atleast_1d(np.asarray(lhs, dtype=float))
    rhs_shape = np.atleast_1d(np.asarray(rhs_shape, dtype=float))
    slack_arr = np.broadcast_to(np.asarray(slack, dtype=float), lhs.shape)
    if lhs.size == 0:
        raise ValueError("cannot fit a constant on an empty node set")
    if np.any(rhs_shape <= 0.0) or not np.all(np.isfinite(rhs_shape)):
        raise ValueError("rhs shape must be finite and positive at every fitted node")
    num = np.maximum(lhs - slack_arr, 0.0)
    return float(np.max(num / rhs_shape))


def _seed_doc(seed: SeedSpec | None) -> dict | None:
    if seed is None:
        return None
    return {"master_seed": seed.master_seed, "stream_id": seed.stream_id}


def _fit_from_results(results: Sequence[NodeResult]) -> float:
    return fit_constant(
        [r.lhs for r in results],
        [r.rhs_shape for r in results],
        [r.slack for r in results],
    )


def _stability(fitted: float, validation: float | None) -> bool | None:
    if validation is None:
        return None
    if fitted == 0.0:
        return validation <= STABILITY_THRESHOLD
    return validation <= (1.0 + STABILITY_THRESHOLD) * fitted


def _stability_meta(fitted: float, validation: float | None) -> dict:
    """The mc_meta entries that judge a validation constant against STABILITY_THRESHOLD."""
    return {"stability_threshold": STABILITY_THRESHOLD, "stability_ok": _stability(fitted, validation)}


def _fitted_report(
    inequality_id: str,
    claim: str,
    spec,
    grid_meta: dict,
    run: Callable[[object], tuple[list[NodeResult], int, list[dict]]],
    nodes,
    validation_nodes,
    seed: SeedSpec | None,
    mc_meta: Callable[[float, float | None, list[dict], list[NodeResult]], dict],
    why_excluded: str,
) -> InequalityReport:
    """Run, fit, validate and report one inequality with a fitted constant.

    ``run(nodes)`` returns (kept results, excluded count, violations) for
    the default nodes and then for the validation nodes (``None`` when
    validation is off); whatever a run needs besides its nodes, such as the
    seed substream a Monte Carlo run draws from, comes with its nodes.  A
    default run that keeps no node raises ValueError saying
    ``why_excluded``.  The validation run's exclusions and violations add to
    the default run's; its re-fit is validation_C, None when it keeps no
    node.  ``mc_meta(fitted_C, validation_C, violations, default results)``
    builds the report's mc_meta.
    """
    results, excluded, violations = run(nodes)
    if not results:
        raise ValueError(f"all nodes excluded: {why_excluded}")
    fitted = _fit_from_results(results)

    validation_C = None
    if validation_nodes is not None:
        vres, vexcl, vviol = run(validation_nodes)
        excluded += vexcl
        violations = violations + vviol
        if vres:
            validation_C = _fit_from_results(vres)

    return InequalityReport(
        inequality_id=inequality_id, claim=claim, spec_doc=describe_spec(spec), grid_meta=grid_meta,
        per_node=results, fitted_C=fitted, validation_C=validation_C, excluded_nodes=excluded,
        seed_doc=_seed_doc(seed), mc_meta=mc_meta(fitted, validation_C, violations, results),
        violations=violations,
    )


# ---------------------------------------------------------------------------
# shapes and grids


def harnack_shape(
    distance: float, t: float, alpha: float, d: int, time_scale: str = "capped"
) -> float:
    """Harnack comparison factor (1 + distance / t_eff^(1/alpha))^(d + alpha).

    time_scale 'raw' uses t itself (the scale-sharp form for pure stable
    noise); 'capped' uses t ∧ 1 (the drift-robust form, which is what a
    nonzero drift matrix supports for large times).  A factor beyond the
    double range raises OverflowError naming t and the distance.
    """
    if time_scale not in ("raw", "capped"):
        raise ValueError("time_scale must be 'raw' or 'capped'")
    t_eff = t if time_scale == "raw" else min(t, 1.0)
    try:
        return (1.0 + distance / t_eff ** (1.0 / alpha)) ** (d + alpha)
    except ArithmeticError:  # the power overflows, or t_eff^(1/alpha) underflows to 0
        raise OverflowError(f"the Harnack shape overflows a double at t = {t:g}, |x - y| = {distance:g}") from None


def _axis_vector(d: int, radius: float, axis: int) -> np.ndarray:
    v = np.zeros(d)
    v[axis % d] = radius
    return v


def default_comparison_grid(
    d: int,
    t_values: Sequence[float] = (0.1, 0.25, 0.5, 1.0, 2.0),
    offsets: Sequence[float] = (0.0, 0.5, 1.0, 2.0, 4.0),
) -> list[Node]:
    """Two-point nodes: y at the origin, x at each offset along rotating axes.

    Both orders (x away / y away) appear, since the test functions are not
    symmetric about the pair.
    """
    nodes = []
    for t in t_values:
        for i, off in enumerate(offsets):
            x = _axis_vector(d, off, i)
            origin = np.zeros(d)
            nodes.append(Node(t=float(t), x=x, y=origin))
            if off > 0.0:
                nodes.append(Node(t=float(t), x=origin, y=x))
    return nodes


def validation_comparison_grid(d: int) -> list[Node]:
    """Disjoint from the default grid in both times and offsets."""
    return default_comparison_grid(
        d, t_values=(0.15, 0.35, 0.75, 1.5), offsets=(0.25, 0.75, 1.5, 3.0)
    )


def default_ratio_grid(
    d: int,
    alpha: float,
    t_values: Sequence[float] = (0.1, 0.25, 0.5, 1.0, 2.0),
    offsets: Sequence[float] = (0.0, 0.5, 1.0, 2.0, 4.0),
    n_z: int = 200,
    z_lo: float = 1e-3,
) -> list[Node]:
    """Three-point nodes for density-ratio checks.

    Per (t, offset): x at the offset along an axis, y at the origin, and z
    sweeping both signs of a log-spaced radius ladder out to 10 * max(1,
    offset) on the same axis, plus z = 0.  Log spacing concentrates nodes at
    the origin-side regime change; the 10x reach probes the far tail where
    the case analysis switches over.
    """
    nodes = []
    for t in t_values:
        for i, off in enumerate(offsets):
            axis = i % d
            x = _axis_vector(d, off, axis)
            y = np.zeros(d)
            reach = 10.0 * max(1.0, off)
            radii = np.geomspace(z_lo, reach, n_z)
            z_line = np.concatenate([-radii[::-1], [0.0], radii])
            for zr in z_line:
                nodes.append(Node(t=float(t), x=x, y=y, z=_axis_vector(d, zr, axis)))
    return nodes


def validation_ratio_grid(d: int, alpha: float) -> list[Node]:
    """Disjoint times, offsets, and z ladder from the default ratio grid."""
    return default_ratio_grid(
        d,
        alpha,
        t_values=(0.15, 0.35, 0.75, 1.5),
        offsets=(0.25, 0.75, 1.5, 3.0),
        n_z=60,
        z_lo=2.3e-3,
    )


def default_test_functions(d: int) -> list[TestFunction]:
    """Indicator, smooth bump, constant: the bounded-f trio used by default."""
    return [
        ball_indicator(np.zeros(d), 1.0),
        gaussian_bump(np.zeros(d), 1.0),
        constant(2.0),
    ]


def log_test_functions(d: int) -> list[TestFunction]:
    """Functions >= 1 for log-Harnack runs (log f must be defined)."""
    return [
        exp_cap(math.e, np.zeros(d), 1.0),
        exp_cap(100.0, np.zeros(d), 2.0),
        constant(1.5),
    ]


# ---------------------------------------------------------------------------
# density ratio lemma (pure stable)


@dataclass(frozen=True)
class RatioCase:
    """Which regime a (t, x, y, z) node falls in, and its intermediate bound.

    Tags: 'overlap' (z within one diffusive scale of y), 'far_field' (z far
    from y compared to both the diffusive scale and |x - y|), 'transition'
    (the band between).  Boundaries go to the earlier regime in this order.
    """

    tag: str
    bound: float


def classify_case(
    t: float, dyz: float, dxy: float, alpha: float, d: int, constants: BoundConstants
) -> RatioCase:
    """The regime of a node, and its factor times c2/c1, from |y - z| and |x - y|."""
    t_scale = t ** (1.0 / alpha)
    if dyz <= t_scale:
        tag, factor = "overlap", 1.0
    elif dyz >= 2.0 * max(t_scale, dxy):
        tag, factor = "far_field", 2.0 ** (alpha + d)
    else:
        tag, factor = "transition", (dyz / t_scale) ** (d + alpha)
    return RatioCase(tag=tag, bound=factor * constants.c2_hat / constants.c1_hat)


def lemma_ratio_bound(t: float, dxy: float, alpha: float, d: int, c1: float, c2: float) -> float:
    """Global bound 2^(alpha+d) (c2/c1) (1 + |x-y| / t^(1/alpha))^(d+alpha).

    c1, c2 are the two-sided envelope constants (c1 lower, c2 upper); the
    bound holds for every z once the envelope holds at the radii involved.
    """
    return (
        2.0 ** (alpha + d)
        * (c2 / c1)
        * (1.0 + dxy / t ** (1.0 / alpha)) ** (d + alpha)
    )


def _node_distances(nodes: Sequence[Node], pairs: Sequence[str]) -> list[tuple]:
    """|a - b| of each node for each pair "ab" of its points, one norm each; a
    node with a distance whose square overflows a double raises OverflowError."""
    with np.errstate(over="ignore"):
        dists = [tuple(float(np.linalg.norm(getattr(nd, a) - getattr(nd, b))) for a, b in pairs) for nd in nodes]
    for nd, ds in zip(nodes, dists):
        if math.inf in ds:
            raise OverflowError(f"the node {_node_tag(nd)} has a distance whose square overflows a double")
    return dists


def _node_tag(nd: Node) -> str:
    z = "" if nd.z is None else f", z = {nd.z.tolist()}"
    return f"at t = {nd.t:g} with x = {nd.x.tolist()}, y = {nd.y.tolist()}{z}"


def _scaled_radii(nodes: Sequence[Node], dists, alpha: float) -> list[float]:
    """max(|x - z|, |y - z|) / t^(1/alpha) of each node, inf where t^(1/alpha) underflows to 0."""
    return [max(rx, ry) / s if (s := nd.t ** (1 / alpha)) else math.inf for nd, (rx, ry, _) in zip(nodes, dists)]


def _ratio_density_cache(
    spec: StableSpec, nodes: Sequence[Node], dists
) -> dict[tuple[float, float], float]:
    """Evaluate p_t at every distinct (t, radius) the nodes need.

    Rotational invariance means only the radius matters, so collinear grids
    collapse to a few thousand radii, inverted in one pass per time slice.
    Keys are rounded to 1e-12 to merge radii that differ only by float noise.
    """
    by_t: dict[float, set[float]] = {}
    for nd, (rx, ry, _) in zip(nodes, dists):
        by_t.setdefault(nd.t, set()).update((round(rx, 12), round(ry, 12)))
    cache = {}
    for t in sorted(by_t):
        radii = sorted(by_t[t])
        values = _radial_densities(spec, t, radii)
        cache.update(zip(((t, r) for r in radii), values.tolist()))
    return cache


# relative tolerance of the ratio-lemma bounds, absorbing quadrature noise
RATIO_REL_SLACK = 1e-6
# a node whose p_t(y - z) lies below this is excluded
RATIO_UNDERFLOW = 1e-300


def verify_ratio_lemma(
    spec: StableSpec,
    grid: Sequence[Node] | None = None,
    constants: BoundConstants | None = None,
    *,
    validation: bool = True,
    seed: SeedSpec | None = None,
) -> InequalityReport:
    """Check the three-case density ratio bounds node by node.

    Fits (or receives) envelope constants certified on the whole scaled
    range the grid touches, then verifies p_t(x-z)/p_t(y-z) against the
    per-case and global bounds with relative tolerance RATIO_REL_SLACK.
    Zero violations is the pass condition; the fitted constant reported is
    the empirical max of ratio / comparison shape.  The validation grid is
    cut to the certified range.
    """
    grid = list(default_ratio_grid(spec.d, spec.alpha) if grid is None else grid)
    if not grid:
        raise ValueError("empty node grid")
    for nd in grid:
        if nd.z is None:
            raise ValueError("ratio lemma nodes need a z point")

    dists = _node_distances(grid, ("xz", "yz", "xy"))
    scaled = _scaled_radii(grid, dists, spec.alpha)
    max_scaled = max(scaled)
    if constants is None:
        # the fit reads the norm and the envelope r^-(d+alpha) of points out to 1.1x the scaled reach
        reach = 1.1 * max(max_scaled, 1.0)
        if not (reach * reach < math.inf and reach ** -(spec.d + spec.alpha) > 0.0):
            raise OverflowError(
                f"the node {_node_tag(grid[scaled.index(max_scaled)])} lies {max_scaled:g} time "
                "scales t^(1/alpha) out, where the density envelope leaves the double range"
            )
        probe = _axis_vector(spec.d, max(max_scaled, 1.0), 0)
        constants = estimate_bound_constants(spec, [1.0], probe[None, :])
    certified = constants.grid_meta.get("certified_scaled_radius", 0.0)
    if certified < max_scaled:
        raise ValueError(
            f"envelope constants certified to scaled radius {certified:.3g} "
            f"but the grid reaches {max_scaled:.3g}"
        )

    def run(nodes):
        nodes, dists = nodes
        cache = _ratio_density_cache(spec, nodes, dists)
        results, violations = [], []
        excluded = 0
        for nd, (rx, ry, dxy) in zip(nodes, dists):
            px, py = cache[nd.t, round(rx, 12)], cache[nd.t, round(ry, 12)]
            if py < RATIO_UNDERFLOW:
                excluded += 1
                continue
            ratio = px / py
            case = classify_case(nd.t, ry, dxy, spec.alpha, spec.d, constants)
            glob = lemma_ratio_bound(nd.t, dxy, spec.alpha, spec.d, constants.c1_hat, constants.c2_hat)
            shape = harnack_shape(dxy, nd.t, spec.alpha, spec.d, "raw")
            res = NodeResult(
                node=nd,
                lhs=ratio,
                rhs_shape=shape,
                slack=0.0,
                extra={"case": case.tag, "case_bound": case.bound, "global_bound": glob},
            )
            results.append(res)
            if ratio > case.bound * (1.0 + RATIO_REL_SLACK):
                violations.append({**res.to_dict(), "kind": "case_bound"})
            if ratio > glob * (1.0 + RATIO_REL_SLACK):
                violations.append({**res.to_dict(), "kind": "global_bound"})
        return results, excluded, violations

    validation_nodes = None
    if validation:
        vgrid = validation_ratio_grid(spec.d, spec.alpha)
        vdists = _node_distances(vgrid, ("xz", "yz", "xy"))
        kept = [i for i, s in enumerate(_scaled_radii(vgrid, vdists, spec.alpha)) if s <= certified]
        validation_nodes = ([vgrid[i] for i in kept], [vdists[i] for i in kept])

    lemma_constant = 2.0 ** (spec.alpha + spec.d) * constants.c2_hat / constants.c1_hat
    report = _fitted_report(
        "ratio_lemma",
        "p_t(x-z)/p_t(y-z) obeys the three-regime case bounds and the global bound "
        "2^(alpha+d)(c2/c1)(1+|x-y|/t^(1/alpha))^(d+alpha)",
        spec, {"nodes": len(grid), "max_scaled_radius": max_scaled},
        run, (grid, dists), validation_nodes, seed,
        lambda fitted, validation_C, violations, _: {
            "lemma_constant": lemma_constant,
            "envelope": {"c1": constants.c1_hat, "c2": constants.c2_hat},
            "rel_slack": RATIO_REL_SLACK,
            "stability_ok": True if validation_C is None else bool(not violations),
        },
        "p_t(y - z) underflows below RATIO_UNDERFLOW",
    )
    report.grid_meta["case_counts"] = dict(Counter(r.extra["case"] for r in report.per_node))
    return report


# ---------------------------------------------------------------------------
# semigroup Harnack verifiers


def _difference_slack(
    grad_l: float, var_l: float, coeff_r: float, var_r: float, cov: float, n: int
) -> float:
    """3 SE of grad_l * L - coeff_r * R via the delta method on paired samples."""
    var = grad_l**2 * var_l + coeff_r**2 * var_r - 2.0 * grad_l * coeff_r * cov
    return 3.0 * math.sqrt(max(var, 0.0) / n)


@dataclass(frozen=True)
class Statistic:
    """A per-node statistic of a semigroup verifier and the covariance it reads.

    ``run(f, node, shape, at_x, at_y, cov)`` gets the node's shape, the
    :class:`Moments` of f and of each transform at the node's x and y
    (``at_x[None]`` is f's own, ``at_x[p]`` its p-th power's and
    ``at_x["log"]`` its log's, for the transforms any statistic of the run
    names) and cov, the covariance of transform ``x_of`` of f at x with
    ``y_of`` at y; it returns the node's result, or None when the node is
    excluded.
    """

    x_of: float | str | None
    y_of: float | str | None
    run: Callable[
        [TestFunction, Node, float, dict[object, Moments], dict[object, Moments], float], NodeResult | None
    ]


def _fits_by(results: Sequence[NodeResult], key: str) -> dict:
    """Fitted constant of each group of results sharing ``extra[key]``."""
    groups: dict = {}
    for r in results:
        groups.setdefault(r.extra[key], []).append(r)
    return {str(k): _fit_from_results(rs) for k, rs in groups.items()}


def _verify_semigroup(
    inequality_id: str,
    claim: str,
    spec: OUSpec,
    f_set: Sequence[TestFunction],
    grid: Sequence[Node] | None,
    shape: Callable[[float, float], float],
    statistics: Sequence[Statistic],
    meta: Callable[[list[NodeResult]], dict],
    *,
    n: int,
    seed: SeedSpec | None,
    validation: bool,
    grid_meta: dict | None = None,
) -> InequalityReport:
    """Run one semigroup inequality through :func:`_fitted_report`.

    P_t f is read from :meth:`SemigroupSampler.moments` on shared noise: the
    runner is handed (grid, 1) and (validation grid, 2), each grid with the
    seed substream its sampler draws from.  The grid is
    walked one run of consecutive nodes with equal t at a time: the run's
    distinct points and the (x, y) pairs its statistics read are collected
    once, and the sampler is asked once per function for every point's
    moments, of f and of each transform the statistics name, and the
    covariance of each pair, all floats.  Each statistic then gets the
    floats of its node, with the node's ``shape(|x - y|, t)``, computed once
    per node.  The sampler reuses its (points x n) blocks from time to time
    and keeps no noise between calls, so a grid that revisits a t redraws
    its noise.  Results are kept per (statistic, function) in node order and
    concatenated statistic-outer, function-inner.
    ``meta(results)`` adds the verifier's own entries to ``mc_meta``.
    """
    seed = SeedSpec(0) if seed is None else seed
    grid = list(default_comparison_grid(spec.d) if grid is None else grid)
    transforms = list(dict.fromkeys(a for s in statistics for a in (s.x_of, s.y_of) if a is not None))

    def run(nodes):
        nodes, substream = nodes
        sampler = SemigroupSampler(spec, n, seed.substream(substream))
        per_stat = [[[] for _ in f_set] for _ in statistics]
        excluded = 0
        for t, same_t in groupby(nodes, key=lambda nd: nd.t):
            same_t = list(same_t)
            ends = [[np.asarray(x, dtype=float).reshape(spec.d) for x in (nd.x, nd.y)] for nd in same_t]
            rows: dict[bytes, int] = {}  # the run's distinct points, by their bytes
            sides = [tuple(rows.setdefault(x.tobytes(), len(rows)) for x in xy) for xy in ends]
            points = np.frombuffer(b"".join(rows), dtype=float).reshape(len(rows), spec.d)
            pairs: dict[tuple, int] = {}
            reads = [
                [pairs.setdefault((ix, s.x_of, iy, s.y_of), len(pairs)) for s in statistics]
                for ix, iy in sides
            ]
            shapes = [shape(dxy, nd.t) for nd, (dxy,) in zip(same_t, _node_distances(same_t, ("xy",)))]
            for i, f in enumerate(f_set):
                at, covs = sampler.moments(f, points, t, transforms, list(pairs))
                for nd, nd_shape, (ix, iy), ks in zip(same_t, shapes, sides, reads):
                    for per_f, stat, k in zip(per_stat, statistics, ks):
                        res = stat.run(f, nd, nd_shape, at[ix], at[iy], covs[k])
                        if res is None:
                            excluded += 1
                        else:
                            per_f[i].append(res)
        return [r for per_f in per_stat for out in per_f for r in out], excluded, []

    return _fitted_report(
        inequality_id, claim, spec,
        {"nodes": len(grid), "functions": [f.tag for f in f_set], **(grid_meta or {})},
        run, (grid, 1), (validation_comparison_grid(spec.d), 2) if validation else None, seed,
        lambda fitted, validation_C, _, results: {
            "n": n, **meta(results), **_stability_meta(fitted, validation_C)
        },
        "semigroup means not significantly positive",
    )


def _time_scale(spec: OUSpec, time_scale: str | None) -> str:
    if time_scale is None:
        return "raw" if spec.op_norm == 0.0 else "capped"
    return time_scale


def verify_harnack(
    spec: OUSpec,
    f_set: Sequence[TestFunction] | None = None,
    grid: Sequence[Node] | None = None,
    *,
    n: int = 10**5,
    seed: SeedSpec | None = None,
    time_scale: str | None = None,
    validation: bool = True,
) -> InequalityReport:
    """Fit C in P_t f(x) <= C (1 + |x-y|/t_eff^(1/alpha))^(d+alpha) P_t f(y).

    Both semigroup values at a node share one noise array (common random
    numbers), so the x = y nodes witness C >= 1 with zero slack and the
    fitted constant reflects genuine spatial decorrelation, not Monte Carlo
    scatter.  Nodes where P_t f(y) is not significantly positive are
    excluded.  The report is 'harnack_stable' for the 'raw' time scale and
    'harnack_ou' for 'capped'.
    """
    alpha, d = spec.driver.alpha, spec.d
    time_scale = _time_scale(spec, time_scale)
    f_set = default_test_functions(d) if f_set is None else list(f_set)

    def statistic(f, nd, shape, at_x, at_y, cov):
        x, y = at_x[None], at_y[None]
        se_y = math.sqrt(y.var / n)
        if y.mean <= 3.0 * se_y:
            return None
        rhs_shape = y.mean * shape
        coeff = (x.mean / rhs_shape) * shape  # provisional C-hat times shape
        return NodeResult(
            node=nd,
            lhs=x.mean,
            rhs_shape=rhs_shape,
            slack=_difference_slack(1.0, x.var, coeff, y.var, cov, n),
            extra={"f": f.tag, "se_lhs": math.sqrt(x.var / n), "se_rhs": se_y},
        )

    t_word = "t" if time_scale == "raw" else "min(t,1)"
    return _verify_semigroup(
        "harnack_stable" if time_scale == "raw" else "harnack_ou",
        f"P_t f(x) <= C (1 + |x-y|/{t_word}^(1/alpha))^(d+alpha) P_t f(y) "
        "for bounded nonnegative f",
        spec, f_set, grid, lambda dxy, t: harnack_shape(dxy, t, alpha, d, time_scale),
        [Statistic(None, None, statistic)],
        lambda results: {"time_scale": time_scale, "per_f_fitted": _fits_by(results, "f")},
        n=n, seed=seed, validation=validation,
    )


def verify_p_harnack(
    spec: OUSpec,
    f_set: Sequence[TestFunction] | None = None,
    grid: Sequence[Node] | None = None,
    p_list: Sequence[float] = (1.5, 2.0, 4.0),
    *,
    n: int = 10**5,
    seed: SeedSpec | None = None,
    validation: bool = True,
) -> InequalityReport:
    """Fit C in (P_t f(x))^p <= C (1 + |x-y|/t_eff^(1/alpha))^(p(d+alpha)) P_t f^p(y).

    As p -> 1 the statement degenerates to the plain Harnack inequality, so a
    run at p close to 1 must reproduce the plain fitted constant; that
    continuity is part of the acceptance battery.  Every node, validation
    nodes included, also gets an empirical Jensen sanity check
    (mean f)^p <= mean f^p + 3 SE.  t_eff is t when A = 0 and t ∧ 1
    otherwise, as in :func:`verify_harnack`'s default.
    """
    for p in p_list:
        if p <= 1.0:
            raise ValueError(f"power must exceed 1, got {p}")
    alpha, d = spec.driver.alpha, spec.d
    time_scale = _time_scale(spec, None)
    f_set = default_test_functions(d) if f_set is None else list(f_set)
    jensen_failures = 0

    def power_statistic(p):
        def statistic(f, nd, base, at_x, at_y, cov):
            nonlocal jensen_failures
            x, xp, yp = at_x[None], at_x[p], at_y[p]
            if yp.mean <= 3.0 * math.sqrt(yp.var / n):
                return None
            if x.mean**p > xp.mean + 3.0 * xp.std_err:
                jensen_failures += 1
            try:
                shape_p = base ** (p * (d + alpha))
            except OverflowError:
                raise OverflowError(f"the p-Harnack shape overflows a double {_node_tag(nd)}, p = {p:g}") from None
            lhs = x.mean**p
            rhs_shape = yp.mean * shape_p
            coeff = (lhs / rhs_shape) * shape_p
            return NodeResult(
                node=nd,
                lhs=lhs,
                rhs_shape=rhs_shape,
                slack=_difference_slack(p * x.mean ** (p - 1.0), x.var, coeff, yp.var, cov, n),
                extra={"f": f.tag, "p": p},
            )

        return Statistic(None, p, statistic)

    t_word = "t" if time_scale == "raw" else "min(t,1)"
    return _verify_semigroup(
        "p_harnack",
        f"(P_t f(x))^p <= C (1 + |x-y|/{t_word}^(1/alpha))^(p(d+alpha)) P_t f^p(y) "
        "for bounded nonnegative f and p > 1",
        spec, f_set, grid,
        lambda dxy, t: harnack_shape(dxy, t, alpha, d, time_scale) ** (1.0 / (d + alpha)),
        [power_statistic(p) for p in p_list],
        lambda results: {
            "time_scale": time_scale,
            "per_p_fitted": _fits_by(results, "p"),
            "jensen_failures": jensen_failures,
        },
        n=n, seed=seed, validation=validation,
        grid_meta={"p_list": list(p_list)},
    )


def log_harnack_cost(distance: float, t: float) -> float:
    """Additive cost shape (1 + |x-y|) log((2 + |x-y|) / (t ∧ 1))."""
    return (1.0 + distance) * math.log((2.0 + distance) / min(t, 1.0))


def verify_log_harnack(
    spec: OUSpec,
    f_set: Sequence[TestFunction] | None = None,
    grid: Sequence[Node] | None = None,
    *,
    n: int = 10**5,
    seed: SeedSpec | None = None,
    validation: bool = True,
) -> InequalityReport:
    """Fit C in P_t(log f)(x) <= log P_t f(y) + C (1+|x-y|) log((2+|x-y|)/(t∧1)).

    Requires f >= 1 so the logarithm is nonnegative and defined pathwise.
    With shared noise the x = y nodes reduce to the empirical Jensen
    inequality, which holds exactly sample by sample, so their fitted
    constant is identically zero; any positive fitted C measures genuine
    displacement cost.  No node is excluded.
    """
    f_set = log_test_functions(spec.d) if f_set is None else list(f_set)
    for f in f_set:
        if not f.geq_one:
            raise ValueError(f"log-Harnack needs f >= 1, got {f.tag}")

    def statistic(f, nd, cost, at_x, at_y, cov):
        log_x, y = at_x["log"], at_y[None]
        ml, my = log_x.mean, y.mean
        var = log_x.var + y.var / my**2 - 2.0 * cov / my
        return NodeResult(
            node=nd,
            lhs=ml - math.log(my),
            rhs_shape=cost,
            slack=3.0 * math.sqrt(max(var, 0.0) / n),
            extra={"f": f.tag, "log_mean_rhs": math.log(my)},
        )

    def meta(results):
        diag = [r for r in results if np.array_equal(r.node.x, r.node.y)]
        return {"x_equals_y_C": _fit_from_results(diag) if diag else None}

    return _verify_semigroup(
        "log_harnack",
        "P_t(log f)(x) <= log P_t f(y) + C (1 + |x-y|) log((2 + |x-y|)/(t ∧ 1)) "
        "for f >= 1",
        spec, f_set, grid, log_harnack_cost, [Statistic("log", None, statistic)], meta,
        n=n, seed=seed, validation=validation,
    )


# ---------------------------------------------------------------------------
# truncated-noise ratio and entropy-cost checks


def truncated_ratio_bound(
    spec: TruncatedStableSpec, t: float, m: float, c_mult: float, c_exp: float
) -> float:
    """C1 t^(-d/alpha) (m/t)^(C2 m) at the scale m (max(2, |x-y|, |y-z|) for a node).

    The superpolynomial shape reflects the exponential-type tail of the
    truncated density: ratios can grow like a power of m with exponent
    itself proportional to m, never faster.
    """
    return c_mult * t ** (-spec.d / spec.alpha) * (m / t) ** (c_exp * m)


# truncated_ratio fits its tail envelopes on FIT_POINTS radii per time in
# [0, reach]: reach is the first max(3, 2r) (1 + k/16), k < 240, where p at the
# smallest time falls to TAIL_FLOOR of p(0), or the last.
FIT_POINTS = 257
TAIL_FLOOR = 1e-5


def verify_truncated_ratio(
    spec: TruncatedStableSpec,
    t_grid: Sequence[float] = (0.25, 0.5, 1.0),
    *,
    seed: SeedSpec | None = None,
    offsets: Sequence[float] = (0.0, 0.5, 1.0, 2.0),
    z_count: int = 41,
    validation: bool = True,
) -> InequalityReport:
    """Fit C1 in the truncated-density ratio bound on the exact d=1 density.

    Every density is :func:`truncated_density`, so no node carries slack and
    the report is a function of (spec, grid) alone; ``seed`` is recorded in
    it and changes no value.  The exponent constant C2 = c4 + c6 is the sum
    of the upper and lower tail rates that :func:`check_truncated_bounds`
    fits to exact values on FIT_POINTS radii in [0, reach] per time.  The
    nodes' z runs over [-z_max, z_max], z_max = reach - max(offsets) - 0.25
    (at least 1); the validation nodes' z are the midpoints of that ladder.
    A node is excluded only where a density underflows to 0.  Where
    :func:`truncated_density` refuses the driver (small alpha with small
    t c r^(-alpha)), its QuadratureError propagates.
    """
    if spec.d != 1:
        raise NotImplementedError("truncated ratio verification is implemented for d=1")
    t_grid = list(t_grid)
    # sixteen radii a call, so the rule of the last call is sized for the reach
    # and not for radii far past it
    floor = TAIL_FLOOR * truncated_density(spec, min(t_grid), 0.0)
    for k in range(0, 240, 16):
        radii = max(3.0, 2.0 * spec.r) * (1.0 + np.arange(k, k + 16) / 16.0)
        below = np.flatnonzero(truncated_density(spec, min(t_grid), radii) <= floor)
        if len(below):
            break
    reach = float(radii[below[0] if len(below) else -1])
    fit = np.linspace(0.0, reach, FIT_POINTS)
    grids = [DensityGrid(t, fit[:, None], truncated_density(spec, t, fit)) for t in t_grid]
    constants = check_truncated_bounds(spec, t_grid, grids)
    c_exp = max(constants.c4 + constants.c6, 0.1)
    z_max = max(reach - max(offsets) - 0.25, 1.0)

    def run(z_values):
        # one time slice at a time: exclusions, m = max(2, |x-y|, |y-z|) and
        # ratios as arrays, then truncated_ratio_bound at each kept node
        results, excluded = [], 0
        y = np.zeros(1)
        z_nodes = [np.array([zr]) for zr in z_values.tolist()]
        yz = np.sqrt(np.square(y[0] - z_values))
        for t in t_grid:
            p = truncated_density(spec, t, np.subtract.outer(np.append(offsets, 0.0), z_values))
            py = p[-1]
            for i, off in enumerate(offsets):
                x = np.array([off])
                px = p[i]
                kept = np.flatnonzero(~((px <= 0.0) | (py <= 0.0)))
                excluded += len(z_values) - len(kept)
                m = np.maximum(max(2.0, float(np.linalg.norm(x - y))), yz[kept])
                shapes = [truncated_ratio_bound(spec, t, mk, 1.0, c_exp) for mk in m.tolist()]
                ratios = (px[kept] / py[kept]).tolist()
                results.extend(
                    NodeResult(node=Node(t=t, x=x, y=y, z=z_nodes[j]), lhs=lhs, rhs_shape=shape, slack=0.0)
                    for j, lhs, shape in zip(kept.tolist(), ratios, shapes)
                )
        return results, excluded, []

    z_values = np.linspace(-z_max, z_max, z_count)
    half_step = (z_values[1] - z_values[0]) / 2.0 if z_count > 1 else 0.1
    return _fitted_report(
        "truncated_ratio",
        "p_t(x-z)/p_t(y-z) <= C1 t^(-d/alpha) (m/t)^(C2 m), "
        "m = max(2, |x-y|, |y-z|), for truncated stable noise on t in (0,1]",
        spec,
        {"t_grid": t_grid, "offsets": list(offsets), "z_count": z_count, "z_max": z_max, "reach": reach},
        run, z_values, z_values[:-1] + half_step if validation else None, seed,
        lambda fitted, validation_C, _, __: {
            "C2": c_exp,
            "tail_fit": constants.grid_meta.get("tail_fit"),
            **_stability_meta(fitted, validation_C),
        },
        "the densities underflow",
    )


# ---------------------------------------------------------------------------
# finite-measure inequalities (Young, Jensen)


# a finite-measure margin below minus this is a violation
_MARGIN_TOL = 1e-12


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot product of each row pair of two (k, m) stacks.

    matmul hands each row pair to the same length-m BLAS dot that a 1-d
    ``a @ b`` uses, so every value is bit-identical to the one-row product.
    """
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _row_logs(values: np.ndarray) -> np.ndarray:
    """math.log of each value, rounded as the scalar log rounds it."""
    return np.array([math.log(v) for v in values.tolist()])


def _probability_rows(mu: np.ndarray) -> np.ndarray:
    """Each row of mu divided by its total, after the checks both inequalities share."""
    if np.any(mu < 0.0) or not np.all(np.isfinite(mu)):
        raise ValueError("mu must be a finite nonnegative vector")
    total = mu.sum(axis=1)
    if not np.all(total > 0.0):
        raise ValueError("mu must have positive total mass")
    return mu / total[:, None]


def _young_margins(mu: np.ndarray, g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Entropy Young inequality mu(g h) <= mu(g log g) + log mu(e^h), row by row.

    Returns rhs - lhs for each row of the (k, m) stacks mu, g, h; a margin
    below -_MARGIN_TOL is a violation.  Each row of mu is renormalized to a
    probability vector and each row of g to a density with mu(g) = 1, and a
    zero or non-finite total is an error.  The convention 0 log 0 = 0
    applies.  Each margin has the bits of its row stacked alone, and a stack
    with one bad row raises the ValueError that row raises alone.
    """
    mu = _probability_rows(mu)
    if np.any(g < 0.0) or not np.all(np.isfinite(g)):
        raise ValueError("g must be finite and nonnegative")
    mean_g = _row_dots(mu, g)
    if not np.all(mean_g > 0.0):
        raise ValueError("g must have positive mean under mu")
    g = g / mean_g[:, None]
    if np.any(np.abs(_row_dots(mu, g) - 1.0) > 1e-12):
        raise ValueError("density renormalization failed to reach mu(g) = 1")
    if not np.all(np.isfinite(h)):
        raise ValueError("h must be finite")
    with np.errstate(divide="ignore", invalid="ignore"):
        glogg = np.where(g > 0.0, g * np.log(np.where(g > 0.0, g, 1.0)), 0.0)
    lhs = _row_dots(mu, g * h)
    rhs = _row_dots(mu, glogg) + _row_logs(_row_dots(mu, np.exp(h)))
    return rhs - lhs


def _jensen_margins(mu: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Jensen inequality mu(log f) <= log mu(f) for strictly positive f, row by row.

    Returns log mu(f) - mu(log f) for each row of the (k, m) stacks mu, f,
    with mu renormalized, rows and errors as in :func:`_young_margins`.
    """
    mu = _probability_rows(mu)
    if np.any(f <= 0.0) or not np.all(np.isfinite(f)):
        raise ValueError("f must be finite and strictly positive")
    return _row_logs(_row_dots(mu, f)) - _row_dots(mu, np.log(f))


def _margins_by_dim(margins_of, cases: list[tuple]) -> list[float]:
    """margins_of on the cases stacked by dimension, in case order."""
    rows_of: dict[int, list[int]] = {}
    for i, case in enumerate(cases):
        rows_of.setdefault(len(case[0]), []).append(i)
    margins = np.empty(len(cases))
    for rows in rows_of.values():
        stacks = [np.array([cases[i][j] for i in rows]) for j in range(len(cases[rows[0]]))]
        margins[rows] = margins_of(*stacks)
    return margins.tolist()


# the Young and Jensen batteries draw each case's dimension from 1..SUITE_MAX_DIM
SUITE_MAX_DIM = 20


def _finite_measure_suite(kind: str, n_cases: int, seed: SeedSpec) -> InequalityReport:
    rng = seed.rng()
    cases = []
    for _ in range(n_cases):
        m = int(rng.integers(1, SUITE_MAX_DIM + 1))
        mu = rng.dirichlet(np.ones(m))
        if kind == "young":
            g = rng.exponential(1.0, m)
            # a sprinkling of exact zeros exercises the 0 log 0 convention
            g = g * (rng.random(m) > 0.15)
            while not float(mu @ g) > 0.0:
                g = rng.exponential(1.0, m)
            h = rng.uniform(0.0, math.log(1e6), m)
            cases.append((mu, g, h))
        else:
            f = np.exp(rng.normal(0.0, 2.0, m))
            cases.append((mu, f))
    margins = _margins_by_dim(_young_margins if kind == "young" else _jensen_margins, cases)
    results, violations = [], []
    for i, (case, margin) in enumerate(zip(cases, margins)):
        m = len(case[0])
        res = NodeResult(
            node=Node(t=0.0, x=np.array([float(m)]), y=np.array([float(i)])),
            lhs=-margin,
            rhs_shape=1.0,
            slack=0.0,
            extra={"dim": m, "margin": margin},
        )
        results.append(res)
        if not margin >= -_MARGIN_TOL:
            violations.append({"case": i, "dim": m, "margin": margin})
    claim = (
        "mu(g h) <= mu(g log g) + log mu(e^h) for probability mu, density g, bounded h"
        if kind == "young"
        else "mu(log f) <= log mu(f) for probability mu and positive f"
    )
    return InequalityReport(
        inequality_id=kind,
        claim=claim,
        spec_doc={"driver": "none", "kind": "finite_measure"},
        grid_meta={"n_cases": n_cases, "max_dim": SUITE_MAX_DIM},
        per_node=results,
        fitted_C=1.0,
        validation_C=None,
        excluded_nodes=0,
        seed_doc=_seed_doc(seed),
        mc_meta={"min_margin": min(margins, default=math.inf)},
        violations=violations,
    )


def young_suite(n_cases: int = 1000, seed: SeedSpec | None = None) -> InequalityReport:
    """Randomized battery for the entropy Young inequality.

    Dirichlet weights, exponential densities with occasional exact zeros,
    and uniformly bounded exponents (h in [0, log 1e6], so e^h never
    overflows).  Any margin below -1e-12 is recorded as a violation.
    """
    return _finite_measure_suite("young", n_cases, seed or SeedSpec(0))


def jensen_suite(n_cases: int = 1000, seed: SeedSpec | None = None) -> InequalityReport:
    """Randomized battery for Jensen's inequality on finite measures."""
    return _finite_measure_suite("jensen", n_cases, seed or SeedSpec(0))
