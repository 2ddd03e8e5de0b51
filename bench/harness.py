"""Workloads, correctness checks and metrics of the harnacklab benchmark.

Every operation goes through a public entry point (``cli.main`` for the
``verify`` and ``density`` subcommands, ``density.stable_cdf_1d`` for the CDF
sweep), one at a time: a closed loop with one client, ``--threads 1``
throughout.  ``run.py`` is the command line front end.

Timings are reported at a reference host speed.  On a shared host the speed
of a core drifts, by up to a factor of two over minutes, so that the median
wall time of a 30 s run moved by more than 25 % between runs of the same
code.  A fixed reference kernel, which runs no harnacklab code, is therefore
timed before and after every operation, and each operation's wall time is
scaled by ``REF_SECONDS`` over the mean of the two reference times around
it: the seconds the operation would take on a host where the reference
kernel takes ``REF_SECONDS``.  Wall times are printed and recorded as well.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np
import scipy

import harnacklab
from harnacklab import cli, density, reports, sampling
from harnacklab.levy_core import StableSpec

from tracing import Target, Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

REL_TOL = 1e-6  # acceptance criterion 1's tolerance
# about the reference kernel's time on a quiet core of a 2-core x86-64
# host (Python 3.11, numpy 2.4); it only fixes the scale of the seconds
REF_SECONDS = 0.1
SETUP_REPEATS = 4
SETUP_SNIPPET = (
    "from harnacklab import cli, reports\n"
    "reports.validate_config({'driver': 'stable', 'd': 2, 'alpha': 1.5})\n"
    "cli.main(['--version'])\n"
)

# Each operation is kept to a few seconds so that a run holds several cycles
# and reports their median.
QUADRATURE_SPEC = {"driver": "stable", "d": 2, "alpha": 1.5, "c": 1.0}
QUADRATURE_GRID = {
    "t_values": [0.25, 1.0], "offsets": [0.0, 1.0, 4.0], "n_z": 10, "validation": False
}
CAUCHY_1D = {"driver": "stable", "d": 1, "alpha": 1.0, "c": 1.0 / math.pi}
CAUCHY_2D = {"driver": "stable", "d": 2, "alpha": 1.0, "c": 1.0 / (2.0 * math.pi)}
OU_SPEC = {"driver": "stable", "d": 2, "alpha": 1.5, "c": 1.0, "A": [[0.5, 0.0], [0.0, 0.5]]}
TRUNCATED_SPEC = {"driver": "truncated_stable", "d": 1, "alpha": 1.8, "c": 1.0, "r": 0.5}
TRUNCATED_IDS = ("log_harnack", "truncated_ratio", "young", "jensen")
MC_GRID = {"n": 20000}  # Monte Carlo sample size of ou-mc and truncated-mc

# the d=1 sweep reaches past the oscillation cap, so some radii fall back to
# the tail asymptote; the CDF's cost grows with radius, and its top radius
# takes about half of the sweep
D1_RADII = np.logspace(-2.0, 4.0, 100)
D2_RADII = np.logspace(-2.0, 3.0, 50)
CDF_RADII = np.logspace(-1.0, math.log10(2e4), 10)

TRACE_TARGETS = (
    Target("harnacklab.levy_core", "sphere_cf"),
    Target("harnacklab.levy_core", "compute_sigma"),
    Target("harnacklab.levy_core", "op_norm", cls="OUSpec"),
    Target("harnacklab.density", "stable_density"),
    Target("harnacklab.density", "stable_density_grid"),
    Target("harnacklab.density", "stable_cdf_1d"),
    Target("harnacklab.density", "estimate_bound_constants"),
    Target("harnacklab.density", "truncated_density_estimate"),
    Target("harnacklab.density", "kde_1d"),
    Target("harnacklab.sampling", "sample_rot_stable", keep_args=True),
    Target("harnacklab.sampling", "sample_truncated_stable", keep_args=True),
    Target("harnacklab.sampling", "sample_increment"),
    Target("harnacklab.ou_semigroup", "noise", cls="SemigroupSampler"),
    Target("harnacklab.ou_semigroup", "values", cls="SemigroupSampler"),
    Target("harnacklab.ou_semigroup", "ou_noise"),
    Target("harnacklab.ou_semigroup", "sample_ou"),
    Target("harnacklab.ou_semigroup", "matrix_exp"),
    Target("harnacklab.harnack_lab", "verify_harnack"),
    Target("harnacklab.harnack_lab", "verify_p_harnack"),
    Target("harnacklab.harnack_lab", "verify_log_harnack"),
    Target("harnacklab.harnack_lab", "verify_ratio_lemma"),
    Target("harnacklab.harnack_lab", "verify_truncated_ratio"),
    Target("harnacklab.harnack_lab", "young_suite"),
    Target("harnacklab.harnack_lab", "jensen_suite"),
    Target("harnacklab.harnack_lab", "fit_constant"),
    Target("harnacklab.reports", "write_report"),
    Target("harnacklab.reports", "validate_report"),
    Target("harnacklab.cli", "main"),
)


# ---------------------------------------------------------------------------
# operations


@dataclass
class Outcome:
    """What one operation returned, plus what its checks found."""

    op: str
    kind: str
    seconds: float  # wall time
    ref_s: float = 0.0  # mean reference-kernel time just before and after
    failures: list[str] = field(default_factory=list)
    nodes: int = 0
    excluded: int = 0
    bytes_written: int = 0
    fallbacks: int = 0
    clamped: int = 0
    digests: dict[str, str] = field(default_factory=dict)

    @property
    def scaled(self) -> float:
        """Wall time scaled to the reference host speed."""
        return self.seconds * REF_SECONDS / self.ref_s


@dataclass
class Op:
    """One call into the program.  ``run`` is timed; ``check`` is not."""

    name: str
    kind: str  # "verify", "density" or "cdf"
    run: Callable[[Path], object]
    check: Callable[[object, Path, Outcome], None]


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def verify_op(
    name: str, spec: Path, inequality: str, ids, seed: int, grid: Path | None = None
) -> Op:
    """``harnacklab verify``; every id must print PASS and write a valid report."""
    argv = ["verify", "--spec", str(spec), "--inequality", inequality, "--seed", str(seed)]
    argv += ["--threads", "1"] + (["--grid", str(grid)] if grid else [])

    def run(out: Path):
        return _cli(argv + ["--out", str(out)])

    def check(result, out: Path, outcome: Outcome) -> None:
        rc, text = result
        if rc != 0:
            outcome.failures.append(f"verify {inequality} exited {rc}")
        lines = text.splitlines()
        printed = [line.split(":", 1)[0] for line in lines]
        if printed != list(ids):
            outcome.failures.append(f"verify printed ids {printed}, expected {list(ids)}")
        for line in lines:
            if not re.match(r"^\S+: PASS ", line):
                outcome.failures.append(f"not a PASS line: {line!r}")
        for one in ids:
            path = out / f"report_{one}.json"
            try:
                doc = json.loads(path.read_text())
                reports.validate_report(doc)
            except Exception as exc:  # any unreadable or invalid report is a failed check
                outcome.failures.append(f"report {one}: {type(exc).__name__}: {exc}")
                continue
            fitted = doc["fitted_C"]
            if not (isinstance(fitted, (int, float)) and math.isfinite(fitted) and fitted > 0):
                outcome.failures.append(f"report {one}: fitted_C={fitted!r} is not finite > 0")
            outcome.nodes += len(doc["per_node"]) + doc["excluded_nodes"]
            outcome.excluded += doc["excluded_nodes"]
            canon = reports.canonical_json(doc).encode()
            outcome.digests[one] = hashlib.sha256(canon).hexdigest()
        outcome.bytes_written = sum(p.stat().st_size for p in out.iterdir() if p.is_file())

    return Op(name, "verify", run, check)


def density_op(name: str, spec: Path, radii: np.ndarray, exact) -> Op:
    """``harnacklab density --radii`` at t=1, checked against a closed form."""
    argv = ["density", "--spec", str(spec), "--t", "1", "--threads", "1"]
    argv += ["--radii", ",".join(repr(float(r)) for r in radii)]

    def run(out: Path):
        return _cli(argv + ["--out", str(out / "density.json")])

    def check(result, out: Path, outcome: Outcome) -> None:
        rc, _ = result
        if rc != 0:
            outcome.failures.append(f"density exited {rc}")
            return
        doc = json.loads((out / "density.json").read_text())
        r = np.asarray(doc["points"], dtype=float)[:, 0]
        err = np.max(np.abs(np.asarray(doc["values"]) / exact(r) - 1.0))
        if not err <= REL_TOL:
            outcome.failures.append(f"{name}: relative error {err:.3g}")
        outcome.fallbacks = doc["meta"]["method_counts"].get("asymptotic", 0)
        outcome.clamped = doc["meta"]["clamped"]

    return Op(name, "density", run, check)


def cdf_op() -> Op:
    """``stable_cdf_1d`` of the Cauchy process at t=1, against 1/2 + atan(r)/pi."""
    spec = StableSpec(**{k: v for k, v in CAUCHY_1D.items() if k != "driver"})

    def run(out: Path):
        return [density.stable_cdf_1d(spec, 1.0, float(r)) for r in CDF_RADII]

    def check(values, out: Path, outcome: Outcome) -> None:
        exact = 0.5 + np.arctan(CDF_RADII) / math.pi
        err = np.max(np.abs(np.asarray(values) / exact - 1.0))
        if not err <= REL_TOL:
            outcome.failures.append(f"cdf relative error {err:.3g}")

    return Op("cdf", "cdf", run, check)


def cauchy_1d(r):
    return 1.0 / (math.pi * (1.0 + r * r))


def cauchy_2d(r):
    return 1.0 / (2.0 * math.pi * (1.0 + r * r) ** 1.5)


def build_ops(workload: str, seed: int, inputs: Path) -> list[Op]:
    """The operations of one cycle of ``workload``, inputs written to ``inputs``."""

    def write(name: str, doc: dict) -> Path:
        path = inputs / name
        path.write_text(json.dumps(doc))
        return path

    if workload == "quadrature":
        spec = write("quadrature.json", QUADRATURE_SPEC)
        grid = write("quadrature_grid.json", QUADRATURE_GRID)
        cauchy_1d_spec = write("cauchy_1d.json", CAUCHY_1D)
        cauchy_2d_spec = write("cauchy_2d.json", CAUCHY_2D)
        return [
            verify_op("ratio_lemma", spec, "ratio_lemma", ["ratio_lemma"], seed, grid),
            density_op("density_d1", cauchy_1d_spec, D1_RADII, cauchy_1d),
            density_op("density_d2", cauchy_2d_spec, D2_RADII, cauchy_2d),
            cdf_op(),
        ]
    if workload == "ou-mc":
        spec = write("ou.json", OU_SPEC)
        grid = write("mc_grid.json", MC_GRID)
        return [
            verify_op(ineq, spec, ineq, [ineq], seed, grid)
            for ineq in ("harnack_ou", "p_harnack", "log_harnack")
        ]
    if workload == "truncated-mc":
        spec = write("truncated.json", TRUNCATED_SPEC)
        grid = write("mc_grid.json", MC_GRID)
        return [verify_op("all", spec, "all", TRUNCATED_IDS, seed, grid)]
    raise ValueError(f"unknown workload {workload!r}")


def reference_kernel() -> float:
    """Wall time of a fixed piece of work that calls no harnacklab code.

    It mixes what the workloads spend their time on: a scalar Python loop
    with small numpy calls, like a quadrature integrand, and vectorised
    random draws, transcendental functions and a sort over an 8 MB array,
    like the samplers and the KDE.  A slow spell of the host slows the first
    part by up to twice as much as the second.
    """
    t0 = perf_counter()
    ones = np.ones(3)
    total = 0.0
    for i in range(20_000):
        total += math.cos(i * 1e-3) * float(np.sum(ones))
    x = np.random.default_rng(12345).standard_normal(1_000_000)
    total += float(np.sort(np.exp(-0.5 * x * x) * x)[-1])
    return perf_counter() - t0


def run_cycle(ops: list[Op], scratch: Path, tracer: Tracer | None = None) -> list[Outcome]:
    """Run every operation once, in order and traced if a tracer is given,
    then check each result outside the trace.  The reference kernel runs
    before the first operation and after each one."""
    done = []
    ref = reference_kernel()
    with tracer or contextlib.nullcontext():
        for op in ops:
            out = scratch / op.name
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir(parents=True)
            outcome = Outcome(op.name, op.kind, 0.0)
            t0 = perf_counter()
            try:
                result = op.run(out)
            except Exception as exc:  # a crashing operation is a failed operation
                result = None
                outcome.failures.append(f"{op.name} raised {type(exc).__name__}: {exc}")
            outcome.seconds = perf_counter() - t0
            after = reference_kernel()
            outcome.ref_s, ref = (ref + after) / 2.0, after
            done.append((op, out, outcome, result))
    for op, out, outcome, result in done:
        if not outcome.failures:
            op.check(result, out, outcome)
    return [outcome for _, _, outcome, _ in done]


def cycle_totals(outcomes: list[Outcome]) -> dict[str, float]:
    """Scaled times of one cycle, and its wall times under ``*_wall_s``."""
    verify = [o for o in outcomes if o.kind == "verify"]
    verify_s = sum(o.scaled for o in verify)
    return {
        "cycle_s": sum(o.scaled for o in outcomes),
        "verify_s": verify_s,
        "nodes_per_s": sum(o.nodes for o in verify) / verify_s,
        "density_s": sum(o.scaled for o in outcomes if o.kind == "density"),
        "cdf_s": sum(o.scaled for o in outcomes if o.kind == "cdf"),
        "cycle_wall_s": sum(o.seconds for o in outcomes),
        "verify_wall_s": sum(o.seconds for o in verify),
        "ref_s": statistics.median(o.ref_s for o in outcomes),
    }


# ---------------------------------------------------------------------------
# set-up time


def time_setup() -> tuple[float, str | None]:
    """Time of a fresh process that imports harnacklab, builds the CLI parser
    and loads the config schema, scaled like an operation, and its failure,
    if any."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    ref = reference_kernel()
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_SNIPPET], env=env, cwd=ROOT, capture_output=True,
        text=True, timeout=120,
    )
    elapsed = perf_counter() - t0
    elapsed *= REF_SECONDS / ((ref + reference_kernel()) / 2.0)
    if proc.returncode != 0 or proc.stdout.strip() != f"harnacklab {harnacklab.__version__}":
        return elapsed, f"setup process exited {proc.returncode}: {proc.stderr.strip()[-200:]}"
    return elapsed, None


# ---------------------------------------------------------------------------
# the traced cycle


def layer_metrics(
    tracer: Tracer, stats, outcomes: list[Outcome], cycle_s: float
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced cycle, as name -> (value, unit).

    Self time is given as a share of the traced cycle's wall time: a layer
    that a workload bypasses then reads 0 %, not a time of exactly 0 s.
    """
    metrics: dict[str, tuple[float, str]] = {}
    for name in tracer.names:
        calls, self_s = stats.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_pct"] = (100.0 * self_s / cycle_s, "%")

    rot = tracer.calls.get("sampling.sample_rot_stable", [])
    truncated = tracer.calls.get("sampling.sample_truncated_stable", [])
    metrics["sampling.sample_rot_stable.draws"] = (sum(a["n"] for a in rot), "count")
    metrics["sampling.sample_truncated_stable.draws"] = (sum(a["n"] for a in truncated), "count")
    metrics["sampling.expected_jumps"] = (sum(map(expected_jumps, truncated)), "count")
    requests = metrics["ou_semigroup.SemigroupSampler.noise.calls"][0]
    misses = metrics["ou_semigroup.ou_noise.calls"][0]
    hit_ratio = (requests - misses) / requests if requests else 0.0
    metrics["ou_semigroup.noise_cache_hit_ratio"] = (hit_ratio, "ratio")
    nodes = sum(o.nodes for o in outcomes)
    excluded = sum(o.excluded for o in outcomes)
    metrics["harnack_lab.nodes"] = (nodes, "count")
    metrics["harnack_lab.excluded_nodes"] = (excluded, "count")
    metrics["harnack_lab.useful_ratio"] = ((nodes - excluded) / nodes if nodes else 0.0, "ratio")
    metrics["density.asymptotic_fallbacks"] = (sum(o.fallbacks for o in outcomes), "count")
    metrics["density.clamped"] = (sum(o.clamped for o in outcomes), "count")
    metrics["reports.bytes_written"] = (sum(o.bytes_written for o in outcomes), "B")
    return metrics


def expected_jumps(call: dict) -> float:
    """Expected Poisson jumps of one ``sample_truncated_stable`` call (computed)."""
    spec, t = call["spec"], call["t"]
    eps = call["epsilon"]
    if eps is None:
        eps = sampling.default_small_jump_cutoff(spec, t)
    return call["n"] * t * sampling.make_jump_decomposition(spec, eps).poisson_intensity


def per_call_rates(stats, metrics) -> dict[str, tuple[float, str]]:
    """Rates that are defined only where the layer ran (printed, not gated)."""
    rates = {}
    for name in ("density.stable_density", "density.stable_cdf_1d"):
        calls, self_s = stats.get(name, (0, 0.0))
        if calls:
            rates[f"{name}.s_per_call"] = (self_s / calls, "s")
    for name in ("sampling.sample_rot_stable", "sampling.sample_truncated_stable"):
        _, self_s = stats.get(name, (0, 0.0))
        draws = metrics[f"{name}.draws"][0]
        if draws:
            rates[f"{name}.draws_per_s"] = (draws / self_s, "1/s")
    return rates


SPLIT_RULES = {
    "quadrature": (
        "sampling.sample_rot_stable.draws",
        "sampling.sample_truncated_stable.draws",
    ),
    "ou-mc": ("density.stable_density.calls",),
    "truncated-mc": ("density.stable_density.calls", "ou_semigroup.matrix_exp.calls"),
}


def split_failures(workload: str, metrics) -> list[str]:
    """The workload split: counts that must be 0 for the workload to be cut as claimed."""
    return [
        f"workload split: {name} is {metrics[name][0]}, expected 0"
        for name in SPLIT_RULES[workload]
        if metrics[name][0] != 0
    ]


# ---------------------------------------------------------------------------
# environment and records


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def environment(workload: str, seed: int) -> dict:
    rev = None
    if (ROOT / ".git").exists():
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        ).stdout.strip() or None
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_rev": rev,
        "src_sha256": src_digest(),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
    }


def check_digests(workload: str, seed: int, env: dict, cycles: list[list[Outcome]]) -> None:
    """Report bytes must agree across cycles and across runs at one seed.

    The first digests seen for a (workload, seed, source tree) are stored
    under the work directory; later runs of the same source compare to them.
    """
    path = WORK / "digests" / f"{workload}-seed{seed}.json"
    seen: dict[str, str] = {}
    if path.exists():
        stored = json.loads(path.read_text())
        if stored.get("src_sha256") == env["src_sha256"]:
            seen = stored["reports"]
    for outcomes in cycles:
        for o in outcomes:
            for rid, digest in o.digests.items():
                if seen.setdefault(rid, digest) != digest:
                    o.failures.append(f"report {rid}: canonical bytes differ from an earlier run")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"src_sha256": env["src_sha256"], "reports": seen}, indent=1))


# ---------------------------------------------------------------------------
# one benchmark run


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure ``workload`` for ``seconds``; returns the result document.

    ``attempted`` counts set-up processes, operations and, in a traced run,
    the workload-split check; ``failed`` counts those whose checks failed.
    """
    WORK.mkdir(exist_ok=True)
    env = environment(workload, seed)
    failures: list[str] = []
    attempted = failed = 0
    setup_times: list[float] = []

    # importing this module already wrote harnacklab's bytecode cache, which
    # users pay once, so every set-up process is timed
    def setup() -> None:
        nonlocal attempted, failed
        elapsed, failure = time_setup()
        attempted += 1
        if failure:
            failed += 1
            failures.append(failure)
        setup_times.append(elapsed)

    with tempfile.TemporaryDirectory(dir=WORK, prefix=f"{workload}-") as tmp:
        scratch = Path(tmp)
        ops = build_ops(workload, seed, scratch)
        # the first cycle fills lazy imports and caches: it is checked and
        # counts toward the measured seconds, but not toward the medians
        t0 = perf_counter()
        warmup = run_cycle(ops, scratch / "out")
        cycles: list[list[Outcome]] = []
        last = measured = perf_counter() - t0
        # stop at the cycle boundary nearest to ``seconds``
        while not cycles or measured + last / 2 < seconds:
            # set-up samples are spread over the run, so that a slow spell of
            # the host does not decide all of them
            if not trace and len(setup_times) < SETUP_REPEATS:
                setup()
            t0 = perf_counter()
            cycles.append(run_cycle(ops, scratch / "out"))
            last = perf_counter() - t0
            measured += last
        while not trace and len(setup_times) < SETUP_REPEATS:
            setup()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        per_layer, rates, checked = {}, {}, [warmup] + cycles
        if trace:
            tracer = Tracer(TRACE_TARGETS)
            traced = run_cycle(ops, scratch / "out", tracer)
            traced_totals = cycle_totals(traced)
            checked.append(traced)
            stats = self_times(tracer.spans())
            per_layer = layer_metrics(tracer, stats, traced, traced_totals["cycle_wall_s"])
            untraced_verify = statistics.median(cycle_totals(c)["verify_s"] for c in cycles)
            overhead = traced_totals["verify_s"] - untraced_verify
            per_layer["trace.cycle_s"] = (traced_totals["cycle_s"], "s")
            per_layer["trace.overhead_s"] = (overhead, "s")
            rates = per_call_rates(stats, per_layer)
            split = split_failures(workload, per_layer)
            attempted += 1
            failed += bool(split)
            failures += split
            tracer.save(WORK / "trace" / f"{workload}.npz")

    check_digests(workload, seed, env, checked)
    for outcomes in checked:
        for o in outcomes:
            attempted += 1
            failed += bool(o.failures)
            failures += o.failures

    totals = [cycle_totals(c) for c in cycles]
    median = {key: statistics.median(t[key] for t in totals) for key in totals[0]}
    end_to_end = {
        "verify_s": (median["verify_s"], "s"),
        "cycle_s": (median["cycle_s"], "s"),
        "nodes_per_s": (median["nodes_per_s"], "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    if setup_times:
        end_to_end["setup_s"] = (statistics.median(setup_times), "s")
    info = {"error_rate": (failed / attempted, "1")}
    if workload == "quadrature":
        info["density_s"] = (median["density_s"], "s")
        info["cdf_s"] = (median["cdf_s"], "s")
    info["verify_wall_s"] = (median["verify_wall_s"], "s")
    info["cycle_wall_s"] = (median["cycle_wall_s"], "s")
    info["reference_kernel_s"] = (median["ref_s"], "s")
    return {
        "env": env,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "samples": {"cycles": len(cycles), "setup_runs": len(setup_times)},
        "end_to_end": end_to_end,
        "info": info,
        "per_layer": per_layer,
        "rates": rates,
        "cycles": [[o.__dict__ for o in c] for c in checked],
        "setup_times": setup_times,
    }
