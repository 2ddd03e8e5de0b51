"""Self-tests of the benchmark: ``python3 -m pytest -q bench/test_bench.py``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402


def test_self_time_of_a_synthetic_span_tree():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 3.0, 0),
        ("leaf", 1.5, 2.5, 1),
        ("b", 2.0, 5.0, 0),  # overlaps a: the covered time is the union, 1..5
        ("c", 6.0, 7.0, 0),
        ("c", 8.0, 8.5, 0),
        ("root", 20.0, 21.0, -1),
    ]
    got = self_times(spans)
    assert got["root"] == (2, pytest.approx(10.0 - 4.0 - 1.0 - 0.5 + 1.0))
    assert got["a"] == (1, pytest.approx(1.0))
    assert got["leaf"] == (1, pytest.approx(1.0))
    assert got["b"] == (1, pytest.approx(3.0))
    assert got["c"] == (2, pytest.approx(1.5))


def _bindings():
    """Every attribute of every harnacklab module and traced class, by identity."""
    seen = {}
    for name, mod in list(sys.modules.items()):
        if name == "harnacklab" or name.startswith("harnacklab."):
            for attr, value in vars(mod).items():
                seen[(name, attr)] = id(value)
                if isinstance(value, type):
                    for member, obj in vars(value).items():
                        seen[(name, attr, member)] = id(obj)
    return seen


def test_tracer_restores_every_wrapped_function():
    from harnacklab import harnack_lab, levy_core

    before = _bindings()
    original = harnack_lab.stable_density
    with Tracer(harness.TRACE_TARGETS) as tracer:
        assert harnack_lab.stable_density is not original
        assert harnack_lab.stable_density.__wrapped__ is original
        levy_core.OUSpec(A=[[0.5]], driver=levy_core.StableSpec(d=1, alpha=1.5)).op_norm
    assert tracer.spans()[0][0] == "levy_core.OUSpec.op_norm"
    assert _bindings() == before


def test_traced_report_bytes_equal_untraced(tmp_path):
    spec = tmp_path / "ou.json"
    spec.write_text(json.dumps(harness.OU_SPEC))
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"t_values": [0.5], "offsets": [0.0, 1.0], "n": 2000}))
    ops = [harness.verify_op("harnack_ou", spec, "harnack_ou", ["harnack_ou"], 7, grid)]

    plain = harness.run_cycle(ops, tmp_path / "plain")
    tracer = Tracer(harness.TRACE_TARGETS)
    traced = harness.run_cycle(ops, tmp_path / "traced", tracer)

    assert not plain[0].failures and not traced[0].failures
    # digests are sha256 of each report's canonical_json bytes
    assert plain[0].digests.keys() == {"harnack_ou"}
    assert plain[0].digests == traced[0].digests
    stats = self_times(tracer.spans())
    assert stats["harnack_lab.verify_harnack"][0] == 1
    assert stats["ou_semigroup.SemigroupSampler.values"][0] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ou-mc", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
