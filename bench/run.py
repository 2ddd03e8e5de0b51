"""harnacklab benchmark.

    python3 bench/run.py --workload quadrature --seed 1 --seconds 30 --trace 0

Runs one workload (quadrature, ou-mc or truncated-mc) closed loop, one
operation at a time, for ``--seconds`` to the nearest cycle boundary, and
checks every output.  The first cycle is a warm-up and is not in the medians.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` adds one traced
pass over the workload and reports the per-layer metrics instead.  Times are
scaled to a reference host speed, measured between operations (see
``harness.py``); wall times are printed beside them.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric with its unit.  A full record, including the environment, goes to
``.bench_work/results/`` and the spans of a traced pass to
``.bench_work/trace/``.

The program is imported from ``src/`` next to this directory; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

WORKLOADS = ("quadrature", "ou-mc", "truncated-mc")


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be nonnegative")
    return value


def _positive(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("seconds must be positive")
    return value


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="harnacklab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=_nonnegative)
    parser.add_argument("--seconds", required=True, type=_positive)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def _print_metrics(title: str, metrics: dict) -> None:
    print(f"# {title}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:>18.6g} {unit}")


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "harnacklab" / "__init__.py").is_file():
        print(f"benchmark: no harnacklab sources under {root / 'src'}", file=sys.stderr)
        return 2
    # one thread everywhere, set before numpy is first imported
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(root / "src"))

    import harness

    doc = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("# env " + json.dumps(doc["env"], sort_keys=True))
    for failure in doc["failures"]:
        print(f"# FAILED {failure}")
    samples = doc["samples"]
    if args.trace:
        _print_metrics("per-layer metrics of one traced cycle", doc["per_layer"])
        _print_metrics("per-call rates where the layer ran (not gated)", doc["rates"])
        metrics = doc["per_layer"]
    else:
        _print_metrics(
            f"end-to-end metrics: medians of {samples['cycles']} cycles, "
            f"setup_s of {samples['setup_runs']} fresh processes; times at the "
            f"reference host speed (harness.REF_SECONDS)",
            doc["end_to_end"],
        )
        metrics = doc["end_to_end"]
    _print_metrics("other results (not gated)", doc["info"])

    record = harness.WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps(doc, indent=1, sort_keys=True))

    result = {
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
