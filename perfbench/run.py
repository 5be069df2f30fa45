"""fvi-bench benchmark: training time per objective kind, every run checked
against the closed-form oracle, with a traced run for per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload tabular-full --seed 0 --seconds 45 --trace 0

With `--trace 0` it prints the end-to-end metrics, means over repetitions
spread across `--seconds` of training; with `--trace 1` it prints the
per-layer metrics of a traced run.  BLAS uses the thread count it finds in
the environment; the benchmark records it and never sets it.

`toy1d`, the paper's 1-D problem and the only workload whose step budget
reaches the closed-form optima, runs the same way but is left out of
BENCHMARK.json: its steps are interpreter overhead on tiny matrices, and on
a shared host their time moved by up to 2x within minutes, far beyond any
regression bound.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The full result, with the
environment and every run's accuracy, and the spans of a traced run are
written to `perfbench_out/`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench_out"


def _import_library():
    """Put the checkout's library first on the path; refuse to run without it."""
    src = ROOT / "src"
    if not (src / "fvi_bench" / "__init__.py").is_file():
        sys.exit(f"error: the fvi_bench sources are missing under {src}")
    sys.path[:0] = [path for path in (str(src), str(ROOT)) if path not in sys.path]
    import fvi_bench

    if Path(fvi_bench.__file__).resolve().parent != src / "fvi_bench":
        sys.exit(f"error: imported fvi_bench from {fvi_bench.__file__}, not from {src}")


def main(argv: list[str] | None = None) -> int:
    _import_library()
    from perfbench import harness, workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    env = harness.environment()
    print("environment:", json.dumps(env), flush=True)
    generated = workloads.generate(args.workload, args.seed)
    spans = None
    if args.trace:
        metrics, outcomes, spans = harness.measure_traced(generated, args.seconds)
    else:
        metrics, outcomes = harness.measure(generated, args.seconds)

    failed = 0
    for outcome in outcomes:
        failed += bool(outcome["failures"])
        for failure in outcome["failures"]:
            print(f"FAILED {outcome['task']} {outcome['run']}: {failure}")
    reported = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if spans is not None:
        with open(OUT_DIR / f"{stem}-spans.jsonl", "w", encoding="utf-8") as handle:
            handle.writelines(json.dumps(record) + "\n" for record in spans)
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as handle:
        result = {"args": vars(args), "environment": env, "metrics": reported, "runs": outcomes}
        json.dump(result, handle, indent=1)

    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(outcomes),
                "failed": failed,
                "metrics": reported,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
