"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep_cells --seed 1 --seconds 20 --trace 0

The program under test is imported from ``src/`` of the checkout.  The
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics,
measured from benchmark-side spans (layers a workload does not run
report 0).  Earlier lines carry the environment block, the
machine-speed probe and the run's fixed parameters; a traced run also
writes its spans to ``.perfbench_out/``.  Any failed output check
makes the run exit 1.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def catalogue(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    return {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    import harness as H

    units = catalogue(bool(args.trace))
    env = H.environment(ROOT, args.workload, args.seed)
    env["probe_start"] = H.speed_probe()
    module = importlib.import_module(f"workloads.{args.workload}")
    t0 = time.perf_counter()
    try:
        outcome = module.run(args.seed, args.seconds, bool(args.trace))
    except Exception:  # noqa: BLE001 — a crashed run reports no result
        traceback.print_exc()
        return 1
    env["run_wall_s"] = time.perf_counter() - t0
    env["probe_end"] = H.speed_probe()
    print("env " + json.dumps(env, sort_keys=True))
    print("run " + json.dumps(outcome.info, sort_keys=True))
    for error in outcome.errors[:20]:
        print("FAILED " + error)

    missing = sorted(set(units) - set(outcome.metrics))
    if missing and not args.trace and not outcome.errors:
        print(f"workload did not report {missing}", file=sys.stderr)
        return 1
    extra = sorted(set(outcome.metrics) - set(units))
    if extra:
        print(f"workload reported undeclared metrics {extra}", file=sys.stderr)
        return 1
    if args.trace:
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        path = out / f"spans-{args.workload}-{args.seed}.json"
        path.write_text(json.dumps({"env": env, "spans": outcome.spans}))
        print(f"spans {len(outcome.spans)} -> {path.relative_to(ROOT)}")

    correct = not outcome.errors
    metrics = {
        name: {"value": float(outcome.metrics.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
        if correct
    }
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(outcome.attempted),
                "failed": int(outcome.failed),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
