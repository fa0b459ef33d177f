"""Run one workload over several seeds and judge each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/steadiness.py --workload serve_wire --seeds 1-10
    python3 perfbench/steadiness.py --workload serve_wire --seeds 1-10 \\
        --output after.json --baseline before.json

For every end-to-end metric it prints the median and quartiles of the
runs (``statistics.quantiles(values, n=4)``), the spread
``(q3 - q1) / median`` and the metric's bound from ``BENCHMARK.json``:
``steady`` when the spread is under a third of the bound, ``ok`` under
the bound, ``unresolved`` above it.  A change whose spread is
unresolved cannot be called unchanged.  With ``--baseline`` (an earlier
``--output`` file) it also prints each median's change against the
baseline's, in the metric's "worse" direction, flags a change beyond
the bound, and checks the exact counts (unit ``count`` or ``bit``)
seed by seed: they must repeat exactly.  Exits 1 if any run failed or
was incorrect.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import harness as H  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "error": proc.stderr[-2000:] or proc.stdout[-2000:]}
    result = json.loads(lines[-1])
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    result["probe"] = [env.get("probe_start"), env.get("probe_end")]
    return result


def judge(spread: float, bound: float | None) -> str:
    if bound is None:
        return "-"
    if spread <= bound / 3:
        return "steady"
    return "ok" if spread <= bound else "unresolved"


def worse_change(now: float, before: float, better: str) -> float:
    """The median's relative change, positive when it got worse."""
    if before == 0:
        return 0.0
    change = (now - before) / abs(before)
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--output", default=None, help="write the values as JSON")
    parser.add_argument("--baseline", default=None,
                        help="an earlier --output file to compare medians against")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    seeds = parse_seeds(args.seeds)

    values: dict[str, list[float]] = {m["name"]: [] for m in declared}
    by_seed: dict[str, dict[str, float]] = {}
    bad = 0
    for seed in seeds:
        result = run_once(args.workload, seed, seconds, args.trace)
        if not result.get("correct"):
            bad += 1
            print(f"seed {seed}: FAILED {result.get('error', '')[-400:]}")
            continue
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        by_seed[str(seed)] = {n: m["value"] for n, m in result["metrics"].items()}
        start, end = result["probe"]
        print(f"seed {seed}: ok ({result['attempted']} attempted; speed probe "
              f"python {start['python_ms']:.1f}->{end['python_ms']:.1f} ms, "
              f"numpy {start['numpy_ms']:.2f}->{end['numpy_ms']:.2f} ms)")

    baseline = base_by_seed = None
    if args.baseline:
        base = json.loads(Path(args.baseline).read_text())
        baseline, base_by_seed = base["values"], base["by_seed"]
    print(f"\n{args.workload}: {len(seeds) - bad}/{len(seeds)} runs, {seconds}s each")
    print(f"{'metric':28} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8} "
          f"{'bound':>6}  verdict" + ("   vs baseline" if baseline else ""))
    for m in declared:
        vals = values[m["name"]]
        if len(vals) < 2:
            continue
        q1, med, q3, spread = H.quartile_spread(vals)
        bound = m.get("bound")
        line = (f"{m['name']:28} {q1:12.5g} {med:12.5g} {q3:12.5g} {spread:8.4f} "
                f"{bound if bound is not None else '-':>6}  {judge(spread, bound)}")
        if baseline and len(baseline.get(m["name"], [])) >= 2 and bound is not None:
            change = worse_change(med, H.quartile_spread(baseline[m["name"]])[1],
                                  m["better"])
            verdict = "WORSE" if change > bound else "within"
            line += f"   {change:+.4f} {verdict}"
        if base_by_seed and m["unit"] in ("count", "bit"):
            changed = [seed for seed, row in by_seed.items()
                       if seed in base_by_seed and row[m["name"]] != base_by_seed[seed][m["name"]]]
            line += f"   CHANGED on seeds {changed}" if changed else "   exact"
        print(line)
    if args.output:
        Path(args.output).write_text(json.dumps(
            {"workload": args.workload, "seconds": seconds, "seeds": seeds,
             "trace": args.trace, "values": values, "by_seed": by_seed}, indent=1))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
