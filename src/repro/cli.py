"""Command-line interface.

Main subcommands::

    repro-cli color      --family random_regular --n 120 --degree 10
    repro-cli edge-color --family ring --n 40
    repro-cli experiment E09 [--full]
    repro-cli sweep      --algorithms linial,linial_vectorized --cache-dir C
    repro-cli faults     --mode drop --rates 0.0,0.1,0.3
    repro-cli report     --cache-dir C
    repro-cli fuzz       --seed 0 --iterations 50 --corpus tests/corpus
    repro-cli serve      --port 7341 --max-batch 64
    repro-cli backends
    repro-cli families

``color`` runs the Theorem 1.4 pipeline on a generated graph and prints
the run metrics; ``edge-color`` does the same on the line graph;
``experiment`` renders one of the reproduction experiments; ``sweep``
runs a cached grid of (family, n, seed, algorithm) cells; ``faults``
charts validity/rounds/bits degradation under a seeded
:class:`~repro.faults.FaultPlan`, raw vs resilient-wrapped, with both
engines cross-checked per rate (see ``docs/RESILIENCE.md``); ``report``
either writes the full experiment record or — with ``--cache-dir`` /
``--runs`` — renders observability run records as per-round tables plus
the reference-vs-vectorized cross-engine comparisons; ``fuzz`` replays
the pinned failure corpus and then runs the differential
reference-vs-vectorized fuzz loop (see ``docs/FUZZING.md``);
``fuzz --backend partitioned`` runs the same loop against the
shard-parallel driver of :mod:`repro.sim.partition` (fault cases skipped
— the backend declares ``supports_faults=False``); ``serve`` runs the
:mod:`repro.serve` continuous-batching daemon on a local TCP port
(``--smoke`` instead starts it, fires a pinned synthetic burst from
concurrent clients, asserts every coloring validates and equals the
offline batched engine's on the recipe's networkx graph, and shuts down
— the CI serving check); ``backends`` prints the
:mod:`repro.sim.backends` registry with each backend's capabilities;
``families`` lists the available graph generators and their parameters.
"""

from __future__ import annotations

import argparse
import inspect
import sys

from . import graphs
from .algorithms import congest_degree_plus_one
from .core import degree_plus_one_instance, validate_ldc
from .experiments import EXPERIMENTS, get_runner
from .graphs import (
    edge_coloring_from_line,
    edge_degree_plus_one_instance,
    validate_edge_coloring,
)

_FAMILY_FNS = {
    name: fn
    for name, fn in vars(graphs.generators).items()
    if not name.startswith("_")
    and callable(fn)
    and name
    not in ("family", "max_degree", "nx")
    and inspect.isfunction(fn)
}


def _build_graph(args: argparse.Namespace):
    if getattr(args, "graph_file", None):
        from .io import load_graph_edgelist

        return load_graph_edgelist(args.graph_file)
    kwargs = {}
    fn = _FAMILY_FNS.get(args.family)
    if fn is None:
        raise SystemExit(f"unknown family {args.family!r}; try `repro-cli families`")
    params = inspect.signature(fn).parameters
    for key in ("n", "degree", "p", "seed", "dim", "rows", "cols", "k",
                "count", "size", "hub_degree", "fringe_cliques", "clique_size"):
        value = getattr(args, key, None)
        if value is not None and key in params:
            kwargs[key] = value
    missing = [
        p.name
        for p in params.values()
        if p.default is inspect.Parameter.empty and p.name not in kwargs
    ]
    if missing:
        raise SystemExit(
            f"family {args.family!r} needs --{' --'.join(missing)}"
        )
    return fn(**kwargs)


def _cmd_color(args: argparse.Namespace) -> int:
    from .algorithms.registry import get as get_algorithm

    g = _build_graph(args)
    delta = max((d for _, d in g.degree), default=0)
    info = get_algorithm(args.algorithm)
    res, metrics = info.runner(g)
    inst = degree_plus_one_instance(g)
    if info.palette == "Delta+1":
        ok = bool(validate_ldc(inst, res))
    else:
        from .core import validate_proper_coloring

        ok = bool(validate_proper_coloring(g, res))
    print(f"n={g.number_of_nodes()} m={g.number_of_edges()} Delta={delta} "
          f"algorithm={info.name} ({info.reference})")
    print(f"colors={res.num_colors()} rounds={metrics.rounds} "
          f"max_msg_bits={metrics.max_message_bits} valid={ok}")
    if args.show:
        for v in sorted(res.assignment)[: args.show]:
            print(f"  node {v}: color {res.assignment[v]}")
    if args.save_json:
        from .io import save_run

        save_run(inst, res, metrics, args.save_json, info={"cmd": "color"})
        print(f"saved run record to {args.save_json}")
    return 0 if ok else 1


def _cmd_edge_color(args: argparse.Namespace) -> int:
    g = _build_graph(args)
    inst, edge_of = edge_degree_plus_one_instance(g)
    res, metrics, rep = congest_degree_plus_one(inst)
    colors = edge_coloring_from_line(res, edge_of)
    ok = bool(validate_edge_coloring(g, colors))
    print(f"n={g.number_of_nodes()} m={g.number_of_edges()}")
    print(f"edge_colors={len(set(colors.values()))} rounds={metrics.rounds} "
          f"max_msg_bits={metrics.max_message_bits} valid={ok}")
    return 0 if ok else 1


def _cmd_experiment(args: argparse.Namespace) -> int:
    result = get_runner(args.id)(fast=not args.full)
    print(result.render())
    return 0 if result.all_checks_pass else 1


def _cmd_map(_args: argparse.Namespace) -> int:
    from .paper_map import render, verify_all

    broken = verify_all()
    print(render())
    if broken:
        print("\nBROKEN REFERENCES:")
        for b in broken:
            print(" ", b)
        return 1
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .analysis.report import write_markdown_report, write_text_report
    from .experiments import run_all

    if args.cache_dir or args.runs:
        return _cmd_report_obs(args)
    results = run_all(fast=not args.full)
    if args.markdown:
        write_markdown_report(results, args.output)
    else:
        write_text_report(results, args.output)
    ok = all(r.all_checks_pass for r in results)
    print(
        f"wrote {len(results)} experiments to {args.output}; "
        f"all checks {'PASS' if ok else 'FAIL'}"
    )
    return 0 if ok else 1


def _cmd_report_obs(args: argparse.Namespace) -> int:
    """Render the run records; exit 1 when there are none or when any
    reference/vectorized pair's round accounting differs (MISMATCH)."""
    from .analysis.report import (
        load_cache_run_records,
        pair_cross_engine,
        render_obs_report,
    )
    from .obs import compare_round_accounting, read_jsonl

    records = []
    if args.cache_dir:
        records.extend(load_cache_run_records(args.cache_dir))
        from .experiments.sweep import corrupt_cache_files

        quarantined = corrupt_cache_files(args.cache_dir)
        if quarantined:
            print(
                f"{len(quarantined)} corrupt cache file(s) quarantined as "
                f"*.json.corrupt under {args.cache_dir}"
            )
    if args.runs:
        try:
            records.extend((args.runs, r) for r in read_jsonl(args.runs))
        except (OSError, ValueError, KeyError) as exc:
            raise SystemExit(f"cannot read run records from {args.runs}: {exc}")
    print(render_obs_report(records))
    mismatched = any(
        not compare_round_accounting(ref, vec)["accounting_equal"]
        for _label, ref, vec in pair_cross_engine(records)
    )
    return 0 if records and not mismatched else 1


def _cmd_selftest(_args: argparse.Namespace) -> int:
    from .selftest import selftest

    failures = selftest()
    if failures:
        print("SELFTEST FAILURES:")
        for f in failures:
            print(" ", f)
        return 1
    print("selftest: all checks passed")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .analysis.compare import compare_algorithms, render_comparison

    g = _build_graph(args)
    names = args.algorithms.split(",") if args.algorithms else None
    rows = compare_algorithms(g, names)
    print(render_comparison(g, rows))
    return 0 if all(r.valid for r in rows) else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    import json as _json
    import time as _time

    from .experiments.sweep import algorithm_names, grid, run_sweep_summarized

    try:
        ns = [int(x) for x in args.n.split(",")]
        seeds = [int(x) for x in args.seeds.split(",")]
    except ValueError as exc:
        raise SystemExit(f"--n/--seeds must be comma-separated integers: {exc}")
    algorithms = args.algorithms.split(",")
    known = set(algorithm_names())
    unknown = [a for a in algorithms if a not in known]
    if unknown:
        raise SystemExit(
            f"unknown algorithm(s) {', '.join(unknown)}; "
            f"options: {', '.join(sorted(known))}"
        )
    extra = {}
    if args.degree is not None:
        extra["degree"] = args.degree
    if args.p is not None:
        extra["p"] = args.p
    try:
        cells = grid(args.family, algorithms, ns, seeds, extra_family_params=extra)
    except KeyError as exc:
        raise SystemExit(exc.args[0])
    t0 = _time.perf_counter()
    summary = run_sweep_summarized(
        cells,
        cache_dir=args.cache_dir,
        workers=args.workers,
        recompute=args.recompute,
    )
    wall = _time.perf_counter() - t0
    header = f"{'algorithm':<20} {'n':>8} {'seed':>5} {'colors':>7} {'rounds':>7} {'wall':>9}  cached"
    print(header)
    print("-" * len(header))
    batched_cells = 0
    for r in summary.results:
        fp = r.data["family_params"]
        rounds = (r.data["metrics"] or {}).get("rounds", "-")
        colors = r.data["colors"] if r.data["colors"] is not None else "-"
        provenance = "yes" if r.cached else "no"
        batched_with = int(r.data.get("batched_with", 1) or 1)
        if batched_with > 1:
            batched_cells += 1
            provenance += f"  batched x{batched_with}"
        if r.failed:
            provenance += f"  FAILED ({r.data['error']['type']})"
        print(
            f"{r.data['algorithm']:<20} {fp.get('n', '-'):>8} "
            f"{fp.get('seed', '-'):>5} {colors:>7} {rounds:>7} "
            f"{r.data['wall_s']*1000:>7.0f}ms  {provenance}"
        )
    if batched_cells:
        print(
            "(batched xN cells share one engine invocation; their wall "
            "column is the whole batch's wall time, ~wall/N per cell)"
        )
    extras = "".join(
        f", {count} {label}"
        for label, count in (
            ("corrupt", summary.corrupt),
            ("stale", summary.stale),
            ("failed", summary.failed),
        )
        if count
    )
    print(
        f"{summary.total} cells ({summary.computed} computed, "
        f"{summary.cached} cached{extras}) in {wall:.2f}s"
    )
    if args.output:
        payload = {
            "family": args.family,
            "cells": [r.data for r in summary.results],
            "computed": summary.computed,
            "cached": summary.cached,
            "wall_s": wall,
        }
        with open(args.output, "w") as fh:
            _json.dump(payload, fh, indent=1, sort_keys=True)
        print(f"saved sweep record to {args.output}")
    bad = [r for r in summary.results if not r.data["valid"]]
    return 1 if bad else 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .fuzz import (
        fuzz_run,
        load_corpus,
        pairs_for_backend,
        run_case,
        run_cases_batched,
    )
    from .sim.backends import BackendError, get_backend

    try:
        spec = get_backend(args.backend)
        registry = pairs_for_backend(args.backend)
    except BackendError as exc:
        raise SystemExit(str(exc))
    known = tuple(registry)
    selected = args.pairs.split(",") if args.pairs else list(known)
    unknown = [p for p in selected if p not in known]
    if unknown:
        raise SystemExit(
            f"unknown engine pair(s) {', '.join(unknown)} for backend "
            f"{spec.name!r}; options: {', '.join(known)}"
        )

    replay_failures = 0
    if args.corpus:
        entries = load_corpus(args.corpus)
        runnable, skipped = [], 0
        for path, case in entries:
            # Pinned cases outside the backend's capabilities (pairs it
            # does not implement, fault cases when supports_faults is
            # off) replay on the default vectorized backend's CI run.
            if case.pair not in registry or (
                case.fault is not None and not spec.supports_faults
            ):
                skipped += 1
                continue
            runnable.append((path, case))
        if args.batch > 1:
            outcomes = run_cases_batched(
                [case for _, case in runnable], pairs=registry
            )
            replayed = [(p, o) for (p, _), o in zip(runnable, outcomes)]
        else:
            replayed = [
                (path, run_case(case, pairs=registry))
                for path, case in runnable
            ]
        for path, outcome in replayed:
            if not outcome.ok:
                replay_failures += 1
                print(f"CORPUS REGRESSION {path}:")
                print("  " + outcome.describe().replace("\n", "\n  "))
        skip_note = (
            f", {skipped} outside backend {spec.name!r} capabilities skipped"
            if skipped
            else ""
        )
        print(
            f"corpus replay: {len(replayed)} pinned case(s), "
            f"{replay_failures} regression(s){skip_note}"
        )

    report = fuzz_run(
        seed=args.seed,
        iterations=args.iterations,
        pair_names=selected,
        corpus_dir=args.failure_dir or None,
        shrink=not args.no_shrink,
        max_failures=args.max_failures,
        batch_size=args.batch,
        backend=args.backend,
    )
    print(report.describe())
    if report.failures:
        print(
            f"new failure(s) pinned under {args.failure_dir}; move the JSON "
            f"into tests/corpus/ alongside the fix to keep it fixed"
        )
    return 1 if (report.failures or replay_failures) else 0


def _cmd_faults(args: argparse.Namespace) -> int:
    import json as _json

    from .core.validate import validate_proper_coloring
    from .experiments.sweep import SweepCell, run_sweep
    from .faults import FaultPlan, resilient_linial
    from .obs import RunRecord, compare_round_accounting

    try:
        ps = [float(x) for x in args.rates.split(",")]
    except ValueError as exc:
        raise SystemExit(f"--rates must be comma-separated floats: {exc}")
    fn = _FAMILY_FNS.get(args.family)
    if fn is None:
        raise SystemExit(f"unknown family {args.family!r}; try `repro-cli families`")
    accepted = set(inspect.signature(fn).parameters)
    fam_params = {"n": args.n, "seed": args.seed}
    if args.degree is not None:
        fam_params["degree"] = args.degree
    fam_params = {k: v for k, v in fam_params.items() if k in accepted}
    graph = fn(**fam_params)

    rate_field = f"p_{args.mode}"
    rows = []
    mismatches = 0
    for p in ps:
        plan_spec = {"seed": args.fault_seed, rate_field: p}
        if args.mode == "crash":
            plan_spec["recovery_rounds"] = 2
        cells = [
            SweepCell.make(args.family, fam_params, algo, {"faults": plan_spec})
            for algo in ("linial_faulty", "linial_faulty_vectorized")
        ]
        ref, vec = run_sweep(cells, cache_dir=args.cache_dir, workers=1)
        if ref.failed or vec.failed:
            raise SystemExit(
                f"faulty cell failed at {rate_field}={p}: "
                f"{(ref if ref.failed else vec).data['error']}"
            )
        cmp = compare_round_accounting(
            RunRecord.from_dict(ref.data["run_record"]),
            RunRecord.from_dict(vec.data["run_record"]),
        )
        agree = (
            cmp["accounting_equal"]
            and cmp["faults_equal"]
            and ref.data["metrics"] == vec.data["metrics"]
        )
        mismatches += 0 if agree else 1
        wres, wm, _pal, info = resilient_linial(
            graph,
            FaultPlan.from_dict(plan_spec),
            retries=args.retries,
            restarts=args.restarts,
        )
        w_ok = bool(validate_proper_coloring(graph, wres))
        rows.append(
            {
                "rate": p,
                "mode": args.mode,
                "raw_valid": ref.data["valid"],
                "engines_agree": agree,
                "raw_rounds": ref.data["metrics"]["rounds"],
                "raw_bits": ref.data["metrics"]["total_bits"],
                "wrapped_valid": w_ok,
                "wrapped_rounds": wm.rounds,
                "wrapped_bits": wm.total_bits,
                "attempts": info["attempts"],
            }
        )
    header = (
        f"{'rate':>6} {'raw valid':>9} {'agree':>5} {'wrap valid':>10} "
        f"{'attempts':>8} {'rounds':>6} {'bits':>9}"
    )
    print(
        f"fault degradation: mode={args.mode} family={args.family} "
        f"{fam_params} retries={args.retries} restarts={args.restarts}"
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['rate']:>6.2f} {str(row['raw_valid']):>9} "
            f"{str(row['engines_agree']):>5} {str(row['wrapped_valid']):>10} "
            f"{row['attempts']:>8} {row['wrapped_rounds']:>6} "
            f"{row['wrapped_bits']:>9}"
        )
    if mismatches:
        print(f"ENGINE MISMATCH on {mismatches} rate(s)")
    if args.output:
        payload = {
            "family": args.family,
            "family_params": fam_params,
            "mode": args.mode,
            "fault_seed": args.fault_seed,
            "retries": args.retries,
            "restarts": args.restarts,
            "rows": rows,
            "engine_mismatches": mismatches,
        }
        with open(args.output, "w") as fh:
            _json.dump(payload, fh, indent=1, sort_keys=True)
        print(f"saved degradation record to {args.output}")
    return 1 if mismatches else 0


def _offline_mismatches(requests, responses) -> list[str]:
    """Ids of the ``ok`` responses whose coloring, palette, rounds or bits
    differ from :func:`~repro.sim.batch.linial_vectorized_batch` on each
    recipe's networkx graph (the daemon serves from edge-emitted CSRs,
    so this also checks the emitters against the networkx generators)."""
    from .sim import linial_vectorized_batch

    served = [r for r in responses if r.status == "ok"]
    if not served:
        return []
    by_id = {r.request_id: r for r in requests}
    picked = [by_id[r.request_id] for r in served]
    offline = linial_vectorized_batch(
        [r.build_graph() for r in picked],
        initial_colors=[r.initial_colors for r in picked],
        defect=[r.defect for r in picked],
        faults=[r.fault_plan() for r in picked],
    )
    return [
        response.request_id
        for response, (result, metrics, palette) in zip(served, offline)
        if response.assignment() != result.assignment
        or (response.palette, response.rounds, response.total_bits)
        != (palette, metrics.rounds, metrics.total_bits)
    ]


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import json as _json

    from .serve import (
        OVERLOAD_STATUSES,
        ColoringServer,
        RetryPolicy,
        ServeConfig,
        fire_traffic,
        synth_requests,
    )
    from .sim.backends import BackendError, require

    config = ServeConfig(
        max_batch=args.max_batch,
        validate=not args.no_validate,
        record_jsonl=args.record_jsonl,
        backend=args.backend,
        max_queue=args.max_queue,
        shed_policy=args.shed_policy,
        drain_timeout_s=args.drain_s,
    )
    try:
        require(config.backend, algorithm="linial", serve=True)
    except BackendError as exc:
        print(exc)
        return 1

    if args.smoke:
        async def smoke() -> int:
            server = ColoringServer(config, host=args.host, port=args.port)
            await server.start()
            print(f"serve smoke: daemon on {args.host}:{server.port}")
            requests = synth_requests(args.seed, args.smoke_requests)
            policy = (
                RetryPolicy(attempts=args.smoke_retries + 1, seed=args.seed)
                if args.smoke_retries > 0
                else None
            )
            report = await fire_traffic(
                args.host,
                server.port,
                requests,
                clients=args.smoke_clients,
                timeout=args.timeout,
                retry_policy=policy,
            )
            stats = server.batcher.stats()
            await server.stop()
            counts = report.status_counts()
            # under admission control every response must land in an
            # overload-legal status; anything else (or a client-side
            # failure, or a lost response) is a smoke failure
            illegal = {
                k: v for k, v in counts.items() if k not in OVERLOAD_STATUSES
            }
            hard_fail = {
                k: v for k, v in counts.items() if k in ("error", "halted")
            }
            invalid = [
                r
                for r in report.responses
                if r.status == "ok" and r.valid is not True
            ]
            mismatched = _offline_mismatches(requests, report.responses)
            print(
                f"serve smoke: {report.requests} requests from "
                f"{args.smoke_clients} clients in {report.wall_seconds:.2f}s "
                f"({report.rps:.0f} rps), statuses={counts}, "
                f"retries={report.retries}, "
                f"client_errors={report.failed_clients}, "
                f"max_occupancy="
                f"{stats['occupancy_stats'].get('max_occupancy', 0)}"
            )
            if args.output:
                with open(args.output, "w") as fh:
                    _json.dump(
                        {
                            "requests": report.requests,
                            "clients": args.smoke_clients,
                            "wall_s": report.wall_seconds,
                            "rps": report.rps,
                            "ok_rps": report.ok_rps,
                            "completed": report.completed,
                            "statuses": counts,
                            "retries": report.retries,
                            "client_errors": report.errors,
                            "stats": stats,
                        },
                        fh,
                        indent=1,
                        sort_keys=True,
                    )
                print(f"saved smoke record to {args.output}")
            if (
                illegal
                or hard_fail
                or invalid
                or mismatched
                or report.errors
                or len(report.responses) != len(requests)
            ):
                print(
                    f"SMOKE FAILURE: illegal={illegal} hard_fail={hard_fail} "
                    f"invalid={len(invalid)} "
                    f"offline_mismatches={mismatched[:5]} "
                    f"client_errors={report.failed_clients} "
                    f"responses={len(report.responses)}/{len(requests)}"
                )
                return 1
            shed = counts.get("rejected", 0) + counts.get("timeout", 0)
            print(
                "serve smoke: all admitted colorings valid and bit-identical "
                f"to the offline engine ({shed} shed/timed out under queue bound "
                f"{config.max_queue}), clean shutdown"
            )
            return 0

        return asyncio.run(smoke())

    async def daemon() -> int:
        server = ColoringServer(config, host=args.host, port=args.port)
        await server.start()
        print(
            f"repro serve: listening on {args.host}:{server.port} "
            f"(backend={config.backend}, max_batch={config.max_batch}); "
            f"send {{\"op\": \"shutdown\"}} to stop"
        )
        await server.serve_forever()
        stats = server.batcher.stats()
        await server.stop()
        print(
            f"repro serve: shut down after {stats['served']} served, "
            f"{stats['halted']} halted, {stats['errors']} errors"
        )
        return 0

    try:
        return asyncio.run(daemon())
    except KeyboardInterrupt:
        print("repro serve: interrupted")
        return 0


def _cmd_partition_run(args: argparse.Namespace) -> int:
    import json as _json

    from .obs import (
        ENGINE_PARTITIONED,
        ENGINE_VECTORIZED,
        RunRecorder,
        compare_round_accounting,
    )
    from .sim.engine import CSRGraph, equal_neighbor_counts
    from .sim.partition import PartitionWorkerError, run_partitioned_linial

    if args.smoke:
        # pinned smoke cell: small, fixed-seed, always cross-checked;
        # n=2048 keeps the schedule at >=2 rounds so the per-round ghost
        # exchange (not just the initial snapshot) is exercised
        args.family = "random_regular"
        args.n = args.n or 2048
        args.degree = args.degree or 3
        args.check = True
    g = _build_graph(args)
    csr = CSRGraph.from_networkx(g)
    rec = RunRecorder(engine=ENGINE_PARTITIONED)
    stats_sink: list = []
    try:
        result, metrics, palette = run_partitioned_linial(
            g,
            defect=args.defect,
            recorder=rec,
            shards=args.shards,
            strategy=args.strategy,
            seed=args.partition_seed,
            mp_context=args.mp_context,
            stats_out=stats_sink,
        )
    except PartitionWorkerError as exc:
        print(f"PARTITION FAILURE: {exc}")
        return 1
    stats = stats_sink[0]
    colors = csr.gather(result.assignment)
    same = equal_neighbor_counts(csr, colors)
    max_same = int(same.max()) if same.size else 0
    valid = max_same <= args.defect and (
        int(colors.max()) < palette if csr.n else True
    )
    print(
        f"partition-run: n={csr.n} m={csr.num_directed_edges // 2} "
        f"shards={stats.shards} strategy={stats.strategy} "
        f"rounds={metrics.rounds} palette={palette} "
        f"wall={stats.wall_s:.2f}s"
    )
    print(
        f"  cut_edge_fraction={stats.cut_edge_fraction:.3f} "
        f"ghost_fraction={stats.ghost_fraction:.3f} "
        f"exchange_bytes/round={stats.exchange_bytes_per_round} "
        f"max_peak_rss={stats.max_peak_rss_kb}kB"
    )
    check = None
    if args.check:
        from .sim.vectorized import linial_vectorized

        rec_v = RunRecorder(engine=ENGINE_VECTORIZED)
        res_v, met_v, pal_v = linial_vectorized(
            g, defect=args.defect, recorder=rec_v
        )
        accounting = compare_round_accounting(rec.record, rec_v.record)
        check = {
            "assignment_equal": result.assignment == res_v.assignment,
            "palette_equal": palette == pal_v,
            "metrics_equal": metrics.summary() == met_v.summary(),
            "accounting": accounting,
        }
        check_ok = (
            check["assignment_equal"]
            and check["palette_equal"]
            and check["metrics_equal"]
            and accounting["accounting_equal"]
            and accounting["rounds_equal"]
        )
        print(
            "  vectorized cross-check: "
            + ("bit-identical" if check_ok else f"MISMATCH {check}")
        )
    else:
        check_ok = True
    if args.output:
        payload = {
            "n": csr.n,
            "m": csr.num_directed_edges // 2,
            "defect": args.defect,
            "palette": palette,
            "rounds": metrics.rounds,
            "valid": valid,
            "max_same_color_neighbors": max_same,
            "stats": stats.to_dict(),
            "exchange": rec.record.rows[0].exchange if rec.record.rows else None,
            "check": check,
        }
        with open(args.output, "w") as fh:
            _json.dump(payload, fh, indent=1, sort_keys=True)
        print(f"saved partition record to {args.output}")
    if not valid:
        print(
            f"PARTITION FAILURE: invalid coloring "
            f"(max same-color neighbors {max_same} > defect {args.defect})"
        )
        return 1
    if not check_ok:
        print("PARTITION FAILURE: diverged from the vectorized engine")
        return 1
    if args.check:
        print("partition-run: valid coloring, bit-identical to vectorized")
    return 0


def _cmd_families(_args: argparse.Namespace) -> int:
    for name in sorted(_FAMILY_FNS):
        sig = inspect.signature(_FAMILY_FNS[name])
        print(f"{name}{sig}")
    return 0


def _cmd_backends(_args: argparse.Namespace) -> int:
    from .sim.backends import describe

    print(describe())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cli",
        description="List defective colorings — reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def graph_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--family", default="random_regular")
        p.add_argument("--graph-file", dest="graph_file", default=None,
                       help="read the topology from an edge-list file instead")
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--degree", type=int, default=None)
        p.add_argument("--p", type=float, default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--dim", type=int, default=None)
        p.add_argument("--rows", type=int, default=None)
        p.add_argument("--cols", type=int, default=None)
        p.add_argument("--hub-degree", dest="hub_degree", type=int, default=None)
        p.add_argument("--fringe-cliques", dest="fringe_cliques", type=int, default=None)
        p.add_argument("--clique-size", dest="clique_size", type=int, default=None)

    p_color = sub.add_parser("color", help="(Delta+1)-color a generated graph")
    graph_args(p_color)
    from .algorithms.registry import algorithm_names

    p_color.add_argument("--algorithm", default="thm14", choices=algorithm_names(),
                         help="which registered coloring algorithm to run")
    p_color.add_argument("--show", type=int, default=0, help="print first N node colors")
    p_color.add_argument("--save-json", dest="save_json", default=None,
                         help="write a run record (instance+coloring+metrics)")
    p_color.set_defaults(func=_cmd_color)

    p_cmp = sub.add_parser("compare", help="run every algorithm on one graph")
    graph_args(p_cmp)
    p_cmp.add_argument("--algorithms", default=None,
                       help="comma-separated registry names (default: all)")
    p_cmp.set_defaults(func=_cmd_compare)

    p_edge = sub.add_parser("edge-color", help="edge-color a generated graph")
    graph_args(p_edge)
    p_edge.set_defaults(func=_cmd_edge_color)

    p_exp = sub.add_parser("experiment", help="run a reproduction experiment")
    p_exp.add_argument("id", choices=sorted(EXPERIMENTS))
    p_exp.add_argument("--full", action="store_true")
    p_exp.set_defaults(func=_cmd_experiment)

    p_sweep = sub.add_parser(
        "sweep",
        help="run a cached, parallel algorithm sweep over a graph-family grid",
    )
    p_sweep.add_argument("--family", default="random_regular")
    p_sweep.add_argument("--n", default="1000",
                         help="comma-separated node counts")
    p_sweep.add_argument("--degree", type=int, default=None)
    p_sweep.add_argument("--p", type=float, default=None)
    p_sweep.add_argument("--seeds", default="0",
                         help="comma-separated generator seeds")
    from .experiments.sweep import algorithm_names as sweep_algorithm_names

    p_sweep.add_argument(
        "--algorithms", default="linial_vectorized",
        help="comma-separated names; options: "
             + ",".join(sweep_algorithm_names()))
    p_sweep.add_argument("--cache-dir", dest="cache_dir", default=".sweep_cache",
                         help="per-cell JSON result cache (reruns skip hits)")
    p_sweep.add_argument("--workers", type=int, default=None,
                         help="worker processes (default: one per cpu)")
    p_sweep.add_argument("--recompute", action="store_true",
                         help="ignore and overwrite cached cells")
    p_sweep.add_argument("--output", default=None,
                         help="write the combined sweep record as JSON")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzz: reference vs vectorized engine equivalence",
    )
    p_fuzz.add_argument("--seed", type=int, default=0,
                        help="base seed; trials derive from (seed, iteration, pair)")
    p_fuzz.add_argument("--iterations", type=int, default=50,
                        help="iterations (each runs one case per engine pair)")
    p_fuzz.add_argument("--pairs", default=None,
                        help="comma-separated engine pairs (default: all "
                             "the selected backend implements)")
    p_fuzz.add_argument("--backend", default="vectorized",
                        help="which repro.sim.backends backend supplies the "
                             "fast side (vectorized, batched, partitioned); "
                             "fault cases are skipped for backends without "
                             "supports_faults")
    p_fuzz.add_argument("--corpus", default="tests/corpus",
                        help="pinned-failure corpus to replay first "
                             "('' skips replay)")
    p_fuzz.add_argument("--failure-dir", dest="failure_dir",
                        default="fuzz_failures",
                        help="where new shrunk failures are serialized")
    p_fuzz.add_argument("--no-shrink", dest="no_shrink", action="store_true",
                        help="skip minimizing failures (faster triage runs)")
    p_fuzz.add_argument("--max-failures", dest="max_failures", type=int,
                        default=5, help="stop after this many failures")
    p_fuzz.add_argument("--batch", type=int, default=0,
                        help="batch size for the vectorized side (corpus "
                             "replay + fuzz trials run through one "
                             "block-diagonal execution per chunk; 0/1 = "
                             "per-case loop)")
    p_fuzz.set_defaults(func=_cmd_fuzz)

    p_flt = sub.add_parser(
        "faults",
        help="fault-injection degradation curves: raw vs wrapped Linial "
             "under a seeded adversary, cross-checked across both engines",
    )
    p_flt.add_argument("--family", default="random_regular")
    p_flt.add_argument("--n", type=int, default=150)
    p_flt.add_argument("--degree", type=int, default=4)
    p_flt.add_argument("--seed", type=int, default=1,
                       help="graph generator seed")
    p_flt.add_argument("--mode", default="drop",
                       choices=["drop", "corrupt", "delay", "duplicate", "crash"],
                       help="which fault mode's rate to sweep")
    p_flt.add_argument("--rates", default="0.0,0.05,0.1,0.2,0.3",
                       help="comma-separated fault rates")
    p_flt.add_argument("--fault-seed", dest="fault_seed", type=int, default=21,
                       help="FaultPlan seed (one adversary, swept rate)")
    p_flt.add_argument("--retries", type=int, default=2,
                       help="retransmit budget of the resilient wrapper")
    p_flt.add_argument("--restarts", type=int, default=2,
                       help="restart budget of the resilient wrapper")
    p_flt.add_argument("--cache-dir", dest="cache_dir", default=None,
                       help="optional sweep cache for the engine cells")
    p_flt.add_argument("--output", default=None,
                       help="write the degradation record as JSON")
    p_flt.set_defaults(func=_cmd_faults)

    p_srv = sub.add_parser(
        "serve",
        help="run the continuous-batching coloring daemon "
             "(or --smoke for a self-contained serving check)",
    )
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=0,
                       help="TCP port (0 picks a free one, printed at start)")
    p_srv.add_argument("--max-batch", dest="max_batch", type=int, default=64,
                       help="max instances packed into one round")
    p_srv.add_argument("--max-queue", dest="max_queue", type=int, default=None,
                       help="admission-queue bound; beyond it requests are "
                            "shed as status=rejected with a retry_after_ms "
                            "hint (default: unbounded)")
    from .serve import SHED_POLICIES

    p_srv.add_argument("--shed-policy", dest="shed_policy",
                       choices=list(SHED_POLICIES), default="newest",
                       help="which request a full queue sheds: the arriving "
                            "one (newest) or the queue head (oldest)")
    p_srv.add_argument("--drain-s", dest="drain_s", type=float, default=5.0,
                       help="graceful-drain bound at shutdown; still-pending "
                            "work fails with a structured error after it")
    p_srv.add_argument("--timeout", type=float, default=None,
                       help="smoke-client per-op wall-clock timeout (s); a "
                            "hung daemon fails the smoke instead of "
                            "blocking it forever")
    p_srv.add_argument("--smoke-retries", dest="smoke_retries", type=int,
                       default=0,
                       help="retry budget for shed smoke requests "
                            "(seeded-jitter exponential backoff)")
    p_srv.add_argument("--backend", default="batched",
                       help="serve-capable repro.sim.backends backend")
    p_srv.add_argument("--no-validate", dest="no_validate",
                       action="store_true",
                       help="skip re-validating served colorings")
    p_srv.add_argument("--record-jsonl", dest="record_jsonl", default=None,
                       help="append one RunRecord per request to this JSONL")
    p_srv.add_argument("--smoke", action="store_true",
                       help="start the daemon, fire a pinned synthetic "
                            "burst, assert valid colorings equal to the "
                            "offline engine's, shut down")
    p_srv.add_argument("--seed", type=int, default=0,
                       help="smoke-burst request-set seed")
    p_srv.add_argument("--smoke-requests", dest="smoke_requests", type=int,
                       default=200, help="smoke-burst request count")
    p_srv.add_argument("--smoke-clients", dest="smoke_clients", type=int,
                       default=50, help="smoke-burst concurrent connections")
    p_srv.add_argument("--output", default=None,
                       help="write the smoke record as JSON")
    p_srv.set_defaults(func=_cmd_serve)

    p_par = sub.add_parser(
        "partition-run",
        help="run Linial shard-parallel over an edge-cut partition with "
             "ghost exchange (or --smoke for an equivalence-checked cell)",
    )
    graph_args(p_par)
    from .sim.partition import PARTITION_STRATEGIES

    p_par.add_argument("--shards", type=int, default=2,
                       help="worker-process / shard count")
    p_par.add_argument("--strategy", default="contiguous",
                       choices=list(PARTITION_STRATEGIES),
                       help="node->shard assignment strategy")
    p_par.add_argument("--partition-seed", dest="partition_seed", type=int,
                       default=0, help="hash-strategy partition seed")
    p_par.add_argument("--defect", type=int, default=0,
                       help="per-node defect bound d of the schedule")
    p_par.add_argument("--mp-context", dest="mp_context", default="spawn",
                       choices=["spawn", "fork", "forkserver"],
                       help="multiprocessing start method (spawn gives "
                            "honest per-shard RSS; fork starts faster)")
    p_par.add_argument("--check", action="store_true",
                       help="also run linial_vectorized and require "
                            "bit-identical colors + round accounting")
    p_par.add_argument("--smoke", action="store_true",
                       help="pinned small graph, cross-check forced on")
    p_par.add_argument("--output", default=None,
                       help="write the partition-run record as JSON")
    p_par.set_defaults(func=_cmd_partition_run)

    p_fam = sub.add_parser("families", help="list graph generators")
    p_fam.set_defaults(func=_cmd_families)

    p_bke = sub.add_parser(
        "backends",
        help="list execution backends and their capabilities",
    )
    p_bke.set_defaults(func=_cmd_backends)

    p_map = sub.add_parser("map", help="paper result -> implementation map")
    p_map.set_defaults(func=_cmd_map)

    p_rep = sub.add_parser(
        "report",
        help="write the experiment record, or render observability "
             "run records (--cache-dir / --runs)",
    )
    p_rep.add_argument("--output", default="experiments_report.txt")
    p_rep.add_argument("--full", action="store_true")
    p_rep.add_argument("--markdown", action="store_true",
                       help="write Markdown instead of plain text")
    p_rep.add_argument("--cache-dir", dest="cache_dir", default=None,
                       help="render per-round tables and cross-engine "
                            "comparisons from a sweep cache directory")
    p_rep.add_argument("--runs", default=None,
                       help="render run records from a RunRecord JSONL file")
    p_rep.set_defaults(func=_cmd_report)

    p_self = sub.add_parser("selftest", help="fast end-to-end smoke pass")
    p_self.set_defaults(func=_cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
