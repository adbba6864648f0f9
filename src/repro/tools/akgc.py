"""``akgc``: compile a named demo kernel and report everything about it.

Usage::

    python -m repro.tools.akgc relu --shape 64,128
    python -m repro.tools.akgc matmul --shape 512,512,512 --dump-cce
    python -m repro.tools.akgc conv2d --shape 16,64,56,56 --kernel 3 \
        --compare            # also run the TVM / expert / naive baselines
    python -m repro.tools.akgc matmul --shape 256,256,256 \
        --tile-policy "S_1: 64@L1, 64@L1"

The tool exists for the same reason AKG ships a debugger surface
(Sec. 4.6): poking at one kernel -- its schedule tree, tile sizes, storage
plan, instruction stream and simulated cycles -- without writing a script.

``--network <name>`` switches to the whole-network pipeline instead of a
single demo kernel: the named model is fused, deduplicated and compiled
into an executable plan, and the tool prints the per-subgraph table
(digest, multiplicity, simulated cycles), the arena planner's
planned-vs-naive peak bytes, and the plan's degradation status::

    python -m repro.tools.akgc --network alexnet_tiny
    python -m repro.tools.akgc --network mobilenetv2_tiny --resilience-stats
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence


def _parse_shape(text: str) -> List[int]:
    try:
        return [int(x) for x in text.split(",") if x]
    except ValueError:
        raise SystemExit(f"bad --shape {text!r}: expected comma-separated ints")


def _build_kernel(args):
    # One kernel vocabulary for the CLI and the akgd daemon (wire schema).
    from repro.service.wire import demo_kernel

    try:
        return demo_kernel(
            args.op,
            _parse_shape(args.shape),
            dtype=args.dtype,
            kernel=args.kernel,
            stride=args.stride,
            out_channels=args.out_channels,
            batch_max=args.batch_max,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))


def _print_cache_counters() -> None:
    from repro.core import diskcache
    from repro.core.context import counters
    from repro.poly.cache import solver_cache_stats

    print("\n=== cache counters ===")
    stats = diskcache.disk_cache_stats()
    if stats.get("enabled"):
        print(
            f"disk cache    : {stats['hits']} hits, {stats['misses']} "
            f"misses, {stats['stores']} stores, {stats['entries']} "
            f"entries ({diskcache.get_cache().root})"
        )
        print(
            f"disk bytes    : {stats['bytes_read']} read, "
            f"{stats['bytes_written']} written"
        )
    else:
        print("disk cache    : disabled")
    for cname, s in solver_cache_stats().items():
        print(
            f"solver [{cname:<6}]: {s['hits']} hits, {s['misses']} misses "
            f"({100.0 * s['hit_rate']:.1f}%)"
        )
    sc = counters("shapeclass.")
    if sc:
        print(f"shape class   : {sc.get('hits', 0)} hits, "
              f"{sc.get('misses', 0)} misses")


def _run_network(args) -> int:
    """The ``--network`` mode: whole-network compile + plan report."""
    from repro.core.errors import ReproError, exit_code_for
    from repro.graph import compile_network
    from repro.graph import network as get_network
    from repro.tools import perf

    try:
        model = get_network(args.network)
    except KeyError as exc:
        print(f"akgc: {exc.args[0]}", file=sys.stderr)
        return 2
    try:
        compiled = compile_network(model)
        if args.verify:
            from repro.verify import verify_network_plan

            verify_network_plan(compiled.plan)
    except ReproError as exc:
        print(f"akgc: {type(exc).__name__}: {exc}", file=sys.stderr)
        print(f"akgc: {exc.action}", file=sys.stderr)
        return exit_code_for(exc)

    plan = compiled.plan
    counts = plan.multiplicities()
    cycles = plan.cycles_by_digest()
    print(f"network       : {model.name}")
    print(f"subgraphs     : {len(plan.steps)} instances, "
          f"{plan.unique_subgraphs()} unique "
          f"({compiled.dedup_reuses} deduplicated)")
    print(f"compile       : {compiled.compile_seconds:.2f}s")
    print(f"degraded      : {'yes' if plan.degraded else 'no'}")
    if args.verify:
        print(f"verified      : arena + {plan.unique_subgraphs()} subgraphs "
              f"(schedule, bounds, sync)")

    print("\n=== unique subgraphs ===")
    header = f"{'subgraph':<16}{'mult':>6}{'cycles':>12}{'total':>12}"
    print(header)
    print("-" * len(header))
    for digest in cycles:
        mult = counts[digest]
        print(
            f"sg_{digest[:12]:<13}{mult:>6}{cycles[digest]:>12}"
            f"{cycles[digest] * mult:>12}"
        )
    print(f"{'network total':<16}{'':>6}{'':>12}{plan.total_cycles():>12}")

    arena = plan.arena.report()
    print("\n=== memory plan ===")
    print(f"arena slots   : {arena['arena_slots']}")
    print(f"planned peak  : {arena['planned_peak_bytes']} bytes "
          f"({arena['arena_bytes']} arena + "
          f"{arena['dedicated_bytes']} dedicated)")
    print(f"naive peak    : {arena['naive_peak_bytes']} bytes")
    print(f"arena savings : {100.0 * arena['savings_ratio']:.1f}%")

    if args.resilience_stats:
        print("\n=== resilience report ===")
        lines = plan.resilience.summary()
        print("\n".join(lines) if lines else "no degradation events")
    if args.perf:
        print("\n=== compile-time breakdown ===")
        print(perf.format_report())
    if args.cache_stats:
        _print_cache_counters()
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="akgc", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "op", nargs="?", default=None,
        choices=["relu", "add", "softmax", "matmul", "conv2d"],
        help="demo kernel to compile (omit with --network)",
    )
    parser.add_argument("--network", default=None, metavar="NAME",
                        help="compile a whole registered network into an "
                             "executable plan instead of one demo kernel")
    parser.add_argument("--shape", default=None, help="comma-separated extents")
    parser.add_argument("--dtype", default="fp16", choices=["fp16", "fp32"])
    parser.add_argument("--kernel", type=int, default=3, help="conv window")
    parser.add_argument("--stride", type=int, default=1, help="conv stride")
    parser.add_argument("--out-channels", type=int, default=None)
    parser.add_argument("--batch-max", type=int, default=None, metavar="MAX",
                        help="make the leading dim symbolic with this "
                             "declared maximum: one compile serves every "
                             "batch size in [1, MAX] (the shape class)")
    parser.add_argument("--tile-policy", default=None, help="Fig. 4 policy text")
    parser.add_argument("--no-fusion", action="store_true")
    parser.add_argument("--sync", default="dp", choices=["dp", "empirical", "naive"])
    parser.add_argument("--perf", action="store_true",
                        help="print per-stage compile timings + solver cache stats")
    parser.add_argument("--stage-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock deadline per pipeline stage; "
                             "exceeded -> exit code 4 (StageTimeoutError)")
    parser.add_argument("--solver-budget", type=int, default=None,
                        metavar="NODES",
                        help="ILP branch-and-bound node budget per solve; "
                             "exhausted -> exit code 3 (SolverBudgetError)")
    parser.add_argument("--verify", action="store_true",
                        help="statically verify the compiled result "
                             "(dependences, bounds, syncs; with --network "
                             "also the arena plan); a rejection exits "
                             "with code 13 (VerificationError)")
    parser.add_argument("--resilience-stats", action="store_true",
                        help="print the degradation ladder report (which "
                             "fallback rungs fired, if any) after the build")
    parser.add_argument("--cache-dir", default=None, metavar="PATH",
                        help="persistent compilation cache directory "
                             "(overrides REPRO_CACHE_DIR)")
    parser.add_argument("--no-disk-cache", action="store_true",
                        help="compile without the persistent disk cache")
    parser.add_argument("--cache-stats", action="store_true",
                        help="print disk/solver cache counters after the build")
    parser.add_argument("--dump-tree", action="store_true")
    parser.add_argument("--dump-cce", action="store_true")
    parser.add_argument("--dump-program", action="store_true")
    parser.add_argument("--compare", action="store_true",
                        help="also compile the three baselines")
    args = parser.parse_args(argv)
    if args.network is None and args.op is None:
        parser.error("either a demo op or --network NAME is required")
    if args.network is None and args.shape is None:
        parser.error("--shape is required when compiling a demo op")

    from repro.core import diskcache
    from repro.core.compiler import AkgOptions, build
    from repro.core.errors import ReproError, exit_code_for
    from repro.core.resilience import StageBudget
    from repro.tools import perf

    if args.cache_dir:
        diskcache.set_cache_dir(args.cache_dir)
    if args.no_disk_cache:
        diskcache.set_disk_cache_enabled(False)

    perf.reset()

    if args.network is not None:
        return _run_network(args)

    out = _build_kernel(args)
    budget = None
    if args.stage_timeout is not None or args.solver_budget is not None:
        budget = StageBudget(
            stage_seconds=args.stage_timeout,
            solver_nodes=args.solver_budget,
        )
    options = AkgOptions(
        tile_policy=args.tile_policy,
        post_tiling_fusion=not args.no_fusion,
        sync_policy=args.sync,
        verify=args.verify,
        budget=budget,
    )
    try:
        result = build(out, f"akgc_{args.op}", options=options)
        report = result.simulate()
    except ReproError as exc:
        print(f"akgc: {type(exc).__name__}: {exc}", file=sys.stderr)
        print(f"akgc: {exc.action}", file=sys.stderr)
        return exit_code_for(exc)

    print(f"kernel        : {args.op} {args.shape} {args.dtype}")
    if args.batch_max is not None:
        generic = getattr(result.kernel, "shape_generic", False)
        print(f"shape class   : N<={args.batch_max} "
              f"({'shape-generic' if generic else 'concretized at max'})")
    print(f"tile sizes    : {result.tile_sizes}")
    print(f"tile nests    : {len(result.groups)}")
    if args.verify:
        print("verified      : schedule, bounds, sync (static)")
    print(f"cycles        : {report.total_cycles}")
    print(f"DMA bytes     : {report.dma_bytes}")
    print(f"syncs         : {report.sync_count}")
    for plan in result.plans:
        print(f"buffers       : {plan.utilization()}")

    if args.resilience_stats:
        print("\n=== resilience report ===")
        lines = result.resilience.summary()
        print("\n".join(lines) if lines else "no degradation events")
    if args.perf:
        print("\n=== compile-time breakdown ===")
        print(perf.format_report())
    if args.cache_stats:
        _print_cache_counters()
    if args.dump_tree:
        print("\n=== schedule tree ===")
        print(result.tree.render())
    if args.dump_program:
        print("\n=== instruction stream ===")
        print(result.program.dump())
    if args.dump_cce:
        print("\n=== CCE code ===")
        print(result.cce_code())

    if args.compare:
        from repro.cce import cce_expert_build, cce_naive_build
        from repro.tvmbaseline.compiler import tvm_build

        print("\n=== baselines (cycles; vs AKG) ===")
        akg = report.total_cycles
        for name, fn in (
            ("tvm", tvm_build),
            ("cce_opt", cce_expert_build),
            ("cce_naive", cce_naive_build),
        ):
            cycles = fn(out, f"{name}_{args.op}").cycles()
            print(f"{name:<10}: {cycles:>12}  ({cycles / akg:.2f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
