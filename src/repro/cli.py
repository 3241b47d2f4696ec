"""Command-line interface.

Subcommands::

    python -m repro run ...          # simulate one configuration
    python -m repro experiments ...  # regenerate tables/figures
    python -m repro trace-gen ...    # generate a synthetic trace file
    python -m repro predict ...      # operational-law predictions

Run ``python -m repro <subcommand> --help`` for the options.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.analysis import predict_debit_credit
from repro.system.config import SystemConfig, TraceWorkloadConfig
from repro.system.runner import run_simulation

__all__ = ["main", "build_parser"]


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--nodes", type=int, default=4)
    parser.add_argument(
        "--coupling", choices=["gem", "pcl", "rdma"], default="gem",
        help="coupling regime: GEM close coupling (default), loosely "
             "coupled primary-copy locking, or RDMA-style memory "
             "disaggregation",
    )
    parser.add_argument(
        "--protocol", choices=["2pl", "mvcc", "dgcc"], default="2pl",
        help="concurrency control: strict two-phase locking (default), "
             "multi-version optimistic CC, or dependency-graph batching",
    )
    parser.add_argument(
        "--routing", choices=["affinity", "random"], default="affinity"
    )
    parser.add_argument(
        "--update", choices=["noforce", "force"], default="noforce"
    )
    parser.add_argument("--rate", type=float, default=100.0,
                        help="arrival rate per node [TPS]")
    parser.add_argument("--buffer", type=int, default=200,
                        help="database buffer pages per node")
    parser.add_argument("--workload", choices=["debit_credit", "trace"],
                        default="debit_credit")
    parser.add_argument("--trace-scale", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--warmup", type=float, default=2.0)
    parser.add_argument("--measure", type=float, default=8.0)
    parser.add_argument(
        "--faults", metavar="NODE:TIME:DOWN", action="append", default=None,
        help="crash NODE at simulated second TIME for DOWN seconds "
             "(repeatable; enables the fault-injection subsystem)",
    )
    parser.add_argument(
        "--sanitize", action="store_true",
        help="run under the simsan runtime sanitizer (observation-only "
             "invariant checks; identical results, slower run)",
    )
    _add_parallel_arguments(parser)


def _parse_fault_spec(text: str):
    try:
        node, time, down = text.split(":")
        return {"node": int(node), "time": float(time), "down_time": float(down)}
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"--faults expects NODE:TIME:DOWN, got {text!r}"
        ) from exc


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_profile_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile", nargs="?", const="", default=None, metavar="FILE",
        help="run under cProfile and print the 25 hottest functions by "
             "cumulative time to stderr; with FILE, additionally dump "
             "the full pstats data there (inspect with python -m pstats)",
    )


def _add_parallel_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=_positive_int, default=1,
                        help="worker processes for simulations (default 1)")
    parser.add_argument("--seeds", type=_positive_int, default=1,
                        help="replicates per point; >1 reports mean ± 95%% CI")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore and do not write the result cache")


def _config_from_args(args: argparse.Namespace) -> SystemConfig:
    faults = None
    if getattr(args, "faults", None):
        faults = {"crashes": [_parse_fault_spec(spec) for spec in args.faults]}
    return SystemConfig(
        faults=faults,
        num_nodes=args.nodes,
        coupling=args.coupling,
        protocol=args.protocol,
        routing=args.routing,
        update_strategy=args.update,
        arrival_rate_per_node=args.rate,
        buffer_pages_per_node=args.buffer,
        workload=args.workload,
        trace=TraceWorkloadConfig(scale=args.trace_scale),
        pcl_read_optimization=(
            args.coupling == "pcl" and args.workload == "trace"
        ),
        random_seed=args.seed,
        warmup_time=args.warmup,
        measure_time=args.measure,
        sanitize=getattr(args, "sanitize", False),
    )


def _make_runner(args: argparse.Namespace):
    """Build a SweepRunner from the shared --jobs/--seeds/--no-cache flags."""
    from repro.system.parallel import ResultCache, SweepRunner

    cache = None if args.no_cache else ResultCache()
    return SweepRunner(jobs=args.jobs, seeds=args.seeds, cache=cache,
                       progress=sys.stderr.isatty())


def _cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    if args.trace:
        from repro.obs import run_traced

        result, monitor = run_traced(config, args.trace)
        csv_path = args.trace + ".devices.csv"
        with open(csv_path, "w") as fh:
            fh.write(monitor.to_csv() + "\n")
        if args.json:
            print(json.dumps(result.as_dict(), indent=2, default=str))
        else:
            print(result.summary())
            print(result.response_breakdown.table())
            print(f"trace -> {args.trace}\ndevice series -> {csv_path}")
        return 0
    if args.breakdown:
        config = config.replace(collect_breakdown=True)
    if args.seeds > 1 or args.jobs > 1:
        with _make_runner(args) as runner:
            replicated = runner.run(config)
        if args.json:
            print(json.dumps(
                {
                    "seeds": replicated.seeds,
                    "replicates": [r.as_dict() for r in replicated.results],
                    "throughput": replicated.throughput_stats.__dict__,
                    "response_time_ms": replicated.response_time_stats.__dict__,
                    "cpu_utilization_max": replicated.utilization_stats.__dict__,
                },
                indent=2, default=str,
            ))
        else:
            print(replicated.summary())
        return 0
    result = run_simulation(config)
    if args.json:
        print(json.dumps(result.as_dict(), indent=2, default=str))
    else:
        print(result.summary())
        print("hit ratios: "
              + ", ".join(f"{k}={v:.0%}" for k, v in result.hit_ratios.items()))
        if args.breakdown and result.response_breakdown is not None:
            print(result.response_breakdown.table())
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.common import Scale
    from repro.experiments.run_all import FIGURES, run_all

    scales = {"quick": Scale.quick, "smoke": Scale.smoke, "full": Scale.full}
    scale = scales[args.scale]()
    if args.figure == "all":
        run_all(scale, args.outdir, jobs=args.jobs, seeds=args.seeds,
                use_cache=not args.no_cache)
        return 0
    modules = dict(FIGURES)
    if args.figure == "table41":
        from repro.experiments import table41

        with _make_runner(args) as runner:
            anchor = table41.run(scale, runner=runner)
        print(table41.report(anchor))
        return 0
    if args.figure not in modules:
        print(f"unknown figure {args.figure!r}", file=sys.stderr)
        return 2
    kwargs = {}
    if getattr(args, "protocol", None):
        import inspect

        run_params = inspect.signature(modules[args.figure].run).parameters
        if "protocol" in run_params:
            kwargs["protocol"] = args.protocol
        elif "protocols" in run_params:
            kwargs["protocols"] = (args.protocol,)
        else:
            print(f"{args.figure} does not take --protocol", file=sys.stderr)
            return 2
    with _make_runner(args) as runner:
        print(modules[args.figure].run(scale, runner=runner, **kwargs).table())
    return 0


def _cmd_trace_gen(args: argparse.Namespace) -> int:
    from repro.workload.tracegen import main as tracegen_main

    return tracegen_main(
        [args.output, "--scale", str(args.scale), "--seed", str(args.seed)]
    )


def _cmd_predict(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    prediction = predict_debit_credit(config)
    for key, value in prediction.as_dict().items():
        print(f"{key:<24} {value:,.4g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Closely coupled database sharing simulation (Rahm, ICDCS 1993)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="simulate one configuration")
    _add_config_arguments(run_parser)
    run_parser.add_argument("--json", action="store_true")
    run_parser.add_argument(
        "--breakdown", action="store_true",
        help="collect and print the response-time decomposition",
    )
    run_parser.add_argument(
        "--trace", metavar="FILE", default=None,
        help="export a Chrome-trace JSON (about://tracing / Perfetto) of "
             "the run to FILE, plus FILE.devices.csv with per-device "
             "utilization time series; implies --breakdown",
    )
    _add_profile_argument(run_parser)
    run_parser.set_defaults(func=_cmd_run)

    exp_parser = sub.add_parser("experiments", help="regenerate tables/figures")
    exp_parser.add_argument(
        "figure",
        help="table41, fig41..fig47, fig_failover, fig_regimes, or 'all'",
    )
    exp_parser.add_argument(
        "--scale", choices=["quick", "smoke", "full"], default="quick"
    )
    exp_parser.add_argument(
        "--protocol", choices=["2pl", "mvcc", "dgcc"], default=None,
        help="concurrency-control protocol for figure drivers that "
             "accept one (fig41, fig45, fig47, fig_failover; "
             "fig_regimes restricts its protocol grid)",
    )
    exp_parser.add_argument("--outdir", default="results")
    _add_parallel_arguments(exp_parser)
    _add_profile_argument(exp_parser)
    exp_parser.set_defaults(func=_cmd_experiments)

    trace_parser = sub.add_parser("trace-gen", help="generate a trace file")
    trace_parser.add_argument("output")
    trace_parser.add_argument("--scale", type=float, default=1.0)
    trace_parser.add_argument("--seed", type=int, default=42)
    trace_parser.set_defaults(func=_cmd_trace_gen)

    predict_parser = sub.add_parser(
        "predict", help="operational-law predictions for a configuration"
    )
    _add_config_arguments(predict_parser)
    predict_parser.set_defaults(func=_cmd_predict)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "profile", None) is None:
        return args.func(args)
    # --profile: run the subcommand under cProfile and report the
    # hottest functions by cumulative time on stderr (stdout stays
    # reserved for the subcommand's own output, e.g. --json).
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        status = args.func(args)
    finally:
        profiler.disable()
        stats = pstats.Stats(profiler, stream=sys.stderr)
        if args.profile:
            stats.dump_stats(args.profile)
            print(f"profile data -> {args.profile}", file=sys.stderr)
        stats.sort_stats("cumulative").print_stats(25)
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
