"""Command-line interface.

  regionsim run          one deterministic run, CSV + text outputs
  regionsim batch        seed-swept batch with mean/std summary
  regionsim compare      the same scenario under several protocols
  regionsim check-lemmas property suites on random graphs

Exit codes: 0 success, 2 scenario/config error, 3 routing error,
4 I/O error, 5 property-suite failure, 1 anything else.
"""

import argparse
import sys
from pathlib import Path

from . import checks
from .energy import energy_savings
from .routing import PROTOCOLS, RoutingError
from .scenario import ScenarioConfig, ScenarioError, load_scenario
from .sim import emit_outputs, run, run_batch


def _load_config(args, protocol: str | None = None) -> ScenarioConfig:
    if args.scenario:
        config = load_scenario(args.scenario)
    else:
        config = ScenarioConfig()
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if protocol is not None:
        overrides["protocol"] = protocol
    elif getattr(args, "protocol", None):
        overrides["protocol"] = args.protocol
    if getattr(args, "runs", None) is not None:
        overrides["run_count"] = args.runs
    if overrides:
        from dataclasses import replace

        config = replace(config, **overrides)
    return config


def _cmd_run(args) -> int:
    config = _load_config(args)
    report = run(config)
    paths = emit_outputs(report, args.out)
    print(f"run complete: protocol={report.protocol} seed={report.seed}")
    print(f"total energy: {report.total_energy_j:.3f} J, "
          f"delivery ratio: {report.delivery_ratio:.4f}")
    for p in paths:
        print(f"wrote {p}")
    return 0


def _cmd_batch(args) -> int:
    config = _load_config(args)
    report = run_batch(config)
    paths = emit_outputs(report, args.out)
    mean, std = report.metrics["total_energy_j"]
    print(f"batch complete: protocol={report.protocol} runs={len(report.seeds)}")
    print(f"total energy: mean={mean:.3f} J std={std:.3f} J")
    for p in paths:
        print(f"wrote {p}")
    return 0


def _cmd_compare(args) -> int:
    tags = PROTOCOLS if args.protocols == "all" else tuple(dict.fromkeys(
        t.strip() for t in args.protocols.split(",") if t.strip()
    ))  # a repeated protocol runs once, in first-seen order
    if not tags:
        raise ScenarioError("no protocols given")
    for t in tags:
        if t not in PROTOCOLS:
            raise ScenarioError(f"unknown protocol {t!r}")
    out = Path(args.out)
    totals = {}
    for tag in tags:
        config = _load_config(args, protocol=tag)
        if config.run_count > 1 and args.runs:
            report = run_batch(config)
            totals[tag] = report.metrics["total_energy_j"][0]
        else:
            report = run(config, config.seed)
            totals[tag] = report.total_energy_j
        emit_outputs(report, out / tag)
    print("protocol comparison (total network energy, J):")
    for tag in tags:
        print(f"  {tag:<5} {totals[tag]:.3f}")
    if "res" in totals:
        for tag in tags:
            if tag == "res":
                continue
            saved = energy_savings(totals["res"], totals[tag])
            print(f"res saves {saved:.1f}% versus {tag}")
    lines = ["protocol,total_energy_j"]
    lines += [f"{tag},{totals[tag]:.9f}" for tag in tags]
    (out / "comparison.csv").write_text("\n".join(lines) + "\n")
    print(f"wrote {out / 'comparison.csv'}")
    return 0


def _cmd_check_lemmas(args) -> int:
    if args.graphs < 1:
        raise ScenarioError("--graphs must be >= 1")
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError:
        raise ScenarioError(f"--sizes must list integers, got {args.sizes!r}") from None
    if not sizes:
        raise ScenarioError("no sizes given")
    if min(sizes) < 1:
        raise ScenarioError("--sizes must all be >= 1")
    failed = False
    for size in sizes:
        suite = list(
            checks.random_suite(
                args.graphs, seed=args.seed + size, min_nodes=size, max_nodes=size
            )
        )
        containment = checks.run_containment_suite(suite)
        stretch = checks.run_stretch_suite(suite)
        flood = checks.run_flood_oracle_suite(suite)
        print(f"size {size}: containment "
              f"{'PASS' if containment.ok else 'FAIL'} "
              f"({containment.nodes_checked} nodes, {containment.tie_nodes} ties)")
        print(f"size {size}: stretch bound "
              f"{'PASS' if stretch.ok else 'FAIL'} "
              f"({stretch.pairs_checked} pairs, worst ratio/bound "
              f"{stretch.max_ratio_fraction:.4f})")
        print(f"size {size}: flood oracle "
              f"{'PASS' if flood.ok else 'FAIL'} "
              f"({flood.nodes_checked} nodes, savings "
              f"{flood.min_savings:.3f}..{flood.max_savings:.3f})")
        failed = failed or not (containment.ok and stretch.ok and flood.ok)
    return 5 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regionsim",
        description="Region-partitioned wireless sensor network simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required=True):
        p.add_argument("--scenario", help="scenario file (INI); defaults if omitted")
        p.add_argument("--seed", type=int, help="override the scenario seed")
        if out_required:
            p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("run", help="single deterministic run")
    common(p)
    p.add_argument("--protocol", choices=PROTOCOLS, help="override the protocol")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("batch", help="seed-swept batch of runs")
    common(p)
    p.add_argument("--protocol", choices=PROTOCOLS, help="override the protocol")
    p.add_argument("--runs", type=int, help="override run count")
    p.set_defaults(func=_cmd_batch)

    p = sub.add_parser("compare", help="same scenario under several protocols")
    common(p)
    p.add_argument(
        "--protocols",
        default="all",
        help="comma list of protocols, or 'all' (default)",
    )
    p.add_argument("--runs", type=int, help="batch size per protocol")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("check-lemmas", help="graph property suites")
    p.add_argument("--sizes", default="10,20,50", help="comma list of node counts")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--graphs", type=int, default=20, help="graphs per size")
    p.set_defaults(func=_cmd_check_lemmas)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except RoutingError as exc:
        print(f"routing error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # anything else is an internal failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
