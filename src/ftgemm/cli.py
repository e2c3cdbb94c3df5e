"""Command-line interface for profiling, threshold search, campaign runs,
and deviation statistics. Exit codes: 0 success, 1 config error (a bad value
in the config or a flag, caught before any forward), 2 runtime error."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import campaign as camp
from .tensor_core import ConfigError, check_int, check_real
from .thresholds import AlphaAssignment, binary_search_global_alpha, greedy_gemmwise_search, profile_all
from .workload import build_model, generate_dataset


def _ctx(config_path: str):
    config = camp.load_config(config_path)
    model = build_model(config.model)
    return config, model


def _number(flag: str, text, check=check_real, *bounds):
    """A numeric flag as the number that check (check_int or check_real)
    accepts within bounds. Text that is no number fails the check with a
    ConfigError, as a config value would."""
    try:
        value = int(text) if check is check_int else float(text)
    except ValueError:
        value = text
    check(flag, value, *bounds)
    return value


def cmd_gemms(args) -> int:
    _, model = _ctx(args.config)
    print(f"{'gemm_id':<28} {'m':>5} {'k':>5} {'n':>5} {'macs':>9}")
    for node in model.nodes:
        m, k, n = node.shape
        print(f"{node.gemm_id:<28} {m:>5} {k:>5} {n:>5} {m * k * n:>9}")
    return 0


def cmd_profile(args) -> int:
    config, model = _ctx(args.config)
    trials = _number("--trials", args.trials, check_int, 1)
    dataset = generate_dataset(model, config.n_samples, config.data_seed)
    profiles = {
        ber: profile_all(model, dataset.inputs, ber, trials, config.base_seed)
        for ber in config.bers
        if ber > 0
    }
    with open(args.out, "w") as f:
        json.dump(camp.profiles_to_dict(profiles), f, indent=1, sort_keys=True)
    print(f"wrote deviation profiles for {len(profiles)} BER points to {args.out}")
    return 0


def cmd_search(args) -> int:
    config, model = _ctx(args.config)
    overrides = {}
    if args.budget is not None:
        overrides["accuracy_budget"] = _number("--budget", args.budget)
    if args.ber is not None:
        overrides["ber"] = _number("--ber", args.ber)
    if args.order is not None:
        overrides["order"] = "ascending_size" if args.order == "ascending" else "inorder"
    scfg = dataclasses.replace(config.search, **overrides)  # validates the result
    profiles = camp.profiles_at(config, model, scfg.ber)
    dataset = generate_dataset(model, config.n_samples, config.data_seed)
    if args.mode == "global":
        alpha, feasible = binary_search_global_alpha(
            model, dataset, scfg, profiles, config.base_seed
        )
        assignment = AlphaAssignment.uniform([n.gemm_id for n in model.nodes], alpha)
        print(f"global alpha = {alpha:.6f} (feasible={feasible})")
    else:
        assignment = greedy_gemmwise_search(model, dataset, scfg, profiles, config.base_seed)
        print(f"gemm-wise alphas searched over {len(assignment.alphas)} GEMMs")
    assignment.save(args.out)
    print(f"wrote alpha assignment to {args.out}")
    return 0


def cmd_run(args) -> int:
    config = camp.load_config(args.config)
    overrides = {}
    if args.strategy:
        overrides["strategies"] = args.strategy
    if args.ber:
        overrides["bers"] = [_number("--ber", b) for b in args.ber]
    if args.trials is not None:
        overrides["trials"] = _number("--trials", args.trials, check_int)
    if args.out:
        overrides["output_path"] = args.out
    config = dataclasses.replace(config, **overrides)  # validates the result
    rows = camp.run_campaign(config, workers=_number("--workers", args.workers, check_int))
    camp.emit(rows, config.output_format, config.output_path)
    print(f"wrote {len(rows)} result rows to {config.output_path}")
    return 0


def cmd_stats(args) -> int:
    config, model = _ctx(args.config)
    trials = _number("--trials", args.trials, check_int, 1)
    ber = config.bers[0] if args.ber is None else _number("--ber", args.ber, check_real, 0.0, 1.0)
    selector = camp.select_gemms(model, args.gemms.split(",") if args.gemms else "largest_per_layer")
    dataset = generate_dataset(model, config.n_samples, config.data_seed)
    report = camp.compute_stats(model, dataset.inputs, ber, trials, config.base_seed, selector)
    payload = report.to_dict()
    if args.kind == "multierror":
        payload.pop("histograms")
    elif args.kind != "all":
        payload["histograms"] = {gid: {args.kind: h[args.kind]} for gid, h in payload["histograms"].items()}
    with open(args.out, "w") as f:
        json.dump(payload, f, indent=1, sort_keys=True)
    print(f"wrote stats to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ftgemm", description="Checksum-protected GEMM fault-injection campaigns"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gemms", help="list the workload's GEMM nodes")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_gemms)

    p = sub.add_parser("profile", help="emit per-GEMM deviation profiles")
    p.add_argument("--config", required=True)
    p.add_argument("--trials", default=200)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("search", help="search approximation thresholds")
    p.add_argument("--config", required=True)
    p.add_argument("--mode", choices=["global", "gemmwise"], default="global")
    p.add_argument("--order", choices=["inorder", "ascending"], default=None)
    p.add_argument("--budget", default=None)
    p.add_argument("--ber", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("run", help="run a fault-injection campaign")
    p.add_argument("--config", required=True)
    p.add_argument("--strategy", nargs="+", default=None)
    p.add_argument("--ber", nargs="+", default=None)
    p.add_argument("--trials", default=None)
    p.add_argument("--workers", default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("stats", help="deviation distribution statistics")
    p.add_argument("--config", required=True)
    p.add_argument("--kind", choices=["msd", "rcsd", "multierror", "all"], default="all")
    p.add_argument("--ber", default=None)
    p.add_argument("--trials", default=100)
    p.add_argument("--gemms", default=None, help="comma-separated gemm ids")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_stats)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
