"""Command line entry point.

One subcommand per pipeline stage plus run-all. Exit codes: 0 on success,
1 when a stage fails on its inputs (unsatisfiable scene, failing physics,
missing upstream artifacts), 2 for usage and configuration errors and for
files or provider responses that cannot be read or are not valid documents.
"""

from __future__ import annotations

import argparse
import math
import sys

from .errors import ConfigError, EnvcoverError, SchemaViolation
from .jsonio import json_text
from .pipeline import (
    RunPaths,
    resolve_bundle,
    run_all,
    stage_build,
    stage_collect,
    stage_derive,
    stage_report,
    stage_simulate,
    stage_validate,
)
from .simulation import DEFAULT_BUDGET

USAGE_EXIT = 2
FAILURE_EXIT = 1


# each option once, with its help; a subcommand takes those its stage reads
_OPTIONS = {
    "--task": dict(required=True, help="task bundle: task.json or the directory holding it"),
    "--cassette": dict(help="exchange cassette (default: cassette.json next to the task)"),
    "--catalog": dict(help="asset catalog (default: catalog.json next to the task)"),
    "--out": dict(required=True, help="run directory"),
    "--live-endpoint": dict(help="HTTP endpoint for live generation"),
    "--seed": dict(type=int, default=0, help="solver seed"),
    "--grid": dict(type=float, default=0.1, help="placement grid step in meters"),
    "--budget": dict(type=int, default=DEFAULT_BUDGET, help="tick budget per run"),
    "--max-rounds": dict(type=int, default=3, help="derivation rounds, the first plus refinements"),
}

_COMMANDS = {
    "derive": (
        "turn the task into checked decision plans",
        ("--task", "--cassette", "--out", "--live-endpoint", "--max-rounds"),
    ),
    "collect": ("pick a minimal trajectory set that covers every path", ("--out",)),
    "build": (
        "solve a scene for each selected trajectory",
        ("--task", "--cassette", "--catalog", "--out", "--live-endpoint", "--seed", "--grid"),
    ),
    "validate": ("re-check built scenes for physical plausibility", ("--task", "--out")),
    "simulate": ("run every bundled policy against every scene", ("--task", "--out", "--budget")),
    "report": ("aggregate coverage and outcome metrics", ("--out",)),
    "run-all": ("all stages in order", tuple(_OPTIONS)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="envcover",
        description="derive decision plans, select trajectories, build and "
        "check scenes, and exercise policies against them",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for option in options:
            p.add_argument(option, **_OPTIONS[option])
    return parser


def _validate_numbers(args) -> None:
    for name in ("grid", "budget", "max_rounds"):
        value = getattr(args, name, None)
        if value is not None and not (math.isfinite(value) and value > 0):
            raise ConfigError(
                f"--{name.replace('_', '-')} must be finite and positive, got {value}"
            )


def _dispatch(args) -> dict | None:
    paths = RunPaths(args.out)
    if args.command == "collect":
        selected = stage_collect(paths)
        return {"selected": len(selected)}
    if args.command == "report":
        return stage_report(paths)

    # validate and simulate read neither the cassette nor the catalog
    bundle = resolve_bundle(
        args.task, cassette=getattr(args, "cassette", None), catalog=getattr(args, "catalog", None)
    )
    if args.command == "derive":
        result = stage_derive(paths, bundle, args.live_endpoint, args.max_rounds)
        summary = {
            "status": result.status,
            "rounds_used": result.rounds_used,
            "subtasks": len(result.subtasks),
            "violations": len(result.violations),
        }
        if result.status != "ok":
            print(json_text(summary), end="")
            raise EnvcoverError("derivation kept violations after refinement")
        return summary
    if args.command == "build":
        envs = stage_build(paths, bundle, args.live_endpoint, seed=args.seed, grid=args.grid)
        return {"environments": len(envs), "relaxed": sum(len(e.relaxed_relations) for e in envs)}
    if args.command == "validate":
        result = stage_validate(paths, bundle)
        summary = {
            "physics_pass_rate": result["physics"]["pass_rate"],
            "validity_rate": result["validity"]["rate"],
        }
        if result["physics"]["pass_rate"] < 1.0:
            print(json_text(summary), end="")
            raise EnvcoverError("at least one scene failed the physics check")
        return summary
    if args.command == "simulate":
        doc = stage_simulate(paths, bundle, budget=args.budget)
        return {
            "policies": len(doc["policies"]),
            "fault_detection_rate": doc["fault_detection_rate"],
            "total_ticks": doc["total_ticks"],
        }
    return run_all(
        args.out,
        args.task,
        cassette=args.cassette,
        catalog=args.catalog,
        live_endpoint=args.live_endpoint,
        seed=args.seed,
        grid=args.grid,
        budget=args.budget,
        max_rounds=args.max_rounds,
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _validate_numbers(args)
        summary = _dispatch(args)
    except (ConfigError, SchemaViolation) as exc:
        print(f"envcover: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except EnvcoverError as exc:
        print(f"envcover: {exc}", file=sys.stderr)
        return FAILURE_EXIT
    if summary is not None:
        print(json_text(summary), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
