"""Command-line front end: scenario runner, fuzzer, expression evaluator.

Exit codes: 0 = success/converged, 1 = divergence found, 2 = usage, parse,
or execution error.
"""

from __future__ import annotations

import argparse
import sys

from .errors import RelsyncError
from .expr import parse_expression
from .fuzz import FuzzBounds, fuzz
from .paths import Path as GraphPath, relevant_paths
from .runner import MODES, run_scenario
from .scenario import Scenario, TxStep, load_scenario
from .store import Store


def positive_int(text: str) -> int:
    """A count; zero or less would make a run that checks nothing succeed."""
    if int(text) <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relsync",
        description="Relevance-scoped sync engine: scenario simulator and fuzzer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario file")
    run_p.add_argument("file", help="scenario file (.scn)")
    run_p.add_argument("--mode", choices=MODES, default="both")
    run_p.add_argument("--dump-deltas", metavar="DIR", default=None,
                       help="write every sync's rendered DeltaSet into DIR")

    fuzz_p = sub.add_parser("fuzz", help="generate and run random scenarios")
    fuzz_p.add_argument("--seed", type=int, required=True)
    fuzz_p.add_argument("--iterations", type=positive_int, required=True)
    fuzz_p.add_argument("--max-objects", type=positive_int, default=30)
    fuzz_p.add_argument("--out", metavar="DIR", default=None,
                        help="directory for replayable failure dumps")

    eval_p = sub.add_parser("eval-paths", help="evaluate an expression over a scenario's data")
    eval_p.add_argument("file", help="scenario file whose tx blocks build the data")
    eval_p.add_argument("--user", required=True, help="object id bound to `user`")
    eval_p.add_argument("--expr", required=True, help="path expression to evaluate")
    return parser


def _replay_transactions(scenario: Scenario) -> Store:
    store = Store(scenario.schema)
    for step in scenario.steps:
        if isinstance(step, TxStep):
            store.apply(step.mutations)
    return store


def render_path(p: GraphPath) -> str:
    """The walk `v0 -assoc0- v1 …`, each link shown by its association."""
    return " ".join(
        element if i % 2 == 0 else f"-{element.assoc}-" for i, element in enumerate(p)
    )


def _cmd_run(args) -> int:
    scenario = load_scenario(args.file)
    reports = run_scenario(scenario, mode=args.mode, dump_dir=args.dump_deltas)
    if reports:
        for report in reports:
            sys.stdout.write(report.render())
        print(f"divergence: {len(reports)} reports")
        return 1
    syncs = sum(1 for s in scenario.steps if not isinstance(s, TxStep))
    print(f"converged: {len(scenario.steps)} steps ({syncs} non-tx) in mode {args.mode}")
    return 0


def _cmd_fuzz(args) -> int:
    bounds = FuzzBounds(max_objects=args.max_objects)
    summary = fuzz(args.seed, args.iterations, bounds=bounds, out_dir=args.out)
    sys.stdout.write(summary.render())
    return 0 if summary.ok else 1


def _cmd_eval_paths(args) -> int:
    scenario = load_scenario(args.file)
    store = _replay_transactions(scenario)
    expr = parse_expression(args.expr)
    paths = relevant_paths(scenario.schema, store.data, [expr], user=args.user)
    for line in sorted(render_path(p) for p in paths):
        print(line)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "fuzz": _cmd_fuzz, "eval-paths": _cmd_eval_paths}
    try:
        return handlers[args.command](args)
    except RelsyncError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
