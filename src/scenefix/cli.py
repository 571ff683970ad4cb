"""Command-line entry point.

Subcommands: generate (build a dataset), evaluate (judge stored or
supplied layouts), run (the correction loop), rules (dump the
conversion table), oracle (geometric cross-check of table and
evaluator). `run` exits 0 when the batch completes, regardless of
accuracy; `oracle` exits 1 on any disagreement.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from . import benchgen, oracle, pipeline
from .errors import DatasetError, SceneFixError
from .evaluate import categorize_run, evaluate
from .perception import PerceptionConfig
from .rules import rules_records
from .wire import load_layouts, read_dataset, write_dataset, write_ndjson

logger = logging.getLogger(__name__)


def _add_generate(sub) -> None:
    p = sub.add_parser("generate", help="generate a benchmark dataset")
    p.add_argument("--source", choices=("for-lmd", "forest-style"), default="for-lmd")
    p.add_argument("--n", type=int, default=benchgen.DEFAULT_SAMPLE_COUNT)
    p.add_argument("--seed", type=int, default=benchgen.DEFAULT_SEED)
    p.add_argument("--out", required=True)
    p.add_argument("--intrinsic-ratio", type=float, default=None,
                   help="share of samples, in [0, 1], using the relatum's own perspective "
                        "(for-lmd only; default 0.5)")
    p.add_argument("--corrupt-fraction", type=float, default=0.8,
                   help="share of samples, in [0, 1], given one seeded defect; 0 disables")
    p.add_argument("--injections", default=None,
                   help="optional NDJSON path for the injection ledger")


def _add_evaluate(sub) -> None:
    p = sub.add_parser("evaluate", help="evaluate layouts against dataset prompts")
    p.add_argument("--dataset", required=True)
    p.add_argument("--layouts", default=None,
                   help="NDJSON of {id, layout} overriding the stored initial layouts")


def _add_run(sub) -> None:
    p = sub.add_parser("run", help="run the self-correction loop")
    p.add_argument("--dataset", required=True)
    p.add_argument("--rounds", type=int, default=1)
    p.add_argument("--solver", choices=("builtin", "external"), default="builtin")
    p.add_argument("--endpoint", default=None,
                   help="external interpreter: an http(s) URL or a command line")
    p.add_argument("--seed", type=int, default=benchgen.DEFAULT_SEED)
    p.add_argument("--report", default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--perception-dropout", type=float, default=0.0)
    p.add_argument("--perception-bbox-jitter", type=float, default=0.0)
    p.add_argument("--perception-depth-sigma", type=float, default=0.0)
    p.add_argument("--perception-facing-flip", type=float, default=0.0)
    p.add_argument("--perception-duplicate", type=float, default=0.0)


def _add_rules(sub) -> None:
    p = sub.add_parser("rules", help="print or export the 32-entry conversion table")
    p.add_argument("--format", choices=("table", "json"), default="table")


def _add_oracle(sub) -> None:
    p = sub.add_parser("oracle", help="cross-check rules and evaluator against 3-d geometry")
    p.add_argument("--scenes", type=int, default=1000)
    p.add_argument("--seed", type=int, default=benchgen.DEFAULT_SEED)


def _check_output_path(flag: str, path: str, *others: tuple[str, str | None]) -> None:
    """Refuse an output path that cannot be written, or that names the same
    file as one of the command's ``others`` (flag, path) pairs, before any
    work is done."""
    if not path:
        raise ValueError(f"{flag} is empty")
    if os.path.isdir(path) or path.endswith(os.sep):
        raise ValueError(f"{flag} {path!r} is a directory")
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise ValueError(f"{flag} {path!r}: directory {directory!r} does not exist")
    for other_flag, other in others:
        if other and os.path.realpath(other) == os.path.realpath(path):
            raise ValueError(f"{flag} {path!r} names the same file as {other_flag} {other!r}")


def _cmd_generate(args) -> int:
    _check_output_path("--out", args.out)
    if args.injections:
        _check_output_path("--injections", args.injections, ("--out", args.out))
    if args.source == "for-lmd":
        ratio = 0.5 if args.intrinsic_ratio is None else args.intrinsic_ratio
        samples = benchgen.generate_for_lmd(args.n, args.seed, ratio)
    elif args.intrinsic_ratio is not None:
        raise ValueError("--intrinsic-ratio applies to --source for-lmd only")
    else:
        samples = benchgen.generate_forest_style(args.n, args.seed)
    # a fraction of 0 corrupts nothing; one outside [0, 1] is a ValueError
    samples, injections = benchgen.apply_corruption(samples, args.corrupt_fraction, args.seed)
    write_dataset(args.out, samples)
    if args.injections:
        write_ndjson(
            args.injections,
            (
                {"sample_id": i.sample_id, "kind": i.kind,
                 "category": i.category.value, "detail": i.detail}
                for i in injections
            ),
        )
    print(f"wrote {len(samples)} samples to {args.out} ({len(injections)} injections)")
    return 0


def _cmd_evaluate(args) -> int:
    samples = read_dataset(args.dataset)
    overrides = load_layouts(args.layouts) if args.layouts else {}
    unknown = overrides.keys() - {sample.id for sample in samples}
    if unknown:
        raise DatasetError(f"--layouts names ids the dataset lacks: {', '.join(sorted(unknown))}")
    results = []
    for sample in samples:
        layout = overrides.get(sample.id, sample.initial_layout)
        result = evaluate(sample.annotation, layout)
        results.append(result)
        status = "ok" if result.correct else "fail"
        cats = ",".join(f.value for f in result.failures)
        print(f"{sample.id}\t{status}\t{cats}")
    hist = categorize_run(results)
    print(f"accuracy {hist.accuracy:.3f} ({hist.correct}/{hist.total})")
    for category, count in hist.counts:
        print(f"  {category.value}: {count}")
    return 0


def _cmd_run(args) -> int:
    if args.report:
        _check_output_path("--report", args.report, ("--dataset", args.dataset))
    perception = PerceptionConfig(
        bbox_jitter_sigma=args.perception_bbox_jitter,
        depth_sigma=args.perception_depth_sigma,
        facing_flip_rate=args.perception_facing_flip,
        dropout_rate=args.perception_dropout,
        duplicate_rate=args.perception_duplicate,
    )
    cfg = pipeline.RunConfig(
        dataset_path=args.dataset,
        rounds=args.rounds,
        solver=args.solver,
        endpoint=args.endpoint,
        perception=perception,
        report_path=args.report,
        seed=args.seed,
        workers=args.workers,
    )
    report = pipeline.run_batch(cfg)
    print("round  accuracy  relative  intrinsic  average")
    for r in range(report.rounds + 1):
        rel = report.relative_accuracy[r]
        intr = report.intrinsic_accuracy[r]
        print(
            f"{r:5d}  {report.accuracy[r]:8.3f}  "
            f"{'-' if rel is None else format(rel, '8.3f')}  "
            f"{'-' if intr is None else format(intr, '9.3f')}  "
            f"{report.average_accuracy[r]:7.3f}"
        )
    errored = sum(1 for t in report.trajectories if t.error)
    if errored:
        print(f"{errored} sample(s) ended with an error status")
    return 0


def _cmd_rules(args) -> int:
    records = rules_records()
    if args.format == "json":
        print(json.dumps(records, indent=2))
    else:
        print(f"{'rule':<6}{'facing':<16}{'relation':<10}{'camera relation'}")
        for r in records:
            print(f"{r['rule_id']:<6}{r['facing']:<16}{r['relation']:<10}{r['camera_relation']}")
    return 0


def _cmd_oracle(args) -> int:
    agree, total = oracle.agreement_over_scenes(args.scenes, args.seed)
    records = oracle.check_rule_table()
    mismatches = [r for r in records if not r["agree"]]
    for r in records:
        mark = "ok" if r["agree"] else "MISMATCH"
        print(f"{r['rule_id']:<4}{r['facing']:<16}{r['relation']:<8}"
              f"table={r['table']:<8}oracle={r['oracle']:<8}{mark}")
    print(f"cardinal pairs: {len(records) - len(mismatches)}/{len(records)} agree")
    print(f"random scenes:  {agree}/{total} agree")
    return 0 if not mismatches and agree == total else 1


_HANDLERS = {
    "generate": _cmd_generate,
    "evaluate": _cmd_evaluate,
    "run": _cmd_run,
    "rules": _cmd_rules,
    "oracle": _cmd_oracle,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scenefix",
        description="spatial-expression scene layouts: generate, evaluate, self-correct",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_generate(sub)
    _add_evaluate(sub)
    _add_run(sub)
    _add_rules(sub)
    _add_oracle(sub)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING)
    try:
        return _HANDLERS[args.command](args)
    except SceneFixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # bad flag values (rates, rounds, solver/endpoint)
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
