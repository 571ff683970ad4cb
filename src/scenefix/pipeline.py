"""Run the perceive / interpret / plan / apply / evaluate loop over a dataset.

Round 0 is a pure evaluation of each sample's initial scene as seen by
the perceiver. Every later round starts from the layout and verdict of
the last round boundary, rewrites intrinsic clauses into the camera
frame, asks the configured solver for a revised layout, applies the diff
to the scene, and evaluates the result through a fresh perception pass,
which the next round starts from. As in the paper's loop, each scene is
perceived and evaluated once, whatever the noise, and the solver, builtin
or external, is asked only on a misaligned round: a round whose perceived
verdict is correct makes no edit and sends no request, since perception
reports only objects matching a mention and the solver returns such a
layout as it is. A round's SceneFixError (an unsatisfiable clause set, a
protocol violation, an impossible edit) marks that sample as errored and
counts as incorrect without stopping the batch.

Reports are newline-delimited JSON: one record per sample trajectory
plus a final summary with per-round accuracy broken down by perspective
split. Runs are deterministic for a fixed config, and samples are
independent, so the worker pool (builtin solver only) changes nothing
but wall time: the parent reads the dataset's lines without decoding
them, each worker decodes and runs a contiguous chunk of them, and the
parent joins the trajectories in chunk order. Chunks are consumed in
order, so a bad record raises the same DatasetError as a serial read.
"""

from __future__ import annotations

import functools
import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .benchgen import DEFAULT_SEED, BenchmarkSample
from .edits import (
    Addition,
    AttributeModify,
    DepthModify,
    Deletion,
    EditAction,
    FacingModify,
    Reposition,
    SymbolicScene,
    action_kind,
    apply_actions,
    diff_layouts,
    scene_from_layout,
)
from .errors import SceneFixError
from .evaluate import EvaluationResult, categorize_run, evaluate
from .interpreter import make_interpreter, suggest_layout
from .perception import ZERO_NOISE, PerceptionConfig, derive_seed, perceive
from .rules import convert_expression
from .scene import SceneLayout
from .wire import (
    decode_dataset, read_dataset, read_lines, restore_sent, serialize_wire_layout, write_ndjson,
)

logger = logging.getLogger(__name__)

# Pool tasks per worker: enough that one slow chunk does not leave the
# other workers idle, few enough that task overhead stays negligible.
_CHUNKS_PER_WORKER = 4

@dataclass(frozen=True)
class RunConfig:
    dataset_path: str
    rounds: int = 1
    solver: str = "builtin"
    endpoint: str | None = None
    perception: PerceptionConfig = ZERO_NOISE
    report_path: str | None = None
    seed: int = DEFAULT_SEED
    workers: int = 1

    def __post_init__(self):
        if not 0 <= self.rounds <= 10:
            raise ValueError("rounds must be in 0..10")
        if self.solver not in ("builtin", "external"):
            raise ValueError(f"unknown solver {self.solver!r}")
        if (self.solver == "external") != (self.endpoint is not None):
            raise ValueError("an endpoint is required exactly when solver is external")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.workers > 1 and self.solver == "external":
            raise ValueError("worker pools only apply to the builtin solver")


@dataclass(frozen=True)
class RoundOutcome:
    round_index: int
    result: EvaluationResult
    actions: tuple[EditAction, ...] = ()


@dataclass(frozen=True)
class SampleTrajectory:
    sample_id: str
    split: str
    source: str
    rounds: tuple[RoundOutcome, ...]
    error: str | None = None

    def correct_at(self, round_index: int) -> bool:
        for outcome in self.rounds:
            if outcome.round_index == round_index:
                # the loop never stores None; bench/selftest.py does, to fake
                # a wrong round-0 verdict, and reads it back through here
                return outcome.result is not None and outcome.result.correct
        return False  # errored out before reaching this round


def run_round(
    sample: BenchmarkSample,
    scene: SymbolicScene,
    cfg: RunConfig,
    round_index: int,
    session,
    perceived: SceneLayout,
    verdict: EvaluationResult,
):
    """One correction round; returns (new scene, evaluation, actions, checked layout).

    ``perceived`` is the scene as the last round boundary perceived it, and
    ``verdict`` its evaluation: the round does not perceive its input again.
    The solver, builtin or external, is asked only when ``verdict`` is not
    correct: otherwise the round has no actions and sends no request. An
    external reply is diffed against what was sent (``wire.restore_sent``),
    so an object the interpreter sends back unchanged is no edit. The
    checked layout is the new scene's perception, which the next round
    starts from.
    """
    expr = sample.annotation
    if verdict.correct:
        actions = []
    elif cfg.solver == "external":
        proposal = session.request(
            sample.prompt, serialize_wire_layout(perceived), round_index, annotation=expr
        )
        actions = diff_layouts(perceived, restore_sent(perceived, proposal.layout))
    else:
        proposal = suggest_layout(convert_expression(expr, perceived), perceived)
        actions = diff_layouts(perceived, proposal.layout)
    new_scene = apply_actions(scene, actions) if actions else scene
    checked = perceive(
        new_scene, expr.mentions, cfg.perception,
        seed=derive_seed(cfg.seed, sample.id, round_index, "out"),
    )
    return new_scene, evaluate(expr, checked), tuple(actions), checked


def run_sample(sample: BenchmarkSample, cfg: RunConfig, session=None) -> SampleTrajectory:
    scene = scene_from_layout(sample.initial_layout)
    checked = perceive(
        scene, sample.annotation.mentions, cfg.perception,
        seed=derive_seed(cfg.seed, sample.id, 0, "out"),
    )
    outcomes = [RoundOutcome(0, evaluate(sample.annotation, checked))]
    error = None
    for round_index in range(1, cfg.rounds + 1):
        try:
            scene, result, actions, checked = run_round(
                sample, scene, cfg, round_index, session, checked, outcomes[-1].result
            )
        except SceneFixError as exc:
            error = f"{type(exc).__name__}: {exc}"
            logger.info("sample %s failed at round %d: %s", sample.id, round_index, error)
            break
        outcomes.append(RoundOutcome(round_index, result, actions))
    return SampleTrajectory(
        sample_id=sample.id,
        split=sample.split,
        source=sample.source,
        rounds=tuple(outcomes),
        error=error,
    )


# --------------------------------------------------------------------------
# reporting

@dataclass(frozen=True)
class RunReport:
    trajectories: tuple[SampleTrajectory, ...]
    rounds: int
    accuracy: tuple[float, ...]
    relative_accuracy: tuple[float | None, ...]
    intrinsic_accuracy: tuple[float | None, ...]
    average_accuracy: tuple[float, ...]
    categories: tuple[tuple[tuple[str, int], ...], ...]

    def to_records(self) -> list[dict]:
        records = [_trajectory_record(t) for t in self.trajectories]
        records.append(
            {
                "summary": True,
                "samples": len(self.trajectories),
                "rounds": self.rounds,
                "accuracy_by_round": list(self.accuracy),
                "relative_by_round": list(self.relative_accuracy),
                "intrinsic_by_round": list(self.intrinsic_accuracy),
                "average_by_round": list(self.average_accuracy),
                "categories_by_round": [dict(c) for c in self.categories],
            }
        )
        return records


def action_to_record(action: EditAction) -> dict:
    kind = action_kind(action)
    if isinstance(action, Addition):
        o = action.obj
        return {
            "kind": kind, "object_id": o.object_id, "name": o.name,
            "attributes": list(o.attributes), "bbox": o.bbox.as_list(),
            "depth": o.depth, "facing": o.facing.value,
        }
    if isinstance(action, Deletion):
        return {"kind": kind, "object_id": action.object_id}
    if isinstance(action, Reposition):
        return {"kind": kind, "object_id": action.object_id, "bbox": action.new_bbox.as_list()}
    if isinstance(action, AttributeModify):
        return {"kind": kind, "object_id": action.object_id, "attributes": list(action.new_attributes)}
    if isinstance(action, FacingModify):
        return {"kind": kind, "object_id": action.object_id, "facing": action.new_facing.value}
    assert isinstance(action, DepthModify)
    return {
        "kind": kind, "object_id": action.object_id, "depth": action.new_depth,
        "bbox": action.new_bbox.as_list() if action.new_bbox is not None else None,
    }


def _trajectory_record(t: SampleTrajectory) -> dict:
    return {
        "id": t.sample_id,
        "split": t.split,
        "source": t.source,
        "error": t.error,
        "rounds": [
            {
                "round": o.round_index,
                "correct": o.result.correct,
                "failures": sorted(f.value for f in o.result.failures),
                "actions": [action_to_record(a) for a in o.actions],
            }
            for o in t.rounds
        ],
    }


def _accuracy(trajectories, round_index: int) -> float | None:
    if not trajectories:
        return None
    return sum(t.correct_at(round_index) for t in trajectories) / len(trajectories)


def build_report(trajectories: tuple[SampleTrajectory, ...], rounds: int) -> RunReport:
    relative = [t for t in trajectories if t.split == "relative"]
    intrinsic = [t for t in trajectories if t.split == "intrinsic"]

    accuracy, rel_acc, intr_acc, avg_acc, categories = [], [], [], [], []
    for r in range(rounds + 1):
        overall = _accuracy(trajectories, r) or 0.0
        rel = _accuracy(relative, r)
        intr = _accuracy(intrinsic, r)
        accuracy.append(overall)
        rel_acc.append(rel)
        intr_acc.append(intr)
        present = [a for a in (rel, intr) if a is not None]
        avg_acc.append(sum(present) / len(present) if present else overall)

        results = [o.result for t in trajectories for o in t.rounds if o.round_index == r]
        hist = categorize_run(results)
        categories.append(
            tuple(sorted((cat.value, count) for cat, count in hist.counts if count))
        )

    return RunReport(
        trajectories=tuple(trajectories),
        rounds=rounds,
        accuracy=tuple(accuracy),
        relative_accuracy=tuple(rel_acc),
        intrinsic_accuracy=tuple(intr_acc),
        average_accuracy=tuple(avg_acc),
        categories=tuple(categories),
    )


def write_report(report: RunReport, path: str) -> None:
    write_ndjson(path, report.to_records())


def _run_chunk(lines: list[tuple[int, bytes]], cfg: RunConfig) -> list[SampleTrajectory]:
    """Pool task: decode one contiguous chunk of dataset lines and run its samples."""
    # run_sample is looked up at call time, so a replacement of the module
    # attribute before the pool forks also runs in the workers
    return [run_sample(s, cfg) for s in decode_dataset(lines)]


def _run_pool(cfg: RunConfig) -> list[SampleTrajectory]:
    lines = list(read_lines(cfg.dataset_path))
    if not lines:
        return []
    size = -(-len(lines) // (cfg.workers * _CHUNKS_PER_WORKER))
    chunks = [lines[i:i + size] for i in range(0, len(lines), size)]
    with ProcessPoolExecutor(max_workers=min(cfg.workers, len(chunks))) as pool:
        parts = pool.map(functools.partial(_run_chunk, cfg=cfg), chunks)
        return [t for part in parts for t in part]


def run_batch(cfg: RunConfig) -> RunReport:
    if cfg.workers > 1:
        trajectories = _run_pool(cfg)
    else:
        # start the child first, so it starts up while the dataset is read
        session = make_interpreter(cfg.endpoint) if cfg.solver == "external" else None
        try:
            trajectories = [run_sample(s, cfg, session) for s in read_dataset(cfg.dataset_path)]
        finally:
            if session is not None:
                session.close()

    report = build_report(tuple(trajectories), cfg.rounds)
    if cfg.report_path:
        write_report(report, cfg.report_path)
    return report
