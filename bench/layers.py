"""Which scenefix calls the benchmark times, and under which layer name.

Every wrapper sits on a module attribute that scenefix resolves at call
time, so the program runs unchanged apart from the wrapper's own cost:

- ``scenefix.pipeline``: the loop's calls into every other layer
  (``read_dataset``, ``perceive``, ``convert_expression``,
  ``suggest_layout``, ``serialize_wire_layout``, ``diff_layouts``,
  ``apply_actions``, ``evaluate``, ``scene_from_layout``,
  ``build_report``, the external session's ``request`` and the worker
  pool's ``map``), plus ``run_sample`` and ``run_round`` to tag spans with
  the sample id and round;
- ``scenefix.perception``: ``perceive_with_log`` for the event count, and
  ``rect_mask`` / ``object_depth``, the depth read;
- ``scenefix.wire``: ``parse_expression``, the prompt re-check of every
  dataset record, and ``parse_wire_layout``, which the dataset reader and
  the external reply parser both use.

With a worker pool only the calls made in the benchmark process are
wrapped: forked workers inherit the module attributes, and spans recorded
there would never reach the parent.
"""

from __future__ import annotations

import functools
import multiprocessing
from contextlib import contextmanager
from time import perf_counter

import scenefix.perception as perception
import scenefix.pipeline as pipeline
import scenefix.wire as wire
from scenefix.errors import SceneFixError, UnsatisfiableError

from spans import Tracer


def _tally(key: str):
    """``after`` hook counting calls under ``key``."""
    def after(counts, args, kwargs, result):
        counts[key] += 1
    return after


def _perceived(counts, args, kwargs, layout):
    counts["perception.calls"] += 1
    counts["perception.detections"] += len(layout.objects)


def _mask(counts, args, kwargs, mask):
    counts["scene.depth_read_calls"] += 1
    counts["scene.mask_pixels"] += len(mask)


def _events(counts, args, kwargs, result):
    counts["perception.events"] += len(result[1])


def _applied(counts, args, kwargs, scene):
    counts["edits.apply_calls"] += 1
    counts["edits.actions"] += len(args[1])


def _read(counts, args, kwargs, samples):
    counts["wire.records"] += len(samples)


def _unsat(counts, exc):
    if isinstance(exc, UnsatisfiableError):
        counts["interpreter.unsat"] += 1


def _protocol_error(counts, exc):
    if isinstance(exc, SceneFixError):
        counts["interpreter.protocol_errors"] += 1


class _TracedSession:
    def __init__(self, session, request):
        self._session = session
        self.request = request

    def close(self) -> None:
        self._session.close()


def _sample_scope(tracer: Tracer, run_sample):
    @functools.wraps(run_sample)
    def traced(sample, *args, **kwargs):
        tracer.sample_id, tracer.round = sample.id, 0
        idx = tracer.open("pipeline.sample")
        try:
            return run_sample(sample, *args, **kwargs)
        finally:
            tracer.close(idx)
            tracer.sample_id = None

    return traced


def _round_scope(tracer: Tracer, run_round):
    @functools.wraps(run_round)
    def traced(sample, scene, cfg, round_index, *args, **kwargs):
        tracer.round = round_index
        idx = tracer.open("pipeline.round")
        try:
            return run_round(sample, scene, cfg, round_index, *args, **kwargs)
        finally:
            tracer.close(idx)

    return traced


def _session_factory(tracer: Tracer, make_interpreter):
    @functools.wraps(make_interpreter)
    def traced(*args, **kwargs):
        session = make_interpreter(*args, **kwargs)
        request = tracer.wrap(
            "interpreter.request", session.request,
            after=_tally("interpreter.requests"), on_error=_protocol_error,
        )
        return _TracedSession(session, request)

    return traced


def _pool_class(tracer: Tracer, executor):
    class TracedPool(executor):
        def map(self, fn, *iterables, **kwargs):
            idx = tracer.open("pipeline.pool_wait")
            try:
                results = list(super().map(fn, *iterables, **kwargs))
            finally:
                tracer.close(idx)
            return iter(results)

    return TracedPool


def install(tracer: Tracer, pool: bool) -> None:
    """Wrap the layer calls; ``tracer.unpatch()`` removes every wrapper."""
    w, patch = tracer.wrap, tracer.patch
    patch(pipeline, "read_dataset", w("wire.read", pipeline.read_dataset, after=_read))
    patch(pipeline, "build_report", w("pipeline.report", pipeline.build_report))
    patch(wire, "parse_expression", w("dsl.parse", wire.parse_expression, after=_tally("dsl.parse_calls")))
    patch(wire, "parse_wire_layout", w("wire.parse_layout", wire.parse_wire_layout))
    if pool:
        patch(pipeline, "ProcessPoolExecutor", _pool_class(tracer, pipeline.ProcessPoolExecutor))
        return
    patch(pipeline, "run_sample", _sample_scope(tracer, pipeline.run_sample))
    patch(pipeline, "run_round", _round_scope(tracer, pipeline.run_round))
    patch(pipeline, "make_interpreter", _session_factory(tracer, pipeline.make_interpreter))
    patch(pipeline, "scene_from_layout", w("edits.scene_build", pipeline.scene_from_layout))
    patch(pipeline, "perceive", w("perception.perceive", pipeline.perceive, after=_perceived))
    patch(pipeline, "convert_expression", w(
        "rules.convert", pipeline.convert_expression, after=_tally("rules.convert_calls")))
    patch(pipeline, "suggest_layout", w(
        "interpreter.solve", pipeline.suggest_layout,
        after=_tally("interpreter.solve_calls"), on_error=_unsat))
    patch(pipeline, "serialize_wire_layout", w("wire.serialize", pipeline.serialize_wire_layout))
    patch(pipeline, "diff_layouts", w("edits.diff", pipeline.diff_layouts, after=_tally("edits.diff_calls")))
    patch(pipeline, "apply_actions", w("edits.apply", pipeline.apply_actions, after=_applied))
    patch(pipeline, "evaluate", w("evaluate.eval", pipeline.evaluate, after=_tally("evaluate.calls")))
    patch(perception, "perceive_with_log", tracer.count(perception.perceive_with_log, _events))
    patch(perception, "rect_mask", w("scene.depth_read", perception.rect_mask, after=_mask))
    patch(perception, "object_depth", w(
        "scene.depth_read", perception.object_depth, after=_tally("scene.depth_read_calls")))


# Pool workers are forked from the benchmark process: they inherit these
# globals and write each sample's time into the shared array, which the
# parent reads back after the batch. A module-level function is needed
# because the pool pickles ``run_sample`` by name.
_run_sample = None
_slot: dict[str, int] = {}
_times = None


def timed_run_sample(sample, *args, **kwargs):
    start = perf_counter()
    try:
        return _run_sample(sample, *args, **kwargs)
    finally:
        _times[_slot[sample.id]] = perf_counter() - start


@contextmanager
def sample_clock(sample_ids, pool: bool):
    """Time every ``pipeline.run_sample`` call; yields per-sample seconds."""
    global _run_sample, _slot, _times
    if pool and multiprocessing.get_start_method() != "fork":
        raise RuntimeError("per-sample timing in pool workers needs the fork start method")
    _run_sample = pipeline.run_sample
    _slot = {sid: i for i, sid in enumerate(sample_ids)}
    _times = multiprocessing.RawArray("d", len(sample_ids))
    pipeline.run_sample = timed_run_sample
    try:
        yield _times
    finally:
        pipeline.run_sample = _run_sample
