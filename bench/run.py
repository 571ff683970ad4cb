#!/usr/bin/env python3
"""scenefix benchmark: the correction loop over seeded datasets.

    python3 bench/run.py --workload clean-r1 --seed 1 --seconds 27 --trace 0

Each run builds its dataset from ``--seed`` (generate, corrupt 80% of the
samples, write NDJSON), then calls ``pipeline.run_batch`` repeatedly for
``--seconds`` and checks every batch's per-sample verdicts against a
reference: the first batch for a serial workload, one serial builtin run
for the pool and external-solver workloads. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs half the time untraced and half traced, and reports
each layer's self time and counts plus the tracing overhead. Environment
metadata is printed on the line before, and a copy of everything, with
the last traced batch's spans and every batch's raw wall time and host
slowdown, goes to ``.bench_out/``.

End-to-end times (``samples_per_s``, the sample latencies, ``setup_s``)
are scaled to a reference host speed: each batch and each set-up is
bracketed by a fixed calibration kernel (``calibrate.py``), and its wall
time is divided by the kernel's slowdown against its reference time.
This takes the shared host's drift out of comparisons between runs; the
per-layer self times are raw wall time.

A failed correctness check prints the reason on standard error and exits
with status 1; missing ``src/scenefix`` exits with status 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import pickle
import platform
import resource
import shlex
import statistics
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

from calibrate import slowdown
from spans import END, NAME, START

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

CORRUPT_FRACTION = 0.8
SETUP_REPEATS = 5
MIN_BATCHES = 3


@dataclass(frozen=True)
class Workload:
    source: str  # benchgen flavour
    samples: int
    rounds: int
    noisy: bool = False
    solver: str = "builtin"
    workers: int = 1


# Why each workload exists, and the layers it exercises or bypasses, is
# recorded in BENCHMARK.json under the same names.
WORKLOADS = {
    "clean-r1": Workload("for-lmd", 1000, 1),
    "noisy-r3": Workload("for-lmd", 1000, 3, noisy=True),
    "external-stdio": Workload("forest-style", 1000, 1, solver="external"),
    "pool-2": Workload("for-lmd", 1000, 1, workers=2),
}

# span name -> per-layer metric holding its self time
SELF_TIME = {
    "perception.perceive": "perception.perceive_s",
    "scene.depth_read": "scene.depth_read_s",
    "wire.read": "wire.read_s",
    "dsl.parse": "dsl.parse_s",
    "interpreter.solve": "interpreter.solve_s",
    "interpreter.request": "interpreter.request_s",
    "wire.serialize": "wire.serialize_s",
    "wire.parse_layout": "wire.parse_layout_s",
    "rules.convert": "rules.convert_s",
    "evaluate.eval": "evaluate.eval_s",
    "edits.scene_build": "edits.scene_build_s",
    "edits.diff": "edits.diff_s",
    "edits.apply": "edits.apply_s",
    "pipeline.batch": "pipeline.self_s",
    "pipeline.sample": "pipeline.self_s",
    "pipeline.round": "pipeline.self_s",
    "pipeline.report": "pipeline.report_s",
    "pipeline.pool_wait": "pipeline.pool_wait_s",
}
COUNTS = (
    "perception.calls", "perception.detections", "perception.events",
    "scene.depth_read_calls", "scene.mask_pixels", "wire.records", "dsl.parse_calls",
    "interpreter.solve_calls", "interpreter.unsat", "interpreter.requests",
    "interpreter.protocol_errors", "rules.convert_calls", "evaluate.calls",
    "edits.apply_calls", "edits.actions",
)
# metric name suffix -> unit, first match wins; anything else is a count
UNITS = (
    ("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s"), ("_mb", "MB"), ("_pct", "%"),
    ("_bytes", "bytes"), ("_yield", "ratio"), ("_final", "ratio"), ("_rate", "ratio"),
)


def unit_of(name: str) -> str:
    return next((unit for suffix, unit in UNITS if name.endswith(suffix)), "count")


def import_scenefix():
    if not (SRC / "scenefix" / "__init__.py").is_file():
        print(f"bench: no scenefix sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import scenefix

    if Path(scenefix.__file__).resolve().parent != SRC / "scenefix":
        print(f"bench: scenefix imported from {scenefix.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


@dataclass
class Batch:
    wall: float
    errored: int
    sample_s: list[float]
    slowdown: float  # the host's, averaged over just before and just after
    layers: dict | None = None


def rate(workload: Workload, batches: list[Batch]) -> float:
    """Median samples per second, each batch's time scaled to the reference host speed."""
    return statistics.median(workload.samples * b.slowdown / b.wall for b in batches)


def make_dataset(workload: Workload, seed: int, path: Path) -> tuple[dict, list, set]:
    """Generate, corrupt and write one dataset; returns stage times,
    samples and the ids of the corrupted samples."""
    from scenefix import benchgen, wire

    t0 = perf_counter()
    if workload.source == "for-lmd":
        samples = benchgen.generate_for_lmd(workload.samples, seed)
    else:
        samples = benchgen.generate_forest_style(workload.samples, seed)
    t1 = perf_counter()
    samples, ledger = benchgen.apply_corruption(samples, CORRUPT_FRACTION, seed)
    t2 = perf_counter()
    wire.write_dataset(str(path), samples)
    t3 = perf_counter()
    times = {"benchgen.generate_s": t1 - t0, "benchgen.corrupt_s": t2 - t1, "wire.write_s": t3 - t2}
    return times, samples, {inj.sample_id for inj in ledger}


def run_one(cfg, sample_ids, tracer=None):
    """One timed ``run_batch``; returns its measurements and its report."""
    import layers
    import scenefix.pipeline as pipeline

    before = slowdown()
    with layers.sample_clock(sample_ids, pool=cfg.workers > 1) as clock:
        if tracer is None:
            t0 = perf_counter()
            report = pipeline.run_batch(cfg)
            wall = perf_counter() - t0
        else:
            tracer.reset()
            layers.install(tracer, pool=cfg.workers > 1)
            try:
                idx = tracer.open("pipeline.batch")
                report = pipeline.run_batch(cfg)
                tracer.close(idx)
            finally:
                tracer.unpatch()
            wall = tracer.spans[idx][END] - tracer.spans[idx][START]
        sample_s = list(clock)
    errored = sum(t.error is not None for t in report.trajectories)
    layer = layer_metrics(tracer, wall) if tracer is not None else None
    return Batch(wall, errored, sample_s, (before + slowdown()) / 2, layer), report


def run_for(seconds: float, cfg, sample_ids, expected, what, tracer=None, done=()) -> list[Batch]:
    """Timed batches, each checked against the expected verdicts, until
    about ``seconds`` are measured, counting the ``done`` batches. Reports
    are dropped after the check, so later batches do not pay for them."""
    from checks import check_same, verdicts

    batches = list(done)
    end = perf_counter() + seconds - sum(b.wall for b in batches)
    while len(batches) < MIN_BATCHES or perf_counter() + batches[-1].wall / 2 < end:
        batch, report = run_one(cfg, sample_ids, tracer)
        check_same(expected, verdicts(report), what)
        batches.append(batch)
    return batches


def layer_metrics(tracer, wall: float) -> dict[str, float]:
    from spans import self_times

    metrics = dict.fromkeys(sorted(set(SELF_TIME.values())), 0.0)
    for name, seconds in self_times(tracer.spans).items():
        metrics[SELF_TIME[name]] += seconds
    for key in COUNTS:
        metrics[key] = tracer.counts[key]
    requests = [s[END] - s[START] for s in tracer.spans if s[NAME] == "interpreter.request"]
    metrics["interpreter.request_p99_ms"] = percentile(requests, 99) * 1e3 if requests else 0.0
    diffs = tracer.counts["edits.diff_calls"]
    metrics["edits.edit_yield"] = tracer.counts["edits.apply_calls"] / diffs if diffs else 0.0
    metrics["pipeline.batch_s"] = wall
    metrics["trace.spans"] = len(tracer.spans)
    return metrics


def percentile(values, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def pickled_bytes(cfg, samples, report) -> int:
    """Bytes the pool pickles: one (function, sample) call per sample and
    one trajectory back."""
    import scenefix.pipeline as pipeline

    fn = functools.partial(pipeline.run_sample, cfg=cfg)
    sent = sum(len(pickle.dumps((fn, (s,), {}))) for s in samples)
    return sent + sum(len(pickle.dumps(t)) for t in report.trajectories)


def environment(args, workload: Workload) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "workload": args.workload,
        "seed": args.seed,
        "samples": workload.samples,
        "seconds": args.seconds,
        "trace": args.trace,
        "src_lines": src_lines,
    }


def configs(args, workload: Workload, dataset: Path):
    """The workload's run config and the serial builtin one it is checked against."""
    from scenefix.perception import ZERO_NOISE, PerceptionConfig
    from scenefix.pipeline import RunConfig

    perception = (
        PerceptionConfig(bbox_jitter_sigma=0.02, depth_sigma=0.02, facing_flip_rate=0.05)
        if workload.noisy else ZERO_NOISE
    )
    serial = RunConfig(str(dataset), rounds=workload.rounds, perception=perception, seed=args.seed)
    cfg = replace(serial, workers=workload.workers)
    if workload.solver == "external":
        cfg = replace(cfg, solver="external", endpoint=shlex.join([sys.executable, str(BENCH / "peer.py")]))
    return cfg, serial


def measure(args, workload: Workload, run_dir: Path) -> tuple[dict, list, int, int]:
    from checks import check_converged, check_improves, check_round_zero, check_summary, verdicts
    from scenefix.pipeline import run_batch
    from spans import Tracer

    dataset = run_dir / "dataset.ndjson"
    try:
        setups, setup_s = [], []
        before = slowdown()
        for _ in range(SETUP_REPEATS):
            stage_times, samples, corrupted = make_dataset(workload, args.seed, dataset)
            after = slowdown()
            setups.append(stage_times)
            setup_s.append(sum(stage_times.values()) / ((before + after) / 2))
            before = after
        sample_ids = [s.id for s in samples]
        cfg, serial = configs(args, workload, dataset)

        # a serial workload's first timed batch is its own reference
        first = []
        if cfg == serial:
            batch, reference = run_one(cfg, sample_ids)
            first.append(batch)
        else:
            reference = run_batch(serial)
        check_summary(reference)
        check_improves(reference)
        if not workload.noisy:
            check_round_zero(reference, corrupted, CORRUPT_FRACTION)
        if workload.source == "for-lmd" and not workload.noisy:
            check_converged(reference)
        expected = verdicts(reference)
        path = "serial builtin" if cfg == serial else f"{workload.solver} solver, {workload.workers} worker(s)"

        if args.trace:
            half = args.seconds / 2
            untraced = run_for(half, cfg, sample_ids, expected, f"untraced {path} vs serial builtin", done=first)
            tracer = Tracer()
            traced = run_for(half, cfg, sample_ids, expected, f"traced {path} vs serial builtin", tracer)
            tracer.write(str(run_dir / "spans.jsonl"))
            batches = untraced + traced
        else:
            batches = run_for(args.seconds, cfg, sample_ids, expected, f"{path} vs serial builtin", done=first)
    finally:
        dataset.unlink(missing_ok=True)

    if args.trace:
        metrics = {key: statistics.median(b.layers[key] for b in traced) for key in traced[0].layers}
        for key in setups[0]:
            metrics[key] = statistics.median(s[key] for s in setups)
        plain = rate(workload, untraced)
        with_spans = rate(workload, traced)
        metrics["trace.untraced_samples_per_s"] = plain
        metrics["trace.traced_samples_per_s"] = with_spans
        metrics["trace.overhead_pct"] = (plain - with_spans) / plain * 100
        metrics["pipeline.pickled_bytes"] = (
            pickled_bytes(cfg, samples, reference) if workload.workers > 1 else 0
        )
    else:
        # each sample's median over the batches: a stall that hits a sample
        # in only some batches (a collector pause, a busy host) drops out
        # of the percentiles, and still counts in samples_per_s
        latencies = [
            statistics.median(times)
            for times in zip(*([t / b.slowdown for t in b.sample_s] for b in batches))
        ]
        errored = sum(t.error is not None for t in reference.trajectories)
        metrics = {
            "samples_per_s": rate(workload, batches),
            "sample_p50_ms": percentile(latencies, 50) * 1e3,
            "sample_p99_ms": percentile(latencies, 99) * 1e3,
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "accuracy_final": reference.accuracy[-1],
            "completion_rate": 1 - errored / workload.samples,
        }
    attempted = workload.samples * len(batches)
    failed = sum(b.errored for b in batches)
    return metrics, [(b.wall, b.slowdown) for b in batches], attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_scenefix()
    from checks import CheckFailed

    workload = WORKLOADS[args.workload]
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir.mkdir(parents=True, exist_ok=True)
    env = environment(args, workload)
    try:
        metrics, walls, attempted, failed = measure(args, workload, run_dir)
    except CheckFailed as exc:
        print(f"bench: correctness check failed: {exc}", file=sys.stderr)
        return 1
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    with open(run_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "batch_s_slowdown": walls, **result}, fh, indent=1, sort_keys=True)
    print(json.dumps({"env": env}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
