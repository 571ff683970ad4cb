"""Closed-loop correction runs over benchmark datasets."""

from __future__ import annotations

import json
import multiprocessing
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import scenefix.pipeline as pipeline
from scenefix import (
    BBox,
    BenchmarkSample,
    DatasetError,
    ErrorCategory,
    PerceptionConfig,
    RunConfig,
    SceneLayout,
    SceneObject,
    apply_corruption,
    evaluate,
    generate_for_lmd,
    generate_forest_style,
    parse_expression,
    read_dataset,
    run_batch,
    run_sample,
    serialize_wire_layout,
    write_dataset,
)
from scenefix.edits import Addition, SymbolicScene
from scenefix.perception import ZERO_NOISE, derive_seed
from scenefix.pipeline import build_report, write_report
from scenefix.wire import sample_from_record, sample_to_record

FAKE = str(Path(__file__).parent / "fake_interpreter.py")


def _dataset(tmp_path, samples, name="bench.ndjson"):
    path = str(tmp_path / name)
    write_dataset(path, samples)
    return path


def _verdicts(report):
    """Per sample: id, correct per round, errored."""
    return [
        (t.sample_id, tuple(t.correct_at(r) for r in range(len(report.accuracy))), t.error is not None)
        for t in report.trajectories
    ]


@pytest.fixture(scope="module")
def corrupted_dataset(tmp_path_factory):
    samples = generate_for_lmd(40, seed=78)
    corrupted, ledger = apply_corruption(samples, fraction=0.8, seed=78)
    path = str(tmp_path_factory.mktemp("data") / "bench.ndjson")
    write_dataset(path, corrupted)
    return path, ledger


class TestConfigValidation:
    def test_rounds_range(self):
        with pytest.raises(ValueError):
            RunConfig(dataset_path="x", rounds=11)

    def test_endpoint_pairing(self):
        with pytest.raises(ValueError):
            RunConfig(dataset_path="x", solver="external")
        with pytest.raises(ValueError):
            RunConfig(dataset_path="x", endpoint="cmd")

    def test_workers_builtin_only(self):
        with pytest.raises(ValueError):
            RunConfig(
                dataset_path="x", solver="external", endpoint="cmd", workers=2
            )


# the three knobs that perturb values, not which objects are seen
VALUE_NOISE = PerceptionConfig(bbox_jitter_sigma=0.02, depth_sigma=0.02, facing_flip_rate=0.05)
# and the two that change which objects are seen, which can error a sample
FIVE_KNOB_NOISE = replace(VALUE_NOISE, dropout_rate=0.05, duplicate_rate=0.05)


def _count_passes(monkeypatch):
    """Wrap ``pipeline.perceive`` and ``pipeline.evaluate``; returns the
    lists that get each pass's seed and one entry per evaluation."""
    passes, verdicts = [], []
    perceive, evaluate_ = pipeline.perceive, pipeline.evaluate

    def counting_perceive(*args, **kwargs):
        passes.append(kwargs["seed"])
        return perceive(*args, **kwargs)

    def counting_evaluate(expr, layout):
        verdicts.append(layout)
        return evaluate_(expr, layout)

    monkeypatch.setattr(pipeline, "perceive", counting_perceive)
    monkeypatch.setattr(pipeline, "evaluate", counting_evaluate)
    return passes, verdicts


def _record_boundaries(monkeypatch):
    """Wrap ``pipeline.perceive`` and ``pipeline.run_round``; returns a
    function that gives, inside a round, the layout the previous round
    boundary perceived (round 0's pass in round 1)."""
    layouts, current = {}, {}
    perceive, run_round = pipeline.perceive, pipeline.run_round

    def recording_perceive(*args, seed, **kwargs):
        layouts[seed] = perceive(*args, seed=seed, **kwargs)
        return layouts[seed]

    def recording_round(sample, scene, cfg, round_index, *args):
        current.update(sample=sample, cfg=cfg, round_index=round_index)
        return run_round(sample, scene, cfg, round_index, *args)

    def boundary():
        seed = derive_seed(
            current["cfg"].seed, current["sample"].id, current["round_index"] - 1, "out"
        )
        return layouts[seed]

    monkeypatch.setattr(pipeline, "perceive", recording_perceive)
    monkeypatch.setattr(pipeline, "run_round", recording_round)
    return boundary


class TestSingleSample:
    def test_clean_sample_needs_no_actions(self):
        sample = generate_for_lmd(1, seed=5)[0]
        cfg = RunConfig(dataset_path="unused", rounds=1)
        trajectory = run_sample(sample, cfg)
        assert trajectory.error is None
        assert trajectory.correct_at(0)
        assert trajectory.correct_at(1)
        assert trajectory.rounds[1].actions == ()

    def test_corrupted_sample_fixed_in_one_round(self):
        samples = generate_for_lmd(10, seed=78)
        corrupted, ledger = apply_corruption(samples, fraction=1.0, seed=78)
        cfg = RunConfig(dataset_path="unused", rounds=1)
        for sample in corrupted:
            trajectory = run_sample(sample, cfg)
            assert trajectory.error is None, trajectory.error
            assert not trajectory.correct_at(0)
            assert trajectory.correct_at(1)
            assert trajectory.rounds[1].actions

    def test_a_clean_round_renders_no_scene_whose_rectangles_are_disjoint(self, monkeypatch):
        # perception takes an unoccluded object's stored depth, so only a
        # scene where some patch covers another is ever rendered
        perceived, grid_read = [], []
        perceive, depth = pipeline.perceive, SymbolicScene.depth

        def recording_perceive(scene, *args, **kwargs):
            perceived.append(scene)
            return perceive(scene, *args, **kwargs)

        def recording_depth(scene):
            grid_read.append(scene)
            return depth.fget(scene)

        monkeypatch.setattr(pipeline, "perceive", recording_perceive)
        monkeypatch.setattr(SymbolicScene, "depth", property(recording_depth))
        samples, _ = apply_corruption(generate_for_lmd(200, seed=78), fraction=0.8, seed=78)
        cfg = RunConfig(dataset_path="unused", rounds=1)
        for sample in samples:
            assert run_sample(sample, cfg).error is None
        disjoint = {id(s) for s in perceived if len(s.clear) == len(s.layout.objects)}
        assert len(disjoint) > len(samples)
        # no grid read, so no grid rendered
        assert not disjoint & {id(s) for s in grid_read}

    def test_frame_relatum_adds_no_object(self):
        prompt = "A cat is to the left of the frame."
        cat = SceneLayout((SceneObject("cat", (), 1, BBox(0.7, 0.4, 0.2, 0.2), 0.5),))
        sample = BenchmarkSample(
            "s", prompt, parse_expression(prompt), cat, cat, "relative", "for-lmd"
        )
        trajectory = run_sample(sample, RunConfig(dataset_path="unused", rounds=1))
        assert trajectory.error is None
        assert trajectory.rounds[0].result.failures == (ErrorCategory.LEFT_RIGHT,)
        assert trajectory.correct_at(1)
        assert not any(isinstance(a, Addition) for a in trajectory.rounds[1].actions)

    def test_crowded_reposition_keeps_the_depth_clause(self):
        """Sample for-lmd-341-0784 of the benchmark's clean-r1 dataset at seed 341
        (1000 samples, 80% corrupted): no clear window exists for the near
        horse, so its left-right repair moves it over the deer and the cat.
        The deer's box mean would rise past the cat's and flip the intrinsic
        "in front of" clause; the deer's owned pixels still read 0.2."""
        sample = sample_from_record({
            "id": "for-lmd-341-0784",
            "prompt": "A blue deer is in front of a cat from the cat's perspective"
            " and a pink horse is on the left.",
            "split": "intrinsic",
            "source": "for-lmd",
            "annotation": {
                "background": "A realistic image",
                "facings": [],
                "mentions": [
                    {"attributes": ["blue"], "name": "deer"},
                    {"attributes": [], "name": "cat"},
                    {"attributes": ["pink"], "name": "horse"},
                ],
                "negations": [],
                "relations": [
                    {"perspective": {"kind": "intrinsic", "relatum": "cat"},
                     "relation": "front", "relatum": "cat", "target": "deer"},
                    {"perspective": {"kind": "camera"},
                     "relation": "left", "relatum": "frame", "target": "horse"},
                ],
            },
            "gold_layout": "[('blue deer #1', [0.099, 0.41, 0.102, 0.179], 0.2, None),"
            " ('cat #2', [0.804, 0.408, 0.192, 0.184], 0.3, 'BackwardLeft'),"
            " ('pink horse #3', [0.341, 0.409, 0.119, 0.181], 0.9, None)]",
            "initial_layout": "[('blue deer #1', [0.099, 0.41, 0.102, 0.179], 0.2, None),"
            " ('cat #2', [0.341, 0.408, 0.119, 0.184], 0.3, 'BackwardLeft'),"
            " ('pink horse #3', [0.804, 0.409, 0.192, 0.181], 0.9, None)]",
        })
        trajectory = run_sample(sample, RunConfig(dataset_path="unused", rounds=1, seed=341))
        assert trajectory.error is None and trajectory.correct_at(1)

    def test_crowded_reposition_keeps_the_depth_clause_at_seed_901(self):
        """Sample for-lmd-901-0763 of the benchmark's clean-r1 dataset at seed 901:
        the near dolphin (0.8) moves onto the boat's box (0.4). Its box mean
        would read the boat nearer than the bird (0.5) and flip "a boat is to
        the right of a bird from the bird's perspective"; the boat's owned
        pixels still read 0.4."""
        sample = sample_from_record({
            "id": "for-lmd-901-0763",
            "prompt": "A boat is to the right of a bird from the bird's perspective"
            " and a dolphin is on the right.",
            "split": "intrinsic",
            "source": "for-lmd",
            "annotation": {
                "background": "A realistic image",
                "facings": [],
                "mentions": [
                    {"attributes": [], "name": "boat"},
                    {"attributes": [], "name": "bird"},
                    {"attributes": [], "name": "dolphin"},
                ],
                "negations": [],
                "relations": [
                    {"perspective": {"kind": "intrinsic", "relatum": "bird"},
                     "relation": "right", "relatum": "bird", "target": "boat"},
                    {"perspective": {"kind": "camera"},
                     "relation": "right", "relatum": "frame", "target": "dolphin"},
                ],
            },
            "gold_layout": "[('boat #1', [0.304, 0.437, 0.191, 0.126], 0.4, None),"
            " ('bird #2', [0.826, 0.408, 0.148, 0.184], 0.5, 'Left'),"
            " ('dolphin #3', [0.565, 0.438, 0.171, 0.124], 0.8, None)]",
            "initial_layout": "[('boat #1', [0.565, 0.437, 0.171, 0.126], 0.4, None),"
            " ('bird #2', [0.826, 0.408, 0.148, 0.184], 0.5, 'Left'),"
            " ('dolphin #3', [0.304, 0.438, 0.191, 0.124], 0.8, None)]",
        })
        trajectory = run_sample(sample, RunConfig(dataset_path="unused", rounds=1, seed=901))
        assert trajectory.error is None and trajectory.correct_at(1)

    @pytest.mark.parametrize("rounds", [1, 3])
    @pytest.mark.parametrize("noisy", [False, True])
    def test_perception_passes_per_sample(self, monkeypatch, rounds, noisy):
        """A round starts from the last boundary's perception and verdict,
        so a sample perceives and evaluates once per boundary, whatever the
        noise."""
        passes, verdicts = _count_passes(monkeypatch)
        perception = PerceptionConfig(bbox_jitter_sigma=0.01) if noisy else ZERO_NOISE
        cfg = RunConfig(dataset_path="unused", rounds=rounds, perception=perception)
        samples, _ = apply_corruption(generate_for_lmd(10, seed=78), fraction=0.8, seed=78)
        for sample in samples:
            passes.clear()
            verdicts.clear()
            trajectory = run_sample(sample, cfg)
            assert trajectory.error is None, trajectory.error
            assert len(passes) == len(set(passes)) == rounds + 1
            assert len(verdicts) == len(passes)

    def test_an_errored_sample_perceives_once_per_recorded_round(self, monkeypatch):
        """Dropout and duplicates can error a round before its boundary
        pass, so only the rounds a trajectory records are perceived."""
        passes, verdicts = _count_passes(monkeypatch)
        cfg = RunConfig(dataset_path="unused", rounds=3, perception=FIVE_KNOB_NOISE, seed=78)
        samples, _ = apply_corruption(generate_for_lmd(40, seed=78), fraction=0.8, seed=78)
        errored = 0
        for sample in samples:
            passes.clear()
            verdicts.clear()
            trajectory = run_sample(sample, cfg)
            errored += trajectory.error is not None
            assert len(passes) == len(set(passes)) == len(trajectory.rounds)
            assert len(verdicts) == len(passes)
        assert errored

    def test_a_round_solves_the_layout_its_boundary_perceived(self, monkeypatch):
        solved = []
        boundary = _record_boundaries(monkeypatch)
        original = pipeline.suggest_layout

        def recording(expr, layout):
            assert layout is boundary()
            solved.append(layout)
            return original(expr, layout)

        monkeypatch.setattr(pipeline, "suggest_layout", recording)
        cfg = RunConfig(dataset_path="unused", rounds=3, perception=VALUE_NOISE, seed=78)
        samples, _ = apply_corruption(generate_for_lmd(40, seed=78), fraction=0.8, seed=78)
        for sample in samples:
            assert run_sample(sample, cfg).error is None
        assert len(solved) > 32

    @pytest.mark.parametrize("generate", [generate_for_lmd, generate_forest_style])
    def test_solver_is_asked_once_per_sample_wrong_at_round_0(self, monkeypatch, generate):
        """At zero noise a round whose starting layout satisfies the prompt
        never reaches the builtin solver."""
        calls = []
        original = pipeline.suggest_layout

        def counting(expr, layout):
            calls.append(layout)
            return original(expr, layout)

        monkeypatch.setattr(pipeline, "suggest_layout", counting)
        cfg = RunConfig(dataset_path="unused", rounds=1)
        samples, _ = apply_corruption(generate(40, seed=78), fraction=0.8, seed=78)
        wrong = 0
        for sample in samples:
            calls.clear()
            trajectory = run_sample(sample, cfg)
            assert trajectory.error is None, trajectory.error
            wrong += not trajectory.correct_at(0)
            assert len(calls) == (0 if trajectory.correct_at(0) else 1)
        assert wrong == 32

    def test_noisy_rounds_ask_the_solver_only_about_failing_layouts(self, monkeypatch):
        received = []
        original = pipeline.suggest_layout

        def recording(expr, layout):
            received.append(layout)
            return original(expr, layout)

        monkeypatch.setattr(pipeline, "suggest_layout", recording)
        noise = PerceptionConfig(
            bbox_jitter_sigma=0.02, depth_sigma=0.02, facing_flip_rate=0.05,
            dropout_rate=0.05, duplicate_rate=0.05,
        )
        cfg = RunConfig(dataset_path="unused", rounds=3, perception=noise)
        samples, _ = apply_corruption(generate_for_lmd(40, seed=78), fraction=0.8, seed=78)
        asked = 0
        for sample in samples:
            received.clear()
            run_sample(sample, cfg)
            assert all(not evaluate(sample.annotation, layout).correct for layout in received)
            asked += len(received)
        # most noisy rounds start from a layout that already satisfies the prompt
        assert 0 < asked < len(samples) * cfg.rounds

    def test_rounds_zero_is_pure_evaluation(self):
        sample = generate_for_lmd(1, seed=5)[0]
        cfg = RunConfig(dataset_path="unused", rounds=0)
        trajectory = run_sample(sample, cfg)
        assert len(trajectory.rounds) == 1
        assert trajectory.rounds[0].round_index == 0


class TestBatchRuns:
    def test_round0_accuracy_equals_design_fraction(self, corrupted_dataset):
        path, _ = corrupted_dataset
        report = run_batch(RunConfig(dataset_path=path, rounds=1))
        assert report.accuracy[0] == pytest.approx(0.2)
        assert report.accuracy[1] == 1.0

    def test_category_histogram_matches_ledger(self, corrupted_dataset):
        path, ledger = corrupted_dataset
        report = run_batch(RunConfig(dataset_path=path, rounds=0))
        want = {}
        for inj in ledger:
            want[inj.category.value] = want.get(inj.category.value, 0) + 1
        assert dict(report.categories[0]) == want

    def test_parallel_run_matches_sequential(self, corrupted_dataset):
        path, _ = corrupted_dataset
        sequential = run_batch(RunConfig(dataset_path=path, rounds=1))
        parallel = run_batch(RunConfig(dataset_path=path, rounds=1, workers=4))
        assert parallel == sequential

    def test_split_accuracies_cover_both_perspectives(self, corrupted_dataset):
        path, _ = corrupted_dataset
        report = run_batch(RunConfig(dataset_path=path, rounds=0))
        assert report.relative_accuracy[0] is not None
        assert report.intrinsic_accuracy[0] is not None
        expected = (report.relative_accuracy[0] + report.intrinsic_accuracy[0]) / 2
        assert report.average_accuracy[0] == pytest.approx(expected)

    def test_deterministic_reports(self, corrupted_dataset, tmp_path):
        path, _ = corrupted_dataset
        p1, p2 = str(tmp_path / "r1.ndjson"), str(tmp_path / "r2.ndjson")
        run_batch(RunConfig(dataset_path=path, rounds=1, report_path=p1))
        run_batch(RunConfig(dataset_path=path, rounds=1, report_path=p2))
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read()

    def test_report_records_shape(self, corrupted_dataset, tmp_path):
        path, _ = corrupted_dataset
        report_path = str(tmp_path / "report.ndjson")
        report = run_batch(
            RunConfig(dataset_path=path, rounds=1, report_path=report_path)
        )
        with open(report_path, encoding="utf-8") as f:
            lines = [json.loads(l) for l in f]
        assert len(lines) == len(report.trajectories) + 1
        summary = lines[-1]
        assert summary["summary"] is True
        assert summary["accuracy_by_round"] == list(report.accuracy)
        body = lines[0]
        assert set(body) == {"id", "split", "source", "error", "rounds"}
        for r in body["rounds"]:
            assert set(r) == {"round", "correct", "failures", "actions"}


class TestWorkerPool:
    """``workers > 1``: chunks of dataset lines decoded and run in a process pool."""

    NOISE = PerceptionConfig(
        bbox_jitter_sigma=0.02, depth_sigma=0.02, facing_flip_rate=0.05,
        dropout_rate=0.05, duplicate_rate=0.05,
    )

    def test_noisy_rounds_match_sequential(self, corrupted_dataset):
        path, _ = corrupted_dataset
        serial = RunConfig(dataset_path=path, rounds=3, perception=self.NOISE, seed=78)
        sequential = run_batch(serial)
        assert any(t.error for t in sequential.trajectories)
        assert run_batch(replace(serial, workers=2)) == sequential

    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("fault", ["invalid json", "null", "missing fields", "mismatch"])
    def test_bad_record_in_later_chunk_matches_serial_error(self, tmp_path, workers, fault):
        samples = generate_for_lmd(40, seed=78)
        records = [sample_to_record(s) for s in samples]
        lines = [json.dumps(r, sort_keys=True) for r in records]
        if fault == "invalid json":
            lines[30] = lines[30][:-1]
        elif fault == "null":
            lines[30] = "null"
        elif fault == "missing fields":
            del records[30]["annotation"]
            lines[30] = json.dumps(records[30])
        else:
            records[30]["prompt"] = next(
                r["prompt"] for r in records if r["prompt"] != records[30]["prompt"]
            )
            lines[30] = json.dumps(records[30])
        path = tmp_path / "bench.ndjson"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DatasetError) as serial:
            run_batch(RunConfig(dataset_path=str(path)))
        with pytest.raises(DatasetError) as pooled:
            run_batch(RunConfig(dataset_path=str(path), workers=workers))
        assert serial.value.line == pooled.value.line == 31
        assert str(pooled.value) == str(serial.value)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_earliest_bad_line_wins(self, tmp_path, workers):
        lines = [json.dumps(sample_to_record(s)) for s in generate_for_lmd(40, seed=78)]
        lines[4] = "null"
        lines[30] = lines[30][:-1]
        path = tmp_path / "bench.ndjson"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DatasetError) as err:
            run_batch(RunConfig(dataset_path=str(path), workers=workers))
        assert err.value.line == 5

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_non_utf8_line_is_dataset_error(self, tmp_path, workers):
        lines = [json.dumps(sample_to_record(s)).encode() for s in generate_for_lmd(40, seed=78)]
        lines[30] = b"\xff\xfe{}"
        path = tmp_path / "bench.ndjson"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(DatasetError) as err:
            run_batch(RunConfig(dataset_path=str(path), workers=workers))
        assert err.value.line == 31
        assert "not UTF-8" in str(err.value)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_earlier_bad_record_wins_over_a_later_non_utf8_line(self, tmp_path, workers):
        lines = [json.dumps(sample_to_record(s)).encode() for s in generate_for_lmd(40, seed=78)]
        lines[4] = b"null"
        lines[30] = b"\xff\xfe{}"
        path = tmp_path / "bench.ndjson"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(DatasetError) as err:
            run_batch(RunConfig(dataset_path=str(path), workers=workers))
        assert err.value.line == 5

    def test_pool_is_never_larger_than_the_chunk_count(self, tmp_path, monkeypatch):
        asked = []

        class Recording(pipeline.ProcessPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                asked.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(pipeline, "ProcessPoolExecutor", Recording)
        path = _dataset(tmp_path, generate_for_lmd(3, seed=78))
        pooled = run_batch(RunConfig(dataset_path=path, rounds=1, workers=8))
        assert asked and all(n <= 3 for n in asked)
        assert pooled == run_batch(RunConfig(dataset_path=path, rounds=1))

        asked.clear()
        empty = _dataset(tmp_path, [], name="empty.ndjson")
        report = run_batch(RunConfig(dataset_path=empty, rounds=1, workers=8))
        assert asked == []
        assert report == run_batch(RunConfig(dataset_path=empty, rounds=1))

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork", reason="needs forked workers"
    )
    def test_workers_call_run_sample_through_the_module(self, corrupted_dataset, monkeypatch):
        path, _ = corrupted_dataset
        original = pipeline.run_sample

        def marked(sample, cfg, session=None):
            return replace(original(sample, cfg, session), error="seen in worker")

        monkeypatch.setattr(pipeline, "run_sample", marked)
        report = run_batch(RunConfig(dataset_path=path, rounds=0, workers=2))
        assert {t.error for t in report.trajectories} == {"seen in worker"}


class TestNoisyRuns:
    def test_every_round_improves_on_round_zero_with_noise(self, tmp_path):
        """Under noise a later round may lose a little to the round before
        it (a jittered pass can misread a repaired scene), so the loop keeps
        only this: every corrected round beats the uncorrected one."""
        noise = PerceptionConfig(bbox_jitter_sigma=0.01, depth_sigma=0.0)
        configs = [
            (generate, seed)
            for generate in (generate_for_lmd, generate_forest_style)
            for seed in range(1, 21)
        ] + [(generate_forest_style, 78)]
        not_better = []
        for generate, seed in configs:
            corrupted, _ = apply_corruption(generate(30, seed=seed), fraction=0.8, seed=seed)
            path = _dataset(tmp_path, corrupted)
            accuracy = run_batch(
                RunConfig(dataset_path=path, rounds=3, perception=noise, seed=seed)
            ).accuracy
            if not all(later > accuracy[0] for later in accuracy[1:]):
                not_better.append((generate.__name__, seed, accuracy))
        assert not_better == []

    def test_heavy_dropout_errors_are_contained(self, tmp_path):
        samples = generate_for_lmd(10, seed=78)
        path = _dataset(tmp_path, samples)
        noise = PerceptionConfig(dropout_rate=0.9)
        report = run_batch(
            RunConfig(dataset_path=path, rounds=1, perception=noise, seed=78)
        )
        # dropping the relatum makes conversion impossible for intrinsic
        # samples; those must surface as per-sample errors, not crashes
        assert len(report.trajectories) == 10
        assert report.accuracy[0] < 1.0


def _record_requests(monkeypatch):
    """Wrap ``pipeline.make_interpreter``; returns the list that gets one
    (prompt, annotation, perceived layout) per request the loop sends."""
    serialized, sent = [], []
    serialize, make = pipeline.serialize_wire_layout, pipeline.make_interpreter

    def recording_serialize(layout):
        serialized.append(layout)
        return serialize(layout)

    def recording_make(endpoint, *args, **kwargs):
        session = make(endpoint, *args, **kwargs)
        request = session.request

        def recorded(prompt, layout_wire, round_index, annotation=None):
            sent.append((prompt, annotation, serialized[-1]))
            return request(prompt, layout_wire, round_index, annotation=annotation)

        session.request = recorded
        return session

    monkeypatch.setattr(pipeline, "serialize_wire_layout", recording_serialize)
    monkeypatch.setattr(pipeline, "make_interpreter", recording_make)
    return sent


class TestExternalSolver:
    def test_external_echo_leaves_accuracy_flat(self, corrupted_dataset):
        path, _ = corrupted_dataset
        cfg = RunConfig(
            dataset_path=path,
            rounds=1,
            solver="external",
            endpoint=f"{sys.executable} {FAKE} echo",
        )
        report = run_batch(cfg)
        assert report.accuracy[0] == pytest.approx(0.2)
        assert report.accuracy[1] == pytest.approx(0.2)

    def test_external_solve_mode_reaches_full_accuracy(self, corrupted_dataset):
        path, _ = corrupted_dataset
        cfg = RunConfig(
            dataset_path=path,
            rounds=1,
            solver="external",
            endpoint=f"{sys.executable} {FAKE} solve",
        )
        report = run_batch(cfg)
        assert report.accuracy[1] == 1.0

    @pytest.mark.parametrize("source", ["for-lmd", "forest-style"])
    def test_external_verdicts_match_builtin_without_reparsing(self, tmp_path, monkeypatch, source):
        """Replies are validated against the sample's parsed annotation, so
        the interpreter module never parses a dataset prompt again."""
        generate = generate_for_lmd if source == "for-lmd" else generate_forest_style
        samples, _ = apply_corruption(generate(30, seed=101), fraction=0.8, seed=101)
        path = _dataset(tmp_path, samples)
        builtin = run_batch(RunConfig(dataset_path=path, rounds=1))

        def reparse(prompt):
            raise AssertionError(f"prompt parsed again: {prompt!r}")

        monkeypatch.setattr("scenefix.interpreter.parse_expression", reparse)
        external = run_batch(RunConfig(
            dataset_path=path, rounds=1, solver="external",
            endpoint=f"{sys.executable} {FAKE} solve",
        ))
        assert _verdicts(external) == _verdicts(builtin)
        assert external.accuracy[1] == 1.0

    def test_external_malformed_marks_samples_errored(self, tmp_path):
        # every sample misaligned, so every sample is asked
        samples, _ = apply_corruption(generate_for_lmd(4, seed=78), fraction=1.0, seed=78)
        path = _dataset(tmp_path, samples)
        cfg = RunConfig(
            dataset_path=path,
            rounds=1,
            solver="external",
            endpoint=f"{sys.executable} {FAKE} malformed",
        )
        report = run_batch(cfg)
        assert all(t.error is not None for t in report.trajectories)
        assert all("ProtocolError" in t.error for t in report.trajectories)
        assert report.accuracy[1] == 0.0

    def test_settled_samples_send_no_request(self, tmp_path, monkeypatch):
        sent = _record_requests(monkeypatch)
        path = _dataset(tmp_path, generate_for_lmd(4, seed=78))
        report = run_batch(RunConfig(
            dataset_path=path, rounds=1, solver="external",
            endpoint=f"{sys.executable} {FAKE} malformed",
        ))
        assert sent == []
        assert [t.error for t in report.trajectories] == [None] * 4
        assert report.accuracy == (1.0, 1.0)

    def test_only_misaligned_rounds_are_asked(self, corrupted_dataset, monkeypatch):
        path, _ = corrupted_dataset
        sent = _record_requests(monkeypatch)
        solve = f"{sys.executable} {FAKE} solve"
        report = run_batch(
            RunConfig(dataset_path=path, rounds=1, solver="external", endpoint=solve)
        )
        prompts = {s.id: s.prompt for s in read_dataset(path)}
        wrong = [prompts[t.sample_id] for t in report.trajectories if not t.correct_at(0)]
        assert len(wrong) == 32
        assert sorted(prompt for prompt, _, _ in sent) == sorted(wrong)

        sent.clear()
        run_batch(RunConfig(
            dataset_path=path, rounds=3, solver="external", endpoint=solve,
            perception=VALUE_NOISE, seed=78,
        ))
        assert len(sent) >= len(wrong)
        for _, expr, perceived in sent:
            assert not evaluate(expr, perceived).correct

    def test_a_round_sends_the_layout_its_boundary_perceived(self, corrupted_dataset, monkeypatch):
        path, _ = corrupted_dataset
        boundary = _record_boundaries(monkeypatch)
        rounds, make = [], pipeline.make_interpreter

        def recording_make(endpoint, *args, **kwargs):
            session = make(endpoint, *args, **kwargs)
            request = session.request

            def recorded(prompt, layout_wire, round_index, annotation=None):
                assert layout_wire == serialize_wire_layout(boundary())
                rounds.append(round_index)
                return request(prompt, layout_wire, round_index, annotation=annotation)

            session.request = recorded
            return session

        monkeypatch.setattr(pipeline, "make_interpreter", recording_make)
        report = run_batch(RunConfig(
            dataset_path=path, rounds=3, solver="external",
            endpoint=f"{sys.executable} {FAKE} solve", perception=VALUE_NOISE, seed=78,
        ))
        assert [t.error for t in report.trajectories] == [None] * 40
        assert rounds and max(rounds) > 1

    def test_echo_under_value_noise_makes_no_edit(self, tmp_path, monkeypatch):
        """The wire rounds to 3 decimals; a layout sent back unchanged must
        not turn the rounding into edits of the noisy perceived values."""
        # uncorrupted, so echo's reply passes validation when noise asks
        path = _dataset(tmp_path, generate_for_lmd(40, seed=78))
        sent = _record_requests(monkeypatch)
        report = run_batch(RunConfig(
            dataset_path=path, rounds=3, solver="external",
            endpoint=f"{sys.executable} {FAKE} echo", perception=VALUE_NOISE, seed=78,
        ))
        assert sent
        assert [t.error for t in report.trajectories] == [None] * 40
        assert [o.actions for t in report.trajectories for o in t.rounds] == [()] * (40 * 4)


class TestReportBuilding:
    def test_empty_round_has_empty_categories(self):
        report = build_report((), rounds=0)
        assert report.accuracy == (0.0,)
        assert report.categories == ((),)

    def test_write_report_round_trips_json(self, tmp_path):
        samples = generate_for_lmd(3, seed=78)
        trajectories = tuple(
            run_sample(s, RunConfig(dataset_path="unused", rounds=1))
            for s in samples
        )
        report = build_report(trajectories, rounds=1)
        path = str(tmp_path / "report.ndjson")
        write_report(report, path)
        with open(path, encoding="utf-8") as f:
            lines = [json.loads(l) for l in f]
        assert lines[-1]["samples"] == 3
