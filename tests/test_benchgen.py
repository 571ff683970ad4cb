"""Benchmark generation and controlled corruption."""

from __future__ import annotations

import pytest

from scenefix import (
    CorruptionConfig,
    ErrorCategory,
    FacingDirection,
    Intrinsic,
    Relation,
    apply_corruption,
    corrupt_layout,
    corrupt_samples,
    evaluate,
    generate_for_lmd,
    generate_forest_style,
    parse_expression,
)
from scenefix.benchgen import CORRUPTION_KINDS
from scenefix.scene import BUCKETS, bbox_iou


class TestForLmdGeneration:
    def test_count_and_ids(self):
        samples = generate_for_lmd(20, seed=78)
        assert len(samples) == 20
        assert len({s.id for s in samples}) == 20
        assert all(s.source == "for-lmd" for s in samples)

    def test_prompts_round_trip(self):
        for s in generate_for_lmd(60, seed=78):
            assert parse_expression(s.prompt) == s.annotation

    def test_gold_layouts_satisfy_prompts(self):
        for s in generate_for_lmd(60, seed=78):
            assert evaluate(s.annotation, s.gold_layout).correct
            assert s.initial_layout == s.gold_layout

    def test_two_clauses_three_mentions(self):
        for s in generate_for_lmd(40, seed=1):
            assert len(s.annotation.relations) == 2
            assert len(s.annotation.mentions) == 3

    def test_both_perspectives_present(self):
        samples = generate_for_lmd(100, seed=78, intrinsic_ratio=0.5)
        splits = {s.split for s in samples}
        assert splits == {"relative", "intrinsic"}
        for s in samples:
            first = s.annotation.relations[0]
            is_intrinsic = isinstance(first.perspective, Intrinsic)
            assert s.split == ("intrinsic" if is_intrinsic else "relative")

    def test_intrinsic_ratio_extremes(self):
        all_rel = generate_for_lmd(30, seed=2, intrinsic_ratio=0.0)
        all_int = generate_for_lmd(30, seed=2, intrinsic_ratio=1.0)
        assert all(s.split == "relative" for s in all_rel)
        assert all(s.split == "intrinsic" for s in all_int)

    @pytest.mark.parametrize("ratio", [-0.1, 1.5, 7.0, float("nan")])
    def test_intrinsic_ratio_outside_unit_interval_rejected(self, ratio):
        with pytest.raises(ValueError, match="intrinsic_ratio"):
            generate_for_lmd(5, seed=2, intrinsic_ratio=ratio)

    def test_deterministic_for_fixed_seed(self):
        assert generate_for_lmd(25, seed=9) == generate_for_lmd(25, seed=9)
        assert generate_for_lmd(25, seed=9) != generate_for_lmd(25, seed=10)

    def test_clause_axes_are_orthogonal(self):
        for s in generate_for_lmd(50, seed=4):
            r1, r2 = s.annotation.relations
            cam1 = _camera_relation_of(r1, s)
            cam2 = _camera_relation_of(r2, s)
            assert cam1.horizontal != cam2.horizontal

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            generate_for_lmd(0)


def _camera_relation_of(clause, sample):
    from scenefix.benchgen import _converted

    return _converted(clause, sample.annotation, sample.gold_layout)


class TestForestGeneration:
    def test_single_clause_two_mentions(self):
        for s in generate_forest_style(30, seed=78):
            assert len(s.annotation.relations) == 1
            assert len(s.annotation.mentions) == 2
            assert len(s.annotation.facings) == 1

    def test_asserted_buckets_cycle_through_all_eight(self):
        samples = generate_forest_style(16, seed=78)
        seen = {s.annotation.facings[0].facing for s in samples}
        assert seen == set(BUCKETS)

    def test_prompts_round_trip(self):
        for s in generate_forest_style(40, seed=78):
            assert parse_expression(s.prompt) == s.annotation
            assert evaluate(s.annotation, s.gold_layout).correct
            assert s.source == "forest-style"


class TestCorruptionConfig:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            CorruptionConfig(lr_swap=1.2)

    def test_rate_lookup(self):
        cfg = CorruptionConfig(depth_swap=0.3)
        assert cfg.rate_for("depth-swap") == 0.3
        assert cfg.rate_for("lr-swap") == 0.0


class TestBernoulliCorruption:
    def test_zero_rates_change_nothing(self):
        samples = generate_for_lmd(30, seed=78)
        out, ledger = corrupt_samples(samples, CorruptionConfig(), seed=78)
        assert out == samples
        assert ledger == ()

    def test_injections_break_their_samples(self):
        samples = generate_for_lmd(40, seed=78)
        cfg = CorruptionConfig(lr_swap=1.0)
        out, ledger = corrupt_samples(samples, cfg, seed=78)
        assert ledger
        broken = {i.sample_id for i in ledger}
        for s in out:
            result = evaluate(s.annotation, s.initial_layout)
            assert result.correct == (s.id not in broken)

    def test_gold_layout_never_touched(self):
        samples = generate_for_lmd(20, seed=78)
        out, _ = corrupt_samples(samples, CorruptionConfig(drop=1.0), seed=78)
        for before, after in zip(samples, out):
            assert after.gold_layout == before.gold_layout

    def test_deterministic(self):
        samples = generate_for_lmd(20, seed=78)
        cfg = CorruptionConfig(lr_swap=0.5, duplicate=0.5)
        first = corrupt_samples(samples, cfg, seed=3)
        second = corrupt_samples(samples, cfg, seed=3)
        assert first == second


class TestQuotaCorruption:
    def test_exact_fraction_of_samples_fail(self):
        samples = generate_for_lmd(50, seed=78)
        out, ledger = apply_corruption(samples, fraction=0.8, seed=78)
        failing = [
            s for s in out if not evaluate(s.annotation, s.initial_layout).correct
        ]
        assert len(failing) == 40
        assert len(ledger) == 40
        assert len({i.sample_id for i in ledger}) == 40

    def test_fraction_zero_is_identity(self):
        samples = generate_forest_style(20, seed=78)
        out, ledger = apply_corruption(samples, fraction=0.0, seed=78)
        assert out == samples
        assert ledger == ()

    def test_ledger_category_matches_failure(self):
        samples = generate_for_lmd(120, seed=78)
        out, ledger = apply_corruption(samples, fraction=1.0, seed=78)
        by_id = {s.id: s for s in out}
        for inj in ledger:
            result = evaluate(by_id[inj.sample_id].annotation,
                              by_id[inj.sample_id].initial_layout)
            assert inj.category in result.failures

    def test_single_kind_quota(self):
        samples = generate_for_lmd(60, seed=78)
        out, ledger = apply_corruption(
            samples, fraction=1.0, seed=78, kinds=("duplicate",)
        )
        assert all(i.kind == "duplicate" for i in ledger)
        assert all(
            i.category is ErrorCategory.MULTIPLE_OBJECT for i in ledger
        )

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            apply_corruption([], fraction=1.5)


class TestKindSemantics:
    # facing-flip's category depends on the branch taken (an asserted
    # facing breaks as orientation, an unasserted relatum flip breaks the
    # converted relation), so the ledger entry is the source of truth
    @pytest.mark.parametrize(
        "kind,categories",
        [
            ("lr-swap", {ErrorCategory.LEFT_RIGHT}),
            ("depth-swap", {ErrorCategory.FRONT_BACK}),
            (
                "facing-flip",
                {
                    ErrorCategory.ORIENTATION,
                    ErrorCategory.LEFT_RIGHT,
                    ErrorCategory.FRONT_BACK,
                },
            ),
            ("duplicate", {ErrorCategory.MULTIPLE_OBJECT}),
            ("drop", {ErrorCategory.MISSING_OBJECT}),
        ],
    )
    def test_each_kind_causes_exactly_its_ledgered_category(self, kind, categories):
        samples = generate_for_lmd(80, seed=78) + generate_forest_style(40, seed=79)
        rates = {kind.replace("-", "_"): 1.0}
        out, ledger = corrupt_samples(samples, CorruptionConfig(**rates), seed=7)
        assert ledger, f"{kind} never applied"
        by_id = {s.id: s for s in out}
        for inj in ledger:
            assert inj.kind == kind
            assert inj.category in categories
            s = by_id[inj.sample_id]
            result = evaluate(s.annotation, s.initial_layout)
            assert not result.correct
            assert result.failures == (inj.category,)

    def test_corrupted_layouts_stay_overlap_free(self):
        samples = generate_for_lmd(60, seed=78)
        out, _ = apply_corruption(samples, fraction=1.0, seed=78)
        for s in out:
            boxes = [o.bbox for o in s.initial_layout.objects]
            for i, a in enumerate(boxes):
                for b in boxes[i + 1 :]:
                    assert bbox_iou(a, b) <= 0.5

    def test_all_kinds_exercised_at_scale(self):
        samples = generate_for_lmd(200, seed=78)
        _, ledger = apply_corruption(samples, fraction=0.8, seed=78)
        assert {i.kind for i in ledger} == set(CORRUPTION_KINDS)
        assert {i.category for i in ledger} == set(ErrorCategory)
