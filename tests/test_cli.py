"""Command-line interface behavior and exit codes."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from scenefix import (
    BBox, benchgen, parse_wire_layout, pipeline, read_dataset, serialize_wire_layout,
)
from scenefix.cli import main


FAKE = str(Path(__file__).parent / "fake_interpreter.py")


def _refuse(*args, **kwargs):
    raise AssertionError("reached the work a bad output path should have stopped")


def _bad_output_paths(tmp_path):
    """A path in a directory that does not exist, and an existing directory."""
    return [str(tmp_path / "missing" / "out.ndjson"), str(tmp_path) + "/"]


class TestGenerate:
    def test_writes_dataset_and_ledger(self, tmp_path, capsys):
        out = str(tmp_path / "bench.ndjson")
        ledger = str(tmp_path / "injections.ndjson")
        code = main([
            "generate", "--source", "for-lmd", "--n", "10", "--seed", "78",
            "--out", out, "--injections", ledger,
        ])
        assert code == 0
        assert "wrote 10 samples" in capsys.readouterr().out
        samples = read_dataset(out)
        assert len(samples) == 10
        with open(ledger, encoding="utf-8") as f:
            entries = [json.loads(l) for l in f]
        assert len(entries) == 8  # 0.8 default corruption fraction
        assert all(
            set(e) == {"sample_id", "kind", "category", "detail"} for e in entries
        )

    def test_corruption_can_be_disabled(self, tmp_path, capsys):
        out = str(tmp_path / "clean.ndjson")
        code = main([
            "generate", "--source", "forest-style", "--n", "5",
            "--corrupt-fraction", "0", "--out", out,
        ])
        assert code == 0
        assert "(0 injections)" in capsys.readouterr().out
        assert all(s.source == "forest-style" for s in read_dataset(out))

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--corrupt-fraction", "nan"),
            ("--corrupt-fraction", "-0.5"),
            ("--intrinsic-ratio", "7"),
            ("--intrinsic-ratio", "nan"),
        ],
    )
    def test_out_of_range_share_exits_2_and_writes_nothing(self, tmp_path, capsys, flag, value):
        out = tmp_path / "x.ndjson"
        code = main(["generate", "--n", "5", flag, value, "--out", str(out)])
        assert code == 2
        assert "must be in [0, 1]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["7", "0.5"])
    def test_intrinsic_ratio_is_rejected_for_forest_style(self, tmp_path, capsys, value):
        out = tmp_path / "x.ndjson"
        code = main([
            "generate", "--source", "forest-style", "--n", "5",
            "--intrinsic-ratio", value, "--out", str(out),
        ])
        assert code == 2
        assert "--intrinsic-ratio applies to --source for-lmd only" in capsys.readouterr().err
        assert not out.exists()

    def test_for_lmd_intrinsic_ratio_defaults_to_half(self, tmp_path):
        default, half = tmp_path / "default.ndjson", tmp_path / "half.ndjson"
        assert main(["generate", "--n", "20", "--out", str(default)]) == 0
        assert main(["generate", "--n", "20", "--intrinsic-ratio", "0.5", "--out", str(half)]) == 0
        assert default.read_bytes() == half.read_bytes()

    @pytest.mark.parametrize("flag", ["--out", "--injections"])
    @pytest.mark.parametrize("which", [0, 1], ids=["missing-dir", "is-dir"])
    def test_bad_output_path_exits_2_before_generating(self, tmp_path, capsys, monkeypatch, flag, which):
        monkeypatch.setattr(benchgen, "generate_for_lmd", _refuse)
        paths = {"--out": str(tmp_path / "d.ndjson"), "--injections": str(tmp_path / "i.ndjson")}
        paths[flag] = _bad_output_paths(tmp_path)[which]
        code = main(["generate", "--n", "5", "--out", paths["--out"],
                     "--injections", paths["--injections"]])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"invalid arguments: {flag} ") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == []

    def test_ledger_naming_the_dataset_exits_2_before_generating(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(benchgen, "generate_for_lmd", _refuse)
        out = str(tmp_path / "d.ndjson")
        same = str(tmp_path / "sub" / ".." / "d.ndjson")  # another spelling of the same file
        (tmp_path / "sub").mkdir()
        assert main(["generate", "--n", "5", "--out", out, "--injections", same]) == 2
        err = capsys.readouterr().err
        assert err == f"invalid arguments: --injections {same!r} names the same file as --out {out!r}\n"
        assert not (tmp_path / "d.ndjson").exists()

    def test_empty_out_path_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(benchgen, "generate_for_lmd", _refuse)
        assert main(["generate", "--n", "5", "--out", ""]) == 2
        assert capsys.readouterr().err == "invalid arguments: --out is empty\n"

    def test_bad_fraction_exits_2(self, tmp_path, capsys):
        code = main([
            "generate", "--n", "5", "--corrupt-fraction", "1.5",
            "--out", str(tmp_path / "x.ndjson"),
        ])
        assert code == 2
        assert "invalid arguments:" in capsys.readouterr().err


class TestEvaluate:
    def test_stored_layouts_and_summary(self, tmp_path, capsys):
        out = str(tmp_path / "bench.ndjson")
        main(["generate", "--n", "8", "--corrupt-fraction", "0.5", "--out", out])
        capsys.readouterr()
        assert main(["evaluate", "--dataset", out]) == 0
        lines = capsys.readouterr().out.splitlines()
        per_sample = [l for l in lines if l.startswith("for-lmd-")]
        assert len(per_sample) == 8
        assert sum("\tfail\t" in l for l in per_sample) == 4
        assert any(l.startswith("accuracy 0.500 (4/8)") for l in lines)

    def test_layout_overrides_replace_the_stored_layouts(self, tmp_path, capsys):
        out = str(tmp_path / "bench.ndjson")
        main(["generate", "--n", "4", "--corrupt-fraction", "1", "--out", out])
        samples = read_dataset(out)
        layouts = str(tmp_path / "layouts.ndjson")
        with open(layouts, "w", encoding="utf-8") as fh:
            for s in samples[:2]:
                record = {"id": s.id, "layout": serialize_wire_layout(s.gold_layout)}
                fh.write(json.dumps(record) + "\n")
        capsys.readouterr()
        assert main(["evaluate", "--dataset", out, "--layouts", layouts]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [l.split("\t")[1] for l in lines[:4]] == ["ok", "ok", "fail", "fail"]

    def test_unknown_layout_id_exits_1_before_scoring(self, tmp_path, capsys):
        out = str(tmp_path / "bench.ndjson")
        main(["generate", "--n", "3", "--out", out])
        sample = read_dataset(out)[0]
        layouts = str(tmp_path / "layouts.ndjson")
        with open(layouts, "w", encoding="utf-8") as fh:
            for sample_id in (sample.id, "no-such-sample"):
                record = {"id": sample_id, "layout": serialize_wire_layout(sample.gold_layout)}
                fh.write(json.dumps(record) + "\n")
        capsys.readouterr()
        assert main(["evaluate", "--dataset", out, "--layouts", layouts]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --layouts names ids the dataset lacks: no-such-sample\n"

    def test_repeated_layout_id_exits_1(self, tmp_path, capsys):
        out = str(tmp_path / "bench.ndjson")
        main(["generate", "--n", "3", "--out", out])
        sample = read_dataset(out)[0]
        layouts = str(tmp_path / "layouts.ndjson")
        record = json.dumps({"id": sample.id, "layout": serialize_wire_layout(sample.gold_layout)})
        Path(layouts).write_text(record + "\n" + record + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["evaluate", "--dataset", out, "--layouts", layouts]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "is repeated (line 2)" in captured.err

    def test_missing_dataset_exits_1(self, tmp_path, capsys):
        code = main(["evaluate", "--dataset", str(tmp_path / "absent.ndjson")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestRun:
    def test_prints_round_table(self, tmp_path, capsys):
        out = str(tmp_path / "bench.ndjson")
        report = str(tmp_path / "report.ndjson")
        main(["generate", "--n", "10", "--seed", "78", "--out", out])
        capsys.readouterr()
        code = main([
            "run", "--dataset", out, "--rounds", "1", "--report", report,
        ])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == [
            "round", "accuracy", "relative", "intrinsic", "average",
        ]
        assert lines[1].split()[0] == "0"
        assert lines[2].split()[:2] == ["1", "1.000"]
        with open(report, encoding="utf-8") as f:
            records = [json.loads(l) for l in f]
        assert records[-1]["summary"] is True

    @pytest.mark.parametrize("which", [0, 1], ids=["missing-dir", "is-dir"])
    def test_bad_report_path_exits_2_before_the_batch(self, tmp_path, capsys, monkeypatch, which):
        data = str(tmp_path / "bench.ndjson")
        main(["generate", "--n", "2", "--out", data])
        capsys.readouterr()
        monkeypatch.setattr(pipeline, "run_batch", _refuse)
        report = _bad_output_paths(tmp_path)[which]
        assert main(["run", "--dataset", data, "--report", report]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid arguments: --report ") and err.count("\n") == 1

    def test_report_naming_the_dataset_exits_2_before_the_batch(self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "e.ndjson"
        main(["generate", "--n", "2", "--out", str(data)])
        capsys.readouterr()
        before = data.read_bytes()
        monkeypatch.setattr(pipeline, "run_batch", _refuse)
        link = tmp_path / "link.ndjson"
        link.symlink_to(data)
        for report in (str(data), str(link)):
            assert main(["run", "--dataset", str(data), "--report", report]) == 2
            err = capsys.readouterr().err
            assert err == (
                f"invalid arguments: --report {report!r} names the same file as --dataset {str(data)!r}\n"
            )
        assert data.read_bytes() == before

    @pytest.mark.parametrize("which", [0, 1], ids=["missing-dir", "is-dir"])
    def test_bad_report_path_leaves_no_traceback(self, tmp_path, which):
        data = str(tmp_path / "bench.ndjson")
        main(["generate", "--n", "2", "--out", data])
        proc = subprocess.run(
            [sys.executable, "-m", "scenefix.cli", "run", "--dataset", data,
             "--report", _bad_output_paths(tmp_path)[which]],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("invalid arguments: --report ")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_prompt_with_unmentioned_anchor_exits_1(self, tmp_path, capsys):
        out = tmp_path / "bench.ndjson"
        main(["generate", "--n", "2", "--out", str(out)])
        capsys.readouterr()
        records = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
        records[1]["prompt"] = "A red cat is left of a dog from the cup's perspective."
        out.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        assert main(["run", "--dataset", str(out), "--rounds", "1"]) == 1
        assert "(line 2)" in capsys.readouterr().err

    def test_sub_pixel_initial_box_exits_1_before_any_sample_runs(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "bench.ndjson"
        main(["generate", "--n", "2", "--out", str(out)])
        capsys.readouterr()
        records = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
        initial = parse_wire_layout(records[1]["initial_layout"])
        first = initial.objects[0].replace(bbox=BBox(0.3, 0.521, 0.001, 0.001))
        records[1]["initial_layout"] = serialize_wire_layout(
            initial.with_objects((first, *initial.objects[1:]))
        )
        out.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        monkeypatch.setattr(pipeline, "run_sample", _refuse)
        assert main(["run", "--dataset", str(out), "--rounds", "1"]) == 1
        err = capsys.readouterr().err
        assert "covers no pixel center on a 64x64 grid (line 2)" in err

    def test_sub_pixel_replies_mark_samples_errored(self, tmp_path, capsys):
        data = str(tmp_path / "bench.ndjson")
        report = str(tmp_path / "report.ndjson")
        main(["generate", "--source", "forest-style", "--n", "20", "--seed", "78", "--out", data])
        capsys.readouterr()
        code = main([
            "run", "--dataset", data, "--rounds", "1", "--solver", "external",
            "--endpoint", f"{sys.executable} {FAKE} sub-pixel", "--report", report,
        ])
        assert code == 0
        with open(report, encoding="utf-8") as f:
            errors = [r["error"] for r in map(json.loads, f) if r.get("error")]
        assert errors and all(e.startswith("EmptyRegionError: box ") for e in errors)
        assert f"{len(errors)} sample(s) ended with an error status" in capsys.readouterr().out

    def test_non_utf8_dataset_exits_1(self, tmp_path, capsys):
        out = tmp_path / "bench.ndjson"
        main(["generate", "--n", "2", "--out", str(out)])
        capsys.readouterr()
        out.write_bytes(out.read_bytes() + b"\xff\xfe{}\n")
        assert main(["run", "--dataset", str(out), "--rounds", "1"]) == 1
        assert "(line 3)" in capsys.readouterr().err

    def test_invalid_rounds_exits_2(self, tmp_path, capsys):
        out = str(tmp_path / "bench.ndjson")
        main(["generate", "--n", "2", "--out", out])
        capsys.readouterr()
        code = main(["run", "--dataset", out, "--rounds", "99"])
        assert code == 2
        assert "invalid arguments:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--perception-bbox-jitter", "--perception-depth-sigma"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_noise_exits_2(self, tmp_path, capsys, flag, value):
        out = str(tmp_path / "bench.ndjson")
        main(["generate", "--n", "2", "--out", out])
        capsys.readouterr()
        assert main(["run", "--dataset", out, "--rounds", "1", flag, value]) == 2
        assert "must be finite and >= 0" in capsys.readouterr().err

    def test_external_without_endpoint_exits_2(self, tmp_path, capsys):
        out = str(tmp_path / "bench.ndjson")
        main(["generate", "--n", "2", "--out", out])
        capsys.readouterr()
        assert main(["run", "--dataset", out, "--solver", "external"]) == 2

    @pytest.mark.parametrize(
        "endpoint, code, message",
        [
            ("/nonexistent/interp", 1, "error: cannot start interpreter"),
            ("", 2, "invalid arguments: interpreter command line is empty"),
            ("   ", 2, "invalid arguments: interpreter command line is empty"),
        ],
    )
    def test_unusable_endpoint_is_a_typed_error(self, tmp_path, endpoint, code, message):
        out = str(tmp_path / "bench.ndjson")
        main(["generate", "--n", "2", "--out", out])
        proc = subprocess.run(
            [sys.executable, "-m", "scenefix.cli", "run", "--dataset", out,
             "--solver", "external", "--endpoint", endpoint],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == code, proc.stderr
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_bad_endpoint_is_reported_before_a_bad_dataset(self, tmp_path, capsys):
        out = tmp_path / "bench.ndjson"
        out.write_bytes(b"{not json\n")
        code = main(["run", "--dataset", str(out), "--solver", "external",
                     "--endpoint", "/nonexistent/interp"])
        assert code == 1
        assert "cannot start interpreter" in capsys.readouterr().err


class TestRulesAndOracle:
    def test_rules_json_is_complete(self, capsys):
        assert main(["rules", "--format", "json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 32
        assert records[0]["rule_id"] == "1a"

    def test_rules_table_lists_every_rule(self, capsys):
        assert main(["rules"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 33  # header + 32 rules
        assert lines[0].startswith("rule")

    def test_oracle_agrees(self, capsys):
        assert main(["oracle", "--scenes", "50", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "cardinal pairs: 16/16 agree" in out
        assert "random scenes:  50/50 agree" in out

    def test_negative_scene_count_exits_2_before_printing(self, capsys):
        assert main(["oracle", "--scenes", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "invalid arguments: scene count must be >= 0, got -3\n"

    def test_zero_scenes_checks_the_table_only(self, capsys):
        assert main(["oracle", "--scenes", "0"]) == 0
        out = capsys.readouterr().out
        assert "cardinal pairs: 16/16 agree" in out
        assert "random scenes:  0/0 agree" in out


def test_console_entry_point(tmp_path):
    out = str(tmp_path / "bench.ndjson")
    proc = subprocess.run(
        [sys.executable, "-m", "scenefix.cli", "generate", "--n", "3", "--out", out],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "wrote 3 samples" in proc.stdout
