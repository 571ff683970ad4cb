"""Golden outputs: byte-exact datasets, injection ledgers and run reports.

Two zero-noise configurations run through the command-line entry point;
the sha256 of each written file is pinned. Any change to generation,
corruption, conversion, solving, editing, evaluation or wire text that
alters a single byte trips this test. Zero noise keeps the digests free
of numpy rounding, because perception snaps depth reads to the stored
value.

The for-lmd report is also pinned over three zero-noise rounds, run
serially and with two workers: only there does a round start from the
layout that the previous round's closing perception pass produced.

One noisy configuration is pinned as well, through a float-free
projection of its report: per sample the id, the error, each round's
verdict and failure categories, and each action's kind and object id.
All five perception noise knobs are on, so any change in the order of
the noise draws moves at least one verdict or action and trips the
digest, while numpy's last-bit rounding of depth means cannot.

Regenerate the digests (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from scenefix.cli import main

SAMPLES = 300
SEED = 78

GOLDEN = {
    "for-lmd": {
        "dataset": "f4c52b4d07da6a96a955653ca490e0fc759528e2af7cc72576705c2dafe5df40",
        "injections": "bb185c0ee7a5e0e7eb18db11ee047cbdbb93e902369842efc79774f27d3746b1",
        "report": "64af99912b0b255f1fba6579af8f644c164e29eb6d5977831d41b584a527efbe",
    },
    "forest-style": {
        "dataset": "69ad1b4ac6cc89dfffa979afe6737e6739605a6873c7839019ac1bda9dc1c6e4",
        "injections": "9bf3f88ca70324ba5534a8b5fdde83325fbc8fc45ff745e3d55fc976c5a6c556",
        "report": "1c5b47f8728722718f5e9619e877593b568a9c84c8f5f012358a24e0090e2178",
    },
}

MULTI_ROUNDS = 3
MULTI_ROUND_REPORT = "fac8dadfda5d102f5de9c6ff2ca00de96b38b77a298f4732720ccf615c2d722a"

NOISY_ROUNDS = 3
NOISE_FLAGS = [
    "--perception-bbox-jitter", "0.02", "--perception-depth-sigma", "0.02",
    "--perception-facing-flip", "0.05", "--perception-dropout", "0.05",
    "--perception-duplicate", "0.05",
]
NOISY_DECISIONS = "1aab7f4ce0c0ae635b69c693250583a646295b2e5c34ee2243407d270a84fe19"


def _digests(source: str, workdir: Path) -> dict[str, str]:
    paths = {name: workdir / f"{name}.ndjson" for name in ("dataset", "injections", "report")}
    assert main([
        "generate", "--source", source, "--n", str(SAMPLES), "--seed", str(SEED),
        "--out", str(paths["dataset"]), "--injections", str(paths["injections"]),
    ]) == 0
    assert main([
        "run", "--dataset", str(paths["dataset"]), "--rounds", "1",
        "--seed", str(SEED), "--report", str(paths["report"]),
    ]) == 0
    return {name: hashlib.sha256(p.read_bytes()).hexdigest() for name, p in paths.items()}


def _multi_round_digest(workdir: Path, workers: int) -> str:
    dataset, report = workdir / "dataset.ndjson", workdir / "report.ndjson"
    assert main([
        "generate", "--source", "for-lmd", "--n", str(SAMPLES), "--seed", str(SEED),
        "--out", str(dataset),
    ]) == 0
    assert main([
        "run", "--dataset", str(dataset), "--rounds", str(MULTI_ROUNDS),
        "--seed", str(SEED), "--report", str(report), "--workers", str(workers),
    ]) == 0
    return hashlib.sha256(report.read_bytes()).hexdigest()


def _decisions(record: dict) -> dict:
    return {
        "id": record["id"],
        "error": record["error"],
        "rounds": [
            {
                "correct": r["correct"],
                "failures": r["failures"],
                "actions": [(a["kind"], a["object_id"]) for a in r["actions"]],
            }
            for r in record["rounds"]
        ],
    }


def _noisy_decisions_digest(workdir: Path) -> str:
    dataset, report = workdir / "dataset.ndjson", workdir / "report.ndjson"
    assert main([
        "generate", "--source", "for-lmd", "--n", str(SAMPLES), "--seed", str(SEED),
        "--out", str(dataset),
    ]) == 0
    assert main([
        "run", "--dataset", str(dataset), "--rounds", str(NOISY_ROUNDS),
        "--seed", str(SEED), "--report", str(report), *NOISE_FLAGS,
    ]) == 0
    records = [json.loads(line) for line in report.read_text(encoding="utf-8").splitlines()]
    projection = [_decisions(r) for r in records if not r.get("summary")]
    assert len(projection) == SAMPLES
    text = json.dumps(projection, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("source", sorted(GOLDEN))
def test_outputs_are_byte_identical(source, tmp_path):
    assert _digests(source, tmp_path) == GOLDEN[source]


@pytest.mark.parametrize("workers", [1, 2])
def test_zero_noise_multi_round_report_is_pinned(workers, tmp_path):
    assert _multi_round_digest(tmp_path, workers) == MULTI_ROUND_REPORT


def test_noisy_decisions_are_pinned(tmp_path):
    assert _noisy_decisions_digest(tmp_path) == NOISY_DECISIONS


if __name__ == "__main__":
    for source in sorted(GOLDEN):
        with tempfile.TemporaryDirectory() as tmp:
            digests = _digests(source, Path(tmp))
        print(f'    "{source}": {{', file=sys.stderr)
        for name, digest in digests.items():
            print(f'        "{name}": "{digest}",', file=sys.stderr)
        print("    },", file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        print(f'MULTI_ROUND_REPORT = "{_multi_round_digest(Path(tmp), 1)}"', file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        print(f'NOISY_DECISIONS = "{_noisy_decisions_digest(Path(tmp))}"', file=sys.stderr)
