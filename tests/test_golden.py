"""The seed-42 pipeline's outputs, pinned by their sha256 digests.

One small `gen-data → train → decode (both modes) → eval → timeline` run,
from inside a temporary directory so every config.json echoes the same
relative paths, is compared file by file with tests/golden_seed42.json. A
refactor must leave every digest as it is; a change meant to alter an output
updates the table and names the file and the reason in CHANGES.md.

`model.json` is the one file held to a tolerance rather than a digest: it
prints every weight to 17 digits, and the last bits of a trained weight
depend on the BLAS kernel's summation order. Its table entry holds each
weight's sum and sum of squares instead. Every other file either comes from
elementwise numpy on fixed rng streams or rounds its numbers (loss_log.tsv
and timeline.tsv to 6 decimals, report.json to 4), so a different BLAS
cannot move its bytes. The emission file that the last two commands read is
the test's input, written from the model, and is not in the table.

    PYTHONPATH=src python tests/test_golden.py --write   # rewrite the table from this tree
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from pathlib import Path

from ctctag import load_model, read_feature_file, write_emission_file
from ctctag.cli import main
from ctctag.formats import EMISSION_KIND_PROBS

GOLDEN = Path(__file__).with_name("golden_seed42.json")
EMISSIONS = "emissions/utt_00250.ctcl"
WEIGHT_TOLERANCE = 1e-9  # on each weight's sum and sum of squares

COMMANDS = [
    "gen-data --seed 42 --n-utterances 300 --split 250 --out data",
    "train --epochs 2 --manifest data/manifest_train.jsonl --vocab data/vocab.json --out model",
    "decode --model model/model.json --manifest data/manifest_heldout.jsonl "
    "--vocab data/vocab.json --out decode",
    "eval --ref data/manifest_heldout.jsonl --hyp decode/hyp_manifest.jsonl "
    "--vocab data/vocab.json --out scores",
    f"decode --emissions {EMISSIONS} --vocab data/vocab.json --out decode_emissions",
    f"timeline --emissions {EMISSIONS} --vocab data/vocab.json --out timeline",
]


def run_pipeline() -> dict:
    """Run COMMANDS in the current directory; returns relative path → entry."""
    for command in COMMANDS:
        if command.startswith("decode --emissions"):  # the model's emissions for one utterance
            os.mkdir("emissions")
            probs = load_model("model/model.json").predict(
                read_feature_file("data/features/utt_00250.ctcf")).probs
            write_emission_file(EMISSIONS, probs, EMISSION_KIND_PROBS)
        assert main(command.split()) == 0, command
    entries = {
        path.as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(Path(".").rglob("*"))
        if path.is_file() and path.parent.name != "emissions"
    }
    entries["model/model.json"] = weight_moments("model/model.json")
    return entries


def weight_moments(path) -> dict:
    """Each weight's sum and sum of squares."""
    model = load_model(path)
    weights = {name: getattr(model, name) for name in ("w1", "b1", "w2", "b2")}
    return {name: [float(w.sum()), float((w * w).sum())] for name, w in weights.items()}


def test_seed42_pipeline_matches_the_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    found = run_pipeline()
    expected = json.loads(GOLDEN.read_text())
    moments, expected_moments = found.pop("model/model.json"), expected.pop("model/model.json")
    assert found == expected
    for name, pair in expected_moments.items():
        for got, want in zip(moments[name], pair):
            assert math.isclose(got, want, rel_tol=WEIGHT_TOLERANCE, abs_tol=WEIGHT_TOLERANCE), (
                name, got, want)


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        table = run_pipeline()
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
