import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ctctag as c
from ctctag import cli
from ctctag.cli import main
from ctctag.ctc import min_frames
from ctctag.formats import EMISSION_KIND_LOGITS, EMISSION_KIND_PROBS
from ctctag.synth import UtteranceRecord, read_manifest, write_manifest


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One gen-data -> train -> decode -> eval run shared by the smoke tests."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data"
    model = root / "model"
    decoded = root / "decoded"
    scores = root / "scores"
    assert main([
        "gen-data", "--out", str(data),
        "--seed", "11", "--n-utterances", "80", "--split", "60",
    ]) == 0
    assert main([
        "train", "--manifest", str(data / "manifest_train.jsonl"),
        "--vocab", str(data / "vocab.json"), "--out", str(model),
        "--epochs", "4",
    ]) == 0
    assert main([
        "decode", "--model", str(model / "model.json"),
        "--manifest", str(data / "manifest_heldout.jsonl"),
        "--vocab", str(data / "vocab.json"), "--out", str(decoded),
    ]) == 0
    assert main([
        "eval", "--ref", str(data / "manifest_heldout.jsonl"),
        "--hyp", str(decoded / "hyp_manifest.jsonl"),
        "--vocab", str(data / "vocab.json"), "--out", str(scores),
    ]) == 0
    return {"data": data, "model": model, "decoded": decoded, "scores": scores}


class TestPipelineOutputs:
    def test_gen_data_outputs(self, pipeline):
        data = pipeline["data"]
        records = read_manifest(data / "manifest.jsonl")
        assert len(records) == 80
        assert len(read_manifest(data / "manifest_train.jsonl")) == 60
        assert len(read_manifest(data / "manifest_heldout.jsonl")) == 20
        registry = c.load_vocab(data / "vocab.json")
        for record in records[:5]:
            features = c.read_feature_file(data / record.feature_path)
            assert features.shape[1] == 16
            c.encode_tagged_text(registry, record.tagged_text)
        echo = json.loads((data / "config.json").read_text())
        assert echo["command"] == "gen-data"
        assert echo["synth"]["seed"] == 11
        assert echo["split"] == 60

    def test_train_outputs(self, pipeline):
        model_dir = pipeline["model"]
        model = c.load_model(model_dir / "model.json")
        assert model.receptive_field == 5
        assert model.hidden_width == 64
        lines = (model_dir / "loss_log.tsv").read_text().splitlines()
        assert lines[0] == "epoch\tmean_nll"
        assert len(lines) == 1 + 4
        losses = [float(line.split("\t")[1]) for line in lines[1:]]
        assert losses[-1] < losses[0]
        echo = json.loads((model_dir / "config.json").read_text())
        assert echo["train"]["epochs"] == 4

    def test_train_warns_of_each_rising_epoch(self, pipeline, tmp_path, capsys):
        # a warning, not an error: the run still writes its model and loss log
        data = pipeline["data"]
        (tmp_path / "features").symlink_to(data / "features")
        manifest = tmp_path / "manifest.jsonl"
        write_manifest(manifest, read_manifest(data / "manifest_train.jsonl")[:30])
        out = tmp_path / "o"
        assert main(["train", "--epochs", "3", "--lr", "50",
                     "--manifest", str(manifest), "--vocab", str(data / "vocab.json"),
                     "--out", str(out)]) == 0
        losses = [row.split("\t")[1] for row in (out / "loss_log.tsv").read_text().splitlines()[1:]]
        expected = [f"warning: epoch {e} mean loss {losses[e]} is above epoch {e - 1}'s "
                    f"{losses[e - 1]} at learning rate 50.0\n"
                    for e in range(1, len(losses)) if float(losses[e]) > float(losses[e - 1])]
        assert expected, "this learning rate should make the loss rise"
        assert capsys.readouterr().err == "".join(expected)
        assert (out / "model.json").exists()

    def test_decode_outputs(self, pipeline):
        data, decoded = pipeline["data"], pipeline["decoded"]
        hyp = read_manifest(decoded / "hyp_manifest.jsonl")
        assert [r.uid for r in hyp] == [f"utt_{i:05d}" for i in range(60, 80)]
        assert sorted(p.name for p in decoded.iterdir()) == [
            "config.json", "hyp_manifest.jsonl", "transcripts.jsonl"]
        lines = (decoded / "transcripts.jsonl").read_text().splitlines()
        assert len(lines) == len(hyp)
        registry = c.load_vocab(data / "vocab.json")
        model = c.load_model(pipeline["model"] / "model.json")
        for line, record in zip(lines, hyp):
            features = c.read_feature_file(data / record.feature_path)
            result = c.greedy_decode(model.predict(features))
            labels = list(result.labels)
            doc = c.transcript_to_dict(
                c.parse(labels, registry, frame_spans=list(result.frame_spans)))
            doc.update(id=record.uid, tagged_text=c.decode_tokens(registry, labels))
            assert json.loads(line) == doc
            assert line == json.dumps(doc, sort_keys=True)
            assert record.tagged_text == doc["tagged_text"]

    def test_eval_report(self, pipeline):
        report = json.loads((pipeline["scores"] / "report.json").read_text())
        assert report["n_utterances"] == 20
        for key in ("precision", "recall", "f1", "wer", "intent_accuracy"):
            assert isinstance(report[key], float)
        assert report["totals"]["reference"] > 0
        assert len(report["vocab_sha256"]) == 64


class TestEvalSemantics:
    def test_identical_manifests_score_perfectly(self, pipeline, capsys):
        data = pipeline["data"]
        out = data.parent / "self_eval"
        assert main([
            "eval", "--ref", str(data / "manifest.jsonl"),
            "--hyp", str(data / "manifest.jsonl"),
            "--vocab", str(data / "vocab.json"), "--out", str(out),
        ]) == 0
        captured = capsys.readouterr()
        assert "f1 1.0000" in captured.out
        assert "wer 0.0000" in captured.out
        assert "intent_accuracy 1.0000" in captured.out
        report = json.loads((out / "report.json").read_text())
        assert report["f1"] == 1.0
        assert report["wer"] == 0.0

    def test_hypothesis_order_does_not_matter(self, pipeline, tmp_path):
        data = pipeline["data"]
        records = read_manifest(data / "manifest_heldout.jsonl")
        from ctctag.synth import write_manifest

        shuffled = tmp_path / "shuffled.jsonl"
        write_manifest(shuffled, list(reversed(records)))
        out = tmp_path / "scores"
        assert main([
            "eval", "--ref", str(data / "manifest_heldout.jsonl"),
            "--hyp", str(shuffled),
            "--vocab", str(data / "vocab.json"), "--out", str(out),
        ]) == 0
        assert json.loads((out / "report.json").read_text())["f1"] == 1.0

    def test_missing_hypothesis_id_is_a_data_error(self, pipeline, tmp_path):
        data = pipeline["data"]
        assert main([
            "eval", "--ref", str(data / "manifest.jsonl"),
            "--hyp", str(data / "manifest_heldout.jsonl"),
            "--vocab", str(data / "vocab.json"), "--out", str(tmp_path / "s"),
        ]) == 2

    def test_hypothesis_id_absent_from_reference_is_a_data_error(self, pipeline, tmp_path):
        data = pipeline["data"]
        assert main([
            "eval", "--ref", str(data / "manifest_heldout.jsonl"),
            "--hyp", str(data / "manifest.jsonl"),
            "--vocab", str(data / "vocab.json"), "--out", str(tmp_path / "s"),
        ]) == 2


class TestDecodeEmissions:
    def write_one_hot(self, path, labels, registry):
        v_total = registry.vocab.v_total
        probs = np.zeros((len(labels), v_total))
        probs[np.arange(len(labels)), labels] = 1.0
        c.write_emission_file(path, probs, EMISSION_KIND_PROBS)

    def test_decoding_a_spelled_out_listing(self, tmp_path, calendar_registry,
                                            listing_text, listing_labels):
        vocab_path = tmp_path / "vocab.json"
        c.save_vocab(calendar_registry, vocab_path)
        emission_path = tmp_path / "listing.ctcl"
        self.write_one_hot(emission_path, listing_labels, calendar_registry)
        out = tmp_path / "decoded"
        assert main([
            "decode", "--emissions", str(emission_path),
            "--vocab", str(vocab_path), "--out", str(out),
        ]) == 0
        [line] = (out / "transcripts.jsonl").read_text().splitlines()
        doc = json.loads(line)
        assert doc["id"] == "listing"
        assert doc["tagged_text"] == listing_text
        assert doc["intent"] == "CALENDER_SET"
        assert doc["words"] == ["put", "meeting", "with", "paul", "for",
                                "tomorrow", "ten", "am"]
        assert [(e["type"], e["phrase"]) for e in doc["entities"]] == [
            ("EVENT_NAME", "meeting"),
            ("PERSON", "paul"),
            ("DATE", "tomorrow"),
            ("TIME", "ten am"),
        ]
        assert all(e["frame_span"] is not None for e in doc["entities"])
        assert doc["anomalies"] == []
        hyp = read_manifest(out / "hyp_manifest.jsonl")
        assert hyp[0].tagged_text == listing_text

    def test_eval_reads_an_unbound_placeholder_that_decode_wrote(
            self, tmp_path, calendar_registry, listing_text, listing_labels):
        vocab = calendar_registry.vocab
        unbound = vocab.blank_id - 1
        assert calendar_registry.binding_for_id(unbound) is None
        labels = list(listing_labels)
        word_at = labels.index(vocab.id_of("paul"))
        labels[word_at] = unbound
        vocab_path = tmp_path / "vocab.json"
        c.save_vocab(calendar_registry, vocab_path)
        emission_path = tmp_path / "listing.ctcl"
        self.write_one_hot(emission_path, labels, calendar_registry)
        assert main([
            "decode", "--emissions", str(emission_path),
            "--vocab", str(vocab_path), "--out", str(tmp_path / "decoded"),
        ]) == 0
        hyp = read_manifest(tmp_path / "decoded" / "hyp_manifest.jsonl")
        assert vocab.surface_of(unbound) in hyp[0].tagged_text.split()
        ref = tmp_path / "ref.jsonl"
        write_manifest(ref, [UtteranceRecord("listing", listing_text, "listing.ctcf")])
        assert main([
            "eval", "--ref", str(ref), "--hyp", str(tmp_path / "decoded" / "hyp_manifest.jsonl"),
            "--vocab", str(vocab_path), "--out", str(tmp_path / "scores"),
        ]) == 0
        report = json.loads((tmp_path / "scores" / "report.json").read_text())
        assert report["wer"] == round(1 / 8, 4)  # "paul" substituted
        assert report["intent_accuracy"] == 1.0


class TestTimeline:
    def test_tsv_format(self, tmp_path, calendar_registry):
        vocab_path = tmp_path / "vocab.json"
        c.save_vocab(calendar_registry, vocab_path)
        vocab = calendar_registry.vocab
        labels = [vocab.id_of("put"), vocab.blank_id,
                  calendar_registry.binding_for_surface("!END!").token_id]
        probs = np.zeros((3, vocab.v_total))
        probs[np.arange(3), labels] = 1.0
        emission_path = tmp_path / "frames.ctcl"
        c.write_emission_file(emission_path, probs, EMISSION_KIND_PROBS)
        out = tmp_path / "tl"
        assert main([
            "timeline", "--emissions", str(emission_path),
            "--vocab", str(vocab_path), "--out", str(out),
        ]) == 0
        lines = (out / "timeline.tsv").read_text().splitlines()
        assert lines[0] == "t\ttoken_id\tsurface\tprob\tis_blank"
        assert lines[1] == f"0\t{labels[0]}\tput\t1.000000\tfalse"
        assert lines[2] == f"1\t{vocab.blank_id}\t<blank>\t1.000000\ttrue"
        assert lines[3] == f"2\t{labels[2]}\t!END!\t1.000000\tfalse"


class TestReproducibility:
    def test_gen_data_reruns_are_byte_identical(self, tmp_path):
        flags = ["--seed", "9", "--n-utterances", "10"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["gen-data", "--out", str(a), *flags]) == 0
        assert main(["gen-data", "--out", str(b), *flags]) == 0
        for rel in ("manifest.jsonl", "vocab.json", "features/utt_00003.ctcf"):
            assert (a / rel).read_bytes() == (b / rel).read_bytes()

    def test_train_reruns_are_byte_identical(self, pipeline, tmp_path):
        data = pipeline["data"]
        a, b = tmp_path / "a", tmp_path / "b"
        flags = [
            "train", "--manifest", str(data / "manifest_train.jsonl"),
            "--vocab", str(data / "vocab.json"), "--epochs", "2",
        ]
        assert main([*flags, "--out", str(a)]) == 0
        assert main([*flags, "--out", str(b)]) == 0
        assert (a / "model.json").read_bytes() == (b / "model.json").read_bytes()
        assert (a / "loss_log.tsv").read_bytes() == (b / "loss_log.tsv").read_bytes()

    def test_decode_reruns_are_byte_identical(self, pipeline, tmp_path):
        data = pipeline["data"]
        model = pipeline["model"]
        a, b = tmp_path / "a", tmp_path / "b"
        flags = [
            "decode", "--model", str(model / "model.json"),
            "--manifest", str(data / "manifest_heldout.jsonl"),
            "--vocab", str(data / "vocab.json"),
        ]
        assert main([*flags, "--out", str(a)]) == 0
        assert main([*flags, "--out", str(b)]) == 0
        for name in ("hyp_manifest.jsonl", "transcripts.jsonl", "config.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_smaller_decode_into_the_same_out_leaves_only_its_own_lines(self, pipeline, tmp_path):
        data = pipeline["data"]
        (tmp_path / "features").symlink_to(data / "features")
        few = tmp_path / "few.jsonl"
        write_manifest(few, read_manifest(data / "manifest_heldout.jsonl")[:5])
        out = tmp_path / "dec"
        flags = ["decode", "--model", str(pipeline["model"] / "model.json"),
                 "--vocab", str(data / "vocab.json"), "--out", str(out)]
        assert main([*flags, "--manifest", str(data / "manifest_heldout.jsonl")]) == 0
        assert len((out / "transcripts.jsonl").read_text().splitlines()) == 20
        assert main([*flags, "--manifest", str(few)]) == 0
        lines = (out / "transcripts.jsonl").read_text().splitlines()
        ids = [json.loads(line)["id"] for line in lines]
        assert ids == [r.uid for r in read_manifest(out / "hyp_manifest.jsonl")]
        assert ids == [f"utt_{i:05d}" for i in range(60, 65)]


# documents that need each of json's escapes and special values
JSON_DOCUMENTS = [
    {"quote": 'say "hi"', "back\\slash": "a\\b\\\\c", "slash": "a/b"},
    {"controls": "\x00\x01\x1f\x7f\n\t\r\b\f", "\n": "key with a newline"},
    {"accented": "caf\u00e9", "euro": "\u20ac", "emoji": "\U0001f600", "\u00e9": "non-ASCII key"},
    {"lone_surrogate": "\ud800", "low": "x\udfffy"},
    {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"), "float": 0.1, "tiny": 5e-324},
    {"int": -(10**30), "bool": True, "none": None, "empty": [], "empty_doc": {}},
    {"nested": [{"b": [1, [2.5, {"c": "\ud83d"}]], "a": None}, "\""], "z": {"y": {"x": {}}}},
]


def test_write_json_writes_what_json_dumps_writes(tmp_path):
    path = tmp_path / "doc.json"
    for doc in JSON_DOCUMENTS:
        cli._write_json(path, doc)
        assert path.read_bytes() == (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


class TestConfigMerging:
    def test_flags_override_config_file(self, tmp_path):
        cfg_path = tmp_path / "synth.json"
        cfg_path.write_text(json.dumps({"seed": 5, "n_utterances": 12}))
        out = tmp_path / "out"
        assert main([
            "gen-data", "--config", str(cfg_path), "--out", str(out),
            "--n-utterances", "15",
        ]) == 0
        echo = json.loads((out / "config.json").read_text())
        assert echo["synth"]["seed"] == 5
        assert echo["synth"]["n_utterances"] == 15
        assert len(read_manifest(out / "manifest.jsonl")) == 15


def _train_argv(pipeline, out):
    data = pipeline["data"]
    return ["train", "--manifest", str(data / "manifest_train.jsonl"),
            "--vocab", str(data / "vocab.json"), "--out", str(out)]


class TestConfigDocuments:
    @pytest.mark.parametrize("command, field, value", [
        ("train", "strip_tags", "no"),
        ("gen-data", "filler_lexicon", "abcdefgh"),
        ("gen-data", "intents", {"A": "xyz"}),
        ("gen-data", "seed", 1.5),
        ("gen-data", "frames_per_token", 5),
        ("train", "batch_size", 2.5),
        ("train", "hidden_width", 8.0),
        ("gen-data", "noise_sigma", float("nan")),
    ])
    def test_value_of_the_wrong_json_type_is_a_data_error(
        self, pipeline, tmp_path, capsys, command, field, value
    ):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({field: value}))
        if command == "train":
            argv = [*_train_argv(pipeline, tmp_path / "o"), "--epochs", "1"]
        else:
            argv = ["gen-data", "--out", str(tmp_path / "o"), "--n-utterances", "3"]
        assert main([*argv, "--config", str(cfg_path)]) == 2
        assert repr(field) in capsys.readouterr().err

    def test_unknown_field_is_a_data_error_and_out_of_range_a_usage_error(
        self, pipeline, tmp_path
    ):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"upsampling": 3}))
        assert main(["gen-data", "--out", str(tmp_path / "g"), "--n-utterances", "3",
                     "--config", str(cfg_path)]) == 2
        assert main([*_train_argv(pipeline, tmp_path / "t"), "--config", str(cfg_path)]) == 2
        cfg_path.write_text(json.dumps({"epochs": 0}))
        assert main([*_train_argv(pipeline, tmp_path / "t"), "--config", str(cfg_path)]) == 1
        # a negative seed, from a document or a flag, is out of range too
        cfg_path.write_text(json.dumps({"seed": -1}))
        gen_data = ["gen-data", "--out", str(tmp_path / "g"), "--n-utterances", "3"]
        assert main([*gen_data, "--config", str(cfg_path)]) == 1
        assert main([*gen_data, "--seed", "-1"]) == 1
        assert main([*_train_argv(pipeline, tmp_path / "t"), "--config", str(cfg_path)]) == 1
        assert main([*_train_argv(pipeline, tmp_path / "t"), "--seed", "-1"]) == 1

    def test_config_json_echo_reads_back_as_the_same_configs(self, pipeline, tmp_path):
        data = pipeline["data"]
        echo = json.loads((data / "config.json").read_text())["synth"]
        cfg_path = tmp_path / "synth.json"
        cfg_path.write_text(json.dumps(echo))
        out = tmp_path / "again"
        assert main(["gen-data", "--out", str(out), "--config", str(cfg_path),
                     "--split", "60"]) == 0
        for name in ("manifest.jsonl", "vocab.json", "config.json"):
            assert (out / name).read_bytes() == (data / name).read_bytes()
        train_echo = json.loads((pipeline["model"] / "config.json").read_text())["train"]
        assert c.TrainConfig.from_dict(train_echo).to_dict() == train_echo

    def test_config_json_of_every_command(self, pipeline, tmp_path):
        # the command and every flag but --out and --config; a config's flags
        # show as that config under "synth" or "train"
        data, model = pipeline["data"], pipeline["model"]
        vocab, heldout = str(data / "vocab.json"), str(data / "manifest_heldout.jsonl")
        trained = c.load_model(model / "model.json")
        emissions = []
        for record in read_manifest(heldout)[:2]:
            emissions.append(str(tmp_path / f"{record.uid}.ctcl"))
            logits = trained.logits(c.read_feature_file(data / record.feature_path))
            c.write_emission_file(emissions[-1], logits, EMISSION_KIND_LOGITS)
        assert main(["decode", "--emissions", *emissions, "--vocab", vocab,
                     "--out", str(tmp_path / "d")]) == 0
        assert main(["timeline", "--emissions", emissions[0], "--vocab", vocab,
                     "--out", str(tmp_path / "tl")]) == 0
        expected = {
            data: {"command": "gen-data", "placeholders": 16, "split": 60,
                   "synth": c.SynthConfig(seed=11, n_utterances=80).to_dict()},
            model: {"command": "train", "manifest": str(data / "manifest_train.jsonl"),
                    "vocab": vocab,
                    "train": {"batch_size": 16, "epochs": 4, "hidden_width": 64,
                              "learning_rate": 0.05, "momentum": 0.9, "receptive_field": 5,
                              "seed": 0, "strip_tags": False}},
            pipeline["decoded"]: {"command": "decode", "vocab": vocab,
                                  "model": str(model / "model.json"), "manifest": heldout,
                                  "emissions": None},
            tmp_path / "d": {"command": "decode", "vocab": vocab, "model": None,
                             "manifest": None, "emissions": emissions},
            pipeline["scores"]: {"command": "eval", "ref": heldout,
                                 "hyp": str(pipeline["decoded"] / "hyp_manifest.jsonl"),
                                 "vocab": vocab},
            tmp_path / "tl": {"command": "timeline", "emissions": emissions[0], "vocab": vocab},
        }
        for out, doc in expected.items():
            assert json.loads((out / "config.json").read_text()) == doc, out


class TestUsageErrors:
    def test_unknown_flag(self, tmp_path):
        assert main(["gen-data", "--out", str(tmp_path), "--bogus"]) == 1

    def test_missing_required_flag(self):
        assert main(["gen-data"]) == 1

    def test_no_command(self):
        assert main([]) == 1

    def test_bad_split(self, tmp_path):
        assert main([
            "gen-data", "--out", str(tmp_path / "x"),
            "--n-utterances", "10", "--split", "10",
        ]) == 1

    @pytest.mark.parametrize("count", ["-1", "0", "8"])
    def test_too_few_placeholders_for_the_grammar(self, tmp_path, capsys, count):
        out = tmp_path / "x"
        assert main(["gen-data", "--out", str(out), "--n-utterances", "3",
                     "--placeholders", count]) == 1
        assert "need at least 9 placeholders for this grammar" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_synth_value(self, tmp_path):
        assert main([
            "gen-data", "--out", str(tmp_path / "x"),
            "--n-utterances", "10", "--speaker-change-prob", "1.5",
        ]) == 1

    def test_decode_mode_conflicts(self, tmp_path, calendar_registry):
        vocab_path = tmp_path / "vocab.json"
        c.save_vocab(calendar_registry, vocab_path)
        base = ["decode", "--vocab", str(vocab_path), "--out", str(tmp_path / "o")]
        assert main(base) == 1  # neither mode
        assert main([*base, "--model", "m.json"]) == 1  # model without manifest
        assert main([*base, "--model", "m.json", "--manifest", "m.jsonl",
                     "--emissions", "e.ctcl"]) == 1  # both modes

    def test_bad_train_config_value(self, pipeline, tmp_path):
        data = pipeline["data"]
        assert main([
            "train", "--manifest", str(data / "manifest_train.jsonl"),
            "--vocab", str(data / "vocab.json"),
            "--out", str(tmp_path / "m"), "--epochs", "0",
        ]) == 1


class TestExitCodePolicy:
    """main maps a UsageError to 1 and any other CtcTagError (or an OSError)
    to 2; every other exception is a bug and escapes."""

    @pytest.fixture
    def timeline_raising(self, monkeypatch, tmp_path):
        def run(exc):
            def load_vocab(path):
                raise exc

            monkeypatch.setattr(cli, "load_vocab", load_vocab)
            return main(["timeline", "--emissions", str(tmp_path / "e.ctcl"),
                         "--vocab", str(tmp_path / "vocab.json"), "--out", str(tmp_path / "o")])
        return run

    def test_plain_value_error_escapes(self, timeline_raising):
        with pytest.raises(ValueError, match="a bug"):
            timeline_raising(ValueError("a bug"))

    @pytest.mark.parametrize("exc, code", [
        (c.UsageError("out of range"), 1),
        (c.InvalidValue("non-finite"), 2),
    ])
    def test_typed_errors_exit_with_their_code(self, timeline_raising, capsys, exc, code):
        assert timeline_raising(exc) == code
        assert str(exc) in capsys.readouterr().err


class TestDataErrors:
    def test_missing_manifest(self, tmp_path, calendar_registry):
        vocab_path = tmp_path / "vocab.json"
        c.save_vocab(calendar_registry, vocab_path)
        assert main([
            "train", "--manifest", str(tmp_path / "missing.jsonl"),
            "--vocab", str(vocab_path), "--out", str(tmp_path / "m"),
        ]) == 2

    def test_corrupt_vocab(self, tmp_path):
        bad = tmp_path / "vocab.json"
        bad.write_text("{broken")
        assert main([
            "timeline", "--emissions", str(tmp_path / "e.ctcl"),
            "--vocab", str(bad), "--out", str(tmp_path / "o"),
        ]) == 2

    def test_corrupt_emission_file(self, tmp_path, calendar_registry):
        vocab_path = tmp_path / "vocab.json"
        c.save_vocab(calendar_registry, vocab_path)
        bad = tmp_path / "e.ctcl"
        bad.write_bytes(b"XXXX" + b"\x00" * 32)
        assert main([
            "timeline", "--emissions", str(bad),
            "--vocab", str(vocab_path), "--out", str(tmp_path / "o"),
        ]) == 2

    @pytest.mark.parametrize("bad", ["narrow", "nan", "inf_logits", "negative_entry"])
    def test_unusable_emission_file(self, tmp_path, calendar_registry, bad):
        v_total = calendar_registry.vocab.v_total
        kind = EMISSION_KIND_PROBS
        if bad == "narrow":
            probs = np.eye(10)[[0, 9, 1]]  # its blank id 9 is a word of the vocabulary
        elif bad == "nan":
            probs = np.full((2, v_total), 1 / v_total)
            probs[1, 0] = np.nan
        elif bad == "negative_entry":
            # sums to 1; clipping it would decode a confident first word
            probs = np.zeros((1, v_total))
            probs[0, 0], probs[0, -1] = 2.0, -1.0
        else:
            probs = np.zeros((2, v_total))
            probs[1, 0] = np.inf
            kind = EMISSION_KIND_LOGITS
        vocab_path = tmp_path / "vocab.json"
        c.save_vocab(calendar_registry, vocab_path)
        path = tmp_path / "e.ctcl"
        # laid out by hand: write_emission_file refuses all but the narrow file
        header = struct.pack("<4sHBBII", b"CTCL", 1, kind, 0, *probs.shape)
        path.write_bytes(header + probs.astype("<f4").tobytes())
        assert main([
            "decode", "--emissions", str(path),
            "--vocab", str(vocab_path), "--out", str(tmp_path / "o"),
        ]) == 2

    def test_emission_error_names_its_file(self, tmp_path, calendar_registry, capsys):
        vocab_path = tmp_path / "vocab.json"
        c.save_vocab(calendar_registry, vocab_path)
        v_total = calendar_registry.vocab.v_total
        good, bad = tmp_path / "a.ctcl", tmp_path / "b.ctcl"
        c.write_emission_file(good, np.eye(v_total)[[0, -1]], EMISSION_KIND_PROBS)
        row = np.zeros((1, v_total))
        row[0, 0], row[0, -1] = 2.0, -1.0
        # laid out by hand: write_emission_file refuses the row
        header = struct.pack("<4sHBBII", b"CTCL", 1, EMISSION_KIND_PROBS, 0, *row.shape)
        bad.write_bytes(header + row.astype("<f4").tobytes())
        assert main(["decode", "--emissions", str(good), str(bad),
                     "--vocab", str(vocab_path), "--out", str(tmp_path / "o")]) == 2
        assert f"error: {bad}: emission entries must lie in [0, 1]" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_gen_data_features_beyond_float32(self, tmp_path, capsys):
        config = tmp_path / "synth.json"
        config.write_text('{"noise_sigma": 1e300}')
        out = tmp_path / "data"
        assert main(["gen-data", "--out", str(out), "--n-utterances", "3",
                     "--config", str(config)]) == 2
        assert "features must be finite numbers" in capsys.readouterr().err
        assert list(out.rglob("*.ctcf")) == []

    # utterance 5 is the first whose features leave the float32 range; the
    # five before it are drawn but not written
    def test_gen_data_feature_beyond_float32_after_others_writes_nothing(self, tmp_path, capsys):
        config = tmp_path / "synth.json"
        config.write_text('{"noise_sigma": 1e38}')
        out = tmp_path / "data"
        assert main(["gen-data", "--seed", "2", "--n-utterances", "40",
                     "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {out / 'features' / 'utt_00005.ctcf'}: features must be finite numbers\n")
        assert not out.exists()

    @pytest.mark.parametrize("config, message", [
        ({"frames_per_token": [2, 2], "entities_per_utterance": [0, 2], "phrase_words": [1, 1],
          "fillers_per_utterance": [2, 2]},
         "frames_per_token 2..2 cannot cover 9 labels with 4 words"),
        ({"frames_per_token": [1, 1]}, "frames_per_token 1..1 cannot cover"),
    ], ids=["after_files", "first_utterance"])
    def test_gen_data_refusing_a_corpus_writes_nothing(self, tmp_path, capsys, config, message):
        cfg_path = tmp_path / "g.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "data"
        assert main(["gen-data", "--seed", "1", "--n-utterances", "50",
                     "--config", str(cfg_path), "--out", str(out)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    # the first step overflows: training stops there, unwarned, and writes nothing
    def test_train_into_non_finite_weights(self, pipeline, tmp_path, capsys):
        data = pipeline["data"]
        (tmp_path / "features").symlink_to(data / "features")
        manifest = tmp_path / "manifest.jsonl"
        write_manifest(manifest, read_manifest(data / "manifest_train.jsonl")[:30])
        out = tmp_path / "o"
        assert main(["train", "--epochs", "1", "--batch-size", "30", "--lr", "1.7e308",
                     "--manifest", str(manifest), "--vocab", str(data / "vocab.json"),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: epoch 0, batch 0: weights are not finite after the step at learning rate 1.7e+308\n")
        assert not out.exists()

    # weights that keep finite for a step can make the next batch's loss
    # fail; the error then names the step, not only the utterance
    def test_train_loss_failing_after_a_step(self, pipeline, tmp_path, capsys):
        data = pipeline["data"]
        (tmp_path / "features").symlink_to(data / "features")
        manifest = tmp_path / "manifest.jsonl"
        write_manifest(manifest, read_manifest(data / "manifest_train.jsonl")[:30])
        out = tmp_path / "o"
        assert main(["train", "--epochs", "3", "--lr", "1e307",
                     "--manifest", str(manifest), "--vocab", str(data / "vocab.json"),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: epoch 0, batch 1: utterance 0: CTC log-probability is -inf: a "
            "zero-probability target (after training at learning rate 1e+307)\n")
        assert not out.exists()

    def test_model_of_the_wrong_width(self, pipeline, tmp_path, capsys):
        data = pipeline["data"]
        v_total = c.load_vocab(data / "vocab.json").vocab.v_total
        model = tmp_path / "model.json"
        c.save_model(c.ToyModel.init(16, v_total - 1, np.random.default_rng(0)), model)
        assert main([
            "decode", "--model", str(model),
            "--manifest", str(data / "manifest_heldout.jsonl"),
            "--vocab", str(data / "vocab.json"), "--out", str(tmp_path / "o"),
        ]) == 2
        assert capsys.readouterr().err == (
            f"error: {model}: vocabulary width {v_total} != emission width {v_total - 1}\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["w1"].pop(),
         "bad model file: w1 rows must be receptive_field * feature_dim"),
        (lambda doc: doc["b1"].pop(), "bad model file: hidden dimensions disagree"),
        (lambda doc: doc.update(w1=sum(doc["w1"], [])),
         "bad model file: w1 and w2 must be 2-D, b1 and b2 1-D"),
        (lambda doc: doc.pop("version"), "not a model file"),
    ], ids=["w1_row_missing", "b1_short", "w1_flat", "no_version"])
    def test_model_file_refusals_name_the_file(self, pipeline, tmp_path, capsys, edit, message):
        data = pipeline["data"]
        doc = json.loads((pipeline["model"] / "model.json").read_text())
        edit(doc)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        assert main(["decode", "--model", str(model),
                     "--manifest", str(data / "manifest_heldout.jsonl"),
                     "--vocab", str(data / "vocab.json"), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {model}: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_feature_file_of_the_wrong_width_names_the_file(self, pipeline, tmp_path, capsys):
        data = pipeline["data"]
        v_total = c.load_vocab(data / "vocab.json").vocab.v_total
        model = tmp_path / "model.json"
        c.save_model(c.ToyModel.init(15, v_total, np.random.default_rng(0)), model)
        manifest = data / "manifest_heldout.jsonl"
        record = read_manifest(manifest)[0]
        frames = c.read_feature_file(data / record.feature_path).shape[0]
        assert main(["decode", "--model", str(model), "--manifest", str(manifest),
                     "--vocab", str(data / "vocab.json"), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"error: {os.path.join(data, record.feature_path)}: "
            f"features must be (T, 15), got ({frames}, 16)\n")
        assert not (tmp_path / "o").exists()

    def test_timeline_of_the_wrong_width_names_the_file(self, tmp_path, calendar_registry, capsys):
        vocab_path = tmp_path / "vocab.json"
        c.save_vocab(calendar_registry, vocab_path)
        v_total = calendar_registry.vocab.v_total
        narrow = tmp_path / "narrow.ctcl"
        c.write_emission_file(narrow, np.eye(v_total - 1)[[0, -1]], EMISSION_KIND_PROBS)
        assert main(["timeline", "--emissions", str(narrow),
                     "--vocab", str(vocab_path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"error: {narrow}: vocabulary width {v_total} != emission width {v_total - 1}\n")
        assert not (tmp_path / "o").exists()

    def test_emission_file_of_the_wrong_width(self, tmp_path, calendar_registry, capsys):
        vocab_path = tmp_path / "vocab.json"
        c.save_vocab(calendar_registry, vocab_path)
        v_total = calendar_registry.vocab.v_total
        good, narrow = tmp_path / "a.ctcl", tmp_path / "b.ctcl"
        c.write_emission_file(good, np.eye(v_total)[[0, -1]], EMISSION_KIND_PROBS)
        c.write_emission_file(narrow, np.eye(v_total - 1)[[0, -1]], EMISSION_KIND_PROBS)
        assert main(["decode", "--emissions", str(good), str(narrow),
                     "--vocab", str(vocab_path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"error: {narrow}: vocabulary width {v_total} != emission width {v_total - 1}\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["train", "decode"])
    @pytest.mark.parametrize("escape", ["parent", "absolute"])
    def test_feature_path_leaving_the_manifest_directory(self, pipeline, tmp_path, command, escape):
        data = pipeline["data"]
        record = read_manifest(data / "manifest_heldout.jsonl")[0]
        outside = tmp_path / "outside.ctcf"
        outside.write_bytes((data / record.feature_path).read_bytes())
        feature_path = "../outside.ctcf" if escape == "parent" else str(outside)
        manifest = tmp_path / "inner" / "manifest.jsonl"
        manifest.parent.mkdir()
        write_manifest(manifest, [UtteranceRecord(record.uid, record.tagged_text, feature_path)])
        if command == "train":
            argv = ["train", "--epochs", "1"]
        else:
            argv = ["decode", "--model", str(pipeline["model"] / "model.json")]
        assert main(argv + [
            "--manifest", str(manifest),
            "--vocab", str(data / "vocab.json"), "--out", str(tmp_path / "o"),
        ]) == 2

    @pytest.mark.parametrize("uid", ["../../escaped", "sub/name", "", ".", "..", "nul\0byte"])
    def test_decode_id_that_is_not_a_file_name(self, pipeline, tmp_path, uid):
        # not a data error: an id names no file, so any id a manifest may
        # hold decodes and scores
        data = pipeline["data"]
        (tmp_path / "features").symlink_to(data / "features")
        records = read_manifest(data / "manifest_heldout.jsonl")[:3]
        records[1] = UtteranceRecord(uid, records[1].tagged_text, records[1].feature_path)
        ref = tmp_path / "ref.jsonl"
        write_manifest(ref, records)
        vocab = ["--vocab", str(data / "vocab.json")]
        dec, scores = tmp_path / "out" / "dec", tmp_path / "scores"
        assert main(["decode", "--model", str(pipeline["model"] / "model.json"),
                     "--manifest", str(ref), *vocab, "--out", str(dec)]) == 0
        ids = [r.uid for r in records]
        assert [r.uid for r in read_manifest(dec / "hyp_manifest.jsonl")] == ids
        lines = (dec / "transcripts.jsonl").read_text().splitlines()
        assert [json.loads(line)["id"] for line in lines] == ids
        assert sorted(p.name for p in dec.iterdir()) == [
            "config.json", "hyp_manifest.jsonl", "transcripts.jsonl"]
        assert main(["eval", "--ref", str(ref), "--hyp", str(dec / "hyp_manifest.jsonl"),
                     *vocab, "--out", str(scores)]) == 0
        assert json.loads((scores / "report.json").read_text())["n_utterances"] == 3

    def test_training_corpus_of_mixed_feature_widths(self, pipeline, tmp_path, capsys):
        data = pipeline["data"]
        (tmp_path / "features").symlink_to(data / "features")
        records = read_manifest(data / "manifest_train.jsonl")[:3]
        narrow = c.read_feature_file(data / records[1].feature_path)[:, :8]
        c.write_feature_file(tmp_path / "narrow.ctcf", narrow)
        records[1] = UtteranceRecord(records[1].uid, records[1].tagged_text, "narrow.ctcf")
        write_manifest(tmp_path / "manifest.jsonl", records)
        assert main(["train", "--epochs", "1", "--manifest", str(tmp_path / "manifest.jsonl"),
                     "--vocab", str(data / "vocab.json"), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'manifest.jsonl'}: id {records[1].uid!r} has 8 features per "
            f"frame, id {records[0].uid!r} has 16\n")
        assert not (tmp_path / "o").exists()

    def test_decode_repeated_manifest_id(self, pipeline, tmp_path, capsys):
        data = pipeline["data"]
        (tmp_path / "features").symlink_to(data / "features")
        lines = (data / "manifest_heldout.jsonl").read_text().splitlines()[:3]
        record = json.loads(lines[2])
        record["id"] = json.loads(lines[0])["id"]
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text("\n".join([*lines[:2], json.dumps(record)]) + "\n")
        assert main([
            "decode", "--model", str(pipeline["model"] / "model.json"), "--manifest", str(manifest),
            "--vocab", str(data / "vocab.json"), "--out", str(tmp_path / "dec"),
        ]) == 2
        assert "repeats line 1" in capsys.readouterr().err
        assert not (tmp_path / "dec").exists()

    def test_decode_emission_files_of_one_stem(self, tmp_path, calendar_registry, capsys):
        # a file's stem is its utterance id, and eval refuses a repeated id
        vocab_path = tmp_path / "vocab.json"
        c.save_vocab(calendar_registry, vocab_path)
        probs = np.eye(calendar_registry.vocab.v_total)[[0, -1]]
        paths = [tmp_path / "a" / "u.ctcl", tmp_path / "b" / "u.ctcl"]
        for path in paths:
            path.parent.mkdir()
            c.write_emission_file(path, probs, EMISSION_KIND_PROBS)
        for emissions in (paths, paths[:1] * 2):
            assert main(["decode", "--emissions", *map(str, emissions),
                         "--vocab", str(vocab_path), "--out", str(tmp_path / "dec")]) == 2
            assert capsys.readouterr().err == (
                f"error: {emissions[0]} and {emissions[1]} both decode to id 'u'\n")
            assert not (tmp_path / "dec").exists()

    @pytest.mark.parametrize("tagged_texts", [[], ["@CALENDER_SET@", "@CALENDER_SET@ !END!"]],
                             ids=["empty", "no_words"])
    def test_eval_reference_without_a_word_names_it(self, tmp_path, calendar_registry, capsys,
                                                     tagged_texts):
        vocab_path = tmp_path / "vocab.json"
        c.save_vocab(calendar_registry, vocab_path)
        ref = tmp_path / "ref.jsonl"
        write_manifest(ref, [UtteranceRecord(f"u{i}", text, f"u{i}.ctcf")
                             for i, text in enumerate(tagged_texts)])
        assert main(["eval", "--ref", str(ref), "--hyp", str(ref),
                     "--vocab", str(vocab_path), "--out", str(tmp_path / "s")]) == 2
        assert capsys.readouterr().err == (
            f"error: {ref}: corpus WER needs at least one reference word\n")
        assert not (tmp_path / "s").exists()

    def test_eval_reference_without_an_intent_names_it(self, tmp_path, calendar_registry,
                                                       listing_text, capsys):
        vocab_path = tmp_path / "vocab.json"
        c.save_vocab(calendar_registry, vocab_path)
        ref = tmp_path / "ref.jsonl"
        write_manifest(ref, [UtteranceRecord("u0", listing_text, "u0.ctcf"),
                             UtteranceRecord("u1", "put meeting", "u1.ctcf")])
        assert main(["eval", "--ref", str(ref), "--hyp", str(ref),
                     "--vocab", str(vocab_path), "--out", str(tmp_path / "s")]) == 2
        assert capsys.readouterr().err == f"error: {ref}: reference 'u1' has no intent tag\n"
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("side", ["ref", "hyp"])
    def test_eval_repeated_id(self, pipeline, tmp_path, capsys, side):
        # a repeated reference id would score its one hypothesis twice
        data = pipeline["data"]
        heldout = data / "manifest_heldout.jsonl"
        lines = heldout.read_text().splitlines()
        repeated = tmp_path / "repeated.jsonl"
        repeated.write_text("\n".join([*lines, lines[0]]) + "\n")
        ref, hyp = (repeated, heldout) if side == "ref" else (heldout, repeated)
        assert main(["eval", "--ref", str(ref), "--hyp", str(hyp),
                     "--vocab", str(data / "vocab.json"), "--out", str(tmp_path / "s")]) == 2
        assert f"repeated.jsonl:{len(lines) + 1}" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_unknown_word_in_manifest(self, tmp_path, calendar_registry):
        vocab_path = tmp_path / "vocab.json"
        c.save_vocab(calendar_registry, vocab_path)
        manifest = tmp_path / "ref.jsonl"
        manifest.write_text(json.dumps(
            {"id": "u0", "features": "f.ctcf", "tagged_text": "zorp"}
        ) + "\n")
        assert main([
            "eval", "--ref", str(manifest), "--hyp", str(manifest),
            "--vocab", str(vocab_path), "--out", str(tmp_path / "s"),
        ]) == 2

    @pytest.mark.parametrize("command", ["eval_ref", "eval_hyp", "train"])
    def test_unknown_surface_names_the_manifest_and_the_id(self, pipeline, tmp_path, capsys,
                                                           command):
        data = pipeline["data"]
        (tmp_path / "features").symlink_to(data / "features")
        source = data / ("manifest_train.jsonl" if command == "train" else "manifest_heldout.jsonl")
        records = read_manifest(source)
        spoiled = records[2]
        records[2] = UtteranceRecord(spoiled.uid, spoiled.tagged_text + " zebra",
                                     spoiled.feature_path)
        manifest = tmp_path / "manifest.jsonl"
        write_manifest(manifest, records)
        vocab = str(data / "vocab.json")
        out = tmp_path / "o"
        argv = {
            "eval_ref": ["eval", "--ref", str(manifest), "--hyp", str(source)],
            "eval_hyp": ["eval", "--ref", str(source), "--hyp", str(manifest)],
            "train": ["train", "--epochs", "1", "--manifest", str(manifest)],
        }[command]
        assert main([*argv, "--vocab", vocab, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {manifest}: id {spoiled.uid!r}: "
            "surface 'zebra' is neither a bound tag nor a word\n")
        assert not out.exists()

    @pytest.mark.parametrize("cut", [[0, 1], [1]], ids=["every_line", "one_line"])
    def test_train_names_each_skipped_line(self, pipeline, tmp_path, capsys, cut):
        data = pipeline["data"]
        registry = c.load_vocab(data / "vocab.json")
        records = read_manifest(data / "manifest_train.jsonl")[:2]
        expected = []
        for i in cut:  # to 2 frames, fewer than any line's labels need
            record = records[i]
            short = c.read_feature_file(data / record.feature_path)[:2]
            c.write_feature_file(tmp_path / f"{record.uid}.ctcf", short)
            records[i] = UtteranceRecord(record.uid, record.tagged_text, f"{record.uid}.ctcf")
            need = min_frames(c.encode_tagged_text(registry, record.tagged_text))
            expected.append(f"warning: {tmp_path / 'manifest.jsonl'}: id {record.uid!r}: "
                            f"2 frames cannot fit {need} alignment slots; skipped\n")
        (tmp_path / "features").symlink_to(data / "features")
        manifest = tmp_path / "manifest.jsonl"
        write_manifest(manifest, records)
        out = tmp_path / "o"
        code = main(["train", "--epochs", "1", "--manifest", str(manifest),
                     "--vocab", str(data / "vocab.json"), "--out", str(out)])
        err = capsys.readouterr().err
        if len(cut) == len(records):
            assert code == 2
            assert err == "".join(expected) + f"error: {manifest}: every sample was infeasible\n"
            assert not out.exists()
        else:
            assert code == 0
            assert err == "".join(expected)
            assert (out / "model.json").exists()

    def test_train_on_an_empty_manifest_names_it(self, pipeline, tmp_path, capsys):
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text("")
        assert main(["train", "--manifest", str(manifest),
                     "--vocab", str(pipeline["data"] / "vocab.json"),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {manifest}: no training samples\n"
        assert not (tmp_path / "o").exists()


def _drop(key):
    return lambda doc: {k: v for k, v in doc.items() if k != key}


def _set_token(token_id, key, value):
    def edit(doc):
        doc["tokens"][token_id][key] = value
        return doc
    return edit


@pytest.mark.parametrize("edit, message", [
    (lambda doc: [doc], "expected a JSON object"),
    (_drop("version"), "missing version field"),
    (_drop("L"), "missing field 'L'"),
    (_set_token(0, "surface", 5), "surface and entity_type at id 0 must be strings"),
    (_set_token(36, "entity_type", 5), "surface and entity_type at id 36 must be strings"),
    (_set_token(0, "tag_kind", "intent"), "tag metadata on non-placeholder id 0"),
    (_set_token(33, "tag_kind", "mood"), "bad tag kind at id 33"),
    (lambda doc: {**doc, "L": doc["L"] + 1, "D": doc["D"] - 1},
     "role blocks disagree with the L/D header"),
    (lambda doc: {**doc, "blank_id": doc["blank_id"] - 1},
     "blank_id 48 is not the last token id 49"),
], ids=["not_an_object", "no_version", "no_field", "surface_not_a_string",
        "entity_type_not_a_string", "tag_on_a_word", "bad_tag_kind", "roles_against_header",
        "blank_id_not_last"])
def test_vocab_file_refusals_name_the_file(tmp_path, calendar_registry, capsys, edit, message):
    # token 33 is the first tag (an intent) and 36 an entity-begin tag
    doc = json.loads(c.vocab_document(calendar_registry))
    assert doc["tokens"][33]["tag_kind"] == "intent"
    assert doc["tokens"][36]["tag_kind"] == "entity_begin"
    vocab = tmp_path / "vocab.json"
    vocab.write_text(json.dumps(edit(doc)))
    emissions = tmp_path / "u.ctcl"
    c.write_emission_file(emissions, np.eye(calendar_registry.vocab.v_total)[[0, -1]],
                          EMISSION_KIND_PROBS)
    assert main(["timeline", "--emissions", str(emissions), "--vocab", str(vocab),
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {vocab}: {message}\n"
    assert not (tmp_path / "o").exists()


#: one-field mutations: null, two numbers, a string, a list and a dict
MUTANTS = [None, 0, 2.5, "x", [1, 2], {"k": 1}]


def _exit_code(argv):
    """main's exit code, or the exception that escaped it."""
    try:
        return main([str(a) for a in argv])
    except Exception as exc:  # an escape is what the sweep looks for
        return exc


def _mutants(doc: dict, keys):
    """(label, copy of doc with one entry of doc[key] or doc replaced)."""
    for key in keys:
        for value in MUTANTS:
            mutant = json.loads(json.dumps(doc))
            if isinstance(key, tuple):  # (list field, index)
                mutant[key[0]][key[1]] = value
            else:
                mutant[key] = value
            yield f"{key}={value!r}", mutant


class TestOneFieldMutations:
    """Each JSON input, one field at a time set to a value of another type:
    main exits with a code (0, or 2 for a data error; configs may also give 1
    for a value out of range) and never raises."""

    def sweep(self, runs, allowed):
        escapes = [f"{label}: {code!r}" for label, code in runs if code not in allowed]
        assert not escapes, "\n".join(escapes)

    def link_features(self, pipeline, tmp_path):
        # a manifest in tmp_path then reads its feature paths from the corpus
        (tmp_path / "features").symlink_to(pipeline["data"] / "features")

    def test_vocab_json(self, pipeline, tmp_path):
        data = pipeline["data"]
        doc = json.loads((data / "vocab.json").read_text())
        tag_id = next(i for i, e in enumerate(doc["tokens"]) if "tag_kind" in e)
        keys = [*doc, ("tokens", 0), ("tokens", tag_id)]
        heldout = data / "manifest_heldout.jsonl"
        runs = []
        for label, mutant in _mutants(doc, keys):
            vocab = tmp_path / "vocab.json"
            vocab.write_text(json.dumps(mutant))
            runs.append((f"decode {label}", _exit_code([
                "decode", "--model", pipeline["model"] / "model.json",
                "--manifest", heldout, "--vocab", vocab, "--out", tmp_path / "d"])))
            runs.append((f"eval {label}", _exit_code([
                "eval", "--ref", heldout, "--hyp", heldout,
                "--vocab", vocab, "--out", tmp_path / "e"])))
        self.sweep(runs, (0, 2))

    def test_manifest_line(self, pipeline, tmp_path):
        data = pipeline["data"]
        self.link_features(pipeline, tmp_path)
        heldout = data / "manifest_heldout.jsonl"
        lines = heldout.read_text().splitlines()
        runs = []
        for label, mutant in _mutants(json.loads(lines[0]), ["id", "tagged_text", "features"]):
            manifest = tmp_path / "manifest.jsonl"
            manifest.write_text("\n".join([json.dumps(mutant), *lines[1:]]) + "\n")
            runs.append((f"decode {label}", _exit_code([
                "decode", "--model", pipeline["model"] / "model.json",
                "--manifest", manifest, "--vocab", data / "vocab.json",
                "--out", tmp_path / "d"])))
            runs.append((f"eval {label}", _exit_code([
                "eval", "--ref", heldout, "--hyp", manifest,
                "--vocab", data / "vocab.json", "--out", tmp_path / "e"])))
        self.sweep(runs, (0, 2))

    def test_model_json(self, pipeline, tmp_path):
        # every field is checked, so every mutation is a data error; the
        # receptive field also takes an integer's other JSON spellings
        data = pipeline["data"]
        doc = json.loads((pipeline["model"] / "model.json").read_text())
        mutants = [*_mutants(doc, list(doc)),
                   *((f"receptive_field={value!r}", {**doc, "receptive_field": value})
                     for value in (str(doc["receptive_field"]), float(doc["receptive_field"]), True))]
        runs = []
        for label, mutant in mutants:
            model = tmp_path / "model.json"
            model.write_text(json.dumps(mutant))
            runs.append((label, _exit_code([
                "decode", "--model", model, "--manifest", data / "manifest_heldout.jsonl",
                "--vocab", data / "vocab.json", "--out", tmp_path / "d"])))
        self.sweep(runs, (2,))

    def test_documents_that_are_not_utf8(self, pipeline, tmp_path, capsys):
        # a data error naming the file, not a bare codec message
        data = pipeline["data"]

        def spoiled(source):
            path = tmp_path / f"spoiled_{source.name}"
            path.write_bytes(source.read_bytes().replace(b'"', b'"\xff', 1))
            return path

        heldout, vocab = data / "manifest_heldout.jsonl", data / "vocab.json"
        config = tmp_path / "spoiled_config.json"
        config.write_bytes(b'{"filler_lexicon": ["w\xe9", "x"]}')
        runs = [
            ["eval", "--ref", heldout, "--hyp", heldout, "--vocab", spoiled(vocab)],
            ["eval", "--ref", heldout, "--hyp", spoiled(heldout), "--vocab", vocab],
            ["decode", "--model", spoiled(pipeline["model"] / "model.json"),
             "--manifest", heldout, "--vocab", vocab],
            ["gen-data", "--config", config, "--n-utterances", "3"],
            ["train", "--config", config, "--manifest", heldout, "--vocab", vocab],
        ]
        for argv in runs:
            assert _exit_code([*argv, "--out", tmp_path / "o"]) == 2, argv
            assert "spoiled_" in capsys.readouterr().err, argv
        assert not (tmp_path / "o").exists()

    def test_gen_data_config(self, tmp_path):
        doc = c.SynthConfig(n_utterances=3).to_dict()
        runs = []
        for label, mutant in _mutants(doc, list(doc)):
            cfg_path = tmp_path / "synth.json"
            cfg_path.write_text(json.dumps(mutant))
            runs.append((label, _exit_code([
                "gen-data", "--config", cfg_path, "--out", tmp_path / "g"])))
        self.sweep(runs, (0, 1, 2))

    def test_train_config(self, pipeline, tmp_path):
        data = pipeline["data"]
        self.link_features(pipeline, tmp_path)
        manifest = tmp_path / "manifest.jsonl"
        lines = (data / "manifest_train.jsonl").read_text().splitlines()
        manifest.write_text("\n".join(lines[:8]) + "\n")
        doc = c.TrainConfig(epochs=1, batch_size=4, hidden_width=8).to_dict()
        runs = []
        for label, mutant in _mutants(doc, list(doc)):
            cfg_path = tmp_path / "train.json"
            cfg_path.write_text(json.dumps(mutant))
            runs.append((label, _exit_code([
                "train", "--config", cfg_path, "--manifest", manifest,
                "--vocab", data / "vocab.json", "--out", tmp_path / "t"])))
        self.sweep(runs, (0, 1, 2))


def test_help_via_interpreter():
    # the child imports the package under test, installed or not
    package_root = str(Path(c.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "ctctag.cli", "--help"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0
    for command in ("gen-data", "train", "decode", "eval", "timeline"):
        assert command in result.stdout
