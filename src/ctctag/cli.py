"""Command-line workflows: gen-data, train, decode, eval, timeline.

Every run writes a config.json echo of its effective settings beside its
outputs, and identical flags plus seeds reproduce byte-identical files.
Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from .decoder import check_width, emit_timeline, greedy_decode
from .errors import AlignmentError, CtcTagError, FormatError
from .evaluate import evaluate_corpus
from .formats import load_emission_matrix, read_feature_file
from .synth import (
    SynthConfig,
    TrainConfig,
    UtteranceRecord,
    build_registry,
    gen_corpus,
    load_model,
    manifest_feature_path,
    read_manifest,
    save_model,
    train_from_manifest,
    write_manifest,
)
from .tag_parser import parse, transcript_to_dict
from .vocab import decode_tokens, encode_tagged_text, load_vocab, save_vocab, vocab_document


class UsageError(Exception):
    """Bad flags or flag values; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _read_json(path: str | Path) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: expected a JSON object")
    return doc


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _echo_config(out_dir: Path, doc: dict) -> None:
    _write_json(out_dir / "config.json", doc)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _build_parser() -> _Parser:
    parser = _Parser(prog="ctctag", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def vocab_flag(p):
        p.add_argument("--vocab", required=True, help="vocabulary + tag binding file")

    p = sub.add_parser("gen-data", help="generate a synthetic tagged corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--n-utterances", type=int, default=None)
    p.add_argument("--speaker-change-prob", dest="speaker_change_probability",
                   type=float, default=None)
    p.add_argument("--placeholders", type=int, default=16,
                   help="placeholder token count in the generated vocabulary")
    p.add_argument("--split", type=int, default=None,
                   help="also write manifest_train/manifest_heldout, first N to train")
    p.add_argument("--config", default=None, help="JSON corpus config; flags override")
    p.set_defaults(handler=_cmd_gen_data)

    p = sub.add_parser("train", help="train the frame classifier with CTC")
    p.add_argument("--manifest", required=True)
    vocab_flag(p)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--lr", dest="learning_rate", type=float, default=None)
    p.add_argument("--momentum", type=float, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--receptive-field", type=int, default=None)
    p.add_argument("--hidden-width", type=int, default=None)
    p.add_argument("--strip-tags", action="store_true", default=None,
                   help="drop tag tokens from supervision (baseline model)")
    p.add_argument("--config", default=None, help="JSON training config; flags override")
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("decode", help="greedy-decode features or emission files")
    vocab_flag(p)
    p.add_argument("--out", required=True)
    p.add_argument("--model", default=None, help="model file (with --manifest)")
    p.add_argument("--manifest", default=None, help="feature manifest (with --model)")
    p.add_argument("--emissions", nargs="+", default=None,
                   help="emission files to decode directly")
    p.set_defaults(handler=_cmd_decode)

    p = sub.add_parser("eval", help="score a hypothesis manifest against a reference")
    p.add_argument("--ref", required=True)
    p.add_argument("--hyp", required=True)
    vocab_flag(p)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("timeline", help="per-frame argmax TSV for one emission file")
    p.add_argument("--emissions", required=True)
    vocab_flag(p)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_timeline)

    return parser


def _merged_config(args, flag_fields) -> dict:
    doc = _read_json(args.config) if args.config else {}
    for name in flag_fields:
        value = getattr(args, name)
        if value is not None:
            doc[name] = value
    return doc


def _cmd_gen_data(args) -> None:
    doc = _merged_config(args, ["seed", "n_utterances", "speaker_change_probability"])
    doc.setdefault("seed", 42)
    doc.setdefault("n_utterances", 2200)
    try:
        cfg = SynthConfig.from_dict(doc)
        if args.placeholders < 1:
            raise ValueError("--placeholders must be >= 1")
        if args.split is not None and not 1 <= args.split < cfg.n_utterances:
            raise ValueError("--split must be between 1 and n_utterances - 1")
        registry = build_registry(cfg, placeholder_count=args.placeholders)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    out = _out_dir(args)
    save_vocab(registry, out / "vocab.json")
    records = gen_corpus(cfg, registry, out)
    if args.split is not None:
        write_manifest(out / "manifest_train.jsonl", records[: args.split])
        write_manifest(out / "manifest_heldout.jsonl", records[args.split :])
    _echo_config(out, {
        "command": "gen-data",
        "synth": cfg.to_dict(),
        "placeholders": args.placeholders,
        "split": args.split,
    })


def _cmd_train(args) -> None:
    registry = load_vocab(args.vocab)
    doc = _merged_config(args, ["epochs", "seed", "learning_rate", "momentum",
                                "batch_size", "receptive_field", "hidden_width",
                                "strip_tags"])
    doc.setdefault("epochs", 30)
    try:
        cfg = TrainConfig(**doc)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad training config: {exc}") from exc
    model, losses = train_from_manifest(args.manifest, registry, cfg)
    out = _out_dir(args)
    save_model(model, out / "model.json")
    lines = ["epoch\tmean_nll"]
    lines += [f"{i}\t{loss:.6f}" for i, loss in enumerate(losses)]
    (out / "loss_log.tsv").write_text("".join(line + "\n" for line in lines))
    _echo_config(out, {
        "command": "train",
        "manifest": args.manifest,
        "vocab": args.vocab,
        "train": cfg.to_dict(),
    })


def _decode_one(registry, emissions) -> tuple[str, dict]:
    check_width(emissions, registry.vocab)
    result = greedy_decode(emissions)
    labels = list(result.labels)
    tagged_text = decode_tokens(registry, labels)
    transcript = parse(labels, registry, frame_spans=list(result.frame_spans))
    doc = transcript_to_dict(transcript)
    doc["tagged_text"] = tagged_text
    return tagged_text, doc


def _cmd_decode(args) -> None:
    features_mode = args.model is not None or args.manifest is not None
    if features_mode and (args.model is None or args.manifest is None):
        raise UsageError("--model and --manifest must be given together")
    if features_mode == (args.emissions is not None):
        raise UsageError("give either --model/--manifest or --emissions")
    registry = load_vocab(args.vocab)
    out = _out_dir(args)
    (out / "transcripts").mkdir(exist_ok=True)

    inputs: list[tuple[str, str, object]] = []
    if features_mode:
        model = load_model(args.model)
        for record in read_manifest(args.manifest):
            feats = read_feature_file(manifest_feature_path(args.manifest, record.feature_path))
            inputs.append((record.uid, record.feature_path, model.predict(feats)))
    else:
        for path in args.emissions:
            inputs.append((Path(path).stem, path, load_emission_matrix(path)))

    records = []
    for uid, source, emissions in inputs:
        tagged_text, doc = _decode_one(registry, emissions)
        doc["id"] = uid
        _write_json(out / "transcripts" / f"{uid}.json", doc)
        records.append(UtteranceRecord(uid=uid, tagged_text=tagged_text, feature_path=source))
    write_manifest(out / "hyp_manifest.jsonl", records)
    _echo_config(out, {
        "command": "decode",
        "vocab": args.vocab,
        "model": args.model,
        "manifest": args.manifest,
        "emissions": args.emissions,
    })


def _cmd_eval(args) -> None:
    registry = load_vocab(args.vocab)
    ref_records = read_manifest(args.ref)
    hyp_records = read_manifest(args.hyp)
    hyp_by_id = {r.uid: r for r in hyp_records}
    if len(hyp_by_id) != len(hyp_records):
        raise FormatError(f"{args.hyp}: duplicate utterance ids")
    missing = [r.uid for r in ref_records if r.uid not in hyp_by_id]
    if missing:
        raise AlignmentError(f"{args.hyp}: no hypothesis for {missing[0]}")
    ref_ids = {r.uid for r in ref_records}
    extra = [r.uid for r in hyp_records if r.uid not in ref_ids]
    if extra:
        raise AlignmentError(f"{args.hyp}: {extra[0]} is not in the reference {args.ref}")

    def to_transcript(record):
        return parse(encode_tagged_text(registry, record.tagged_text), registry)

    ref_ts = [to_transcript(r) for r in ref_records]
    hyp_ts = [to_transcript(hyp_by_id[r.uid]) for r in ref_records]
    report = evaluate_corpus(ref_ts, hyp_ts)
    doc = {
        "n_utterances": len(ref_records),
        "precision": round(report.precision, 4),
        "recall": round(report.recall, 4),
        "f1": round(report.f1, 4),
        "wer": round(report.wer, 4),
        "intent_accuracy": round(report.intent_accuracy, 4),
        "per_type": {
            name: {
                "precision": round(s.precision, 4),
                "recall": round(s.recall, 4),
                "f1": round(s.f1, 4),
            }
            for name, s in report.per_type.items()
        },
        "totals": {
            "reference": report.totals.total_reference,
            "system": report.totals.total_system,
            "correct": report.totals.total_correct,
        },
        "vocab_sha256": hashlib.sha256(vocab_document(registry).encode()).hexdigest(),
    }
    out = _out_dir(args)
    _write_json(out / "report.json", doc)
    print(
        f"f1 {doc['f1']:.4f}  wer {doc['wer']:.4f}  "
        f"intent_accuracy {doc['intent_accuracy']:.4f}"
    )
    _echo_config(out, {
        "command": "eval",
        "ref": args.ref,
        "hyp": args.hyp,
        "vocab": args.vocab,
    })


def _cmd_timeline(args) -> None:
    registry = load_vocab(args.vocab)
    emissions = load_emission_matrix(args.emissions)
    rows = emit_timeline(emissions, registry.vocab, registry)
    lines = ["t\ttoken_id\tsurface\tprob\tis_blank"]
    for row in rows:
        flag = "true" if row.is_blank else "false"
        lines.append(f"{row.t}\t{row.token_id}\t{row.surface}\t{row.prob:.6f}\t{flag}")
    out = _out_dir(args)
    (out / "timeline.tsv").write_text("".join(line + "\n" for line in lines))
    _echo_config(out, {
        "command": "timeline",
        "emissions": args.emissions,
        "vocab": args.vocab,
    })


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        args.handler(args)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (CtcTagError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
