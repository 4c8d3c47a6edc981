"""Command-line workflows: gen-data, train, decode, eval, timeline.

Every run writes a config.json echo of its effective settings beside its
outputs, and identical flags plus seeds reproduce byte-identical files.
`decode` writes one compact JSON line per utterance to transcripts.jsonl,
in input order, beside hyp_manifest.jsonl; config.json and report.json are
indented. Exit codes: 0 success, 1 usage error (`UsageError`), 2 data
error (any other `CtcTagError`, or an `OSError`). Any other exception is a
bug and escapes with its traceback.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import fields
from pathlib import Path

from .decoder import check_width, emit_timeline, greedy_decode
from .errors import AlignmentError, CtcTagError, EmptyReference, FormatError, UsageError
from .evaluate import evaluate_corpus
from .formats import _named, load_emission_matrix, read_feature_file
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
from .vocab import (
    decode_tokens,
    encode_tagged_text,
    load_vocab,
    read_json_object,
    save_vocab,
    vocab_document,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _write_json(path, doc: dict) -> None:
    """Write `json.dumps(doc, sort_keys=True, indent=2)` and a newline."""
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


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


def _config(cls, args):
    """`cls` from the --config document, overridden by every flag named
    after one of its fields."""
    doc = read_json_object(args.config) if args.config else {}
    names = {f.name for f in fields(cls)}
    doc.update((k, v) for k, v in vars(args).items() if k in names and v is not None)
    return cls.from_dict(doc)


def _cmd_gen_data(args) -> None:
    cfg = _config(SynthConfig, args)
    if args.placeholders < 1:
        raise UsageError("--placeholders must be >= 1")
    if args.split is not None and not 1 <= args.split < cfg.n_utterances:
        raise UsageError("--split must be between 1 and n_utterances - 1")
    registry = build_registry(cfg, placeholder_count=args.placeholders)
    out = _out_dir(args)
    save_vocab(registry, out / "vocab.json")
    records = gen_corpus(cfg, registry, out)
    if args.split is not None:
        write_manifest(out / "manifest_train.jsonl", records[: args.split])
        write_manifest(out / "manifest_heldout.jsonl", records[args.split :])
    _write_json(out / "config.json", {
        "command": "gen-data",
        "synth": cfg.to_dict(),
        "placeholders": args.placeholders,
        "split": args.split,
    })


def _cmd_train(args) -> None:
    registry = load_vocab(args.vocab)
    cfg = _config(TrainConfig, args)
    model, losses = train_from_manifest(args.manifest, registry, cfg)
    # a warning, not an error: a loss can rise for an epoch and fall again
    for epoch in range(1, len(losses)):
        if losses[epoch] > losses[epoch - 1]:
            print(f"warning: epoch {epoch} mean loss {losses[epoch]:.6f} is above epoch "
                  f"{epoch - 1}'s {losses[epoch - 1]:.6f} at learning rate {cfg.learning_rate}",
                  file=sys.stderr)
    out = _out_dir(args)
    save_model(model, out / "model.json")
    lines = ["epoch\tmean_nll"]
    lines += [f"{i}\t{loss:.6f}" for i, loss in enumerate(losses)]
    (out / "loss_log.tsv").write_text("".join(line + "\n" for line in lines))
    _write_json(out / "config.json", {
        "command": "train",
        "manifest": args.manifest,
        "vocab": args.vocab,
        "train": cfg.to_dict(),
    })


def _decode_one(registry, emissions) -> tuple[str, dict]:
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
    vocab = registry.vocab
    if features_mode:
        model = load_model(args.model)
        _named(args.model, check_width, model, vocab)  # once: it fixes every prediction's width
        sources = [(r.uid, r.feature_path) for r in read_manifest(args.manifest)]
    else:
        # a file's stem is its id, and eval refuses a repeated id
        path_of_stem: dict[str, str] = {}
        for path in args.emissions:
            stem = Path(path).stem
            if stem in path_of_stem:
                raise FormatError(f"{path_of_stem[stem]} and {path} both decode to id {stem!r}")
            path_of_stem[stem] = path
        sources = list(path_of_stem.items())

    # one pass: each input is read and decoded before the next is read, and
    # nothing is written until every input has decoded
    lines, records = [], []
    for uid, source in sources:
        if features_mode:
            path = manifest_feature_path(args.manifest, source)
            emissions = _named(path, model.predict, read_feature_file(path))
        else:
            emissions = _named(source, check_width, load_emission_matrix(source), vocab)
        tagged_text, doc = _decode_one(registry, emissions)
        doc["id"] = uid
        lines.append(json.dumps(doc, sort_keys=True) + "\n")
        records.append(UtteranceRecord(uid=uid, tagged_text=tagged_text, feature_path=source))
    out = _out_dir(args)
    (out / "transcripts.jsonl").write_text("".join(lines))
    write_manifest(out / "hyp_manifest.jsonl", records)
    _write_json(out / "config.json", {
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
    no_intent = [r.uid for r, t in zip(ref_records, ref_ts) if t.intent is None]
    if no_intent:
        raise AlignmentError(f"{args.ref}: reference {no_intent[0]!r} has no intent tag")
    try:
        report = evaluate_corpus(ref_ts, hyp_ts)
    except EmptyReference as exc:
        raise EmptyReference(f"{args.ref}: {exc}") from None
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
    _write_json(out / "config.json", {
        "command": "eval",
        "ref": args.ref,
        "hyp": args.hyp,
        "vocab": args.vocab,
    })


def _cmd_timeline(args) -> None:
    registry = load_vocab(args.vocab)
    emissions = load_emission_matrix(args.emissions)
    rows = _named(args.emissions, emit_timeline, emissions, registry.vocab, registry)
    lines = ["t\ttoken_id\tsurface\tprob\tis_blank"]
    for row in rows:
        flag = "true" if row.is_blank else "false"
        lines.append(f"{row.t}\t{row.token_id}\t{row.surface}\t{row.prob:.6f}\t{flag}")
    out = _out_dir(args)
    (out / "timeline.tsv").write_text("".join(line + "\n" for line in lines))
    _write_json(out / "config.json", {
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
    except (CtcTagError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
