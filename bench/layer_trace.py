"""Per-layer spans for the benchmark, recorded from outside the package.

The package calls each layer through a module or class attribute: `synth.train`
looks up `ctctag.ctc.nll_and_gradient` at call time, `cli._decode_one` calls
`ctctag.cli.greedy_decode`, and so on. `tracing()` swaps those attributes for
wrappers that record one span per call (name, start, end, parent, utterance
id) and puts the original objects back on exit, so untraced runs carry no
wrappers and the package needs no hooks of its own.

`layer_metrics()` turns the spans of one benchmark cycle into the per-layer
metrics named in BENCHMARK.json, which also gives their units and order.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns

import numpy as np

from ctctag import cli, ctc, decoder, evaluate, formats, synth, tag_parser, vocab
from ctctag.tag_parser import AnomalyKind


@dataclass(slots=True)
class Span:
    name: str           # "<layer>.<operation>"
    start: int          # perf_counter_ns
    end: int
    parent: int         # index of the enclosing span, -1 at the top
    uid: str | None     # utterance id, where the call or its caller reveals it
    facts: dict | None  # per-call counts computed from arguments and result


class Tracer:
    """Spans and counters of one traced stretch of the benchmark."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.uid: str | None = None  # utterance id for top-level spans
        self._open: list[int] = []
        self._uid_of_object: dict[int, str] = {}

    def begin(self, name: str, uid: str | None = None) -> int:
        parent = self._open[-1] if self._open else -1
        if uid is None:
            uid = self.spans[parent].uid if parent >= 0 else self.uid
        self.spans.append(Span(name, perf_counter_ns(), 0, parent, uid, None))
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = perf_counter_ns()
        self._open.pop()

    @contextmanager
    def span(self, name: str, uid: str | None = None):
        index = self.begin(name, uid)
        try:
            yield self.spans[index]
        finally:
            self.end(index)

    def remember(self, obj, uid: str | None) -> None:
        """Tie an object the package passes on (features, emissions) to its
        utterance, so later calls that only receive the object get the id."""
        if uid is not None:
            self._uid_of_object[id(obj)] = uid

    def uid_of(self, obj) -> str | None:
        return self._uid_of_object.get(id(obj))

    def write_jsonl(self, path: Path) -> None:
        t0 = self.spans[0].start if self.spans else 0
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name,
                    "start_us": (s.start - t0) / 1e3,
                    "end_us": (s.end - t0) / 1e3,
                    "parent": s.parent,
                    "uid": s.uid,
                }) + "\n")


# ---------------------------------------------------------------------------
# what gets wrapped: (owner, attribute, span name, uid_of, facts)
#   uid_of(tracer, args) -> utterance id or None
#   facts(tracer, args, result) -> dict stored on the span, or None
# A span name of None counts calls under the given counter name instead.


def _uid_from_path(tracer, args):
    return Path(args[0]).stem


def _uid_from_object(position):
    return lambda tracer, args: tracer.uid_of(args[position])


def _ctc_facts(tracer, args, result):
    logits, labels = args[0], args[1]
    return {
        "cells": len(logits) * (2 * len(labels) + 1),
        "nonfinite": 0 if math.isfinite(result[0]) else 1,
    }


def _train_facts(tracer, args, result):
    samples, cfg = args[0], args[2]
    return {"steps": cfg.epochs * math.ceil(len(samples) / cfg.batch_size)}


def _feature_read_facts(tracer, args, result):
    tracer.remember(result, Path(args[0]).stem)
    return {"bytes": Path(args[0]).stat().st_size}


def _emission_read_facts(tracer, args, result):
    tracer.remember(result, Path(args[0]).stem)
    return None


def _predict_facts(tracer, args, result):
    tracer.remember(result, tracer.uid_of(args[1]))
    return None


def _greedy_facts(tracer, args, result):
    blank = args[0].blank_id
    return {"frames": len(result.path), "blank_frames": result.path.count(blank)}


def _parse_facts(tracer, args, result):
    return {"anomalies": result.anomalies}


def _edit_distance_facts(tracer, args, result):
    return {"cells": len(args[0]) * len(args[1])}


def targets() -> list[tuple]:
    return [
        (ctc, "nll_and_gradient", "ctc.nll_and_gradient", None, _ctc_facts),
        (ctc.EmissionMatrix, "__init__", "ctc.emission_validate", None, None),
        (synth, "_windows", "synth.windows", None, None),
        (synth.ToyModel, "logits", "synth.forward", None, None),
        (synth.ToyModel, "predict", "synth.predict", _uid_from_object(1), _predict_facts),
        (synth, "train", "synth.train", None, _train_facts),
        (synth, "load_training_samples", "synth.load_samples", None, None),
        (cli, "gen_corpus", "synth.gen_corpus", None, None),
        (cli, "save_model", "synth.save_model", None, None),
        (cli, "load_model", "synth.load_model", None, None),
        (cli, "read_feature_file", "formats.read_features", _uid_from_path, _feature_read_facts),
        (synth, "read_feature_file", "formats.read_features", _uid_from_path, _feature_read_facts),
        (synth, "write_feature_file", "formats.write_features", _uid_from_path, None),
        (formats, "write_emission_file", "formats.write_emissions", _uid_from_path, None),
        (cli, "load_emission_matrix", "formats.read_emissions", _uid_from_path,
         _emission_read_facts),
        (cli, "greedy_decode", "decoder.greedy", _uid_from_object(0), _greedy_facts),
        (decoder.StreamingDecoder, "push", "decoder.push", None, None),
        (decoder.StreamingDecoder, "result", "decoder.result", None, None),
        (cli, "parse", "tag_parser.parse", None, _parse_facts),
        (tag_parser, "parse", "tag_parser.parse", None, _parse_facts),
        (tag_parser, "render", "tag_parser.render", None, None),
        (cli, "encode_tagged_text", "vocab.encode", None, None),
        (synth, "encode_tagged_text", "vocab.encode", None, None),
        (cli, "decode_tokens", "vocab.decode_tokens", None, None),
        (cli, "load_vocab", "vocab.load", None, None),
        (vocab.TagRegistry, "binding_for_id", None, "vocab.binding_lookups", None),
        (evaluate, "edit_distance", "evaluate.edit_distance", None, _edit_distance_facts),
        (cli, "evaluate_corpus", "evaluate.corpus", None, None),
        (cli, "_decode_one", "cli.decode_one", _uid_from_object(1), None),
    ]


def _span_wrapper(tracer: Tracer, name: str, fn, uid_of, facts):
    def traced(*args, **kwargs):
        index = tracer.begin(name, uid_of(tracer, args) if uid_of else None)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if facts is not None:
            tracer.spans[index].facts = facts(tracer, args, result)
        return result

    return traced


def _count_wrapper(tracer: Tracer, counter: str, fn):
    def counted(*args, **kwargs):
        tracer.counts[counter] += 1
        return fn(*args, **kwargs)

    return counted


@contextmanager
def tracing(tracer: Tracer):
    """Wrap every target attribute for the duration of the block."""
    installed = []
    try:
        for owner, attr, name, uid_or_counter, facts in targets():
            original = owner.__dict__[attr]
            if name is None:
                wrapper = _count_wrapper(tracer, uid_or_counter, original)
            else:
                wrapper = _span_wrapper(tracer, name, original, uid_or_counter, facts)
            setattr(owner, attr, wrapper)
            installed.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(installed):
            setattr(owner, attr, original)
        tracer._uid_of_object.clear()


# ---------------------------------------------------------------------------
# per-layer metrics

ANOMALY_KINDS = [kind.value for kind in AnomalyKind]


def _percentile_us(durations_ns: list[int], q: float) -> float:
    return float(np.percentile(durations_ns, q)) / 1e3 if durations_ns else 0.0


def layer_metrics(tracer: Tracer, traced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced stretch.

    Times are summed span durations; a span's self time is its duration
    minus that of its direct children. `trace.layer_share` is the share of
    `traced_wall_s` spent inside outermost non-cli layer spans. Metrics that
    the benchmark measures itself (gen-data, files written, overhead,
    stream mismatches, round trips, BLAS threads) are filled in by the caller.
    """
    spans = tracer.spans
    dur = [s.end - s.start for s in spans]
    child_ns = [0] * len(spans)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            child_ns[s.parent] += dur[i]

    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def total_s(*names):
        return sum(dur[i] for n in names for i in idx(n)) / 1e9

    def durations(name):
        return [dur[i] for i in idx(name)]

    def fact_sum(name, key):
        return sum(spans[i].facts[key] for i in idx(name))

    def is_cli(i):
        return spans[i].name.startswith("cli.")

    m: dict[str, float] = {}
    ctc_busy = total_s("ctc.nll_and_gradient")
    cells = fact_sum("ctc.nll_and_gradient", "cells")
    m["ctc.calls"] = len(idx("ctc.nll_and_gradient"))
    m["ctc.busy_s"] = ctc_busy
    m["ctc.call_us_p50"] = _percentile_us(durations("ctc.nll_and_gradient"), 50)
    m["ctc.call_us_p99"] = _percentile_us(durations("ctc.nll_and_gradient"), 99)
    m["ctc.lattice_cells"] = cells
    m["ctc.cells_per_s"] = cells / ctc_busy if ctc_busy > 0 else 0.0
    m["ctc.nonfinite"] = fact_sum("ctc.nll_and_gradient", "nonfinite")
    m["ctc.emission_validate_s"] = total_s("ctc.emission_validate")

    m["synth.windows_s"] = total_s("synth.windows")
    m["synth.forward_s"] = total_s("synth.forward")
    m["synth.train_self_s"] = sum(dur[i] - child_ns[i] for i in idx("synth.train")) / 1e9
    m["synth.train_steps"] = fact_sum("synth.train", "steps")
    m["synth.model_io_s"] = total_s("synth.save_model", "synth.load_model")

    m["formats.feature_reads"] = len(idx("formats.read_features"))
    m["formats.feature_read_s"] = total_s("formats.read_features")
    m["formats.feature_read_bytes"] = fact_sum("formats.read_features", "bytes")
    m["formats.emission_write_s"] = total_s("formats.write_emissions")
    m["formats.emission_read_s"] = total_s("formats.read_emissions")

    greedy = idx("decoder.greedy")
    frames = fact_sum("decoder.greedy", "frames")
    m["decoder.greedy_calls"] = len(greedy)
    m["decoder.greedy_s"] = total_s("decoder.greedy")
    m["decoder.greedy_us_p99"] = _percentile_us(durations("decoder.greedy"), 99)
    m["decoder.push_us_p50"] = _percentile_us(durations("decoder.push"), 50)
    m["decoder.push_us_p99"] = _percentile_us(durations("decoder.push"), 99)
    m["decoder.result_us_p50"] = _percentile_us(durations("decoder.result"), 50)
    m["decoder.result_us_p99"] = _percentile_us(durations("decoder.result"), 99)
    m["decoder.blank_fraction"] = (
        fact_sum("decoder.greedy", "blank_frames") / frames if frames else 0.0
    )

    # repairs made while decoding features: parse calls under `decode --model`
    anomalies: Counter = Counter()
    for i in idx("tag_parser.parse"):
        j = spans[i].parent
        while j >= 0 and spans[j].name != "cli.decode":
            j = spans[j].parent
        if j >= 0 and spans[j].facts.get("mode") == "model":
            anomalies.update(a.kind.value for a in spans[i].facts["anomalies"])
    m["tag_parser.parse_calls"] = len(idx("tag_parser.parse"))
    m["tag_parser.parse_s"] = total_s("tag_parser.parse")
    m["tag_parser.anomalies"] = sum(anomalies.values())
    for kind in ANOMALY_KINDS:
        m[f"tag_parser.anomalies.{kind}"] = anomalies[kind]
    m["tag_parser.render_s"] = total_s("tag_parser.render")

    m["vocab.encode_calls"] = len(idx("vocab.encode"))
    m["vocab.encode_s"] = total_s("vocab.encode")
    m["vocab.decode_tokens_s"] = total_s("vocab.decode_tokens")
    m["vocab.binding_lookups"] = tracer.counts["vocab.binding_lookups"]
    m["vocab.load_s"] = total_s("vocab.load")

    m["evaluate.edit_distance_calls"] = len(idx("evaluate.edit_distance"))
    m["evaluate.edit_distance_s"] = total_s("evaluate.edit_distance")
    m["evaluate.dp_cells"] = fact_sum("evaluate.edit_distance", "cells")
    m["evaluate.corpus_s"] = total_s("evaluate.corpus")

    m["cli.train_s"] = total_s("cli.train")
    m["cli.decode_s"] = total_s("cli.decode")
    m["cli.eval_s"] = total_s("cli.eval")
    m["cli.self_s"] = sum(dur[i] - child_ns[i] for i in range(len(spans)) if is_cli(i)) / 1e9

    outermost = sum(
        dur[i] for i, s in enumerate(spans)
        if not is_cli(i) and (s.parent < 0 or is_cli(s.parent))
    )
    m["trace.layer_share"] = outermost / 1e9 / traced_wall_s if traced_wall_s > 0 else 0.0
    m["trace.spans"] = len(spans)
    return m


def gen_data_metrics(tracer: Tracer) -> dict[str, float]:
    """Metrics of one traced `ctctag gen-data`."""
    by_name = Counter()
    for s in tracer.spans:
        by_name[s.name] += (s.end - s.start) / 1e9
    return {
        "synth.gen_s": by_name["synth.gen_corpus"],
        "formats.feature_write_s": by_name["formats.write_features"],
        "cli.gen_data_s": by_name["cli.gen_data"],
    }
