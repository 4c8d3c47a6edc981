"""Workloads, set-up and the timed cycle of the ctctag benchmark.

A run sets up SETUP_REPS times (generate the corpus with `ctctag gen-data`,
an untimed warm-up `train` + `decode` so first-call costs stay out of the
timed metrics, then the set-up model where the workload has one) and reports
the median set-up time. It then repeats one cycle of the user path,
in-process, until the measuring time is used up:

    train       `ctctag train` for a fixed number of epochs (train workloads;
                decode_stream reports the throughput of its set-up trainings)
    write       each held-out prediction written as a .ctcl file, once per
                distinct model file and in every traced cycle
    decode      `ctctag decode --model` on the held-out split    }
    emissions   `ctctag decode --emissions` on the .ctcl files   } DECODE_REPEATS
    eval        `ctctag eval` of the model decode against the    } times
                references
    stream      every frame pushed through StreamingDecoder, then result()
                and parse(): the partial transcript a live display shows
    roundtrip   parse(render(ref)) == ref for every reference

Checks that fail the run: a non-zero exit, a final epoch loss not below the
first, a decode or train rerun that writes different files, a hypothesis
manifest that is not the held-out size, a streaming result that differs from
greedy_decode, a failed round trip, and a set-up whose gen-data writes a
different corpus than the first.

Nothing is deleted while a run lasts: every set-up, command and batch of
.ctcl files writes into a new directory, and run.py removes the work
directory at the end. Each timed stage starts with os.sync(), untimed, so
that the write-back of earlier stages does not fall inside it. Rewriting the
files of an earlier pass instead would time the filesystem: ext4 starts the
write-back of a truncated file when it is closed, which adds a fifth to a
decode. Deleting them would too: ext4 without a journal skips inodes freed
in the last few minutes when it allocates, at a cost per skipped inode, so
files created beside deleted ones cost up to five times more.
Throughputs are medians over cycles; partial-transcript latencies are
percentiles over every streamed frame of the run. An operation is one CLI
call, one utterance handed to a timed or set-up `train`, or one epoch loss;
it fails on a non-zero exit, a skipped utterance or a non-finite loss.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import resource
import statistics
import warnings
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

import envinfo
import layer_trace
from ctctag import cli, decoder, formats, synth, tag_parser, vocab
from ctctag.errors import CtcTagError
from layer_trace import Tracer

HERE = Path(__file__).resolve().parent
SETUP_REPS = 7
DECODE_REPEATS = 3
WARMUP_UTTERANCES = 32

CONTRACT = json.loads((HERE.parent / "BENCHMARK.json").read_text())
# metric name -> unit, in the order BENCHMARK.json lists them
END_TO_END_UNITS = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}


@dataclass(frozen=True)
class Workload:
    name: str
    grammar: dict        # SynthConfig fields passed to gen-data --config
    n_train: int
    n_heldout: int
    train_epochs: int    # epochs of the timed `train`; 0: no training per cycle
    setup_epochs: int    # epochs of the model trained in set-up; 0: none


def load_workloads(path: Path = HERE / "workloads.json") -> dict[str, Workload]:
    doc = json.loads(path.read_text())["workloads"]
    return {
        name: Workload(
            name=name,
            grammar=w["grammar"],
            n_train=w["n_train"],
            n_heldout=w["n_heldout"],
            train_epochs=w["train_epochs"],
            setup_epochs=w["setup_epochs"],
        )
        for name, w in doc.items()
    }


class CliFailure(Exception):
    """A ctctag command exited non-zero; the run cannot go on."""


def tree_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def count_files(root: Path) -> int:
    return sum(1 for p in root.rglob("*") if p.is_file())


class Bench:
    """One benchmark run: its corpus, counters and failed checks."""

    def __init__(self, spec: Workload, seed: int, work: Path):
        self.spec = spec
        self.seed = seed
        self.work = work
        work.mkdir(parents=True, exist_ok=True)
        self.grammar = work / "grammar.json"
        self.grammar.write_text(json.dumps(spec.grammar))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.tracer: Tracer | None = None
        self.setup_train_rates: list[float] = []
        self.setup_losses: list[float] = []
        self._emissions: tuple[str, list, list | None] | None = None
        self._first_model: bytes | None = None
        self._corpus: str | None = None
        self._dirs = 0

    def new_dir(self, name: str) -> Path:
        """A path in the work directory that no earlier pass has used."""
        self._dirs += 1
        return self.work / f"{name}{self._dirs}"

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)

    # -- the program's entry points ----------------------------------------

    def ctctag(self, *argv, mode: str | None = None) -> None:
        """Run one ctctag command in-process, keeping its output off ours."""
        argv = [str(a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.span("cli." + argv[0].replace("-", "_")) if self.tracer else nullcontext()
        with span as s, redirect_stdout(out), redirect_stderr(err):
            if s is not None:
                s.facts = {"mode": mode}
            code = cli.main(argv)
        self.attempted += 1
        if code != 0:
            self.failed += 1
            raise CliFailure(f"ctctag {' '.join(argv)} exited {code}: {err.getvalue().strip()}")

    def train(self, manifest: Path, out: Path, epochs: int, n_utterances: int):
        """`ctctag train`; returns (seconds, per-epoch mean losses)."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = perf_counter()
            self.ctctag("train", "--manifest", manifest, "--vocab", self.vocab_path,
                        "--out", out, "--epochs", epochs)
            seconds = perf_counter() - t0
        skipped = sum("skipping utterance" in str(w.message) for w in caught)
        rows = (out / "loss_log.tsv").read_text().splitlines()[1:]
        losses = [float(row.split("\t")[1]) for row in rows]
        self.attempted += n_utterances + len(losses)
        self.failed += skipped + sum(not math.isfinite(x) for x in losses)
        self.check(losses[-1] < losses[0],
                   f"final_nll {losses[-1]} is not below the first epoch's {losses[0]}")
        return seconds, losses

    def gen_data(self, out: Path) -> None:
        self.ctctag("gen-data", "--out", out, "--seed", self.seed,
                    "--n-utterances", self.spec.n_train + self.spec.n_heldout,
                    "--split", self.spec.n_train, "--config", self.grammar)

    # -- set-up -------------------------------------------------------------

    def set_up(self, gen_tracer: Tracer | None = None) -> float:
        """Generate the corpus, warm up, train the set-up model; seconds.

        The warm-up comes first so that the set-up trainings, whose rate is
        decode_stream's train_utt_per_s, are not first calls. A gen_tracer
        records the spans of the gen-data.
        """
        root = self.new_dir("setup")
        os.sync()
        t0 = perf_counter()
        self.data = root / "data"
        self.vocab_path = self.data / "vocab.json"
        self.tracer = gen_tracer
        try:
            with layer_trace.tracing(gen_tracer) if gen_tracer else nullcontext():
                self.gen_data(self.data)
        finally:
            self.tracer = None
        self._warm_up(root / "warmup")
        if self.spec.setup_epochs:
            seconds, self.setup_losses = self.train(
                self.data / "manifest_train.jsonl", root / "model",
                self.spec.setup_epochs, self.spec.n_train)
            self.setup_train_rates.append(self.spec.n_train * self.spec.setup_epochs / seconds)
            self.setup_model = root / "model" / "model.json"
        seconds = perf_counter() - t0
        corpus = tree_digest(self.data)
        self._corpus = self._corpus or corpus
        self.check(corpus == self._corpus,
                   "a second gen-data with the same seed wrote a different corpus")
        return seconds

    def _warm_up(self, out: Path) -> None:
        records = synth.read_manifest(self.data / "manifest_train.jsonl")[:WARMUP_UTTERANCES]
        manifest = self.data / "manifest_warmup.jsonl"
        synth.write_manifest(manifest, records)
        self.ctctag("train", "--manifest", manifest, "--vocab", self.vocab_path,
                    "--out", out / "train", "--epochs", 1)
        self.ctctag("decode", "--model", out / "train" / "model.json", "--manifest", manifest,
                    "--vocab", self.vocab_path, "--out", out / "decode")

    def load_references(self) -> None:
        self.registry = vocab.load_vocab(self.vocab_path)
        self.heldout_manifest = self.data / "manifest_heldout.jsonl"
        self.heldout = synth.read_manifest(self.heldout_manifest)
        self.refs = [
            tag_parser.parse(vocab.encode_tagged_text(self.registry, r.tagged_text), self.registry)
            for r in self.heldout
        ]

    def emission_files(self, model_path: Path, stages: dict):
        """Held-out emissions of a model and the .ctcl files holding them.

        The benchmark predicts in-process (untimed) and writes the files in
        the "write" stage once per distinct model file, and again in every
        traced cycle so that the trace always measures the writes.
        """
        digest = hashlib.sha256(model_path.read_bytes()).hexdigest()
        if self._emissions is None or self._emissions[0] != digest:
            model = synth.load_model(model_path)
            emissions = [
                (r.uid, model.predict(formats.read_feature_file(self.data / r.feature_path)))
                for r in self.heldout
            ]
            self._emissions = (digest, emissions, None)
        digest, emissions, paths = self._emissions
        if paths is None or self.tracer:
            out = self.new_dir("ctcl")
            out.mkdir()
            paths = [out / f"{uid}.ctcl" for uid, _ in emissions]
            with self.stage("write", stages):
                for path, (_, em) in zip(paths, emissions):
                    formats.write_emission_file(path, em.probs, formats.EMISSION_KIND_PROBS)
            self._emissions = (digest, emissions, paths)
        return emissions, paths

    # -- the timed cycle ----------------------------------------------------

    @contextmanager
    def stage(self, name: str, stages: dict):
        os.sync()
        with layer_trace.tracing(self.tracer) if self.tracer else nullcontext():
            t0 = perf_counter()
            try:
                yield
            finally:
                stages[name] = perf_counter() - t0

    def cycle(self, k: int) -> dict:
        spec, n = self.spec, self.spec.n_heldout
        cyc = self.new_dir("cycle")
        stages: dict[str, float] = {}
        rec: dict = {"stages": stages}

        if spec.train_epochs:
            with self.stage("train", stages):
                seconds, losses = self.train(self.data / "manifest_train.jsonl", cyc / "train",
                                             spec.train_epochs, spec.n_train)
            rec["train_utt_per_s"] = spec.n_train * spec.train_epochs / seconds
            rec["final_nll"] = losses[-1]
            model = cyc / "train" / "model.json"
            if self._first_model is None:
                self._first_model = model.read_bytes()
            self.check(model.read_bytes() == self._first_model,
                       "a second train on the same inputs wrote a different model")
        else:
            rec["final_nll"] = self.setup_losses[-1]
            model = self.setup_model

        # decode, emissions and eval repeat within a cycle: they are short,
        # and writing a file per utterance makes the decodes the noisiest
        emissions, paths = self.emission_files(model, stages)
        decode_args = ("--vocab", self.vocab_path, "--out")
        for key in ("decode_utt_per_s", "emission_decode_utt_per_s", "eval_utt_per_s"):
            rec[key] = []
        for r in range(DECODE_REPEATS):
            decoded, from_emissions = cyc / f"decode{r}", cyc / f"emissions{r}"
            evaluated = cyc / f"eval{r}"
            with self.stage(f"decode{r}", stages):
                self.ctctag("decode", "--model", model, "--manifest", self.heldout_manifest,
                            *decode_args, decoded, mode="model")
            rec["decode_utt_per_s"].append(n / stages[f"decode{r}"])
            self._check_transcripts(decoded)
            if k == 0:
                digest = tree_digest(decoded)
                if r == 0:
                    first_decode = digest
                self.check(digest == first_decode,
                           "a second decode of the same inputs wrote different files")

            with self.stage(f"emissions{r}", stages):
                self.ctctag("decode", "--emissions", *paths, *decode_args,
                            from_emissions, mode="emissions")
            rec["emission_decode_utt_per_s"].append(n / stages[f"emissions{r}"])
            self._check_transcripts(from_emissions)

            with self.stage(f"eval{r}", stages):
                self.ctctag("eval", "--ref", self.heldout_manifest,
                            "--hyp", decoded / "hyp_manifest.jsonl",
                            "--vocab", self.vocab_path, "--out", evaluated)
            rec["eval_utt_per_s"].append(n / stages[f"eval{r}"])

        report = json.loads((evaluated / "report.json").read_text())
        self.check(report["n_utterances"] == n,
                   f"eval scored {report['n_utterances']} of {n} utterances")
        rec["quality"] = {
            "heldout_f1": report["f1"],
            "heldout_wer": report["wer"],
            "intent_accuracy": report["intent_accuracy"],
        }

        with self.stage("stream", stages):
            rec["partial_ns"], rec["stream_mismatches"] = self.stream(emissions)
        self.check(rec["stream_mismatches"] == 0,
                   f"{rec['stream_mismatches']} streamed utterances differ from greedy_decode")

        with self.stage("roundtrip", stages):
            rec["roundtrip_failures"] = self.roundtrip()
        self.check(rec["roundtrip_failures"] == 0,
                   f"parse(render(ref)) != ref for {rec['roundtrip_failures']} references")

        rec["files_written"] = count_files(cyc)
        return rec

    def _check_transcripts(self, out: Path) -> None:
        written = len(synth.read_manifest(out / "hyp_manifest.jsonl"))
        self.check(written == self.spec.n_heldout,
                   f"{out.name} decoded {written} of {self.spec.n_heldout} utterances")

    def stream(self, emissions) -> tuple[np.ndarray, int]:
        """Per-frame push -> result -> parse latencies in ns, and utterances
        whose final streaming result differs from greedy_decode."""
        registry = self.registry
        latencies: list[int] = []
        mismatches = 0
        for uid, em in emissions:
            if self.tracer:
                self.tracer.uid = uid
            stream = decoder.StreamingDecoder(em.v_total)
            for row in em.probs:
                t0 = perf_counter_ns()
                stream.push(row)
                partial = stream.result()
                tag_parser.parse(partial.labels, registry, frame_spans=partial.frame_spans)
                latencies.append(perf_counter_ns() - t0)
            if stream.result() != decoder.greedy_decode(em):
                mismatches += 1
        if self.tracer:
            self.tracer.uid = None
        # an array, not a list of ints, so that peak_rss_mb does not grow
        # with the number of cycles a run fits in
        return np.asarray(latencies, dtype=np.int64), mismatches

    def roundtrip(self) -> int:
        failures = 0
        for ref in self.refs:
            try:
                text = tag_parser.render(ref, self.registry)
                ok = tag_parser.parse(vocab.encode_tagged_text(self.registry, text), self.registry) == ref
            except CtcTagError:
                ok = False
            failures += not ok
        return failures


# ---------------------------------------------------------------------------
# a whole run


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end_metrics(bench: Bench, records: list[dict], setup_times: list[float]) -> dict:
    spec = bench.spec
    if spec.train_epochs:
        train_rates = [r["train_utt_per_s"] for r in records]
    else:
        train_rates = bench.setup_train_rates
    latencies = np.concatenate([r["partial_ns"] for r in records])

    def median(key):
        return statistics.median(x for r in records for x in np.atleast_1d(r[key]))

    return {
        "train_utt_per_s": statistics.median(train_rates),
        "decode_utt_per_s": median("decode_utt_per_s"),
        "emission_decode_utt_per_s": median("emission_decode_utt_per_s"),
        "eval_utt_per_s": median("eval_utt_per_s"),
        "partial_us_p50": float(np.percentile(latencies, 50)) / 1e3,
        "partial_us_p99": float(np.percentile(latencies, 99)) / 1e3,
        "intent_accuracy": records[-1]["quality"]["intent_accuracy"],
        "peak_rss_mb": _peak_rss_mib(),
        "setup_s": statistics.median(setup_times),
    }


def repeat_for(seconds: float, step) -> list:
    """Call step(i) for i = 0, 1, ... while the next call, if it takes as long
    as the last one, still ends within `seconds`; at least once."""
    start = perf_counter()
    results, last = [], 0.0
    while not results or perf_counter() - start + last <= seconds:
        t0 = perf_counter()
        results.append(step(len(results)))
        last = perf_counter() - t0
    return results


def run(spec: Workload, seed: int, seconds: float, trace: bool, work: Path,
        trace_out: Path | None = None) -> tuple[dict, list[str]]:
    """One benchmark run; returns the result object and human-readable notes."""
    bench = Bench(spec, seed, work)
    # a traced run traces the gen-data of its last set-up
    gen = Tracer() if trace else None
    setup_times = [bench.set_up(gen if i == SETUP_REPS - 1 else None) for i in range(SETUP_REPS)]
    bench.load_references()
    notes = [f"setup_s samples {', '.join(f'{t:.3f}' for t in setup_times)}"]

    if not trace:
        records = repeat_for(seconds, bench.cycle)
        metrics = end_to_end_metrics(bench, records, setup_times)
        n_frames = sum(len(r["partial_ns"]) for r in records)
        notes.append(f"cycles {len(records)}; partial_us over {n_frames} frames")
        quality = records[-1]["quality"]
        notes.append(f"quality heldout_f1 {quality['heldout_f1']} heldout_wer "
                     f"{quality['heldout_wer']} final_nll {records[-1]['final_nll']}")
        if not spec.train_epochs:
            notes.append(f"train_utt_per_s from {len(bench.setup_train_rates)} set-up trainings")
        units = END_TO_END_UNITS
    else:
        metrics, trace_notes = _traced_run(bench, gen, seconds, trace_out)
        notes += trace_notes
        units = PER_LAYER_UNITS
    notes += [f"problem: {p}" for p in bench.problems]
    return {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }, notes


def _traced_run(bench: Bench, gen: Tracer, seconds: float, trace_out: Path | None):
    """Pairs of an untraced and a traced cycle.

    Per-layer metrics are medians over the traced cycles; gen-data metrics
    come from `gen`, the spans of a set-up's gen-data; trace.overhead_frac
    compares the stage walls of traced and untraced cycles.
    """
    last = Tracer()  # only the latest traced cycle's spans are kept

    def pair(i):
        nonlocal last
        untraced = bench.cycle(2 * i)["stages"]
        tracer = last = Tracer()
        bench.tracer = tracer
        try:
            rec = bench.cycle(2 * i + 1)
        finally:
            bench.tracer = None
        traced = rec["stages"]
        m = layer_trace.layer_metrics(tracer, sum(traced.values()))
        m["decoder.stream_mismatches"] = rec["stream_mismatches"]
        m["tag_parser.roundtrip_failures"] = rec["roundtrip_failures"]
        m["cli.files_written"] = rec["files_written"]
        m["evaluate.heldout_f1"] = rec["quality"]["heldout_f1"]
        m["evaluate.heldout_wer"] = rec["quality"]["heldout_wer"]
        m["synth.final_nll"] = rec["final_nll"]
        # traced cycles also write .ctcl files; compare the stages both ran
        common = untraced.keys() & traced.keys()
        return sum(untraced[s] for s in common), sum(traced[s] for s in common), m

    pairs = repeat_for(seconds, pair)
    per_cycle = [m for _, _, m in pairs]
    metrics = {name: statistics.median(m[name] for m in per_cycle) for name in per_cycle[0]}
    metrics.update(layer_trace.gen_data_metrics(gen))
    metrics["trace.overhead_frac"] = (
        statistics.median(w for _, w, _ in pairs)
        / statistics.median(w for w, _, _ in pairs) - 1.0
    )
    metrics["synth.blas_threads"] = envinfo.blas_threads()[0]
    notes = [f"traced cycles {len(pairs)}, untraced cycles {len(pairs)}"]
    if trace_out is not None:
        trace_out.parent.mkdir(parents=True, exist_ok=True)
        last.write_jsonl(trace_out)
        notes.append(f"spans of the last traced cycle: {trace_out}")
    return metrics, notes

