"""Synthetic tagged-speech corpus plus a small trainable frame classifier.

The generator draws utterances from a toy grammar: an intent tag, one lead
word that identifies the intent, filler words, and typed entity phrases
wrapped in begin/end tags. Transcription words emit a few frames of a fixed
per-word embedding plus Gaussian noise; tag tokens emit no frames at all, so
a model can only learn them from surrounding context.

Determinism contract: utterance idx draws from np.random.default_rng([seed,
idx]) in a fixed order, so corpora are byte-identical per (seed, cfg) and
generation could be parallelized per utterance without changing output.
"""

from __future__ import annotations

import copy
import json
import math
import os
import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import ctc
from .ctc import EmissionMatrix, as_rows
from .errors import (
    FormatError,
    InfeasibleAlignment,
    InvalidValue,
    ShapeError,
    UnknownToken,
    UnsupportedVersion,
    UsageError,
    named,
)
from .formats import _narrow_features, check_finite, read_feature_file, write_feature_file
from .vocab import (
    TagKind,
    TagRegistry,
    assign_tag,
    build_vocab,
    encode_tagged_text,
    read_json_object,
    read_text,
)

# rng stream index for the embedding table; utterance streams use the
# utterance index, which stays below 2**32
_EMBEDDING_STREAM = 2**32

# Lead lexicons are per intent and disjoint from everything else: the first
# word of an utterance pins down its intent, which would otherwise have no
# acoustic evidence at all.
DEFAULT_INTENTS: dict[str, tuple[str, ...]] = {
    "CALENDER_SET": ("put", "set", "schedule"),
    "CALENDER_QUERY": ("when", "what", "show"),
    "REMINDER_SET": ("remind", "note", "flag"),
}

DEFAULT_ENTITY_TYPES: dict[str, tuple[str, ...]] = {
    "EVENT_NAME": ("meeting", "standup", "review", "lunch"),
    "PERSON": ("paul", "mary", "alice", "omar"),
    "DATE": ("tomorrow", "monday", "friday", "today"),
    "TIME": ("ten", "am", "noon", "three"),
}

DEFAULT_FILLERS: tuple[str, ...] = ("with", "for", "a", "the", "please", "at", "on", "my")


def _to_json(value):
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    if isinstance(value, dict):
        return {k: _to_json(v) for k, v in value.items()}
    return value


def _from_json(value, hint, name: str):
    """`value` as the declared type `hint`: lists become tuples, an int may
    stand for a float, and nothing else converts (a bool is only a bool).
    NaN and Infinity, which are not JSON numbers, are no float either."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is tuple and isinstance(value, list):
        items = args[:1] * len(value) if args[-1] is Ellipsis else args
        if len(items) == len(value):
            return tuple(_from_json(v, t, name) for v, t in zip(value, items))
    elif origin is dict and isinstance(value, dict):
        return {k: _from_json(v, args[1], name) for k, v in value.items()}
    elif type(value) is hint or (hint is float and type(value) is int):
        if hint is not float or math.isfinite(value):
            return hint(value)
    expected = hint if origin else hint.__name__
    raise FormatError(f"config field {name!r}: expected {expected}, got {json.dumps(value)}")


class _JsonConfig:
    """JSON form of a config dataclass, derived from its field types."""

    def to_dict(self) -> dict:
        return {f.name: _to_json(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, doc: dict):
        """FormatError naming the field for an unknown key or a value whose
        JSON type is not the field's; the dataclass checks the ranges."""
        hints = get_type_hints(cls)
        for key in doc:
            if key not in hints:
                raise FormatError(f"unknown {cls.__name__} field {key!r}")
        return cls(**{k: _from_json(v, hints[k], k) for k, v in doc.items()})


@dataclass(frozen=True)
class SynthConfig(_JsonConfig):
    """Grammar and acoustics of the synthetic corpus.

    fillers_per_utterance counts the intent lead word, so its lower bound
    must be at least 1. Entity types are drawn without replacement per
    utterance: two same-type entities in a row would be acoustically
    indistinguishable from one longer phrase, since tags are silent.
    """

    seed: int = 42
    n_utterances: int = 2200
    feature_dim: int = 16
    frames_per_token: tuple[int, int] = (2, 4)
    noise_sigma: float = 0.3
    intents: dict[str, tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_INTENTS)
    )
    entity_types: dict[str, tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_ENTITY_TYPES)
    )
    filler_lexicon: tuple[str, ...] = DEFAULT_FILLERS
    speaker_change_probability: float = 0.0
    entities_per_utterance: tuple[int, int] = (1, 2)
    fillers_per_utterance: tuple[int, int] = (2, 4)
    phrase_words: tuple[int, int] = (2, 2)

    def __post_init__(self):
        if self.seed < 0:
            raise UsageError("seed must be >= 0")
        if self.n_utterances < 1 or self.n_utterances >= _EMBEDDING_STREAM:
            raise UsageError("n_utterances out of range")
        if self.feature_dim < 1:
            raise UsageError("feature_dim must be >= 1")
        if self.noise_sigma < 0:
            raise UsageError("noise_sigma must be >= 0")
        if not 0.0 <= self.speaker_change_probability <= 1.0:
            raise UsageError("speaker_change_probability must be in [0, 1]")
        for name, (lo, hi) in (
            ("frames_per_token", self.frames_per_token),
            ("entities_per_utterance", self.entities_per_utterance),
            ("fillers_per_utterance", self.fillers_per_utterance),
            ("phrase_words", self.phrase_words),
        ):
            if lo > hi:
                raise UsageError(f"{name} range {lo}..{hi} is empty")
        if self.frames_per_token[0] < 1:
            raise UsageError("frames_per_token must be >= 1")
        if self.fillers_per_utterance[0] < 1:
            raise UsageError("each utterance needs at least the intent lead word")
        if self.entities_per_utterance[0] < 0:
            raise UsageError("entities_per_utterance must be >= 0")
        if self.entities_per_utterance[1] > len(self.entity_types):
            raise UsageError("entities_per_utterance exceeds the number of entity types")
        if self.entities_per_utterance[1] > self.fillers_per_utterance[0]:
            raise UsageError(
                "entities_per_utterance must not exceed the filler minimum: "
                "every entity phrase needs its own preceding filler word"
            )
        if len(self.filler_lexicon) < 2:
            raise UsageError("filler lexicon needs at least 2 words")
        if self.phrase_words[0] < 1:
            raise UsageError("phrase_words must be >= 1")
        if self.entity_types and self.phrase_words[1] > min(
            len(v) for v in self.entity_types.values()
        ):
            raise UsageError("phrase_words exceeds the smallest entity lexicon")
        if not self.intents:
            raise UsageError("need at least one intent")
        seen: dict[str, str] = {}
        lexicons = [("filler", self.filler_lexicon)]
        lexicons += [(f"intent {k}", v) for k, v in self.intents.items()]
        lexicons += [(f"entity {k}", v) for k, v in self.entity_types.items()]
        for group, words in lexicons:
            if not words:
                raise UsageError(f"{group} lexicon is empty")
            for w in words:
                if not w or w.split() != [w] or any(c in w for c in "@!<>"):
                    raise UsageError(f"bad lexicon word {w!r} in {group}")
                if w in seen:
                    raise UsageError(f"{w!r} appears in both {seen[w]} and {group}")
                seen[w] = group

    def all_words(self) -> list[str]:
        words = set(self.filler_lexicon)
        for lex in self.intents.values():
            words.update(lex)
        for lex in self.entity_types.values():
            words.update(lex)
        return sorted(words)


#: the older name: default_config(seed=..., n_utterances=...) is a SynthConfig
default_config = SynthConfig


def _grammar_tags(cfg: SynthConfig) -> list[tuple[str, TagKind, str | None]]:
    """(surface, kind, entity type) of every tag the grammar draws, in binding order."""
    tags = [(f"@{name}@", TagKind.INTENT, None) for name in sorted(cfg.intents)]
    tags += [(f"!{name}!", TagKind.ENTITY_BEGIN, name) for name in sorted(cfg.entity_types)]
    return tags + [("!END!", TagKind.ENTITY_END, None), ("<SPK>", TagKind.SPEAKER_CHANGE, None)]


def build_registry(cfg: SynthConfig, placeholder_count: int = 16) -> TagRegistry:
    """Vocabulary over the grammar's words plus bindings for every tag."""
    tags = _grammar_tags(cfg)
    if placeholder_count < len(tags):
        raise UsageError(f"need at least {len(tags)} placeholders for this grammar")
    registry = TagRegistry(build_vocab(cfg.all_words(), placeholder_count))
    for tag in tags:
        registry = assign_tag(registry, *tag)
    return registry


def _check_tags_bound(cfg: SynthConfig, registry: TagRegistry) -> None:
    for surface, kind, _ in _grammar_tags(cfg):
        if kind is TagKind.SPEAKER_CHANGE and cfg.speaker_change_probability == 0:
            continue
        if registry.binding_for_surface(surface) is None:
            raise UnknownToken(f"grammar tag {surface} is not bound in the registry")


def embedding_table(cfg: SynthConfig) -> dict[str, np.ndarray]:
    """Fixed per-word embeddings, a pure function of (seed, word set, dim)."""
    words = cfg.all_words()
    rng = np.random.default_rng([cfg.seed, _EMBEDDING_STREAM])
    vectors = rng.normal(0.0, 1.0, size=(len(words), cfg.feature_dim))
    return {w: vectors[i] for i, w in enumerate(words)}


def _choice(rng: np.random.Generator, options) -> str:
    return options[int(rng.integers(0, len(options)))]


def _sample_segments(cfg: SynthConfig, rng: np.random.Generator) -> list[list[str]]:
    """Draw one utterance as token segments, in a fixed rng order.

    Segments: [intent tag], [lead word], filler words, entity phrases, and
    optionally a zero-width speaker tag between segments. Three constraints
    keep silent tags acoustically inferable: entity types never repeat
    within an utterance, each entity phrase follows a filler word (never
    another entity), and no word immediately repeats.
    """
    intent = _choice(rng, sorted(cfg.intents))
    n_fillers = int(rng.integers(cfg.fillers_per_utterance[0], cfg.fillers_per_utterance[1] + 1))
    n_entities = int(rng.integers(cfg.entities_per_utterance[0], cfg.entities_per_utterance[1] + 1))
    lead = _choice(rng, cfg.intents[intent])
    types = [str(t) for t in rng.permutation(sorted(cfg.entity_types))[:n_entities]]
    # each entity goes into its own gap after one of the filler words
    gaps = sorted(int(g) for g in rng.choice(n_fillers, size=n_entities, replace=False))

    segments = [[f"@{intent}@"], [lead]]
    last_word = lead
    by_gap = dict(zip(gaps, types))
    for slot in range(n_fillers):
        if slot > 0:
            options = [w for w in cfg.filler_lexicon if w != last_word]
            last_word = _choice(rng, options)
            segments.append([last_word])
        if slot in by_gap:
            etype = by_gap[slot]
            k = int(rng.integers(cfg.phrase_words[0], cfg.phrase_words[1] + 1))
            phrase = [str(w) for w in rng.permutation(cfg.entity_types[etype])[:k]]
            segments.append([f"!{etype}!", *phrase, "!END!"])
            last_word = phrase[-1]
    if cfg.speaker_change_probability > 0 and rng.random() < cfg.speaker_change_probability:
        pos = int(rng.integers(1, len(segments) + 1))
        segments.insert(pos, ["<SPK>"])
    return segments


def _sample_frame_counts(
    cfg: SynthConfig, rng: np.random.Generator, n_words: int, min_total: int
) -> np.ndarray:
    lo, hi = cfg.frames_per_token
    if n_words * hi < min_total:
        raise InfeasibleAlignment(
            f"frames_per_token {lo}..{hi} cannot cover {min_total} labels "
            f"with {n_words} words"
        )
    # resample whole vectors so no word's count is biased by the constraint
    while True:
        counts = rng.integers(lo, hi + 1, size=n_words)
        if int(counts.sum()) >= min_total:
            return counts


def _render_features(
    cfg: SynthConfig,
    rng: np.random.Generator,
    words: list[str],
    counts: np.ndarray,
    table: dict[str, np.ndarray],
) -> np.ndarray:
    rows = []
    for word, k in zip(words, counts):
        noise = rng.standard_normal((int(k), cfg.feature_dim))
        rows.append(table[word] + cfg.noise_sigma * noise)
    return np.vstack(rows)


@dataclass(frozen=True)
class UtteranceRecord:
    uid: str
    tagged_text: str
    feature_path: str  # relative to the manifest's directory


def sample_utterance(
    cfg: SynthConfig, registry: TagRegistry, idx: int, table: dict[str, np.ndarray]
) -> tuple[str, list[int], np.ndarray]:
    """Draw utterance idx: (tagged text, label ids, feature frames)."""
    rng = np.random.default_rng([cfg.seed, idx])
    segments = _sample_segments(cfg, rng)
    tagged_text = " ".join(tok for seg in segments for tok in seg)
    labels = encode_tagged_text(registry, tagged_text)
    words = [registry.surfaces[i] for i in labels if registry.binding_by_id[i] is None]
    counts = _sample_frame_counts(cfg, rng, len(words), ctc.min_frames(labels))
    features = _render_features(cfg, rng, words, counts, table)
    return tagged_text, labels, features


def gen_corpus(cfg: SynthConfig, registry: TagRegistry, out_dir: str | Path) -> list[UtteranceRecord]:
    """Write features/*.ctcf plus manifest.jsonl under out_dir. Every
    utterance is drawn and narrowed to its stored float32 features before
    out_dir is made, so one that cannot be drawn or stored writes nothing;
    `write_feature_file` then stores those float32 arrays as they are."""
    _check_tags_bound(cfg, registry)
    table = embedding_table(cfg)
    out = Path(out_dir)
    records, stored = [], []
    for idx in range(cfg.n_utterances):
        tagged_text, _, features = sample_utterance(cfg, registry, idx, table)
        uid = f"utt_{idx:05d}"
        rel = f"features/{uid}.ctcf"
        path = out / rel
        stored.append((path, _narrow_features(path, features)))
        records.append(UtteranceRecord(uid=uid, tagged_text=tagged_text, feature_path=rel))
    (out / "features").mkdir(parents=True, exist_ok=True)
    for path, features in stored:
        write_feature_file(path, features)
    write_manifest(out / "manifest.jsonl", records)
    return records


def write_manifest(path: str | Path, records: list[UtteranceRecord]) -> None:
    lines = [
        json.dumps(
            {"id": r.uid, "features": r.feature_path, "tagged_text": r.tagged_text},
            sort_keys=True,
        )
        for r in records
    ]
    Path(path).write_text("".join(line + "\n" for line in lines))


def read_manifest(path: str | Path) -> list[UtteranceRecord]:
    """One record per non-blank line; FormatError naming the line for a bad
    line or an id that an earlier line holds."""
    records = []
    line_of_id: dict[str, int] = {}
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
            values = [doc[key] for key in ("id", "tagged_text", "features")]
        except (ValueError, KeyError, TypeError) as exc:
            raise FormatError(f"{path}:{lineno}: bad manifest line: {exc}") from exc
        if not all(isinstance(v, str) for v in values):
            raise FormatError(f"{path}:{lineno}: id, tagged_text and features must be strings")
        first = line_of_id.setdefault(values[0], lineno)
        if first != lineno:
            raise FormatError(f"{path}:{lineno}: id {values[0]!r} repeats line {first}")
        records.append(UtteranceRecord(*values))
    return records


def manifest_feature_path(manifest_path: str | Path, feature_path: str) -> str:
    """The file a manifest's feature path names, relative to the manifest's
    directory. FormatError if it is absolute or contains '..', since it
    would then leave that directory, or holds a NUL, which no path can."""
    if feature_path.startswith("/") or ".." in feature_path.split("/") or "\0" in feature_path:
        raise FormatError(
            f"{manifest_path}: feature path {feature_path!r} must be relative, without '..' or NUL"
        )
    return os.path.join(os.path.dirname(manifest_path), feature_path)


# ---------------------------------------------------------------------------
# model


def _windows(features: np.ndarray, receptive_field: int) -> np.ndarray:
    """Stack each frame with its neighbors, zero-padded at the edges."""
    half = receptive_field // 2
    t_frames, dim = features.shape
    padded = np.zeros((t_frames + 2 * half, dim))
    padded[half : half + t_frames] = features
    # column block r of row t is frame t + r - half
    return np.hstack([padded[r : r + t_frames] for r in range(receptive_field)])


@dataclass
class ToyModel:
    """Windowed MLP frame classifier: tanh hidden layer, softmax output."""

    w1: np.ndarray  # (receptive_field * feature_dim, hidden)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden, v_total)
    b2: np.ndarray  # (v_total,)
    receptive_field: int = 5

    def __post_init__(self):
        if self.receptive_field < 1 or self.receptive_field % 2 == 0:
            raise InvalidValue("receptive_field must be odd and >= 1")
        if (self.w1.ndim, self.b1.ndim, self.w2.ndim, self.b2.ndim) != (2, 1, 2, 1):
            raise ShapeError("w1 and w2 must be 2-D, b1 and b2 1-D")
        if self.w1.shape[0] % self.receptive_field != 0:
            raise ShapeError("w1 rows must be receptive_field * feature_dim")
        if self.w1.shape[1] != self.b1.shape[0] or self.w2.shape[0] != self.b1.shape[0]:
            raise ShapeError("hidden dimensions disagree")
        if self.w2.shape[1] != self.b2.shape[0]:
            raise ShapeError("output dimensions disagree")

    @property
    def feature_dim(self) -> int:
        return self.w1.shape[0] // self.receptive_field

    @property
    def hidden_width(self) -> int:
        return self.w1.shape[1]

    @property
    def v_total(self) -> int:
        return self.w2.shape[1]

    @classmethod
    def init(
        cls,
        feature_dim: int,
        v_total: int,
        rng: np.random.Generator,
        receptive_field: int = 5,
        hidden_width: int = 64,
    ) -> "ToyModel":
        fan_in = receptive_field * feature_dim
        w1 = rng.normal(0.0, 1.0 / math.sqrt(fan_in), size=(fan_in, hidden_width))
        w2 = rng.normal(0.0, 1.0 / math.sqrt(hidden_width), size=(hidden_width, v_total))
        return cls(
            w1=w1,
            b1=np.zeros(hidden_width),
            w2=w2,
            b2=np.zeros(v_total),
            receptive_field=receptive_field,
        )

    def logits(self, features: np.ndarray) -> np.ndarray:
        feats = as_rows(features, "features", 1)
        if feats.shape[1] != self.feature_dim:
            raise ShapeError(f"features must be (T, {self.feature_dim}), got {feats.shape}")
        return self._forward(_windows(feats, self.receptive_field))[1]

    def _forward(self, windows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The hidden activations and the logits of window rows."""
        hidden = np.tanh(windows @ self.w1 + self.b1)
        return hidden, hidden @ self.w2 + self.b2

    def predict(self, features: np.ndarray) -> EmissionMatrix:
        """Frame-synchronous emission probabilities (T_out == T_in)."""
        return EmissionMatrix.from_logits(self.logits(features))


MODEL_FILE_VERSION = 1

# ToyModel's weight fields, in the order train's gradients follow
_WEIGHTS = ("w1", "b1", "w2", "b2")


def save_model(model: ToyModel, path: str | Path) -> None:
    """InvalidValue, writing nothing, if a weight is not finite."""
    weights = {name: getattr(model, name) for name in _WEIGHTS}
    check_finite(InvalidValue, path, "weights", *weights.values())
    doc = {name: w.tolist() for name, w in weights.items()}
    doc.update(version=MODEL_FILE_VERSION, receptive_field=model.receptive_field)
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n")


def load_model(path: str | Path) -> ToyModel:
    """FormatError for a file that is not a model, whose fields have the
    wrong type or shape, or whose weights are not all finite."""
    doc = read_json_object(path)
    if "version" not in doc:
        raise FormatError(f"{path}: not a model file")
    if doc["version"] != MODEL_FILE_VERSION:
        raise UnsupportedVersion(f"{path}: model file version {doc['version']}")
    try:
        receptive_field = doc["receptive_field"]
        if type(receptive_field) is not int:  # bool is an int subclass
            raise TypeError(f"receptive_field must be an integer, got {receptive_field!r}")
        weights = {name: np.asarray(doc[name], dtype=np.float64) for name in _WEIGHTS}
        model = ToyModel(**weights, receptive_field=receptive_field)
    except (KeyError, TypeError, ValueError, ShapeError) as exc:
        raise FormatError(f"{path}: bad model file: {exc}") from exc
    # json reads NaN and Infinity as floats
    check_finite(FormatError, path, "weights", *weights.values())
    return model


# ---------------------------------------------------------------------------
# training


@dataclass(frozen=True)
class TrainConfig(_JsonConfig):
    epochs: int = 30
    seed: int = 0
    learning_rate: float = 0.05
    momentum: float = 0.9
    batch_size: int = 16
    strip_tags: bool = False
    receptive_field: int = 5
    hidden_width: int = 64

    def __post_init__(self):
        if self.seed < 0:
            raise UsageError("seed must be >= 0")
        if self.epochs < 1 or self.batch_size < 1:
            raise UsageError("epochs and batch_size must be >= 1")
        if self.learning_rate <= 0 or not 0 <= self.momentum < 1:
            raise UsageError("bad optimizer settings")
        if self.receptive_field < 1 or self.receptive_field % 2 == 0 or self.hidden_width < 1:
            raise UsageError("receptive_field must be odd and >= 1, hidden_width >= 1")


def _admit(samples, prefix: str) -> list[tuple[np.ndarray, list[int]]]:
    """The one rule that admits a training sample, run over `(name,
    features, labels)` triples in order; returns the usable (features, label
    list) pairs. A feature width other than the first sample's is a
    ShapeError, a sample whose frames cannot fit its labels is skipped with a
    UserWarning, and none left is an InvalidValue. Every message starts with
    `prefix` and names the sample."""
    usable, first = [], None
    for name, features, labels in samples:
        first = first or (name, features.shape[1])
        if features.shape[1] != first[1]:
            raise ShapeError(f"{prefix}{name} has {features.shape[1]} features per frame, "
                             f"{first[0]} has {first[1]}")
        need = ctc.min_frames(labels)
        if features.shape[0] < need:
            warnings.warn(f"{prefix}{name}: {features.shape[0]} frames cannot fit "
                          f"{need} alignment slots; skipped")
            continue
        usable.append((features, list(labels)))
    if not usable:
        problem = "every sample was infeasible" if first else "no training samples"
        raise InvalidValue(prefix + problem)
    return usable


def load_training_samples(
    manifest_path: str | Path, registry: TagRegistry, strip_tags: bool = False
) -> list[tuple[np.ndarray, list[int]]]:
    """Load (features, label ids) pairs; optionally drop tag tokens. Each
    line is read and held to the training-sample rule (`_admit`) in order,
    and every error or warning names the manifest and the line's id."""

    def named_samples():
        for record in read_manifest(manifest_path):
            labels = named(f"{manifest_path}: id {record.uid!r}: ",
                           encode_tagged_text, registry, record.tagged_text)
            if strip_tags:
                labels = [t for t in labels if registry.binding_by_id[t] is None]
            features = read_feature_file(manifest_feature_path(manifest_path, record.feature_path))
            yield f"id {record.uid!r}", features, labels

    return _admit(named_samples(), f"{manifest_path}: ")


def train(
    samples: list[tuple[np.ndarray, list[int]]],
    v_total: int,
    cfg: TrainConfig,
    init_model: ToyModel | None = None,
) -> tuple[ToyModel, list[float]]:
    """SGD with momentum on the mean per-utterance CTC loss.

    Returns the model and one mean-loss entry per epoch. The samples are
    held to the training-sample rule that `load_training_samples` runs
    (`_admit`), named "utterance 0", "utterance 1", ... A step that leaves a
    weight non-finite is an InvalidValue; so is a loss or gradient that is
    not finite after the first step, naming the epoch, the batch and the
    learning rate.
    Pass init_model to continue from earlier weights, e.g. fine-tuning a
    transcription-only model after its placeholders are bound to tags.
    """
    usable = _admit(((f"utterance {i}", *sample) for i, sample in enumerate(samples)), "")
    feature_dim = usable[0][0].shape[1]
    rng = np.random.default_rng(cfg.seed)
    if init_model is not None:
        found = (init_model.feature_dim, init_model.v_total,
                 init_model.receptive_field, init_model.hidden_width)
        wanted = (feature_dim, v_total, cfg.receptive_field, cfg.hidden_width)
        if found != wanted:
            raise ShapeError(
                f"init_model has (feature_dim, v_total, receptive_field, hidden_width) "
                f"{found}; this corpus, vocabulary and config need {wanted}"
            )
        model = copy.deepcopy(init_model)
    else:
        model = ToyModel.init(
            feature_dim,
            v_total,
            rng,
            receptive_field=cfg.receptive_field,
            hidden_width=cfg.hidden_width,
        )

    params = [getattr(model, name) for name in _WEIGHTS]
    velocity = [np.zeros_like(p) for p in params]
    losses = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(usable))
        epoch_loss = 0.0
        for start in range(0, len(order), cfg.batch_size):
            batch = [usable[i] for i in order[start : start + cfg.batch_size]]
            # one stacked forward pass and one CTC lattice over the whole batch
            xs = np.vstack([_windows(f, model.receptive_field) for f, _ in batch])
            hidden, logits = model._forward(xs)
            try:
                nll, grad = ctc.nll_and_gradient(
                    logits, [labels for _, labels in batch], [f.shape[0] for f, _ in batch]
                )
            except InvalidValue as exc:
                if epoch == 0 and start == 0:  # no step yet: the data or the initial weights
                    raise
                raise InvalidValue(f"epoch {epoch}, batch {start // cfg.batch_size}: {exc} "
                                   f"(after training at learning rate {cfg.learning_rate})") from None
            d_logits = grad / len(batch)
            epoch_loss += nll
            with np.errstate(over="ignore", invalid="ignore"):  # a non-finite step is refused below
                d_w2 = hidden.T @ d_logits
                d_b2 = d_logits.sum(axis=0)
                d_hidden = (d_logits @ model.w2.T) * (1.0 - hidden**2)
                d_w1 = xs.T @ d_hidden
                d_b1 = d_hidden.sum(axis=0)
                for p, v, g in zip(params, velocity, [d_w1, d_b1, d_w2, d_b2]):
                    v *= cfg.momentum
                    v -= cfg.learning_rate * g
                    p += v
            if not all(np.isfinite(p).all() for p in params):
                raise InvalidValue(f"epoch {epoch}, batch {start // cfg.batch_size}: weights are not "
                                   f"finite after the step at learning rate {cfg.learning_rate}")
        losses.append(epoch_loss / len(usable))
    return model, losses


def train_from_manifest(
    manifest_path: str | Path, registry: TagRegistry, cfg: TrainConfig
) -> tuple[ToyModel, list[float]]:
    samples = load_training_samples(manifest_path, registry, strip_tags=cfg.strip_tags)
    return train(samples, registry.vocab.v_total, cfg)
