"""CTC transcription with inline semantic event tags.

Reserved placeholder tokens in a CTC vocabulary are bound to event tags
(intent, typed entity begin, shared end, speaker change), so one decoding
pass yields both the transcript and its structure. The package covers the
whole loop: vocabulary and tag registry, CTC loss and gradient, greedy and
streaming decoding, tag parsing into structured transcripts, tuple-F1/WER
scoring, and a deterministic synthetic corpus with a small trainable model.
"""

from .ctc import (
    EmissionMatrix,
    collapse,
    ctc_gradient,
    ctc_neg_log_likelihood,
    nll_and_gradient,
    path_probability,
    sequence_probability_bruteforce,
    softmax_rows,
)
from .decoder import (
    DecodeResult,
    StreamingDecoder,
    TimelineRow,
    blank_fraction,
    emit_timeline,
    greedy_decode,
)
from .errors import (
    AlignmentError,
    BlankInLabelSequence,
    CtcTagError,
    DuplicateEndTag,
    DuplicateToken,
    EmptyReference,
    FormatError,
    InfeasibleAlignment,
    InvalidToken,
    InvalidValue,
    NoFreePlaceholder,
    NotCanonical,
    ShapeError,
    TooLargeForOracle,
    TruncatedFile,
    UnknownToken,
    UnsupportedVersion,
    UsageError,
)
from .evaluate import (
    EvalReport,
    NerReport,
    Totals,
    TypeScores,
    corpus_wer,
    edit_distance,
    evaluate_corpus,
    f1_score,
    intent_accuracy,
    ner_prf,
    to_tuples,
    wer,
)
from .formats import (
    load_emission_matrix,
    read_emission_file,
    read_feature_file,
    write_emission_file,
    write_feature_file,
)
from .synth import (
    SynthConfig,
    ToyModel,
    TrainConfig,
    UtteranceRecord,
    build_registry,
    default_config,
    embedding_table,
    gen_corpus,
    load_model,
    load_training_samples,
    read_manifest,
    sample_utterance,
    save_model,
    train,
    train_from_manifest,
    write_manifest,
)
from .tag_parser import (
    Anomaly,
    AnomalyKind,
    Entity,
    StructuredTranscript,
    parse,
    render,
    strip_tags,
    transcript_to_dict,
)
from .vocab import (
    BLANK_SURFACE,
    DEFAULT_PLACEHOLDER_COUNT,
    DEFAULT_TRANSCRIPTION_COUNT,
    TagBinding,
    TagKind,
    TagRegistry,
    TokenRole,
    Vocabulary,
    assign_tag,
    build_vocab,
    decode_tokens,
    encode_tagged_text,
    load_vocab,
    save_vocab,
    vocab_document,
)

__version__ = "0.1.0"
