"""CTC probability machinery.

Per-frame token distributions define a distribution over frame-length paths;
the collapse map (merge adjacent repeats, then drop blanks) sends paths to
label sequences, and the probability of a label sequence is the sum over all
paths that collapse to it. The efficient evaluation runs one log-space
recursion over the blank-interleaved label sequence. Run forward it gives
the alphas, and with them the sequence probability for both the loss and the
gradient; run over the time- and state-reversed lattice (the extended
sequence of the reversed labels) it gives the betas, which only the gradient
needs. It stays in log space throughout (pure log-sum-exp, no per-frame
rescaling) so it can be compared exactly against the brute-force path
enumeration.

The recursion is batched: a training minibatch's lattices, alphas and betas
alike, are stacked into one (T_max, 2B, S_max) array, so its frame loop runs
once per batch. Frames past an utterance's end and states past its extended
sequence are padding with -inf emissions; since paths only move forward in
time and state, padding never feeds a real cell, and every real cell is
computed exactly as for that utterance alone. A single utterance is the B=1
case of the same code.

Everything here is 64-bit; token ids are plain ints with the blank id taken
from the emission width context (callers pass it explicitly to `collapse`).
"""

from __future__ import annotations

from itertools import groupby, product

import numpy as np

from .errors import (
    BlankInLabelSequence,
    InfeasibleAlignment,
    ShapeError,
    TooLargeForOracle,
    UnknownToken,
)
from .vocab import check_label_ids

ROW_SUM_TOL = 1e-9
BRUTE_FORCE_PATH_LIMIT = 10**7


class EmissionMatrix:
    """T x V_total row-stochastic matrix of per-frame token probabilities.

    Rows must sum to 1 within 1e-9; the last column is the blank token by
    package convention. The underlying array is made read-only.
    """

    def __init__(self, probs: np.ndarray):
        arr = np.array(probs, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeError(f"emissions must be 2-D, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 2:
            raise ShapeError(f"emissions need T >= 1 and V_total >= 2, got {arr.shape}")
        # written so that NaN, which fails every comparison, is rejected too
        if not (arr.min() >= 0.0 and arr.max() <= 1.0):
            raise ValueError("emission entries must lie in [0, 1]")
        if not rows_sum_to_one(arr, ROW_SUM_TOL):
            worst = float(np.max(np.abs(arr.sum(axis=1) - 1.0)))
            raise ValueError(f"emission rows must sum to 1 within {ROW_SUM_TOL}, off by {worst}")
        arr.setflags(write=False)
        self.probs = arr

    @property
    def t_frames(self) -> int:
        return self.probs.shape[0]

    @property
    def v_total(self) -> int:
        return self.probs.shape[1]

    @property
    def blank_id(self) -> int:
        return self.v_total - 1

    @classmethod
    def from_logits(cls, logits: np.ndarray) -> "EmissionMatrix":
        return cls(softmax_rows(logits))

    @classmethod
    def from_unnormalized(cls, rows: np.ndarray) -> "EmissionMatrix":
        """Rescale rows to sum exactly to 1 (e.g. after 32-bit file storage)."""
        arr = np.asarray(rows, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeError(f"emissions must be 2-D, got shape {arr.shape}")
        sums = arr.sum(axis=1, keepdims=True)
        if np.any(sums <= 0.0):
            raise ValueError("cannot renormalize rows with non-positive sums")
        return cls(np.clip(arr / sums, 0.0, 1.0))

    def __repr__(self) -> str:
        return f"EmissionMatrix(T={self.t_frames}, V_total={self.v_total})"


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    arr = np.asarray(logits, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"logits must be 2-D, got shape {arr.shape}")
    row_max = arr.max(axis=1, keepdims=True)
    # +inf, NaN, or a row that is all -inf: the shift below would be NaN
    if not np.isfinite(row_max).all():
        raise ValueError("non-finite logits")
    exp = np.exp(arr - row_max)
    return exp / exp.sum(axis=1, keepdims=True)


def rows_sum_to_one(rows: np.ndarray, tol: float) -> bool:
    """Whether every row of a 2-D array sums to 1 within tol (never for a
    NaN row, since NaN fails the comparison)."""
    return bool(np.all(np.abs(rows.sum(axis=1) - 1.0) <= tol))


def min_frames(labels) -> int:
    """Fewest frames a path collapsing to `labels` needs: one per label plus
    a separating blank between each pair of equal neighbours."""
    return len(labels) + sum(1 for a, b in zip(labels, labels[1:]) if a == b)


def path_probability(emissions: EmissionMatrix, path) -> float:
    """Product of per-frame probabilities along one frame-length path."""
    path = list(path)
    if len(path) != emissions.t_frames:
        raise ShapeError(f"path length {len(path)} != T {emissions.t_frames}")
    for token_id in path:
        if not 0 <= int(token_id) < emissions.v_total:
            raise UnknownToken(f"path id {token_id} out of range")
    return float(np.prod(emissions.probs[np.arange(len(path)), path]))


def collapse(path, blank_id: int) -> list[int]:
    """Merge adjacent repeats, then delete blanks (in that order, so a blank
    separates genuine repeats)."""
    return [k for k, _ in groupby(int(p) for p in path) if k != blank_id]


def sequence_probability_bruteforce(emissions: EmissionMatrix, labels) -> float:
    """Sum of path probabilities over every path that collapses to `labels`.

    Exponential-time oracle; guarded so it is only usable at toy sizes.
    """
    t_frames, v_total = emissions.t_frames, emissions.v_total
    if v_total**t_frames > BRUTE_FORCE_PATH_LIMIT:
        raise TooLargeForOracle(f"{v_total}^{t_frames} paths exceed the oracle guard")
    target = check_label_ids(labels, v_total)
    probs = emissions.probs
    total = 0.0
    for path in product(range(v_total), repeat=t_frames):
        if collapse(path, emissions.blank_id) == target:
            p = 1.0
            for t, k in enumerate(path):
                p *= probs[t, k]
            total += p
    return total


def _layout(labels, frame_counts, v_total: int, batched: bool) -> tuple[np.ndarray, np.ndarray]:
    """State counts (B,) and blank-interleaved label sequences (B, S_max) of
    a batch, states past an utterance's own padded with id v_total.

    Validates the label ids and raises InfeasibleAlignment unless some path
    of each utterance's frames can collapse to its labels; in a batch the
    error names the utterance.
    """
    targets = []
    for b, (seq, t_frames) in enumerate(zip(labels, frame_counts)):
        try:
            target = check_label_ids(seq, v_total)
            need = min_frames(target)
            if t_frames < need:
                raise InfeasibleAlignment(f"{len(target)} labels need {need} frames, got {t_frames}")
        except (UnknownToken, BlankInLabelSequence, InfeasibleAlignment) as exc:
            if not batched:
                raise
            raise type(exc)(f"utterance {b}: {exc}") from None
        targets.append(target)
    n_states = np.array([2 * len(target) + 1 for target in targets])
    ext = np.full((len(targets), n_states.max()), v_total, dtype=np.int64)
    for b, target in enumerate(targets):
        ext[b, : n_states[b]] = v_total - 1
        ext[b, 1 : n_states[b] : 2] = target
    return n_states, ext


def _padded_flat(log_probs: np.ndarray) -> np.ndarray:
    """The stacked log-probabilities with one more row and column of -inf,
    flattened; `_emission_index` points padding there."""
    padded = np.full((log_probs.shape[0] + 1, log_probs.shape[1] + 1), -np.inf)
    padded[:-1, :-1] = log_probs
    return padded.ravel()


def _emission_index(starts: np.ndarray, frame_counts: np.ndarray, ext: np.ndarray,
                    v_total: int, reverse: bool = False) -> np.ndarray:
    """(T_max, B, S_max) index into `_padded_flat` of each lattice cell's
    emission: utterance b's frame t is stacked row starts[b] + t, or
    starts[b] + T_b - 1 - t when reversed; padded frames read the -inf row
    and padded states (id v_total) the -inf column."""
    t = np.arange(frame_counts.max())[:, None]
    rows = starts + frame_counts - 1 - t if reverse else starts + t
    rows = np.where(t < frame_counts, rows, frame_counts.sum())
    return rows[:, :, None] * (v_total + 1) + ext


def _reversed_states(ext: np.ndarray, n_states: np.ndarray) -> np.ndarray:
    """Each row of `ext` with its first n_states entries reversed (the
    extended sequence of the reversed labels), padding kept."""
    back = n_states[:, None] - 1 - np.arange(ext.shape[1])
    return np.where(back >= 0, np.take_along_axis(ext, np.maximum(back, 0), axis=1), ext)


def _lattice_log(log_probs_ext: np.ndarray, ext: np.ndarray, frame_counts: np.ndarray) -> np.ndarray:
    """Log-mass reaching each state at each frame, before that frame's own
    emission, for a (T_max, R, S_max) stack of R lattices over the extended
    sequences `ext` (R, S_max), row r running for frame_counts[r] frames.
    Rows must come longest first; frames past a row's own stay -inf.

    Paths start in the first two states. Each frame a path stays, moves one
    state on, or skips the blank before a label that differs from the label
    two states back. Adding `log_probs_ext` gives the alphas. Run on the time-
    and state-reversed lattice, whose extended sequence is that of the
    reversed labels, the same recursion gives the betas, which exclude the
    emission at their own frame. Padded states (-inf emissions) never feed
    a real one, since paths only move forward.
    """
    t_frames, n_rows, n_states = log_probs_ext.shape
    skip_into = np.zeros(ext.shape, dtype=bool)
    skip_into[:, 2:] = ext[:, 2:] != ext[:, :-2]  # false at blanks: two back is a blank too
    lattice = np.full(log_probs_ext.shape, -np.inf)
    lattice[0, :, :2] = 0.0
    prev = np.full((n_rows, n_states + 2), -np.inf)  # the states two and one before state 0 stay empty
    live = (frame_counts > np.arange(t_frames)[:, None]).sum(axis=1).tolist()
    for t in range(1, t_frames):
        n = live[t]  # rows that have frame t
        np.add(lattice[t - 1, :n], log_probs_ext[t - 1, :n], out=prev[:n, 2:])
        out = lattice[t, :n]
        np.logaddexp(prev[:n, 2:], prev[:n, 1:-1], out=out)
        np.logaddexp(out, prev[:n, :-2], out=out, where=skip_into[:n])
    return lattice


def _log_p(alphas: np.ndarray, frame_counts: np.ndarray, n_states: np.ndarray) -> np.ndarray:
    """Per-utterance log-probability: the mass in the last two states (the
    last one alone with no labels) at the last frame."""
    b = np.arange(len(frame_counts))
    last = alphas[frame_counts - 1, b]
    final = last[b, n_states - 1]
    return np.where(n_states > 1, np.logaddexp(last[b, n_states - 2], final), final)


def ctc_neg_log_likelihood(emissions: EmissionMatrix, labels) -> float:
    """-log p(labels | emissions) by the forward recursion.

    Raises InfeasibleAlignment when no frame path of length T can collapse to
    the labels; returns +inf when the alignment is feasible but every path has
    probability zero.
    """
    with np.errstate(divide="ignore"):
        log_probs = np.log(emissions.probs)
    frame_counts = np.array([emissions.t_frames])
    n_states, ext = _layout([labels], frame_counts, emissions.v_total, batched=False)
    index = _emission_index(np.zeros(1, dtype=np.int64), frame_counts, ext, emissions.v_total)
    log_probs_ext = _padded_flat(log_probs)[index]
    alphas = _lattice_log(log_probs_ext, ext, frame_counts) + log_probs_ext
    return -float(_log_p(alphas, frame_counts, n_states)[0])


def _utterance(b: int, batched: bool) -> str:
    return f"utterance {b}: " if batched else ""


def nll_and_gradient(logits: np.ndarray, labels, frame_counts=None) -> tuple[float, np.ndarray]:
    """Loss and its gradient w.r.t. pre-softmax scores, in one pass.

    With `frame_counts` (one per utterance), `logits` is the row-stack of a
    batch's utterances and `labels` their B label sequences; the loss is the
    sum of their NLLs and the gradient is that of the sum w.r.t. the stacked
    logits. All B lattices run through one recursion. Without it, `logits`
    and `labels` are one utterance's.

    Raises ValueError when a loss is not finite: NaN or infinite logits, or
    labels that every path gives probability zero. In a batch, this and the
    label and feasibility errors name the utterance.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2:
        raise ShapeError(f"logits must be 2-D, got shape {logits.shape}")
    t_total, v_total = logits.shape
    if t_total < 1 or v_total < 2:
        raise ShapeError(f"logits need T >= 1 and V_total >= 2, got {logits.shape}")
    batched = frame_counts is not None
    if batched:
        frame_counts = np.asarray(frame_counts, dtype=np.int64)
        if frame_counts.ndim != 1 or len(frame_counts) != len(labels) or len(labels) < 1:
            raise ShapeError(
                f"need one frame count per label sequence, got {frame_counts.shape} "
                f"for {len(labels)}"
            )
        if frame_counts.min() < 1 or frame_counts.sum() != t_total:
            raise ShapeError(
                f"frame counts must be >= 1 and sum to the {t_total} logit rows, "
                f"got {frame_counts.tolist()}"
            )
    else:
        labels, frame_counts = [labels], np.array([t_total])
    # NaN or +inf logits, or a row of -inf, make the whole row NaN; that is
    # reported below instead of warned about here
    with np.errstate(invalid="ignore"):
        log_probs = logits - logits.max(axis=1, keepdims=True)
        probs = np.exp(log_probs)
        log_norm = np.log(probs.sum(axis=1, keepdims=True))
    log_probs -= log_norm
    np.exp(log_probs, out=probs)

    n_states, ext = _layout(labels, frame_counts, v_total, batched)
    ends = np.cumsum(frame_counts)
    nan_rows = np.flatnonzero(np.isnan(log_norm[:, 0]))
    if len(nan_rows):
        b = int(np.searchsorted(ends, nan_rows[0], side="right"))
        raise ValueError(f"{_utterance(b, batched)}CTC log-probability is nan: non-finite logits")

    # longest first, each utterance's lattice beside its reversed one (the
    # betas'), so the lattices still running at any frame are a prefix
    order = np.argsort(-frame_counts, kind="stable")
    counts, n_states, ext = frame_counts[order], n_states[order], ext[order]
    starts = (ends - frame_counts)[order]
    ext_back = _reversed_states(ext, n_states)
    index = np.stack([_emission_index(starts, counts, ext, v_total),
                      _emission_index(starts, counts, ext_back, v_total, reverse=True)], axis=2)
    t_max, n_utts, _, s_max = index.shape
    log_probs_ext = _padded_flat(log_probs)[index]
    lattice = _lattice_log(log_probs_ext.reshape(t_max, 2 * n_utts, s_max),
                           np.stack([ext, ext_back], axis=1).reshape(2 * n_utts, s_max),
                           np.repeat(counts, 2)).reshape(index.shape)
    alphas = np.add(lattice[:, :, 0], log_probs_ext[:, :, 0], out=lattice[:, :, 0])
    log_p = np.empty(n_utts)
    log_p[order] = _log_p(alphas, counts, n_states)
    zero = np.flatnonzero(log_p == -np.inf)
    if len(zero):
        raise ValueError(
            f"{_utterance(zero[0], batched)}CTC log-probability is -inf: a zero-probability target"
        )

    # betas back in forward order; at padded cells they read some real cell,
    # harmless since the alphas there are -inf
    back_t = np.maximum(counts - 1 - np.arange(t_max)[:, None], 0)
    back_s = np.maximum(n_states[:, None] - 1 - np.arange(s_max), 0)
    betas = lattice[back_t[:, :, None], np.arange(n_utts)[:, None], 1, back_s]

    # occupancy: gamma[t, k] = sum over states with label k of exp(a + b - log_p),
    # added in state order; padded cells land in the dropped row and column
    contrib = np.add(alphas, betas, out=betas)
    contrib -= log_p[order, None]
    np.exp(contrib, out=contrib)
    gamma = np.bincount(index[:, :, 0].ravel(), contrib.ravel(),
                        minlength=(t_total + 1) * (v_total + 1))
    probs -= gamma.reshape(t_total + 1, v_total + 1)[:-1, :-1]
    return sum((-log_p).tolist()), probs


def ctc_gradient(logits: np.ndarray, labels) -> np.ndarray:
    """Gradient of the CTC negative log-likelihood w.r.t. logits.

    Row k at frame t is softmax(logits)[t, k] minus the posterior occupancy of
    token k at t, so every row sums to zero.
    """
    _, grad = nll_and_gradient(logits, labels)
    return grad
