"""CTC probability machinery.

Per-frame token distributions define a distribution over frame-length paths;
the collapse map (merge adjacent repeats, then drop blanks) sends paths to
label sequences, and the probability of a label sequence is the sum over all
paths that collapse to it. The efficient evaluation runs one recursion over
the blank-interleaved label sequence. Run forward it gives the alphas, and
with them the sequence probability for both the loss and the gradient; run
over the time- and state-reversed lattice (the extended sequence of the
reversed labels) it gives the betas, which only the gradient needs.

The recursion exists in two numeric domains. `_lattice_log` stays in log
space (pure log-sum-exp, no rescaling); `ctc_neg_log_likelihood` runs it, so
it can be compared exactly against the brute-force path enumeration.
`_lattice_scaled` multiplies probabilities and divides each lattice row by
its maximum every frame, keeping the log of the divisor (Graves et al.
2006, §4.1), which is several times faster than numpy's element-by-element
`logaddexp`. `nll_and_gradient` runs the scaled recursion and trusts an
utterance's result only if each frame's state occupancies sum to 1 within
ROW_SUM_TOL (a zero final mass or a scale factor that overflows fails that
too) and none of its emission probabilities fell below the smallest normal
float: such an emission is lost alike in the alphas and the betas, so the
sums cannot show it. Every other utterance is recomputed in log space,
which also confirms a zero-probability target before it is reported.

The recursion is batched: a training minibatch's lattices, alphas and betas
alike, are stacked into one (T_max, 2B, S_max) array of per-utterance slices
of the emissions, so its frame loop runs once per batch. Frames past an
utterance's end and states past its extended sequence are padding with zero
probability (-inf in log space); since paths only move forward in time and
state, padding never feeds a real cell, and the row maxima that rescale the
lattice are those of the real cells, so every real cell is computed exactly
as for that utterance alone. A single utterance is the B=1 case of the same
code.

Everything here is 64-bit; token ids are plain ints with the blank id taken
from the emission width context (callers pass it explicitly to `collapse`).
"""

from __future__ import annotations

from itertools import groupby, product

import numpy as np

from .errors import (
    BlankInLabelSequence,
    InfeasibleAlignment,
    InvalidValue,
    ShapeError,
    TooLargeForOracle,
    UnknownToken,
)
from .vocab import check_label_ids

ROW_SUM_TOL = 1e-9
SMALLEST_NORMAL = np.finfo(np.float64).tiny
BRUTE_FORCE_PATH_LIMIT = 10**7


class EmissionMatrix:
    """T x V_total row-stochastic matrix of per-frame token probabilities.

    Rows must sum to 1 within 1e-9; the last column is the blank token by
    package convention. The underlying array is made read-only.
    """

    def __init__(self, probs: np.ndarray):
        arr = as_rows(probs, "emissions", 2).copy()
        # written so that NaN, which fails every comparison, is rejected too
        if not (arr.min() >= 0.0 and arr.max() <= 1.0):
            raise InvalidValue("emission entries must lie in [0, 1]")
        if not rows_sum_to_one(arr, ROW_SUM_TOL):
            worst = float(np.max(np.abs(arr.sum(axis=1) - 1.0)))
            raise InvalidValue(f"emission rows must sum to 1 within {ROW_SUM_TOL}, off by {worst}")
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
        """Rescale rows to sum exactly to 1 (e.g. after 32-bit file storage).
        A negative entry stays negative and is refused; nothing is clipped."""
        arr = as_rows(rows, "emissions", 2)
        with np.errstate(over="ignore", invalid="ignore"):  # NaN or inf sums are refused
            sums = arr.sum(axis=1, keepdims=True)
        if not np.all((0.0 < sums) & (sums < np.inf)):
            raise InvalidValue("cannot renormalize rows whose sums are not positive and finite")
        return cls(arr / sums)

    def __repr__(self) -> str:
        return f"EmissionMatrix(T={self.t_frames}, V_total={self.v_total})"


def as_rows(array, what: str, min_width: int) -> np.ndarray:
    """`array` as float64 rows; ShapeError unless 2-D, T >= 1, width >= min_width."""
    arr = np.asarray(array, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < min_width:
        raise ShapeError(f"{what} must be 2-D with T >= 1 and width >= {min_width}, got {arr.shape}")
    return arr


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    arr = as_rows(logits, "logits", 2)
    row_max = arr.max(axis=1, keepdims=True)
    # +inf, NaN, or a row that is all -inf: the shift below would be NaN
    if not np.isfinite(row_max).all():
        raise InvalidValue("non-finite logits")
    exp = np.exp(arr - row_max)
    return exp / exp.sum(axis=1, keepdims=True)


def rows_sum_to_one(rows: np.ndarray, tol: float) -> bool:
    """Whether every row of a 2-D array sums to 1 within tol (never for a row
    whose sum is NaN or overflows, since NaN and inf fail the comparison)."""
    with np.errstate(over="ignore", invalid="ignore"):
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
    """State counts (B,) and blank-interleaved label sequences (B, 2, S_max)
    of a batch, of the labels and of the reversed labels, states past an
    utterance's own padded with id v_total.

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
    ext = np.full((len(targets), 2, n_states.max()), v_total, dtype=np.int64)
    for b, target in enumerate(targets):
        ext[b, :, : n_states[b]] = v_total - 1
        ext[b, :, 1 : n_states[b] : 2] = target, target[::-1]
    return n_states, ext


def _stack(values: np.ndarray, starts: np.ndarray, frame_counts: np.ndarray, ext: np.ndarray,
           n_states: np.ndarray, pad: float, lead: int = 0) -> np.ndarray:
    """(T_max, 2B, lead + S_max) emissions of B lattices, longest first: row
    2b holds utterance b's rows values[starts[b] : starts[b] + T_b] at the
    columns of its extended sequence ext[b], row 2b + 1 the same block
    reversed in time and state, which is the lattice of the reversed labels
    (the betas'). The `lead` columns and every cell past an utterance's own
    frames or states hold `pad`."""
    stack = np.full((frame_counts[0], 2 * len(frame_counts), lead + ext.shape[1]), pad)
    for b, (start, t_b, s_b) in enumerate(zip(starts.tolist(), frame_counts.tolist(), n_states.tolist())):
        block = values[start : start + t_b, ext[b, :s_b]]
        stack[:t_b, 2 * b, lead : lead + s_b] = block
        stack[:t_b, 2 * b + 1, lead : lead + s_b] = block[::-1, ::-1]
    return stack


def _forward_order(lattice: np.ndarray, frame_counts: np.ndarray, n_states: np.ndarray,
                   pad: float, lead: int = 0) -> np.ndarray:
    """(T_max, B, S_max): the reversed rows of a lattice over a `_stack`, each
    turned back to forward time and state order, `pad` past its own cells."""
    t_max, n_rows, width = lattice.shape
    back = np.full((t_max, n_rows // 2, width - lead), pad)
    for b, (t_b, s_b) in enumerate(zip(frame_counts.tolist(), n_states.tolist())):
        back[:t_b, b, :s_b] = lattice[:t_b, 2 * b + 1, lead : lead + s_b][::-1, ::-1]
    return back


def _skip_into(ext: np.ndarray) -> np.ndarray:
    """Where a path may skip into a state from two states back: into a label
    that differs from the label two states back (never into a blank, since
    two back is a blank too)."""
    skip = np.zeros(ext.shape, dtype=bool)
    skip[:, 2:] = ext[:, 2:] != ext[:, :-2]
    return skip


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
    skip_into = _skip_into(ext)
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


def _lattice_scaled(probs_ext: np.ndarray, ext: np.ndarray,
                    frame_counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_lattice_log` in the probability domain with per-frame rescaling.

    `probs_ext` is the stack of emission probabilities with two zero columns
    in front of each row, which stand for the empty states before state 0.
    Each frame, the previous frame's alphas of every live row are divided by
    their maximum (that of the real cells, since padding has zero emissions),
    so the lattice stays in range, and the log of that divisor is kept.
    Returns the rescaled lattice and, per frame and row, the running sum of
    the log divisors: the lattice times exp of it is the mass before the
    frame's own emission. The divisor is at least the smallest normal float,
    so a row whose alphas all vanish stays zero instead of turning NaN.
    """
    t_frames, n_rows, width = probs_ext.shape
    skip_into = np.zeros((n_rows, width))
    skip_into[:, 2:] = _skip_into(ext)
    skip_into = skip_into.ravel()
    lattice = np.zeros(probs_ext.shape)
    lattice[0, :, 2:4] = 1.0
    scales = np.ones((t_frames, n_rows))
    alphas, skipped = np.empty(n_rows * width), np.empty(n_rows * width)
    flat, emissions = lattice.reshape(t_frames, -1), probs_ext.reshape(t_frames, -1)
    live = (frame_counts > np.arange(t_frames)[:, None]).sum(axis=1).tolist()
    for t in range(1, t_frames):
        # the live rows lie end to end; the two zero columns in front of each
        # row are what its first states read one and two states back
        n = live[t]
        m = n * width
        prev = alphas[:m]
        np.multiply(flat[t - 1, :m], emissions[t - 1, :m], out=prev)
        rows, top = prev.reshape(n, width), scales[t, :n]
        np.maximum.reduce(rows, axis=1, out=top, initial=SMALLEST_NORMAL)
        np.divide(rows, top[:, None], out=rows)
        out = flat[t, 2:m]
        np.add(prev[2:], prev[1:-1], out=out)
        np.multiply(prev[:-2], skip_into[2:m], out=skipped[2:m])
        out += skipped[2:m]
    return lattice, np.cumsum(np.log(scales), axis=0)


def _log_p(alphas: np.ndarray, frame_counts: np.ndarray, n_states: np.ndarray) -> np.ndarray:
    """Per-utterance log-probability: the mass in the last two states (the
    last one alone with no labels) at the last frame."""
    b = np.arange(len(frame_counts))
    last = alphas[frame_counts - 1, b]
    final = last[b, n_states - 1]
    return np.where(n_states > 1, np.logaddexp(last[b, n_states - 2], final), final)


def _occupancy_scaled(probs: np.ndarray, starts: np.ndarray, frame_counts: np.ndarray,
                      ext: np.ndarray, n_states: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-utterance log p, the (T_max, B, S_max) state occupancies (each
    state's share of the paths through it at each frame) and whether each
    utterance's may be trusted, from the probability-domain lattice of the
    utterances `probs[starts[b] : starts[b] + frame_counts[b]]`, longest
    first, over their extended sequences `ext` (B, 2, S_max).

    An utterance is trusted when each of its frames' occupancies sums to 1
    within ROW_SUM_TOL, as every path passes one state per frame. A zero
    final mass or an overflowing factor makes some sum inf or NaN, which
    fails the check too.
    """
    stack = _stack(probs, starts, frame_counts, ext[:, 0], n_states, 0.0, lead=2)
    lattice, log_scale = _lattice_scaled(stack, ext.reshape(-1, ext.shape[2]), np.repeat(frame_counts, 2))
    b = np.arange(len(frame_counts))
    last = frame_counts - 1
    # columns n_states and n_states + 1 hold the last two states, or a zero
    # lead column and the one state when there are no labels
    final = lattice[last, 2 * b] * stack[last, 2 * b]
    log_p = log_scale[last, 2 * b] + np.log(final[b, n_states] + final[b, n_states + 1])
    t = np.arange(frame_counts[0])[:, None]
    back_t = np.maximum(last - t, 0)
    factor = np.exp(log_scale[:, ::2] + log_scale[back_t, 2 * b + 1] - log_p)
    contrib = _forward_order(lattice, frame_counts, n_states, 0.0, lead=2)
    contrib *= lattice[:, ::2, 2:]
    contrib *= stack[:, ::2, 2:]
    contrib *= factor[:, :, None]
    off = np.abs(contrib.sum(axis=2) - 1.0)
    trusted = np.all((off <= ROW_SUM_TOL) | (t > last), axis=0)
    return log_p, contrib, trusted


def _occupancy_log(log_probs: np.ndarray, starts: np.ndarray, frame_counts: np.ndarray,
                   ext: np.ndarray, n_states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_occupancy_scaled`'s log p and occupancies from the log-domain
    lattice, which is exact and needs no check. A zero-probability target
    has log p = -inf and NaN occupancies."""
    log_probs_ext = _stack(log_probs, starts, frame_counts, ext[:, 0], n_states, -np.inf)
    lattice = _lattice_log(log_probs_ext, ext.reshape(-1, ext.shape[2]), np.repeat(frame_counts, 2))
    alphas = np.add(lattice[:, ::2], log_probs_ext[:, ::2])
    log_p = _log_p(alphas, frame_counts, n_states)
    alphas += _forward_order(lattice, frame_counts, n_states, -np.inf)
    alphas -= log_p[:, None]
    return log_p, np.exp(alphas, out=alphas)


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
    # a zero-probability target's occupancies are NaN (-inf minus -inf)
    with np.errstate(invalid="ignore"):
        log_p, _ = _occupancy_log(log_probs, np.zeros(1, dtype=np.int64), frame_counts, ext, n_states)
    return -float(log_p[0])


def _utterance(b: int, batched: bool) -> str:
    return f"utterance {b}: " if batched else ""


def nll_and_gradient(logits: np.ndarray, labels, frame_counts=None) -> tuple[float, np.ndarray]:
    """Loss and its gradient w.r.t. pre-softmax scores, in one pass.

    With `frame_counts` (one per utterance), `logits` is the row-stack of a
    batch's utterances and `labels` their B label sequences; the loss is the
    sum of their NLLs and the gradient is that of the sum w.r.t. the stacked
    logits. All B lattices run through one recursion. Without it, `logits`
    and `labels` are one utterance's.

    Raises InvalidValue when a loss is not finite: NaN or infinite logits, or
    labels that every path gives probability zero. In a batch, this and the
    label and feasibility errors name the utterance.
    """
    logits = as_rows(logits, "logits", 2)
    t_total, v_total = logits.shape
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
        raise InvalidValue(f"{_utterance(b, batched)}CTC log-probability is nan: non-finite logits")

    # longest first, so the lattices still running at any frame are a prefix
    order = np.argsort(-frame_counts, kind="stable")
    counts, n_states, ext = frame_counts[order], n_states[order], ext[order]
    starts = (ends - frame_counts)[order]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        log_p, contrib, trusted = _occupancy_scaled(probs, starts, counts, ext, n_states)
        # an emission below the smallest normal float has lost digits, or is
        # 0 in place of a tiny probability, alike in the alphas and the
        # betas, where no occupancy sum can show it
        if probs.min() < SMALLEST_NORMAL:
            lost = ((probs < SMALLEST_NORMAL) & (log_probs > -np.inf)).any(axis=1)
            trusted &= ~np.logical_or.reduceat(lost, ends - frame_counts)[order]
        # an utterance the probability domain cannot vouch for is recomputed
        # in the log domain, which also confirms a zero-probability target
        redo = np.flatnonzero(~trusted)
        if len(redo):
            log_p[redo], contrib[: counts[redo[0]], redo] = _occupancy_log(
                log_probs, starts[redo], counts[redo], ext[redo], n_states[redo])
    nll = np.empty(len(counts))
    nll[order] = -log_p
    zero = np.flatnonzero(nll == np.inf)
    if len(zero):
        raise InvalidValue(
            f"{_utterance(zero[0], batched)}CTC log-probability is -inf: a zero-probability target"
        )

    # occupancy: gamma[t, k] = the sum of the occupancies of the states with
    # label k, added in state order; padded frames land in the dropped row
    # and padded states (id v_total) in the dropped column
    t = np.arange(counts[0])[:, None]
    rows = np.where(t < counts, starts + t, t_total)
    index = rows[:, :, None] * (v_total + 1) + ext[:, 0]
    gamma = np.bincount(index.ravel(), contrib.ravel(), minlength=(t_total + 1) * (v_total + 1))
    probs -= gamma.reshape(t_total + 1, v_total + 1)[:-1, :-1]
    return sum(nll.tolist()), probs


def ctc_gradient(logits: np.ndarray, labels) -> np.ndarray:
    """Gradient of the CTC negative log-likelihood w.r.t. logits.

    Row k at frame t is softmax(logits)[t, k] minus the posterior occupancy of
    token k at t, so every row sums to zero.
    """
    _, grad = nll_and_gradient(logits, labels)
    return grad
