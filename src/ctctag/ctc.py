"""CTC probability machinery.

Per-frame token distributions define a distribution over frame-length paths;
the collapse map (merge adjacent repeats, then drop blanks) sends paths to
label sequences, and the probability of a label sequence is the sum over all
paths that collapse to it. The efficient evaluation runs over the
blank-interleaved label sequence with one alpha (forward) routine, which
yields the sequence probability for both the loss and the gradient, and one
beta (backward) routine, which only the gradient needs. Both stay in log
space throughout (pure log-sum-exp, no per-frame rescaling) so they can be
compared exactly against the brute-force path enumeration.

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
        row_sums = arr.sum(axis=1)
        if np.any(np.abs(row_sums - 1.0) > ROW_SUM_TOL):
            worst = float(np.max(np.abs(row_sums - 1.0)))
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
    shifted = arr - arr.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _check_labels(labels, v_total: int, blank_id: int) -> list[int]:
    out = []
    for token_id in labels:
        token_id = int(token_id)
        if not 0 <= token_id < v_total:
            raise UnknownToken(f"label id {token_id} out of range 0..{v_total - 1}")
        if token_id == blank_id:
            raise BlankInLabelSequence("label sequences must not contain the blank id")
        out.append(token_id)
    return out


def _adjacent_repeats(labels: list[int]) -> int:
    return sum(1 for a, b in zip(labels, labels[1:]) if a == b)


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
    target = _check_labels(labels, v_total, emissions.blank_id)
    probs = emissions.probs
    total = 0.0
    for path in product(range(v_total), repeat=t_frames):
        if collapse(path, emissions.blank_id) == target:
            p = 1.0
            for t, k in enumerate(path):
                p *= probs[t, k]
            total += p
    return total


def _extended_sequence(labels: list[int], blank_id: int) -> np.ndarray:
    ext = np.full(2 * len(labels) + 1, blank_id, dtype=np.int64)
    ext[1::2] = labels
    return ext


def _alphas_log(log_probs_ext: np.ndarray, skip_into: np.ndarray) -> tuple[np.ndarray, float]:
    """Log-space alpha lattice over the extended sequence and the sequence
    log-probability."""
    t_frames, n_states = log_probs_ext.shape
    alphas = np.full((t_frames, n_states), -np.inf)
    alphas[0, 0] = log_probs_ext[0, 0]
    if n_states > 1:
        alphas[0, 1] = log_probs_ext[0, 1]
    for t in range(1, t_frames):
        prev = alphas[t - 1]
        acc = np.logaddexp(prev, np.concatenate(([-np.inf], prev[:-1])))
        if n_states > 2:
            skip = np.concatenate(([-np.inf, -np.inf], prev[:-2]))
            acc = np.where(skip_into, np.logaddexp(acc, skip), acc)
        alphas[t] = acc + log_probs_ext[t]
    if n_states > 1:
        log_p = float(np.logaddexp(alphas[-1, -1], alphas[-1, -2]))
    else:
        log_p = float(alphas[-1, -1])
    return alphas, log_p


def _betas_log(log_probs_ext: np.ndarray, skip_into: np.ndarray) -> np.ndarray:
    """Log-space beta lattice over the extended sequence.

    Beta excludes the emission at its own frame, so alpha[t] + beta[t]
    log-sum-exps to the sequence log-probability at every t.
    """
    t_frames, n_states = log_probs_ext.shape
    betas = np.full((t_frames, n_states), -np.inf)
    betas[t_frames - 1, n_states - 1] = 0.0
    if n_states > 1:
        betas[t_frames - 1, n_states - 2] = 0.0
    for t in range(t_frames - 2, -1, -1):
        nxt = betas[t + 1] + log_probs_ext[t + 1]
        acc = np.logaddexp(nxt, np.concatenate((nxt[1:], [-np.inf])))
        if n_states > 2:
            # skip s -> s+2 is allowed exactly where entering s+2 by skip is
            skip = np.concatenate((nxt[2:], [-np.inf, -np.inf]))
            from_skip = np.concatenate((skip_into[2:], [False, False]))
            acc = np.where(from_skip, np.logaddexp(acc, skip), acc)
        betas[t] = acc
    return betas


def _prepare(emissions_log: np.ndarray, labels: list[int], blank_id: int):
    ext = _extended_sequence(labels, blank_id)
    n_states = len(ext)
    skip_into = np.zeros(n_states, dtype=bool)
    if n_states > 2:
        skip_into[2:] = (ext[2:] != blank_id) & (ext[2:] != ext[:-2])
    return ext, skip_into, emissions_log[:, ext]


def _feasible_target(labels, t_frames: int, v_total: int) -> list[int]:
    """Validated label ids; InfeasibleAlignment unless some path of t_frames
    frames can collapse to them."""
    target = _check_labels(labels, v_total, v_total - 1)
    repeats = _adjacent_repeats(target)
    if t_frames < len(target) + repeats:
        raise InfeasibleAlignment(
            f"{len(target)} labels with {repeats} repeats do not fit in {t_frames} frames"
        )
    return target


def ctc_neg_log_likelihood(emissions: EmissionMatrix, labels) -> float:
    """-log p(labels | emissions) by the forward recursion.

    Raises InfeasibleAlignment when no frame path of length T can collapse to
    the labels; returns +inf when the alignment is feasible but every path has
    probability zero.
    """
    target = _feasible_target(labels, emissions.t_frames, emissions.v_total)
    with np.errstate(divide="ignore"):
        log_probs = np.log(emissions.probs)
    _, skip_into, log_probs_ext = _prepare(log_probs, target, emissions.blank_id)
    _, log_p = _alphas_log(log_probs_ext, skip_into)
    return -log_p


def nll_and_gradient(logits: np.ndarray, labels) -> tuple[float, np.ndarray]:
    """Loss and its gradient w.r.t. pre-softmax scores, in one pass."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2:
        raise ShapeError(f"logits must be 2-D, got shape {logits.shape}")
    t_frames, v_total = logits.shape
    if t_frames < 1 or v_total < 2:
        raise ShapeError(f"logits need T >= 1 and V_total >= 2, got {logits.shape}")
    target = _feasible_target(labels, t_frames, v_total)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_norm
    probs = np.exp(log_probs)

    ext, skip_into, log_probs_ext = _prepare(log_probs, target, v_total - 1)
    alphas, log_p = _alphas_log(log_probs_ext, skip_into)
    betas = _betas_log(log_probs_ext, skip_into)

    # occupancy: gamma[t, k] = sum over states with label k of exp(a + b - log_p)
    contrib = np.exp(alphas + betas - log_p)
    gamma = np.zeros((t_frames, v_total))
    np.add.at(gamma.T, ext, contrib.T)
    return -log_p, probs - gamma


def ctc_gradient(logits: np.ndarray, labels) -> np.ndarray:
    """Gradient of the CTC negative log-likelihood w.r.t. logits.

    Row k at frame t is softmax(logits)[t, k] minus the posterior occupancy of
    token k at t, so every row sums to zero.
    """
    _, grad = nll_and_gradient(logits, labels)
    return grad
