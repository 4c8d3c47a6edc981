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

Everything here is 64-bit; token ids are plain ints with the blank id taken
from the emission width context (callers pass it explicitly to `collapse`).
"""

from __future__ import annotations

from itertools import groupby, product

import numpy as np

from .errors import InfeasibleAlignment, ShapeError, TooLargeForOracle, UnknownToken
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
    shifted = arr - arr.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
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


def _lattice_inputs(log_probs: np.ndarray, labels) -> tuple[np.ndarray, np.ndarray]:
    """The blank-interleaved label sequence and its emission columns.

    Validates the label ids and raises InfeasibleAlignment unless some path
    of T frames can collapse to them.
    """
    t_frames, v_total = log_probs.shape
    target = check_label_ids(labels, v_total)
    need = min_frames(target)
    if t_frames < need:
        raise InfeasibleAlignment(f"{len(target)} labels need {need} frames, got {t_frames}")
    ext = np.full(2 * len(target) + 1, v_total - 1, dtype=np.int64)
    ext[1::2] = target
    return ext, log_probs[:, ext]


def _lattice_log(log_probs_ext: np.ndarray, ext: np.ndarray) -> np.ndarray:
    """Log-mass reaching each state of the extended sequence `ext` at each
    frame, before that frame's own emission.

    Paths start in the first two states. Each frame a path stays, moves one
    state on, or skips the blank before a label that differs from the label
    two states back. Adding `log_probs_ext` gives the alphas. Run on the time-
    and state-reversed lattice, whose extended sequence is that of the
    reversed labels, the same recursion gives the betas, which exclude the
    emission at their own frame.
    """
    t_frames, n_states = log_probs_ext.shape
    skip_into = np.zeros(n_states, dtype=bool)
    skip_into[2:] = ext[2:] != ext[:-2]  # false at blanks: two back is a blank too
    lattice = np.full((t_frames, n_states), -np.inf)
    lattice[0, :2] = 0.0
    prev = np.full(n_states + 2, -np.inf)  # the states two and one before state 0 stay empty
    for t in range(1, t_frames):
        np.add(lattice[t - 1], log_probs_ext[t - 1], out=prev[2:])
        acc = np.logaddexp(prev[2:], prev[1:-1])
        lattice[t] = np.where(skip_into, np.logaddexp(acc, prev[:-2]), acc)
    return lattice


def ctc_neg_log_likelihood(emissions: EmissionMatrix, labels) -> float:
    """-log p(labels | emissions) by the forward recursion.

    Raises InfeasibleAlignment when no frame path of length T can collapse to
    the labels; returns +inf when the alignment is feasible but every path has
    probability zero.
    """
    with np.errstate(divide="ignore"):
        log_probs = np.log(emissions.probs)
    ext, log_probs_ext = _lattice_inputs(log_probs, labels)
    alphas = _lattice_log(log_probs_ext, ext) + log_probs_ext
    return -float(np.logaddexp.reduce(alphas[-1, -2:]))


def nll_and_gradient(logits: np.ndarray, labels) -> tuple[float, np.ndarray]:
    """Loss and its gradient w.r.t. pre-softmax scores, in one pass.

    Raises ValueError when the loss is not finite: NaN or +inf logits, or
    labels that every path gives probability zero.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2:
        raise ShapeError(f"logits must be 2-D, got shape {logits.shape}")
    t_frames, v_total = logits.shape
    if t_frames < 1 or v_total < 2:
        raise ShapeError(f"logits need T >= 1 and V_total >= 2, got {logits.shape}")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_norm
    probs = np.exp(log_probs)

    ext, log_probs_ext = _lattice_inputs(log_probs, labels)
    alphas = _lattice_log(log_probs_ext, ext) + log_probs_ext
    log_p = float(np.logaddexp.reduce(alphas[-1, -2:]))
    if not np.isfinite(log_p):
        raise ValueError(
            f"CTC log-probability is {log_p}: non-finite logits or a zero-probability target"
        )
    betas = _lattice_log(log_probs_ext[::-1, ::-1], ext[::-1])[::-1, ::-1]

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
