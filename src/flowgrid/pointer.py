"""Pointer-movement kernel.

A pointer over an L-line instruction moves by a delta in -L..+L (zero
excluded).  Per-delta "heads" probabilities are examined in a fixed
near-to-far scan order (+1, -1, +2, -2, ..., +L, -L); the first heads
stops the scan and selects that delta, so the delta at scan position m
carries probability sigma_m * prod_{m'<m}(1 - sigma_m'), and the leftover
mass prod(1 - sigma) is the residual (no movement selected).

Row convention for all 2L-vectors and matrices: rows 0..L-1 are deltas
-L..-1 ascending, rows L..2L-1 are deltas +1..+L ascending.

An alternate "exactly one heads" combination rule is kept behind
mode="printed-formula": each delta's probability is its own heads
times the product of every other delta's tails.  It is not the canonical
rule; it exists for comparison.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .rngtools import Draws

STOP_PROCESS = "stop-process"
PRINTED_FORMULA = "printed-formula"

# self-test acceptance thresholds
ORACLE_TOL = 1e-12
GRADIENT_TOL = 1e-4
FD_STEP = 1e-6  # logit bump of the central finite differences
REL_ERR_FLOOR = 1e-8  # gradient_sweep skips jacobian entries below this in both forms


def deltas(length: int) -> np.ndarray:
    """Per-row pointer deltas for an instruction of ``length`` lines."""
    if length < 1:
        raise ValueError("length must be positive")
    return np.concatenate([np.arange(-length, 0), np.arange(1, length + 1)])


def row_of_delta(length: int, delta: int) -> int:
    if not 1 <= abs(delta) <= length:
        raise ValueError(f"delta {delta} out of range for length {length}")
    return delta + length if delta < 0 else length + delta - 1


@functools.lru_cache(maxsize=None)
def scan_order(length: int) -> np.ndarray:
    """Row indices in scan order: +1, -1, +2, -2, ..., +L, -L.

    Cached per length and read-only: every caller shares one array.
    """
    order = np.empty(2 * length, dtype=np.intp)
    for k in range(1, length + 1):
        order[2 * (k - 1)] = row_of_delta(length, k)
        order[2 * (k - 1) + 1] = row_of_delta(length, -k)
    order.flags.writeable = False
    return order


def sigmoid(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _check_sigmas(sigmas) -> np.ndarray:
    s = np.asarray(sigmas, dtype=np.float64)
    if s.ndim != 1 or s.size == 0 or s.size % 2:
        raise ValueError("sigma vector must have even positive length")
    if not np.all((s >= 0.0) & (s <= 1.0)):
        raise ValueError("sigmas must lie in [0, 1]")
    return s


def _stop_process(s: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Stop-process probabilities and residuals along the last axis of ``s``.

    ``s`` holds heads-probabilities in row order; every leading index is an
    independent column.  The products run left to right in scan order, the
    same multiplications as the one-coin-at-a-time oracle.
    """
    order = scan_order(s.shape[-1] // 2)
    so = s[..., order]
    before = np.ones_like(so)
    np.cumprod(1.0 - so[..., :-1], axis=-1, out=before[..., 1:])
    probs = np.empty_like(s)
    probs[..., order] = so * before
    return probs, before[..., -1] * (1.0 - so[..., -1])


def _printed_formula(s: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Exactly-one-heads probabilities and residuals along the last axis of ``s``.

    Each exclusion product is a forward prefix times a backward suffix of
    the tails, with no division.
    """
    comp = 1.0 - s
    forward = np.ones_like(s)
    np.cumprod(comp[..., :-1], axis=-1, out=forward[..., 1:])
    backward = np.ones_like(s)
    np.cumprod(comp[..., :0:-1], axis=-1, out=backward[..., -2::-1])
    probs = s * forward * backward
    return probs, 1.0 - probs.sum(axis=-1)


_RULES = {STOP_PROCESS: _stop_process, PRINTED_FORMULA: _printed_formula}
MODES = tuple(_RULES)


def _rule(mode: str):
    """The batch core of movement rule ``mode``."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    return _RULES[mode]


def scan_column(sigmas, mode: str = STOP_PROCESS) -> Tuple[np.ndarray, float]:
    """Delta distribution for one column of heads-probabilities.

    Returns (probabilities indexed by row, residual no-move mass).
    """
    s = _check_sigmas(sigmas)
    probs, residual = _rule(mode)(s)
    return probs, float(residual)


def brute_force_oracle(sigmas) -> Tuple[np.ndarray, float]:
    """Literal sequential simulation of the stop process, one coin at a time."""
    s = _check_sigmas(sigmas)
    length = s.size // 2
    probs = [0.0] * s.size
    not_stopped = 1.0
    for row in scan_order(length):
        probs[row] = not_stopped * s[row]
        not_stopped = not_stopped * (1.0 - s[row])
    return np.array(probs), not_stopped


def product_rule_oracle(sigmas) -> Tuple[np.ndarray, float]:
    """Direct per-delta evaluation of the exactly-one-heads rule."""
    s = _check_sigmas(sigmas)
    probs = np.empty_like(s)
    for i in range(s.size):
        product = 1.0
        for j in range(s.size):
            if j != i:
                product *= 1.0 - s[j]
        probs[i] = s[i] * product
    return probs, float(1.0 - probs.sum())


@dataclass(frozen=True)
class ScanLogits:
    """Raw (2L, n_edges) logit matrix; sigmoid gives heads-probabilities."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] == 0 or v.shape[0] % 2:
            raise ValueError("logits must be (2L, n_edges) with L >= 1")
        if not np.all(np.isfinite(v)):
            raise ValueError("logits must be finite")
        object.__setattr__(self, "values", v)

    @property
    def length(self) -> int:
        return self.values.shape[0] // 2

    @property
    def n_edges(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class MovementDistribution:
    """Per-edge delta distributions plus residual no-move mass."""

    probs: np.ndarray  # (2L, n_edges)
    residual: np.ndarray  # (n_edges,)

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        r = np.asarray(self.residual, dtype=np.float64)
        if p.ndim != 2 or r.shape != (p.shape[1],):
            raise ValueError("shape mismatch between probs and residual")
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(r))):
            raise ValueError("probabilities must be finite")
        if np.any(p < -1e-12) or np.any(r < -1e-12):
            raise ValueError("negative probability mass")
        if np.any(np.abs(p.sum(axis=0) + r - 1.0) > 1e-9):
            raise ValueError("columns plus residual must sum to one")
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "residual", r)

    @property
    def length(self) -> int:
        return self.probs.shape[0] // 2


def scan_matrix(logits: ScanLogits, mode: str = STOP_PROCESS) -> MovementDistribution:
    """Column-wise delta distributions for a full logit matrix."""
    if not isinstance(logits, ScanLogits):
        logits = ScanLogits(np.asarray(logits))
    # the cores run along the last axis; a contiguous copy makes each column
    # a contiguous row, summed as scan_column sums it
    probs, residual = _rule(mode)(np.ascontiguousarray(sigmoid(logits.values).T))
    probs = np.ascontiguousarray(probs.T)
    return MovementDistribution(probs=probs, residual=residual)


@dataclass(frozen=True)
class EdgeChoice:
    """Result of sampling a movement: row/delta, or a no-move signal."""

    row: Optional[int]
    delta: Optional[int]

    @property
    def moved(self) -> bool:
        return self.row is not None


def mix(distribution: MovementDistribution, mixer_logits) -> Tuple[np.ndarray, float]:
    """Blend per-edge columns with softmax weights over edges.

    Returns (blended delta vector, total moved mass).
    """
    u = np.asarray(mixer_logits, dtype=np.float64)
    if u.shape != (distribution.probs.shape[1],):
        raise ValueError("one mixer logit per edge required")
    shifted = u - u.max()
    w = np.exp(shifted)
    w /= w.sum()
    blended = distribution.probs @ w
    return blended, float(blended.sum())


def mix_and_sample(distribution: MovementDistribution, mixer_logits, rng: Draws) -> EdgeChoice:
    """Sample a delta from the blended distribution.

    The blend is renormalised over deltas before sampling; a blend with no
    moved mass signals no movement instead.
    """
    blended, total = mix(distribution, mixer_logits)
    if total <= 0.0:
        return EdgeChoice(row=None, delta=None)
    pvals = blended / total
    cdf = (pvals / pvals.sum()).cumsum()
    cdf /= cdf[-1]
    row = int(cdf.searchsorted(rng.random(), side="right"))  # numpy's choice(p=...)
    return EdgeChoice(row=row, delta=int(deltas(distribution.length)[row]))


def update_pointer(position: int, gate: int, delta: int, length: int) -> int:
    """Gated, clamped pointer update onto 0..length-1."""
    if length < 1:
        raise ValueError("length must be positive")
    if not 0 <= position < length:
        raise ValueError(f"position {position} out of range")
    if gate not in (0, 1):
        raise ValueError("gate is binary")
    moved = position + gate * delta
    return max(0, min(length - 1, moved))


def _check_logits(logits) -> np.ndarray:
    h = np.asarray(logits, dtype=np.float64)
    if h.ndim != 1 or h.size == 0 or h.size % 2:
        raise ValueError("logit vector must have even positive length")
    if np.isnan(h).any():
        raise ValueError("logits must not be NaN")
    return h


def scan_jacobian(logits) -> np.ndarray:
    """d probs / d logits for one column under the stop process.

    With sigmas s in scan order and P_m = s_m * prod_{j<m}(1 - s_j):
    dP_m/dh_m = (1 - s_m) P_m, dP_m/dh_k = -s_k P_m for k earlier in the
    scan, zero for k later.  Both forms are products of existing factors,
    so saturated sigmas stay exact.  Rows and columns use row indexing.
    """
    h = _check_logits(logits)
    order = scan_order(h.size // 2)
    s = sigmoid(h)
    so = s[order]
    p = _stop_process(s)[0][order]
    jac = np.tril(-np.outer(p, so), -1)
    np.fill_diagonal(jac, (1.0 - so) * p)
    out = np.empty((h.size, h.size))
    out[np.ix_(order, order)] = jac
    return out


def finite_difference_jacobian(logits) -> np.ndarray:
    """Central finite differences of the stop process wrt each logit.

    Row k of each batch bumps logit k alone, so column k of the result is
    the difference quotient for logit k.  Takes O(L^2) memory, as the
    jacobian itself does.
    """
    h = _check_logits(logits)
    bump = np.eye(h.size) * FD_STEP
    high, _ = _stop_process(sigmoid(h + bump))
    low, _ = _stop_process(sigmoid(h - bump))
    return (high.T - low.T) / (2.0 * FD_STEP)


# --- verification sweeps ------------------------------------------------------------


def oracle_sweep(rng: Draws, trials: int, max_len: int, mode: str = STOP_PROCESS) -> dict:
    """Compare the closed form against literal enumeration on random sigmas.

    Returns per-trial rows and overall maxima for the probability
    difference, normalisation error, and (stop mode) residual-product error.
    """
    oracle = brute_force_oracle if mode == STOP_PROCESS else product_rule_oracle
    rows = []
    for trial in range(trials):
        length = rng.integers(1, max_len + 1)
        sigmas = rng.random(2 * length)
        probs, residual = scan_column(sigmas, mode)
        ref_probs, ref_residual = oracle(sigmas)
        prob_diff = float(np.max(np.abs(probs - ref_probs)))
        prob_diff = max(prob_diff, abs(residual - ref_residual))
        norm_err = abs(probs.sum() + residual - 1.0)
        if mode == STOP_PROCESS:
            residual_err = abs(residual - float(np.prod(1.0 - sigmas)))
        else:
            residual_err = 0.0
        rows.append(
            {
                "trial": trial,
                "length": length,
                "max_abs_diff": prob_diff,
                "norm_err": norm_err,
                "residual_err": residual_err,
            }
        )
    return {
        "rows": rows,
        "max_abs_diff": max((row["max_abs_diff"] for row in rows), default=0.0),
        "max_norm_err": max((row["norm_err"] for row in rows), default=0.0),
        "max_residual_err": max((row["residual_err"] for row in rows), default=0.0),
    }


def gradient_sweep(rng: Draws, trials: int, max_len: int) -> dict:
    """Analytic-versus-numeric jacobian errors on random logit columns.

    Logits are drawn from a moderate range so the finite differences stay
    well conditioned; entries below ``REL_ERR_FLOOR`` in both jacobians are
    skipped.
    """
    rows = []
    for trial in range(trials):
        length = rng.integers(1, max_len + 1)
        logits = -4.0 + 8.0 * rng.random(2 * length)  # numpy's uniform(-4, 4), bit for bit
        analytic = scan_jacobian(logits)
        numeric = finite_difference_jacobian(logits)
        scale = np.maximum(np.abs(analytic), np.abs(numeric))
        mask = scale > REL_ERR_FLOOR
        if mask.any():
            rel = float(
                np.max(np.abs(analytic[mask] - numeric[mask]) / scale[mask])
            )
        else:
            rel = 0.0
        rows.append({"trial": trial, "length": length, "max_rel_err": rel})
    worst = max((row["max_rel_err"] for row in rows), default=0.0)
    return {"rows": rows, "max_rel_err": worst}
