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
import math
import operator
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
# the sweeps check columns of one length a stack at a time, a stack holding one column
# or at most this many sigmas (32 columns at L = 25) or jacobian entries (4 at L = 25)
ORACLE_BATCH = 1_600
GRADIENT_BATCH = 10_000


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
    # a column, or a stack along the last axis, contiguous so each sums as one column does
    s = np.ascontiguousarray(sigmas, dtype=np.float64)
    if s.shape[-1] == 0 or s.shape[-1] % 2:
        raise ValueError("sigma columns must have even positive length")
    if not ((s >= 0.0) & (s <= 1.0)).all():
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


def scan_column(sigmas, mode: str = STOP_PROCESS) -> Tuple[np.ndarray, float | np.ndarray]:
    """Delta distribution for one column of heads-probabilities, or a (k, 2L) stack.

    Returns (probabilities indexed by row, residual no-move mass); the
    residual is a float for one column and an array for a stack.
    """
    s = _check_sigmas(sigmas)
    if mode not in _RULES:
        raise ValueError(f"unknown mode {mode!r}")
    probs, residual = _RULES[mode](s)
    return probs, float(residual) if s.ndim == 1 else residual


def brute_force_oracle(sigmas) -> Tuple[np.ndarray, float]:
    """Literal sequential simulation of the stop process, one coin at a time."""
    s = _check_sigmas(sigmas)
    if s.ndim != 1:
        raise ValueError("the oracles take one column at a time")
    column = s.tolist()  # Python floats: the same doubles, cheaper arithmetic than numpy scalars
    probs = [0.0] * len(column)
    not_stopped = 1.0
    for row in scan_order(len(column) // 2).tolist():
        sigma = column[row]
        probs[row] = not_stopped * sigma
        not_stopped *= 1.0 - sigma
    return np.array(probs), not_stopped


def product_rule_oracle(sigmas) -> Tuple[np.ndarray, float]:
    """Direct per-delta evaluation of the exactly-one-heads rule."""
    s = _check_sigmas(sigmas)
    if s.ndim != 1:
        raise ValueError("the oracles take one column at a time")
    column = s.tolist()
    probs = np.empty_like(s)
    for i, sigma in enumerate(column):
        product = 1.0
        for j, other in enumerate(column):
            if j != i:
                product *= 1.0 - other
        probs[i] = sigma * product
    return probs, float(1.0 - probs.sum())  # numpy's pairwise sum, not Python's


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
    """Column-wise delta distributions for a full logit matrix, one stack row an edge."""
    if not isinstance(logits, ScanLogits):
        logits = ScanLogits(np.asarray(logits))
    probs, residual = scan_column(sigmoid(logits.values).T, mode)
    return MovementDistribution(probs=np.ascontiguousarray(probs.T), residual=residual)


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
    if not np.all(np.isfinite(u)):
        raise ValueError("mixer logits must be finite")
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
    """Gated, clamped pointer update onto 0..length-1, as a Python int.

    Each argument must be an integer that ``operator.index`` takes, and not a bool.
    """
    try:
        if any(isinstance(x, bool) for x in (position, gate, delta, length)):
            raise TypeError
        position, gate, delta, length = map(operator.index, (position, gate, delta, length))
    except TypeError:
        raise ValueError("position, gate, delta and length must be integers") from None
    if length < 1:
        raise ValueError("length must be positive")
    if not 0 <= position < length:
        raise ValueError(f"position {position} out of range")
    if gate not in (0, 1):
        raise ValueError("gate is binary")
    moved = position + gate * delta
    return max(0, min(length - 1, moved))


def _check_logits(logits) -> np.ndarray:
    h = np.ascontiguousarray(logits, dtype=np.float64)
    if h.shape[-1] == 0 or h.shape[-1] % 2:
        raise ValueError("logit columns must have even positive length")
    if np.isnan(h).any():
        raise ValueError("logits must not be NaN")
    return h


def scan_jacobian(logits) -> np.ndarray:
    """d probs / d logits for one column or a (k, 2L) stack under the stop process.

    With sigmas s in scan order and P_m = s_m * prod_{j<m}(1 - s_j):
    dP_m/dh_m = (1 - s_m) P_m, dP_m/dh_k = -s_k P_m for k earlier in the
    scan, zero for k later.  Both forms are products of existing factors,
    so saturated sigmas stay exact.  Rows and columns use row indexing.
    """
    h = _check_logits(logits)
    order = scan_order(h.shape[-1] // 2)
    s = sigmoid(h)
    so = s[..., order]
    p = _stop_process(s)[0][..., order]
    jac = np.tril(-(p[..., :, None] * so[..., None, :]), -1)
    diagonal = np.arange(order.size)
    jac[..., diagonal, diagonal] = (1.0 - so) * p
    out = np.empty(jac.shape)
    out[..., order[:, None], order] = jac
    return out


def finite_difference_jacobian(logits) -> np.ndarray:
    """Central finite differences of the stop process wrt each logit.

    Row k of each column's batch bumps logit k alone, so column k of the
    result is the difference quotient for logit k.  Takes O(L^2) memory a
    column, as the jacobian itself does.
    """
    h = _check_logits(logits)[..., None, :]
    bump = np.eye(h.shape[-1]) * FD_STEP
    high, _ = _stop_process(sigmoid(h + bump))
    low, _ = _stop_process(sigmoid(h - bump))
    return (high - low).swapaxes(-1, -2) / (2.0 * FD_STEP)


# --- verification sweeps ------------------------------------------------------------


def _batched(rng: Draws, trials: int, max_len: int, draw, size, check) -> list:
    """Per-trial rows of ``trials`` random columns, checked a stack at a time.

    Each trial draws its length, then its ``draw(2 * length)`` column, which
    waits in its length's bucket until ``size(length)`` are there or the draws
    end; ``check`` gives one row per column of the bucket's (k, 2L) stack."""
    rows = [None] * trials
    buckets = {}

    def flush(length):
        indices, columns = buckets.pop(length)
        for trial, row in zip(indices, check(np.array(columns))):
            rows[trial] = {"trial": trial, "length": length, **row}

    for trial in range(trials):
        length = rng.integers(1, max_len + 1)
        indices, columns = buckets.setdefault(length, ([], []))
        indices.append(trial)
        columns.append(draw(2 * length))
        if len(columns) == size(length):
            flush(length)
    for length in list(buckets):
        flush(length)
    return rows


def _worst(rows, key: str):
    """Python's ``max`` of ``row[key]`` over ``rows``, 0.0 for none, or NaN if any is NaN."""
    values = [row[key] for row in rows]
    return math.nan if any(map(math.isnan, values)) else max(values, default=0.0)


def oracle_sweep(rng: Draws, trials: int, max_len: int, mode: str = STOP_PROCESS) -> dict:
    """Compare the closed form against literal enumeration on random sigmas.

    Returns per-trial rows and overall maxima (NaN if any row is NaN) for the
    probability difference, normalisation error, and (stop mode) residual-product error.
    The kernel takes each stack whole; the oracle takes one column a call.
    """
    oracle = brute_force_oracle if mode == STOP_PROCESS else product_rule_oracle

    def check(sigmas):
        probs, residual = scan_column(sigmas, mode)
        ref_probs, ref_residuals = zip(*[oracle(column) for column in sigmas])
        diff = np.maximum(np.abs(probs - ref_probs).max(axis=-1),
                          np.abs(residual - ref_residuals))
        norm_err = np.abs(probs.sum(axis=-1) + residual - 1.0)  # rows keep np.float64 here
        residual_err = (np.abs(residual - np.prod(1.0 - sigmas, axis=-1)).tolist()
                        if mode == STOP_PROCESS else [0.0] * len(sigmas))
        for row in zip(diff.tolist(), norm_err, residual_err):
            yield dict(zip(("max_abs_diff", "norm_err", "residual_err"), row))

    rows = _batched(rng, trials, max_len, rng.random,
                    lambda length: max(1, ORACLE_BATCH // (2 * length)), check)
    return {
        "rows": rows,
        "max_abs_diff": _worst(rows, "max_abs_diff"),
        "max_norm_err": _worst(rows, "norm_err"),
        "max_residual_err": _worst(rows, "residual_err"),
    }


def gradient_sweep(rng: Draws, trials: int, max_len: int) -> dict:
    """Analytic-versus-numeric jacobian errors on random logit columns.

    Logits are drawn from (-4, 4), bit for bit numpy's uniform, so the finite
    differences stay well conditioned; entries below ``REL_ERR_FLOOR`` in both
    jacobians are skipped, and a NaN entry makes its row and the maximum NaN.
    """

    def check(logits):
        analytic, numeric = scan_jacobian(logits), finite_difference_jacobian(logits)
        scale = np.maximum(np.abs(analytic), np.abs(numeric))
        rel = np.divide(np.abs(analytic - numeric), scale, out=np.zeros_like(scale),
                        where=~(scale <= REL_ERR_FLOOR))  # a NaN scale is divided, not skipped
        return [{"max_rel_err": worst} for worst in rel.max(axis=(-2, -1)).tolist()]

    rows = _batched(rng, trials, max_len, lambda size: -4.0 + 8.0 * rng.random(size),
                    lambda length: max(1, GRADIENT_BATCH // (2 * length) ** 2), check)
    return {"rows": rows, "max_rel_err": _worst(rows, "max_rel_err")}
