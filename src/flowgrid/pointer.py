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

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

STOP_PROCESS = "stop-process"
PRINTED_FORMULA = "printed-formula"
MODES = (STOP_PROCESS, PRINTED_FORMULA)

# self-test acceptance thresholds
ORACLE_TOL = 1e-12
GRADIENT_TOL = 1e-4


def deltas(length: int) -> np.ndarray:
    """Per-row pointer deltas for an instruction of ``length`` lines."""
    if length < 1:
        raise ValueError("length must be positive")
    return np.concatenate([np.arange(-length, 0), np.arange(1, length + 1)])


def row_of_delta(length: int, delta: int) -> int:
    if not 1 <= abs(delta) <= length:
        raise ValueError(f"delta {delta} out of range for length {length}")
    return delta + length if delta < 0 else length + delta - 1


def scan_order(length: int) -> np.ndarray:
    """Row indices in scan order: +1, -1, +2, -2, ..., +L, -L."""
    order = np.empty(2 * length, dtype=np.intp)
    for k in range(1, length + 1):
        order[2 * (k - 1)] = row_of_delta(length, k)
        order[2 * (k - 1) + 1] = row_of_delta(length, -k)
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


def scan_column(sigmas, mode: str = STOP_PROCESS) -> Tuple[np.ndarray, float]:
    """Delta distribution for one column of heads-probabilities.

    Returns (probabilities indexed by row, residual no-move mass).
    """
    s = _check_sigmas(sigmas)
    length = s.size // 2
    order = scan_order(length)
    if mode == STOP_PROCESS:
        so = s[order]
        tails = np.cumprod(1.0 - so)
        before = np.concatenate(([1.0], tails[:-1]))
        probs = np.empty_like(s)
        probs[order] = so * before
        return probs, float(tails[-1])
    if mode == PRINTED_FORMULA:
        comp = 1.0 - s
        # exclusion products without division: forward/backward prefixes
        forward = np.concatenate(([1.0], np.cumprod(comp)[:-1]))
        backward = np.concatenate((np.cumprod(comp[::-1])[-2::-1], [1.0]))
        probs = s * forward * backward
        return probs, float(1.0 - probs.sum())
    raise ValueError(f"unknown mode {mode!r}")


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
    s = sigmoid(logits.values)
    length = logits.length
    if mode == STOP_PROCESS:
        order = scan_order(length)
        so = s[order, :]
        tails = np.cumprod(1.0 - so, axis=0)
        before = np.vstack([np.ones((1, s.shape[1])), tails[:-1, :]])
        probs = np.empty_like(s)
        probs[order, :] = so * before
        residual = tails[-1, :]
    elif mode == PRINTED_FORMULA:
        comp = 1.0 - s
        forward = np.vstack([np.ones((1, s.shape[1])), np.cumprod(comp, axis=0)[:-1, :]])
        backward = np.vstack(
            [np.cumprod(comp[::-1, :], axis=0)[-2::-1, :], np.ones((1, s.shape[1]))]
        )
        probs = s * forward * backward
        residual = 1.0 - probs.sum(axis=0)
    else:
        raise ValueError(f"unknown mode {mode!r}")
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


def mix_and_sample(
    distribution: MovementDistribution, mixer_logits, rng: np.random.Generator
) -> EdgeChoice:
    """Sample a delta from the blended distribution.

    The blend is renormalised over deltas before sampling; a blend with no
    moved mass signals no movement instead.
    """
    blended, total = mix(distribution, mixer_logits)
    if total <= 0.0:
        return EdgeChoice(row=None, delta=None)
    pvals = blended / total
    pvals = pvals / pvals.sum()
    row = int(rng.choice(pvals.size, p=pvals))
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


def scan_jacobian(logits) -> np.ndarray:
    """d probs / d logits for one column under the stop process.

    With sigmas s in scan order and P_m = s_m * prod_{j<m}(1 - s_j):
    dP_m/dh_m = (1 - s_m) P_m, dP_m/dh_k = -s_k P_m for k earlier in the
    scan, zero for k later.  Both forms are products of existing factors,
    so saturated sigmas stay exact.  Rows and columns use row indexing.
    """
    h = np.asarray(logits, dtype=np.float64)
    if h.ndim != 1 or h.size == 0 or h.size % 2:
        raise ValueError("logit vector must have even positive length")
    length = h.size // 2
    order = scan_order(length)
    so = sigmoid(h)[order]
    tails = np.cumprod(1.0 - so)
    before = np.concatenate(([1.0], tails[:-1]))
    p = so * before
    jac = np.tril(-np.outer(p, so), -1)
    np.fill_diagonal(jac, (1.0 - so) * p)
    out = np.empty((h.size, h.size))
    out[np.ix_(order, order)] = jac
    return out


def finite_difference_jacobian(logits, step: float = 1e-6) -> np.ndarray:
    """Central finite differences of scan_column wrt each logit."""
    h = np.asarray(logits, dtype=np.float64)
    jac = np.empty((h.size, h.size))
    for k in range(h.size):
        bump = np.zeros_like(h)
        bump[k] = step
        high, _ = scan_column(sigmoid(h + bump))
        low, _ = scan_column(sigmoid(h - bump))
        jac[:, k] = (high - low) / (2.0 * step)
    return jac


def baseline_support(kind: str, length: int) -> tuple:
    """Movement supports for the reference pointer baselines."""
    if length < 1:
        raise ValueError("length must be positive")
    if kind == "olsk":
        return (-1, 0, 1)
    if kind == "olsk_extended":
        return tuple(range(-length, length + 1))
    if kind == "ablation":
        return tuple(d for d in range(-length, length + 1) if d != 0)
    raise ValueError(f"unknown baseline {kind!r}")


# --- verification sweeps ------------------------------------------------------------


def oracle_sweep(
    rng: np.random.Generator, trials: int, max_len: int, mode: str = STOP_PROCESS
) -> dict:
    """Compare the closed form against literal enumeration on random sigmas.

    Returns per-trial rows and overall maxima for the probability
    difference, normalisation error, and (stop mode) residual-product error.
    """
    oracle = brute_force_oracle if mode == STOP_PROCESS else product_rule_oracle
    rows = []
    max_prob_diff = 0.0
    max_norm_err = 0.0
    max_residual_err = 0.0
    for trial in range(trials):
        length = int(rng.integers(1, max_len + 1))
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
        max_prob_diff = max(max_prob_diff, prob_diff)
        max_norm_err = max(max_norm_err, norm_err)
        max_residual_err = max(max_residual_err, residual_err)
    return {
        "mode": mode,
        "rows": rows,
        "max_abs_diff": max_prob_diff,
        "max_norm_err": max_norm_err,
        "max_residual_err": max_residual_err,
    }


def gradient_sweep(
    rng: np.random.Generator,
    trials: int,
    max_len: int,
    step: float = 1e-6,
    floor: float = 1e-8,
) -> dict:
    """Analytic-versus-numeric jacobian errors on random logit columns.

    Logits are drawn from a moderate range so the finite differences stay
    well conditioned; entries below ``floor`` in both jacobians are skipped.
    """
    rows = []
    worst = 0.0
    for trial in range(trials):
        length = int(rng.integers(1, max_len + 1))
        logits = rng.uniform(-4.0, 4.0, size=2 * length)
        analytic = scan_jacobian(logits)
        numeric = finite_difference_jacobian(logits, step)
        scale = np.maximum(np.abs(analytic), np.abs(numeric))
        mask = scale > floor
        if mask.any():
            rel = float(
                np.max(np.abs(analytic[mask] - numeric[mask]) / scale[mask])
            )
        else:
            rel = 0.0
        rows.append({"trial": trial, "length": length, "max_rel_err": rel})
        worst = max(worst, rel)
    return {"rows": rows, "max_rel_err": worst}
