"""Scan-order movement kernel: probabilities, gradients, mixing, updates.

Frozen expectations below were derived by running the stop process by
hand: P(scan position m) = sigma_m * prod of earlier tails, in the fixed
order +1, -1, +2, -2, ...
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from flowgrid import pointer
from flowgrid.pointer import (
    EdgeChoice,
    MovementDistribution,
    ScanLogits,
    brute_force_oracle,
    deltas,
    finite_difference_jacobian,
    mix,
    mix_and_sample,
    product_rule_oracle,
    row_of_delta,
    scan_column,
    scan_jacobian,
    scan_matrix,
    scan_order,
    sigmoid,
    update_pointer,
)
from flowgrid.rngtools import draws, substream

sigma_vectors = st.integers(1, 6).flatmap(
    lambda length: hnp.arrays(
        np.float64,
        (2 * length,),
        elements=st.floats(0.0, 1.0, allow_nan=False),
    )
)


# --- conventions ------------------------------------------------------------------


def test_row_delta_convention():
    assert list(deltas(3)) == [-3, -2, -1, 1, 2, 3]
    assert row_of_delta(3, -3) == 0
    assert row_of_delta(3, -1) == 2
    assert row_of_delta(3, 1) == 3
    assert row_of_delta(3, 3) == 5
    with pytest.raises(ValueError):
        row_of_delta(3, 0)
    with pytest.raises(ValueError):
        row_of_delta(3, 4)


def test_scan_order_is_near_to_far_positive_first():
    # L=3 rows: [-3, -2, -1, +1, +2, +3] -> order +1,-1,+2,-2,+3,-3
    assert list(scan_order(3)) == [3, 2, 4, 1, 5, 0]


def test_scan_order_is_cached_read_only():
    order = scan_order(3)
    with pytest.raises(ValueError):
        order[0] = 0
    assert scan_order(3) is order
    assert list(scan_order(3)) == [3, 2, 4, 1, 5, 0]


# --- frozen stop-process values ----------------------------------------------------


def test_stop_process_frozen_column():
    # rows (-2, -1, +1, +2) with sigmas (0.25, 0.5, 0.5, 1.0): scan visits
    # +1 (0.5), -1 (0.5), +2 (1.0), -2 (0.25)
    #   P(+1) = 0.5
    #   P(-1) = 0.5 * 0.5          = 0.25
    #   P(+2) = 1.0 * 0.5 * 0.5    = 0.25
    #   P(-2) = 0.25 * 0.5*0.5*0.0 = 0
    probs, residual = scan_column([0.25, 0.5, 0.5, 1.0])
    assert list(probs) == [0.0, 0.25, 0.5, 0.25]
    assert residual == 0.0


def test_stop_process_uniform_half():
    probs, residual = scan_column([0.5, 0.5])
    assert probs[row_of_delta(1, 1)] == 0.5
    assert probs[row_of_delta(1, -1)] == 0.25
    assert residual == 0.25


def test_all_zeros_is_all_residual():
    probs, residual = scan_column([0.0, 0.0, 0.0, 0.0])
    assert (probs == 0.0).all() and residual == 1.0


def test_first_scan_slot_certain_head_takes_all():
    probs, residual = scan_column([1.0, 1.0, 1.0, 1.0])
    assert probs[row_of_delta(2, 1)] == 1.0
    assert probs.sum() == 1.0 and residual == 0.0


def test_printed_formula_frozen_column():
    # exactly-one-heads with sigmas (0.5, 0.5): each P = 0.5 * 0.5 = 0.25,
    # leftover 0.5 covers the zero- and two-head outcomes
    probs, residual = scan_column([0.5, 0.5], mode="printed-formula")
    assert list(probs) == [0.25, 0.25]
    assert residual == 0.5


def test_modes_are_distinct():
    s = [0.5, 0.5, 0.5, 0.5]
    stop, _ = scan_column(s)
    printed, _ = scan_column(s, mode="printed-formula")
    assert not np.allclose(stop, printed)
    with pytest.raises(ValueError):
        scan_column(s, mode="other")


# --- oracles -----------------------------------------------------------------------


@given(sigmas=sigma_vectors)
@settings(max_examples=200, deadline=None)
def test_scan_column_matches_sequential_simulation(sigmas):
    probs, residual = scan_column(sigmas)
    ref, ref_residual = brute_force_oracle(sigmas)
    assert np.max(np.abs(probs - ref)) < 1e-12
    assert abs(residual - ref_residual) < 1e-12
    assert abs(probs.sum() + residual - 1.0) < 1e-12
    assert abs(residual - np.prod(1.0 - np.asarray(sigmas))) < 1e-12


@given(sigmas=sigma_vectors)
@settings(max_examples=200, deadline=None)
def test_printed_formula_matches_enumeration(sigmas):
    probs, residual = scan_column(sigmas, mode="printed-formula")
    ref, ref_residual = product_rule_oracle(sigmas)
    assert np.max(np.abs(probs - ref)) < 1e-12
    assert abs(residual - ref_residual) < 1e-12


def test_sigma_validation():
    with pytest.raises(ValueError):
        scan_column([0.5])  # odd length
    with pytest.raises(ValueError):
        scan_column([])
    with pytest.raises(ValueError):
        scan_column([0.5, 1.5])


# --- matrix form -------------------------------------------------------------------


@pytest.mark.parametrize("mode", pointer.MODES)
def test_scan_matrix_agrees_with_columns(mode):
    # bit for bit: a printed-formula batch that sums down the strided axis
    # misses a column's residual in the last bit on a few of these columns
    rng = substream(0, "matrix-vs-column")
    for shape in [(8, 5)] * 40 + [(10, 5)] * 40:
        logits = rng.normal(size=shape)
        dist = scan_matrix(ScanLogits(logits), mode)
        for j in range(shape[1]):
            probs, residual = scan_column(sigmoid(logits[:, j]), mode)
            assert np.array_equal(dist.probs[:, j], probs)
            assert dist.residual[j] == residual


def test_columns_are_independent_bitwise():
    # the same logit column embedded anywhere yields identical output bits
    rng = substream(1, "column-shift")
    column = rng.normal(size=10)
    for width in (3, 7):
        matrix = rng.normal(size=(10, width))
        outs = []
        for position in range(width):
            m = matrix.copy()
            m[:, position] = column
            dist = scan_matrix(ScanLogits(m))
            outs.append((dist.probs[:, position], dist.residual[position]))
        first_probs, first_residual = outs[0]
        for probs, residual in outs[1:]:
            assert np.array_equal(probs, first_probs)
            assert residual == first_residual


def test_scan_logits_validation():
    with pytest.raises(ValueError):
        ScanLogits(np.zeros((3, 2)))  # odd row count
    with pytest.raises(ValueError):
        ScanLogits(np.array([[np.inf], [0.0]]))
    with pytest.raises(ValueError):
        ScanLogits(np.zeros(4))  # not a matrix


def test_movement_distribution_validation():
    with pytest.raises(ValueError):
        MovementDistribution(probs=np.full((2, 1), 0.9), residual=np.array([0.1]))
    # every comparison with NaN is False, so no sum or sign test catches it
    for probs, residual in [([[np.nan], [0.5]], [0.5]), ([[0.5], [0.5]], [np.nan]),
                            ([[np.inf], [0.5]], [0.5])]:
        with pytest.raises(ValueError):
            MovementDistribution(probs=np.array(probs), residual=np.array(residual))
    good = MovementDistribution(
        probs=np.array([[0.5], [0.25]]), residual=np.array([0.25])
    )
    assert good.length == 1


# --- gradients ---------------------------------------------------------------------


def test_jacobian_frozen_values():
    # L=1, both logits 0 (sigma 0.5): P(+1)=0.5, P(-1)=0.25
    # dP(+1)/dh(+1) = (1-s)P = 0.25      dP(+1)/dh(-1) = 0
    # dP(-1)/dh(+1) = -s P   = -0.125    dP(-1)/dh(-1) = 0.125
    jac = scan_jacobian(np.zeros(2))
    pos, neg = row_of_delta(1, 1), row_of_delta(1, -1)
    assert jac[pos, pos] == 0.25
    assert jac[pos, neg] == 0.0
    assert jac[neg, pos] == -0.125
    assert jac[neg, neg] == 0.125


def test_jacobian_zero_for_later_scan_slots():
    rng = substream(2, "jac-structure")
    logits = rng.uniform(-2, 2, size=12)
    jac = scan_jacobian(logits)
    order = list(scan_order(6))
    for mi, m in enumerate(order):
        for ki, k in enumerate(order):
            if ki > mi:
                assert jac[m, k] == 0.0


@given(seed=st.integers(0, 10_000), length=st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_jacobian_matches_finite_differences(seed, length):
    rng = substream(seed, "jac-fd")
    logits = rng.uniform(-4.0, 4.0, size=2 * length)
    analytic = scan_jacobian(logits)
    numeric = finite_difference_jacobian(logits)
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    mask = scale > 1e-8
    if mask.any():
        assert np.max(np.abs(analytic - numeric)[mask] / scale[mask]) < 1e-4


@pytest.mark.parametrize("logits", [[0.5], [], [0.0, np.nan]], ids=["odd", "empty", "nan"])
@pytest.mark.parametrize("jacobian", [scan_jacobian, finite_difference_jacobian])
def test_jacobian_logit_validation(jacobian, logits):
    with pytest.raises(ValueError):
        jacobian(logits)


def test_jacobian_exact_at_saturation():
    # certain heads early in the scan zero everything later; the closed
    # form must return hard zeros there, not NaNs
    logits = np.array([800.0, -800.0, 0.0, 0.0])
    jac = scan_jacobian(logits)
    assert np.isfinite(jac).all()
    row_minus2 = row_of_delta(2, -2)
    assert jac[row_minus2, row_minus2] == 0.0


# --- batched stop process against the per-column forms ---------------------------
#
# The kernel runs the stop process on whole batches of columns.  These are the
# per-column bodies it replaced, kept as references: the batched forms must give
# the same bits, not merely close values.


def _column_reference(s):
    order = scan_order(s.size // 2)
    so = s[order]
    tails = np.cumprod(1.0 - so)
    before = np.concatenate(([1.0], tails[:-1]))
    probs = np.empty_like(s)
    probs[order] = so * before
    return probs, float(tails[-1])


def _matrix_reference(logits):
    s = sigmoid(logits)
    order = scan_order(s.shape[0] // 2)
    so = s[order, :]
    tails = np.cumprod(1.0 - so, axis=0)
    before = np.vstack([np.ones((1, s.shape[1])), tails[:-1, :]])
    probs = np.empty_like(s)
    probs[order, :] = so * before
    return probs, tails[-1, :]


def _finite_difference_reference(h, step=1e-6):
    jac = np.empty((h.size, h.size))
    for k in range(h.size):
        bump = np.zeros_like(h)
        bump[k] = step
        high, _ = _column_reference(sigmoid(h + bump))
        low, _ = _column_reference(sigmoid(h - bump))
        jac[:, k] = (high - low) / (2.0 * step)
    return jac


@st.composite
def logit_matrices(draw):
    """(2L, width) logits, L in 1..40, within +-4 or +-40, with a few entries
    set to +-40: sigmoid(40) is exactly 1.0, sigmoid(-40) about 4e-18."""
    length = draw(st.integers(1, 40))
    width = draw(st.integers(1, 4))
    bound = draw(st.sampled_from([4.0, 40.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    logits = rng.uniform(-bound, bound, size=(2 * length, width))
    for _ in range(draw(st.integers(0, 3))):
        logits[rng.integers(2 * length), rng.integers(width)] = draw(st.sampled_from([-40.0, 40.0]))
    return logits


@given(logits=logit_matrices(), pin=st.sampled_from([None, 0.0, 1.0]))
@settings(max_examples=150, deadline=None)
def test_batched_stop_process_is_bitwise_per_column(logits, pin):
    s = sigmoid(logits[:, 0])
    if pin is not None:
        s[len(s) // 2] = pin
    probs, residual = scan_column(s)
    ref_probs, ref_residual = _column_reference(s)
    assert probs.tobytes() == ref_probs.tobytes()
    assert residual == ref_residual
    dist = scan_matrix(ScanLogits(logits))
    ref_probs, ref_residual = _matrix_reference(logits)
    assert dist.probs.tobytes() == ref_probs.tobytes()
    assert dist.residual.tobytes() == ref_residual.tobytes()
    h = logits[:, -1]
    assert finite_difference_jacobian(h).tobytes() == _finite_difference_reference(h).tobytes()


# --- mixing and sampling ------------------------------------------------------------


def test_mix_blends_columns_by_softmax():
    dist = MovementDistribution(
        probs=np.array([[0.8, 0.0], [0.0, 0.4]]),
        residual=np.array([0.2, 0.6]),
    )
    blended, total = mix(dist, np.array([0.0, 0.0]))
    assert np.allclose(blended, [0.4, 0.2])
    assert abs(total - 0.6) < 1e-15
    # a dominant mixer logit recovers its column
    blended, total = mix(dist, np.array([50.0, 0.0]))
    assert np.allclose(blended, [0.8, 0.0])


def test_mix_and_sample_frequencies():
    dist = MovementDistribution(
        probs=np.array([[0.6], [0.2]]), residual=np.array([0.2])
    )
    rng = draws(3, "sample-law")
    hits = np.zeros(2)
    n = 20_000
    for _ in range(n):
        choice = mix_and_sample(dist, np.zeros(1), rng)
        assert choice.moved
        hits[choice.row] += 1
    # renormalised target is (0.75, 0.25)
    for row, p in enumerate((0.75, 0.25)):
        assert abs(hits[row] / n - p) < 4 * (p * (1 - p) / n) ** 0.5


def test_zero_mass_blend_signals_no_move():
    dist = MovementDistribution(
        probs=np.zeros((4, 2)), residual=np.ones(2)
    )
    choice = mix_and_sample(dist, np.zeros(2), draws(4, "no-move"))
    assert choice == EdgeChoice(row=None, delta=None)
    assert not choice.moved


def test_sampled_delta_matches_row():
    dist = MovementDistribution(
        probs=np.array([[0.0], [0.0], [1.0], [0.0]]), residual=np.array([0.0])
    )
    choice = mix_and_sample(dist, np.zeros(1), draws(5, "delta-row"))
    assert choice.row == 2 and choice.delta == 1  # row 2 of L=2 is +1


# --- pointer updates and supports ---------------------------------------------------


@given(
    position=st.integers(0, 49),
    gate=st.integers(0, 1),
    delta=st.integers(-50, 50),
)
@settings(max_examples=200, deadline=None)
def test_update_pointer_clamps(position, gate, delta):
    new = update_pointer(position, gate, delta, 50)
    assert 0 <= new < 50
    if gate == 0:
        assert new == position
    else:
        assert new == max(0, min(49, position + delta))


def test_update_pointer_validation():
    with pytest.raises(ValueError):
        update_pointer(5, 1, 0, 5)
    with pytest.raises(ValueError):
        update_pointer(0, 2, 1, 5)


def test_long_range_rows_reachable_in_one_hop():
    # a strongly positive logit far from the pointer wins almost all mass
    length = 50
    for target in (1, 17, 50):
        logits = np.full(2 * length, -20.0)
        logits[row_of_delta(length, target)] = 20.0
        probs, _ = scan_column(sigmoid(logits))
        assert probs[row_of_delta(length, target)] > 0.99


def test_sweeps_report_tight_errors():
    rng = draws(6, "sweep")
    oracle = pointer.oracle_sweep(rng, trials=50, max_len=10)
    assert oracle["max_abs_diff"] < pointer.ORACLE_TOL
    assert oracle["max_norm_err"] < pointer.ORACLE_TOL
    assert oracle["max_residual_err"] < pointer.ORACLE_TOL
    gradient = pointer.gradient_sweep(rng, trials=20, max_len=10)
    assert gradient["max_rel_err"] < pointer.GRADIENT_TOL
    assert len(oracle["rows"]) == 50 and len(gradient["rows"]) == 20
