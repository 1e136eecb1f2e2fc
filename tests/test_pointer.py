"""Scan-order movement kernel: probabilities, gradients, mixing, updates.

Frozen expectations below were derived by running the stop process by
hand: P(scan position m) = sigma_m * prod of earlier tails, in the fixed
order +1, -1, +2, -2, ...
"""

import contextlib
import io
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from flowgrid import pointer
from flowgrid.cli import EXIT_OK, EXIT_VERIFY, main
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
    for oracle in (brute_force_oracle, product_rule_oracle):  # one column a call
        with pytest.raises(ValueError):
            oracle(np.full((2, 4), 0.5))


# The oracles' loops on numpy scalars, with the validator that they called: the
# oracles loop over Python floats, which must give the same bits and refusals.


def _check_sigmas_reference(sigmas):
    s = np.ascontiguousarray(sigmas, dtype=np.float64)
    if s.shape[-1] == 0 or s.shape[-1] % 2:
        raise ValueError("sigma columns must have even positive length")
    if not np.all((s >= 0.0) & (s <= 1.0)):
        raise ValueError("sigmas must lie in [0, 1]")
    if s.ndim != 1:
        raise ValueError("the oracles take one column at a time")
    return s


def _brute_force_reference(sigmas):
    s = _check_sigmas_reference(sigmas)
    probs = [0.0] * s.size
    not_stopped = 1.0
    for row in scan_order(s.size // 2):
        probs[row] = not_stopped * s[row]
        not_stopped = not_stopped * (1.0 - s[row])
    return np.array(probs), not_stopped


def _product_rule_reference(sigmas):
    s = _check_sigmas_reference(sigmas)
    probs = np.empty_like(s)
    for i in range(s.size):
        product = 1.0
        for j in range(s.size):
            if j != i:
                product *= 1.0 - s[j]
        probs[i] = s[i] * product
    return probs, float(1.0 - probs.sum())


_ORACLES = [(brute_force_oracle, _brute_force_reference),
            (product_rule_oracle, _product_rule_reference)]

pinned_sigma_columns = st.integers(1, 60).flatmap(
    lambda length: hnp.arrays(
        np.float64,
        (2 * length,),
        elements=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0, allow_nan=False)),
    )
)


@given(sigmas=pinned_sigma_columns)
@settings(max_examples=100, deadline=None)
def test_oracles_give_the_bits_of_their_numpy_scalar_loops(sigmas):
    for oracle, reference in _ORACLES:
        (probs, residual), (ref_probs, ref_residual) = oracle(sigmas), reference(sigmas)
        assert probs.dtype == ref_probs.dtype and probs.tobytes() == ref_probs.tobytes()
        assert residual == ref_residual


@pytest.mark.parametrize("sigmas", [np.full((2, 4), 0.5), [0.5], [], [0.5, 1.5], [-0.1, 0.5],
                                    [np.nan, 0.5]],
                         ids=["stack", "odd", "empty", "above-one", "below-zero", "nan"])
def test_oracles_refuse_what_their_numpy_scalar_loops_refused(sigmas):
    for oracle, reference in _ORACLES:
        with pytest.raises(ValueError) as expected:
            reference(sigmas)
        with pytest.raises(ValueError) as refused:
            oracle(sigmas)
        assert str(refused.value) == str(expected.value)


def test_oracles_do_not_run_the_kernel_they_check(monkeypatch):
    # a speed-up that routed an oracle through the kernel would check it against itself
    def kernel(*args, **kwargs):
        raise AssertionError("an oracle ran the kernel")

    for name in ("_stop_process", "_printed_formula", "scan_column"):
        monkeypatch.setattr(pointer, name, kernel)
    monkeypatch.setattr(pointer, "_RULES", {mode: kernel for mode in pointer.MODES})
    sigmas = draws(2, "independent").random(14)
    sigmas[[3, 8]] = 0.0, 1.0
    for oracle, reference in _ORACLES:
        (probs, residual), (ref_probs, ref_residual) = oracle(sigmas), reference(sigmas)
        assert np.array_equal(probs, ref_probs) and residual == ref_residual


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


@given(length=st.integers(1, 25), batch=st.integers(1, 8), mode=st.sampled_from(pointer.MODES),
       seed=st.integers(0, 2**32 - 1), pins=st.lists(st.booleans(), max_size=4))
@settings(max_examples=150, deadline=None)
def test_stacks_give_the_bits_of_column_by_column_calls(length, batch, mode, seed, pins):
    rng = np.random.default_rng(seed)
    logits = rng.uniform(-6.0, 6.0, size=(batch, 2 * length))
    for pin in pins:  # logits of +-800 give sigmas of exactly 1 and 0
        logits[rng.integers(batch), rng.integers(2 * length)] = 800.0 if pin else -800.0
    sigmas = sigmoid(logits)
    assert set(sigmas[logits == 800.0]) <= {1.0} and set(sigmas[logits == -800.0]) <= {0.0}
    probs, residual = scan_column(sigmas, mode)
    analytic, numeric = scan_jacobian(logits), finite_difference_jacobian(logits)
    assert residual.shape == (batch,) and analytic.shape == numeric.shape == (batch,) + 2 * (
        2 * length,)
    for row in range(batch):
        column_probs, column_residual = scan_column(sigmas[row], mode)
        assert type(column_residual) is float
        assert probs[row].tobytes() == column_probs.tobytes()
        assert residual[row].tobytes() == np.float64(column_residual).tobytes()
        assert analytic[row].tobytes() == scan_jacobian(logits[row]).tobytes()
        assert numeric[row].tobytes() == finite_difference_jacobian(logits[row]).tobytes()


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_mix_refuses_a_mixer_logit_that_is_not_finite(bad):
    dist = scan_matrix(ScanLogits(np.zeros((4, 2))))
    for mixer in ([bad, 0.0], [bad, bad]):
        with pytest.raises(ValueError, match="mixer logits must be finite"):
            mix(dist, mixer)
        with pytest.raises(ValueError, match="mixer logits must be finite"):
            mix_and_sample(dist, mixer, draws(6, "not-finite"))


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


@pytest.mark.parametrize("args", [
    (2, 1.0, 1, 5), (2, 1, 1.5, 5), (2.0, 1, 1, 5), (2, 1, 1, 5.0),
    (2, True, 1, 5), (True, 1, 1, 5), (2, 1, True, 5), (2, 1, 1, True),
    (2, 1, "1", 5), (2, 1, None, 5), (np.float64(2), 1, 1, 5),
])
def test_update_pointer_refuses_what_is_not_an_integer(args):
    with pytest.raises(ValueError, match="must be integers"):
        update_pointer(*args)


def test_update_pointer_returns_a_python_int():
    new = update_pointer(np.int64(2), np.int8(1), np.int32(-1), np.int64(5))
    assert type(new) is int and new == 1
    assert type(update_pointer(2, 0, 7, 5)) is int


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


# --- batched sweeps against the per-trial loops they replaced ------------------------
#
# These are the sweep bodies from before the sweeps checked columns a stack at a
# time.  scan-check writes str() of each value to its tables, so the batched
# sweeps must give the same values of the same types, in trial order, and leave
# the reader where these leave it.


def _oracle_sweep_reference(rng, trials, max_len, mode=pointer.STOP_PROCESS):
    oracle = brute_force_oracle if mode == pointer.STOP_PROCESS else product_rule_oracle
    rows = []
    for trial in range(trials):
        length = rng.integers(1, max_len + 1)
        sigmas = rng.random(2 * length)
        probs, residual = scan_column(sigmas, mode)
        ref_probs, ref_residual = oracle(sigmas)
        prob_diff = float(np.max(np.abs(probs - ref_probs)))
        prob_diff = max(prob_diff, abs(residual - ref_residual))
        norm_err = abs(probs.sum() + residual - 1.0)
        if mode == pointer.STOP_PROCESS:
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


def _gradient_sweep_reference(rng, trials, max_len):
    rows = []
    for trial in range(trials):
        length = rng.integers(1, max_len + 1)
        logits = -4.0 + 8.0 * rng.random(2 * length)
        analytic = scan_jacobian(logits)
        numeric = finite_difference_jacobian(logits)
        scale = np.maximum(np.abs(analytic), np.abs(numeric))
        mask = scale > pointer.REL_ERR_FLOOR
        if mask.any():
            rel = float(
                np.max(np.abs(analytic[mask] - numeric[mask]) / scale[mask])
            )
        else:
            rel = 0.0
        rows.append({"trial": trial, "length": length, "max_rel_err": rel})
    worst = max((row["max_rel_err"] for row in rows), default=0.0)
    return {"rows": rows, "max_rel_err": worst}


def _typed(value):
    """``value`` with each number beside its type: 0.0 == np.float64(0.0)."""
    if isinstance(value, dict):
        return {key: _typed(inner) for key, inner in value.items()}
    if isinstance(value, list):
        return [_typed(inner) for inner in value]
    return type(value), value


@given(seed=st.integers(0, 2**32), trials=st.integers(1, 200), max_len=st.integers(1, 30),
       mode=st.sampled_from(pointer.MODES))
@settings(max_examples=100, deadline=None)
def test_batched_sweeps_equal_the_per_trial_loops(seed, trials, max_len, mode):
    mine, theirs = draws(seed, "sweeps"), draws(seed, "sweeps")
    assert _typed(pointer.oracle_sweep(mine, trials, max_len, mode)) == _typed(
        _oracle_sweep_reference(theirs, trials, max_len, mode))
    assert mine.random() == theirs.random()
    assert _typed(pointer.gradient_sweep(mine, trials // 4, max_len)) == _typed(
        _gradient_sweep_reference(theirs, trials // 4, max_len))
    assert mine.integers(2**32) == theirs.integers(2**32)


def test_scan_check_calls_each_traced_kernel_name(monkeypatch):
    # the benchmark times the kernel by wrapping these module names; a sweep
    # that stopped calling one would leave that layer reading 0
    calls = dict.fromkeys(("scan_column", "brute_force_oracle", "scan_jacobian",
                           "finite_difference_jacobian"), 0)
    for name in calls:
        def counting(*args, _name=name, _original=getattr(pointer, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(pointer, name, counting)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(["scan-check", "--trials", "150", "--grad-trials", "12", "--seed", "3"])
    assert code == EXIT_OK and out.getvalue().endswith("PASS\n")
    assert min(calls.values()) >= 1, calls
    assert calls["brute_force_oracle"] == 150


def test_scan_matrix_scores_its_edges_in_one_scan_column_call(monkeypatch):
    # so the benchmark's pointer.scan_column span covers every stack the kernel scores
    stacks = []

    def counting(sigmas, mode=pointer.STOP_PROCESS, _original=pointer.scan_column):
        stacks.append(np.shape(sigmas))
        return _original(sigmas, mode)

    monkeypatch.setattr(pointer, "scan_column", counting)
    for mode in pointer.MODES:
        scan_matrix(ScanLogits(np.zeros((6, 4))), mode)
    assert stacks == [(4, 6)] * len(pointer.MODES)
    with pytest.raises(ValueError, match="unknown mode"):
        scan_matrix(ScanLogits(np.zeros((6, 4))), "bogus")


def test_sweep_stacks_hold_at_most_their_entry_budget(monkeypatch):
    # an oracle stack holds at most ORACLE_BATCH sigmas, a gradient stack at most
    # GRADIENT_BATCH jacobian entries, and each at least one column
    bounds = {
        "scan_column": lambda length: max(1, pointer.ORACLE_BATCH // (2 * length)),
        "scan_jacobian": lambda length: max(1, pointer.GRADIENT_BATCH // (2 * length) ** 2),
    }
    stacks = {name: [] for name in bounds}
    for name, shapes in stacks.items():
        def counting(values, *args, _shapes=shapes, _original=getattr(pointer, name)):
            _shapes.append(np.shape(values))
            return _original(values, *args)
        monkeypatch.setattr(pointer, name, counting)
    sweeps = {"scan_column": pointer.oracle_sweep(draws(4, "buckets"), 1_000, 200),
              "scan_jacobian": pointer.gradient_sweep(draws(4, "buckets"), 300, 40)}
    for name, sweep in sweeps.items():
        bound = bounds[name]
        assert sum(k for k, _ in stacks[name]) == len(sweep["rows"])
        assert all(k <= bound(width // 2) for k, width in stacks[name]), name
        # some length drew more columns than one stack may hold
        drawn = Counter(row["length"] for row in sweep["rows"])
        assert any(count > bound(length) for length, count in drawn.items()), name


def _poisoned(name, index, returned=None):
    """A stand-in for ``pointer.<name>`` that writes NaN at ``index`` of its result (of
    its ``returned``-th value, if given) for each stack of two or more columns, so the
    NaN never lands in a sweep's first row."""
    original = getattr(pointer, name)

    def stand_in(values, *args):
        result = original(values, *args)
        if np.ndim(values) == 2 and len(values) > 1:
            (result if returned is None else result[returned])[index] = np.nan
        return result
    return stand_in


@pytest.mark.parametrize("mode", pointer.MODES)
@pytest.mark.parametrize("returned", [0, 1], ids=["probs", "residual"])
def test_scan_check_fails_on_a_nan_from_the_kernel(monkeypatch, mode, returned):
    monkeypatch.setattr(pointer, "scan_column", _poisoned("scan_column", 1, returned))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(["scan-check", "--mode", mode, "--trials", "1000", "--grad-trials", "0",
                     "--seed", "0"])
    assert code == EXIT_VERIFY and out.getvalue().endswith("FAIL\n")
    assert "oracle max abs diff      : nan" in out.getvalue()


def test_scan_check_fails_on_a_nan_jacobian_entry(monkeypatch):
    monkeypatch.setattr(pointer, "scan_jacobian", _poisoned("scan_jacobian", (1, 0, 0)))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(["scan-check", "--trials", "30", "--grad-trials", "300", "--seed", "0"])
    assert code == EXIT_VERIFY and out.getvalue().endswith("FAIL\n")
    assert "gradient max rel err     : nan" in out.getvalue()
