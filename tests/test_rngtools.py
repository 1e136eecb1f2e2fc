"""rngtools: the Draws reader gives numpy's scalar results, value for value.

numpy's own Generator on the same Philox key is the oracle.  If numpy ever
changes one of these algorithms, this file fails before any trace does.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowgrid.rngtools import BLOCK, draws, substream

# every branch of numpy's bounded draw: nothing drawn, 32-bit Lemire, the bare
# 32-bit half, and 64-bit Lemire (the attack mask reaches 2**35)
RANGES = [1, 2, 7, 37, 2**32 - 1, 2**32, 2**32 + 1, 2**35, 2**35 - 1, 2**62 + 3]

operations = st.one_of(
    st.tuples(st.just("integers"), st.sampled_from(RANGES)),
    st.tuples(st.just("between"), st.integers(-1000, 1000), st.sampled_from(RANGES)),
    st.tuples(st.just("random")),
    st.tuples(st.just("permutation"), st.integers(0, 20)),
)


def _both(reader, generator, op):
    kind, *args = op
    if kind == "integers":
        return reader.integers(args[0]), int(generator.integers(args[0]))
    if kind == "between":
        low, high = args[0], args[0] + args[1]
        return reader.integers(low, high), int(generator.integers(low, high))
    if kind == "random":
        return reader.random(), float(generator.random())
    return reader.permutation(args[0]), generator.permutation(args[0]).tolist()


@given(seed=st.integers(0, 2**40), ops=st.lists(operations, min_size=1, max_size=3 * BLOCK))
@settings(max_examples=300, deadline=None)
def test_draws_equal_numpy_scalar_calls(seed, ops):
    reader, generator = draws(seed, "exact"), substream(seed, "exact")
    for position, op in enumerate(ops):
        mine, numpy_value = _both(reader, generator, op)
        assert mine == numpy_value, (position, op)


@pytest.mark.parametrize("n", [7, 2**32 + 1, 2**35])
def test_draws_stay_equal_across_many_blocks(n):
    # a long run crosses block refills and keeps a saved half across random()
    reader, generator = draws(3, "long"), substream(3, "long")
    for i in range(5 * BLOCK):
        assert reader.integers(n) == int(generator.integers(n))
        if i % 3 == 0:
            assert reader.random() == float(generator.random())


@pytest.mark.parametrize("low, high", [(0, 0), (5, 4), (0, -3)])
def test_empty_range_is_refused_like_numpy(low, high):
    with pytest.raises(ValueError):
        substream(0, "empty").integers(low, high)
    with pytest.raises(ValueError):
        draws(0, "empty").integers(low, high)
