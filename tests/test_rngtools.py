"""rngtools: the Draws reader gives numpy's scalar results, value for value.

numpy's own Generator on the same Philox key is the oracle.  If numpy ever
changes one of these algorithms, this file fails before any trace does.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowgrid import rngtools
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
    if kind == "sized":
        n, size = 2 ** args[0], args[1]
        return reader.integers(0, n, size=size), generator.integers(0, n, size=size).tolist()
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


# sized draws of 1-31 bits and 0-150 values cross block refills and start or
# end on a saved half, among the scalar draws that leave or take one
mixed_operations = st.one_of(
    operations, st.tuples(st.just("sized"), st.integers(1, 31), st.integers(0, 150))
)


@given(seed=st.integers(0, 2**40), ops=st.lists(mixed_operations, min_size=1, max_size=60))
@settings(max_examples=300, deadline=None)
def test_sized_draws_equal_numpy_among_scalar_calls(seed, ops):
    reader, generator = draws(seed, "sized"), substream(seed, "sized")
    for position, op in enumerate(ops):
        mine, numpy_value = _both(reader, generator, op)
        assert mine == numpy_value, (position, op)


@pytest.mark.parametrize("low, high", [(0, 3), (0, 6), (2, 7), (0, 1), (0, 2**32)])
def test_sized_draw_of_a_range_that_is_no_power_of_two_below_2_32_is_refused(low, high):
    with pytest.raises(ValueError):
        draws(0, "sized").integers(low, high, size=4)


def _stream(seed: int, reader) -> list:
    out = []
    for i in range(3 * BLOCK):
        out.append((reader.integers(37), reader.integers(0, 4, size=i % 9), reader.random()))
    out.append(reader.permutation(36))
    return out


def test_threads_drawing_interleaved_get_what_each_gets_alone():
    # every stream shares one engine; each block is read under its lock
    alone = {seed: _stream(seed, draws(seed, "thread")) for seed in (1, 2)}
    start = threading.Barrier(2)
    got = {}

    def work(seed):
        reader = draws(seed, "thread")
        start.wait()
        got[seed] = _stream(seed, reader)

    threads = [threading.Thread(target=work, args=(seed,)) for seed in (1, 2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert got == alone


def test_keying_a_stream_constructs_no_bit_generator(monkeypatch):
    draws(0, "warm").random()  # the process's one engine exists from here on

    def refuse(*args, **kwargs):
        raise AssertionError("a Philox was constructed")

    monkeypatch.setattr(rngtools.np.random, "Philox", refuse)
    reader = draws(5, "spawning")
    values = [reader.integers(37), reader.integers(0, 4, size=9), reader.permutation(35)]
    for _ in range(2 * BLOCK):
        values.append(reader.random())
    monkeypatch.undo()
    generator = substream(5, "spawning")
    assert values[:3] == [int(generator.integers(37)),
                          generator.integers(0, 4, size=9).tolist(),
                          generator.permutation(35).tolist()]
    assert values[3:] == [float(generator.random()) for _ in range(2 * BLOCK)]


def test_stream_key_is_pinned_little_endian_words_of_the_hash():
    # sha256("0/spawning") begins 7f29a346668175d9 0d4209de73287931: each word
    # is read little-endian, whatever the byte order of the host
    key = substream(0, "spawning").bit_generator.state["state"]["key"]
    assert [int(word) for word in key] == [0xD975816646A3297F, 0x31792873DE09420D]
    assert key.dtype == np.uint64
