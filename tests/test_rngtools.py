"""rngtools: the Draws reader gives numpy's results, value for value.

numpy's own Generator on the same Philox key is the oracle.  If numpy ever
changes one of these algorithms, this file fails before any trace does.  The
raw stream beneath them has an oracle of its own here: Philox4x64-10 in pure
Python, after Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3"
(SC 2011), which any host can check ``rngtools._block`` against.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowgrid import rngtools
from flowgrid.pointer import ScanLogits, mix, mix_and_sample, scan_matrix
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


@pytest.mark.parametrize(
    "call",
    [lambda r: r.integers(0, 4, size=-1), lambda r: r.integers(0, 4, size=-3),
     lambda r: r.random(-3)],
    ids=["integers-1", "integers-3", "random-3"],
)
@pytest.mark.parametrize("carried", [False, True], ids=["whole", "half-saved"])
def test_negative_sizes_are_refused_like_numpy_before_any_draw(call, carried):
    reader, fresh = draws(0, "negative"), draws(0, "negative")
    if carried:  # a saved half stays saved
        assert reader.integers(7) == fresh.integers(7)
    with pytest.raises(ValueError, match="negative dimensions are not allowed"):
        call(substream(0, "negative"))
    with pytest.raises(ValueError, match="negative dimensions are not allowed"):
        call(reader)
    assert reader.integers(2**32) == fresh.integers(2**32)
    assert reader.random() == fresh.random()


# a range above 2**64 once rejected every word, so integers(2**64 + 5) never returned
@pytest.mark.parametrize("args, bound", [
    ((2**63 + 1,), "high"), ((2**64,), "high"), ((2**64 + 5,), "high"),
    ((2**63, 2**63 + 5), "high"), ((-2**63 - 1, 0), "low"), ((-2**63 - 1, 2**64), "low"),
    ((2**63 + 1, None, 3), "high"), ((-2**63 - 1, 0, 4), "low"),
])
def test_int64_bounds_are_refused_like_numpy_before_any_draw(args, bound):
    reader, fresh = draws(0, "bounds"), draws(0, "bounds")
    for stream in (substream(0, "bounds"), reader):
        with pytest.raises(ValueError, match=f"^{bound} is out of bounds for int64$"):
            stream.integers(*args)
    assert reader.integers(2**32) == fresh.integers(2**32)


@pytest.mark.parametrize("args", [(2**63,), (-2**63, 2**63), (-2**63, 0), (2**63 - 5, 2**63)])
def test_draws_at_the_int64_bounds_equal_numpy(args):
    reader, generator = draws(0, "edge"), substream(0, "edge")
    for _ in range(3 * BLOCK):
        assert reader.integers(*args) == int(generator.integers(*args))


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


# --- skipping draws ---------------------------------------------------------------


def _draw(reader, op):
    kind, *args = op
    if kind == "integers":
        return reader.integers(args[0])
    if kind == "between":
        return reader.integers(args[0], args[0] + args[1])
    if kind == "random":
        return reader.random()
    return reader.permutation(args[0])


# ``before`` draws of 32 bits leave a carried half when odd; 8 * BLOCK halves
# span four blocks, so a skip starts and ends anywhere in a block, or past it
@given(seed=st.integers(0, 2**40), before=st.integers(0, 3 * BLOCK),
       halves=st.integers(0, 8 * BLOCK), after=operations)
@settings(max_examples=300, deadline=None)
def test_skip_equals_that_many_32_bit_draws(seed, before, halves, after):
    skipped, stepped = draws(seed, "skip"), draws(seed, "skip")
    for reader in (skipped, stepped):
        for _ in range(before):
            reader.integers(2**32)
    skipped.skip(halves)
    for _ in range(halves):
        stepped.integers(2**32)
    assert _draw(skipped, after) == _draw(stepped, after)
    assert skipped.random() == stepped.random()


def test_skip_refuses_a_negative_count():
    with pytest.raises(ValueError):
        draws(0, "skip").skip(-1)


MASK = 2**64 - 1
PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)  # round multipliers
PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)  # Weyl key increments


def _philox4x64_10(counter: tuple, key: tuple) -> tuple:
    """Philox4x64-10 of a counter of four 64-bit words, low word first, and a
    key of two: ten rounds, with the key bumped between rounds."""
    c0, c1, c2, c3 = counter
    k0, k1 = key
    for round_number in range(10):
        if round_number:
            k0, k1 = (k0 + PHILOX_W[0]) & MASK, (k1 + PHILOX_W[1]) & MASK
        p0, p1 = PHILOX_M[0] * c0, PHILOX_M[1] * c2
        c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & MASK, (p0 >> 64) ^ c3 ^ k1, p0 & MASK
    return c0, c1, c2, c3


def _python_word(key: tuple, index: int) -> int:
    """Word ``index`` of the stream keyed ``key``: numpy steps the counter
    before each four-word output, so output i comes from counter i + 1."""
    return _philox4x64_10((index // 4 + 1, 0, 0, 0), key)[index % 4]


def test_pure_python_philox_matches_the_random123_known_answers():
    # Random123's kat_vectors for philox4x64-10: a counter and key of all ones,
    # and of the hex digits of pi
    assert _philox4x64_10((MASK,) * 4, (MASK,) * 2) == (
        0x87B092C3013FE90B, 0x438C3C67BE8D0224, 0x9CC7D7C69CD777B6, 0xA09CAEBF594F0BA0)
    pi_counter = (0x243F6A8885A308D3, 0x13198A2E03707344, 0xA4093822299F31D0, 0x082EFA98EC4E6C89)
    assert _philox4x64_10(pi_counter, (0x452821E638D01377, 0xBE5466CF34E90C6C)) == (
        0xA528F45403E61D95, 0x38C72DBD566E9788, 0xA5A1610E72FD18B5, 0x57BD43B5E52B7FE6)


keys = st.tuples(st.integers(0, MASK), st.integers(0, MASK))


@given(key=keys, block=st.integers(0, 2**20))
@settings(max_examples=200, deadline=None)
def test_block_reads_the_raw_philox_stream_word_for_word(key, block):
    words = [_python_word(key, BLOCK * block + i) for i in range(BLOCK)]
    assert rngtools._block(key, block)[::-1] == words


@given(key=keys, halves=st.integers(0, 2 * BLOCK * 2**20), carried=st.booleans())
@settings(max_examples=200, deadline=None)
def test_skip_far_ahead_lands_on_the_raw_stream(key, halves, carried):
    reader = rngtools.Draws(key)
    if carried:  # start from a carried half
        reader.integers(2**32)
    reader.skip(halves)
    position = halves + carried
    word = _python_word(key, position // 2)
    assert reader.integers(2**32) == (word >> 32 if position % 2 else word & 0xFFFFFFFF)


# --- sized doubles, and what scan-check and the pointer kernel draw from them ------


def _generator(key: tuple) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array(key, np.uint64)))


# ``before`` whole words put the call anywhere in a block, and 200 doubles cross
# the block edge; an odd count of 32-bit draws first leaves a saved half, which
# random(size) must leave for the integers draw after it
@given(key=keys, before=st.integers(0, BLOCK), carried=st.booleans(), size=st.integers(0, 200))
@settings(max_examples=300, deadline=None)
def test_sized_random_equals_numpy_draw_for_draw(key, before, carried, size):
    reader, generator = rngtools.Draws(key), _generator(key)
    for _ in range(before):
        assert reader.random() == generator.random()
    if carried:
        assert reader.integers(7) == generator.integers(7)
    mine, theirs = reader.random(size), generator.random(size)
    assert mine.dtype == np.float64 and mine.shape == (size,)
    assert mine.tobytes() == theirs.tobytes()
    assert reader.integers(2**32) == generator.integers(2**32)


@given(key=keys, size=st.integers(0, 200))
@settings(max_examples=100, deadline=None)
def test_scaled_sized_random_is_numpys_uniform_bit_for_bit(key, size):
    mine = -4.0 + 8.0 * rngtools.Draws(key).random(size)
    assert mine.tobytes() == _generator(key).uniform(-4.0, 4.0, size).tobytes()


def test_mix_and_sample_picks_the_row_numpys_choice_picks():
    for seed in range(1000):
        shape = substream(seed, "shape")
        length, edges = shape.integers(1, 8), shape.integers(1, 4)
        logits = shape.normal(scale=3.0, size=(2 * length, edges))
        distribution = scan_matrix(ScanLogits(logits))
        mixer = shape.normal(size=edges)
        blended, total = mix(distribution, mixer)
        pvals = blended / total
        reader, generator = draws(seed, "choice"), substream(seed, "choice")
        for _ in range(5):
            row = mix_and_sample(distribution, mixer, reader).row
            assert row == generator.choice(pvals.size, p=pvals / pvals.sum()), seed
