"""Stream-derivation tests: stability, independence, validation."""
import numpy as np
import pytest

from rdiqsdc.seeding import positioned, purpose_key, seed_sequence, stream


def test_same_pair_same_stream():
    a = stream(7, "physics").random(8)
    b = stream(7, "physics").random(8)
    assert np.array_equal(a, b)


def test_purpose_separates_streams():
    a = stream(7, "physics").random(8)
    b = stream(7, "noise").random(8)
    assert not np.array_equal(a, b)


def test_master_separates_streams():
    a = stream(7, "physics").random(8)
    b = stream(8, "physics").random(8)
    assert not np.array_equal(a, b)


def test_frozen_draws():
    # regression pin: derivation scheme must stay stable across releases
    g = stream(0, "test-freeze")
    got = [g.random() for _ in range(3)]
    want = [0.6518184751641147, 0.5856343297818869, 0.2437820618838672]
    assert got == pytest.approx(want, abs=1e-15)
    g2 = stream(123, "physics")
    assert [g2.random() for _ in range(2)] == pytest.approx(
        [0.518917101639908, 0.4149388060777407], abs=1e-15
    )


def test_purpose_key_stable():
    assert purpose_key("physics") == purpose_key("physics")
    assert purpose_key("physics") != purpose_key("noise")


def test_validation():
    with pytest.raises(ValueError):
        seed_sequence(-1, "x")
    # a seed is one 64-bit word of the stream's entropy, not reduced mod 2**64
    seed_sequence(2**64 - 1, "x")
    with pytest.raises(ValueError):
        seed_sequence(2**64, "x")


@pytest.mark.parametrize("draw", [
    lambda g, m: g.random(m),
    lambda g, m: g.uniform(-0.3, 0.7, m),
    lambda g, m: g.choice(3, size=m, p=[0.2, 0.5, 0.3]),
], ids=["random", "uniform", "choice-p"])
def test_positioned_stream_draws_the_tail_of_the_whole_draw(draw):
    whole = draw(stream(5, "blocks"), 1000)
    for start in (0, 1, 777, 999):
        got = draw(positioned(5, "blocks", start), 1000 - start)
        assert np.array_equal(got, whole[start:])
    # the seed and the purpose pick the stream, as they do for `stream`
    assert not np.array_equal(draw(positioned(6, "blocks", 3), 100), whole[3:103])
    assert not np.array_equal(draw(positioned(5, "other", 3), 100), whole[3:103])


def test_integers_are_not_positionable():
    # buffered 32-bit draws take two values per output: these stay whole
    whole = stream(5, "blocks").integers(1, 9, size=1000)
    assert not np.array_equal(positioned(5, "blocks", 500).integers(1, 9, size=500),
                              whole[500:])
