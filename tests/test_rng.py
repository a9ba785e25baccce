"""Seeded substream derivation tests."""

import pytest

from mixquant.rng import substream


def draw(seed, *labels, n=6):
    return tuple(substream(seed, *labels).integers(0, 1_000_000, n).tolist())


def test_same_labels_same_stream():
    assert draw(42, "noise", 0) == draw(42, "noise", 0)


def test_label_separation():
    assert draw(42, "noise", 0) != draw(42, "hessian", 0)
    assert draw(42, "noise", 0) != draw(42, "noise", 1)


def test_seed_separation():
    assert draw(1, "data-split") != draw(2, "data-split")


def test_label_order_matters():
    assert draw(7, "a", "b") != draw(7, "b", "a")


def test_large_seeds_accepted():
    # seeds beyond 32 bits are folded in whole rather than fail
    assert draw(2**40 + 3, "x") == draw(2**40 + 3, "x")


def test_seeds_below_2_to_the_32_keep_their_streams():
    assert draw(0, "data-split") == (170243, 505498, 771767, 332865, 151629, 26770)
    assert draw(7, "data-split") == (152670, 986366, 816645, 816291, 84973, 842953)
    assert draw(2**32 - 1, "data-split") == (414320, 601743, 175554, 973730, 458729, 844145)


def test_seeds_do_not_alias_modulo_2_to_the_32():
    assert draw(2**32 + 7, "data-split") != draw(7, "data-split")
    assert draw(2**40 + 3, "x") != draw(3, "x")


@pytest.mark.parametrize("seed", [-1, -(2**32) + 7])
def test_negative_seed_refused(seed):
    with pytest.raises(ValueError):
        substream(seed, "x")
