from fractions import Fraction

import pytest

from regpart.generate import gnp, planted


@pytest.mark.parametrize("n", [1, 2, 17, 40])
@pytest.mark.parametrize("p", [0, Fraction(1, 3), Fraction(1, 2), 1])
@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_gnp_is_planted_with_one_block(n, p, seed):
    # one block of n draws every pair with p_in, in the same order
    assert list(gnp(n, p, seed).edges()) == list(planted(1, n, p, p, seed).edges())
