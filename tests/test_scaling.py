import pytest

from anisoradon.scaling import MultiIndex, Weights, isotropic_weights


def test_weights_validation():
    w = Weights(MultiIndex([1, 2]), MultiIndex([3]), MultiIndex([4, 5]))
    assert w.n_prime == 2 and w.n_dprime == 1
    with pytest.raises(ValueError):
        Weights(MultiIndex([1, 0]), MultiIndex([1]), MultiIndex([1, 1]))
    with pytest.raises(ValueError):
        Weights(MultiIndex([1]), MultiIndex([1]), MultiIndex([1, 1]))


def test_multiindex_order():
    assert MultiIndex([1, -3, 2]).order == 0
    assert isotropic_weights(3, 2).alpha_prime.order == 3
