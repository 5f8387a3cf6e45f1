import numpy as np

from anisoradon.numerics.cutoffs import bump_profile, phi0, phi_radial


def test_phi0_plateau_and_support():
    t = np.linspace(-3, 3, 1201)
    v = phi0(t)
    assert np.all(v[np.abs(t) <= 1.0] == 1.0)
    assert np.all(v[np.abs(t) >= 2.0] == 0.0)
    assert np.all((v >= 0.0) & (v <= 1.0))


def test_phi0_monotone_each_side():
    t = np.linspace(0, 2.5, 800)
    v = phi0(t)
    assert np.all(np.diff(v) <= 1e-15)
    assert np.all(phi0(-t) == v)  # even


def test_phi0_midpoint_value():
    # g(2 - 1.5) == g(1.5 - 1) makes the ratio exactly one half
    assert float(phi0(1.5)) == 0.5


def test_bump_profile_zero_branch():
    assert float(bump_profile(0.0)) == 0.0
    assert float(bump_profile(-1.0)) == 0.0
    assert float(bump_profile(1.0)) == np.exp(-1.0)


def test_phi_radial():
    assert float(phi_radial(0.49)) == 1.0
    assert float(phi_radial(1.01)) == 0.0
    assert 0.0 < float(phi_radial(0.7)) < 1.0
