from pathlib import Path

import numpy as np

from anisoradon.numerics import Grid, pjk_multiplier, qj_multiplier
from anisoradon.numerics.cutoffs import phi_radial
from anisoradon.numerics.operators import _scaled_ydd_radius
from anisoradon.specfile import load_spec

SPECS = Path(__file__).resolve().parent.parent / "specs"
SPEC = load_spec(SPECS / "reference.json")
GRID = Grid(dim=2, points_per_axis=64, half_width=2.0)


def partition_check(grid: Grid, n_prime: int, beta_dprime, j: int,
                    kmax: int) -> dict:
    """Telescoping of Qj + sum_k Pjk against the widened low-pass, and
    against the identity once the widened support covers the grid."""
    total = qj_multiplier(grid, n_prime, beta_dprime, j).ydd_block.copy()
    for k in range(kmax + 1):
        total += pjk_multiplier(grid, n_prime, beta_dprime, j, k).ydd_block
    # the telescoped sum equals the low-pass widened by 2^(kmax+1)
    rad = _scaled_ydd_radius(grid, beta_dprime, j)
    widened = phi_radial(np.ldexp(rad, -(kmax + 1)))
    telescope_dev = float(np.abs(total - widened).max())
    covers = np.ldexp(1.0, kmax + j * min(beta_dprime)) \
        >= 2.0 * grid.max_frequency
    identity_dev = float(np.abs(total - 1.0).max()) if covers else None
    return {"telescope_deviation": telescope_dev,
            "covers_grid": bool(covers),
            "identity_deviation": identity_dev}


def test_qj_symbol_at_zero_frequency():
    q = qj_multiplier(GRID, 1, SPEC.beta_dprime, 0)
    assert q.ydd_block.shape == (GRID.points_per_axis,)
    assert q.ydd_block[0] == 1.0


def test_qj_symbol_depends_on_ydd_only():
    # on a product a(x') b(x'') the multiplier filters b and leaves a alone
    q = qj_multiplier(GRID, 1, SPEC.beta_dprime, 1)
    rng = np.random.default_rng(6)
    a, b = rng.standard_normal((2, GRID.points_per_axis))
    filtered_b = np.fft.ifft(np.fft.fft(b) * q.ydd_block).real
    got = q.apply(np.outer(a, b).ravel()).reshape(GRID.shape())
    assert np.abs(got - np.outer(a, filtered_b)).max() < 1e-12


def test_pjk_shell_support():
    j, k = 1, 2
    p = pjk_multiplier(GRID, 1, SPEC.beta_dprime, j, k)
    sym = p.ydd_block
    freq = GRID.frequencies()
    scaled = np.abs(np.ldexp(freq, -j * SPEC.beta_dprime[0]))
    live = sym > 0
    assert np.all(scaled[live] >= 2.0 ** (k - 1))
    assert np.all(scaled[live] <= 2.0 ** (k + 1))
    assert np.all(sym >= 0.0)


def test_partition_telescopes_and_covers():
    for j in (0, 1, 2):
        res = partition_check(GRID, 1, SPEC.beta_dprime, j, kmax=8)
        assert res["telescope_deviation"] <= 1e-12
        if res["covers_grid"]:
            assert res["identity_deviation"] <= 1e-12
    # with enough shells the sum covers the whole grid frequency range
    res = partition_check(GRID, 1, SPEC.beta_dprime, 0, kmax=8)
    assert res["covers_grid"]
