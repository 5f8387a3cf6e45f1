import math
from fractions import Fraction

import numpy as np
import pytest

from anisoradon.errors import DegenerateSpace
from anisoradon.hessian import (SAMPLE_DENOMINATOR, EtaPolynomial,
                                _CompiledHessian, generic_rank_trial,
                                generic_trial_tuple, integer_matrix_rank,
                                min_rank_sample, mixed_hessian,
                                symbolic_minor_certificate)
from anisoradon.polynomials import Monomial, Polynomial, lambda_basis
from anisoradon.scaling import MultiIndex, Weights, isotropic_weights
from oracles import minor_rank_oracle, sympy_hessian

F = Fraction


def poly(n_p, n_d, *terms):
    return Polynomial.from_monomials(
        n_p, n_d,
        [Monomial(F(c), tuple(a), tuple(b), tuple(d)) for c, a, b, d in terms])


def scaled_matrix(h, point, eta):
    """The compiled Hessian at a rational point of the unit box, as
    ``evaluate_scaled`` returns it; eta'' is cleared to integers (the rank
    is invariant under rescaling eta'')."""
    coords = [F(v) for block in point for v in block]
    assert all(abs(v) <= 1 for v in coords)
    den = math.lcm(*(v.denominator for v in coords))
    eta_den = math.lcm(*(F(e).denominator for e in eta))
    return _CompiledHessian(h).evaluate_scaled(
        [int(v * den) for v in coords], den,
        [int(F(e) * eta_den) for e in eta])


def rank_at(h, point, eta):
    return integer_matrix_rank(scaled_matrix(h, point, eta))


def test_mixed_hessian_single_mixed_partial():
    w = isotropic_weights(1, 1)
    h = mixed_hessian((poly(1, 1, (1, [1], [0], [1])),), w, MultiIndex([2]))
    entry = h.entries[0][0]
    assert entry.terms == {(1,): Polynomial.constant(1, 1, 1)}


def test_mixed_hessian_no_x_dependence():
    w = isotropic_weights(1, 1)
    h = mixed_hessian((poly(1, 1, (1, [0], [0], [2])),), w, MultiIndex([2]))
    assert h.entries[0][0].is_zero()


def test_mixed_hessian_identity_block():
    w = isotropic_weights(2, 1)
    s = poly(2, 1, (1, [1, 0], [0], [1, 0]), (1, [0, 1], [0], [0, 1]))
    h = mixed_hessian((s,), w, MultiIndex([2]))
    for i in range(2):
        for j in range(2):
            if i == j:
                assert h.entries[i][j].terms == {
                    (1,): Polynomial.constant(2, 1, 1)}
            else:
                assert h.entries[i][j].is_zero()


def test_mixed_hessian_rejects_inhomogeneous():
    w = isotropic_weights(1, 1)
    p = poly(1, 1, (1, [1], [0], [1]), (1, [2], [0], [2]))
    with pytest.raises(ValueError):
        mixed_hessian((p,), w, MultiIndex([2]))


def test_rank_at_identity_and_zero():
    w = isotropic_weights(2, 1)
    s = poly(2, 1, (1, [1, 0], [0], [1, 0]), (1, [0, 1], [0], [0, 1]))
    h = mixed_hessian((s,), w, MultiIndex([2]))
    pt = ((F(1), F(1)), (F(0),), (F(1), F(1)))
    assert rank_at(h, pt, (F(1),)) == 2
    zero = mixed_hessian((poly(2, 1, (1, [0, 0], [0], [3, 0])),), w,
                         MultiIndex([3]))
    # d^2/dx dy of y^3 vanishes identically
    assert rank_at(zero, pt, (F(1),)) == 0


def test_rank_at_elimination_oracle_case():
    # entries [[eta y2, eta y1], [2 eta y1, 2 eta y2]] from
    # S = x1 y1 y2 + x2 (y1^2 + y2^2), isotropic, beta'' = 3
    w = isotropic_weights(2, 1)
    s = poly(2, 1, (1, [1, 0], [0], [1, 1]), (1, [0, 1], [0], [2, 0]),
             (1, [0, 1], [0], [0, 2]))
    h = mixed_hessian((s,), w, MultiIndex([3]))
    pt = ((F(0), F(0)), (F(0),), (F(1), F(0)))
    assert scaled_matrix(h, pt, (F(1),)) == [[0, 1], [2, 0]]
    assert rank_at(h, pt, (F(1),)) == 2


def test_exact_rank_matches_minor_oracle():
    rng = np.random.default_rng(23)
    for _ in range(60):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        mat = [[int(rng.integers(-3, 4)) for _ in range(m)] for _ in range(n)]
        assert integer_matrix_rank(mat) == minor_rank_oracle(mat)


def test_integer_rank_basics():
    assert integer_matrix_rank([[0, 0], [0, 0]]) == 0
    assert integer_matrix_rank([[1, 2], [2, 4]]) == 1
    assert integer_matrix_rank([[1, 2], [3, 4]]) == 2


def test_eta_linearity_exact():
    rng = np.random.default_rng(8)
    w = isotropic_weights(2, 2)
    s1 = poly(2, 2, (2, [1, 0], [0, 0], [1, 0]), (1, [0, 1], [0, 0], [0, 1]))
    s2 = poly(2, 2, (1, [1, 1], [0, 0], [0, 0]), (3, [0, 0], [0, 0], [1, 1]))
    compiled = _CompiledHessian(mixed_hessian((s1, s2), w,
                                              MultiIndex([2, 2])))
    for _ in range(20):
        nums = [int(v) for v in rng.integers(-4, 5, size=6)]
        e1 = [int(v) for v in rng.integers(-4, 5, size=2)]
        e2 = [int(v) for v in rng.integers(-4, 5, size=2)]
        both = [a + b for a, b in zip(e1, e2)]
        m1 = compiled.evaluate_scaled(nums, 4, e1)
        m2 = compiled.evaluate_scaled(nums, 4, e2)
        ms = compiled.evaluate_scaled(nums, 4, both)
        for i in range(2):
            for j in range(2):
                assert ms[i][j] == m1[i][j] + m2[i][j]


def test_dilation_rank_invariance():
    # rank_at(H, (2^{-j a} x, 2^{-j b'} y', 2^{j b''} eta)) == rank_at(H, ...)
    rng = np.random.default_rng(9)
    w = Weights(MultiIndex([1, 2]), MultiIndex([1]), MultiIndex([2, 1]))
    bdd = MultiIndex([4])
    basis = lambda_basis(w, 4)
    coeffs = [int(rng.integers(-5, 6)) for _ in basis]
    s = Polynomial.from_monomials(
        2, 1, [Monomial(F(c), m.exp_x, m.exp_xx, m.exp_y)
               for c, m in zip(coeffs, basis) if c])
    h = mixed_hessian((s,), w, bdd)
    for _ in range(10):
        # |coordinates| <= 1/16, so every dilation below stays in the unit box
        xp = tuple(F(int(rng.integers(-2, 3)), 32) for _ in range(2))
        xdd = (F(int(rng.integers(-2, 3)), 32),)
        yp = tuple(F(int(rng.integers(-2, 3)), 32) for _ in range(2))
        eta = (F(int(rng.integers(1, 5))),)
        base = rank_at(h, (xp, xdd, yp), eta)
        assert base == sympy_hessian((s,), xp + xdd + yp, eta).rank()
        for j in range(-2, 3):
            xp_j = tuple(v * F(2) ** (-j * a)
                         for v, a in zip(xp, w.alpha_prime))
            xdd_j = tuple(v * F(2) ** (-j * a)
                          for v, a in zip(xdd, w.alpha_dprime))
            yp_j = tuple(v * F(2) ** (-j * b)
                         for v, b in zip(yp, w.beta_prime))
            eta_j = tuple(v * F(2) ** (j * b) for v, b in zip(eta, bdd))
            assert rank_at(h, (xp_j, xdd_j, yp_j), eta_j) == base


def test_min_rank_sample_constant_rank():
    w = isotropic_weights(2, 1)
    s = poly(2, 1, (1, [1, 0], [0], [1, 0]), (1, [0, 1], [0], [0, 1]))
    h = mixed_hessian((s,), w, MultiIndex([2]))
    for plan in ((5, 0), (40, 3)):
        rep = min_rank_sample(h, *plan)
        assert rep.min_rank == 2
        assert rep.samples_tried >= plan[0]


def test_min_rank_sample_axis_probe_finds_zero():
    # H = 2 eta y' vanishes on y' = 0; the axis probes include x'=1, y'=0
    w = isotropic_weights(1, 1)
    h = mixed_hessian((poly(1, 1, (1, [1], [0], [2])),), w, MultiIndex([3]))
    rep = min_rank_sample(h, 10, seed=0)
    assert rep.min_rank == 0
    (xp, xdd, yp), eta = rep.witness
    assert yp == (F(0),)
    assert any(v != 0 for v in xp + xdd + yp)
    assert any(e != 0 for e in eta)


def test_min_rank_sample_zero_hessian():
    w = isotropic_weights(1, 1)
    h = mixed_hessian((poly(1, 1, (1, [0], [0], [2])),), w, MultiIndex([2]))
    assert min_rank_sample(h, 5, seed=1).min_rank == 0


def test_min_rank_sample_witness_consistency():
    w = isotropic_weights(2, 1)
    s = poly(2, 1, (1, [1, 0], [0], [1, 0]), (2, [0, 1], [0], [0, 1]))
    h = mixed_hessian((s,), w, MultiIndex([2]))
    rep = min_rank_sample(h, 25, seed=4)
    point, eta = rep.witness
    assert rank_at(h, point, eta) == rep.min_rank
    coords = point[0] + point[1] + point[2]
    assert sympy_hessian((s,), coords, eta).rank() == rep.min_rank
    assert any(v != 0 for v in eta)
    assert max(abs(v) for v in eta) == 1  # sup-sphere surrogate


def test_big_integer_evaluation_matches_sympy():
    # degree-12 entries: the a-priori bound exceeds int64, so the evaluation
    # runs on exact Python integers.  The denominator is finer than the
    # sampler's so that the exact entries themselves exceed int64.
    w, bdd = isotropic_weights(2, 1), MultiIndex([14])
    polys = generic_trial_tuple(w, bdd, seed=0, trial_index=0)
    compiled = _CompiledHessian(mixed_hessian(polys, w, bdd))
    assert compiled.max_degree == 12
    assert not compiled._fits_int64(SAMPLE_DENOMINATOR, 1)
    D = 2 ** 10
    rng = np.random.default_rng(14)
    for _ in range(20):
        nums = [int(v) for v in rng.integers(-D, D + 1, size=5)]
        nums[int(rng.integers(5))] = D  # on the shell: some |z_v| = 1
        eta = [int(rng.choice([-1, 1]) * rng.integers(1, 17))]
        got = compiled.evaluate_scaled(nums, D, eta)
        want = sympy_hessian(polys, [F(k, D) for k in nums], eta)
        assert got == [[int(D ** 12 * want[i, j]) for j in range(2)]
                       for i in range(2)]
        assert max(abs(v) for row in got for v in row) >= 2 ** 63
        assert integer_matrix_rank(got) == want.rank()


def test_min_rank_sample_deterministic():
    w = isotropic_weights(2, 1)
    s = poly(2, 1, (1, [1, 0], [0], [1, 0]), (1, [0, 1], [0], [0, 1]))
    h = mixed_hessian((s,), w, MultiIndex([2]))
    a = min_rank_sample(h, 30, seed=12)
    b = min_rank_sample(h, 30, seed=12)
    assert a == b


def test_generic_rank_trial_constant_entry():
    # beta''=(2), all-ones: the basis contains x'y'; any tuple weight on it
    # gives a constant-entry Hessian of rank 1
    w = isotropic_weights(1, 1)
    rep = generic_rank_trial(w, MultiIndex([2]), tuples=6,
                             points_per_tuple=10, seed=3)
    assert set(rep.trial_min_ranks) <= {0, 1}
    assert rep.trial_min_ranks.get(1, 0) > 0


def test_generic_rank_trial_rank_two():
    w = isotropic_weights(2, 1)
    rep = generic_rank_trial(w, MultiIndex([2]), tuples=5,
                             points_per_tuple=20, seed=5)
    assert rep.evaluation_fraction_at_least(2) > F(1, 2)


def test_generic_rank_trial_degenerate_space():
    w = Weights(MultiIndex([2]), MultiIndex([2]), MultiIndex([2]))
    with pytest.raises(DegenerateSpace):
        generic_rank_trial(w, MultiIndex([3]), tuples=1, points_per_tuple=1,
                           seed=0)


def test_generic_rank_trial_deterministic():
    w = isotropic_weights(2, 1)
    a = generic_rank_trial(w, MultiIndex([2]), tuples=4, points_per_tuple=15,
                           seed=9)
    b = generic_rank_trial(w, MultiIndex([2]), tuples=4, points_per_tuple=15,
                           seed=9)
    assert a.trial_min_ranks == b.trial_min_ranks
    assert a.evaluation_ranks == b.evaluation_ranks


def test_symbolic_minor_certificate():
    w = isotropic_weights(1, 1)
    h = mixed_hessian((poly(1, 1, (1, [1], [0], [1])),), w, MultiIndex([2]))
    assert symbolic_minor_certificate(h, 1) == ((0,), (0,))
    h0 = mixed_hessian((poly(1, 1, (1, [0], [0], [2])),), w, MultiIndex([2]))
    assert symbolic_minor_certificate(h0, 1) is None


def test_eta_polynomial_arithmetic():
    p = Polynomial.constant(1, 1, 2)
    q = Polynomial.variable(1, 1, "y", 0)
    a = EtaPolynomial(1, {(1,): p})
    b = EtaPolynomial(1, {(1,): q})
    prod = a * b
    assert list(prod.terms) == [(2,)]
    assert prod.terms[(2,)] == p * q
    assert (a - a).is_zero()
