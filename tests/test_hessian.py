import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anisoradon import hessian
from anisoradon.errors import DegenerateSpace
from anisoradon.exponents import check_homogeneity
from anisoradon.hessian import (COEFFICIENT_BOUND, SAMPLE_DENOMINATOR,
                                SCREEN_PRIME, EvalBuffers, _CompiledHessian,
                                _flat, _nonsingular_mod_p, _probe_chunk,
                                _screened_ranks, _shell_chunks, _stream,
                                _trial_coefficients, _unique_rows,
                                _weighted_bases, generic_rank_trial,
                                generic_trial_tuple, integer_matrix_rank,
                                min_rank_sample, mixed_hessian,
                                principal_hessian)
from anisoradon.polynomials import Monomial, Polynomial, lambda_basis
from anisoradon.scaling import MultiIndex, Weights, isotropic_weights
from anisoradon.specfile import load_spec
from oracles import minor_rank_oracle, shell_points, sympy_hessian

F = Fraction
GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


def poly(n_p, n_d, *terms):
    return Polynomial.from_monomials(
        n_p, n_d,
        [Monomial(F(c), tuple(a), tuple(b), tuple(d)) for c, a, b, d in terms])


def scaled_matrix(h, point, eta):
    """The bound Hessian at a rational point of the unit box, as
    ``evaluate`` returns it; eta'' is cleared to integers (the rank is
    invariant under rescaling eta'')."""
    coords = [F(v) for block in point for v in block]
    assert all(abs(v) <= 1 for v in coords)
    den = math.lcm(*(v.denominator for v in coords))
    eta_den = math.lcm(*(F(e).denominator for e in eta))
    return h.evaluate([[int(v * den) for v in coords]], den,
                      [[int(F(e) * eta_den) for e in eta]])[0].tolist()


def scaled_sympy(polys, nums, den, eta, max_degree):
    """den**max_degree times the ``sympy`` mixed partials at nums / den."""
    want = sympy_hessian(polys, [F(k, den) for k in nums], eta)
    scaled = want * den ** max_degree
    assert all(v.is_integer for v in scaled)
    return [[int(v) for v in row] for row in scaled.tolist()]


def counting_rank(monkeypatch):
    """Count the matrices that reach the Bareiss fallback."""
    calls = []

    def rank(rows):
        calls.append(rows)
        return integer_matrix_rank(rows)

    monkeypatch.setattr(hessian, "integer_matrix_rank", rank)
    return calls


def rank_at(h, point, eta):
    return integer_matrix_rank(scaled_matrix(h, point, eta))


def test_mixed_hessian_single_mixed_partial():
    w = isotropic_weights(1, 1)
    h = mixed_hessian((poly(1, 1, (1, [1], [0], [1])),), w, MultiIndex([2]))
    assert h == (({0: poly(1, 1, (1, [0], [0], [0]))},),)


def test_mixed_hessian_no_x_dependence():
    w = isotropic_weights(1, 1)
    h = mixed_hessian((poly(1, 1, (1, [0], [0], [2])),), w, MultiIndex([2]))
    assert h == (({},),)


def test_mixed_hessian_identity_block():
    w = isotropic_weights(2, 1)
    s = poly(2, 1, (1, [1, 0], [0], [1, 0]), (1, [0, 1], [0], [0, 1]))
    h = mixed_hessian((s,), w, MultiIndex([2]))
    one = poly(2, 1, (1, [0, 0], [0], [0, 0]))
    assert h == (({0: one}, {}), ({}, {0: one}))


def test_mixed_hessian_keys_each_component():
    # S = (x' y', x'^2 y') at beta'' = (2, 3): the entry is eta1 + 2 x' eta2
    w = isotropic_weights(1, 2)
    s = (poly(1, 2, (1, [1], [0, 0], [1])), poly(1, 2, (1, [2], [0, 0], [1])))
    h = mixed_hessian(s, w, MultiIndex([2, 3]))
    assert h == (({0: poly(1, 2, (1, [0], [0, 0], [0])),
                   1: poly(1, 2, (2, [1], [0, 0], [0]))},),)


def test_mixed_hessian_rejects_inhomogeneous():
    w = isotropic_weights(1, 1)
    p = poly(1, 1, (1, [1], [0], [1]), (1, [2], [0], [2]))
    with pytest.raises(ValueError):
        mixed_hessian((p,), w, MultiIndex([2]))


def test_principal_hessian_rejects_inhomogeneous():
    w = isotropic_weights(1, 2)
    p = poly(1, 2, (1, [1], [0, 0], [1]), (1, [2], [0, 0], [2]))
    with pytest.raises(ValueError, match="component 0 "):
        principal_hessian((p, p), w, MultiIndex([2, 2]))
    # a homogeneous first component: the second one is named
    q = poly(1, 2, (1, [1], [0, 0], [1]))
    with pytest.raises(ValueError, match="component 1 .* degree 4"):
        principal_hessian((q, p), w, MultiIndex([2, 4]))
    with pytest.raises(ValueError, match="one polynomial"):
        principal_hessian((q,), w, MultiIndex([2, 2]))


def test_rank_at_identity_and_zero():
    w = isotropic_weights(2, 1)
    s = poly(2, 1, (1, [1, 0], [0], [1, 0]), (1, [0, 1], [0], [0, 1]))
    h = principal_hessian((s,), w, MultiIndex([2]))
    pt = ((F(1), F(1)), (F(0),), (F(1), F(1)))
    assert rank_at(h, pt, (F(1),)) == 2
    zero = principal_hessian((poly(2, 1, (1, [0, 0], [0], [3, 0])),), w,
                             MultiIndex([3]))
    # d^2/dx dy of y^3 vanishes identically
    assert rank_at(zero, pt, (F(1),)) == 0


def test_rank_at_elimination_oracle_case():
    # entries [[eta y2, eta y1], [2 eta y1, 2 eta y2]] from
    # S = x1 y1 y2 + x2 (y1^2 + y2^2), isotropic, beta'' = 3
    w = isotropic_weights(2, 1)
    s = poly(2, 1, (1, [1, 0], [0], [1, 1]), (1, [0, 1], [0], [2, 0]),
             (1, [0, 1], [0], [0, 2]))
    h = principal_hessian((s,), w, MultiIndex([3]))
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
    h = principal_hessian((s1, s2), w, MultiIndex([2, 2]))
    for _ in range(20):
        nums = [int(v) for v in rng.integers(-4, 5, size=6)]
        e1 = [int(v) for v in rng.integers(-4, 5, size=2)]
        e2 = [int(v) for v in rng.integers(-4, 5, size=2)]
        both = [a + b for a, b in zip(e1, e2)]
        m1, m2, ms = h.evaluate([nums] * 3, 4, [e1, e2, both])
        assert (ms == m1 + m2).all()


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
    h = principal_hessian((s,), w, bdd)
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
    h = principal_hessian((s,), w, MultiIndex([2]))
    for plan in ((5, 0), (40, 3)):
        rep = min_rank_sample(h, *plan)
        assert rep.min_rank == 2
        assert rep.samples_tried >= plan[0]


def test_min_rank_sample_axis_probe_finds_zero():
    # H = 2 eta y' vanishes on y' = 0; the axis probes include x'=1, y'=0
    w = isotropic_weights(1, 1)
    h = principal_hessian((poly(1, 1, (1, [1], [0], [2])),), w,
                          MultiIndex([3]))
    rep = min_rank_sample(h, 10, seed=0)
    assert rep.min_rank == 0
    (xp, xdd, yp), eta = rep.witness
    assert yp == (F(0),)
    assert any(v != 0 for v in xp + xdd + yp)
    assert any(e != 0 for e in eta)


def test_min_rank_sample_zero_hessian():
    w = isotropic_weights(1, 1)
    h = principal_hessian((poly(1, 1, (1, [0], [0], [2])),), w,
                          MultiIndex([2]))
    assert min_rank_sample(h, 5, seed=1).min_rank == 0


def test_min_rank_sample_witness_consistency():
    w = isotropic_weights(2, 1)
    s = poly(2, 1, (1, [1, 0], [0], [1, 0]), (2, [0, 1], [0], [0, 1]))
    h = principal_hessian((s,), w, MultiIndex([2]))
    rep = min_rank_sample(h, 25, seed=4)
    # every evaluated point, probes included, is counted at its rank
    assert sum(rep.rank_counts.values()) == rep.samples_tried > 25
    assert min(rep.rank_counts) == rep.min_rank
    point, eta = rep.witness
    assert rank_at(h, point, eta) == rep.min_rank
    coords = point[0] + point[1] + point[2]
    assert sympy_hessian((s,), coords, eta).rank() == rep.min_rank
    assert any(v != 0 for v in eta)
    assert max(abs(v) for v in eta) == 1  # sup-sphere surrogate


def test_big_integer_evaluation_matches_sympy():
    # degree-12 entries: the a-priori bound exceeds 2^53, so the evaluation
    # runs on exact Python integers.  The denominator is finer than the
    # sampler's so that the exact entries themselves exceed int64.
    w, bdd = isotropic_weights(2, 1), MultiIndex([14])
    polys = generic_trial_tuple(w, bdd, seed=0, trial_index=0)
    h = principal_hessian(polys, w, bdd)
    assert h.map.max_degree == 12
    shells = next(_shell_chunks(h.map.weights_flat, 1, 1, seed=0, per_chunk=1))
    assert h.evaluate(*shells).dtype == object
    D = 2 ** 10
    rng = np.random.default_rng(14)
    nums, etas = [], []
    for _ in range(20):
        point = [int(v) for v in rng.integers(-D, D + 1, size=5)]
        point[int(rng.integers(5))] = D  # on the shell: some |z_v| = 1
        nums.append(point)
        etas.append([int(rng.choice([-1, 1]) * rng.integers(1, 17))])
    got = h.evaluate(nums, D, etas)
    assert got.dtype == object
    ranks = _screened_ranks(got)
    for point, eta, mat, rank in zip(nums, etas, got, ranks):
        want = sympy_hessian(polys, [F(k, D) for k in point], eta)
        assert mat.tolist() == [[int(D ** 12 * want[i, j]) for j in range(2)]
                                for i in range(2)]
        assert max(abs(v) for v in mat.ravel()) >= 2 ** 63
        assert integer_matrix_rank(mat.tolist()) == want.rank()
        assert rank == want.rank()


@pytest.mark.parametrize("alpha_dprime, bdd, dtype", [
    # the float64 tier returns int64 matrices
    ((1, 1), (4, 5), np.int64),
    # entries of degree up to 12: the shell points push the bound past 2^53
    ((1,), (14,), object),
    # three eta'' blocks to fold
    ((1, 1, 1), (4, 5, 4), np.int64),
    # a constant Hessian: at degree 2 the only mixed monomial is the
    # bilinear x'_1 y'_2, so every monomial is a product of no factors
    ((1,), (2,), np.int64),
])
def test_probe_and_shell_chunks_match_sympy(alpha_dprime, bdd, dtype):
    # anisotropic weights: the lower monomials differ in degree, so the
    # homogenizing factor reads the chunk's denominator
    w = Weights(MultiIndex([1, 2]), MultiIndex(alpha_dprime),
                MultiIndex([2, 1]))
    constant = bdd == (2,)
    bdd = MultiIndex(bdd)
    polys = generic_trial_tuple(w, bdd, seed=1, trial_index=0)
    h = principal_hessian(polys, w, bdd)
    assert (h.map.max_degree == 0) == constant
    probes = _probe_chunk(2, w.n_dprime)
    shells = next(_shell_chunks(h.map.weights_flat, w.n_dprime,
                                len(probes[0]), seed=2, per_chunk=100))
    assert shells[1] == SAMPLE_DENOMINATOR
    # one workspace for both chunks and wider than either, as rank sampling
    # holds one for all its chunks: every result equals a fresh evaluation
    # and keeps its values once the next chunk has reused the workspace
    work = EvalBuffers(h.map, len(probes[0]) + 5)
    chunks = (probes, shells)
    results = [h.evaluate(*chunk, work) for chunk in chunks]
    # probes stay in the float64 tier whatever the degree
    for chunk, got, want_dtype in zip(chunks, results, (np.int64, dtype)):
        assert got.dtype == want_dtype
        assert (got == h.evaluate(*chunk)).all()
        nums, den, etas = chunk
        for point, eta, mat in zip(nums.tolist(), etas.tolist(), got):
            assert mat.tolist() == scaled_sympy(polys, point, den, eta,
                                                h.map.max_degree)


def test_screened_ranks_match_bareiss_on_a_dense_spec():
    # the shape of the benchmark's point-eval spec: n' = 4, n'' = 2, all
    # weights 1, and a nonzero coefficient in [-9, 9] on every monomial of
    # degree 4
    w, bdd = isotropic_weights(4, 2), MultiIndex([4, 4])
    basis = lambda_basis(w, 4)
    rng = np.random.default_rng(27)
    polys = tuple(Polynomial.from_monomials(4, 2, [
        Monomial(F(int(c)), m.exp_x, m.exp_xx, m.exp_y)
        for c, m in zip(rng.choice(np.r_[-9:0, 1:10], len(basis)), basis)])
        for _ in bdd)
    h = principal_hessian(polys, w, bdd)
    assert len(basis) == 715
    shells = next(_shell_chunks(h.map.weights_flat, 2, 300, seed=27,
                                per_chunk=300))
    for chunk in (_probe_chunk(4, 2), shells):
        mats = h.evaluate(*chunk)
        assert mats.dtype == np.int64
        assert _screened_ranks(mats).tolist() == [
            integer_matrix_rank(m.tolist()) for m in mats]


@pytest.mark.parametrize("above", [False, True])
def test_float64_tier_is_exact_up_to_its_edge(above):
    # scale a trial tuple so that the a-priori bound of a shell chunk sits
    # just below 2^53, where float64 holds every partial sum exactly, or just
    # above it, where the evaluation runs on Python integers
    w = Weights(MultiIndex([1, 2]), MultiIndex([1, 1]), MultiIndex([2, 1]))
    bdd = MultiIndex([4, 5])
    polys = generic_trial_tuple(w, bdd, seed=1, trial_index=0)
    h = principal_hessian(polys, w, bdd)
    nums, den, etas = next(_shell_chunks(h.map.weights_flat, 2, 40, seed=2,
                                         per_chunk=40))
    unit = (h.max_coeff * den ** h.map.max_degree * h.map.n_terms
            * int(np.abs(etas).max()))
    scale = (2 ** 53 - 1) // unit + above
    assert 2 ** 52 < scale * unit < 2 ** 53 + unit
    assert (scale * unit < 2 ** 53) != above
    scaled = tuple(Polynomial.from_monomials(
        p.n_prime, p.n_dprime,
        [Monomial(m.coeff * scale, m.exp_x, m.exp_xx, m.exp_y)
         for m in p.monomials()]) for p in polys)
    hs = principal_hessian(scaled, w, bdd)
    assert hs.max_coeff == scale * h.max_coeff
    got = hs.evaluate(nums, den, etas)
    assert got.dtype == (object if above else np.int64)
    # entries far past float32 and close to the edge
    assert max(abs(int(v)) for v in got.ravel()) > 2 ** 45
    for point, eta, mat in zip(nums.tolist(), etas.tolist(), got):
        assert mat.tolist() == scaled_sympy(scaled, point, den, eta,
                                            h.map.max_degree)


def compiled_basis(w, bdd):
    """The compiled Hessian map of the monomial bases, as sample-generic
    compiles it."""
    return _CompiledHessian(w, [[_flat(m) for m in b]
                                for b in _weighted_bases(w, bdd)])


@pytest.mark.parametrize("above", [False, True])
def test_int64_bind_is_exact_up_to_its_edge(above):
    # scale a trial's coefficients so that the bind bound, max |coeff| times
    # max a_i c_j times n_terms, sits just below 2^63, where every term and
    # partial sum is exact in int64, or just above it, where the bind runs on
    # Python integers
    w = Weights(MultiIndex([1, 2]), MultiIndex([1, 1]), MultiIndex([2, 1]))
    bdd = MultiIndex([4, 5])
    compiled = compiled_basis(w, bdd)
    coeffs = _trial_coefficients(compiled.sizes, 1, 0, COEFFICIENT_BOUND)
    unit = (max(int(np.abs(c).max()) for c in coeffs)
            * int(compiled._mult.max()) * compiled.n_terms)
    scale = (2 ** 63 - 1) // unit + above
    assert 2 ** 62 < scale * unit < 2 ** 63 + unit
    assert (scale * unit < 2 ** 63) != above
    # the scaled coefficients themselves fit in int64 either way
    h = compiled.bind([c * scale for c in coeffs])
    assert h.matrix.dtype == (object if above else np.int64)
    assert h.max_coeff > 2 ** 62 // compiled.n_terms
    # the bind in either tier equals the unscaled bind times the scale, in
    # Python integers
    unscaled = compiled.bind(coeffs)
    assert unscaled.matrix.dtype == np.int64
    assert h.matrix.tolist() == (unscaled.matrix.astype(object)
                                 * scale).tolist()
    assert h.max_coeff == scale * unscaled.max_coeff
    # and evaluates, on Python integers, to the sympy Hessian of the tuple
    scaled = tuple(Polynomial.from_monomials(
        p.n_prime, p.n_dprime,
        [Monomial(m.coeff * scale, m.exp_x, m.exp_xx, m.exp_y)
         for m in p.monomials()])
        for p in generic_trial_tuple(w, bdd, seed=1, trial_index=0))
    nums, den, etas = next(_shell_chunks(compiled.weights_flat, 2, 20, seed=2,
                                         per_chunk=20))
    got = h.evaluate(nums, den, etas)
    assert got.dtype == object
    assert (got == principal_hessian(scaled, w, bdd).evaluate(
        nums, den, etas)).all()
    for point, eta, mat in zip(nums.tolist(), etas.tolist(), got):
        assert mat.tolist() == scaled_sympy(scaled, point, den, eta,
                                            compiled.max_degree)


def test_sample_generic_trials_bind_in_int64():
    # a trial's coefficients are at most COEFFICIENT_BOUND, so at the
    # benchmark's n' = 4, n'' = 2, beta'' = (5, 5) the bind bound is far
    # below 2^63, and below 2^53, where evaluate has its float64 matrix
    assert np.iinfo(np.int64).max == 2 ** 63 - 1
    w, bdd = isotropic_weights(4, 2), MultiIndex([5, 5])
    compiled = compiled_basis(w, bdd)
    assert (compiled.sizes, compiled.n_terms) == ([2002, 2002], 7040)
    assert COEFFICIENT_BOUND * int(compiled._mult.max()) * compiled.n_terms \
        < 2 ** 53
    coeffs = _trial_coefficients(compiled.sizes, 0, 0, COEFFICIENT_BOUND)
    assert all(c.dtype == np.int64 for c in coeffs)
    h = compiled.bind(coeffs)
    assert h.matrix.dtype == np.int64
    assert (h._float == h.matrix).all()


def test_generic_trial_tuple_has_python_integer_coefficients():
    # a Fraction keeps an int64 numerator, whose arithmetic wraps
    polys = generic_trial_tuple(isotropic_weights(2, 1), MultiIndex([3]),
                                seed=4, trial_index=1)
    coeffs = [m.coeff for p in polys for m in p.monomials()]
    assert len(coeffs) == 35
    assert all(type(c.numerator) is int and c.denominator == 1
               and 1 <= abs(c) <= COEFFICIENT_BOUND for c in coeffs)


def _skipped_draws(width, n_dprime, seed, samples):
    """The all-zero numerator and eta'' draws that the first ``samples``
    shell points of the stream keyed by ``seed`` skip."""
    D = SAMPLE_DENOMINATOR
    raw = _stream(seed, 0).integers(-D, D + 1, size=2 * samples * width)
    nv, pos, kept, skipped = width - n_dprime, 0, 0, [0, 0]
    while kept < samples:
        if not raw[pos:pos + nv].any():
            skipped[0] += 1
            pos += nv
            continue
        if raw[pos + nv:pos + width].any():
            kept += 1
        else:
            skipped[1] += 1
        pos += width
    return skipped


@pytest.mark.parametrize("per_chunk", [1, 37, 4096])
@pytest.mark.parametrize("weights_flat, n_dprime", [
    # an eta'' draw is zero 1 time in 33, a numerator draw 1 in 33^3
    ((1, 1, 2), 1),
    # weights past 4, where the normalization caps the growth factor
    ((3, 1, 70), 1),
    # a numerator draw is zero 1 time in 33
    ((2,), 1),
    ((1, 2, 1, 1, 2, 1), 2),
])
def test_shell_chunks_match_the_per_point_stream(weights_flat, n_dprime,
                                                 per_chunk):
    # at seed 66 the first 4000 points of width 4 skip two all-zero
    # numerator draws and 131 all-zero eta'' draws
    samples, seed = 4000, 66
    if len(weights_flat) == 3:
        assert _skipped_draws(4, 1, seed, samples) == [2, 131]
    want = list(shell_points(weights_flat, n_dprime, samples, seed))
    chunks = list(_shell_chunks(weights_flat, n_dprime, samples, seed,
                                per_chunk))
    assert all(0 < len(nums) <= per_chunk for nums, _, _ in chunks)
    assert {den for _, den, _ in chunks} == {SAMPLE_DENOMINATOR}
    nums = np.concatenate([c[0] for c in chunks])
    etas = np.concatenate([c[2] for c in chunks])
    assert nums.dtype == etas.dtype == np.int64
    assert nums.tolist() == [p[0] for p in want]
    assert etas.tolist() == [p[2] for p in want]


def test_compiled_basis_binds_the_trial_tuple():
    # sample-generic binds the compiled basis to the coefficients that
    # generic_trial_tuple draws: the same map as the trial's own Hessian
    w, bdd = isotropic_weights(3, 2), MultiIndex([3, 4])
    bases = [lambda_basis(w, d) for d in bdd]
    compiled = _CompiledHessian(
        w, [[m.exp_x + m.exp_xx + m.exp_y for m in b] for b in bases])
    chunk = next(_shell_chunks(compiled.weights_flat, 2, 30, seed=5,
                               per_chunk=30))
    for t in range(3):
        bound = compiled.bind(_trial_coefficients(compiled.sizes, 8, t, 10))
        own = principal_hessian(generic_trial_tuple(w, bdd, 8, t), w, bdd)
        assert (bound.evaluate(*chunk) == own.evaluate(*chunk)).all()
    with pytest.raises(ValueError):
        compiled.bind([[1]] * 2)


@given(st.lists(st.lists(st.integers(0, 2), min_size=4, max_size=4),
                max_size=40))
# the lower monomials of a constant Hessian: one row, repeated
@example([[0] * 4] * 6)
@example([])
def test_unique_rows_match_numpy(rows):
    a = np.array(rows, dtype=np.int64).reshape(-1, 4)
    got, inverse = _unique_rows(a)
    want, want_inverse = np.unique(a, axis=0, return_inverse=True)
    assert got.tolist() == want.tolist()
    assert inverse.tolist() == want_inverse.ravel().tolist()
    assert (got[inverse] == a).all()


def test_screen_sends_det_p_to_bareiss(monkeypatch):
    calls = counting_rank(monkeypatch)
    p = SCREEN_PRIME
    mats = np.array([[[p, 0], [0, 1]], [[2, 1], [1, 1]], [[p + 1, 0], [0, 1]]])
    assert _nonsingular_mod_p(mats).tolist() == [False, True, True]
    assert _screened_ranks(mats).tolist() == [2, 2, 2]
    assert calls == [[[p, 0], [0, 1]]]


# entries that vanish mod p, residues p - 1 (whose products are the largest
# the float64 screen forms) and int64 entries up to 2^53 - 1, as the float64
# tier returns them
int64_ints = st.integers(-3, 3) | st.sampled_from(
    [SCREEN_PRIME, -SCREEN_PRIME, 2 * SCREEN_PRIME, SCREEN_PRIME - 1,
     1 - SCREEN_PRIME, 2 ** 53 - 1, 1 - 2 ** 53])
# and Python integers past int64, as the exact tier returns them
small_ints = int64_ints | st.integers(2 ** 63, 2 ** 65) | st.integers(
    -2 ** 65, -2 ** 63 - 1)


@st.composite
def integer_matrices(draw):
    """Small square integer matrices, some with entries that vanish mod p,
    some products of a thin pair (rank below n)."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        return draw(st.lists(st.lists(small_ints, min_size=n, max_size=n),
                             min_size=n, max_size=n))
    r = draw(st.integers(0, n - 1))
    b = draw(st.lists(st.lists(small_ints, min_size=r, max_size=r),
                      min_size=n, max_size=n))
    c = draw(st.lists(st.lists(small_ints, min_size=n, max_size=n),
                      min_size=r, max_size=r))
    return [[sum(b[i][k] * c[k][j] for k in range(r)) for j in range(n)]
            for i in range(n)]


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_ranks_match_sympy(mat):
    want = sympy.Matrix(mat).rank()
    assert integer_matrix_rank(mat) == want
    stack = np.array([mat], dtype=object)
    assert _screened_ranks(stack).tolist() == [want]
    if want < len(mat):  # a singular matrix never passes the screen
        assert not _nonsingular_mod_p(stack)[0]


@st.composite
def screen_stacks(draw):
    """Stacks of same-size integer matrices, int64 or Python integers, the
    first with a zero leading entry mod p, so that its screen swaps rows at
    the first step, the second with a nonzero one."""
    n = draw(st.integers(1, 4))
    dtype = draw(st.sampled_from([np.int64, object]))
    ints = int64_ints if dtype is np.int64 else small_ints
    mats = draw(st.lists(st.lists(st.lists(ints, min_size=n, max_size=n),
                                   min_size=n, max_size=n),
                         min_size=2, max_size=6))
    mats[0][0][0] = draw(st.sampled_from([0, SCREEN_PRIME]))
    mats[1][0][0] = draw(st.sampled_from([1, -2, SCREEN_PRIME + 1]))
    return np.array(mats, dtype=dtype)


P = SCREEN_PRIME


@settings(max_examples=300, deadline=None)
@given(screen_stacks())
@example(np.array([[[0, 1, 0], [1, 0, 0], [0, 0, 1]],
                   [[1, 0, 0], [0, 1, 0], [0, 0, 1]]]))
# residues p - 1: the first step forms (p - 1)^2 - 1 = p (p - 2) and
# (p - 1)^2, the largest product of two residues
@example(np.array([[[P - 1, 1], [1, P - 1]], [[P - 1, 0], [0, P - 1]]]))
# the float64 tier's largest entries, and Python integers past int64
@example(np.array([[[2 ** 53 - 1, 1 - 2 ** 53], [1, 2 ** 53 - 1]]] * 2))
@example(np.array([[[2 ** 63, P], [2 ** 64 + P, 1]], [[2 ** 63 * P, 1],
                                                     [1, 2 ** 63]]],
                  dtype=object))
def test_stacked_screen_matches_sympy(mats):
    # only some matrices of the stack need a pivot swap at each step; the
    # screen passes exactly those with a nonzero determinant mod p
    want = [sympy.Matrix(m) for m in mats.tolist()]
    assert _nonsingular_mod_p(mats).tolist() == [
        m.det() % SCREEN_PRIME != 0 for m in want]
    assert _screened_ranks(mats).tolist() == [m.rank() for m in want]


def test_screen_prime_keeps_the_float64_screen_exact():
    # a difference of two products of residues must be an integer that
    # float64 holds exactly
    assert sympy.isprime(SCREEN_PRIME)
    assert 2 * (SCREEN_PRIME - 1) ** 2 < 2 ** 53


@pytest.mark.parametrize("p, reciprocal_floor", [(SCREEN_PRIME, 1),
                                                 (33552419, 0)])
def test_screen_is_exact_at_any_prime_below_2_25(p, reciprocal_floor,
                                                 monkeypatch):
    # det [[p-1, p-2], [1, 2]] = p, and the first step forms x = p.  At
    # p = 33552419, p * (1 / p) rounds below 1, so a screen that multiplied
    # by the reciprocal would leave the residue p and pass this matrix
    assert np.floor(np.float64(p) * (1 / p)) == reciprocal_floor
    monkeypatch.setattr(hessian, "SCREEN_PRIME", p)
    calls = counting_rank(monkeypatch)
    mats = np.array([[[p - 1, p - 2], [1, 2]], [[p - 1, p - 1], [1, 2]]])
    assert _nonsingular_mod_p(mats).tolist() == [False, True]
    assert _screened_ranks(mats).tolist() == [2, 2]
    assert calls == [mats[0].tolist()]


@pytest.mark.parametrize("chunk_entries", [1, 64, 2 ** 24])
def test_rank_sampling_does_not_depend_on_the_chunk_size(chunk_entries,
                                                         monkeypatch):
    # iso_2_1_b3 has points of ranks 0 to 2 (rank 0 only at the probes), and
    # some of its matrices fail the screen and reach Bareiss
    spec = load_spec(GOLDEN_INPUTS / "iso_2_1_b3.json")
    h = principal_hessian(check_homogeneity(spec), spec.weights,
                          spec.beta_dprime)
    w, bdd = isotropic_weights(3, 2), MultiIndex([3, 3])

    def sample():
        return (min_rank_sample(h, 300, seed=3),
                min_rank_sample(h, 300, seed=3, include_probes=False),
                generic_rank_trial(w, bdd, tuples=3, points_per_tuple=40,
                                   seed=2))

    calls = counting_rank(monkeypatch)
    want = sample()
    assert calls and sorted(want[0].rank_counts) == [0, 1, 2]
    assert sorted(want[1].rank_counts) == [1, 2]
    monkeypatch.setattr(hessian, "CHUNK_ENTRIES", chunk_entries)
    # the reports compare minimal rank, witness, count and rank histograms
    assert sample() == want


def test_min_rank_sample_deterministic():
    w = isotropic_weights(2, 1)
    s = poly(2, 1, (1, [1, 0], [0], [1, 0]), (1, [0, 1], [0], [0, 1]))
    h = principal_hessian((s,), w, MultiIndex([2]))
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
    assert sum(rep.evaluation_ranks.values()) == 5 * 20
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

