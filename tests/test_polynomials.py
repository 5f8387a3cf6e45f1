from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anisoradon.errors import DegenerateSpace
from anisoradon.hessian import generic_rank_trial
from anisoradon.polynomials import (Monomial, Polynomial, is_quasihomogeneous,
                                    lambda_basis, quasidegree_decompose)
from anisoradon.scaling import MultiIndex, Weights, isotropic_weights
from oracles import lambda_basis_oracle

W11 = isotropic_weights(1, 1)


def poly(n_p, n_d, *terms):
    return Polynomial.from_monomials(
        n_p, n_d,
        [Monomial(Fraction(c), tuple(a), tuple(b), tuple(d))
         for c, a, b, d in terms])


def random_poly(rng, n_p, n_d, max_terms=6, max_exp=3):
    terms = []
    for _ in range(rng.integers(1, max_terms + 1)):
        coeff = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5)))
        if coeff == 0:
            coeff = Fraction(1)
        terms.append(Monomial(coeff,
                              tuple(int(v) for v in rng.integers(0, max_exp, n_p)),
                              tuple(int(v) for v in rng.integers(0, max_exp, n_d)),
                              tuple(int(v) for v in rng.integers(0, max_exp, n_p))))
    return Polynomial.from_monomials(n_p, n_d, terms)


def random_weights(rng, n_p, n_d):
    return Weights(MultiIndex(rng.integers(1, 4, size=n_p)),
                   MultiIndex(rng.integers(1, 4, size=n_d)),
                   MultiIndex(rng.integers(1, 4, size=n_p)))


# -- decomposition -------------------------------------------------------------

def test_decompose_two_buckets():
    p = poly(1, 1, (1, [1], [0], [1]), (1, [2], [0], [2]))
    d = quasidegree_decompose(p, W11)
    assert sorted(d) == [2, 4]
    assert d[2] == poly(1, 1, (1, [1], [0], [1]))
    assert d[4] == poly(1, 1, (1, [2], [0], [2]))


def test_decompose_mixed_blocks():
    p = poly(1, 1, (1, [0], [1], [0]), (1, [1], [0], [1]))
    d = quasidegree_decompose(p, W11)
    assert sorted(d) == [1, 2]
    assert d[1] == poly(1, 1, (1, [0], [1], [0]))


def test_decompose_zero():
    assert quasidegree_decompose(Polynomial(1, 1), W11) == {}


def test_decompose_reconstruction_random():
    rng = np.random.default_rng(2)
    for _ in range(40):
        n_p, n_d = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        p = random_poly(rng, n_p, n_d)
        w = random_weights(rng, n_p, n_d)
        d = quasidegree_decompose(p, w)
        # the parts split the monomials of p: disjoint, and together all
        monos = [m for part in d.values() for m in part.monomials()]
        assert len({m.exponents for m in monos}) == len(monos)
        assert set(monos) == set(p.monomials())
        for deg, part in d.items():
            assert is_quasihomogeneous(part, w, deg)


def test_bucket_scaling_law_random():
    # composing a bucket with the weight dilation multiplies it by 2**(j*l)
    rng = np.random.default_rng(3)
    for _ in range(20):
        n_p, n_d = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        p = random_poly(rng, n_p, n_d)
        w = random_weights(rng, n_p, n_d)
        point = [[Fraction(int(v), 3) for v in rng.integers(-4, 5, size=k)]
                 for k in (n_p, n_d, n_p)]
        blocks = (w.alpha_prime, w.alpha_dprime, w.beta_prime)
        for deg, part in quasidegree_decompose(p, w).items():
            base = part.evaluate(*point)
            for j in range(-2, 3):
                dilated = [[v * Fraction(2) ** (j * g) for v, g in zip(b, gs)]
                           for b, gs in zip(point, blocks)]
                assert part.evaluate(*dilated) == Fraction(2) ** (j * deg) \
                    * base


# -- weighted monomial basis -----------------------------------------------------

def test_lambda_basis_degree_two():
    basis = lambda_basis(W11, 2)
    got = {(m.exp_x, m.exp_xx, m.exp_y) for m in basis}
    assert got == {((2,), (0,), (0,)), ((1,), (1,), (0,)), ((1,), (0,), (1,)),
                   ((0,), (2,), (0,)), ((0,), (1,), (1,)), ((0,), (0,), (2,))}
    assert len(basis) == 6
    assert all(m.coeff == 1 for m in basis)


def test_lambda_basis_degree_zero_and_one():
    assert [(m.exp_x, m.exp_xx, m.exp_y) for m in lambda_basis(W11, 0)] \
        == [((0,), (0,), (0,))]
    assert len(lambda_basis(W11, 1)) == 3


def test_lambda_basis_concentrated_at_target():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n_p, n_d = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        w = random_weights(rng, n_p, n_d)
        target = int(rng.integers(0, 7))
        for m in lambda_basis(w, target):
            p = Polynomial.from_monomials(n_p, n_d, [m])
            assert list(quasidegree_decompose(p, w)) == [target]


def test_lambda_basis_deterministic_order():
    w = Weights(MultiIndex([1, 2]), MultiIndex([2]), MultiIndex([1, 3]))
    b1 = lambda_basis(w, 5)
    b2 = lambda_basis(w, 5)
    assert [(m.exp_x, m.exp_xx, m.exp_y) for m in b1] \
        == [(m.exp_x, m.exp_xx, m.exp_y) for m in b2]
    degs = [sum(m.exp_x + m.exp_xx + m.exp_y) for m in b1]
    assert degs == sorted(degs)  # graded order


@st.composite
def basis_weights(draw):
    """Weights 1-4 with n' <= 3 and n'' <= 2."""
    n_p, n_d = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    alpha_p, alpha_d, beta_p = (
        draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
        for n in (n_p, n_d, n_p))
    return Weights(MultiIndex(alpha_p), MultiIndex(alpha_d),
                   MultiIndex(beta_p))


@settings(max_examples=200, deadline=None)
@given(basis_weights(), st.integers(0, 8))
# all weights 2 and an odd degree: no monomial reaches it
@example(Weights(MultiIndex([2, 2]), MultiIndex([2]), MultiIndex([2, 2])), 7)
# the largest basis of the range: 6435 monomials
@example(isotropic_weights(3, 2), 8)
def test_lambda_basis_matches_the_recursive_enumeration(w, degree):
    basis = lambda_basis(w, degree)
    assert [m.exp_x + m.exp_xx + m.exp_y for m in basis] \
        == lambda_basis_oracle(w.flat, degree)
    n_p, n_d = w.n_prime, w.n_dprime
    for m in basis:
        assert (len(m.exp_x), len(m.exp_xx), len(m.exp_y)) == (n_p, n_d, n_p)
        assert m.coeff == 1
        assert all(type(e) is int for e in m.exp_x + m.exp_xx + m.exp_y)
    if not basis:
        with pytest.raises(DegenerateSpace):
            generic_rank_trial(w, MultiIndex([degree] * n_d), tuples=1,
                               points_per_tuple=1, seed=0)


# -- calculus ---------------------------------------------------------------------

def test_partial_derivative_examples():
    p = poly(1, 1, (1, [2], [0], [1]))
    assert p.partial_derivative("x", 0) == poly(1, 1, (2, [1], [0], [1]))
    q = poly(1, 1, (1, [0], [1], [0]))
    assert q.partial_derivative("y", 0).is_zero()
    r = poly(1, 1, (1, [1], [0], [1]), (1, [0], [0], [3]))
    second = r.partial_derivative("x", 0).partial_derivative("y", 0)
    assert second == poly(1, 1, (1, [0], [0], [0]))


def test_partial_derivative_lowers_quasidegree():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n_p, n_d = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        w = random_weights(rng, n_p, n_d)
        target = int(rng.integers(2, 7))
        basis = lambda_basis(w, target)
        if not basis:
            continue
        p = Polynomial.from_monomials(n_p, n_d, basis[:3])
        for block, idx, wt in (("x", 0, w.alpha_prime[0]),
                               ("xx", 0, w.alpha_dprime[0]),
                               ("y", 0, w.beta_prime[0])):
            d = p.partial_derivative(block, idx)
            if not d.is_zero():
                assert is_quasihomogeneous(d, w, target - wt)


def test_evaluate_examples():
    p = poly(1, 1, (1, [1], [0], [1]), (1, [2], [0], [2]))
    assert p.evaluate([2], [0], [3]) == 42
    q = poly(1, 1, (5, [0], [0], [0]), (1, [1], [0], [1]))
    assert q.evaluate([0], [0], [0]) == 5
    r = poly(1, 1, (1, [1], [0], [1]))
    assert r.evaluate([Fraction(1, 3)], [0], [Fraction(3, 5)]) == Fraction(1, 5)


def test_evaluate_dimension_mismatch():
    with pytest.raises(ValueError):
        poly(1, 1, (1, [1], [0], [0])).evaluate([1, 2], [0], [0])


def test_ring_ops_and_order():
    # canonical order: graded-lex on (total degree, exp_x, exp_xx, exp_y)
    c = poly(1, 1, (1, [0], [0], [2]), (1, [1], [0], [0]), (2, [0], [1], [1]))
    assert [m.exponents for m in c.monomials()] == [
        ((1,), (0,), (0,)), ((0,), (0,), (2,)), ((0,), (1,), (1,))]


# -- properties against sympy --------------------------------------------------

FRACTIONS = st.fractions(min_value=-3, max_value=3, max_denominator=7)


@st.composite
def polys_and_points(draw, batch: int = 1):
    """A random polynomial with n', n'' <= 2 and `batch` rational points,
    each a flat coordinate list in the order (x', x'', y')."""
    n_p, n_d = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    nvars = 2 * n_p + n_d
    terms = draw(st.lists(
        st.tuples(FRACTIONS, st.lists(st.integers(0, 3), min_size=nvars,
                                      max_size=nvars)), max_size=5))
    p = Polynomial.from_monomials(n_p, n_d, [
        Monomial(c, tuple(e[:n_p]), tuple(e[n_p:n_p + n_d]),
                 tuple(e[n_p + n_d:])) for c, e in terms])
    points = draw(st.lists(st.lists(FRACTIONS, min_size=nvars,
                                    max_size=nvars),
                           min_size=batch, max_size=batch))
    return p, points


def _sympy_expr(p: Polynomial, gens):
    return sum((sympy.Rational(m.coeff.numerator, m.coeff.denominator)
                * sympy.Mul(*(g ** e for g, e in
                              zip(gens, m.exp_x + m.exp_xx + m.exp_y)))
                for m in p.monomials()), sympy.Integer(0))


def _gens(p: Polynomial):
    return sympy.symbols(f"x:{p.n_prime} X:{p.n_dprime} y:{p.n_prime}")


def _split(p: Polynomial, flat):
    n_p, n_d = p.n_prime, p.n_dprime
    return flat[:n_p], flat[n_p:n_p + n_d], flat[n_p + n_d:]


@settings(max_examples=80, deadline=None)
@given(polys_and_points())
def test_exact_evaluate_matches_sympy(case):
    p, (point,) = case
    gens = _gens(p)
    want = _sympy_expr(p, gens).subs(
        {g: sympy.Rational(v.numerator, v.denominator)
         for g, v in zip(gens, point)})
    got = p.evaluate(*_split(p, point))
    assert isinstance(got, Fraction)
    assert got == Fraction(int(want.p), int(want.q))


@settings(max_examples=80, deadline=None)
@given(polys_and_points())
def test_partial_derivative_matches_sympy_diff(case):
    p, _ = case
    gens = _gens(p)
    expr = _sympy_expr(p, gens)
    blocks = ([("x", i) for i in range(p.n_prime)]
              + [("xx", i) for i in range(p.n_dprime)]
              + [("y", i) for i in range(p.n_prime)])
    for (block, i), g in zip(blocks, gens):
        got = _sympy_expr(p.partial_derivative(block, i), gens)
        assert sympy.expand(got - sympy.diff(expr, g)) == 0


@settings(max_examples=80, deadline=None)
@given(polys_and_points(batch=5))
def test_float_evaluate_over_a_batch_matches_exact(case):
    # the float path over arrays of points agrees with the exact value at
    # each point, to 1e-12 of the sum of the absolute terms there (the
    # scale of its rounding error, also when the terms cancel)
    p, points = case
    columns = [np.array([float(pt[c]) for pt in points])
               for c in range(len(points[0]))]
    got = p.evaluate(*_split(p, columns))
    assert got.shape == (len(points),)
    size = Polynomial(p.n_prime, p.n_dprime,
                      {m.exponents: abs(m.coeff) for m in p.monomials()})
    for value, point in zip(got, points):
        exact = p.evaluate(*_split(p, point))
        scale = size.evaluate(*_split(p, [abs(v) for v in point]))
        assert abs(value - float(exact)) <= 1e-12 * float(scale)


def test_float_evaluate_broadcasts_to_the_full_shape():
    # a monomial that skips a coordinate, and a constant, still fill the
    # broadcast shape of all coordinates
    p = poly(1, 1, (3, [0], [0], [0]), (Fraction(1, 2), [1], [0], [0]))
    x, xx, y = np.arange(3.0).reshape(3, 1, 1), np.ones((1, 4, 1)), 2.0
    got = p.evaluate([x], [xx], [np.full((1, 1, 5), y)])
    assert got.shape == (3, 4, 5)
    assert np.array_equal(got, np.broadcast_to(3.0 + 0.5 * x, (3, 4, 5)))
    assert p.evaluate([0.5], [1.0], [2.0]).shape == ()
