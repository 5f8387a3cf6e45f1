from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anisoradon.errors import (HomogeneityViolation, VanishingPrincipalPart,
                               WeightOrderViolation)
from anisoradon.exponents import (OperatorSpec, check_homogeneity,
                                  classify_pq, decay_laws, genericity_report,
                                  riesz_region, sobolev_smoothing)
from anisoradon.polynomials import Monomial, Polynomial
from anisoradon.scaling import MultiIndex, Weights, isotropic_weights
from oracles import minsum_vertex_regression

F = Fraction


def poly(n_p, n_d, *terms):
    return Polynomial.from_monomials(
        n_p, n_d,
        [Monomial(F(c), tuple(a), tuple(b), tuple(d)) for c, a, b, d in terms])


def make_spec(s_terms, beta_dd=(2,), alpha_dd=(1,)):
    w = Weights(MultiIndex([1]), MultiIndex(alpha_dd), MultiIndex([1]))
    return OperatorSpec(weights=w, beta_dprime=MultiIndex(beta_dd),
                        s=(poly(1, 1, *s_terms),))


# -- homogeneity ------------------------------------------------------------------

def test_check_homogeneity_grading():
    spec = make_spec([(1, [1], [0], [1]), (1, [2], [0], [2])])
    (principal,) = check_homogeneity(spec)
    assert principal == poly(1, 1, (1, [1], [0], [1]))


def test_check_homogeneity_low_degree_rejected():
    spec = make_spec([(1, [0], [0], [1])])
    with pytest.raises(HomogeneityViolation):
        check_homogeneity(spec)


def test_check_homogeneity_weight_order():
    spec = make_spec([(1, [1], [0], [1])], beta_dd=(1,), alpha_dd=(1,))
    with pytest.raises(WeightOrderViolation):
        check_homogeneity(spec)


def test_check_homogeneity_vanishing_principal():
    # every monomial sits strictly above the target degree
    spec = make_spec([(1, [2], [0], [2])])
    with pytest.raises(VanishingPrincipalPart):
        check_homogeneity(spec)


# -- exponent region ---------------------------------------------------------------

def test_riesz_worked_example():
    r = riesz_region(2, 2, 6, 1, 2)
    assert r.hypothesis_holds
    assert r.delta1 == 16 and r.delta2 == 16
    assert r.vertex1 == (F(7, 8), F(5, 8))
    assert r.vertex2 == (F(3, 8), F(1, 8))


def test_riesz_gate():
    r = riesz_region(2, 2, 2, 1, 1)
    assert not r.hypothesis_holds
    assert r.vertex1 is None and r.vertex2 is None


def random_admissible_tuples(rng, count):
    out = []
    while len(out) < count:
        a_p = int(rng.integers(1, 9))
        b_p = int(rng.integers(1, 9))
        n_dd = int(rng.integers(1, 4))
        r = int(rng.integers(1, 7))
        # pick |beta''| large enough for the rank hypothesis
        b_dd = int((a_p + b_p) * n_dd // r + rng.integers(1, 8))
        if F(r, n_dd) > F(a_p + b_p, b_dd) and b_dd >= n_dd:
            out.append((a_p, b_p, b_dd, n_dd, r))
    return out


def test_vertices_satisfy_boundary_identities():
    rng = np.random.default_rng(42)
    for a_p, b_p, b_dd, n_dd, r in random_admissible_tuples(rng, 100):
        region = riesz_region(a_p, b_p, b_dd, n_dd, r)
        assert region.hypothesis_holds
        for v in (region.vertex1, region.vertex2):
            l1, r1 = region.condition1(*v)
            l2, r2 = region.condition2(*v)
            assert l1 == r1 and l2 == r2
        # V1 on or above the duality line, V2 on or below
        assert region.vertex1[0] + region.vertex1[1] >= 1
        assert region.vertex2[0] + region.vertex2[1] <= 1


def test_vertex_swap_symmetry():
    # swapping |alpha'| <-> |beta'| maps V1 to (1 - V2.y, 1 - V2.x)
    rng = np.random.default_rng(7)
    for a_p, b_p, b_dd, n_dd, r in random_admissible_tuples(rng, 20):
        v1 = riesz_region(a_p, b_p, b_dd, n_dd, r).vertex1
        v2s = riesz_region(b_p, a_p, b_dd, n_dd, r).vertex2
        assert v1 == (1 - v2s[1], 1 - v2s[0])


def test_classify_pq_examples():
    region = riesz_region(2, 2, 6, 1, 2)
    assert classify_pq(region, F(1, 2), F(1, 2)) == "strong"
    assert classify_pq(region, F(7, 8), F(5, 8)) == "restricted-weak"
    assert classify_pq(region, F(1), F(0)) == "outside"


def test_classify_pq_single_equality_is_strong():
    region = riesz_region(2, 2, 6, 1, 2)
    # slide off the vertex along the condition-1 boundary
    v1 = region.vertex1
    inv_p = v1[0] - F(1, 100)
    inv_q = (region.beta_sum * inv_p - region.beta_prime_sum) \
        / region.alpha_tilde_sum
    l1, r1 = region.condition1(inv_p, inv_q)
    l2, r2 = region.condition2(inv_p, inv_q)
    assert l1 == r1 and l2 < r2
    assert classify_pq(region, inv_p, inv_q) == "strong"


def test_classify_pq_gate_excludes_boundary():
    region = riesz_region(2, 2, 2, 1, 1)  # hypothesis fails
    # condition-1 equality (here 4/p - 4/q = 2) is excluded from the region
    inv_p, inv_q = F(3, 4), F(1, 4)
    l1, r1 = region.condition1(inv_p, inv_q)
    assert l1 == r1
    assert classify_pq(region, inv_p, inv_q) == "outside"
    # interior points still classify as strong
    assert classify_pq(region, F(1, 2), F(1, 2)) == "strong"


def test_classify_pq_convex_combinations_stay_strong():
    region = riesz_region(2, 2, 6, 1, 2)
    rng = np.random.default_rng(13)
    strong = []
    while len(strong) < 8:
        p = F(int(rng.integers(0, 33)), 32)
        q = F(int(rng.integers(0, 33)), 32)
        if classify_pq(region, p, q) == "strong":
            strong.append((p, q))
    for i in range(len(strong)):
        for j in range(i + 1, len(strong)):
            for lam in (F(1, 3), F(1, 2), F(7, 9)):
                p = lam * strong[i][0] + (1 - lam) * strong[j][0]
                q = lam * strong[i][1] + (1 - lam) * strong[j][1]
                l1, r1 = region.condition1(p, q)
                l2, r2 = region.condition2(p, q)
                if l1 <= r1 and l2 <= r2:
                    assert classify_pq(region, p, q) == "strong"


# -- smoothing ----------------------------------------------------------------------

def test_sobolev_worked_example():
    b = sobolev_smoothing(2, 2, MultiIndex([6]), 2, F(2))
    assert b.s_supremum == F(1, 3)
    assert b.attained and b.binding_constraint == "condition3"


def test_sobolev_near_one_endpoint():
    b = sobolev_smoothing(2, 2, MultiIndex([6]), 2, F(101, 100))
    assert b.binding_constraint == "condition4"
    assert not b.attained
    assert b.s_supremum == 2 * (F(1, 2) - abs(F(1, 2) - F(100, 101)))
    # the supremum collapses to zero as p -> 1+
    tiny = sobolev_smoothing(2, 2, MultiIndex([6]), 2, F(10**9 + 1, 10**9))
    assert 0 < tiny.s_supremum < F(1, 10**8)


def test_sobolev_duality_symmetry():
    for p in (F(3, 2), F(5, 4), F(7, 3)):
        b1 = sobolev_smoothing(3, 3, MultiIndex([5, 7]), 2, p)
        b2 = sobolev_smoothing(3, 3, MultiIndex([5, 7]), 2, p / (p - 1))
        assert b1.s_supremum == b2.s_supremum


def test_sobolev_rejects_bad_p():
    with pytest.raises(ValueError):
        sobolev_smoothing(1, 1, MultiIndex([2]), 1, F(1))


# -- decay laws ----------------------------------------------------------------------
# The region and the smoothing order interpolate the laws of the dyadic pieces
# over (1/p, 1/q); these tests check that the table and the theorem
# statements agree exactly.

UNIT = st.fractions(min_value=0, max_value=1, max_denominator=12)


@st.composite
def law_inputs(draw):
    """|alpha'|, |beta'|, beta'', n'' and r, with no rank hypothesis."""
    n_dd = draw(st.integers(1, 3))
    beta_dd = MultiIndex(draw(st.lists(st.integers(1, 9), min_size=n_dd,
                                       max_size=n_dd)))
    return (draw(st.integers(1, 12)), draw(st.integers(1, 12)), beta_dd,
            n_dd, draw(st.integers(1, 6)))


def plane(points, x, y):
    """The affine function through three ((x, y), value) points, at (x, y)."""
    ((x0, y0), v0), ((x1, y1), v1), ((x2, y2), v2) = points
    det = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
    l1 = F((x - x0) * (y2 - y0) - (x2 - x0) * (y - y0)) / det
    l2 = F((x1 - x0) * (y - y0) - (x - x0) * (y1 - y0)) / det
    return v0 + l1 * (v1 - v0) + l2 * (v2 - v0)


def j_plane(laws, x, y):
    """The TjQj j-laws, 11 at (1,1), oooo at (0,0), 1oo at (1,0)."""
    return plane([((1, 1), laws["TjQj", "11", "j"].slope),
                  ((0, 0), laws["TjQj", "oooo", "j"].slope),
                  ((1, 0), laws["TjQj", "1oo", "j"].slope)], x, y)


def k_plane(laws, x, y):
    """The TjPjk k-laws, 22 at (1/2,1/2) and 1oo at (1,0), with the half
    of the square through (1,1) or (0,0), where 11 and oooo do not change
    with k: their k-slope is 0, a law the CSV does not print."""
    corner = (1, 1) if x + y >= 1 else (0, 0)
    return plane([((F(1, 2), F(1, 2)), laws["TjPjk", "22", "k"].slope),
                  ((1, 0), laws["TjPjk", "1oo", "k"].slope),
                  (corner, F(0))], x, y)


@settings(max_examples=200, deadline=None)
@given(law_inputs(), UNIT, UNIT)
def test_j_laws_interpolate_to_condition1(inputs, x, y):
    a_p, b_p, beta_dd, n_dd, r = inputs
    laws, _ = decay_laws(a_p, b_p, beta_dd.order, n_dd, r)
    lhs, rhs = riesz_region(a_p, b_p, beta_dd.order, n_dd, r).condition1(x, y)
    assert j_plane(laws, x, y) == lhs - rhs


@settings(max_examples=200, deadline=None)
@given(law_inputs(), UNIT, UNIT)
def test_k_laws_interpolate_to_condition2(inputs, x, y):
    a_p, b_p, beta_dd, n_dd, r = inputs
    laws, _ = decay_laws(a_p, b_p, beta_dd.order, n_dd, r)
    lhs, rhs = riesz_region(a_p, b_p, beta_dd.order, n_dd, r).condition2(x, y)
    assert k_plane(laws, x, y) == F(r, 2) * (lhs - rhs)


@settings(max_examples=200, deadline=None)
@given(law_inputs(), UNIT, UNIT)
def test_knapp_line_is_condition1(inputs, x, y):
    # E has sides 2^(beta t) and F sides 2^(alpha~ t); <chi_F, T chi_E>
    # ~ 2^(t K) is at most |E|^(1/p) |F|^(1-1/q) as t -> -oo iff the line
    # below is <= 0
    a_p, b_p, beta_dd, n_dd, r = inputs
    _, knapp = decay_laws(a_p, b_p, beta_dd.order, n_dd, r)
    beta, alpha_tilde = b_p + beta_dd.order, a_p + beta_dd.order
    lhs, rhs = riesz_region(a_p, b_p, beta_dd.order, n_dd, r).condition1(x, y)
    assert beta * x + alpha_tilde * (1 - y) - knapp == lhs - rhs


@settings(max_examples=200, deadline=None)
@given(law_inputs(), UNIT.filter(lambda t: 0 < t < 1))
def test_sobolev_order_is_the_laws_on_the_diagonal(inputs, t):
    a_p, b_p, beta_dd, n_dd, r = inputs
    laws, _ = decay_laws(a_p, b_p, beta_dd.order, n_dd, r)
    s_j = -j_plane(laws, t, t) / max(beta_dd)
    s_k = -k_plane(laws, t, t)
    bound = sobolev_smoothing(a_p, b_p, beta_dd, r, 1 / t)
    assert bound.s_supremum == min(s_j, s_k)
    assert bound.attained == (s_j < s_k)


# -- genericity ---------------------------------------------------------------------

def test_genericity_isotropic():
    rep = genericity_report(isotropic_weights(6, 1))
    assert rep.k1 == 1 and rep.k2 == 1
    assert rep.density_lower_bound == 1
    assert rep.admissible(MultiIndex([17]))
    assert rep.threshold() == pytest.approx(6 - np.sqrt(14), abs=1e-12)
    lo, hi = rep.threshold_interval()
    assert lo <= rep.threshold() <= hi
    assert rep.threshold_exceeds(2) and not rep.threshold_exceeds(3)


def test_genericity_worked_example():
    w = Weights(MultiIndex([1, 2]), MultiIndex([2]), MultiIndex([1, 3]))
    rep = genericity_report(w)
    assert rep.k1 == 6
    assert rep.lambda_set == frozenset({2, 3, 4, 5})
    assert rep.k2 == 4
    assert rep.density_lower_bound == F(1, 6)
    assert rep.admissible(MultiIndex([8, 9]))   # 8 % 6 = 2, 9 % 6 = 3
    assert not rep.admissible(MultiIndex([7]))  # 7 % 6 = 1 not in the set


def test_threshold_monotone_in_codimension():
    values = [genericity_report(isotropic_weights(8, n)).threshold()
              for n in range(1, 8)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_threshold_monotone_in_k2():
    # larger K2 shrinks the threshold, all else fixed
    w1 = isotropic_weights(6, 1)                       # K2 = 1
    w2 = Weights(MultiIndex([1, 2, 1, 2, 1, 2]), MultiIndex([1]),
                 MultiIndex([1, 1, 1, 1, 1, 1]))       # sums {2,3} mod 2 -> K2=2
    r1, r2 = genericity_report(w1), genericity_report(w2)
    assert r2.k2 > r1.k2
    assert r2.threshold() <= r1.threshold()


def test_density_counting_bound():
    # empirical admissible fraction in [1, N]^{n''} vs K1^{-n''} - 2 n''/N
    w = Weights(MultiIndex([1, 2]), MultiIndex([2]), MultiIndex([1, 3]))
    rep = genericity_report(w)
    n = 10 * rep.k1
    count = sum(1 for b in range(1, n + 1)
                if rep.admissible(MultiIndex([b])))
    assert F(count, n) >= rep.density_lower_bound - F(2, n)


def test_minsum_regression_reproduces_vertices():
    a, b = minsum_vertex_regression(2, 2, 6, 1, 2, vertex=1)
    assert abs(a - 7 / 8) < 0.02
    assert abs(b - (1 - 5 / 8)) < 0.02
    a2, b2 = minsum_vertex_regression(2, 2, 6, 1, 2, vertex=2)
    assert abs(a2 - 3 / 8) < 0.02
    assert abs(b2 - (1 - 1 / 8)) < 0.02
