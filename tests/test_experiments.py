import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from anisoradon.errors import (DilationCapError, ResolutionError,
                               SingularMapError)
from anisoradon.exponents import OperatorSpec
from anisoradon.numerics import (Grid, decay_slope, decay_table,
                                 dual_principal_check, fit_decay_rows,
                                 knapp_exponent_table, knapp_integral,
                                 p_shell_resolved, q_resolved)
from anisoradon.polynomials import Monomial, Polynomial
from anisoradon.scaling import MultiIndex, isotropic_weights
from anisoradon.specfile import load_spec
from fractions import Fraction
from oracles import dense_multiplier

SPECS = Path(__file__).resolve().parent.parent / "specs"
REFERENCE = load_spec(SPECS / "reference.json")


def test_decay_slope_exact_line():
    fit = decay_slope([(j, 2.0 ** -j) for j in range(6)])
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)
    assert fit.max_residual < 1e-12


def test_decay_slope_intercept_absorbs_constant():
    fit = decay_slope([(j, 7.3 * 2.0 ** (-2 * j)) for j in range(1, 6)])
    assert fit.slope == pytest.approx(-2.0, abs=1e-12)


def test_decay_slope_harmonic_values():
    # closed-form least squares on log2(1, 1/2, 1/3): the centered cross sum
    # is y(2) - y(0) = -log2(3) over a squared spread of 2
    fit = decay_slope([(0, 1.0), (1, 0.5), (2, 1.0 / 3.0)])
    assert fit.slope == pytest.approx(-math.log2(3) / 2, abs=1e-12)
    assert fit.slope == pytest.approx(-0.7925, abs=1e-4)


def test_decay_slope_input_validation():
    with pytest.raises(ValueError):
        decay_slope([(0, 1.0), (1, 0.5)])
    with pytest.raises(ValueError):
        decay_slope([(0, 1.0), (1, 0.0), (2, 0.5)])


def test_resolution_flags():
    grid = Grid(dim=2, points_per_axis=256, half_width=2.0)
    bdd = MultiIndex([2])
    assert q_resolved(grid, bdd, 3)
    assert not q_resolved(grid, bdd, 4)
    assert p_shell_resolved(grid, bdd, 1, 4)
    assert not p_shell_resolved(grid, bdd, 1, 6)
    # no power of two is formed, so a level far past the double range
    # neither overflows nor warns; a support radius equal to the largest
    # frequency still fits
    grid = Grid(dim=2, points_per_axis=8, half_width=math.pi / 2)
    assert grid.max_frequency == 8.0
    one, two = MultiIndex([1]), MultiIndex([2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert q_resolved(grid, one, 3) and not q_resolved(grid, one, 4)
        assert p_shell_resolved(grid, one, 1, 1)
        assert not p_shell_resolved(grid, one, 1, 2)
        assert not q_resolved(grid, two, 600)
        assert not p_shell_resolved(grid, two, 600, 0)


def test_knapp_successive_ratio():
    spec = REFERENCE
    rows = knapp_exponent_table(spec, t_min=-6, t_max=-4)
    for row in rows:
        assert row["implied_exponent"] == pytest.approx(4.0, abs=0.15 * 4)


def test_knapp_epsilon_monotone():
    spec = REFERENCE
    values = [knapp_integral(spec, -4, epsilon_box=e)
              for e in (0.3, 0.5, 0.8)]
    assert values[0] <= values[1] <= values[2]


def test_knapp_quadrature_vs_finer():
    spec = REFERENCE
    coarse = knapp_integral(spec, -5, nodes_per_axis=16)
    fine = knapp_integral(spec, -5, nodes_per_axis=160)
    assert coarse == pytest.approx(fine, rel=0.1)


def test_knapp_underflow_guard():
    spec = REFERENCE
    with pytest.raises(ResolutionError):
        knapp_integral(spec, -30)
    with pytest.raises(ValueError):
        knapp_integral(spec, -0.5)


def test_knapp_flat_shear_scales_exactly():
    # S with alpha~ = beta scaling: a single quadratic monomial keeps the
    # integrand's box inclusion exact, so successive ratios hit the predicted
    # exponent on the nose for plateau-deep t
    spec = REFERENCE
    v5 = knapp_integral(spec, -5)
    v6 = knapp_integral(spec, -6)
    assert v6 / v5 == pytest.approx(2.0 ** -4, rel=1e-6)


def test_dual_check_shift_invariant_case_exact():
    spec = load_spec(SPECS / "rank_one.json")
    devs = dual_principal_check(spec, (0, 2, 5), 30)
    assert list(devs) == [0, 2, 5]
    assert max(devs.values()) <= 1e-12


def test_dual_check_contraction():
    spec = load_spec(SPECS / "dual_quadratic.json")
    devs = dual_principal_check(spec, range(4, 9), 40)
    for j in range(4, 8):
        assert devs[j + 1] / devs[j] <= 0.75
    assert devs[8] < devs[4]


def test_dual_check_refuses_levels_past_the_dilation_cap():
    # beta'' = 2 is the largest weight of the reference spec: 2^(450 * 2)
    # is the last rescaling inside the cap
    assert dual_principal_check(REFERENCE, [450], 2) == {450: 0.0}
    for levels in ([451], range(1, 1101), [-451]):
        with pytest.raises(DilationCapError, match="exceeds the dilation cap"):
            dual_principal_check(REFERENCE, levels, 2)


def test_dual_check_singular_map():
    # a violent x''-fold: x'' + 1000 x''^2 y' folds over inside the sample
    # box at scale 0, so some targets have no preimage and Newton must fail
    w = isotropic_weights(1, 1)
    s = Polynomial.from_monomials(1, 1, [
        Monomial(Fraction(1), (1,), (0,), (1,)),
        Monomial(Fraction(1000), (0,), (2,), (1,))])
    spec = OperatorSpec(weights=w, beta_dprime=MultiIndex([2]), s=(s,))
    with pytest.raises(SingularMapError):
        dual_principal_check(spec, [0], 30)


def test_summation_by_parts_small_grid_matrices():
    # dense matrix identity on a small grid:
    # sum_{j<=N} T_j Q_j = U_0 Q_0 - U_{N+1} Q_N + sum U_j (Q_j - Q_{j-1})
    from anisoradon.numerics import (discretize_tj, discretize_uj,
                                     qj_multiplier)
    spec = REFERENCE
    grid = Grid(dim=2, points_per_axis=32, half_width=2.0)
    n_terms = 2
    qs = [dense_multiplier(qj_multiplier(grid, 1, spec.beta_dprime, j))
          for j in range(n_terms + 1)]
    lhs = np.zeros((grid.size, grid.size))
    for j in range(n_terms + 1):
        lhs += discretize_tj(spec, grid, j).matrix @ qs[j]
    rhs = discretize_uj(spec, grid, 0).matrix @ qs[0] \
        - discretize_uj(spec, grid, n_terms + 1).matrix @ qs[n_terms]
    for j in range(1, n_terms + 1):
        rhs += discretize_uj(spec, grid, j).matrix @ (qs[j] - qs[j - 1])
    assert np.abs(lhs - rhs).max() < 1e-10


def test_decay_table_rows_and_fits():
    spec = REFERENCE
    grid = Grid(dim=2, points_per_axis=64, half_width=2.0)
    rows = decay_table(spec, grid, jmax=3, kmax=1, pairs=("11", "oooo"))
    families = {r.family for r in rows}
    assert families == {"TjQj", "TjPjk"}
    # kmax = -1 gives no TjPjk rows
    q_rows = decay_table(spec, grid, jmax=3, kmax=-1, pairs=("11", "oooo"))
    assert q_rows == [r for r in rows if r.family == "TjQj"]
    fit = fit_decay_rows(rows, "TjQj", "11")
    assert fit.slope < 0  # decay, even on a coarse grid
    with pytest.raises(ValueError):
        fit_decay_rows(rows, "TjQj", "11", over="k")


def test_decay_table_takes_one_statistics_pass_per_composite(monkeypatch):
    # 3 slabs x (TjQj + TjPj0 + TjPj1) = 9 composites, 3 absolute norms each:
    # the closed form at n'' = 1, the kernel product at n'' = 2
    from anisoradon.numerics import operators
    passes = []
    for path in ("_InterpolationSums", "_ProductSums"):
        def counted(acc, mult, path=path,
                    original=getattr(operators, path).__init__):
            passes.append((path, mult))
            original(acc, mult)

        monkeypatch.setattr(getattr(operators, path), "__init__", counted)
    shear = load_spec(Path(__file__).resolve().parent / "golden" / "inputs"
                      / "shear_1_2.json")
    for spec, grid, path in (
            (REFERENCE, Grid(dim=2, points_per_axis=32, half_width=2.0),
             "_InterpolationSums"),
            (shear, Grid(dim=3, points_per_axis=8), "_ProductSums")):
        passes.clear()
        rows = decay_table(spec, grid, jmax=3, kmax=1,
                           pairs=("11", "oooo", "1oo"))
        assert len(rows) == 27
        assert {p for p, _ in passes} == {path}
        assert len(passes) == 9 == len(set(id(m) for _, m in passes))


def test_decay_table_builds_a_slab_matrix_only_for_the_two_norm(monkeypatch):
    # at n'' = 1 every slab streams in chunks, at n'' = 2 it is built whole,
    # with or without the (2,2) norm; at every n'' no slab matrix is built,
    # and only the (2,2) norm writes the CSR of a slab's transpose, one per
    # slab.  The statistics of all the multipliers of a slab share one
    # pass, yet no two dense y''-kernels are alive at once
    import weakref
    from anisoradon.numerics import operators
    wholes, csrs, matrices, kernels, alive = [], [], [], [], []
    whole = operators.SlabMesh.whole
    monkeypatch.setattr(operators.SlabMesh, "whole",
                        lambda mesh: wholes.append(mesh) or whole(mesh))
    init = operators._TransposeRows.__init__
    monkeypatch.setattr(operators._TransposeRows, "__init__",
                        lambda csr, *args: csrs.append(csr)
                        or init(csr, *args))
    matrix = operators.SparseKernelOperator.matrix
    monkeypatch.setattr(operators.SparseKernelOperator, "matrix", property(
        lambda op: matrices.append(op) or matrix.func(op)))
    kernel_matrix = operators.FourierMultiplier.ydd_kernel_matrix

    def tracked(mult):
        alive.append(sum(ref() is not None for ref in kernels))
        kernel = kernel_matrix(mult)
        kernels.append(weakref.ref(kernel))
        return kernel

    monkeypatch.setattr(operators.FourierMultiplier, "ydd_kernel_matrix",
                        tracked)
    shear = load_spec(Path(__file__).resolve().parent / "golden" / "inputs"
                      / "shear_1_2.json")
    for spec, grid, kmax, whole_slabs in (
            (REFERENCE, Grid(dim=2, points_per_axis=32, half_width=2.0), -1,
             0),
            (shear, Grid(dim=3, points_per_axis=8), 1, 3)):
        for pairs, slab_csrs in ((("11", "oooo", "1oo"), 0),
                                 (("11", "oooo", "1oo", "22"), 3)):
            for made in (wholes, csrs, matrices):
                made.clear()
            decay_table(spec, grid, jmax=3, kmax=kmax, pairs=pairs)
            assert len(wholes) == whole_slabs and matrices == []
            assert len(csrs) == slab_csrs
    # 3 slabs x (Q_j, P_j0, P_j1), twice, at n'' = 2
    assert len(kernels) == 18 and alive == [0] * 18


def test_decay_table_flags_unconverged_rows(monkeypatch):
    from anisoradon.numerics import norms
    monkeypatch.setattr(norms, "_MAX_PRODUCTS", 3)
    grid = Grid(dim=2, points_per_axis=32, half_width=2.0)
    rows = decay_table(REFERENCE, grid, jmax=2, pairs=("11", "22"))
    assert [r.converged for r in rows] == [True, False] * 2
    assert all(r.value > 0 for r in rows)


def test_l2_norm_converges_on_a_clustered_top_spectrum(monkeypatch):
    # the top two singular values of T_1 P_14 of rank_one at grid 128 nearly
    # coincide; a restart that keeps only the top Ritz vector stops at the
    # product cap there with a value 3e-11 low
    from scipy.sparse.linalg import LinearOperator, eigsh
    from anisoradon.numerics.operators import ComposedOperator
    calls = []
    apply = ComposedOperator.apply

    def counted(op, v):
        calls.append(op)
        return apply(op, v)

    monkeypatch.setattr(ComposedOperator, "apply", counted)
    grid = Grid(dim=2, points_per_axis=128)
    rows = decay_table(load_spec(SPECS / "rank_one.json"), grid, jmax=2,
                       kmax=5, pairs=("22",))
    ops = list({id(op): op for op in calls}.values())  # one per row, in order
    products = [sum(c is op for c in calls) for op in ops]
    assert len(ops) == len(rows)
    assert all(r.converged for r in rows)
    assert max(products) <= 150
    (i,) = [i for i, r in enumerate(rows) if (r.j, r.k) == (1, 4)]
    op, n = ops[i], grid.size
    ata = LinearOperator((n, n), dtype=float,
                         matvec=lambda v: op.apply_transpose(apply(op, v)))
    v0 = np.random.default_rng(0).standard_normal(n)
    top = eigsh(ata, k=1, which="LA", v0=v0,
                return_eigenvectors=False)[0]
    assert math.isclose(rows[i].value, math.sqrt(top), rel_tol=1e-12)
