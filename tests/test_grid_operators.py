import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from anisoradon.errors import DilationCapError
from anisoradon.exponents import OperatorSpec
from anisoradon.numerics import (ComposedOperator, FourierMultiplier, Grid,
                                 SparseKernelOperator, decay_table,
                                 discretize_tj, discretize_uj, operator_norm,
                                 pjk_multiplier, qj_multiplier)
from anisoradon.numerics import operators
from anisoradon.numerics.cutoffs import phi0
from anisoradon.polynomials import Monomial, Polynomial
from anisoradon.scaling import MultiIndex, isotropic_weights
from anisoradon.specfile import load_spec
from oracles import dense_abs_stats, dense_multiplier

SPEC = load_spec(Path(__file__).resolve().parent.parent / "specs"
                 / "reference.json")
SMALL = Grid(dim=2, points_per_axis=32, half_width=2.0)


def _two_dprime_spec() -> OperatorSpec:
    """n' = 1, n'' = 2: S = (x' y', y'^2), beta'' = (2, 2)."""
    def mono(ex, ey):
        return Polynomial.from_monomials(
            1, 2, [Monomial(Fraction(1), (ex,), (0, 0), (ey,))])
    return OperatorSpec(weights=isotropic_weights(1, 2),
                        beta_dprime=MultiIndex([2, 2]),
                        s=(mono(1, 1), mono(0, 2)), psi_radius=0.5)


def _pass_operator(slab: SparseKernelOperator, mult: FourierMultiplier):
    """The slab as the statistics pass returns it for the (2,2) norm."""
    return operators.absolute_stats([slab], [mult], slab.cols.size)[2]


def _ones(grid: Grid) -> FourierMultiplier:
    """The identity, as a y''-multiplier of rank n'' = 1."""
    return FourierMultiplier(grid, np.ones(grid.points_per_axis))


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(dim=2, points_per_axis=12)
    with pytest.raises(ValueError):
        Grid(dim=2, points_per_axis=4)
    # the cell volume spacing**dim must be a positive finite float
    for half_width in (0.0, -1.0, math.inf, math.nan, 1e-300, 1e200):
        with pytest.raises(ValueError, match="half_width"):
            Grid(dim=2, points_per_axis=16, half_width=half_width)
    g = Grid(dim=2, points_per_axis=16, half_width=1.0)
    assert g.spacing == pytest.approx(0.125)
    assert g.size == 256
    assert g.max_frequency == pytest.approx(np.pi * 8)


def test_tj_zero_beyond_support():
    # once the whole outer shell box falls inside the first half-cell there
    # are no nodes left and the slab operator vanishes
    op = discretize_tj(SPEC, SMALL, 9)
    assert op.matrix.nnz == 0


def test_tj_dilation_cap():
    with pytest.raises(DilationCapError):
        discretize_tj(SPEC, SMALL, 10 ** 6)


def test_tj_row_sums_match_direct_quadrature():
    # row sums of |T_0| equal the midpoint quadrature of int |psi_0| dy'
    grid = Grid(dim=2, points_per_axis=64, half_width=2.0)
    op = discretize_tj(SPEC, grid, 0)
    rows = np.asarray(abs(op.matrix).sum(axis=1)).ravel()
    nodes = grid.nodes()
    h = grid.spacing
    rho = SPEC.psi_radius
    n = grid.points_per_axis

    def psi_j0(xp, xdd, yp):
        base = phi0(xp / rho) * phi0(xdd / rho) * phi0(yp / rho)
        outer = phi0(xp / (2 * rho)) * phi0(xdd / (2 * rho)) \
            * phi0(yp / (2 * rho))
        inner = phi0(2 * xp / (2 * rho)) * phi0(2 * xdd / (2 * rho)) \
            * phi0(2 * yp / (2 * rho))
        return base * (outer - inner)

    rng = np.random.default_rng(3)
    for _ in range(20):
        ix, ixx = int(rng.integers(0, n)), int(rng.integers(0, n))
        direct = h * sum(abs(psi_j0(nodes[ix], nodes[ixx], y))
                         for y in nodes)
        assert rows[ix * n + ixx] == pytest.approx(direct, abs=1e-10)


def test_tj_constant_input_equals_cutoff_integral():
    grid = Grid(dim=2, points_per_axis=64, half_width=2.0)
    op = discretize_tj(SPEC, grid, 1)
    ones = np.ones(grid.size)
    applied = _pass_operator(op, _ones(grid)).apply(ones)
    rows = np.asarray(op.matrix.sum(axis=1)).ravel()
    assert np.allclose(applied, rows, atol=1e-12)


def test_uj_telescoping_matches_tj():
    # U_j - U_{j+1} = T_j entrywise up to roundoff
    for j in (0, 1, 2):
        tj = discretize_tj(SPEC, SMALL, j)
        uj = discretize_uj(SPEC, SMALL, j)
        uj1 = discretize_uj(SPEC, SMALL, j + 1)
        diff = (uj.matrix - uj1.matrix) - tj.matrix
        if diff.nnz:
            assert np.abs(diff.data).max() < 1e-12


def test_adjoint_consistency():
    grid = Grid(dim=2, points_per_axis=32, half_width=2.0)
    op = _pass_operator(discretize_tj(SPEC, grid, 1), _ones(grid))
    rng = np.random.default_rng(5)
    for _ in range(20):
        f = rng.standard_normal(grid.size)
        g = rng.standard_normal(grid.size)
        lhs = g @ op.apply(f)
        rhs = op.apply_transpose(g) @ f
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def _embedded_matrix_op():
    # embed [[1, 2], [3, 4]] in a grid with unit cell volume so the raw
    # matrix conventions and the quadrature-weighted ones coincide
    grid = Grid(dim=1, points_per_axis=8, half_width=4.0)
    assert grid.cell_volume == 1.0
    # rows 0 and 1 of the one y'-block, each with the corners y'' = 0, 1
    return SparseKernelOperator(grid, np.array([0, 1]),
                                np.array([[0, 1], [0, 1]]),
                                np.array([[1.0, 2.0], [3.0, 4.0]]))


def test_norm_conventions_on_small_matrix():
    # an all-ones y''-multiplier (n' = 0, n'' = 1) has the identity kernel
    op = _embedded_matrix_op()
    mult = _ones(op.grid)
    (stats,), entries, _ = operators.absolute_stats([op], [mult])
    assert entries == 2
    comp = ComposedOperator(None, mult, stats)
    assert operator_norm(comp, "11") == 6.0
    assert operator_norm(comp, "oooo") == 7.0
    assert operator_norm(comp, "1oo") == 4.0


def test_absolute_norms_need_a_slab_and_a_ydd_multiplier():
    # only a composite given the statistics of the pass has absolute-kernel
    # norms: not a bare slab or multiplier, and not the two in the other
    # order
    op = _embedded_matrix_op()
    rng = np.random.default_rng(7)
    mult = FourierMultiplier(op.grid, rng.standard_normal(op.grid.shape()))
    for other in (op, mult, ComposedOperator(mult, op)):
        with pytest.raises(TypeError):
            operator_norm(other, "11")


def test_two_norm_of_small_matrix():
    op = _embedded_matrix_op()
    # largest singular value of [[1,2],[3,4]]: sqrt(15 + sqrt(221))
    exact = np.sqrt(15 + np.sqrt(221))
    assert operator_norm(_pass_operator(op, _ones(op.grid)), "22") \
        == pytest.approx(exact, rel=1e-12)


def test_two_norm_zero_operator():
    grid = Grid(dim=1, points_per_axis=8, half_width=4.0)
    op = SparseKernelOperator(grid, np.zeros(0, dtype=np.int64),
                              np.zeros((0, 2), dtype=np.int64),
                              np.zeros((0, 2)))
    assert operator_norm(_pass_operator(op, _ones(grid)), "22") == 0.0
    # zero composites: an empty slab, and a shell at 2^20 times the Qj
    # scale, beyond the grid's frequencies
    empty_slab = discretize_tj(SPEC, SMALL, 9)
    q = qj_multiplier(SMALL, 1, SPEC.beta_dprime, 9)
    off_grid = pjk_multiplier(SMALL, 1, SPEC.beta_dprime, 1, 20)
    assert empty_slab.matrix.nnz == 0 and not off_grid.ydd_block.any()
    for slab, mult in ((empty_slab, q),
                       (discretize_tj(SPEC, SMALL, 1), off_grid)):
        (stats,), _, op = operators.absolute_stats([slab], [mult],
                                                   slab.cols.size)
        assert operator_norm(ComposedOperator(op, mult, stats), "22") == 0.0


def test_multiplier_two_norm_is_symbol_sup():
    # Lanczos rounds in the last place: Q_1 on this grid gives 1 - 2^-53
    for j in (1, 2):
        q = qj_multiplier(SMALL, 1, SPEC.beta_dprime, j)
        assert np.abs(q.ydd_block).max() == 1.0
        assert operator_norm(q, "22") == pytest.approx(1.0, rel=1e-12, abs=0)


def test_dense_and_matrix_free_agree():
    q = qj_multiplier(SMALL, 1, SPEC.beta_dprime, 1)
    dense = dense_multiplier(q)
    rng = np.random.default_rng(11)
    for _ in range(20):
        v = rng.standard_normal(SMALL.size)
        assert np.abs(q.apply(v) - dense @ v).max() < 1e-10


def test_composed_norms_match_dense():
    # n'' = 1, then n'' = 2, where the real FFT runs over two axes; on the
    # last grid 302 entries interpolate between the x''-nodes 31 and 0
    dual = load_spec(Path(__file__).resolve().parent.parent / "specs"
                     / "dual_quadratic.json")
    dual_grid = Grid(dim=2, points_per_axis=32, half_width=0.7)
    for spec, grid, wrapped in (
            (SPEC, SMALL, 0),
            (_two_dprime_spec(), Grid(dim=3, points_per_axis=8), 0),
            (dual, dual_grid, 302)):
        tj = discretize_tj(spec, grid, 1)
        n = grid.points_per_axis
        corners = tj.cols % n
        assert np.count_nonzero((corners[:, 0] == 0)
                                & (corners[:, -1] == n - 1)) == wrapped
        mults = (qj_multiplier(grid, 1, spec.beta_dprime, 1),
                 pjk_multiplier(grid, 1, spec.beta_dprime, 1, 0))
        stats, entries, op = operators.absolute_stats([tj], mults,
                                                      tj.cols.size)
        assert entries == tj.rows.size
        q = mults[0]
        comp = ComposedOperator(op, q, stats[0])
        dense = tj.matrix @ dense_multiplier(q)
        col, row, entry = dense_abs_stats(tj, q)
        assert operator_norm(comp, "11") == pytest.approx(col, rel=1e-12)
        assert operator_norm(comp, "oooo") == pytest.approx(row, rel=1e-12)
        assert operator_norm(comp, "1oo") == pytest.approx(
            entry / grid.cell_volume, rel=1e-12)
        rng = np.random.default_rng(2)
        v = rng.standard_normal(grid.size)
        assert np.abs(comp.apply(v) - dense @ v).max() < 1e-10
        for mult, mult_stats in zip(mults, stats):
            exact = np.linalg.norm(tj.matrix @ dense_multiplier(mult), 2)
            assert exact > 0
            assert operator_norm(ComposedOperator(op, mult, mult_stats),
                                 "22") == pytest.approx(exact, rel=1e-10)


def test_absolute_statistics_do_not_depend_on_the_piece_size(monkeypatch):
    # pieces of three y''-blocks of values.  At n'' = 2 a y'-block
    # multiplied 3 entries at a time gives the same bits as the whole block
    # at once, as the column sums add the rows in the same order.  At
    # n'' = 1 the row sums and the largest entry add in entry order whatever
    # the pieces; the column sums regroup their breakpoint histograms, so
    # they move by rounding only.
    for spec, grid, col_rel in (
            (SPEC, SMALL, 1e-14),
            (_two_dprime_spec(), Grid(dim=3, points_per_axis=8), 0)):
        tj = discretize_tj(spec, grid, 1)
        q = qj_multiplier(grid, 1, spec.beta_dprime, 1)
        (whole,), _, _ = operators.absolute_stats([tj], [q])
        n_block = q.ydd_block.size
        assert np.bincount(tj.cols[:, 0] // n_block).max() > 3
        assert tj.rows.size > 3 * n_block  # more than one piece
        monkeypatch.setattr(operators, "_PIECE_VALUES", 3 * n_block)
        ((col, *rest),), _, _ = operators.absolute_stats([tj], [q])
        assert col == pytest.approx(whole[0], rel=col_rel, abs=0)
        assert rest == list(whole[1:])
        monkeypatch.undo()
    # chunks of one y'-slice each give the bits of the whole slab: every
    # chunk goes to Q_j and the P_jk in turn, at n'' = 1 cut into pieces at
    # the same multiples of the piece size as the whole slab and at its
    # ends; at n' = 2 a chunk holds many y'-blocks
    inputs = Path(__file__).resolve().parent / "golden" / "inputs"
    for spec, grid, kmax in (
            (SPEC, SMALL, 2),
            (load_spec(inputs / "iso_2_1_b3.json"),
             Grid(dim=3, points_per_axis=16), 1),
            (load_spec(inputs / "shear_1_2.json"),
             Grid(dim=3, points_per_axis=8), 1)):
        monkeypatch.setattr(operators, "_PIECE_VALUES",
                            3 * grid.points_per_axis ** spec.n_dprime)
        for j in (1, 2, 3):
            mults = [qj_multiplier(grid, 1, spec.beta_dprime, j)] + [
                pjk_multiplier(grid, 1, spec.beta_dprime, j, k)
                for k in range(kmax + 1)]
            tj = discretize_tj(spec, grid, j)
            whole = [operators.absolute_stats([tj], [mult])[0][0]
                     for mult in mults]
            monkeypatch.setattr(operators, "_CHUNK_ENTRIES", 1)
            slab = operators.SlabMesh(spec, grid, j, shell=True)
            assert j > 1 or len(list(slab.chunks())) > 1
            assert operators.absolute_stats(slab.chunks(), mults)[:2] \
                == (whole, tj.rows.size)
            monkeypatch.setattr(operators, "_CHUNK_ENTRIES", 2 ** 17)
        monkeypatch.undo()


@pytest.mark.parametrize("spec_path, dim, n", [
    (Path(__file__).resolve().parent.parent / "specs" / "rank_one.json", 2,
     32),
    # n' = 2: a chunk's columns are one range only because y'_1 is their
    # most significant digit
    (Path(__file__).resolve().parent / "golden" / "inputs"
     / "iso_2_1_b3.json", 3, 16),
    # n'' = 2: four corners per entry; decay_table feeds the whole slab
    (Path(__file__).resolve().parent / "golden" / "inputs"
     / "shear_1_2.json", 3, 8)])
def test_streamed_transpose_is_the_whole_slab_transposed(monkeypatch,
                                                         spec_path, dim, n):
    # the CSR the pass writes chunk after chunk, or from the whole slab as
    # one chunk, is the canonical CSR of the whole slab's transpose, bit for
    # bit, and so are the products it gives
    spec, grid = load_spec(spec_path), Grid(dim=dim, points_per_axis=n)
    v = np.random.default_rng(3).standard_normal(grid.size)
    for j in (1, 2):
        whole = discretize_tj(spec, grid, j)
        want = whole.matrix.T.tocsr()
        q = qj_multiplier(grid, spec.n_prime, spec.beta_dprime, j)
        stored = whole.cols.size
        for chunk_entries in (1, 100, 2 ** 17, None):
            if chunk_entries is None:
                chunks = [whole]
            else:
                monkeypatch.setattr(operators, "_CHUNK_ENTRIES",
                                    chunk_entries)
                chunks = list(operators.SlabMesh(spec, grid, j,
                                                 shell=True).chunks())
                assert chunk_entries > 1 or len(chunks) > 1
            _, entries, op = operators.absolute_stats(chunks, [q], stored)
            assert entries == whole.rows.size
            for part in ("indptr", "indices", "data"):
                got, exact = getattr(op.at, part), getattr(want, part)
                assert got.dtype == exact.dtype
                assert got.tobytes() == exact.tobytes()
            assert op.apply(v).tobytes() == (whole.matrix @ v).tobytes()
            assert op.apply_transpose(v).tobytes() \
                == (whole.matrix.T @ v).tobytes()
    rows = []
    for chunk_entries in (1, 100, 2 ** 17):
        monkeypatch.setattr(operators, "_CHUNK_ENTRIES", chunk_entries)
        rows.append(decay_table(spec, grid, jmax=2, kmax=0,
                                pairs=("11", "22")))
    assert rows[0] == rows[1] == rows[2]


_KINDS = st.sampled_from(["interior", "on a node", "at a breakpoint",
                          "wrapped"])


@settings(max_examples=80, deadline=None)
@given(n=st.sampled_from([8, 16]), data=st.data())
def test_closed_form_statistics_match_the_dense_product(n, data):
    # a random real y''-block has a kernel with many sign changes, and a
    # constant one the kernel c delta, whose u_m = 0 take their sign from
    # d_m; the entries include f = 0, f at a breakpoint -u_m/d_m of the
    # kernel, and corners that wrap from x''-node N-1 to 0, stored (0, N-1)
    grid = Grid(dim=2, points_per_axis=n)
    block = data.draw(st.one_of(
        arrays(np.float64, n, elements=st.floats(-1.0, 1.0)),
        st.floats(-1.0, 1.0).map(lambda c: np.full(n, c))))
    mult = FourierMultiplier(grid, block)
    u = np.fft.ifft(block).real
    d = np.roll(u, -1) - u
    with np.errstate(divide="ignore", invalid="ignore"):
        t = -u / d
    breakpoints = np.sort(t[(t > 0.0) & (t < 1.0)])
    entries = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, grid.size - 1),
                  _KINDS, st.integers(0, n - 2), st.floats(0.0, 1.0),
                  st.floats(0.01, 2.0), st.booleans()),
        min_size=1, max_size=40, unique_by=lambda e: e[:2]))
    entries.sort()  # y'-block after y'-block
    rows, cols, vals = [], [], []
    for g, row, kind, i0, f, base, negative in entries:
        if kind == "on a node":
            f = 0.0
        elif kind == "at a breakpoint" and breakpoints.size:
            f = float(breakpoints[i0 % breakpoints.size])
        base = -base if negative else base
        lo, hi = base * (1.0 - f), base * f
        rows.append(row)
        if kind == "wrapped":  # i0 = N-1: node 0 carries the weight f
            cols.append((g * n, g * n + n - 1))
            vals.append((hi, lo))
        else:
            cols.append((g * n + i0, g * n + i0 + 1))
            vals.append((lo, hi))
    slab = SparseKernelOperator(grid, np.array(rows), np.array(cols),
                                np.array(vals))
    (got,), _, _ = operators.absolute_stats([slab], [mult])
    want = dense_abs_stats(slab, mult)
    # rounding scale: every column or row sum is at most sum |base| sum |u|
    scale = np.abs(slab.vals).sum() * np.abs(u).sum()
    for g_val, w_val in zip(got, want):
        assert abs(g_val - w_val) <= 1e-13 * scale


def test_transpose_of_multiplier():
    q = qj_multiplier(SMALL, 1, SPEC.beta_dprime, 1)
    dense = dense_multiplier(q)
    rng = np.random.default_rng(4)
    v = rng.standard_normal(SMALL.size)
    assert np.abs(q.apply_transpose(v) - dense.T @ v).max() < 1e-10


def test_multiplier_is_the_real_part_of_the_complex_filter():
    # apply keeps the real part of ifftn(fftn(v) * symbol), which is the
    # dense operator; that operator is symmetric even for a y''-block that
    # is not even in the frequencies (random blocks at n'' = 1 and n'' = 2)
    rng = np.random.default_rng(9)
    for grid, n_dd in ((Grid(dim=2, points_per_axis=16), 1),
                       (Grid(dim=3, points_per_axis=8), 2)):
        block = rng.standard_normal((grid.points_per_axis,) * n_dd)
        mult = FourierMultiplier(grid, block)
        symbol = np.broadcast_to(block, grid.shape())
        dense = dense_multiplier(mult)
        assert np.abs(dense - dense.T).max() < 1e-12
        for _ in range(3):
            v = rng.standard_normal(grid.size)
            complex_filter = np.fft.ifftn(
                np.fft.fftn(v.reshape(grid.shape())) * symbol).real
            assert np.abs(mult.apply(v) - dense @ v).max() < 1e-10
            assert np.abs(mult.apply(v) - complex_filter.ravel()).max() \
                < 1e-12
            assert np.array_equal(mult.apply_transpose(v), mult.apply(v))


def test_multiplier_block_must_match_the_trailing_grid_axes():
    grid = Grid(dim=2, points_per_axis=16)
    for shape in ((8,), (16, 8), (16, 16, 16)):
        with pytest.raises(ValueError):
            FourierMultiplier(grid, np.ones(shape))
