import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
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


def _stored(slab: SparseKernelOperator) -> int:
    """The values of the slab's interpolation corners."""
    return slab.rows.size * 2 ** slab.frac.shape[1]


def _pass_operator(slab: SparseKernelOperator, mult: FourierMultiplier):
    """The slab as the statistics pass returns it for the (2,2) norm."""
    return operators.absolute_stats([slab], [mult], _stored(slab))[2]


def _on_grid(op, values: np.ndarray) -> np.ndarray:
    """A vector over the rows of the pass's operator as a grid vector,
    zero off them."""
    full = np.zeros(op.grid.size)
    full[op.rows] = values
    return full


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
    support = _pass_operator(op, _ones(grid))
    applied = _on_grid(support, support.apply(np.ones(support.domain)))
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
        f = rng.standard_normal(op.domain)
        g = rng.standard_normal(op.rows.size)
        lhs = g @ op.apply(f)
        rhs = op.apply_transpose(g) @ f
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def _embedded_matrix_op():
    # embed [[1, 3], [1, 7]] in a grid with unit cell volume so the raw
    # matrix conventions and the quadrature-weighted ones coincide: rows 0
    # and 1 of the one y'-block, with weights 4 and 8 between the corners
    # y'' = 0, 1 at the dyadic fractions 3/4 and 7/8, so every product and
    # sum is exact
    grid = Grid(dim=1, points_per_axis=8, half_width=4.0)
    assert grid.cell_volume == 1.0
    op = SparseKernelOperator(grid, np.array([0, 1]), np.array([0, 0]),
                              np.array([4.0, 8.0]),
                              np.array([[0.75], [0.875]]))
    assert (op.matrix.toarray()[:2, :2] == [[1.0, 3.0], [1.0, 7.0]]).all()
    return op


def test_corners_lay_out_each_slot_in_increasing_column_order():
    # n'' = 1, N = 8: an interior entry (i0 = 2) has the corners (i0, i0 + 1)
    # with c (1 - f) and c f; one at i0 = N-1 in the second y'-block wraps
    # to the x''-nodes (0, N-1), with c f and c (1 - f)
    op = SparseKernelOperator(Grid(dim=2, points_per_axis=8),
                              np.array([0, 1], np.int32),
                              np.array([2, 8 + 7], np.int32),
                              np.array([4.0, 8.0]), np.array([[0.25], [0.75]]))
    cols, vals = op.corners()
    assert cols.dtype == np.int32
    assert cols.tolist() == [[2, 3], [8, 15]]
    assert vals.tolist() == [[3.0, 1.0], [6.0, 2.0]]
    assert [c.tolist() for c in op.corners(slice(1, 2))] \
        == [[[8, 15]], [[6.0, 2.0]]]
    # n'' = 2: corners (0, 0), (0, 1), (1, 0), (1, 1) of the slots, slot 0
    # the more significant digit; the second entry wraps in slot 0 only.
    # A value is c times the weight of slot 0, then times that of slot 1
    c, f0, f1 = 0.1, 0.3, 0.7
    op = SparseKernelOperator(Grid(dim=3, points_per_axis=8), np.array([0, 1]),
                              np.array([64 + 2 * 8 + 5, 7 * 8 + 3]),
                              np.array([c, c]), np.array([[f0, f1], [f0, f1]]))
    cols, vals = op.corners()
    assert cols.tolist() == [[85, 86, 93, 94], [3, 4, 59, 60]]
    lo0, hi0, lo1, hi1 = 1.0 - f0, f0, 1.0 - f1, f1
    assert vals.tolist() == [
        [c * lo0 * lo1, c * lo0 * hi1, c * hi0 * lo1, c * hi0 * hi1],
        [c * hi0 * lo1, c * hi0 * hi1, c * lo0 * lo1, c * lo0 * hi1]]


def test_norm_conventions_on_small_matrix():
    # an all-ones y''-multiplier (n' = 0, n'' = 1) has the identity kernel
    op = _embedded_matrix_op()
    mult = _ones(op.grid)
    (stats,), entries, _ = operators.absolute_stats([op], [mult])
    assert entries == 2
    comp = ComposedOperator(None, mult, stats)
    assert operator_norm(comp, "11") == 10.0
    assert operator_norm(comp, "oooo") == 8.0
    assert operator_norm(comp, "1oo") == 7.0


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
    # largest singular value of [[1,3],[1,7]]: sqrt(30 + sqrt(884))
    exact = np.sqrt(30 + np.sqrt(884))
    assert operator_norm(_pass_operator(op, _ones(op.grid)), "22") \
        == pytest.approx(exact, rel=1e-12)


def test_two_norm_zero_operator():
    grid = Grid(dim=1, points_per_axis=8, half_width=4.0)
    op = SparseKernelOperator(grid, np.zeros(0, dtype=np.int64),
                              np.zeros(0, dtype=np.int64), np.zeros(0),
                              np.zeros((0, 1)))
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
                                                   _stored(slab))
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
        assert np.count_nonzero(tj.low % n == n - 1) == wrapped
        mults = (qj_multiplier(grid, 1, spec.beta_dprime, 1),
                 pjk_multiplier(grid, 1, spec.beta_dprime, 1, 0))
        stats, entries, op = operators.absolute_stats([tj], mults,
                                                      _stored(tj))
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
        assert np.abs(_on_grid(op, comp.apply(v[op.cols]))
                      - dense @ v).max() < 1e-10
        for mult, mult_stats in zip(mults, stats):
            exact = np.linalg.norm(tj.matrix @ dense_multiplier(mult), 2)
            assert exact > 0
            assert operator_norm(ComposedOperator(op, mult, mult_stats),
                                 "22") == pytest.approx(exact, rel=1e-10)


def test_absolute_statistics_do_not_depend_on_the_piece_size(monkeypatch):
    # pieces of three y''-blocks of values.  At n'' = 2 a y'-block
    # multiplied 3 entries at a time gives the same bits as the whole block
    # at once, as the column sums add the rows in the same order.  At
    # n'' = 1 the pieces are whole y'-blocks, one here as Q_1 has 3 ranks,
    # and each y'-block adds its sums alone: the same bits again.
    for spec, grid in (
            (SPEC, SMALL),
            (_two_dprime_spec(), Grid(dim=3, points_per_axis=8))):
        tj = discretize_tj(spec, grid, 1)
        q = qj_multiplier(grid, 1, spec.beta_dprime, 1)
        (whole,), _, _ = operators.absolute_stats([tj], [q])
        n_block = q.ydd_block.size
        assert np.bincount(tj.low // n_block).max() > 3
        assert tj.rows.size > 3 * n_block  # more than one piece
        monkeypatch.setattr(operators, "_PIECE_VALUES", 3 * n_block)
        assert operators.absolute_stats([tj], [q])[0] == [whole]
        monkeypatch.undo()
    # chunks of one y'-block each, and of three, give the bits of the
    # whole slab: every chunk goes to Q_j, the P_jk and P_11 in turn, at
    # n'' = 1 cut at the same y'-block runs as the whole slab; at n' = 2 a
    # y'_1-slice holds several y'-blocks, so a chunk of one ends inside it
    # and one of three may straddle two.  At n'' = 1, P_11 has more than 3
    # ranks, so each of its pieces is one y'-block, while a multiplier of
    # one rank takes three
    inputs = Path(__file__).resolve().parent / "golden" / "inputs"
    spans = set()
    for spec, grid, kmax in (
            (SPEC, SMALL, 2),
            (load_spec(inputs / "iso_2_1_b3.json"),
             Grid(dim=3, points_per_axis=16), 1),
            (load_spec(inputs / "shear_1_2.json"),
             Grid(dim=3, points_per_axis=8), 1)):
        n = grid.points_per_axis
        monkeypatch.setattr(operators, "_PIECE_VALUES", 3 * n ** spec.n_dprime)
        wide = pjk_multiplier(grid, 1, spec.beta_dprime, 1, 1)
        if spec.n_dprime == 1:
            sums = operators._InterpolationSums(wide)
            assert sums.ranks * n > operators._PIECE_VALUES
            assert sums.span == n
        for j in (1, 2, 3):
            mults = [qj_multiplier(grid, 1, spec.beta_dprime, j)] + [
                pjk_multiplier(grid, 1, spec.beta_dprime, j, k)
                for k in range(kmax + 1)] + [wide]
            if spec.n_dprime == 1:
                spans |= {operators._InterpolationSums(mult).span // n
                          for mult in mults}
            tj = discretize_tj(spec, grid, j)
            whole = [operators.absolute_stats([tj], [mult])[0][0]
                     for mult in mults]
            per_block = operators.SlabMesh(spec, grid, j, True).per_block
            for blocks in (1, 3):  # y'-blocks per chunk
                monkeypatch.setattr(operators, "_CHUNK_ENTRIES",
                                    blocks * max(1, per_block))
                slab = operators.SlabMesh(spec, grid, j, shell=True)
                assert slab.step == blocks
                assert len(list(slab.chunks())) \
                    == max(1, -(-slab.blocks // blocks))
                assert operators.absolute_stats(slab.chunks(), mults)[:2] \
                    == (whole, tj.rows.size)
            assert j > 1 or slab.blocks > 1
            assert spec.n_prime == 1 \
                or slab.blocks > len(slab.windows[grid.dim]) > 1
        monkeypatch.undo()
    assert spans == {1, 3}  # y'-blocks per piece


@pytest.mark.parametrize("spec_path, dim, n", [
    (Path(__file__).resolve().parent.parent / "specs" / "rank_one.json", 2,
     32),
    # n' = 2: a chunk's columns are one range only because y'_1 is their
    # most significant digit
    (Path(__file__).resolve().parent / "golden" / "inputs"
     / "iso_2_1_b3.json", 3, 16),
    # n'' = 2: four corners per entry
    (Path(__file__).resolve().parent / "golden" / "inputs"
     / "shear_1_2.json", 3, 8)])
def test_streamed_transpose_is_the_whole_slab_transposed(monkeypatch,
                                                         spec_path, dim, n):
    # the CSR the pass writes chunk after chunk, or from the whole slab as
    # one chunk, is the canonical CSR of the whole slab's transpose
    # restricted to its support, bit for bit, and so are the products it
    # gives there.  The support is the rows that carry an entry and the
    # whole y''-lines of the y'-blocks that hold one, and no entry of the
    # slab lies off it.  No corners are laid out for more than one y'-block
    # at a time, however many a chunk holds
    spec, grid = load_spec(spec_path), Grid(dim=dim, points_per_axis=n)
    n_block = n ** spec.n_dprime
    v = np.random.default_rng(3).standard_normal(grid.size)
    corners = operators.SparseKernelOperator.corners
    laid_out = []

    def traced(self, part=slice(None)):
        laid_out.append(self.low[part])
        return corners(self, part)

    for j in (1, 2):
        whole = discretize_tj(spec, grid, j)
        per_block = operators.SlabMesh(spec, grid, j, shell=True).per_block
        q = qj_multiplier(grid, spec.n_prime, spec.beta_dprime, j)
        stored = _stored(whole)
        entries = whole.matrix.tocoo()
        assert entries.nnz > 0
        for chunk_entries in (1, 100, 2 ** 17, None):
            if chunk_entries is None:
                chunks = [whole]
            else:
                monkeypatch.setattr(operators, "_CHUNK_ENTRIES",
                                    chunk_entries)
                chunks = list(operators.SlabMesh(spec, grid, j,
                                                 shell=True).chunks())
                assert chunk_entries > 1 or len(chunks) > 1
            laid_out.clear()
            monkeypatch.setattr(operators.SparseKernelOperator, "corners",
                                traced)
            _, count, op = operators.absolute_stats(chunks, [q], stored)
            monkeypatch.setattr(operators.SparseKernelOperator, "corners",
                                corners)
            assert laid_out
            for low in laid_out:
                assert 0 < low.size <= per_block
                assert low[0] // n_block == low[-1] // n_block
            assert count == whole.rows.size
            assert np.array_equal(op.rows, np.unique(whole.rows))
            blocks = np.unique(whole.low // n_block)
            assert np.array_equal(op.cols, (blocks[:, None] * n_block
                                            + np.arange(n_block)).ravel())
            assert op.domain == op.cols.size
            assert np.isin(entries.row, op.rows).all()
            assert np.isin(entries.col, op.cols).all()
            want = whole.matrix.T.tocsr()[op.cols][:, op.rows]
            assert want.has_canonical_format
            assert want.nnz == whole.matrix.nnz
            for part in ("indptr", "indices", "data"):
                got, exact = getattr(op.at, part), getattr(want, part)
                assert got.dtype == exact.dtype
                assert got.tobytes() == exact.tobytes()
            assert op.apply(v[op.cols]).tobytes() \
                == (whole.matrix @ v)[op.rows].tobytes()
            assert op.apply_transpose(v[op.rows]).tobytes() \
                == (whole.matrix.T @ v)[op.cols].tobytes()
    rows = []
    for chunk_entries in (1, 100, 2 ** 17):
        monkeypatch.setattr(operators, "_CHUNK_ENTRIES", chunk_entries)
        rows.append(decay_table(spec, grid, jmax=2, kmax=0,
                                pairs=("11", "22")))
    assert rows[0] == rows[1] == rows[2]


_KINDS = st.sampled_from(["interior", "on a node", "at a breakpoint",
                          "wrapped"])


@st.composite
def _closed_form_cases(draw):
    """N, a y''-block and entries (y'-block, row, kind, i0, f, base,
    negative) of a slab on the grid of N^2 points."""
    n = draw(st.sampled_from([8, 16]))
    block = draw(st.one_of(
        arrays(np.float64, n, elements=st.floats(-1.0, 1.0)),
        st.floats(-1.0, 1.0).map(lambda c: np.full(n, c))))
    entries = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n * n - 1),
                  _KINDS, st.integers(0, n - 2), st.floats(0.0, 1.0),
                  st.floats(0.01, 2.0), st.booleans()),
        min_size=1, max_size=40, unique_by=lambda e: e[:2]))
    return n, block, entries


@settings(max_examples=80, deadline=None)
@given(case=_closed_form_cases())
# a kernel of subnormals: base u_0 (1 - f) rounds to 0 in the product, and
# the closed form keeps u_0 = 5e-324
@example(case=(8, np.full(8, 5e-324), [(0, 0, "interior", 0, 0.5, 1.0,
                                         False)]))
# a subnormal kernel whose envelope turns: the products of the hull's turn
# test underflow to 0 unless u and d are first scaled up
@example(case=(8, np.eye(8)[3] * 2.22507386e-311,
               [(0, 0, "interior", 0, 0.75, 1.0, False)]))
def test_closed_form_statistics_match_the_dense_product(case):
    # a random real y''-block has a kernel with many sign changes, and a
    # constant one the kernel c delta, whose u_m = 0 take their sign from
    # d_m; the entries include f = 0, f at a breakpoint -u_m/d_m of the
    # kernel, and corners that wrap from x''-node N-1 to 0, stored (0, N-1)
    n, block, entries = case
    grid = Grid(dim=2, points_per_axis=n)
    mult = FourierMultiplier(grid, block)
    u = np.fft.ifft(block).real
    d = np.roll(u, -1) - u
    with np.errstate(divide="ignore", invalid="ignore"):
        t = -u / d
    breakpoints = np.sort(t[(t > 0.0) & (t < 1.0)])
    entries = sorted(entries)  # y'-block after y'-block
    rows, low, weight, frac = [], [], [], []
    for g, row, kind, i0, f, base, negative in entries:
        if kind == "on a node":
            f = 0.0
        elif kind == "at a breakpoint" and breakpoints.size:
            f = float(breakpoints[i0 % breakpoints.size])
        rows.append(row)
        # i0 = N-1 wraps: node 0 carries the weight f
        low.append(g * n + (n - 1 if kind == "wrapped" else i0))
        weight.append(-base if negative else base)
        frac.append([f])
    slab = SparseKernelOperator(grid, np.array(rows), np.array(low),
                                np.array(weight), np.array(frac))
    (got,), _, _ = operators.absolute_stats([slab], [mult])
    want = dense_abs_stats(slab, mult)
    # rounding scale: every column or row sum is at most sum |base| sum |u|.
    # Below the normal range a product errs by up to half the smallest
    # subnormal, not relatively (the standard model with underflow: Higham,
    # Accuracy and Stability of Numerical Algorithms, 2002, sec. 2.1), and
    # each of the two computations sums at most 2 N products per entry
    scale = np.abs(slab.weight).sum() * np.abs(u).sum()
    underflow = 2 * len(entries) * n * np.finfo(float).smallest_subnormal
    for g_val, w_val in zip(got, want):
        assert abs(g_val - w_val) <= 1e-13 * scale + underflow


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
