"""Independent oracles that the tests compare the package against.

None is used by the package itself: each recomputes a result by a
different, slower route.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from anisoradon.hessian import SAMPLE_DENOMINATOR, _stream


def minor_rank_oracle(rows: Sequence[Sequence[Fraction]]) -> int:
    """Brute-force rank: the largest k with a nonvanishing k x k minor.

    Exponential in the size; intended as an independent oracle for small
    matrices (n' <= 4).
    """
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0

    def det(sub: list[list[Fraction]]) -> Fraction:
        k = len(sub)
        if k == 1:
            return sub[0][0]
        total = Fraction(0)
        for j in range(k):
            if sub[0][j] == 0:
                continue
            minor = [r[:j] + r[j + 1:] for r in sub[1:]]
            sign = -1 if j % 2 else 1
            total += sign * sub[0][j] * det(minor)
        return total

    for k in range(min(n_rows, n_cols), 0, -1):
        for rsel in itertools.combinations(range(n_rows), k):
            for csel in itertools.combinations(range(n_cols), k):
                sub = [[Fraction(rows[r][c]) for c in csel] for r in rsel]
                if det(sub) != 0:
                    return k
    return 0


def lambda_basis_oracle(weights_flat: Sequence[int],
                        target_degree: int) -> list[tuple[int, ...]]:
    """The exponent tuples of quasidegree exactly ``target_degree``, in
    graded-lex order: (total degree, exponents).

    The reference for ``polynomials.lambda_basis``: a recursion over the
    variables, one exponent at a time, and a sort by key.
    """
    nvars = len(weights_flat)
    results: list[tuple[int, ...]] = []

    def extend(pos: int, remaining: int, prefix: list[int]) -> None:
        if pos == nvars:
            if remaining == 0:
                results.append(tuple(prefix))
            return
        wgt = weights_flat[pos]
        # remaining weights are all >= 1, so cap the exponent early
        for e in range(remaining // wgt + 1):
            prefix.append(e)
            extend(pos + 1, remaining - e * wgt, prefix)
            prefix.pop()

    extend(0, target_degree, [])
    return sorted(results, key=lambda flat: (sum(flat), flat))


def sympy_hessian(polys, point: Sequence[Fraction],
                  eta: Sequence[Fraction]):
    """``sympy`` matrix of d^2/dx'_i dy'_j (eta . S) at a rational point.

    ``polys`` are the components of S; ``point`` lists the coordinates in the
    order (x', x'', y').
    """
    from sympy import Matrix, Rational
    from sympy.polys.domains import QQ
    from sympy.polys.rings import ring

    n_p, n_d = polys[0].n_prime, polys[0].n_dprime
    names = ([f"x{i}" for i in range(n_p)] + [f"X{i}" for i in range(n_d)]
             + [f"y{i}" for i in range(n_p)])
    r, *gens = ring(",".join(names), QQ)

    def q(v) -> object:
        v = Fraction(v)
        return QQ(v.numerator, v.denominator)

    f = r.zero
    for e, p in zip(eta, polys):
        f += q(e) * r.from_dict({m.exp_x + m.exp_xx + m.exp_y: q(m.coeff)
                                 for m in p.monomials()})
    subs = [(g, q(v)) for g, v in zip(gens, point)]

    def entry(i: int, j: int):
        val = f.diff(gens[i]).diff(gens[n_p + n_d + j]).evaluate(subs)
        return Rational(int(val.numerator), int(val.denominator))

    return Matrix(n_p, n_p, entry)


def dense_multiplier(mult) -> np.ndarray:
    """Dense matrix of a ``FourierMultiplier`` on its whole grid."""
    n_rest = mult.grid.size // mult.ydd_block.size
    return np.kron(np.eye(n_rest), mult.ydd_kernel_matrix())


def dense_abs_stats(slab, mult) -> tuple[float, float, float]:
    """(max column sum, max row sum, max entry) of |slab o mult|, from the
    dense product: the reference for ``operators.absolute_stats``."""
    dense = np.abs(slab.matrix @ dense_multiplier(mult))
    return (float(dense.sum(axis=0).max()), float(dense.sum(axis=1).max()),
            float(dense.max()))


def shell_points(weights_flat: Sequence[int], n_dprime: int, samples: int,
                 seed: int):
    """``samples`` random shell points (numerators, SAMPLE_DENOMINATOR,
    integer eta''), drawn from the stream keyed by ``seed``.

    The per-point reference for ``hessian._shell_chunks``: two
    ``rng.integers`` calls and a Python normalization loop per point.
    """
    rng = _stream(seed, 0)
    D = SAMPLE_DENOMINATOR
    drawn = 0
    while drawn < samples:
        raw = rng.integers(-D, D + 1, size=len(weights_flat))
        if not np.any(raw):
            continue
        eta_raw = rng.integers(-D, D + 1, size=n_dprime)
        if not np.any(eta_raw):
            continue
        # integer shell normalization: grow by the weight dilation until some
        # |num_v| * 2^(w_v) >= D (i.e. some |z_v| >= 2^(-w_v)); |z_v| <= 1
        # holds throughout because it holds initially
        nums = [int(v) for v in raw]
        while all(abs(k) * 2 ** w < D for k, w in zip(nums, weights_flat)):
            nums = [k * 2 ** w for k, w in zip(nums, weights_flat)]
        # the rank is invariant under rescaling eta'', so evaluate with the
        # raw integer eta and normalize only the reported witness
        yield nums, D, [int(v) for v in eta_raw]
        drawn += 1


def minsum_vertex_regression(alpha_prime_sum: int, beta_prime_sum: int,
                             beta_dprime_sum: int, n_dprime: int, rank: int,
                             vertex: int, peaks: Sequence[tuple[int, int]] = (),
                             pad: int = 40) -> tuple[float, float]:
    """Fit the (|E|, |F|) exponents of the dyadic min-sum directly.

    Sums min{2^(j|b''|+k n'') E F, 2^(-j a) E or F, 2^(-j(a+b)/2 - k r/2)
    sqrt(E F)} over the (j, k) lattice for a family of (E, F) pairs chosen so
    the balance point sits at prescribed positive (j0, k0), then regresses
    log2 of the sum on (log2 E, log2 F).  Returns the fitted pair
    (E-exponent, F-exponent) = (1/p, 1 - 1/q); independent of the
    closed-form vertex solution.
    """
    a_p, b_p, b_dd = alpha_prime_sum, beta_prime_sum, beta_dprime_sum
    at, bt = a_p + b_dd, b_p + b_dd
    if vertex not in (1, 2):
        raise ValueError("vertex must be 1 or 2")
    if not peaks:
        peaks = [(j0, k0) for j0 in range(4, 13, 2) for k0 in range(6, 19, 3)]
    rows, targets = [], []
    jmax = max(j0 for j0, _ in peaks) + pad
    kmax = max(k0 for _, k0 in peaks) + pad
    jj, kk = np.meshgrid(np.arange(jmax + 1), np.arange(kmax + 1),
                         indexing="ij")
    for j0, k0 in peaks:
        if vertex == 1:
            v = -(j0 * at + k0 * n_dprime)
            u = v + j0 * (a_p - b_p) - k0 * rank
        else:
            u = -(j0 * bt + k0 * n_dprime)
            v = u - j0 * (a_p - b_p) - k0 * rank
        term1 = jj * b_dd + kk * n_dprime + u + v
        if vertex == 1:
            term2 = -jj * a_p + u
        else:
            term2 = -jj * b_p + v
        term3 = -jj * (a_p + b_p) / 2.0 - kk * rank / 2.0 + (u + v) / 2.0
        m = np.minimum(term1, np.minimum(term2, term3))
        peak = m.max()
        log_sum = peak + math.log2(np.sum(np.exp2(m - peak)))
        rows.append([u, v, 1.0])
        targets.append(log_sum)
    sol, *_ = np.linalg.lstsq(np.array(rows, dtype=float),
                              np.array(targets, dtype=float), rcond=None)
    return float(sol[0]), float(sol[1])
