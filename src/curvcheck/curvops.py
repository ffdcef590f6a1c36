"""Algebraic curvature operators at a point.

Numpy kernels for the (0,4)/(0,6) machinery used by every identity
check: the unit curvature tensor G of a metric, the Kulkarni-Nomizu
product of two symmetric (0,2) tensors, the derivation B . T induced by
a generalized curvature tensor, the Tachibana tensor Q(A,T),
least-squares proportionality-factor extraction and numerical rank of
shifted Ricci tensors.

B . T and Q(A,T) are one operation: the derivation of T by a skew
endomorphism field, B(X,Y) (the (0,4) tensor B with its last slot
raised) or X ^_A Y, computed by one kernel on bivectors.  rank_shift
accepts an array of alpha and ranks the whole scan with one stacked SVD.

Symmetry is exploited for storage: a product keeps each antisymmetric
slot pair (the derivation pair; both pairs of an order-4 T) once per
pair x < y, m = n(n-1)/2 of them, its component times sqrt(2) (the
orthonormal bivector basis).  Frobenius norms and inner products then
equal the dense ones in exact arithmetic, so residuals and factors need
no weights; a max-abs reads 2 sqrt(2) larger on an order-6 product.
E(X) acts on packed 2-forms by an m x m matrix K_X, one table product
away from E's rows, and maps a packed order-4 T^ to -(K_X T^ + T^ K_X^T).
At n = 6 an order-6 product is a (15, 15, 15) array of 27 KB, not a
6**6 array of 373 KB, and a point's twelve products take about 0.26 MB.
The geometry suite checks the antisymmetries the packing drops on the
dense frame, each as lane_zero_residuals of R plus its transposes.

Dense component arrays are indexed in direct slot order, T[a,b,c,d] =
T(e_a, e_b, e_c, e_d).  For tensors with the curvature pair symmetries
this coincides with the classical index layout (full index reversal is
the identity on such tensors), so block formulas stated in classical
index form can be read off the same arrays.

Leading point axes.  The products and rank_shift broadcast over any
leading axes of their inputs: a chunk of points carries its own point
axis first (g of shape (P, n, n), R of shape (P, n, n, n, n)), and each
point's lane of the result is what the same call on that point alone
gives.  The reductions (lane_norms, the lane_* residuals and
proportionality) read the first axis as the point axis and return one
result per point (one tensor is a chunk of one); scalar_residual
broadcasts.  No reduction mixes lanes, so a lane never depends on the
others in its chunk.

All public functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np


def _asarray(t) -> np.ndarray:
    return np.asarray(t, dtype=float)


def _rows(*ts: np.ndarray) -> list[np.ndarray]:
    # Each lane of each t's leading point axis as one row, in C order:
    # views for stacked frames and products, whose lanes are contiguous,
    # and the same order whatever chunk a lane sits in.
    first = ts[0]
    width = first.size // len(first) if len(first) else 0
    return [t.reshape(len(t), width) for t in ts]


def per_lane(v, ndim: int) -> np.ndarray:
    """One value per lane as a column that scales its lane of an array
    with ndim axes after the point axis."""
    v = _asarray(v)
    return v.reshape(v.shape + (1,) * ndim)


def lane_norms(t) -> np.ndarray:
    """Frobenius norm of each lane of an array whose first axis indexes
    points; each equals np.linalg.norm of that lane alone."""
    (rows,) = _rows(_asarray(t))
    return np.sqrt(np.vecdot(rows, rows))


# ---------------------------------------------------------------------------
# Residual conventions.  A residual is a difference over (scale + 1),
# divided in _normalized alone: relative for O(1)-or-larger quantities,
# absolute near zero, never spuriously large when both sides vanish.
# Callers pass the scale summed: (a + b) + 1.0 adds as a + b + 1.0 does.

def _normalized(difference, scale):
    return difference / (scale + 1.0)


def lane_residuals(lhs, rhs) -> np.ndarray:
    """Frobenius residual of each lane of lhs == rhs, the first axis
    indexing points, sum-plus-one normalized."""
    ra, rb = _rows(_asarray(lhs), _asarray(rhs))
    rd = ra - rb
    return _normalized(np.sqrt(np.vecdot(rd, rd)),
                       np.sqrt(np.vecdot(ra, ra)) + np.sqrt(np.vecdot(rb, rb)))


def lane_sum_residuals(terms) -> np.ndarray:
    """Frobenius norm of each lane of sum(terms) == 0, the first axis
    indexing points, over the sum of the terms' norms plus one."""
    return _normalized(lane_norms(sum(terms)), sum(lane_norms(t) for t in terms))


def scalar_residual(lhs, rhs):
    """|lhs - rhs| / (|lhs| + |rhs| + 1); broadcasts over arrays."""
    return _normalized(abs(lhs - rhs), abs(lhs) + abs(rhs))


def _lane_max_abs(t: np.ndarray) -> np.ndarray:
    # max|t| over each lane of t's leading point axis; exact, so it does
    # not depend on the order the lane's entries are read in.
    return np.max(np.abs(t), axis=tuple(range(1, t.ndim)))


def lane_max_abs_residuals(lhs, rhs) -> np.ndarray:
    """Componentwise max-abs residual of each lane of lhs == rhs, the
    first axis indexing points, sum-plus-one normalized."""
    a, b = _asarray(lhs), _asarray(rhs)
    return _normalized(_lane_max_abs(a - b), _lane_max_abs(a) + _lane_max_abs(b))


def lane_zero_residuals(t, reference) -> np.ndarray:
    """Max-abs of each lane of t, normalized by the scale (max-abs + 1)
    of the same lane of a reference tensor."""
    return _normalized(_lane_max_abs(_asarray(t)), _lane_max_abs(_asarray(reference)))


def constancy_residual(values) -> float:
    """Standard deviation of a sample, normalized by (1 + |mean|)."""
    v = np.asarray(values, dtype=float)
    return float(_normalized(np.std(v), abs(float(np.mean(v)))))


# ---------------------------------------------------------------------------
# Products

def unit_curvature(g: np.ndarray) -> np.ndarray:
    """G[a,b,c,d] = g_bc g_ad - g_ac g_bd; satisfies g^g = 2G."""
    g = _asarray(g)
    return np.einsum("...ad,...bc->...abcd", g, g) - np.einsum("...ac,...bd->...abcd", g, g)


def kulkarni_nomizu(A, B) -> np.ndarray:
    """Kulkarni-Nomizu product of symmetric (0,2) tensors.

    (A^B)[a,b,c,d] = A_ad B_bc + A_bc B_ad - A_ac B_bd - A_bd B_ac.
    The result carries the full curvature symmetries.
    """
    A, B = _asarray(A), _asarray(B)
    if A.shape != B.shape:
        raise ValueError(f"dimension mismatch: {A.shape} vs {B.shape}")
    return (
        np.einsum("...ad,...bc->...abcd", A, B)
        + np.einsum("...bc,...ad->...abcd", A, B)
        - np.einsum("...ac,...bd->...abcd", A, B)
        - np.einsum("...bd,...ac->...abcd", A, B)
    )


@cache
def _bivectors(n: int):
    # Tables for dimension n, built on first use, never at import, over
    # the pairs X = (x, y), x < y, in lexicographic order, m of them:
    # rows, their flat indices x*n + y; quads, the flat indices of the
    # pairs of pairs in an n**4 array, so one take packs an order-4 T as
    # the m x m matrix T^; wedge, each e_x ^ e_y as an n x n matrix; lift,
    # the (n*n, m*m) table with E(X).ravel() @ lift = K_X, the action on
    # packed 2-forms, times -2 sqrt(2) (three packed pairs, and the sign).
    x, y = np.triu_indices(n, 1)
    m, rows = len(x), x * n + y
    quads = (rows[:, None] * (n * n) + rows).ravel()
    wedge = np.zeros((m, n, n))
    wedge[np.arange(m), y, x], wedge[np.arange(m), x, y] = 1.0, -1.0
    # (E.w)(e_a, e_b) = -w(E e_a, e_b) - w(e_a, E e_b) on a 2-form w, so
    # K[P, Q] = E[a,c] d_bd - E[a,d] d_bc + E[b,d] d_ac - E[b,c] d_ad
    # for P = (a, b), Q = (c, d); the four terms never share an entry.
    lift = np.zeros((n, n, m, m))
    P, Q = np.indices((m, m))
    a, b, c, d = x[:, None], y[:, None], x, y
    lift[a, c, P, Q] += b == d
    lift[a, d, P, Q] -= b == c
    lift[b, d, P, Q] += a == c
    lift[b, c, P, Q] -= a == d
    lift = (-2.0 * np.sqrt(2.0)) * lift.reshape(n * n, m * m)
    for table in (rows, quads, wedge, lift):
        table.flags.writeable = False
    return rows, quads, wedge, lift


def _derive(E: np.ndarray, T: np.ndarray) -> np.ndarray:
    # E[..., X, i, s]: component s of E(X) e_i, for each pair X, x < y.
    # The packed (E . T), derivation pair last: (..., n, n, m) or
    # (..., m, m, m).  Each point is one matrix product per term.
    lead, (m, n) = E.shape[:-3], E.shape[-3:-1]
    order = T.ndim - len(lead)
    if order == 2:
        K = -np.sqrt(2.0) * E
    elif order == 4:
        _, quads, _, lift = _bivectors(n)
        K = (E.reshape(*lead, m, n * n) @ lift).reshape(*lead, m, m, m)
        T = T.reshape(*lead, n ** 4).take(quads, axis=-1).reshape(*lead, m, m)
    else:
        raise ValueError(f"packed derivation needs an order-2 or order-4 tensor, got {T.shape}")
    # out[i, j, X] = (K_X T + T K_X^T)[i, j], each term one matrix
    # product per point with the rows of every K_X stacked: K_X T comes
    # out as [X, i, j], T K_X^T as [i, X, j], and their sum is written
    # in C order.
    a = K.shape[-1]
    rows = K.reshape(*lead, m * a, a)
    left = (rows @ T).reshape(*lead, m, a, a)
    right = (T @ rows.swapaxes(-1, -2)).reshape(*lead, a, m, a)
    k = len(lead)
    return np.add(left.transpose(*range(k), k + 1, k + 2, k),
                  right.transpose(*range(k), k, k + 2, k + 1), order="C")


def derivation_apply(B4, T, ginv) -> np.ndarray:
    """Apply the derivation induced by a generalized curvature tensor.

    Given the (0,4) tensor B of a skew-symmetric endomorphism field and
    a (0,k) tensor T, returns the (0,k+2) tensor (B . T) with the two
    derivation slots appended last, packed on bivectors (see the module
    docstring; m = n(n-1)/2, pairs X < Y, sqrt(2) per packed pair):
    an (n, n, m) array for any order-2 T, an (m, m, m) array for an
    order-4 T antisymmetric in both pairs.  Only components with
    x < y of B's first pair and, for order 4, a < b and c < d of T are
    read.  Leading point axes, shared by B4, T and ginv, carry over to
    the result.  Instantiates R.R, R.S, R.C, C.C, C.R and C.S.
    """
    B4, T, ginv = _asarray(B4), _asarray(T), _asarray(ginv)
    n, lead = B4.shape[-1], B4.shape[:-4]
    if n != T.shape[-1] or lead != ginv.shape[:-2]:
        raise ValueError(f"dimension mismatch: {B4.shape} vs {T.shape}")
    rows = _bivectors(n)[0]
    # E(X)[i, s] for X = (x, y), x < y: B's rows X, last slot raised.
    B_rows = B4.reshape(*lead, n * n, n, n).take(rows, axis=-3)
    E = (B_rows.reshape(*lead, -1, n) @ ginv.swapaxes(-1, -2)).reshape(B_rows.shape)
    return _derive(E, T)


def tachibana(A, T) -> np.ndarray:
    """Tachibana tensor Q(A,T) of a symmetric (0,2) tensor A and (0,k) T.

    The image of T under the derivation induced by the metric-free
    wedge endomorphism (X ^_A Y)Z = A(Y,Z) X - A(X,Z) Y, packed as
    derivation_apply's result: (n, n, m) for any order-2 T, (m, m, m)
    for an order-4 T antisymmetric in both pairs, after any leading
    point axes of A and T.  Q(g,G) vanishes identically.
    """
    A, T = _asarray(A), _asarray(T)
    n = A.shape[-1]
    if n != T.shape[-1]:
        raise ValueError(f"dimension mismatch: {A.shape} vs {T.shape}")
    # E(X)[i, s] = A[y, i] d_xs - A[x, i] d_ys = (A^T (e_x ^ e_y))[i, s]
    return _derive(A.swapaxes(-1, -2)[..., None, :, :] @ _bivectors(n)[2], T)


# ---------------------------------------------------------------------------
# Factor extraction and rank

@dataclass(frozen=True)
class ProportionalityResult:
    """Outcome of fitting LHS = factor * RHS in the Frobenius sense.

    verdict is "fit" when RHS carries signal, "vacuous" when both sides
    vanish, "inconsistent" when RHS vanishes but LHS does not.
    """

    factor: float | None
    residual: float
    verdict: str


def proportionality(lhs, rhs, dim: int) -> list[ProportionalityResult]:
    """Least-squares factor between equally shaped tensors, lane by lane.

    The first axis indexes points; the result holds one
    ProportionalityResult per lane (one tensor is a chunk of one:
    proportionality(a[None], b[None], dim)[0]).  factor = <lhs, rhs> /
    <rhs, rhs>; the residual uses the same sum-plus-one normalization as
    lane_residuals.  RHS is degenerate when its Frobenius norm is below
    1e-12 * dim**2, dim being the chart dimension n (not a packed
    product's leading axis m).
    """
    a, b = _asarray(lhs), _asarray(rhs)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    ra, rb = _rows(a, b)
    na, nb2 = np.sqrt(np.vecdot(ra, ra)), np.vecdot(rb, rb)
    nb = np.sqrt(nb2)
    floor = 1e-12 * dim * dim
    # Only the lanes with signal in rhs are divided by it.
    live = nb > floor
    if not live.all():
        ra, rb, nb2 = ra[live], rb[live], nb2[live]
    factors = np.vecdot(rb, ra) / nb2
    gap = ra - factors[:, None] * rb
    residuals = _normalized(np.sqrt(np.vecdot(gap, gap)), na[live] + nb[live])
    fits = iter(zip(factors.tolist(), residuals.tolist()))
    out = []
    for na_i, nb_i, fit in zip(na.tolist(), nb.tolist(), live.tolist()):
        if fit:
            factor, residual = next(fits)
            out.append(ProportionalityResult(factor, residual, "fit"))
        elif na_i <= floor:
            out.append(ProportionalityResult(None, 0.0, "vacuous"))
        else:
            residual = _normalized(na_i, na_i + nb_i)
            out.append(ProportionalityResult(None, residual, "inconsistent"))
    return out


def rank_shift(S, g, alpha) -> np.ndarray:
    """Numerical rank of S - alpha*g via singular values.

    Threshold 1e-9 * sigma_max; an exactly zero matrix has rank 0.  alpha
    is ranked with one stacked SVD and gives an integer array of its
    shape, 0-d (a numpy integer) for a scalar.  alpha broadcasts against
    the leading axes of S and g: a chunk of points ranks its candidates
    alpha[p, k] against S[:, None] and g[:, None].
    """
    alphas = np.asarray(alpha, dtype=float)
    M = _asarray(S) - alphas[..., None, None] * _asarray(g)
    sigma = np.linalg.svd(M, compute_uv=False)
    return np.count_nonzero(sigma > 1e-9 * sigma[..., :1], axis=-1)
