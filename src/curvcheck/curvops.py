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
The geometry suite's riemann_symmetry_residuals check, on the dense
frame, the antisymmetries the packing drops.

Dense component arrays are indexed in direct slot order, T[a,b,c,d] =
T(e_a, e_b, e_c, e_d).  For tensors with the curvature pair symmetries
this coincides with the classical index layout (full index reversal is
the identity on such tensors), so block formulas stated in classical
index form can be read off the same arrays.

All public functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

__all__ = [
    "ProportionalityResult",
    "unit_curvature",
    "kulkarni_nomizu",
    "derivation_apply",
    "tachibana",
    "proportionality",
    "rank_shift",
    "tensor_residual",
    "scalar_residual",
    "max_abs_residual",
    "zero_residual",
    "constancy_residual",
    "riemann_symmetry_residuals",
    "trace_residual",
]


def _asarray(t) -> np.ndarray:
    return np.asarray(t, dtype=float)


# ---------------------------------------------------------------------------
# Residual conventions.  Tensor and scalar residuals are normalized by
# (|lhs| + |rhs| + 1): relative for O(1)-or-larger quantities, absolute
# near zero, and never spuriously large when both sides vanish.

def tensor_residual(lhs, rhs) -> float:
    """Frobenius residual of lhs == rhs, sum-plus-one normalized."""
    a, b = _asarray(lhs), _asarray(rhs)
    return float(np.linalg.norm(a - b) / (np.linalg.norm(a) + np.linalg.norm(b) + 1.0))


def scalar_residual(lhs: float, rhs: float) -> float:
    return abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1.0)


def max_abs_residual(lhs, rhs) -> float:
    """Componentwise max-abs residual, sum-plus-one normalized."""
    a, b = _asarray(lhs), _asarray(rhs)
    denom = float(np.max(np.abs(a)) + np.max(np.abs(b)) + 1.0)
    return float(np.max(np.abs(a - b)) / denom)


def zero_residual(t, reference=None) -> float:
    """Max-abs of t, normalized by the scale of a reference tensor."""
    a = _asarray(t)
    scale = 1.0 if reference is None else float(np.max(np.abs(_asarray(reference))) + 1.0)
    return float(np.max(np.abs(a)) / scale)


def constancy_residual(values) -> float:
    """Standard deviation of a sample, normalized by (1 + |mean|)."""
    v = np.asarray(values, dtype=float)
    return float(np.std(v) / (1.0 + abs(float(np.mean(v)))))


# ---------------------------------------------------------------------------
# Products

def unit_curvature(g: np.ndarray) -> np.ndarray:
    """G[a,b,c,d] = g_bc g_ad - g_ac g_bd; satisfies g^g = 2G."""
    g = _asarray(g)
    return np.einsum("ad,bc->abcd", g, g) - np.einsum("ac,bd->abcd", g, g)


def kulkarni_nomizu(A, B) -> np.ndarray:
    """Kulkarni-Nomizu product of symmetric (0,2) tensors.

    (A^B)[a,b,c,d] = A_ad B_bc + A_bc B_ad - A_ac B_bd - A_bd B_ac.
    The result carries the full curvature symmetries.
    """
    A, B = _asarray(A), _asarray(B)
    if A.shape != B.shape:
        raise ValueError(f"dimension mismatch: {A.shape} vs {B.shape}")
    return (
        np.einsum("ad,bc->abcd", A, B)
        + np.einsum("bc,ad->abcd", A, B)
        - np.einsum("ac,bd->abcd", A, B)
        - np.einsum("bd,ac->abcd", A, B)
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
    # E[X, i, s]: component s of E(X) e_i, for each pair X, x < y.  The
    # packed (E . T), derivation pair last: (n, n, m) or (m, m, m).
    n, m = T.shape[0], E.shape[0]
    if T.ndim == 2:
        K = -np.sqrt(2.0) * E
    elif T.ndim == 4:
        _, quads, _, lift = _bivectors(n)
        K = (E.reshape(m, n * n) @ lift).reshape(m, m, m)
        T = T.take(quads).reshape(m, m)
    else:
        raise ValueError(f"packed derivation needs an order-2 or order-4 tensor, got {T.shape}")
    out = K @ T
    out += T @ K.transpose(0, 2, 1)
    return out.transpose(1, 2, 0)


def derivation_apply(B4, T, ginv) -> np.ndarray:
    """Apply the derivation induced by a generalized curvature tensor.

    Given the (0,4) tensor B of a skew-symmetric endomorphism field and
    a (0,k) tensor T, returns the (0,k+2) tensor (B . T) with the two
    derivation slots appended last, packed on bivectors (see the module
    docstring; m = n(n-1)/2, pairs X < Y, sqrt(2) per packed pair):
    an (n, n, m) array for any order-2 T, an (m, m, m) array for an
    order-4 T antisymmetric in both pairs.  Only components with
    x < y of B's first pair and, for order 4, a < b and c < d of T are
    read.  Instantiates R.R, R.S, R.C, C.C, C.R and C.S.
    """
    B4, T, ginv = _asarray(B4), _asarray(T), _asarray(ginv)
    n = B4.shape[0]
    if n != T.shape[0]:
        raise ValueError(f"dimension mismatch: {B4.shape} vs {T.shape}")
    rows = _bivectors(n)[0]
    # E(X)[i, s] for X = (x, y), x < y: B's rows X, last slot raised.
    return _derive(B4.reshape(n * n, n, n).take(rows, axis=0) @ ginv.T, T)


def tachibana(A, T) -> np.ndarray:
    """Tachibana tensor Q(A,T) of a symmetric (0,2) tensor A and (0,k) T.

    The image of T under the derivation induced by the metric-free
    wedge endomorphism (X ^_A Y)Z = A(Y,Z) X - A(X,Z) Y, packed as
    derivation_apply's result: (n, n, m) for any order-2 T, (m, m, m)
    for an order-4 T antisymmetric in both pairs.  Q(g,G) vanishes
    identically.
    """
    A, T = _asarray(A), _asarray(T)
    n = A.shape[0]
    if n != T.shape[0]:
        raise ValueError(f"dimension mismatch: {A.shape} vs {T.shape}")
    # E(X)[i, s] = A[y, i] d_xs - A[x, i] d_ys = (A^T (e_x ^ e_y))[i, s]
    return _derive(A.T @ _bivectors(n)[2], T)


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
    degenerate: bool
    verdict: str


def proportionality(lhs, rhs, dim: int) -> ProportionalityResult:
    """Least-squares factor between equally shaped tensors.

    factor = <lhs, rhs> / <rhs, rhs>; the residual uses the same
    sum-plus-one normalization as tensor_residual.  RHS is degenerate
    when its Frobenius norm is below 1e-12 * dim**2, dim being the chart
    dimension n (not a packed product's leading axis m).
    """
    a, b = _asarray(lhs), _asarray(rhs)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    if nb <= 1e-12 * dim * dim:
        if na <= 1e-12 * dim * dim:
            return ProportionalityResult(None, 0.0, True, "vacuous")
        return ProportionalityResult(None, na / (na + nb + 1.0), True, "inconsistent")
    factor = float(np.vdot(b, a) / np.vdot(b, b))
    residual = float(np.linalg.norm(a - factor * b) / (na + nb + 1.0))
    return ProportionalityResult(factor, residual, False, "fit")


def rank_shift(S, g, alpha) -> int | np.ndarray:
    """Numerical rank of S - alpha*g via singular values.

    Threshold 1e-9 * sigma_max; an exactly zero matrix has rank 0.  An
    array of alpha is ranked with one stacked SVD and gives an integer
    array of its shape; a scalar alpha gives an int.
    """
    alphas = np.asarray(alpha, dtype=float)
    M = _asarray(S) - alphas[..., None, None] * _asarray(g)
    sigma = np.linalg.svd(M, compute_uv=False)
    ranks = np.count_nonzero(sigma > 1e-9 * sigma[..., :1], axis=-1)
    return int(ranks) if ranks.ndim == 0 else ranks


# ---------------------------------------------------------------------------
# Symmetry suites

def riemann_symmetry_residuals(R) -> dict[str, float]:
    """Max-abs residuals of the algebraic curvature symmetries.

    Keys: skew_first_pair, skew_last_pair, pair_exchange, first_cyclic.
    Each is normalized by (max|R| + 1).
    """
    R = _asarray(R)
    scale = float(np.max(np.abs(R)) + 1.0)
    out = {
        "skew_first_pair": float(np.max(np.abs(R + np.swapaxes(R, 0, 1)))) / scale,
        "skew_last_pair": float(np.max(np.abs(R + np.swapaxes(R, 2, 3)))) / scale,
        "pair_exchange": float(np.max(np.abs(R - np.transpose(R, (2, 3, 0, 1))))) / scale,
        "first_cyclic": float(
            np.max(np.abs(R + np.transpose(R, (2, 0, 1, 3)) + np.transpose(R, (1, 2, 0, 3))))
        )
        / scale,
    }
    return out


def trace_residual(C, ginv) -> float:
    """Largest metric trace of a (0,4) tensor over all slot pairs.

    Zero (to tolerance) exactly when the tensor is totally trace-free,
    as the Weyl tensor must be.  Normalized by (max|C| + 1).
    """
    C, ginv = _asarray(C), _asarray(ginv)
    scale = float(np.max(np.abs(C)) + 1.0)
    worst = 0.0
    for subs in ("ab,abcd->cd", "ac,abcd->bd", "ad,abcd->bc",
                 "bc,abcd->ad", "bd,abcd->ac", "cd,abcd->ab"):
        tr = np.einsum(subs, ginv, C)
        worst = max(worst, float(np.max(np.abs(tr))))
    return worst / scale
