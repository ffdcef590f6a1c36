"""Algebraic curvature operators at a point.

Dense numpy kernels for the (0,4)/(0,6) machinery used by every
identity check: the unit curvature tensor G of a metric, the
Kulkarni-Nomizu product of two symmetric (0,2) tensors, the derivation
B . T induced by a generalized curvature tensor, the Tachibana tensor
Q(A,T), least-squares proportionality-factor extraction and numerical
rank of shifted Ricci tensors.

B . T and Q(A,T) are one operation: the derivation of T by a skew
endomorphism field, B(X,Y) (the (0,4) tensor B with its last slot
raised) or X ^_A Y.  Both go through one slot-generic kernel that
contracts the endomorphism into each slot of T in turn, so they serve
tensors of any order.

Component arrays are indexed in direct slot order, T[a,b,c,d] =
T(e_a, e_b, e_c, e_d).  For tensors with the curvature pair symmetries
this coincides with the classical index layout (full index reversal is
the identity on such tensors), so block formulas stated in classical
index form can be read off the same arrays.

Symmetry is checked by the residual suites, never exploited for storage; at
chart dimensions <= 8 dense arrays are trivially cheap and correctness
wins.  All functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _endomorphism(B4: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    # E[x,y,i,s]: component s of the skew endomorphism applied to e_i,
    # recovered from the (0,4) tensor by raising the last slot.
    return np.einsum("xyid,sd->xyis", B4, ginv)


def _derive(E: np.ndarray, T: np.ndarray) -> np.ndarray:
    # (E . T)[a_1..a_k, x, y] = -sum_j T(a_1, .., E(x,y) e_{a_j}, .., a_k):
    # one contraction per slot of T, whatever its order.
    k = T.ndim
    out = np.zeros(T.shape + E.shape[:2])
    for slot in range(k):
        term = np.tensordot(E, T, axes=([3], [slot]))  # [x, y, a_slot, other slots]
        out -= np.moveaxis(term, (0, 1, 2), (k, k + 1, slot))
    return out


def derivation_apply(B4, T, ginv) -> np.ndarray:
    """Apply the derivation induced by a generalized curvature tensor.

    Given the (0,4) tensor B of a skew-symmetric endomorphism field and
    a (0,k) tensor T, returns the (0,k+2) tensor (B . T) with the two
    derivation slots appended last.  Instantiates R.R, R.S, R.C, C.C,
    C.R and C.S.
    """
    B4, T, ginv = _asarray(B4), _asarray(T), _asarray(ginv)
    if B4.shape[0] != T.shape[0]:
        raise ValueError(f"dimension mismatch: {B4.shape} vs {T.shape}")
    return _derive(_endomorphism(B4, ginv), T)


def tachibana(A, T) -> np.ndarray:
    """Tachibana tensor Q(A,T) of a symmetric (0,2) tensor A and (0,k) T.

    The image of T under the derivation induced by the metric-free
    wedge endomorphism (X ^_A Y)Z = A(Y,Z) X - A(X,Z) Y; Q(g,G)
    vanishes identically.
    """
    A, T = _asarray(A), _asarray(T)
    if A.shape[0] != T.shape[0]:
        raise ValueError(f"dimension mismatch: {A.shape} vs {T.shape}")
    half = np.einsum("yi,xs->xyis", A, np.eye(A.shape[0]))
    return _derive(half - np.swapaxes(half, 0, 1), T)


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


def proportionality(lhs, rhs) -> ProportionalityResult:
    """Least-squares factor between equally shaped tensors.

    factor = <lhs, rhs> / <rhs, rhs>; the residual uses the same
    sum-plus-one normalization as tensor_residual.  RHS is degenerate
    when its Frobenius norm is below 1e-12 * dim**2.
    """
    a, b = _asarray(lhs), _asarray(rhs)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    dim = a.shape[0] if a.ndim else 1
    if nb <= 1e-12 * dim * dim:
        if na <= 1e-12 * dim * dim:
            return ProportionalityResult(None, 0.0, True, "vacuous")
        return ProportionalityResult(None, na / (na + nb + 1.0), True, "inconsistent")
    factor = float(np.vdot(b, a) / np.vdot(b, b))
    residual = float(np.linalg.norm(a - factor * b) / (na + nb + 1.0))
    return ProportionalityResult(factor, residual, False, "fit")


def rank_shift(S, g, alpha: float) -> int:
    """Numerical rank of S - alpha*g via singular values.

    Threshold 1e-9 * sigma_max; an exactly zero matrix has rank 0.
    """
    M = _asarray(S) - float(alpha) * _asarray(g)
    sigma = np.linalg.svd(M, compute_uv=False)
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    return int(np.count_nonzero(sigma > 1e-9 * sigma[0]))


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
