"""Roter decomposition, classification and the pseudosymmetry identity suite.

At a point whose Ricci tensor is not proportional to the metric and
whose Weyl tensor does not vanish, the curvature tensor of a Roter-type
space decomposes as

    R = (phi/2) S^S + mu g^S + (eta/2) g^g        (^ = Kulkarni-Nomizu)

fit_roter solves this 3-parameter system by least squares over the
flattened (0,4) tensors and derives the scalars that govern every
pseudosymmetry-type condition the decomposition implies:

    alpha1 = kappa + ((n-2) mu - 1)/phi        (S^2 = alpha1 S + alpha2 g)
    alpha2 = (mu kappa + (n-1) eta)/phi
    L_R    = ((n-2)(mu^2 - phi eta) - mu)/phi  (R.R = L_R Q(g,R))
    L      = L_R + mu/phi                      (R.R = Q(S,R) + L Q(g,C))
    L_C    = L_R + (kappa/(n-1) - alpha1)/(n-2)   (C.C = L_C Q(g,C))

identity_suite evaluates the ten tensor identities these scalars
satisfy, plus three checks of the closed-form L_R, L_C and L against
the factors measured from the same products, and reports one residual
per entry.  classify sorts a point into EINSTEIN / QUASI_EINSTEIN /
ROTER / OTHER.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvops import (
    ProportionalityResult,
    derivation_apply,
    kulkarni_nomizu,
    proportionality,
    rank_shift,
    scalar_residual,
    tachibana,
    tensor_residual,
    unit_curvature,
)
from .geometry import PointFrame

__all__ = [
    "RoterFit",
    "RoterFitError",
    "Classification",
    "fit_roter",
    "in_us",
    "in_uc",
    "in_ur",
    "identity_suite",
    "pseudosymmetry_factors",
    "ricci_pseudosymmetry",
    "classify",
    "rank_grid_exceeds_one",
    "IDENTITY_NAMES",
]

# Relative thresholds for membership in the open sets where the
# decomposition is defined (engine decision, reported not assumed).
US_THRESHOLD = 1e-9
UC_THRESHOLD = 1e-9
UR_THRESHOLD = 1e-9

FIT_RESIDUAL_LIMIT = 1e-8
# Condition limit for the Gram matrix of unit-normalized basis tensors.
# The least-squares solve loses about sqrt(cond) digits, so 1e14 keeps
# coefficient accuracy near 1e-9 while still rejecting bases that are
# genuinely collapsing (near-Einstein Ricci).
GRAM_CONDITION_LIMIT = 1e14

EINSTEIN = "EINSTEIN"
QUASI_EINSTEIN = "QUASI_EINSTEIN"
ROTER = "ROTER"
OTHER = "OTHER"


class RoterFitError(ValueError):
    """Fit rejected; reason is one of NOT_IN_US, NOT_IN_UC, ILL_CONDITIONED,
    RESIDUAL, DIMENSION."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason


@dataclass(frozen=True)
class RoterFit:
    """Accepted decomposition coefficients plus derived scalars.

    nu = (mu2 - mu1)^-2 is populated only when the fit is produced from
    warped-product closed forms; the least-squares path leaves it None.
    """

    phi: float
    mu: float
    eta: float
    residual: float
    in_US: bool
    in_UC: bool
    alpha1: float
    alpha2: float
    L_R: float
    L: float
    L_C: float
    gram_condition: float
    nu: float | None = None


def in_us(frame: PointFrame) -> bool:
    """Ricci not proportional to the metric (relative threshold 1e-9)."""
    n = frame.dim
    dev = frame.ricci - (frame.scalar / n) * frame.g
    return float(np.linalg.norm(dev)) > US_THRESHOLD * float(np.linalg.norm(frame.ricci)) + 1e-12


def in_uc(frame: PointFrame) -> bool:
    """Weyl tensor nonzero relative to the curvature scale."""
    return float(np.linalg.norm(frame.weyl)) > UC_THRESHOLD * (
        float(np.linalg.norm(frame.riemann)) + 1e-12
    )


def in_ur(frame: PointFrame) -> bool:
    """Curvature not of constant-curvature form (R != kappa/((n-1)n) G)."""
    n = frame.dim
    dev = frame.riemann - (frame.scalar / ((n - 1) * n)) * unit_curvature(frame.g)
    return float(np.linalg.norm(dev)) > UR_THRESHOLD * (
        float(np.linalg.norm(frame.riemann)) + 1e-12
    )


def _basis(frame: PointFrame) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    S, g = frame.ricci, frame.g
    return (
        0.5 * kulkarni_nomizu(S, S),
        kulkarni_nomizu(g, S),
        0.5 * kulkarni_nomizu(g, g),
    )


def _derived(phi, mu, eta, kappa, n):
    alpha1 = kappa + ((n - 2) * mu - 1.0) / phi
    alpha2 = (mu * kappa + (n - 1) * eta) / phi
    L_R = ((n - 2) * (mu * mu - phi * eta) - mu) / phi
    L = L_R + mu / phi
    L_C = L_R + (kappa / (n - 1) - alpha1) / (n - 2)
    return alpha1, alpha2, L_R, L, L_C


def fit_roter(frame: PointFrame, residual_limit: float = FIT_RESIDUAL_LIMIT) -> RoterFit:
    """Least-squares decomposition of the curvature tensor at a point.

    Requires dimension >= 4 and membership in both open sets; rejects
    ill-conditioned bases (Gram condition above GRAM_CONDITION_LIMIT =
    1e14) and fits whose relative reconstruction residual exceeds
    residual_limit.
    """
    n = frame.dim
    if n < 4:
        raise RoterFitError("DIMENSION", f"need dimension >= 4, got {n}")
    us, uc = in_us(frame), in_uc(frame)
    if not us:
        raise RoterFitError("NOT_IN_US", "Ricci tensor is proportional to the metric")
    if not uc:
        raise RoterFitError("NOT_IN_UC", "Weyl tensor vanishes")
    B1, B2, B3 = _basis(frame)
    A = np.stack([B1.ravel(), B2.ravel(), B3.ravel()], axis=1)
    # Columns carry wildly different physical scales (S^S vs g^g), so the
    # Gram matrix is formed on unit columns: its condition number then
    # measures genuine near-dependence of the span, not units.
    scales = np.linalg.norm(A, axis=0)
    if np.any(scales == 0.0):
        raise RoterFitError("ILL_CONDITIONED", "degenerate basis tensor")
    An = A / scales
    gram = An.T @ An
    gram_cond = float(np.linalg.cond(gram))
    if gram_cond > GRAM_CONDITION_LIMIT:
        raise RoterFitError("ILL_CONDITIONED", f"Gram condition {gram_cond:.3e}")
    coeffs, _, _, _ = np.linalg.lstsq(An, frame.riemann.ravel(), rcond=None)
    phi, mu, eta = map(float, coeffs / scales)
    recon = phi * B1 + mu * B2 + eta * B3
    r_norm = float(np.linalg.norm(frame.riemann))
    residual = float(np.linalg.norm(frame.riemann - recon)) / (r_norm + 1e-300)
    if residual > residual_limit:
        raise RoterFitError("RESIDUAL", f"reconstruction residual {residual:.3e}")
    alpha1, alpha2, L_R, L, L_C = _derived(phi, mu, eta, frame.scalar, n)
    return RoterFit(
        phi, mu, eta, residual, us, uc, alpha1, alpha2, L_R, L, L_C, gram_cond
    )


# ---------------------------------------------------------------------------
# Identity suite

IDENTITY_NAMES = (
    "ricci_square_affine",      # S^2 = alpha1 S + alpha2 g
    "rr_vs_qgr",                # R.R = L_R Q(g,R)
    "rc_vs_qgc",                # R.C = L_R Q(g,C)
    "rs_vs_qgs",                # R.S = L_R Q(g,S)
    "rr_vs_qsr_plus_qgc",       # R.R = Q(S,R) + L Q(g,C)
    "cc_vs_qgc",                # C.C = L_C Q(g,C)
    "cr_vs_qgr",                # C.R = L_C Q(g,R)
    "cs_vs_qgs",                # C.S = L_C Q(g,S)
    "commutator_vs_qgr_qsg",    # R.C - C.R in terms of Q(g,R), Q(S,G)
    "commutator_vs_qsc_qgc",    # C.R - R.C = Q(S,C) - kappa/(n-1) Q(g,C)
    "lr_closed_vs_measured",    # L_R vs the fitted factor of R.R on Q(g,R)
    "lc_closed_vs_measured",    # L_C vs the fitted factor of C.C on Q(g,C)
    "l_closed_vs_measured",     # L vs the fitted factor of R.R - Q(S,R) on Q(g,C)
)


def identity_suite(frame: PointFrame, fit: RoterFit) -> dict[str, float]:
    """Residuals of the ten tensor identities implied by the decomposition,
    and of the closed-form L_R, L_C, L against their measured factors.

    The ten identities use the sum-plus-one Frobenius normalization, the
    three factor checks the scalar one; the factors are measured with
    proportionality from the same products, as pseudosymmetry_factors
    would.  An accepted fit on exact-derivative input keeps all thirteen
    near 1e-13.
    """
    n = frame.dim
    R, S, C, g, ginv = frame.riemann, frame.ricci, frame.weyl, frame.g, frame.ginv
    kappa = frame.scalar
    G = unit_curvature(g)

    RR = derivation_apply(R, R, ginv)
    RC = derivation_apply(R, C, ginv)
    RS = derivation_apply(R, S, ginv)
    CC = derivation_apply(C, C, ginv)
    CR = derivation_apply(C, R, ginv)
    CS = derivation_apply(C, S, ginv)
    QgR, QgS, QgC = tachibana(g, R), tachibana(g, S), tachibana(g, C)
    QSR, QSC, QSG = tachibana(S, R), tachibana(S, C), tachibana(S, G)

    phi, mu, eta = fit.phi, fit.mu, fit.eta
    commutator_rhs = (
        ((1.0 / phi) * (mu - 1.0 / (n - 2)) + kappa / (n - 1)) * QgR
        + ((mu / phi) * (mu - 1.0 / (n - 2)) - eta) * QSG
    )
    return {
        "ricci_square_affine": tensor_residual(
            frame.ricci_sq, fit.alpha1 * S + fit.alpha2 * g
        ),
        "rr_vs_qgr": tensor_residual(RR, fit.L_R * QgR),
        "rc_vs_qgc": tensor_residual(RC, fit.L_R * QgC),
        "rs_vs_qgs": tensor_residual(RS, fit.L_R * QgS),
        "rr_vs_qsr_plus_qgc": tensor_residual(RR, QSR + fit.L * QgC),
        "cc_vs_qgc": tensor_residual(CC, fit.L_C * QgC),
        "cr_vs_qgr": tensor_residual(CR, fit.L_C * QgR),
        "cs_vs_qgs": tensor_residual(CS, fit.L_C * QgS),
        "commutator_vs_qgr_qsg": tensor_residual(RC - CR, commutator_rhs),
        "commutator_vs_qsc_qgc": tensor_residual(
            CR - RC, QSC - (kappa / (n - 1)) * QgC
        ),
        "lr_closed_vs_measured": scalar_residual(fit.L_R, proportionality(RR, QgR).factor),
        "lc_closed_vs_measured": scalar_residual(fit.L_C, proportionality(CC, QgC).factor),
        "l_closed_vs_measured": scalar_residual(fit.L, proportionality(RR - QSR, QgC).factor),
    }


def pseudosymmetry_factors(frame: PointFrame) -> dict[str, ProportionalityResult]:
    """Directly measured proportionality factors, independent of any fit.

    Keys: L_R (R.R vs Q(g,R)), L_C (C.C vs Q(g,C)),
    L (R.R - Q(S,R) vs Q(g,C)), L_S (R.S vs Q(g,S)).
    """
    R, S, C, g, ginv = frame.riemann, frame.ricci, frame.weyl, frame.g, frame.ginv
    RR = derivation_apply(R, R, ginv)
    CC = derivation_apply(C, C, ginv)
    RS = derivation_apply(R, S, ginv)
    QSR = tachibana(S, R)
    return {
        "L_R": proportionality(RR, tachibana(g, R)),
        "L_C": proportionality(CC, tachibana(g, C)),
        "L": proportionality(RR - QSR, tachibana(g, C)),
        "L_S": proportionality(RS, tachibana(g, S)),
    }


def ricci_pseudosymmetry(frame: PointFrame) -> ProportionalityResult:
    """Linear dependence of R.S and Q(g,S), as a standalone check."""
    RS = derivation_apply(frame.riemann, frame.ricci, frame.ginv)
    return proportionality(RS, tachibana(frame.g, frame.ricci))


# ---------------------------------------------------------------------------
# Classification

@dataclass(frozen=True)
class Classification:
    kind: str
    alpha: float | None = None
    fit: RoterFit | None = None
    detail: str = ""


def _einstein(frame: PointFrame) -> bool:
    n = frame.dim
    dev = frame.ricci - (frame.scalar / n) * frame.g
    return float(np.linalg.norm(dev)) <= 1e-9 * float(np.linalg.norm(frame.ricci)) + 1e-12


def _quasi_einstein_alpha(frame: PointFrame) -> float | None:
    # rank(S - alpha g) can only drop at generalized eigenvalues of the
    # Ricci operator; scan the real ones.
    eigs = np.linalg.eigvals(frame.ginv @ frame.ricci)
    best = None
    for lam in eigs:
        if abs(lam.imag) > 1e-8 * (1.0 + abs(lam.real)):
            continue
        alpha = float(lam.real)
        if rank_shift(frame.ricci, frame.g, alpha) <= 1:
            best = alpha
            break
    return best


def classify(frame: PointFrame) -> Classification:
    """Sort a point into EINSTEIN, QUASI_EINSTEIN(alpha), ROTER or OTHER."""
    if _einstein(frame):
        return Classification(EINSTEIN, alpha=frame.scalar / frame.dim)
    alpha = _quasi_einstein_alpha(frame)
    if alpha is not None:
        return Classification(QUASI_EINSTEIN, alpha=alpha)
    try:
        fit = fit_roter(frame)
    except RoterFitError as err:
        return Classification(OTHER, detail=str(err))
    return Classification(ROTER, fit=fit)


def rank_grid_exceeds_one(frame: PointFrame, fit: RoterFit | None = None,
                          extra: tuple[float, ...] = ()) -> bool:
    """rank(S - alpha g) > 1 for every alpha on the scan grid.

    The grid spans [-10|kappa|, 10|kappa|] plus alpha1/2 and any extra
    candidates (e.g. warped block eigenvalues mu1, mu2), plus the exact
    rank-drop loci (Ricci operator eigenvalues).
    """
    kappa = abs(frame.scalar)
    grid = list(np.linspace(-10 * kappa - 1.0, 10 * kappa + 1.0, 21))
    if fit is not None:
        grid.append(fit.alpha1 / 2.0)
    grid.extend(extra)
    eigs = np.linalg.eigvals(frame.ginv @ frame.ricci)
    grid.extend(float(z.real) for z in eigs if abs(z.imag) < 1e-8 * (1 + abs(z.real)))
    return all(rank_shift(frame.ricci, frame.g, a) > 1 for a in grid)
