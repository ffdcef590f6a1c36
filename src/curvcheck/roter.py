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

curvature_products builds, on first read, each of the twelve derivation
and Tachibana products the identities compare.  identity_suite(frame, fit,
products) evaluates the ten tensor identities these scalars satisfy,
plus three checks of the closed-form L_R, L_C and L against the factors
pseudosymmetry_factors(frame, products) measures from those same
products, and reports one residual per entry.  The products are packed
on bivectors (see curvops), whose norms and inner products equal the
dense ones, so every residual and factor reads them as it would read
dense tensors.
ricci_pseudosymmetry(frame, products) reads R.S and Q(g,S) from the
same products.  classify sorts a point into EINSTEIN / QUASI_EINSTEIN /
ROTER / OTHER and keeps the Ricci operator's real eigenvalues, which its
quasi-Einstein scan and rank_grid_exceeds_one read; each ranks all its
alpha candidates in one rank_shift call.
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
    "curvature_products",
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
    """Accepted decomposition coefficients plus derived scalars."""

    phi: float
    mu: float
    eta: float
    residual: float
    alpha1: float
    alpha2: float
    L_R: float
    L: float
    L_C: float
    gram_condition: float


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


def fit_roter(frame: PointFrame) -> RoterFit:
    """Least-squares decomposition of the curvature tensor at a point.

    Requires dimension >= 4 and membership in both open sets; rejects
    ill-conditioned bases (Gram condition above GRAM_CONDITION_LIMIT =
    1e14) and fits whose relative reconstruction residual exceeds
    FIT_RESIDUAL_LIMIT = 1e-8.
    """
    n = frame.dim
    if n < 4:
        raise RoterFitError("DIMENSION", f"need dimension >= 4, got {n}")
    if not in_us(frame):
        raise RoterFitError("NOT_IN_US", "Ricci tensor is proportional to the metric")
    if not in_uc(frame):
        raise RoterFitError("NOT_IN_UC", "Weyl tensor vanishes")
    S, g = frame.ricci, frame.g
    B1, B2, B3 = 0.5 * kulkarni_nomizu(S, S), kulkarni_nomizu(g, S), 0.5 * kulkarni_nomizu(g, g)
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
    if residual > FIT_RESIDUAL_LIMIT:
        raise RoterFitError("RESIDUAL", f"reconstruction residual {residual:.3e}")
    kappa = frame.scalar
    alpha1 = kappa + ((n - 2) * mu - 1.0) / phi
    alpha2 = (mu * kappa + (n - 1) * eta) / phi
    L_R = ((n - 2) * (mu * mu - phi * eta) - mu) / phi
    L = L_R + mu / phi
    L_C = L_R + (kappa / (n - 1) - alpha1) / (n - 2)
    return RoterFit(phi, mu, eta, residual, alpha1, alpha2, L_R, L, L_C, gram_cond)


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


# Each product from the frame, as the identities compare them.
_PRODUCTS = {
    "RR": lambda f: derivation_apply(f.riemann, f.riemann, f.ginv),
    "RC": lambda f: derivation_apply(f.riemann, f.weyl, f.ginv),
    "RS": lambda f: derivation_apply(f.riemann, f.ricci, f.ginv),
    "CC": lambda f: derivation_apply(f.weyl, f.weyl, f.ginv),
    "CR": lambda f: derivation_apply(f.weyl, f.riemann, f.ginv),
    "CS": lambda f: derivation_apply(f.weyl, f.ricci, f.ginv),
    "QgR": lambda f: tachibana(f.g, f.riemann),
    "QgS": lambda f: tachibana(f.g, f.ricci),
    "QgC": lambda f: tachibana(f.g, f.weyl),
    "QSR": lambda f: tachibana(f.ricci, f.riemann),
    "QSC": lambda f: tachibana(f.ricci, f.weyl),
    "QSG": lambda f: tachibana(f.ricci, unit_curvature(f.g)),
}


class _Products(dict):
    def __init__(self, frame: PointFrame):
        super().__init__()
        self.frame = frame

    def __missing__(self, key: str) -> np.ndarray:
        value = self[key] = _PRODUCTS[key](self.frame)
        return value


def curvature_products(frame: PointFrame) -> dict[str, np.ndarray]:
    """The derivation products X.Y and Tachibana tensors Q(A,T) the
    identities compare, keyed by name (RR = R.R, QgC = Q(g,C), ...).

    Each is built on first read, packed on bivectors (see curvops): at
    n = 6 an order-6 product is a (15, 15, 15) array of 27 KB and all
    twelve take about 0.26 MB.  Callers hold them for one point only;
    they are not kept on the frame.
    """
    return _Products(frame)


def identity_suite(frame: PointFrame, fit: RoterFit,
                   products: dict[str, np.ndarray]) -> dict[str, float]:
    """Residuals of the ten tensor identities implied by the decomposition,
    and of the closed-form L_R, L_C, L against their measured factors.

    products are curvature_products(frame).  The ten identities use the
    sum-plus-one Frobenius normalization, the three factor checks the
    scalar one, against pseudosymmetry_factors over the same products.
    An accepted fit on exact-derivative input keeps all thirteen near
    1e-13.
    """
    n = frame.dim
    S, g, kappa = frame.ricci, frame.g, frame.scalar
    P = products
    phi, mu, eta = fit.phi, fit.mu, fit.eta
    measured = pseudosymmetry_factors(frame, products)
    return {
        "ricci_square_affine": tensor_residual(
            frame.ricci_sq, fit.alpha1 * S + fit.alpha2 * g
        ),
        "rr_vs_qgr": tensor_residual(P["RR"], fit.L_R * P["QgR"]),
        "rc_vs_qgc": tensor_residual(P["RC"], fit.L_R * P["QgC"]),
        "rs_vs_qgs": tensor_residual(P["RS"], fit.L_R * P["QgS"]),
        "rr_vs_qsr_plus_qgc": tensor_residual(P["RR"], P["QSR"] + fit.L * P["QgC"]),
        "cc_vs_qgc": tensor_residual(P["CC"], fit.L_C * P["QgC"]),
        "cr_vs_qgr": tensor_residual(P["CR"], fit.L_C * P["QgR"]),
        "cs_vs_qgs": tensor_residual(P["CS"], fit.L_C * P["QgS"]),
        "commutator_vs_qgr_qsg": tensor_residual(
            P["RC"] - P["CR"],
            ((1.0 / phi) * (mu - 1.0 / (n - 2)) + kappa / (n - 1)) * P["QgR"]
            + ((mu / phi) * (mu - 1.0 / (n - 2)) - eta) * P["QSG"],
        ),
        "commutator_vs_qsc_qgc": tensor_residual(
            P["CR"] - P["RC"], P["QSC"] - (kappa / (n - 1)) * P["QgC"]
        ),
        "lr_closed_vs_measured": scalar_residual(fit.L_R, measured["L_R"].factor),
        "lc_closed_vs_measured": scalar_residual(fit.L_C, measured["L_C"].factor),
        "l_closed_vs_measured": scalar_residual(fit.L, measured["L"].factor),
    }


def pseudosymmetry_factors(frame: PointFrame, products: dict[str, np.ndarray]
                           ) -> dict[str, ProportionalityResult]:
    """Directly measured proportionality factors, independent of any fit.

    products are curvature_products(frame).  Keys: L_R (R.R vs Q(g,R)),
    L_C (C.C vs Q(g,C)), L (R.R - Q(S,R) vs Q(g,C)); ricci_pseudosymmetry
    measures L_S (R.S vs Q(g,S)).
    """
    P, n = products, frame.dim
    return {
        "L_R": proportionality(P["RR"], P["QgR"], n),
        "L_C": proportionality(P["CC"], P["QgC"], n),
        "L": proportionality(P["RR"] - P["QSR"], P["QgC"], n),
    }


def ricci_pseudosymmetry(frame: PointFrame, products: dict[str, np.ndarray]
                         ) -> ProportionalityResult:
    """Linear dependence of R.S and Q(g,S), as a standalone check.

    products are curvature_products(frame); R.S and Q(g,S) are read
    from them, not rebuilt.
    """
    return proportionality(products["RS"], products["QgS"], frame.dim)


# ---------------------------------------------------------------------------
# Classification

@dataclass(frozen=True)
class Classification:
    kind: str
    eigenvalues: tuple[float, ...]  # real eigenvalues of the Ricci operator g^{-1} S
    alpha: float | None = None
    fit: RoterFit | None = None
    detail: str = ""


def _real_ricci_eigenvalues(frame: PointFrame) -> tuple[float, ...]:
    # rank(S - alpha g) can only drop at generalized eigenvalues of the
    # Ricci operator; only the real ones are candidates.
    eigs = np.linalg.eigvals(frame.ginv @ frame.ricci)
    return tuple(float(z.real) for z in eigs if abs(z.imag) <= 1e-8 * (1.0 + abs(z.real)))


def _quasi_einstein_alpha(frame: PointFrame, eigenvalues: tuple[float, ...]) -> float | None:
    ranks = rank_shift(frame.ricci, frame.g, eigenvalues)
    return next((alpha for alpha, r in zip(eigenvalues, ranks) if r <= 1), None)


def classify(frame: PointFrame) -> Classification:
    """Sort a point into EINSTEIN, QUASI_EINSTEIN(alpha), ROTER or OTHER."""
    eigenvalues = _real_ricci_eigenvalues(frame)
    if not in_us(frame):
        return Classification(EINSTEIN, eigenvalues, alpha=frame.scalar / frame.dim)
    alpha = _quasi_einstein_alpha(frame, eigenvalues)
    if alpha is not None:
        return Classification(QUASI_EINSTEIN, eigenvalues, alpha=alpha)
    try:
        fit = fit_roter(frame)
    except RoterFitError as err:
        return Classification(OTHER, eigenvalues, detail=str(err))
    return Classification(ROTER, eigenvalues, fit=fit)


def rank_grid_exceeds_one(frame: PointFrame, c: Classification,
                          extra: tuple[float, ...] = ()) -> bool:
    """rank(S - alpha g) > 1 for every alpha on the scan grid.

    c is classify(frame).  The grid spans [-10|kappa|, 10|kappa|] plus
    alpha1/2 of c's fit, any extra candidates (e.g. warped block
    eigenvalues mu1, mu2) and the exact rank-drop loci c.eigenvalues.
    """
    kappa = abs(frame.scalar)
    grid = list(np.linspace(-10 * kappa - 1.0, 10 * kappa + 1.0, 21))
    if c.fit is not None:
        grid.append(c.fit.alpha1 / 2.0)
    grid.extend(extra)
    grid.extend(c.eigenvalues)
    return bool(np.all(rank_shift(frame.ricci, frame.g, grid) > 1))
