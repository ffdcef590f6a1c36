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
and Tachibana products the identities compare.  identity_suite(frame,
fits, products) evaluates the ten tensor identities these scalars
satisfy, plus three checks of the closed-form L_R, L_C and L against
the factors pseudosymmetry_factors(frame, products) measures from those
same products, and reports one residual per entry.  The products are
packed on bivectors (see curvops), whose norms and inner products equal
the dense ones, so every residual and factor reads them as it would
read dense tensors.  ricci_pseudosymmetry(frame, products) reads R.S
and Q(g,S) from the same products.  classify sorts a point into
EINSTEIN / QUASI_EINSTEIN / ROTER / OTHER; one stacked rank scan ranks
S - alpha g at the Ricci operator's real eigenvalues (the quasi-Einstein
test), and rank_grid_exceeds_one ranks alpha1/2 of each ROTER fit and
its extra candidates in one more.

Chunks.  Every entry takes a stacked frame of one chart's points, as
geometry.frames builds it (each array with a leading point axis), and
returns one result per lane: a list of Classification, of residual
dicts or of ProportionalityResult, a boolean array for membership and
the rank flag, and from fit_roter each lane's RoterFit or RoterFitError
(returned, not raised).  A lane that a step does not apply to is
indexed out before the step, and no step mixes lanes, so a lane's
result does not depend on the rest of its chunk.  classify holds a
lane's whole verdict: its kind, membership, fit or rejection message
and rank flag, from one fit_roter and one rank_grid_exceeds_one
call over the chunk.

A caller runs every entry once per chunk of chunk_size(n) points (n**4
floats a point within CHUNK_BYTES = 256 KB: 128 at n = 4, 52 at n = 5,
25 at n = 6, 13 at n = 7), and the products and their readers once per
group of product_lanes(n) lanes (m**3 floats a lane, m = n(n-1)/2, within
PRODUCT_BYTES = 128 KB: 75 at n = 4, 16 at n = 5, 4 at n = 6, 1 at n = 7).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .curvops import (
    derivation_apply,
    kulkarni_nomizu,
    lane_norms,
    lane_residuals,
    proportionality,
    rank_shift,
    scalar_residual,
    tachibana,
    unit_curvature,
)
from .geometry import PointFrame

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

# Bytes of a chunk's stacked order-4 array and of a product group's order-6 product.
CHUNK_BYTES = 256 * 1024
PRODUCT_BYTES = 128 * 1024

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


def chunk_size(n: int) -> int:
    """Points per chunk at chart dimension n: at least one, and as many as
    keep a point's order-4 curvature array (n**4 floats) within CHUNK_BYTES."""
    return max(1, CHUNK_BYTES // (8 * n ** 4))


def product_lanes(n: int) -> int:
    """Lanes per group of curvature_products at chart dimension n: at least one,
    and as many as keep a lane's order-6 product (m**3 floats) within PRODUCT_BYTES."""
    m = n * (n - 1) // 2
    return max(1, PRODUCT_BYTES // (8 * m ** 3))


def in_us(frame: PointFrame) -> np.ndarray:
    """Ricci not proportional to the metric (relative threshold 1e-9)."""
    dev = frame.ricci - (frame.scalar / frame.dim)[:, None, None] * frame.g
    return lane_norms(dev) > US_THRESHOLD * lane_norms(frame.ricci) + 1e-12


def in_uc(frame: PointFrame) -> np.ndarray:
    """Weyl tensor nonzero relative to the curvature scale."""
    return lane_norms(frame.weyl) > UC_THRESHOLD * (lane_norms(frame.riemann) + 1e-12)


def in_ur(frame: PointFrame) -> np.ndarray:
    """Curvature not of constant-curvature form (R != kappa/((n-1)n) G)."""
    n = frame.dim
    sectional = frame.scalar / ((n - 1) * n)
    dev = frame.riemann - sectional[:, None, None, None, None] * unit_curvature(frame.g)
    return lane_norms(dev) > UR_THRESHOLD * (lane_norms(frame.riemann) + 1e-12)


def fit_roter(frame: PointFrame) -> list:
    """Least-squares decomposition of the curvature tensor, lane by lane.

    Requires dimension >= 4 and membership in both open sets; rejects
    ill-conditioned bases (Gram condition above GRAM_CONDITION_LIMIT =
    1e14) and fits whose relative reconstruction residual exceeds
    FIT_RESIDUAL_LIMIT = 1e-8.  Each lane holds its RoterFit or its
    RoterFitError.
    """
    n = frame.dim
    if n < 4:
        return [RoterFitError("DIMENSION", f"need dimension >= 4, got {n}") for _ in frame.g]
    fits = [None] * len(frame.g)
    us, uc = in_us(frame), in_uc(frame)
    for i in np.flatnonzero(~us):
        fits[i] = RoterFitError("NOT_IN_US", "Ricci tensor is proportional to the metric")
    for i in np.flatnonzero(us & ~uc):
        fits[i] = RoterFitError("NOT_IN_UC", "Weyl tensor vanishes")
    lanes = np.flatnonzero(us & uc)
    if len(lanes):
        for i, fit in zip(lanes, _decompose(frame.take(lanes))):
            fits[i] = fit
    return fits


def _decompose(f: PointFrame) -> list:
    # fit_roter on lanes inside U_S and U_C.
    n, S, g = f.dim, f.ricci, f.g
    # Rows: each lane's basis tensors (1/2) S^S, g^S and (1/2) g^g, flat.
    B = np.stack([0.5 * kulkarni_nomizu(S, S), kulkarni_nomizu(g, S),
                  0.5 * kulkarni_nomizu(g, g)], axis=1).reshape(len(S), 3, -1)
    R = f.riemann.reshape(len(S), -1)
    # The basis tensors carry wildly different physical scales (S^S vs
    # g^g), so the Gram matrix is read on unit tensors: its condition
    # number then measures genuine near-dependence of the span, not
    # units.  One SVD of the unit columns An = U s Vt gives both the
    # condition of An^T An, (s_max/s_min)**2, and the least-squares fit.
    scales = np.sqrt(np.einsum("pkn,pkn->pk", B, B))
    out: list = [RoterFitError("ILL_CONDITIONED", "degenerate basis tensor") for _ in S]
    # Lanes leave the arrays only when some lane drops out.
    live = np.arange(len(S))
    nonzero = np.all(scales != 0.0, axis=-1)
    if not nonzero.all():
        live, B, R, scales = live[nonzero], B[nonzero], R[nonzero], scales[nonzero]
        if not len(live):
            return out
    U, s, Vt = np.linalg.svd((B / scales[..., None]).swapaxes(-1, -2), full_matrices=False)
    with np.errstate(divide="ignore", over="ignore"):
        gram_cond = (s[:, 0] / s[:, -1]) ** 2
    for k in np.flatnonzero(gram_cond > GRAM_CONDITION_LIMIT):
        out[live[k]] = RoterFitError("ILL_CONDITIONED", f"Gram condition {gram_cond[k]:.3e}")
    keep = gram_cond <= GRAM_CONDITION_LIMIT
    if not keep.all():
        live, B, R, scales = live[keep], B[keep], R[keep], scales[keep]
        U, s, Vt, gram_cond = U[keep], s[keep], Vt[keep], gram_cond[keep]
    y = (R[:, None, :] @ U)[:, 0, :] / s
    coeffs = (y[:, None, :] @ Vt)[:, 0, :] / scales
    misfit = R - (coeffs[:, None, :] @ B)[:, 0, :]
    # Relative, not curvops' (scale + 1) form: FIT_RESIDUAL_LIMIT gates on it.
    residual = lane_norms(misfit) / (lane_norms(R) + 1e-300)
    phi, mu, eta = coeffs.T
    kappa = f.scalar[live]
    alpha1 = kappa + ((n - 2) * mu - 1.0) / phi
    alpha2 = (mu * kappa + (n - 1) * eta) / phi
    L_R = ((n - 2) * (mu * mu - phi * eta) - mu) / phi
    L = L_R + mu / phi
    L_C = L_R + (kappa / (n - 1) - alpha1) / (n - 2)
    rows = zip(phi.tolist(), mu.tolist(), eta.tolist(), residual.tolist(), alpha1.tolist(),
               alpha2.tolist(), L_R.tolist(), L.tolist(), L_C.tolist(), gram_cond.tolist())
    for i, row in zip(live, rows):
        if row[3] > FIT_RESIDUAL_LIMIT:
            out[i] = RoterFitError("RESIDUAL", f"reconstruction residual {row[3]:.3e}")
        else:
            out[i] = RoterFit(*row)
    return out


# ---------------------------------------------------------------------------
# Identity suite

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

    Each is built on first read, packed on bivectors (see curvops), with
    the frame's point axis first: at n = 6 an order-6 product takes 27 KB
    a point and all twelve about 0.26 MB.  Callers hold them for one group
    of product_lanes(n) lanes only; they are not kept on the frame.
    """
    return _Products(frame)


def _factors(measured: list, key: str) -> np.ndarray:
    return np.array([np.nan if m[key].factor is None else m[key].factor for m in measured])


def identity_suite(frame: PointFrame, fits: list, products: dict[str, np.ndarray]) -> list:
    """Residuals of the ten tensor identities implied by the decomposition,
    and of the closed-form L_R, L_C, L against their measured factors.

    fits hold each lane's RoterFit and products are
    curvature_products(frame).  The ten identities use the sum-plus-one
    Frobenius normalization, the three factor checks the scalar one,
    against pseudosymmetry_factors over the same products.  An accepted
    fit on exact-derivative input keeps all thirteen near 1e-13.
    """
    f, P, n = frame, products, frame.dim
    # Each lane's scalars as a (P, 1, 1, 1) column, which scales its lane
    # of a product (four axes with the point axis); [..., 0] scales an
    # order-2 tensor.
    coeffs = np.array([[x.phi, x.mu, x.eta, x.alpha1, x.alpha2, x.L_R, x.L, x.L_C] for x in fits])
    phi, mu, eta, alpha1, alpha2, L_R, L, L_C = coeffs.T[..., None, None, None]
    kappa = f.scalar[:, None, None, None]
    measured = pseudosymmetry_factors(f, P)
    out = {
        "ricci_square_affine": lane_residuals(
            f.ricci_sq, alpha1[..., 0] * f.ricci + alpha2[..., 0] * f.g),
        "rr_vs_qgr": lane_residuals(P["RR"], L_R * P["QgR"]),
        "rc_vs_qgc": lane_residuals(P["RC"], L_R * P["QgC"]),
        "rs_vs_qgs": lane_residuals(P["RS"], L_R * P["QgS"]),
        "rr_vs_qsr_plus_qgc": lane_residuals(P["RR"], P["QSR"] + L * P["QgC"]),
        "cc_vs_qgc": lane_residuals(P["CC"], L_C * P["QgC"]),
        "cr_vs_qgr": lane_residuals(P["CR"], L_C * P["QgR"]),
        "cs_vs_qgs": lane_residuals(P["CS"], L_C * P["QgS"]),
        "commutator_vs_qgr_qsg": lane_residuals(
            P["RC"] - P["CR"],
            ((1.0 / phi) * (mu - 1.0 / (n - 2)) + kappa / (n - 1)) * P["QgR"]
            + ((mu / phi) * (mu - 1.0 / (n - 2)) - eta) * P["QSG"],
        ),
        "commutator_vs_qsc_qgc": lane_residuals(
            P["CR"] - P["RC"], P["QSC"] - (kappa / (n - 1)) * P["QgC"]
        ),
        "lr_closed_vs_measured": scalar_residual(L_R.ravel(), _factors(measured, "L_R")),
        "lc_closed_vs_measured": scalar_residual(L_C.ravel(), _factors(measured, "L_C")),
        "l_closed_vs_measured": scalar_residual(L.ravel(), _factors(measured, "L")),
    }
    return [dict(zip(out, row)) for row in np.array(list(out.values())).T.tolist()]


def pseudosymmetry_factors(frame: PointFrame, products: dict[str, np.ndarray]) -> list:
    """Directly measured proportionality factors, independent of any fit,
    one dict per lane.

    products are curvature_products(frame).  Keys: L_R (R.R vs Q(g,R)),
    L_C (C.C vs Q(g,C)), L (R.R - Q(S,R) vs Q(g,C)); ricci_pseudosymmetry
    measures L_S (R.S vs Q(g,S)).
    """
    P, n = products, frame.dim
    by_key = {
        "L_R": proportionality(P["RR"], P["QgR"], n),
        "L_C": proportionality(P["CC"], P["QgC"], n),
        "L": proportionality(P["RR"] - P["QSR"], P["QgC"], n),
    }
    return [dict(zip(by_key, lane)) for lane in zip(*by_key.values())]


def ricci_pseudosymmetry(frame: PointFrame, products: dict[str, np.ndarray]) -> list:
    """Linear dependence of R.S and Q(g,S), as a standalone check: one
    ProportionalityResult per lane.

    products are curvature_products(frame); R.S and Q(g,S) are read
    from them, not rebuilt.
    """
    return proportionality(products["RS"], products["QgS"], frame.dim)


# ---------------------------------------------------------------------------
# Classification

@dataclass(frozen=True)
class Classification:
    """A lane's Roter verdict.

    kind is EINSTEIN, QUASI_EINSTEIN (with its alpha), ROTER or OTHER;
    in_US, in_UC and in_UR are its membership in the open sets.  fit is
    its RoterFit wherever fit_roter accepts the lane, whatever its kind;
    else fit_error holds the rejection message.  grid_rank_above_one
    records whether rank(S - alpha g) > 1 at every alpha classify ranked:
    the real eigenvalues of g^{-1} S, none of which drops a ROTER lane's
    rank, and on a ROTER lane alpha1/2 of its fit and its extras.
    """

    kind: str
    in_US: bool
    in_UC: bool
    in_UR: bool
    alpha: float | None = None
    fit: RoterFit | None = None
    fit_error: str | None = None
    grid_rank_above_one: bool = False


def classify(frame: PointFrame, extras: list | None = None) -> list:
    """Each lane's Classification, from one fit_roter call over every lane.

    extras hold one tuple of further rank candidates per lane (e.g.
    warped block eigenvalues mu1, mu2); one rank_grid_exceeds_one call
    ranks them with alpha1/2 on the ROTER lanes.
    """
    f, n = frame, frame.dim
    # rank(S - alpha g) <= 1 makes det(S - alpha g) = 0, so only a real
    # eigenvalue of g^{-1} S can drop it: one scan ranks each lane's n.
    eigs = np.linalg.eigvals(f.ginv @ f.ricci)
    real = np.abs(eigs.imag) <= 1e-8 * (1.0 + np.abs(eigs.real))
    drops = (rank_shift(f.ricci[:, None], f.g[:, None], eigs.real) <= 1) & real
    above = (~drops.any(axis=-1)).tolist()
    membership = zip(in_us(f).tolist(), in_uc(f).tolist(), in_ur(f).tolist())
    out = []
    for i, (fit, (us, uc, ur)) in enumerate(zip(fit_roter(f), membership)):
        error = str(fit) if isinstance(fit, RoterFitError) else None
        kind, alpha = (OTHER if error else ROTER), None
        if not us:
            kind, alpha = EINSTEIN, float(f.scalar[i]) / n
        elif drops[i].any():
            kind, alpha = QUASI_EINSTEIN, float(eigs.real[i, np.argmax(drops[i])])
        out.append(Classification(kind, us, uc, ur, alpha, None if error else fit, error, above[i]))
    lanes = [i for i, c in enumerate(out) if c.kind == ROTER]
    if lanes:
        more = [extras[i] for i in lanes] if extras else [()] * len(lanes)
        flags = rank_grid_exceeds_one(f.take(lanes), [out[i] for i in lanes], more)
        for i, flag in zip(lanes, flags.tolist()):
            out[i] = replace(out[i], grid_rank_above_one=flag)
    return out


def rank_grid_exceeds_one(frame: PointFrame, cs: list, extras: list) -> np.ndarray:
    """rank(S - alpha g) > 1 at every alpha of each lane's scan.

    cs are each lane's Classification, whose grid_rank_above_one holds
    classify's ranks at the real eigenvalues of g^{-1} S, and extras one
    tuple of further candidates per lane (e.g. warped block eigenvalues
    mu1, mu2).  classify calls it on its ROTER lanes; it ranks alpha1/2 of
    each fit and the extras, every lane left in one stacked rank_shift.
    """
    out = np.array([c.grid_rank_above_one for c in cs])
    alphas = [((c.fit.alpha1 / 2.0,) if c.fit is not None else ()) + tuple(extra)
              for c, extra in zip(cs, extras, strict=True)]
    lanes = [i for i, a in enumerate(alphas) if a and out[i]]
    if lanes:
        width = max(len(alphas[i]) for i in lanes)
        padded = [alphas[i] + alphas[i][:1] * (width - len(alphas[i])) for i in lanes]
        ranks = rank_shift(frame.ricci[lanes][:, None], frame.g[lanes][:, None], padded)
        out[lanes] = np.all(ranks > 1, axis=-1)
    return out
