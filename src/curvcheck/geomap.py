"""Geodesically related metric pairs and their compatibility equations.

Two metrics g, ḡ on a common chart are geodesically related through a
gradient covector ψ when

    ∇_k ḡ_ij = 2 ψ_k ḡ_ij + ψ_i ḡ_jk + ψ_j ḡ_ik          (∇ of g)

which shifts the connection by Γ̄^h_ij = Γ^h_ij + δ^h_i ψ_j + δ^h_j ψ_i
and the Ricci tensor by S̄_ij = S_ij - (n-1) ψ_ij with
ψ_ij = ∇_j ψ_i - ψ_i ψ_j.

Two constructions are provided.  GeodesicPair2D is the classical
surface pair: diag(𝔞(x), 𝔟(x)) maps onto
diag(p𝔞/(1+q𝔟)^2, p𝔟/(1+q𝔟)) with ψ₁ = -(q𝔟'/2)/(1+q𝔟).  build_family
lifts it to warped products: base 𝔞 = (𝔟')²/(𝔟(D𝔟-4C)) (Gauss
curvature -D/4), fiber of constant curvature, warp F = 𝔟(x)B(t)² with
B'' = C B, image warp F̄ = pF/(1+q𝔟).  Both members decompose as Roter
spaces and are pseudosymmetric of constant type, with

    L_R = -D/4,      L_R_image = -(D + 4qC)/(4p),

and the residual functions below certify every compatibility equation
and closed form the construction promises, one residual per point of
a chunk.  They evaluate no frame: they take the stacked (source,
image) frames or WarpedDiagnostics, the fits, and the ψ jets, stacked
as (ψ_i of shape (P, n), dpsi[p,j,i] = ∂_j ψ_i).  A mapped pair has one
program, its source's: its outputs go on with the image's, ψ and, on a
family, 𝔟, B and √F (see cut), and its conditions with the image's.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from . import expr as ex
from . import geometry as geo
from . import warped as wp
from .curvops import (
    constancy_residual,
    lane_max_abs_residuals,
    lane_residuals,
    lane_sum_residuals,
    lane_zero_residuals,
    per_lane,
    scalar_residual,
)
from .roter import RoterFit

# Unused here (callers pass fits and products in), but perfbench/tests
# checks that the tracer wraps these names in geomap.
from .curvops import derivation_apply, tachibana  # noqa: F401
from .roter import fit_roter  # noqa: F401

# Sampling guard: mapping quantities this close to zero are rejected.
GUARD_FLOOR = 1e-6


class FamilyError(geo.GeometryError):
    """Family construction rejected; reason in .reason."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason


# ---------------------------------------------------------------------------
# ψ jets

def _second_form(frame: geo.PointFrame, jets) -> np.ndarray:
    """ψ_ij = ∂_j ψ_i - Γ^s_ij ψ_s - ψ_i ψ_j at each lane, Γ of frame."""
    psi, dpsi = jets
    return (np.swapaxes(dpsi, 1, 2) - np.einsum("psij,ps->pij", frame.gamma, psi)
            - psi[:, :, None] * psi[:, None, :])


def psi_gradient_residual(jets) -> np.ndarray:
    """Antisymmetric part of ∂_j ψ_i at each lane; zero for gradient covectors."""
    dpsi = jets[1]
    return lane_zero_residuals(dpsi - np.swapaxes(dpsi, 1, 2), dpsi)


# ---------------------------------------------------------------------------
# Surface pairs

@dataclass(frozen=True)
class GeodesicPair2D:
    """diag(𝔞, 𝔟) and its geodesic image on a common (x, y) chart."""

    source: geo.MetricSpec  # its components program is the pair's one program
    image: geo.MetricSpec
    map_shift: float
    image_at: int  # the program's column of the image's first output (see cut)
    psi_at: int  # and of ψ₁


def _pair_components(a_expr, b_expr, bp):
    """1 + q𝔟, the image components 𝔞̄ and 𝔟̄, and ψ₁ = -(q𝔟'/2)/(1+q𝔟)."""
    one_plus_qb = ex.add(ex.num(1.0), ex.mul(ex.const("q"), b_expr))
    abar = ex.div(ex.mul(ex.const("p"), a_expr), ex.intpow(one_plus_qb, 2))
    bbar = ex.div(ex.mul(ex.const("p"), b_expr), one_plus_qb)
    psi1 = ex.neg(ex.div(ex.mul(ex.const("q"), bp), ex.mul(ex.num(2.0), one_plus_qb)))
    return one_plus_qb, abar, bbar, psi1


def _one_program(source: geo.MetricSpec, image: geo.MetricSpec, tail: tuple) -> tuple:
    """source, its conditions followed by those of image's that it lacks and its
    outputs by image's and tail, and the columns of image's first output and tail's."""
    image_at = source.dim ** 2 + len(source.extras)
    outputs = tuple(e for row in image.components for e in row) + image.extras
    conditions = source.conditions + tuple(c for c in image.conditions if c not in source.conditions)
    spec = replace(source, extras=source.extras + outputs + tail, conditions=conditions)
    return spec, image_at, image_at + len(outputs)


def geodesic_pair_2d(a, b, map_scale: float, map_shift: float) -> GeodesicPair2D:
    """Classical surface pair on (x, y); requires map_scale != 0 and
    map_shift != 0 (a zero shift is the trivial mapping) and 𝔟' != 0."""
    if map_scale == 0.0:
        raise FamilyError("TRIVIAL_MAPPING", "map_scale must be nonzero")
    if map_shift == 0.0:
        raise FamilyError("TRIVIAL_MAPPING", "map_shift must be nonzero")
    coords = ("x", "y")
    binds = ex.Bindings(p=map_scale, q=map_shift)
    names = tuple(binds)
    a_expr = ex.parse(a, coords, names) if isinstance(a, str) else a
    b_expr = ex.parse(b, coords, names) if isinstance(b, str) else b
    bp = ex.diff(b_expr, coords[0])
    one_plus_qb, abar, bbar, psi1 = _pair_components(a_expr, b_expr, bp)
    shared = ((a_expr, "nonzero"), (b_expr, "nonzero"), (bp, "nonzero"))
    source = geo.metric_spec(coords, [[a_expr, 0.0], [0.0, b_expr]], binds, shared)
    image = geo.metric_spec(
        coords, [[abar, 0.0], [0.0, bbar]], binds, shared + ((one_plus_qb, "nonzero"),)
    )
    source, image_at, psi_at = _one_program(source, image, (psi1, ex.Num(0.0)))
    return GeodesicPair2D(source, image, float(map_shift), image_at, psi_at)


# ---------------------------------------------------------------------------
# The warped family

@dataclass(frozen=True)
class FamilyConfig:
    """Parameters of the warped family and its geodesic image.

    c drives the warp profile (B'' = c B), d sets the base Gauss
    curvature to -d/4; c1, c2 pick the profile representative; b is the
    base profile 𝔟(x) with 𝔟' != 0; the fiber is the constant-curvature
    model with the given scalar curvature.  allow_conformally_flat
    permits the degenerate (Einstein) member used as a control.
    """

    c: float
    d: float
    c1: float
    c2: float
    b: str = "x"
    fiber_dim: int = 2
    fiber_scalar: float = 2.0
    map_scale: float = 2.0
    map_shift: float = 1.0
    allow_conformally_flat: bool = False

    @property
    def n(self) -> int:
        return self.fiber_dim + 2


@dataclass(frozen=True)
class Family:
    """Source and image warped products plus the mapping covector."""

    cfg: FamilyConfig
    source: wp.WarpedSpec  # its product's components program is the family's one program
    image: wp.WarpedSpec
    image_at: int  # the program's column of the image's first output
    psi_at: int  # and of ψ₁, which 𝔟, B and √F follow
    profile_jet: Callable  # (B, B') on the (x, t) chart, bound once per family
    profile_invariant: float  # (B')^2 - c B^2, constant in t

    @property
    def l_r_expected(self) -> float:
        return -self.cfg.d / 4.0

    @property
    def l_r_image_expected(self) -> float:
        return -(self.cfg.d + 4.0 * self.cfg.map_shift * self.cfg.c) / (
            4.0 * self.cfg.map_scale
        )

    def guards_hold(self, values) -> np.ndarray:
        """Whether 1 + q𝔟, D𝔟 - 4C, 𝔟' and B clear GUARD_FLOOR, at each point of
        values (family_values), so the mapping is not near-singular there."""
        return np.all([abs(values[key]) >= GUARD_FLOOR for key in ("one_plus_qb", "shape", "bp", "B")], axis=0)


def profile_expr(cfg: FamilyConfig) -> ex.Expr:
    """B(t) on the (x, t) chart, solving B'' = c B in the branch matching c's sign."""
    names = ("C", "C1", "C2")
    if cfg.c > 0:
        src = "C1*exp(sqrt(C)*t) + C2*exp(-sqrt(C)*t)"
    elif cfg.c < 0:
        src = "C1*cos(sqrt(-C)*t) + C2*sin(sqrt(-C)*t)"
    else:
        src = "C1*t + C2"
    return ex.parse(src, ("x", "t"), names)


def _family_bindings(cfg: FamilyConfig) -> ex.Bindings:
    return ex.Bindings(
        C=cfg.c, D=cfg.d, C1=cfg.c1, C2=cfg.c2, p=cfg.map_scale, q=cfg.map_shift
    )


def build_family(cfg: FamilyConfig) -> Family:
    """Construct the source warped product, its geodesic image and ψ.

    Rejects trivial mappings (map_shift or map_scale zero) and, unless
    allow_conformally_flat is set, configurations whose fiber scalar
    curvature matches (n-3)(n-2)((B')^2 - cB^2): those members are
    Einstein and conformally flat, so the decomposition's open sets are
    empty and no Roter certification is possible.
    """
    if cfg.map_scale == 0.0 or cfg.map_shift == 0.0:
        raise FamilyError("TRIVIAL_MAPPING", "map_scale and map_shift must be nonzero")
    if cfg.fiber_dim < 2:
        raise FamilyError("BAD_FIBER", "fiber dimension must be at least 2")
    binds = _family_bindings(cfg)
    names = tuple(binds)
    coords2 = ("x", "t")
    b_expr = ex.parse(cfg.b, coords2, names) if isinstance(cfg.b, str) else cfg.b
    bp = ex.diff(b_expr, "x")
    shape = ex.sub(ex.mul(ex.const("D"), b_expr), ex.mul(ex.num(4.0), ex.const("C")))
    a_expr = ex.div(ex.intpow(bp, 2), ex.mul(b_expr, shape))

    profile = profile_expr(cfg)
    profile_jet = ex.jet((profile,), coords2, binds, 1)
    B, dB = profile_jet([(0.0, 0.0)])
    invariant = float(dB[0, 1, 0]) ** 2 - cfg.c * float(B[0, 0]) ** 2

    n = cfg.n
    cflat_value = cfg.fiber_scalar / ((n - 3) * (n - 2))
    if not cfg.allow_conformally_flat and scalar_residual(cflat_value, invariant) <= 1e-9:
        raise FamilyError(
            "CONFORMALLY_DEGENERATE",
            "fiber scalar curvature matches (n-3)(n-2)((B')^2 - cB^2); the "
            "product is Einstein and conformally flat, so its curvature has "
            "no Roter decomposition on this chart",
        )

    one_plus_qb, abar, bbar, psi1 = _pair_components(a_expr, b_expr, bp)
    guards = (
        (b_expr, "nonzero"),
        (bp, "nonzero"),
        (shape, "nonzero"),
        (one_plus_qb, "nonzero"),
    )
    base = geo.metric_spec(coords2, [[a_expr, 0.0], [0.0, b_expr]], binds, guards[:3])
    base_bar = geo.metric_spec(coords2, [[abar, 0.0], [0.0, bbar]], binds, guards)
    fiber = wp.constant_curvature_fiber(cfg.fiber_dim, cfg.fiber_scalar)

    warp = ex.mul(b_expr, ex.intpow(profile, 2))
    warp_bar = ex.div(ex.mul(ex.const("p"), warp), one_plus_qb)
    source = wp.assemble(base, fiber, warp)
    image = wp.assemble(base_bar, fiber, warp_bar)

    tail = (psi1,) + (ex.Num(0.0),) * (n - 1) + (b_expr, profile, ex.fn("sqrt", warp))
    product, image_at, psi_at = _one_program(source.product, image.product, tail)
    source = replace(source, product=product)
    return Family(cfg, source, image, image_at, psi_at, profile_jet, invariant)


def cut(mapped: GeodesicPair2D | Family, jets) -> dict:
    """jets, the mapped pair's program run at P points (geometry.metric_jets
    of its source), as "source" and "image", each member's jets from column
    0 (views), "psi", the ψ jets, and "values", family_values, and "root",
    the (f, df, d2f) jets of f = √F along the base axes (None on a pair)."""
    n, family, image, at = jets[1].shape[1], isinstance(mapped, Family), mapped.image_at, mapped.psi_at
    return {"source": tuple(part[..., :image] for part in jets),
            "image": tuple(part[..., image:at] for part in jets),
            "psi": geo.jet_block(jets, at + np.arange(n))[:2],
            "values": family_values(mapped, jets) if family else None,
            "root": geo.jet_block(jets, at + n + 2, slice(2)) if family else None}


def image_twin(mapped: GeodesicPair2D | Family) -> Callable:
    """The image's (g, dg, d2g) at complex points, from the complex twin of
    the mapped pair's program (geometry.second_bianchi_residual's twin)."""
    n, program = mapped.image.dim, getattr(mapped.source, "product", mapped.source)._component_jet
    return lambda points: program.complex(points, mapped.image_at + np.arange(n * n).reshape(n, n))


def family_values(fam: Family, jets) -> dict[str, np.ndarray]:
    """𝔟, B, their derivatives, 1 + q𝔟 and D𝔟 - 4C at P points, one
    array per key, read from jets, the family's program run there."""
    cfg = fam.cfg
    values, grads, _ = geo.jet_block(jets, fam.psi_at + cfg.n + np.arange(2))
    b, B = values.T
    return {
        "b": b,
        "bp": grads[:, 0, 0],
        "B": B,
        "Bp": grads[:, 1, 1],
        "one_plus_qb": 1.0 + cfg.map_shift * b,
        "shape": cfg.d * b - 4.0 * cfg.c,
    }


def profile_invariant_residual(fam: Family) -> float:
    """Constancy of (B')^2 - c B^2 across 24 values of t in [-1, 1.5]."""
    B, dB = fam.profile_jet([(0.0, t) for t in np.linspace(-1.0, 1.5, 24).tolist()])
    B, Bp = B[:, 0], dB[:, 1, 0]
    return constancy_residual(Bp * Bp - fam.cfg.c * B * B)


# ---------------------------------------------------------------------------
# Compatibility residuals (any pair on a common chart), one per lane of
# the stacked frames; jets are the ψ jets at the frames' points.

def geodesic_compatibility_residual(
    frame: geo.PointFrame, image_frame: geo.PointFrame, jets
) -> np.ndarray:
    """Max-abs residual of ∇_k ḡ_ij = 2ψ_k ḡ_ij + ψ_i ḡ_jk + ψ_j ḡ_ik, with
    ∇ the connection of frame and ḡ the metric of image_frame."""
    gbar, pv = image_frame.g, jets[0]
    lhs = geo.covariant_derivative_02(frame, gbar, image_frame.dg)
    rhs = (
        2.0 * np.einsum("pk,pij->pkij", pv, gbar)
        + np.einsum("pi,pjk->pkij", pv, gbar)
        + np.einsum("pj,pik->pkij", pv, gbar)
    )
    return lane_max_abs_residuals(lhs, rhs)


def christoffel_shift_residual(
    frame: geo.PointFrame, image_frame: geo.PointFrame, jets
) -> np.ndarray:
    """Γ̄^h_ij - Γ^h_ij - δ^h_i ψ_j - δ^h_j ψ_i, max-abs normalized."""
    pv = jets[0]
    eye = np.eye(frame.dim)
    shift = np.einsum("hi,pj->phij", eye, pv) + np.einsum("hj,pi->phij", eye, pv)
    return lane_max_abs_residuals(image_frame.gamma, frame.gamma + shift)


def pair_christoffel_closed_forms(pair: GeodesicPair2D, sframe: geo.PointFrame,
                                  iframe: geo.PointFrame) -> dict[str, np.ndarray]:
    """Closed forms of the image connection, from (source, image) frames.

    Γ̄¹₁₁ = 𝔞'/2𝔞 - q𝔟'/(1+q𝔟), Γ̄²₁₂ = 𝔟'/(2𝔟(1+q𝔟)), Γ̄¹₂₂ = -𝔟'/2𝔞.
    """
    gam_bar = iframe.gamma
    a, b = sframe.g[:, 0, 0], sframe.g[:, 1, 1]
    ap, bp = sframe.dg[:, 0, 0, 0], sframe.dg[:, 0, 1, 1]
    q = pair.map_shift
    opq = 1.0 + q * b
    return {
        "gbar_111": scalar_residual(gam_bar[:, 0, 0, 0], ap / (2 * a) - q * bp / opq),
        "gbar_212": scalar_residual(gam_bar[:, 1, 0, 1], bp / (2 * b * opq)),
        "gbar_122": scalar_residual(gam_bar[:, 0, 1, 1], -bp / (2 * a)),
    }


def ricci_shift_residual(
    frame: geo.PointFrame, image_frame: geo.PointFrame, jets
) -> np.ndarray:
    """S̄_ij = S_ij - (n-1) ψ_ij with ψ_ij built from the g connection."""
    psi2 = _second_form(frame, jets)
    return lane_max_abs_residuals(image_frame.ricci, frame.ricci - (frame.dim - 1) * psi2)


# ---------------------------------------------------------------------------
# Family closed forms, from the members' stacked diagnostics and the
# family_values v at their points

def family_psi_closed_forms(fam: Family, d: wp.WarpedDiagnostics,
                            v: dict[str, np.ndarray], jets) -> dict[str, np.ndarray]:
    """ψ_ij block closed forms against (psiij), from the source's diagnostics."""
    cfg = fam.cfg
    q, b, bp, B = cfg.map_shift, v["b"], v["bp"], v["B"]
    opq, shape = v["one_plus_qb"], v["shape"]
    psi2 = _second_form(d.frame, jets)
    p_dim = 2
    want11 = (
        q * bp * bp * (4 * cfg.c - q * cfg.d * b * b - 2 * cfg.d * b)
        / (4 * b * opq * opq * shape)
    )
    want22 = -q * b * shape / (4 * opq)
    want_fiber = per_lane(-q * b * B * B * shape / (4 * opq), 2) * d.fiber_frame.g
    return {
        "psi_11": scalar_residual(psi2[:, 0, 0], want11),
        "psi_22": scalar_residual(psi2[:, 1, 1], want22),
        "psi_fiber": lane_max_abs_residuals(psi2[:, p_dim:, p_dim:], want_fiber),
        "psi_off": lane_zero_residuals(psi2[:, 0, 1], psi2)
        + lane_zero_residuals(psi2[:, :p_dim, p_dim:], psi2),
    }


def family_image_ricci_forms(fam: Family, d_bar: wp.WarpedDiagnostics,
                             v: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Barred Ricci and T closed forms against the image geometry, read
    from the image member's diagnostics."""
    cfg = fam.cfg
    n = cfg.n
    p, q = cfg.map_scale, cfg.map_shift
    b, B, Bp, opq = v["b"], v["B"], v["Bp"], v["one_plus_qb"]
    coef = cfg.d + 4.0 * q * cfg.c
    s_bar, g_bar = d_bar.frame.ricci, d_bar.frame.g
    salfa = (
        cfg.fiber_scalar / (n - 2)
        + (n - 3) * (cfg.c * B * B - Bp * Bp)
        - (n - 1) / 4.0 * b * B * B * coef / opq
    ) / d_bar.f_value
    return {
        "ricci_base_bar": lane_max_abs_residuals(
            s_bar[:, :2, :2], -(n - 1) / (4.0 * p) * coef * g_bar[:, :2, :2]
        ),
        "ricci_mixed_bar": lane_zero_residuals(s_bar[:, :2, 2:], s_bar),
        "ricci_fiber_bar": lane_max_abs_residuals(
            s_bar[:, 2:, 2:], per_lane(salfa, 2) * g_bar[:, 2:, 2:]),
        "t_bar": lane_max_abs_residuals(
            d_bar.t, per_lane(coef / (2.0 * p) * d_bar.f_value, 2) * d_bar.base_frame.g
        ),
        "image_base_scalar": scalar_residual(d_bar.base_frame.scalar, -coef / (2.0 * p)),
    }


def warp_compatibility_residuals(fam: Family, d: wp.WarpedDiagnostics,
                                 d_bar: wp.WarpedDiagnostics,
                                 jets) -> tuple[np.ndarray, np.ndarray]:
    """The two equations that make the warp pair geodesically compatible,
    from the (source, image) diagnostics.

    scale equation: -(F̄/2F) F_a + (1/2) F^c ḡ_ca = F̄ ψ_a
    log equation:   d_a log(F̄/F) = 2 ψ_a
    Returns (scale residuals, log residuals), max-abs normalized.
    """
    Fv, Fbv, grad, grad_bar = d.f_value, d_bar.f_value, d.grad, d_bar.grad
    psi_v = jets[0][:, :2]

    f_up = d.base_frame.ginv @ grad[:, :, None]
    lhs_scale = (-per_lane(Fbv / (2.0 * Fv), 1) * grad
                 + 0.5 * (d_bar.base_frame.g @ f_up)[:, :, 0])
    rhs_scale = per_lane(Fbv, 1) * psi_v
    res_scale = lane_max_abs_residuals(lhs_scale, rhs_scale)

    lhs_log = grad_bar / per_lane(Fbv, 1) - grad / per_lane(Fv, 1)
    res_log = lane_max_abs_residuals(lhs_log, 2.0 * psi_v)
    return res_scale, res_log


def base_gauss_values(d: wp.WarpedDiagnostics,
                      d_bar: wp.WarpedDiagnostics) -> tuple[np.ndarray, np.ndarray]:
    """(source, image) base Gauss curvatures, from the members' diagnostics."""
    return geo.gauss_curvature(d.base_frame), geo.gauss_curvature(d_bar.base_frame)


# ---------------------------------------------------------------------------
# Factor relations across the pair

def _fit_values(fits: list, *names: str) -> list[np.ndarray]:
    # One array per named RoterFit field, a lane per fit.
    return list(np.array([[getattr(fit, name) for name in names] for fit in fits]).T)


def factor_relations(
    fam: Family,
    frames: tuple[geo.PointFrame, geo.PointFrame],
    fits: tuple[list, list],
    v: dict[str, np.ndarray],
) -> dict[str, np.ndarray]:
    """Scalar relations tying the two members together.

    frames are the stacked (source, image) frames, fits their RoterFit
    lists, one per lane, and v the family_values there.  Keys:
      l_r_value, l_r_image_value   fitted L_R against -D/4, -(D+4qC)/(4p)
      lkappa                       L_R - κ/(n(n-1)) = (p/(1+q𝔟)) (image)
      lcr_source, lcr_image        ((n-2)^2/n) L_C = L_R - κ/(n(n-1))
      lc_ratio                     L_C = (p/(1+q𝔟)) L_C_image
      l_source, l_image            L = -(n-2) L_R
    corollary42_residual checks the tensor relation of each member.
    """
    n = fam.cfg.n
    sframe, iframe = frames
    (s_lr, s_lc, s_l), (i_lr, i_lc, i_l) = (_fit_values(f, "L_R", "L_C", "L") for f in fits)
    ratio = fam.cfg.map_scale / v["one_plus_qb"]  # = F̄/F

    return {
        "l_r_value": scalar_residual(s_lr, fam.l_r_expected),
        "l_r_image_value": scalar_residual(i_lr, fam.l_r_image_expected),
        "lkappa": scalar_residual(
            s_lr - sframe.scalar / (n * (n - 1)),
            ratio * (i_lr - iframe.scalar / (n * (n - 1))),
        ),
        "lcr_source": scalar_residual(
            (n - 2) ** 2 / n * s_lc, s_lr - sframe.scalar / (n * (n - 1))
        ),
        "lcr_image": scalar_residual(
            (n - 2) ** 2 / n * i_lc, i_lr - iframe.scalar / (n * (n - 1))
        ),
        "lc_ratio": scalar_residual(s_lc, ratio * i_lc),
        "l_source": scalar_residual(s_l, -(n - 2) * s_lr),
        "l_image": scalar_residual(i_l, -(n - 2) * i_lr),
    }


def corollary42_residual(n: int, fits: list, products: dict) -> np.ndarray:
    """R.R = Q(S,R) - (n-2) L_R Q(g,C) at each lane of one member of
    dimension n, from its RoterFit list and roter.curvature_products."""
    (l_r,) = _fit_values(fits, "L_R")
    P = products
    return lane_residuals(P["RR"], P["QSR"] - per_lane((n - 2) * l_r, 3) * P["QgC"])


def semisymmetric(RR: np.ndarray, frame: geo.PointFrame) -> np.ndarray:
    """Whether R.R (packed, RR) vanishes at each lane of the source's
    frame, where psi_ricci_identity_residual's identity does not hold."""
    # A packed R.R entry is 2 sqrt(2) times the dense one (see curvops).
    rr, r = (np.max(np.abs(t), axis=tuple(range(1, t.ndim))) for t in (RR, frame.riemann))
    return rr <= 2.0 * np.sqrt(2.0) * 1e-9 * (r + 1.0)


def psi_ricci_identity_residual(
    fam: Family,
    frames: tuple[geo.PointFrame, geo.PointFrame],
    fits: tuple[list, list],
    jets,
) -> np.ndarray:
    """The (0,2) identity tying ψ_ij to the image decomposition.

    (κ̄φ̄ + nμ̄) B - (tr(B)φ̄ + tr(ψ)μ̄) S̄ + (κ̄μ̄ - n(L̄_R - η̄)) ψ
      + (tr(ψ)(L̄_R - η̄) - tr(B)μ̄) ḡ = 0,

    with B_mk = ψ_mr S̄^r_k; the index is raised and both traces taken
    with ḡ (reported convention).  frames and fits are as for
    factor_relations: the image fits supply φ̄, μ̄, η̄, L̄_R.  It holds
    where the source is pseudosymmetric but not semisymmetric (see
    semisymmetric).
    """
    n = fam.cfg.n
    sframe, iframe = frames
    phi_b, mu_b, eta_b, lr_b = _fit_values(fits[1], "phi", "mu", "eta", "L_R")
    kappa_b = iframe.scalar
    gbar_inv = iframe.ginv
    psi2 = _second_form(sframe, jets)
    Bmk = psi2 @ gbar_inv @ iframe.ricci
    tr_b = np.einsum("pmk,pmk->p", gbar_inv, Bmk)
    tr_psi = np.einsum("pmk,pmk->p", gbar_inv, psi2)
    terms = [
        per_lane(kappa_b * phi_b + n * mu_b, 2) * Bmk,
        -per_lane(tr_b * phi_b + tr_psi * mu_b, 2) * iframe.ricci,
        per_lane(kappa_b * mu_b - n * (lr_b - eta_b), 2) * psi2,
        per_lane(tr_psi * (lr_b - eta_b) - tr_b * mu_b, 2) * iframe.g,
    ]
    return lane_sum_residuals(terms)


def warp_profile_pde_residuals(d: wp.WarpedDiagnostics, root) -> dict[str, np.ndarray]:
    """Shape constraints that make T proportional to the base metric.

    T₁₂ = 0 and 𝔟 T₁₁ = 𝔞 T₂₂, plus the square-root-warp reductions
    f₁₂ = f₂ 𝔟'/(2𝔟) and f₁₁ - (𝔞/𝔟) f₂₂ = f₁ (𝔞𝔟)'/(2𝔞𝔟) for f = √F,
    read from the source member's diagnostics and root, the jets of f
    at its points (cut).
    """
    bframe = d.base_frame
    _, df, d2f = root
    a_v, b_v = bframe.g[:, 0, 0], bframe.g[:, 1, 1]
    out = {
        "t_offdiag": lane_zero_residuals(d.t[:, 0, 1], d.t),
        "t_balance": scalar_residual(b_v * d.t[:, 0, 0], a_v * d.t[:, 1, 1]),
    }
    f1, f2 = df.T
    f11, f12, f22 = d2f[:, 0, 0], d2f[:, 0, 1], d2f[:, 1, 1]
    ap, bp = bframe.dg[:, 0, 0, 0], bframe.dg[:, 0, 1, 1]
    ab_p = ap * b_v + a_v * bp
    out["warp_root_mixed"] = scalar_residual(f12, f2 * bp / (2 * b_v))
    out["warp_root_balance"] = scalar_residual(
        f11 - (a_v / b_v) * f22, f1 * ab_p / (2 * a_v * b_v)
    )
    return out
