"""Warped products: assembly, closed-form diagnostics and block checks.

A warped product glues a base chart (coordinates x^a, metric ĝ) to a
fiber chart (coordinates y^α, metric g̃) through a positive warping
function F on the base:

    g = ĝ  on the base block,   g = F g̃  on the fiber block.

All of its curvature concentrates in closed forms built from

    T_ab  = ∇̂_a F_b - (1/2F) F_a F_b
    tr(T) = ĝ^{ab} T_ab
    Δ₁F   = ĝ^{ab} F_a F_b

diagnostics() evaluates these together with the two Ricci block
factors μ₁, μ₂, the three curvature block factors ρ₁, ρ₂, ρ₃ and the
conformal-flatness scalar ρ₀ (the last six only for a 2-dimensional
base).  verify_* functions compare every closed form against the
direct curvature of the assembled product metric; they are the
engine's cross-check that the block formulas hold, not assumptions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from . import geometry as geo
from .curvops import (
    max_abs_residual,
    scalar_residual,
    unit_curvature,
    zero_residual,
)
from .roter import RoterFit, _derived

__all__ = [
    "WarpedSpec",
    "WarpedDiagnostics",
    "assemble",
    "constant_curvature_fiber",
    "diagnostics",
    "roter_from_diagnostics",
    "t_proportionality_residual",
    "verify_product_christoffels",
    "verify_curvature_blocks",
    "verify_weyl_blocks",
    "verify_proportional_blocks",
    "conformal_flatness_test",
]


@dataclass(frozen=True)
class WarpedSpec:
    """Base x_F fiber, with the assembled product chart precomputed.

    Base coordinates come first in the product chart; base and fiber
    coordinate names must not collide.
    """

    base: geo.MetricSpec
    fiber: geo.MetricSpec
    warp: ex.Expr
    product: geo.MetricSpec

    @property
    def base_dim(self) -> int:
        return self.base.dim

    @property
    def fiber_dim(self) -> int:
        return self.fiber.dim

    @property
    def dim(self) -> int:
        return self.base.dim + self.fiber.dim

    def split(self, point) -> tuple[tuple[float, ...], tuple[float, ...]]:
        p = tuple(float(v) for v in point)
        return p[: self.base.dim], p[self.base.dim :]


def assemble(base: geo.MetricSpec, fiber: geo.MetricSpec, warp) -> WarpedSpec:
    """Build the product metric with fiber block scaled by the warp.

    warp may be an Expr or a string over the base coordinates only.
    Positivity of the warp is an admissibility condition of the
    product, enforced at sampled points rather than symbolically.
    """
    if set(base.coords) & set(fiber.coords):
        raise geo.GeometryError("base and fiber coordinate names overlap")
    merged = dict(base.bindings)
    for k, v in fiber.bindings.items():
        if k in merged and merged[k] != v:
            raise geo.GeometryError(f"constant {k!r} bound inconsistently")
        merged[k] = v
    bindings = ex.Bindings(merged)
    warp_expr = warp if not isinstance(warp, str) else ex.parse(warp, base.coords, tuple(bindings))
    used_vars, _ = ex.free_symbols(warp_expr)
    if not used_vars <= set(base.coords):
        raise geo.GeometryError("warping function must depend on base coordinates only")

    p, m = base.dim, fiber.dim
    n = p + m
    coords = base.coords + fiber.coords
    comps: list[list] = [[ex.Num(0.0)] * n for _ in range(n)]
    for a in range(p):
        for b in range(p):
            comps[a][b] = base.components[a][b]
    for al in range(m):
        for be in range(m):
            entry = fiber.components[al][be]
            if isinstance(entry, ex.Num) and entry.value == 0.0:
                continue
            comps[p + al][p + be] = ex.mul(warp_expr, entry)
    conditions = base.conditions + fiber.conditions + ((warp_expr, "positive"),)
    product = geo.MetricSpec(coords, tuple(tuple(r) for r in comps), bindings, conditions)
    return WarpedSpec(base, fiber, warp_expr, product)


def constant_curvature_fiber(
    dim: int, scalar_curvature: float, coord_prefix: str = "y"
) -> geo.MetricSpec:
    """Conformally flat model of constant curvature.

    Components g̃_αβ = δ_αβ / (1 + (k/4) Σ (y^α)^2)^2 with sectional
    curvature k = scalar_curvature / (dim (dim - 1)); any isometric
    model would do, this one has the simplest closed form.
    """
    if dim < 2:
        raise geo.GeometryError("fiber model needs dimension >= 2")
    coords = tuple(f"{coord_prefix}{i + 1}" for i in range(dim))
    k = scalar_curvature / (dim * (dim - 1))
    radius2 = " + ".join(f"{c}^2" for c in coords)
    conf = f"(1 + {k!r}/4*({radius2}))"
    diag = f"1/{conf}^2"
    return geo.diagonal_metric(coords, [diag] * dim, conditions=[(conf, "nonzero")])


# ---------------------------------------------------------------------------
# Closed-form diagnostics

@dataclass(frozen=True)
class WarpedDiagnostics:
    """Pointwise warped-product scalars.

    rho0..rho3, mu1, mu2 are populated only for a 2-dimensional base
    (they are block factors of that geometry); T, tr_T and delta1 are
    general.  base_scalar and fiber_scalar are the factor scalar
    curvatures at the point.
    """

    f_value: float
    t: np.ndarray
    tr_t: float
    delta1: float
    base_scalar: float
    fiber_scalar: float
    rho0: float | None
    rho1: float | None
    rho2: float | None
    rho3: float | None
    mu1: float | None
    mu2: float | None


def _warp_data(ws: WarpedSpec, base_point):
    """(F, grad F, Hessian F) at a base point, from the warp's jet."""
    base = ws.base
    f_value, grad, hess = ex.jet((ws.warp,), base.coords, base.bindings, 2)(base_point)
    return float(f_value[0]), grad[:, 0], hess[:, :, 0]


def diagnostics(ws: WarpedSpec, point) -> WarpedDiagnostics:
    """Evaluate T, tr(T), Δ₁F and (for 2-D bases) the block factors."""
    base_pt, fiber_pt = ws.split(point)
    bframe = geo.frame(ws.base, base_pt)
    f_value, grad, hess = _warp_data(ws, base_pt)
    if f_value <= 0.0:
        raise geo.InadmissiblePointError(f"warping function non-positive at {tuple(point)}")
    nabla_grad = hess - np.einsum("sab,s->ab", bframe.gamma, grad)
    t = nabla_grad - np.outer(grad, grad) / (2.0 * f_value)
    ginv_base = bframe.ginv
    tr_t = float(np.einsum("ab,ab->", ginv_base, t))
    delta1 = float(grad @ ginv_base @ grad)
    fiber_scalar = geo.frame(ws.fiber, fiber_pt).scalar

    n, p = ws.dim, ws.base_dim
    if p == 2 and n >= 4:
        kb = bframe.scalar
        rho0 = (
            kb / 2.0
            + fiber_scalar / ((n - 3) * (n - 2) * f_value)
            + tr_t / (2.0 * f_value)
            - delta1 / (4.0 * f_value**2)
        )
        rho1 = kb / 2.0
        rho2 = -tr_t / (4.0 * f_value)
        rho3 = (fiber_scalar / ((n - 3) * (n - 2)) - delta1 / (4.0 * f_value)) / f_value
        mu1 = (2.0 * f_value * kb - (n - 2) * tr_t) / (4.0 * f_value)
        mu2 = (
            fiber_scalar / (n - 2) - tr_t / 2.0 - (n - 3) * delta1 / (4.0 * f_value)
        ) / f_value
    else:
        rho0 = rho1 = rho2 = rho3 = mu1 = mu2 = None
    return WarpedDiagnostics(
        f_value, t, tr_t, delta1, bframe.scalar, fiber_scalar,
        rho0, rho1, rho2, rho3, mu1, mu2,
    )


def t_proportionality_residual(ws: WarpedSpec, point) -> float:
    """How far T is from (tr T / 2) ĝ; zero characterizes the
    pseudosymmetric warped products over 2-dimensional bases."""
    base_pt, _ = ws.split(point)
    d = diagnostics(ws, point)
    ghat = geo.frame(ws.base, base_pt).g
    return max_abs_residual(d.t, (d.tr_t / ws.base_dim) * ghat)


def roter_from_diagnostics(d: WarpedDiagnostics, n: int):
    """Decomposition coefficients from the block factors (2-D base).

    phi = nu (rho1 - 2 rho2 + rho3), with nu = (mu2 - mu1)^-2, and the
    companion mu / eta combinations; reduces to
    phi = 1/((n-3)(mu2 - mu1)) when rho1 = rho2.  Returns a full
    RoterFit (residual 0: the coefficients are closed forms, not a
    least-squares solve) with the nu field populated.
    """
    if d.mu1 is None:
        raise geo.GeometryError("block factors need a 2-dimensional base")
    nu = (d.mu2 - d.mu1) ** -2
    phi = nu * (d.rho1 - 2 * d.rho2 + d.rho3)
    mu = nu * ((d.rho2 - d.rho3) * d.mu1 + (d.rho2 - d.rho1) * d.mu2)
    eta = nu * (d.rho1 * d.mu2**2 - 2 * d.rho2 * d.mu1 * d.mu2 + d.rho3 * d.mu1**2)
    kappa = 2.0 * d.mu1 + (n - 2) * d.mu2
    alpha1, alpha2, L_R, L, L_C = _derived(phi, mu, eta, kappa, n)
    return RoterFit(
        phi, mu, eta, 0.0, True, True, alpha1, alpha2, L_R, L, L_C,
        gram_condition=1.0, nu=nu,
    )


# ---------------------------------------------------------------------------
# Cross-checks against the assembled product

def _fiber_frame(ws: WarpedSpec, point):
    _, fiber_pt = ws.split(point)
    return geo.frame(ws.fiber, fiber_pt)


def verify_product_christoffels(ws: WarpedSpec, point) -> float:
    """Max-abs residual of the product connection against its closed form.

    Blocks: base and fiber Christoffels pass through; the mixed blocks
    are G^a_{αβ} = -(1/2) ĝ^{ab} F_b g̃_{αβ} and
    G^α_{aβ} = (1/(2F)) F_a δ^α_β; everything else vanishes.
    """
    base_pt, _ = ws.split(point)
    p, m, n = ws.base_dim, ws.fiber_dim, ws.dim
    pframe = geo.frame(ws.product, point)
    bframe = geo.frame(ws.base, base_pt)
    fframe = _fiber_frame(ws, point)
    f_value, grad, _ = _warp_data(ws, base_pt)

    expected = np.zeros((n, n, n))
    expected[:p, :p, :p] = bframe.gamma
    expected[p:, p:, p:] = fframe.gamma
    mixed_a = -0.5 * np.einsum("ab,b->a", bframe.ginv, grad)
    for al in range(m):
        for be in range(m):
            expected[:p, p + al, p + be] = mixed_a * fframe.g[al, be]
    for a in range(p):
        for al in range(m):
            expected[p + al, a, p + al] = grad[a] / (2.0 * f_value)
            expected[p + al, p + al, a] = grad[a] / (2.0 * f_value)
    return max_abs_residual(pframe.gamma, expected)


def verify_curvature_blocks(ws: WarpedSpec, point) -> dict[str, float]:
    """Residuals of the curvature/Ricci block closed forms.

    Checks, against the direct curvature of the product:
      riemann_base    R_abcd = R̂_abcd
      riemann_mixed   R_αabδ = -(1/2) T_ab g̃_αδ
      riemann_fiber   R_αβγδ = F R̃_αβγδ - (Δ₁F/4) G̃_αβγδ
      riemann_zero    all blocks with an odd base/fiber index split
      ricci_base      S_ab = Ŝ_ab - ((n-p)/2F) T_ab
      ricci_fiber     S_αβ = S̃_αβ - (1/2)(tr T + (n-p-1)/(2F) Δ₁F) g̃_αβ
      ricci_mixed     S_aα = 0
      scalar          κ = κ̂ + κ̃/F - ((n-p)/F)(tr T + (n-p-1)/(4F) Δ₁F)
    """
    base_pt, _ = ws.split(point)
    p, n = ws.base_dim, ws.dim
    pframe = geo.frame(ws.product, point)
    bframe = geo.frame(ws.base, base_pt)
    fframe = _fiber_frame(ws, point)
    d = diagnostics(ws, point)
    R, S = pframe.riemann, pframe.ricci
    g_t, R_t = fframe.g, fframe.riemann
    G_t = unit_curvature(g_t)

    out = {}
    out["riemann_base"] = max_abs_residual(R[:p, :p, :p, :p], bframe.riemann)
    mixed = np.einsum("ab,xd->xabd", -0.5 * d.t, g_t)
    out["riemann_mixed"] = max_abs_residual(R[p:, :p, :p, p:], mixed)
    out["riemann_fiber"] = max_abs_residual(
        R[p:, p:, p:, p:], d.f_value * R_t - (d.delta1 / 4.0) * G_t
    )
    zero_worst = 0.0
    for block in (
        R[: p, : p, : p, p:],
        R[: p, : p, p:, p:],
        R[: p, p:, p:, p:],
    ):
        zero_worst = max(zero_worst, zero_residual(block, R))
    out["riemann_zero"] = zero_worst
    out["ricci_base"] = max_abs_residual(
        S[:p, :p], bframe.ricci - ((n - p) / (2.0 * d.f_value)) * d.t
    )
    out["ricci_fiber"] = max_abs_residual(
        S[p:, p:],
        fframe.ricci
        - 0.5 * (d.tr_t + (n - p - 1) / (2.0 * d.f_value) * d.delta1) * g_t,
    )
    out["ricci_mixed"] = zero_residual(S[:p, p:], S)
    closed_scalar = (
        d.base_scalar
        + d.fiber_scalar / d.f_value
        - ((n - p) / d.f_value) * (d.tr_t + (n - p - 1) / (4.0 * d.f_value) * d.delta1)
    )
    out["scalar"] = scalar_residual(pframe.scalar, closed_scalar)
    # internal consistency of the trace definition
    out["trace_t"] = scalar_residual(
        d.tr_t, float(np.einsum("ab,ab->", bframe.ginv, d.t))
    )
    return out


def verify_weyl_blocks(ws: WarpedSpec, point) -> dict[str, float]:
    """Residuals of the conformal-tensor block forms for a 2-D base.

    C_abcd = ((n-3) ρ₀/(n-1)) G_abcd,
    C_αbcδ = -((n-3) ρ₀/((n-2)(n-1))) G_αbcδ,
    C_αβγδ = (2 ρ₀/((n-2)(n-1))) G_αβγδ, other blocks vanish,
    with G built from the full product metric.  These are claims the
    engine verifies against the direct Weyl tensor, not assumptions.
    """
    p, n = ws.base_dim, ws.dim
    if p != 2:
        raise geo.GeometryError("conformal block forms require a 2-dimensional base")
    if n == 4 and ws.fiber_dim != 2:
        raise geo.GeometryError("dimension-4 products need a 2-dimensional fiber")
    pframe = geo.frame(ws.product, point)
    d = diagnostics(ws, point)
    C = pframe.weyl
    G = unit_curvature(pframe.g)
    rho0 = d.rho0
    out = {
        "weyl_base": max_abs_residual(
            C[:p, :p, :p, :p], ((n - 3) * rho0 / (n - 1)) * G[:p, :p, :p, :p]
        ),
        "weyl_mixed": max_abs_residual(
            C[p:, :p, :p, p:],
            (-(n - 3) * rho0 / ((n - 2) * (n - 1))) * G[p:, :p, :p, p:],
        ),
        "weyl_fiber": max_abs_residual(
            C[p:, p:, p:, p:], (2 * rho0 / ((n - 2) * (n - 1))) * G[p:, p:, p:, p:]
        ),
    }
    zero_worst = 0.0
    for block in (C[:p, :p, :p, p:], C[:p, :p, p:, p:], C[:p, p:, p:, p:]):
        zero_worst = max(zero_worst, zero_residual(block, C))
    out["weyl_zero"] = zero_worst
    return out


def verify_proportional_blocks(ws: WarpedSpec, point) -> dict[str, float]:
    """Block-proportionality residuals when T = (tr T / 2) ĝ holds.

    R_abcd = ρ₁ G, R_αbcβ = ρ₂ G, R_αβγδ = ρ₃ G, S_ab = μ₁ g,
    S_αβ = μ₂ g, each against the direct product curvature.
    """
    p, n = ws.base_dim, ws.dim
    if p != 2:
        raise geo.GeometryError("block factors require a 2-dimensional base")
    pframe = geo.frame(ws.product, point)
    d = diagnostics(ws, point)
    R, S, g = pframe.riemann, pframe.ricci, pframe.g
    G = unit_curvature(g)
    return {
        "block_riemann_base": max_abs_residual(
            R[:p, :p, :p, :p], d.rho1 * G[:p, :p, :p, :p]
        ),
        "block_riemann_mixed": max_abs_residual(
            R[p:, :p, :p, p:], d.rho2 * G[p:, :p, :p, p:]
        ),
        "block_riemann_fiber": max_abs_residual(
            R[p:, p:, p:, p:], d.rho3 * G[p:, p:, p:, p:]
        ),
        "block_ricci_base": max_abs_residual(S[:p, :p], d.mu1 * g[:p, :p]),
        "block_ricci_fiber": max_abs_residual(S[p:, p:], d.mu2 * g[p:, p:]),
    }


def conformal_flatness_test(ws: WarpedSpec, point) -> tuple[float, bool]:
    """(ρ₀, weyl-flat?) with flatness decided by |ρ₀| against the scale
    of its own terms; the Weyl block forms tie the two together."""
    d = diagnostics(ws, point)
    if d.rho0 is None:
        raise geo.GeometryError("rho0 requires a 2-dimensional base")
    n = ws.dim
    scale = (
        abs(d.base_scalar) / 2.0
        + abs(d.fiber_scalar) / ((n - 3) * (n - 2) * d.f_value)
        + abs(d.tr_t) / (2.0 * d.f_value)
        + abs(d.delta1) / (4.0 * d.f_value**2)
        + 1.0
    )
    return d.rho0, abs(d.rho0) <= 1e-9 * scale
