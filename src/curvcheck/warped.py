"""Warped products: assembly, closed-form diagnostics and block checks.

A warped product glues a base chart (coordinates x^a, metric ĝ) to a
fiber chart (coordinates y^α, metric g̃) through a positive warping
function F on the base:

    g = ĝ  on the base block,   g = F g̃  on the fiber block.

All of its curvature concentrates in closed forms built from

    T_ab  = ∇̂_a F_b - (1/2F) F_a F_b
    tr(T) = ĝ^{ab} T_ab
    Δ₁F   = ĝ^{ab} F_a F_b

diagnostics(ws, frame, fiber_frame) evaluates these at the product
frame's point together with the two Ricci block factors μ₁, μ₂, the
three curvature block factors ρ₁, ρ₂, ρ₃ and the conformal-flatness
scalar ρ₀ (the last six only for a 2-dimensional base), and keeps the
two frames it is handed with the base frame it computes.  The
verify_* functions, t_proportionality_residual and
conformal_flatness_test take that WarpedDiagnostics and compare every
closed form against the direct curvature of the assembled product
metric; they are the engine's cross-check that the block formulas hold,
not assumptions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import expr as ex
from . import geometry as geo
from .curvops import (
    max_abs_residual,
    scalar_residual,
    unit_curvature,
    zero_residual,
)

__all__ = [
    "WarpedSpec",
    "WarpedDiagnostics",
    "assemble",
    "constant_curvature_fiber",
    "diagnostics",
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

    @cached_property
    def _warp_jet(self):
        """The warp's 2-jet over the base chart, bound once per spec."""
        return ex.jet((self.warp,), self.base.coords, self.base.bindings, 2)

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


def constant_curvature_fiber(dim: int, scalar_curvature: float) -> geo.MetricSpec:
    """Conformally flat model of constant curvature.

    Components g̃_αβ = δ_αβ / (1 + (k/4) Σ (y^α)^2)^2 with sectional
    curvature k = scalar_curvature / (dim (dim - 1)); any isometric
    model would do, this one has the simplest closed form.
    """
    if dim < 2:
        raise geo.GeometryError("fiber model needs dimension >= 2")
    coords = tuple(f"y{i + 1}" for i in range(dim))
    k = scalar_curvature / (dim * (dim - 1))
    radius2 = " + ".join(f"{c}^2" for c in coords)
    conf = f"(1 + {k!r}/4*({radius2}))"
    diag = f"1/{conf}^2"
    return geo.diagonal_metric(coords, [diag] * dim, conditions=[(conf, "nonzero")])


# ---------------------------------------------------------------------------
# Closed-form diagnostics

@dataclass(frozen=True)
class WarpedDiagnostics:
    """Pointwise warped-product scalars and the frames they came from.

    frame, base_frame and fiber_frame are the product, base and fiber
    frames at the point; grad is the base gradient of the warp.
    rho0..rho3, mu1, mu2 are populated only for a 2-dimensional base
    (they are block factors of that geometry); T, tr_T and delta1 are
    general.
    """

    frame: geo.PointFrame
    base_frame: geo.PointFrame
    fiber_frame: geo.PointFrame
    f_value: float
    grad: np.ndarray
    t: np.ndarray
    tr_t: float
    delta1: float
    rho0: float | None
    rho1: float | None
    rho2: float | None
    rho3: float | None
    mu1: float | None
    mu2: float | None


def diagnostics(ws: WarpedSpec, frame: geo.PointFrame,
                fiber_frame: geo.PointFrame) -> WarpedDiagnostics:
    """T, tr(T), Δ₁F and (for 2-D bases) the block factors at the product
    frame's point; fiber_frame is the fiber's frame at that point's fiber
    coordinates (a family's source and image share one)."""
    point = frame.point
    base_pt = ws.split(point)[0]
    base = ws.base
    bframe = geo.frame(base, base_pt)
    f_value, grad, hess = ws._warp_jet(base_pt)
    f_value, grad, hess = float(f_value[0]), grad[:, 0], hess[:, :, 0]
    if f_value <= 0.0:
        raise geo.InadmissiblePointError(f"warping function non-positive at {tuple(point)}")
    nabla_grad = hess - np.einsum("sab,s->ab", bframe.gamma, grad)
    t = nabla_grad - np.outer(grad, grad) / (2.0 * f_value)
    ginv_base = bframe.ginv
    tr_t = float(np.einsum("ab,ab->", ginv_base, t))
    delta1 = float(grad @ ginv_base @ grad)
    fiber_scalar = fiber_frame.scalar

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
        frame, bframe, fiber_frame, f_value, grad,
        t, tr_t, delta1, rho0, rho1, rho2, rho3, mu1, mu2,
    )


def t_proportionality_residual(d: WarpedDiagnostics) -> float:
    """How far T is from (tr T / 2) ĝ; zero characterizes the
    pseudosymmetric warped products over 2-dimensional bases."""
    return max_abs_residual(d.t, (d.tr_t / d.base_frame.dim) * d.base_frame.g)


# ---------------------------------------------------------------------------
# Cross-checks against the assembled product

def _split_blocks_residual(T, p: int) -> float:
    """Worst zero residual of the (0,4) blocks with an odd base/fiber split."""
    blocks = (T[:p, :p, :p, p:], T[:p, :p, p:, p:], T[:p, p:, p:, p:])
    return max(zero_residual(block, T) for block in blocks)


def verify_product_christoffels(d: WarpedDiagnostics) -> float:
    """Max-abs residual of the product connection against its closed form.

    Blocks: base and fiber Christoffels pass through; the mixed blocks
    are G^a_{αβ} = -(1/2) ĝ^{ab} F_b g̃_{αβ} and
    G^α_{aβ} = (1/(2F)) F_a δ^α_β; everything else vanishes.
    """
    pframe, bframe, fframe = d.frame, d.base_frame, d.fiber_frame
    p, m, n = bframe.dim, fframe.dim, pframe.dim
    f_value, grad = d.f_value, d.grad

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


def verify_curvature_blocks(d: WarpedDiagnostics) -> dict[str, float]:
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
    pframe, bframe, fframe = d.frame, d.base_frame, d.fiber_frame
    p, n = bframe.dim, pframe.dim
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
    out["riemann_zero"] = _split_blocks_residual(R, p)
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
        bframe.scalar
        + fframe.scalar / d.f_value
        - ((n - p) / d.f_value) * (d.tr_t + (n - p - 1) / (4.0 * d.f_value) * d.delta1)
    )
    out["scalar"] = scalar_residual(pframe.scalar, closed_scalar)
    # internal consistency of the trace definition
    out["trace_t"] = scalar_residual(
        d.tr_t, float(np.einsum("ab,ab->", bframe.ginv, d.t))
    )
    return out


def verify_weyl_blocks(d: WarpedDiagnostics) -> dict[str, float]:
    """Residuals of the conformal-tensor block forms for a 2-D base.

    C_abcd = ((n-3) ρ₀/(n-1)) G_abcd,
    C_αbcδ = -((n-3) ρ₀/((n-2)(n-1))) G_αbcδ,
    C_αβγδ = (2 ρ₀/((n-2)(n-1))) G_αβγδ, other blocks vanish,
    with G built from the full product metric.  These are claims the
    engine verifies against the direct Weyl tensor, not assumptions.
    """
    p, n = d.base_frame.dim, d.frame.dim
    if p != 2:
        raise geo.GeometryError("conformal block forms require a 2-dimensional base")
    if n == 4 and d.fiber_frame.dim != 2:
        raise geo.GeometryError("dimension-4 products need a 2-dimensional fiber")
    C, G, rho0 = d.frame.weyl, unit_curvature(d.frame.g), d.rho0
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
    out["weyl_zero"] = _split_blocks_residual(C, p)
    return out


def verify_proportional_blocks(d: WarpedDiagnostics) -> dict[str, float]:
    """Block-proportionality residuals when T = (tr T / 2) ĝ holds.

    R_abcd = ρ₁ G, R_αbcβ = ρ₂ G, R_αβγδ = ρ₃ G, S_ab = μ₁ g,
    S_αβ = μ₂ g, each against the direct product curvature.
    """
    p = d.base_frame.dim
    if p != 2:
        raise geo.GeometryError("block factors require a 2-dimensional base")
    R, S, g = d.frame.riemann, d.frame.ricci, d.frame.g
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


def conformal_flatness_test(d: WarpedDiagnostics) -> tuple[float, bool]:
    """(ρ₀, weyl-flat?) with flatness decided by |ρ₀| against the scale
    of its own terms; the Weyl block forms tie the two together."""
    if d.rho0 is None:
        raise geo.GeometryError("rho0 requires a 2-dimensional base")
    n = d.frame.dim
    scale = (
        abs(d.base_frame.scalar) / 2.0
        + abs(d.fiber_frame.scalar) / ((n - 3) * (n - 2) * d.f_value)
        + abs(d.tr_t) / (2.0 * d.f_value)
        + abs(d.delta1) / (4.0 * d.f_value**2)
        + 1.0
    )
    return d.rho0, abs(d.rho0) <= 1e-9 * scale
