"""Warped products: assembly, closed-form diagnostics and block checks.

A warped product glues a base chart (coordinates x^a, metric ĝ) to a
fiber chart (coordinates y^α, metric g̃) through a positive warping
function F on the base:

    g = ĝ  on the base block,   g = F g̃  on the fiber block.

All of its curvature concentrates in closed forms built from

    T_ab  = ∇̂_a F_b - (1/2F) F_a F_b
    tr(T) = ĝ^{ab} T_ab
    Δ₁F   = ĝ^{ab} F_a F_b

diagnostics(ws, frame, fiber_frame, blocks) evaluates these at every
point of a stacked product frame (see geometry.frames), from the
product's jets, with the Ricci block factors μ₁, μ₂, the curvature
block factors ρ₁, ρ₂, ρ₃ and the conformal-flatness scalar ρ₀ (the
last six only for a 2-dimensional base).  The verify_* functions,
t_proportionality_residual and conformal_flatness_test compare every
closed form against the direct curvature of the assembled product,
one residual per point: the engine's cross-check that the block
formulas hold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from . import geometry as geo
from .curvops import (
    lane_max_abs_residuals,
    lane_zero_residuals,
    per_lane,
    scalar_residual,
    unit_curvature,
)


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

    def blocks(self, jets) -> tuple[tuple[np.ndarray, ...], ...]:
        """The base's, fiber's and warp's jets, each along its own chart's
        axes, read from the product's outputs (geo.metric_jets's)."""
        n, p, m = self.dim, self.base_dim, self.fiber_dim
        base, fiber = np.arange(n * n).reshape(n, n)[:p, :p], n * n + np.arange(m * m).reshape(m, m)
        return (geo.jet_block(jets, base, slice(p)), geo.jet_block(jets, fiber, slice(p, n)),
                geo.jet_block(jets, n * n + m * m, slice(p)))


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
    extras = tuple(e for row in fiber.components for e in row) + (warp_expr,)
    product = geo.MetricSpec(coords, tuple(tuple(r) for r in comps), bindings, conditions, extras)
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
    """Warped-product scalars at a chunk of points, and their frames.

    frame, base_frame and fiber_frame are the stacked product, base and
    fiber frames; grad is the base gradient of the warp.  Every array
    carries the point axis first (t of shape (P, p, p)).  rho0..rho3,
    mu1, mu2 are set only for a 2-dimensional base (block factors of
    that geometry).
    """

    frame: geo.PointFrame
    base_frame: geo.PointFrame
    fiber_frame: geo.PointFrame
    f_value: np.ndarray
    grad: np.ndarray
    t: np.ndarray
    tr_t: np.ndarray
    delta1: np.ndarray
    rho0: np.ndarray | None
    rho1: np.ndarray | None
    rho2: np.ndarray | None
    rho3: np.ndarray | None
    mu1: np.ndarray | None
    mu2: np.ndarray | None


def diagnostics(ws: WarpedSpec, frame: geo.PointFrame, fiber_frame: geo.PointFrame,
                blocks) -> WarpedDiagnostics:
    """T, tr(T), Δ₁F and (for 2-D bases) the block factors at each point
    of a stacked product frame; fiber_frame is the fiber's stacked frame
    at those points' fiber coordinates (a family's source and image
    share one), and blocks ws.blocks of the product's jets there, whose
    base and warp jets give the base frame and F, ∇F and ∇²F.
    Everything runs once over the point axis."""
    base_jet, _, (f_value, grad, hess) = blocks
    bframe = geo.frames(ws.base, [ws.split(point)[0] for point in frame.point], base_jet)
    nabla_grad = hess - np.einsum("psab,ps->pab", bframe.gamma, grad)
    t = nabla_grad - grad[:, :, None] * grad[:, None, :] / per_lane(2.0 * f_value, 2)
    ginv_base = bframe.ginv
    tr_t = np.einsum("pab,pab->p", ginv_base, t)
    delta1 = (grad[:, None, :] @ ginv_base @ grad[:, :, None])[:, 0, 0]
    fiber_scalar = fiber_frame.scalar

    n, p = ws.dim, ws.base_dim
    if p == 2 and n >= 4:
        kb = bframe.scalar
        rho0 = (
            kb / 2.0
            + fiber_scalar / ((n - 3) * (n - 2) * f_value)
            + tr_t / (2.0 * f_value)
            - delta1 / (4.0 * _square(f_value))
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


def _square(v: np.ndarray) -> np.ndarray:
    # Each lane through libm's pow, as Python squares a float; numpy's
    # v * v differs from it in the last bit for about 0.1% of values.
    return np.array([x ** 2 for x in v.tolist()])


def t_proportionality_residual(d: WarpedDiagnostics) -> np.ndarray:
    """How far T is from (tr T / 2) ĝ at each lane; zero characterizes
    the pseudosymmetric warped products over 2-dimensional bases."""
    return lane_max_abs_residuals(d.t, per_lane(d.tr_t / d.base_frame.dim, 2) * d.base_frame.g)


# ---------------------------------------------------------------------------
# Cross-checks against the assembled product.  Each returns one residual
# per lane of the diagnostics; block slices keep the point axis.

def _block(T, p: int, kind: str) -> np.ndarray:
    """The base (abcd), mixed (αabδ) or fiber (αβγδ) block of a stacked
    (0,4) tensor over a p-dimensional base."""
    b, f = slice(None, p), slice(p, None)
    slots = {"base": (b, b, b, b), "mixed": (f, b, b, f), "fiber": (f, f, f, f)}[kind]
    return T[(slice(None),) + slots]


def _block_residuals(T, G, p: int, factors: dict) -> dict:
    """Each named block of T against its factor (per lane) times G's."""
    return {name: lane_max_abs_residuals(_block(T, p, k), per_lane(c, 4) * _block(G, p, k))
            for name, (k, c) in factors.items()}


def _split_blocks_residual(T, p: int) -> np.ndarray:
    """Worst zero residual of the (0,4) blocks with an odd base/fiber split."""
    blocks = (T[:, :p, :p, :p, p:], T[:, :p, :p, p:, p:], T[:, :p, p:, p:, p:])
    return np.maximum.reduce([lane_zero_residuals(block, T) for block in blocks])


def verify_product_christoffels(d: WarpedDiagnostics) -> np.ndarray:
    """Max-abs residual of the product connection against its closed form.

    Blocks: base and fiber Christoffels pass through; the mixed blocks
    are G^a_{αβ} = -(1/2) ĝ^{ab} F_b g̃_{αβ} and
    G^α_{aβ} = (1/(2F)) F_a δ^α_β; everything else vanishes.
    """
    pframe, bframe, fframe = d.frame, d.base_frame, d.fiber_frame
    p, m, n = bframe.dim, fframe.dim, pframe.dim

    expected = np.zeros((len(d.f_value), n, n, n))
    expected[:, :p, :p, :p] = bframe.gamma
    expected[:, p:, p:, p:] = fframe.gamma
    mixed_a = -0.5 * np.einsum("pab,pb->pa", bframe.ginv, d.grad)
    expected[:, :p, p:, p:] = mixed_a[:, :, None, None] * fframe.g[:, None]
    half = d.grad / per_lane(2.0 * d.f_value, 1)
    for al in range(p, p + m):
        expected[:, al, :p, al] = half
        expected[:, al, al, :p] = half
    return lane_max_abs_residuals(pframe.gamma, expected)


def verify_curvature_blocks(d: WarpedDiagnostics) -> dict[str, np.ndarray]:
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
    F, tr_t, delta1 = d.f_value, d.tr_t, d.delta1

    out = {}
    out["riemann_base"] = lane_max_abs_residuals(_block(R, p, "base"), bframe.riemann)
    mixed = np.einsum("pab,pxd->pxabd", -0.5 * d.t, g_t)
    out["riemann_mixed"] = lane_max_abs_residuals(_block(R, p, "mixed"), mixed)
    out["riemann_fiber"] = lane_max_abs_residuals(
        _block(R, p, "fiber"), per_lane(F, 4) * R_t - per_lane(delta1 / 4.0, 4) * G_t
    )
    out["riemann_zero"] = _split_blocks_residual(R, p)
    out["ricci_base"] = lane_max_abs_residuals(
        S[:, :p, :p], bframe.ricci - per_lane((n - p) / (2.0 * F), 2) * d.t
    )
    out["ricci_fiber"] = lane_max_abs_residuals(
        S[:, p:, p:],
        fframe.ricci - per_lane(0.5 * (tr_t + (n - p - 1) / (2.0 * F) * delta1), 2) * g_t,
    )
    out["ricci_mixed"] = lane_zero_residuals(S[:, :p, p:], S)
    closed_scalar = (
        bframe.scalar
        + fframe.scalar / F
        - ((n - p) / F) * (tr_t + (n - p - 1) / (4.0 * F) * delta1)
    )
    out["scalar"] = scalar_residual(pframe.scalar, closed_scalar)
    # internal consistency of the trace definition
    out["trace_t"] = scalar_residual(tr_t, np.einsum("pab,pab->p", bframe.ginv, d.t))
    return out


def verify_weyl_blocks(d: WarpedDiagnostics) -> dict[str, np.ndarray]:
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
    out = _block_residuals(C, G, p, {
        "weyl_base": ("base", (n - 3) * rho0 / (n - 1)),
        "weyl_mixed": ("mixed", -(n - 3) * rho0 / ((n - 2) * (n - 1))),
        "weyl_fiber": ("fiber", 2 * rho0 / ((n - 2) * (n - 1))),
    })
    out["weyl_zero"] = _split_blocks_residual(C, p)
    return out


def verify_proportional_blocks(d: WarpedDiagnostics) -> dict[str, np.ndarray]:
    """Block-proportionality residuals when T = (tr T / 2) ĝ holds.

    R_abcd = ρ₁ G, R_αbcβ = ρ₂ G, R_αβγδ = ρ₃ G, S_ab = μ₁ g,
    S_αβ = μ₂ g, each against the direct product curvature.
    """
    p = d.base_frame.dim
    if p != 2:
        raise geo.GeometryError("block factors require a 2-dimensional base")
    R, S, g = d.frame.riemann, d.frame.ricci, d.frame.g
    out = _block_residuals(R, unit_curvature(g), p, {
        "block_riemann_base": ("base", d.rho1),
        "block_riemann_mixed": ("mixed", d.rho2),
        "block_riemann_fiber": ("fiber", d.rho3),
    })
    base, fiber = np.s_[:, :p, :p], np.s_[:, p:, p:]
    out["block_ricci_base"] = lane_max_abs_residuals(S[base], per_lane(d.mu1, 2) * g[base])
    out["block_ricci_fiber"] = lane_max_abs_residuals(S[fiber], per_lane(d.mu2, 2) * g[fiber])
    return out


def conformal_flatness_test(d: WarpedDiagnostics) -> tuple[np.ndarray, np.ndarray]:
    """(ρ₀, weyl-flat?) at each lane, with flatness decided by |ρ₀|
    against the scale of its own terms; the Weyl block forms tie the
    two together."""
    if d.rho0 is None:
        raise geo.GeometryError("rho0 requires a 2-dimensional base")
    n = d.frame.dim
    scale = (
        np.abs(d.base_frame.scalar) / 2.0
        + np.abs(d.fiber_frame.scalar) / ((n - 3) * (n - 2) * d.f_value)
        + np.abs(d.tr_t) / (2.0 * d.f_value)
        + np.abs(d.delta1) / (4.0 * _square(d.f_value))
        + 1.0
    )
    return d.rho0, np.abs(d.rho0) <= 1e-9 * scale
