"""Pointwise differential geometry of a coordinate-chart metric.

A MetricSpec holds the n x n matrix of metric component expressions,
constant bindings and an admissibility predicate.  frame() evaluates
the metric together with its exact first and second derivatives at a
point and assembles the full curvature packet:

    Gamma^h_ij = (1/2) g^{hs} (d_i g_js + d_j g_is - d_s g_ij)
    R_hijk     = g_hs (d_k Gamma^s_ij - d_j Gamma^s_ik
                 + Gamma^r_ij Gamma^s_rk - Gamma^r_ik Gamma^s_rj)
    S_ij       = g^{ad} R_aijd,    kappa = g^{ij} S_ij
    C          = R - (g^S)/(n-2) + kappa G / ((n-2)(n-1))

The sign convention in R_hijk above is fixed once and for all; every
identity checked elsewhere in the package assumes it.  With this
convention the unit 2-sphere has R_1221 = 𝔞𝔟 > 0 and kappa = 2.

R is evaluated in the equal form through the Christoffel symbols of
the first kind, which needs no derivative of g^{-1} (Eisenhart,
Riemannian Geometry, 1926, section 8):

    Gamma_s,ij = (1/2) (d_i g_js + d_j g_is - d_s g_ij),    Gamma^h_ij = g^{hs} Gamma_s,ij
    R_hijk     = d_k Gamma_h,ij - d_j Gamma_h,ik + Gamma_a,hj Gamma^a_ik - Gamma_a,hk Gamma^a_ij

g, dg and d2g come from exact symbolic derivatives of the component
expressions, never from finite differences.  Frames for different
points are independent and nothing keeps them: whoever asks for a
frame owns it and passes it to the helpers below, which take frames
rather than (spec, point).  stack() joins frames of one chart into a
chunk: one PointFrame whose arrays carry a leading point axis, which
the Roter path evaluates for all its points at once.  MetricSpec is
immutable and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import expr as ex
from .curvops import kulkarni_nomizu, unit_curvature

__all__ = [
    "GeometryError",
    "SingularMetricError",
    "InadmissiblePointError",
    "MetricSpec",
    "PointFrame",
    "metric_spec",
    "diagonal_metric",
    "flat_metric",
    "constant_curvature_2d",
    "admissible",
    "frame",
    "stack",
    "gauss_curvature",
    "covariant_derivative_02",
    "second_bianchi_residual",
]

# Below this determinant-to-scale ratio the metric counts as singular.
_DET_RATIO = 1e-12
# "nonzero" admissibility conditions use this absolute floor.
_NONZERO_FLOOR = 1e-12


class GeometryError(ValueError):
    pass


class SingularMetricError(GeometryError):
    pass


class InadmissiblePointError(GeometryError):
    pass


Condition = tuple  # (Expr, "positive" | "nonzero")


@dataclass(frozen=True)
class MetricSpec:
    """Immutable chart metric: coordinates, component ASTs, constants.

    components is symmetric with shared AST references (the [i][j] and
    [j][i] entries are the same object).  conditions lists expressions
    required positive or nonzero for a point to be admissible; the
    determinant check is automatic and always on.
    """

    coords: tuple[str, ...]
    components: tuple[tuple[ex.Expr, ...], ...]
    bindings: ex.Bindings = field(default_factory=ex.Bindings)
    conditions: tuple[Condition, ...] = ()

    @property
    def dim(self) -> int:
        return len(self.coords)


def _parse_maybe(entry, coords, const_names) -> ex.Expr:
    if isinstance(entry, str):
        return ex.parse(entry, coords, const_names)
    if isinstance(entry, (int, float)):
        return ex.Num(float(entry))
    return entry


def metric_spec(
    coords: Sequence[str],
    components,
    bindings: Mapping[str, float] | None = None,
    conditions: Iterable = (),
) -> MetricSpec:
    """Build a MetricSpec, accepting strings or Expr for components.

    The upper triangle is authoritative; a lower-triangle entry must be
    structurally equal to its mirror or be omitted (None).  Condition
    entries are (expression, "positive"|"nonzero") pairs.
    """
    coords = tuple(coords)
    b = bindings if isinstance(bindings, ex.Bindings) else ex.Bindings(bindings or {})
    names = tuple(b)
    n = len(coords)
    rows = [list(row) for row in components]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise GeometryError(f"component matrix must be {n}x{n}")
    parsed: list[list[ex.Expr | None]] = [
        [None if rows[i][j] is None else _parse_maybe(rows[i][j], coords, names) for j in range(n)]
        for i in range(n)
    ]
    sym: list[list[ex.Expr]] = [[ex.Num(0.0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            upper, lower = parsed[i][j], parsed[j][i]
            if upper is None and lower is None:
                raise GeometryError(f"component ({i},{j}) missing")
            if upper is not None and lower is not None and i != j and upper != lower:
                raise GeometryError(f"components ({i},{j}) and ({j},{i}) differ structurally")
            entry = upper if upper is not None else lower
            sym[i][j] = entry
            sym[j][i] = entry
    conds = tuple(
        (_parse_maybe(c, coords, names), kind)
        for c, kind in conditions
    )
    for c, kind in conds:
        if kind not in ("positive", "nonzero"):
            raise GeometryError(f"unknown condition kind {kind!r}")
    return MetricSpec(coords, tuple(tuple(r) for r in sym), b, conds)


def diagonal_metric(coords, diagonal, bindings=None, conditions=()) -> MetricSpec:
    n = len(coords)
    comps = [[(diagonal[i] if i == j else 0.0) for j in range(n)] for i in range(n)]
    return metric_spec(coords, comps, bindings, conditions)


def flat_metric(dim: int, prefix: str = "x") -> MetricSpec:
    coords = tuple(f"{prefix}{i + 1}" for i in range(dim))
    return diagonal_metric(coords, [1.0] * dim)


def constant_curvature_2d(
    b,
    gauss_curvature: float,
    energy: float,
    coords: Sequence[str] = ("x", "y"),
    bindings: Mapping[str, float] | None = None,
) -> MetricSpec:
    """Surface diag(𝔞, 𝔟) of constant Gauss curvature K.

    Given a profile 𝔟(x) the first component is forced to
    𝔞 = (𝔟')^2 / (𝔟 (E - 4K𝔟)), which pins the Gauss curvature to K
    wherever the chart is admissible; E selects the representative.
    """
    coords = tuple(coords)
    bmap = bindings if isinstance(bindings, ex.Bindings) else ex.Bindings(bindings or {})
    b_expr = _parse_maybe(b, coords, tuple(bmap))
    bp = ex.diff(b_expr, coords[0])
    denom_factor = ex.sub(ex.num(energy), ex.mul(ex.num(4.0 * gauss_curvature), b_expr))
    a_expr = ex.div(ex.intpow(bp, 2), ex.mul(b_expr, denom_factor))
    conds = (
        (b_expr, "nonzero"),
        (bp, "nonzero"),
        (denom_factor, "nonzero"),
    )
    return metric_spec(coords, [[a_expr, 0.0], [0.0, b_expr]], bmap, conds)


# ---------------------------------------------------------------------------
# g, dg and d2g come from one derivative jet of the components; the
# admissibility checks run on the same evaluation.

def _metric_jet(spec: MetricSpec, point: Sequence[float], check: bool = True):
    """g, dg[k,i,j] = d_k g_ij and d2g[l,k,i,j] = d_l d_k g_ij at a point.

    Raises InadmissiblePointError when check is set and a declared
    condition fails, SingularMetricError when g does not invert, and
    DomainError when a component leaves its real domain.
    """
    if check and spec.conditions:
        conditions = tuple(c for c, _ in spec.conditions)
        (values,) = ex.jet(conditions, spec.coords, spec.bindings, 0)(point)
        for v, (cond, kind) in zip(values.tolist(), spec.conditions):
            ok = v > 0.0 if kind == "positive" else abs(v) > _NONZERO_FLOOR
            if not ok:
                raise InadmissiblePointError(
                    f"condition {ex.to_text(cond)!r} ({kind}) fails at {tuple(point)}: value {v!r}"
                )
    n = spec.dim
    components = tuple(e for row in spec.components for e in row)
    g, dg, d2g = ex.jet(components, spec.coords, spec.bindings, 2)(point)
    g = g.reshape(n, n)
    if _is_singular(g):
        raise SingularMetricError(f"metric is singular at {tuple(point)}")
    return g, dg.reshape(n, n, n), d2g.reshape(n, n, n, n)


def admissible(spec: MetricSpec, point: Sequence[float]) -> bool:
    """True when all declared conditions hold and the metric inverts."""
    try:
        _metric_jet(spec, point)
    except (GeometryError, ex.ExprError):
        return False
    return True


def _is_singular(g: np.ndarray) -> bool:
    scale = float(np.prod(np.linalg.norm(g, axis=1))) + 1e-300
    return abs(float(np.linalg.det(g))) <= _DET_RATIO * scale


# ---------------------------------------------------------------------------
# Curvature from the 2-jet, and the PointFrame built on it

def _curvature(g: np.ndarray, dg: np.ndarray, d2g: np.ndarray):
    """(g^{-1}, Gamma^h_ij, R_hijk) from g, dg[k,i,j] and d2g[l,k,i,j], as
    R_hijk = A_hijk - A_hikj with A_hijk = d_k Gamma_h,ij + Gamma_a,hj Gamma^a_ik."""
    n = g.shape[0]
    ginv = np.linalg.inv(g)
    # lower[i,j,s] = Gamma_s,ij and dlower[k,i,j,s] = d_k Gamma_s,ij
    lower = 0.5 * (dg + np.transpose(dg, (1, 0, 2)) - np.moveaxis(dg, 0, 2))
    dlower = 0.5 * (
        d2g + np.transpose(d2g, (0, 2, 1, 3)) - np.transpose(d2g, (0, 2, 3, 1))
    )
    gamma = np.einsum("hs,ijs->hij", ginv, lower)
    # quad[h,j,i,k] = Gamma_a,hj Gamma^a_ik
    quad = (lower.reshape(n * n, n) @ gamma.reshape(n, n * n)).reshape(n, n, n, n)
    A = np.transpose(dlower, (3, 1, 2, 0)) + np.transpose(quad, (0, 2, 1, 3))
    return ginv, gamma, A - np.swapaxes(A, 2, 3)


@dataclass(frozen=True)
class PointFrame:
    """Everything the identity suites need at one point, or at a chunk
    of points (see stack).

    weyl is the zero array for charts of dimension < 4, where the
    conformal tensor carries no content.
    """

    spec: MetricSpec
    point: tuple[float, ...]
    g: np.ndarray
    ginv: np.ndarray
    dg: np.ndarray
    gamma: np.ndarray
    riemann: np.ndarray
    ricci: np.ndarray
    ricci_sq: np.ndarray
    scalar: float
    weyl: np.ndarray

    @property
    def dim(self) -> int:
        return self.g.shape[-1]

    def take(self, lanes) -> PointFrame:
        """The chunk of the given lanes (point indices) of a stacked frame."""
        lanes = list(lanes)
        if lanes == list(range(len(self.g))):
            return self
        return PointFrame(self.spec, tuple(self.point[i] for i in lanes),
                          *(getattr(self, name)[lanes] for name in _LANE_FIELDS))


# The fields that gain the point axis in a stacked frame.
_LANE_FIELDS = tuple(f.name for f in fields(PointFrame))[2:]


def stack(frames: Sequence[PointFrame]) -> PointFrame:
    """One frame for a chunk of points of one chart.

    Each array gains a leading point axis, lane i holding frames[i]'s
    (g of shape (P, n, n), scalar of shape (P,)), and point becomes the
    tuple of the frames' points.  One frame's arrays are views, not
    copies.
    """
    if len(frames) == 1:
        lanes = (np.asarray(getattr(frames[0], name))[None] for name in _LANE_FIELDS)
    else:
        lanes = (np.array([getattr(f, name) for f in frames]) for name in _LANE_FIELDS)
    return PointFrame(frames[0].spec, tuple(f.point for f in frames), *lanes)


def frame(spec: MetricSpec, point: Sequence[float]) -> PointFrame:
    """Evaluate the full curvature packet at a point.

    Every call computes a new frame; callers that need it more than
    once keep it.  Callers must not mutate the returned arrays.
    """
    point = tuple(float(v) for v in point)
    if len(point) != spec.dim:
        raise GeometryError(f"point has {len(point)} coordinates, chart has {spec.dim}")
    g, dg, d2g = _metric_jet(spec, point)
    ginv, gamma, riem = _curvature(g, dg, d2g)
    n = spec.dim

    ricci = np.einsum("ad,aijd->ij", ginv, riem)
    scalar = float(np.einsum("ij,ij->", ginv, ricci))
    ricci_sq = ricci @ ginv @ ricci

    if n >= 4:
        weyl = (
            riem
            - kulkarni_nomizu(g, ricci) / (n - 2)
            + scalar * unit_curvature(g) / ((n - 2) * (n - 1))
        )
    else:
        weyl = np.zeros_like(riem)

    return PointFrame(spec, point, g, ginv, dg, gamma, riem, ricci, ricci_sq, scalar, weyl)


def gauss_curvature(f: PointFrame) -> float:
    """Gauss curvature of a 2-dimensional frame: R_1221 / det g = kappa/2."""
    if f.dim != 2:
        raise GeometryError(f"Gauss curvature needs a 2-dimensional chart, got {f.dim}")
    det = float(np.linalg.det(f.g))
    return float(f.riemann[0, 1, 1, 0] / det)


# ---------------------------------------------------------------------------
# Covariant derivative of a (0,2) field

def covariant_derivative_02(f: PointFrame, T: np.ndarray, dT: np.ndarray) -> np.ndarray:
    """nabla_k T_ij of a (0,2) field, using the connection of frame f.

    T[i,j] is the field at f's point and dT[k,i,j] = d_k T_ij its
    coordinate derivatives (for example f.g and f.dg, or another
    metric's g and dg on the same chart).  Returns the array indexed
    [k,i,j]; the field need not be symmetric.
    """
    return (
        dT
        - np.einsum("ski,sj->kij", f.gamma, T)
        - np.einsum("skj,is->kij", f.gamma, T)
    )


# ---------------------------------------------------------------------------
# Smoke check: differential (second) Bianchi identity.  The cyclic sum
# nabla_l R_hijk + nabla_j R_hikl + nabla_k R_hilj must vanish; the
# derivative here is finite-differenced from R at 2n stencil points
# around base's point (unchecked jets, no frames), so this is a coarse
# check only.

def second_bianchi_residual(base: PointFrame) -> float:
    spec, step = base.spec, 1e-5
    n = spec.dim
    dR = np.empty((n, n, n, n, n))
    for l in range(n):
        hi = list(base.point)
        lo = list(base.point)
        hi[l] += step
        lo[l] -= step
        r_hi, r_lo = (_curvature(*_metric_jet(spec, pt, False))[2] for pt in (hi, lo))
        dR[l] = (r_hi - r_lo) / (2 * step)
    gam = base.gamma
    R = base.riemann
    nabla = (
        dR
        - np.einsum("slh,sijk->lhijk", gam, R)
        - np.einsum("sli,hsjk->lhijk", gam, R)
        - np.einsum("slj,hisk->lhijk", gam, R)
        - np.einsum("slk,hijs->lhijk", gam, R)
    )
    cyc = (
        nabla
        + np.transpose(nabla, (3, 1, 2, 4, 0))
        + np.transpose(nabla, (4, 1, 2, 0, 3))
    )
    return float(np.max(np.abs(cyc)) / (np.max(np.abs(R)) + 1.0))
