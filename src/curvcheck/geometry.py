"""Pointwise differential geometry of a coordinate-chart metric.

A MetricSpec holds the n x n matrix of metric component expressions,
constant bindings and an admissibility predicate.  frames() evaluates
the metric together with its exact first and second derivatives at
each point of a chunk and assembles the full curvature packet:

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
expressions, and d R from a complex step through their program.  A
MetricSpec binds its conditions and components programs from ex.jet
on first use, so no point's evaluation looks up ex.jet's build cache; a
warped product's also yields the jets of its fiber components and warp.

admissible(spec, points) tests the conditions, raising ex.DomainError
where one cannot be evaluated, and invertible(jets) the metric, one bool
per point; only cli.Job.sample_ok, which alone splits a raising batch,
calls them.  metric_jets(spec, points) runs the components program over
the points, with a leading point axis, and jet_block reads (g, dg, d2g)
from it; frames(spec, points, jet) then computes the curvature packet,
from whatever jets it is handed, once over that axis: one PointFrame
whose arrays carry it (g of shape (P, n, n)).  Each lane of it, and of
second_bianchi_residual, equals the same call on that point alone, bit
for bit.  PointFrame.take cuts some lanes.  Whoever asks for a frame
owns it and passes it to the helpers below.
MetricSpec is immutable apart from its bound programs, and thread-safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property, partial
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import expr as ex
from .curvops import kulkarni_nomizu, lane_zero_residuals, unit_curvature

# Below this determinant-to-scale ratio the metric counts as singular.
_DET_RATIO = 1e-12
# "nonzero" admissibility conditions use this absolute floor.
_NONZERO_FLOOR = 1e-12


class GeometryError(ValueError):
    pass


Condition = tuple  # (Expr, "positive" | "nonzero")


@dataclass(frozen=True)
class MetricSpec:
    """Immutable chart metric: coordinates, component ASTs, constants.

    components is symmetric with shared AST references (the [i][j] and
    [j][i] entries are the same object).  conditions lists expressions
    required positive or nonzero for a point to be admissible, and
    invertible tests the metric itself.  extras are outputs
    of the components program after the n x n components, row-major.
    """

    coords: tuple[str, ...]
    components: tuple[tuple[ex.Expr, ...], ...]
    bindings: ex.Bindings = field(default_factory=ex.Bindings)
    conditions: tuple[Condition, ...] = ()
    extras: tuple[ex.Expr, ...] = ()

    @property
    def dim(self) -> int:
        return len(self.coords)

    # The chart's jet programs, bound on first use, so that a point's
    # evaluation looks up no build cache entry of ex.jet (whose key
    # compare walks the expression trees of a rebuilt spec).
    @cached_property
    def _condition_jet(self):
        return ex.jet(tuple(c for c, _ in self.conditions), self.coords, self.bindings, 0)

    @cached_property
    def _component_jet(self):
        components = tuple(e for row in self.components for e in row)
        return ex.jet(components + self.extras, self.coords, self.bindings, 2)


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


# ---------------------------------------------------------------------------
# g, dg and d2g come from one derivative jet of the components; the
# conditions and the metric's invertibility are checked apart.

def metric_jets(spec: MetricSpec, points: Sequence[Sequence[float]]):
    """The jets of spec's components program at the points, as ex.jet's."""
    return spec._component_jet(points)


def invertible(jets) -> np.ndarray:
    """Whether the metric of jets' first n x n outputs inverts, at each point."""
    n = jets[1].shape[1]
    g = np.ascontiguousarray(jets[0][:, :n * n].reshape(-1, n, n))
    # |det g| over the product of g's row norms, from g's rows over their
    # largest |entry|: the same ratio, but no norm overflows.  A zero row,
    # or a g that is not finite (so neither is det), reads as singular.
    with np.errstate(invalid="ignore"):
        top = np.max(np.abs(g), axis=-1, keepdims=True)
        unit = g / np.where(top > 0.0, top, 1.0)
        det = np.abs(np.linalg.det(unit))
    return det > _DET_RATIO * np.prod(np.linalg.norm(unit, axis=-1), axis=-1)


def jet_block(jets, columns=None, axes=slice(None)) -> tuple[np.ndarray, ...]:
    """Contiguous (values, first, second) of metric_jets's outputs at
    columns, an index array shaping each lane (by default an n x n
    metric), differentiated along the chart axes axes only."""
    values, first, second = jets
    n = first.shape[1]
    columns = np.arange(n * n).reshape(n, n) if columns is None else columns
    parts = (values, first[:, axes], second[:, axes, axes])
    return tuple(np.ascontiguousarray(part[..., columns]) for part in parts)


def admissible(spec: MetricSpec, points: Sequence[Sequence[float]]) -> np.ndarray:
    """Whether all of spec's declared conditions hold, at each of points.  Raises
    the conditions program's ex.DomainError if one cannot be evaluated at a point."""
    if not spec.conditions:
        return np.ones(len(points), dtype=bool)
    (values,) = spec._condition_jet(points)
    positive = np.array([kind == "positive" for _, kind in spec.conditions])
    return np.all(np.where(positive, values > 0.0, np.abs(values) > _NONZERO_FLOOR), axis=1)


# ---------------------------------------------------------------------------
# Curvature from the 2-jet, and the PointFrame built on it

def _curvature(g: np.ndarray, dg: np.ndarray, d2g: np.ndarray):
    """(g^{-1}, Gamma^h_ij, R_hijk) from g, dg[k,i,j] and d2g[l,k,i,j], each
    with a leading point axis, as R_hijk = A_hijk - A_hikj with
    A_hijk = d_k Gamma_h,ij + Gamma_a,hj Gamma^a_ik."""
    P, n = g.shape[:2]
    ginv = np.linalg.inv(g)
    # lower[p,i,j,s] = Gamma_s,ij and dlower[p,k,i,j,s] = d_k Gamma_s,ij
    lower = 0.5 * (dg + np.transpose(dg, (0, 2, 1, 3)) - np.moveaxis(dg, 1, 3))
    dlower = 0.5 * (
        d2g + np.transpose(d2g, (0, 1, 3, 2, 4)) - np.transpose(d2g, (0, 1, 3, 4, 2))
    )
    gamma = np.einsum("phs,pijs->phij", ginv, lower)
    # quad[p,h,j,i,k] = Gamma_a,hj Gamma^a_ik
    quad = (lower.reshape(P, n * n, n) @ gamma.reshape(P, n, n * n)).reshape(P, n, n, n, n)
    A = np.transpose(dlower, (0, 4, 2, 3, 1)) + np.transpose(quad, (0, 1, 3, 2, 4))
    return ginv, gamma, A - np.swapaxes(A, 3, 4)


@dataclass(frozen=True)
class PointFrame:
    """Everything the identity suites need at one point, or at a chunk
    of points (see frames).

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


def frames(spec: MetricSpec, points: Sequence[Sequence[float]], jet=None) -> PointFrame:
    """The full curvature packet at a chunk of points, stacked.

    jet is (g, dg, d2g) at the points, as jet_block reads it from the
    jets of a program holding spec's components (a warped product's
    base or fiber block is singular only where the product is, by
    Hadamard's inequality); by default from metric_jets(spec, points).
    Nothing here tests the points' conditions or g's invertibility:
    whoever hands the points over has admitted them.  Curvature, Ricci,
    scalar, Ricci-square and Weyl run once over the leading point axis.
    Raises GeometryError naming the first point where any of them is
    not finite.  Lane i equals what frame(spec, points[i]) returns, bit
    for bit.  Every call computes new arrays; callers must not mutate
    them.
    """
    points = tuple(tuple(float(v) for v in point) for point in points)
    n = spec.dim
    for point in points:
        if len(point) != n:
            raise GeometryError(f"point has {len(point)} coordinates, chart has {n}")
    g, dg, d2g = jet or jet_block(metric_jets(spec, points))
    with np.errstate(over="ignore", invalid="ignore"):  # every output is checked below
        ginv, gamma, riem = _curvature(g, dg, d2g)

        ricci = np.einsum("pad,paijd->pij", ginv, riem)
        scalar = np.einsum("pij,pij->p", ginv, ricci)
        ricci_sq = ricci @ ginv @ ricci

        if n >= 4:
            weyl = (
                riem
                - kulkarni_nomizu(g, ricci) / (n - 2)
                + scalar[:, None, None, None, None] * unit_curvature(g) / ((n - 2) * (n - 1))
            )
        else:
            weyl = np.zeros_like(riem)

    f = PointFrame(spec, points, g, ginv, dg, gamma, riem, ricci, ricci_sq, scalar, weyl)
    finite = np.ones(len(points), dtype=bool)
    for name in _LANE_FIELDS:
        finite &= np.isfinite(getattr(f, name)).reshape(len(points), -1).all(axis=1)
    if not finite.all():
        raise GeometryError(f"curvature is not finite at {points[np.argmin(finite)]}")
    return f


def frame(spec: MetricSpec, point: Sequence[float]) -> PointFrame:
    """The full curvature packet at one point: the one lane of
    frames(spec, [point]), its arrays views of that frame's.

    Every call computes a new frame; callers that need it more than
    once keep it.  Callers must not mutate the returned arrays.
    """
    f = frames(spec, [point])
    lane = [getattr(f, name)[0] for name in _LANE_FIELDS]
    lane[_LANE_FIELDS.index("scalar")] = float(f.scalar[0])
    return PointFrame(spec, f.point[0], *lane)


def gauss_curvature(frame: PointFrame):
    """Gauss curvature of a 2-dimensional frame: R_1221 / det g = kappa/2,
    one per lane of a stacked frame."""
    if frame.dim != 2:
        raise GeometryError(f"Gauss curvature needs a 2-dimensional chart, got {frame.dim}")
    return frame.riemann[..., 0, 1, 1, 0] / np.linalg.det(frame.g)


# ---------------------------------------------------------------------------
# Covariant derivative of a (0,2) field

def covariant_derivative_02(frame: PointFrame, T: np.ndarray, dT: np.ndarray) -> np.ndarray:
    """nabla_k T_ij of a (0,2) field, using the connection of frame.

    T[i,j] is the field at frame's point and dT[k,i,j] = d_k T_ij its
    coordinate derivatives (for example frame.g and frame.dg, or another
    metric's g and dg on the same chart).  Returns the array indexed
    [k,i,j]; the field need not be symmetric.  On a stacked frame T and
    dT carry its point axis first, and so does the result, each lane
    equal to the call on that lane's frame alone.
    """
    return (
        dT
        - np.einsum("...ski,...sj->...kij", frame.gamma, T)
        - np.einsum("...skj,...is->...kij", frame.gamma, T)
    )


# ---------------------------------------------------------------------------
# Differential (second) Bianchi identity: nabla_l R_hijk + nabla_j R_hikl
# + nabla_k R_hilj = 0.  d_l R is exact: Im R / h of one curvature kernel
# over the components program's complex twin at x_p + ih e_l, l < n, for
# each lane p (the complex step; Martins, Sturdza and Alonso, 2003).

def second_bianchi_residual(frame: PointFrame, twin=None) -> np.ndarray:
    """The identity's max-abs residual over (1 + max |R|), one per lane
    of a stacked frame, each equal to the call on that lane alone.
    twin(points) is (g, dg, d2g) of frame's metric at complex points, by
    default from the complex twin of frame.spec's components program."""
    h, n = 1e-30, frame.dim
    twin = twin or partial(frame.spec._component_jet.complex, columns=np.arange(n * n).reshape(n, n))
    steps = (np.array(frame.point)[:, None] + 1j * h * np.eye(n)).reshape(-1, n)
    dR = (_curvature(*twin(steps.tolist()))[2].imag / h).reshape(-1, n, n, n, n, n)
    gam, R = frame.gamma, frame.riemann
    nabla = (
        dR
        - np.einsum("pslh,psijk->plhijk", gam, R)
        - np.einsum("psli,phsjk->plhijk", gam, R)
        - np.einsum("pslj,phisk->plhijk", gam, R)
        - np.einsum("pslk,phijs->plhijk", gam, R)
    )
    cyc = (
        nabla
        + np.transpose(nabla, (0, 4, 2, 3, 5, 1))
        + np.transpose(nabla, (0, 5, 2, 3, 1, 4))
    )
    return lane_zero_residuals(cyc, R)
