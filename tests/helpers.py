"""Shared test utilities: random expression instances and oracles."""

import dataclasses
import json
import math
import random
from typing import Mapping

import numpy as np

from curvcheck import cli
from curvcheck import expr as ex
from curvcheck import geomap as gm
from curvcheck import geometry as geo
from curvcheck import roter
from curvcheck import warped as wp
from curvcheck.curvops import (
    lane_max_abs_residuals,
    lane_residuals,
    scalar_residual,
    unit_curvature,
)
from curvcheck.expr import (
    Bin,
    Const,
    DomainError,
    Expr,
    ExprError,
    IntPow,
    Num,
    UnboundSymbolError,
    Unary,
    Var,
    to_text,
)

COORDS = ("x", "y")

# roter.identity_suite's keys, with the identity each compares.
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


def random_expr(rng: random.Random, depth: int) -> ex.Expr:
    """Small composite expression whose log/sqrt/div arguments are forced
    positive, so finite-difference points always stay inside the domain."""
    if depth == 0:
        if rng.random() < 0.45:
            return Var(rng.choice(COORDS))
        return Num(round(rng.uniform(-2.0, 2.0), 3))
    kind = rng.choice(
        ["add", "sub", "mul", "sin", "cos", "intpow", "exp", "log", "sqrt", "div"]
    )
    child = lambda: random_expr(rng, depth - 1)
    if kind == "add":
        return ex.Bin("+", child(), child())
    if kind == "sub":
        return ex.Bin("-", child(), child())
    if kind == "mul":
        return ex.Bin("*", child(), child())
    if kind == "sin":
        return Unary("sin", child())
    if kind == "cos":
        return Unary("cos", child())
    if kind == "intpow":
        return IntPow(child(), rng.choice([2, 3]))
    if kind == "exp":
        return Unary("exp", ex.mul(Num(0.5), Unary("sin", child())))
    if kind == "log":
        return Unary("log", ex.add(Num(1.5), IntPow(child(), 2)))
    if kind == "sqrt":
        return Unary("sqrt", ex.add(Num(1.5), IntPow(child(), 2)))
    return ex.Bin("/", child(), ex.add(Num(2.0), IntPow(child(), 2)))


# The tree-walking evaluator: the bit-identity oracle for the compiled
# programs, which src/ evaluates every expression through.

def evaluate(e: Expr, point: Mapping[str, float], consts: Mapping[str, float] | None = None) -> float:
    """Evaluate to an IEEE double.

    Domain failures (log of a non-positive value, division by zero,
    sqrt of a negative, non-real powers, overflow, a trigonometric
    function of an infinity) raise DomainError naming the offending
    subexpression.
    """
    consts = consts if consts is not None else {}

    def ev(node: Expr) -> float:
        if isinstance(node, Num):
            return node.value
        if isinstance(node, Var):
            try:
                return float(point[node.name])
            except KeyError:
                raise UnboundSymbolError(f"coordinate {node.name!r} has no value") from None
        if isinstance(node, Const):
            try:
                return float(consts[node.name])
            except KeyError:
                raise UnboundSymbolError(f"constant {node.name!r} is not bound") from None
        if isinstance(node, Unary):
            v = ev(node.arg)
            op = node.op
            if op == "neg":
                return -v
            if op in ("sin", "cos", "tan"):
                if math.isinf(v):
                    raise DomainError(f"{op} of an infinite value", to_text(node))
                return getattr(math, op)(v)
            if op == "exp":
                try:
                    return math.exp(v)
                except OverflowError:
                    raise DomainError("overflow", to_text(node)) from None
            if op == "log":
                if v <= 0.0:
                    raise DomainError("log of non-positive value", to_text(node))
                return math.log(v)
            if op == "sqrt":
                if v < 0.0:
                    raise DomainError("sqrt of negative value", to_text(node))
                return math.sqrt(v)
            if op == "abs":
                return abs(v)
            raise ExprError(f"unknown unary op {op!r}")
        if isinstance(node, Bin):
            a = ev(node.lhs)
            b = ev(node.rhs)
            op = node.op
            if op == "+":
                return a + b
            if op == "-":
                return a - b
            if op == "*":
                return a * b
            if op == "/":
                if b == 0.0:
                    raise DomainError("division by zero", to_text(node))
                return a / b
            if op == "pow":
                try:
                    return math.pow(a, b)
                except (ValueError, OverflowError):
                    raise DomainError("power outside real domain", to_text(node)) from None
            raise ExprError(f"unknown binary op {op!r}")
        if isinstance(node, IntPow):
            a = ev(node.base)
            try:
                return a ** node.power
            except ZeroDivisionError:
                raise DomainError("zero base with negative power", to_text(node)) from None
            except OverflowError:
                raise DomainError("overflow", to_text(node)) from None
        raise ExprError(f"not an expression node: {node!r}")

    return ev(e)


def random_point(rng: random.Random) -> dict:
    return {c: rng.uniform(-1.5, 1.5) for c in COORDS}


def central_difference(e, point, name, h=1e-5):
    hi = dict(point)
    lo = dict(point)
    hi[name] += h
    lo[name] -= h
    return (evaluate(e, hi) - evaluate(e, lo)) / (2 * h)


def third_partials(spec, point):
    """d3g[m, l, k, i, j] = d_m d_l d_k g_ij of spec's metric at a point,
    from symbolic order-3 diff: the oracle for the complex step."""
    n, coords = spec.dim, spec.coords
    memos = {c: {} for c in coords}
    d = lambda e, c: ex.diff(e, c, _memo=memos[c])
    exprs = [d(d(d(e, k), l), m) for m in coords for l in coords for k in coords
             for row in spec.components for e in row]
    (values,) = at(ex.jet(tuple(exprs), coords, spec.bindings, 0), point)
    return values.reshape(n, n, n, n, n)


# The second-kind curvature assembly: the oracle for geometry's
# first-kind kernel.  It differentiates g^{-1} and Gamma^h_ij and
# lowers R at the end.

def second_kind_curvature(g, dg, d2g):
    """(Gamma^h_ij, R_hijk) through d g^{-1} and d Gamma^h_ij."""
    ginv = np.linalg.inv(g)
    # B[i,j,s] = d_i g_js + d_j g_is - d_s g_ij
    B = dg + np.transpose(dg, (1, 0, 2)) - np.moveaxis(dg, 0, 2)
    gamma = 0.5 * np.einsum("hs,ijs->hij", ginv, B)
    # dB[k,i,j,s] = d_k B[i,j,s]; d_k g^{hs} = -g^{ha} (d_k g_ab) g^{bs}
    dB = d2g + np.transpose(d2g, (0, 2, 1, 3)) - np.transpose(d2g, (0, 2, 3, 1))
    dginv = -np.einsum("ha,kab,bs->khs", ginv, dg, ginv)
    dgamma = 0.5 * (
        np.einsum("khs,ijs->khij", dginv, B) + np.einsum("hs,kijs->khij", ginv, dB)
    )
    rup = (
        np.transpose(dgamma, (1, 2, 3, 0))  # d_k Gamma^s_ij -> [s,i,j,k]
        - np.transpose(dgamma, (1, 2, 0, 3))  # d_j Gamma^s_ik -> [s,i,j,k]
        + np.einsum("rij,srk->sijk", gamma, gamma)
        - np.einsum("rik,srj->sijk", gamma, gamma)
    )
    return gamma, np.einsum("hs,sijk->hijk", g, rup)


# The PointFrame fields that gain the point axis in a stacked frame.
LANE_FIELDS = [f.name for f in dataclasses.fields(geo.PointFrame)][2:]


def stack(frames):
    """One frame for a chunk of points of one chart: each array gains a
    leading point axis, lane i holding frames[i]'s, and point becomes
    the tuple of the frames' points.  One frame's arrays are views."""
    if len(frames) == 1:  # views of the one frame's arrays
        lanes = (np.asarray(getattr(frames[0], name))[None] for name in LANE_FIELDS)
    else:
        lanes = (np.array([getattr(f, name) for f in frames]) for name in LANE_FIELDS)
    return geo.PointFrame(frames[0].spec, tuple(f.point for f in frames), *lanes)


def lanes(frame):
    """stack's inverse: each lane of a stacked frame as its point's own
    frame, whose arrays are views of the stack's."""
    out = []
    for i, point in enumerate(frame.point):
        lane = {name: getattr(frame, name)[i] for name in LANE_FIELDS}
        out.append(geo.PointFrame(frame.spec, point, **{**lane, "scalar": float(lane["scalar"])}))
    return out


def flat_metric(dim: int, prefix: str = "x") -> geo.MetricSpec:
    coords = tuple(f"{prefix}{i + 1}" for i in range(dim))
    return geo.diagonal_metric(coords, [1.0] * dim)


def constant_curvature_2d(b, gauss_curvature, energy, coords=("x", "y"), bindings=None):
    """Surface diag(a, b) of constant Gauss curvature K.

    Given a profile b(x) the first component is forced to
    a = (b')^2 / (b (E - 4K b)), which pins the Gauss curvature to K
    wherever the chart is admissible; E selects the representative.
    """
    coords = tuple(coords)
    bmap = bindings if isinstance(bindings, ex.Bindings) else ex.Bindings(bindings or {})
    b_expr = ex.parse(b, coords, tuple(bmap)) if isinstance(b, str) else b
    bp = ex.diff(b_expr, coords[0])
    denom_factor = ex.sub(ex.num(energy), ex.mul(ex.num(4.0 * gauss_curvature), b_expr))
    a_expr = ex.div(ex.intpow(bp, 2), ex.mul(b_expr, denom_factor))
    conds = ((b_expr, "nonzero"), (bp, "nonzero"), (denom_factor, "nonzero"))
    return geo.metric_spec(coords, [[a_expr, 0.0], [0.0, b_expr]], bmap, conds)


def at(program, point):
    """A jet program's outputs at one point: the one lane of program([point])."""
    return tuple(part[0] for part in program([point]))


def psi_jets(psi, points):
    """The stacked psi jets (psi, dpsi) of a mapping at a chunk of points,
    each point's from its own call of psi, a program as psi_program's."""
    jets = [at(psi, point) for point in points]
    return np.array([v for v, _ in jets]), np.array([d for _, d in jets])


# A mapped pair's one program, and the program of each of its blocks
# alone: the oracles of the blocks it reads.

def program_spec(mapped) -> geo.MetricSpec:
    """The MetricSpec whose components program is a mapped pair's one program."""
    return getattr(mapped.source, "product", mapped.source)


def program_blocks(mapped) -> dict:
    """The outputs of a mapped pair's one program, split into its blocks:
    source and image (components, then extras), psi and, on a family,
    values (b, B) and root (sqrt F), each sized from the image's spec
    and the chart, not from the columns geomap records."""
    spec, image = program_spec(mapped), getattr(mapped.image, "product", mapped.image)
    outputs = tuple(e for row in spec.components for e in row) + spec.extras
    member = image.dim ** 2 + len(image.extras)  # the source yields as many outputs
    sizes = {"source": member, "image": member, "psi": spec.dim}
    if isinstance(mapped, gm.Family):
        sizes.update(values=2, root=1)
    assert sum(sizes.values()) == len(outputs)
    blocks, start = {}, 0
    for name, size in sizes.items():
        blocks[name], start = outputs[start:start + size], start + size
    return blocks


def block_program(mapped, name, order=2, coords=None):
    """ex.jet of one block of a mapped pair's program alone, over the
    program's chart or coords."""
    spec = program_spec(mapped)
    return ex.jet(program_blocks(mapped)[name], coords or spec.coords, spec.bindings, order)


def psi_program(mapped):
    """A mapped pair's psi jet alone: points -> (psi, dpsi) at order 1."""
    return block_program(mapped, "psi", 1)


def program_jets(mapped, points):
    """A mapped pair's one program run at a chunk of points, as geo.metric_jets's."""
    return geo.metric_jets(program_spec(mapped), points)


def values_at(fam, points) -> dict:
    """gm.family_values of a family at a chunk of points."""
    return gm.family_values(fam, program_jets(fam, points))


def member_ok(spec, point) -> bool:
    """spec's conditions hold at point, its own components program runs
    there and its metric inverts."""
    try:
        return bool(geo.admissible(spec, [point])[0] and geo.invertible(geo.metric_jets(spec, [point]))[0])
    except ExprError:
        return False


def mapped_point_ok(mapped, point) -> bool:
    """cli.Job.sample_ok's oracle on a mapped pair, from a program per
    part: each member's conditions holding, its own components program
    running and its metric inverting, a family's mapping guards clear on
    its values program alone, and the psi program evaluating."""
    spec = program_spec(mapped)
    own = dataclasses.replace(spec, extras=program_blocks(mapped)["source"][spec.dim ** 2:])
    image = getattr(mapped.image, "product", mapped.image)
    if not (member_ok(own, point) and member_ok(image, point)):
        return False
    if isinstance(mapped, gm.Family):
        values = point_family_values(mapped, point)
        if any(abs(values[key]) < gm.GUARD_FLOOR for key in ("one_plus_qb", "shape", "bp", "B")):
            return False
    try:
        psi_program(mapped)([point])
    except ExprError:
        return False
    return True


def sample_one_at_a_time(job, count: int, rng) -> list:
    """cli.sample_points's oracle: each pin, then each candidate, drawn
    coordinate by coordinate, decided by a one-point Job.sample_ok call,
    until count candidates are admitted or 1000 * count + 1 are tried."""
    coords = job.targets[0].spec.coords
    ws = job.targets[0].warped_spec
    box = {**dict.fromkeys(ws.fiber.coords if ws else (), [-0.3, 0.3]), **job.box}
    points = []
    for pin in job.pinned:
        pt = tuple(float(pin[c]) for c in coords)
        if not job.sample_ok([pt])[0]:
            raise cli.ManifestError(f"pinned point {pin} of {job.name!r} is inadmissible")
        points.append(pt)
    tries = 0
    while len(points) < count + len(job.pinned):
        if tries > 1000 * count:
            raise cli.ManifestError(f"cannot sample admissible points for {job.name!r}")
        tries += 1
        pt = tuple(float(rng.uniform(*box[c])) for c in coords)
        if job.sample_ok([pt])[0]:
            points.append(pt)
    return points


def member_frames(fam, points):
    """(source, image) stacked frames of a warped family at a chunk of points."""
    return tuple(geo.frames(member.product, points) for member in (fam.source, fam.image))


def frames_fits_and_products(fam, points):
    """(source, image) stacked frames, Roter fit lists and curvature
    products of a warped family at a chunk of points, as the factor
    relations, corollary42_residual and the psi-Ricci identity take them."""
    frames = member_frames(fam, points)
    return (
        frames,
        tuple(roter.fit_roter(f) for f in frames),
        tuple(roter.curvature_products(f) for f in frames),
    )


def diagnostics_at(ws, points):
    """Stacked warped diagnostics at a chunk of points (or at one point,
    a chunk of one), from the product frame and the product's jets there."""
    if np.ndim(points[0]) == 0:
        points = [points]
    blocks = ws.blocks(geo.metric_jets(ws.product, points))
    return wp.diagnostics(ws, geo.frames(ws.product, points), blocks)


def member_diagnostics(fam, points):
    """(source, image) stacked warped diagnostics of a family."""
    return diagnostics_at(fam.source, points), diagnostics_at(fam.image, points)


# One-point residual forms, each the one-lane case of its curvops lane
# form.

def tensor_residual(lhs, rhs) -> float:
    """Frobenius residual of lhs == rhs, sum-plus-one normalized."""
    lhs, rhs = np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float)
    return float(lane_residuals(lhs[None], rhs[None])[0])


def max_abs_residual(lhs, rhs) -> float:
    """Componentwise max-abs residual, sum-plus-one normalized."""
    lhs, rhs = np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float)
    return float(lane_max_abs_residuals(lhs[None], rhs[None])[0])


def zero_residual(t, reference=None) -> float:
    """Max-abs of t, normalized by the scale of a reference tensor."""
    a = np.asarray(t, dtype=float)
    scale = 1.0 if reference is None else float(np.max(np.abs(np.asarray(reference, float))) + 1.0)
    return float(np.max(np.abs(a)) / scale)


def _lane_max_abs(t) -> np.ndarray:
    return np.max(np.abs(t), axis=tuple(range(1, t.ndim)))


def lane_riemann_symmetry_residuals(R) -> dict:
    """Max-abs residuals of the algebraic curvature symmetries of each
    lane of R, the first axis indexing points: one array of lane
    residuals per key (skew_first_pair, skew_last_pair, pair_exchange,
    first_cyclic), each normalized by (max|R| + 1)."""
    R = np.asarray(R, float)
    scale = _lane_max_abs(R) + 1.0
    return {
        "skew_first_pair": _lane_max_abs(R + np.swapaxes(R, 1, 2)) / scale,
        "skew_last_pair": _lane_max_abs(R + np.swapaxes(R, 3, 4)) / scale,
        "pair_exchange": _lane_max_abs(R - np.transpose(R, (0, 3, 4, 1, 2))) / scale,
        "first_cyclic": _lane_max_abs(
            R + np.transpose(R, (0, 3, 1, 2, 4)) + np.transpose(R, (0, 2, 3, 1, 4))
        ) / scale,
    }


def lane_trace_residuals(C, ginv) -> np.ndarray:
    """Largest metric trace of each lane of a (0,4) tensor over all slot
    pairs, against the same lane of ginv, the first axis indexing
    points, normalized by (max|C| + 1): zero exactly when the lane is
    totally trace-free, as the Weyl tensor must be."""
    C, ginv = np.asarray(C, float), np.asarray(ginv, float)
    worst = np.zeros(len(C))
    for subs in ("pab,pabcd->pcd", "pac,pabcd->pbd", "pad,pabcd->pbc",
                 "pbc,pabcd->pad", "pbd,pabcd->pac", "pcd,pabcd->pab"):
        worst = np.maximum(worst, _lane_max_abs(np.einsum(subs, ginv, C)))
    return worst / (_lane_max_abs(C) + 1.0)


def riemann_symmetry_residuals(R) -> dict:
    """Max-abs residuals of the algebraic curvature symmetries of one R."""
    lanes = lane_riemann_symmetry_residuals(np.asarray(R, float)[None])
    return {name: float(res[0]) for name, res in lanes.items()}


def trace_residual(C, ginv) -> float:
    """Largest metric trace of one (0,4) tensor over all slot pairs."""
    return float(lane_trace_residuals(np.asarray(C, float)[None], np.asarray(ginv, float)[None])[0])


# The warped and geodesic suites point by point: the bit-identity oracle
# for their stacked forms.  Each takes one point's frames (lanes, as
# geo.frame gives them) and returns Python floats.

@dataclasses.dataclass(frozen=True)
class PointDiagnostics:
    """Warped-product scalars at one point, and the frames they came from."""

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


def point_diagnostics(ws, frame, fiber_frame) -> PointDiagnostics:
    base_pt = ws.split(frame.point)[0]
    bframe = geo.frame(ws.base, base_pt)
    # The warp's own program, separate from the product's under test.
    f_value, grad, hess = at(ex.jet((ws.warp,), ws.base.coords, ws.base.bindings, 2), base_pt)
    f_value, grad, hess = float(f_value[0]), grad[:, 0], hess[:, :, 0]
    nabla_grad = hess - np.einsum("sab,s->ab", bframe.gamma, grad)
    t = nabla_grad - np.outer(grad, grad) / (2.0 * f_value)
    ginv_base = bframe.ginv
    tr_t = float(np.einsum("ab,ab->", ginv_base, t))
    delta1 = float(grad @ ginv_base @ grad)
    fiber_scalar = fiber_frame.scalar
    n, p = ws.dim, ws.base_dim
    if p == 2 and n >= 4:
        kb = bframe.scalar
        rho0 = (kb / 2.0 + fiber_scalar / ((n - 3) * (n - 2) * f_value)
                + tr_t / (2.0 * f_value) - delta1 / (4.0 * f_value**2))
        rho1 = kb / 2.0
        rho2 = -tr_t / (4.0 * f_value)
        rho3 = (fiber_scalar / ((n - 3) * (n - 2)) - delta1 / (4.0 * f_value)) / f_value
        mu1 = (2.0 * f_value * kb - (n - 2) * tr_t) / (4.0 * f_value)
        mu2 = (fiber_scalar / (n - 2) - tr_t / 2.0 - (n - 3) * delta1 / (4.0 * f_value)) / f_value
    else:
        rho0 = rho1 = rho2 = rho3 = mu1 = mu2 = None
    return PointDiagnostics(frame, bframe, fiber_frame, f_value, grad, t, tr_t, delta1,
                            rho0, rho1, rho2, rho3, mu1, mu2)


def point_t_proportionality_residual(d) -> float:
    return max_abs_residual(d.t, (d.tr_t / d.base_frame.dim) * d.base_frame.g)


def _point_split_blocks_residual(T, p):
    blocks = (T[:p, :p, :p, p:], T[:p, :p, p:, p:], T[:p, p:, p:, p:])
    return max(zero_residual(block, T) for block in blocks)


def point_product_christoffels(d) -> float:
    pframe, bframe, fframe = d.frame, d.base_frame, d.fiber_frame
    p, m, n = bframe.dim, fframe.dim, pframe.dim
    expected = np.zeros((n, n, n))
    expected[:p, :p, :p] = bframe.gamma
    expected[p:, p:, p:] = fframe.gamma
    mixed_a = -0.5 * np.einsum("ab,b->a", bframe.ginv, d.grad)
    for al in range(m):
        for be in range(m):
            expected[:p, p + al, p + be] = mixed_a * fframe.g[al, be]
    for a in range(p):
        for al in range(m):
            expected[p + al, a, p + al] = d.grad[a] / (2.0 * d.f_value)
            expected[p + al, p + al, a] = d.grad[a] / (2.0 * d.f_value)
    return max_abs_residual(pframe.gamma, expected)


def point_curvature_blocks(d) -> dict:
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
        R[p:, p:, p:, p:], d.f_value * R_t - (d.delta1 / 4.0) * G_t)
    out["riemann_zero"] = _point_split_blocks_residual(R, p)
    out["ricci_base"] = max_abs_residual(
        S[:p, :p], bframe.ricci - ((n - p) / (2.0 * d.f_value)) * d.t)
    out["ricci_fiber"] = max_abs_residual(
        S[p:, p:],
        fframe.ricci - 0.5 * (d.tr_t + (n - p - 1) / (2.0 * d.f_value) * d.delta1) * g_t)
    out["ricci_mixed"] = zero_residual(S[:p, p:], S)
    closed_scalar = (
        bframe.scalar
        + fframe.scalar / d.f_value
        - ((n - p) / d.f_value) * (d.tr_t + (n - p - 1) / (4.0 * d.f_value) * d.delta1)
    )
    out["scalar"] = scalar_residual(pframe.scalar, closed_scalar)
    out["trace_t"] = scalar_residual(d.tr_t, float(np.einsum("ab,ab->", bframe.ginv, d.t)))
    return out


def point_weyl_blocks(d) -> dict:
    p, n = d.base_frame.dim, d.frame.dim
    C, G, rho0 = d.frame.weyl, unit_curvature(d.frame.g), d.rho0
    out = {
        "weyl_base": max_abs_residual(
            C[:p, :p, :p, :p], ((n - 3) * rho0 / (n - 1)) * G[:p, :p, :p, :p]),
        "weyl_mixed": max_abs_residual(
            C[p:, :p, :p, p:], (-(n - 3) * rho0 / ((n - 2) * (n - 1))) * G[p:, :p, :p, p:]),
        "weyl_fiber": max_abs_residual(
            C[p:, p:, p:, p:], (2 * rho0 / ((n - 2) * (n - 1))) * G[p:, p:, p:, p:]),
    }
    out["weyl_zero"] = _point_split_blocks_residual(C, p)
    return out


def point_proportional_blocks(d) -> dict:
    p = d.base_frame.dim
    R, S, g = d.frame.riemann, d.frame.ricci, d.frame.g
    G = unit_curvature(g)
    return {
        "block_riemann_base": max_abs_residual(R[:p, :p, :p, :p], d.rho1 * G[:p, :p, :p, :p]),
        "block_riemann_mixed": max_abs_residual(R[p:, :p, :p, p:], d.rho2 * G[p:, :p, :p, p:]),
        "block_riemann_fiber": max_abs_residual(R[p:, p:, p:, p:], d.rho3 * G[p:, p:, p:, p:]),
        "block_ricci_base": max_abs_residual(S[:p, :p], d.mu1 * g[:p, :p]),
        "block_ricci_fiber": max_abs_residual(S[p:, p:], d.mu2 * g[p:, p:]),
    }


def point_conformal_flatness(d) -> tuple:
    n = d.frame.dim
    scale = (abs(d.base_frame.scalar) / 2.0
             + abs(d.fiber_frame.scalar) / ((n - 3) * (n - 2) * d.f_value)
             + abs(d.tr_t) / (2.0 * d.f_value) + abs(d.delta1) / (4.0 * d.f_value**2) + 1.0)
    return d.rho0, abs(d.rho0) <= 1e-9 * scale


def point_second_form(psi, frame):
    """psi_ij = d_j psi_i - Gamma^s_ij psi_s - psi_i psi_j at frame's point."""
    pv, dpsi = at(psi, frame.point)
    return dpsi.T - np.einsum("sij,s->ij", frame.gamma, pv) - np.outer(pv, pv)


def point_gradient_residual(psi, point) -> float:
    _, dpsi = at(psi, point)
    return float(np.max(np.abs(dpsi - dpsi.T)) / (np.max(np.abs(dpsi)) + 1.0))


def point_family_values(fam, point) -> dict:
    values, grads = at(block_program(fam, "values", 1), point)
    (b, B), cfg = values.tolist(), fam.cfg
    return {"b": b, "bp": float(grads[0, 0]), "B": B, "Bp": float(grads[1, 1]),
            "one_plus_qb": 1.0 + cfg.map_shift * b, "shape": cfg.d * b - 4.0 * cfg.c}


def point_geodesic_compatibility(frame, image_frame, psi) -> float:
    gbar = image_frame.g
    lhs = geo.covariant_derivative_02(frame, gbar, image_frame.dg)
    pv = at(psi, frame.point)[0]
    rhs = (2.0 * np.einsum("k,ij->kij", pv, gbar) + np.einsum("i,jk->kij", pv, gbar)
           + np.einsum("j,ik->kij", pv, gbar))
    return max_abs_residual(lhs, rhs)


def point_christoffel_shift(frame, image_frame, psi) -> float:
    pv = at(psi, frame.point)[0]
    eye = np.eye(len(pv))
    shift = np.einsum("hi,j->hij", eye, pv) + np.einsum("hj,i->hij", eye, pv)
    return max_abs_residual(image_frame.gamma, frame.gamma + shift)


def point_ricci_shift(frame, image_frame, psi) -> float:
    psi2 = point_second_form(psi, frame)
    return max_abs_residual(image_frame.ricci, frame.ricci - (frame.dim - 1) * psi2)


def point_pair_christoffel_closed_forms(pair, sframe, iframe) -> dict:
    gam_bar = iframe.gamma
    a, b = sframe.g[0, 0], sframe.g[1, 1]
    ap, bp = sframe.dg[0, 0, 0], sframe.dg[0, 1, 1]
    q = pair.map_shift
    opq = 1.0 + q * b
    return {
        "gbar_111": scalar_residual(gam_bar[0, 0, 0], ap / (2 * a) - q * bp / opq),
        "gbar_212": scalar_residual(gam_bar[1, 0, 1], bp / (2 * b * opq)),
        "gbar_122": scalar_residual(gam_bar[0, 1, 1], -bp / (2 * a)),
    }


def point_family_psi_closed_forms(fam, d, v) -> dict:
    cfg = fam.cfg
    q, b, bp, B = cfg.map_shift, v["b"], v["bp"], v["B"]
    opq, shape = v["one_plus_qb"], v["shape"]
    psi2 = point_second_form(psi_program(fam), d.frame)
    want11 = (q * bp * bp * (4 * cfg.c - q * cfg.d * b * b - 2 * cfg.d * b)
              / (4 * b * opq * opq * shape))
    want22 = -q * b * shape / (4 * opq)
    want_fiber = -q * b * B * B * shape / (4 * opq) * d.fiber_frame.g
    return {
        "psi_11": scalar_residual(psi2[0, 0], want11),
        "psi_22": scalar_residual(psi2[1, 1], want22),
        "psi_fiber": max_abs_residual(psi2[2:, 2:], want_fiber),
        "psi_off": zero_residual(psi2[0, 1], psi2) + zero_residual(psi2[:2, 2:], psi2),
    }


def point_family_image_ricci_forms(fam, d_bar, v) -> dict:
    cfg = fam.cfg
    n, p, q = cfg.n, cfg.map_scale, cfg.map_shift
    b, B, Bp, opq = v["b"], v["B"], v["Bp"], v["one_plus_qb"]
    coef = cfg.d + 4.0 * q * cfg.c
    s_bar, g_bar = d_bar.frame.ricci, d_bar.frame.g
    salfa = (cfg.fiber_scalar / (n - 2) + (n - 3) * (cfg.c * B * B - Bp * Bp)
             - (n - 1) / 4.0 * b * B * B * coef / opq) / d_bar.f_value
    return {
        "ricci_base_bar": max_abs_residual(
            s_bar[:2, :2], -(n - 1) / (4.0 * p) * coef * g_bar[:2, :2]),
        "ricci_mixed_bar": zero_residual(s_bar[:2, 2:], s_bar),
        "ricci_fiber_bar": max_abs_residual(s_bar[2:, 2:], salfa * g_bar[2:, 2:]),
        "t_bar": max_abs_residual(d_bar.t, coef / (2.0 * p) * d_bar.f_value * d_bar.base_frame.g),
        "image_base_scalar": scalar_residual(d_bar.base_frame.scalar, -coef / (2.0 * p)),
    }


def point_warp_compatibility(fam, d, d_bar) -> tuple:
    Fv, Fbv, grad, grad_bar = d.f_value, d_bar.f_value, d.grad, d_bar.grad
    psi_v = at(psi_program(fam), d.frame.point)[0][:2]
    f_up = d.base_frame.ginv @ grad
    lhs_scale = -(Fbv / (2.0 * Fv)) * grad + 0.5 * (d_bar.base_frame.g @ f_up)
    res_scale = max_abs_residual(lhs_scale, Fbv * psi_v)
    res_log = max_abs_residual(grad_bar / Fbv - grad / Fv, 2.0 * psi_v)
    return res_scale, res_log


def point_gauss_curvature(f) -> float:
    return float(f.riemann[0, 1, 1, 0] / float(np.linalg.det(f.g)))


def point_factor_relations(fam, frames, fits, products, v) -> dict:
    """The scalar factor relations and, as cor42_source and cor42_image,
    each member's corollary42 residual; products hold one point's."""
    n = fam.cfg.n
    sframe, iframe = frames
    sfit, ifit = fits
    ratio = fam.cfg.map_scale / v["one_plus_qb"]
    out = {
        "l_r_value": scalar_residual(sfit.L_R, fam.l_r_expected),
        "l_r_image_value": scalar_residual(ifit.L_R, fam.l_r_image_expected),
        "lkappa": scalar_residual(sfit.L_R - sframe.scalar / (n * (n - 1)),
                                  ratio * (ifit.L_R - iframe.scalar / (n * (n - 1)))),
        "lcr_source": scalar_residual((n - 2) ** 2 / n * sfit.L_C,
                                      sfit.L_R - sframe.scalar / (n * (n - 1))),
        "lcr_image": scalar_residual((n - 2) ** 2 / n * ifit.L_C,
                                     ifit.L_R - iframe.scalar / (n * (n - 1))),
        "lc_ratio": scalar_residual(sfit.L_C, ratio * ifit.L_C),
        "l_source": scalar_residual(sfit.L, -(n - 2) * sfit.L_R),
        "l_image": scalar_residual(ifit.L, -(n - 2) * ifit.L_R),
    }
    for tag, fit, P in zip(("cor42_source", "cor42_image"), fits, products):
        out[tag] = tensor_residual(P["RR"], P["QSR"] - (n - 2) * fit.L_R * P["QgC"])
    return out


def point_psi_ricci_identity(fam, frames, fits, products) -> float:
    n = fam.cfg.n
    sframe, iframe = frames
    RR = products[0]["RR"]
    if np.max(np.abs(RR)) <= 2.0 * np.sqrt(2.0) * 1e-9 * (np.max(np.abs(sframe.riemann)) + 1.0):
        raise gm.FamilyError("SEMISYMMETRIC", "source has R.R = 0; identity needs R.R != 0")
    ifit = fits[1]
    phi_b, mu_b, eta_b, lr_b = ifit.phi, ifit.mu, ifit.eta, ifit.L_R
    kappa_b, gbar_inv = iframe.scalar, iframe.ginv
    psi2 = point_second_form(psi_program(fam), sframe)
    Bmk = psi2 @ gbar_inv @ iframe.ricci
    tr_b = float(np.einsum("mk,mk->", gbar_inv, Bmk))
    tr_psi = float(np.einsum("mk,mk->", gbar_inv, psi2))
    terms = [
        (kappa_b * phi_b + n * mu_b) * Bmk,
        -(tr_b * phi_b + tr_psi * mu_b) * iframe.ricci,
        (kappa_b * mu_b - n * (lr_b - eta_b)) * psi2,
        (tr_psi * (lr_b - eta_b) - tr_b * mu_b) * iframe.g,
    ]
    scale = sum(float(np.linalg.norm(t)) for t in terms) + 1.0
    return float(np.linalg.norm(sum(terms))) / scale


def point_warp_profile_pde(fam, d) -> dict:
    bframe = d.base_frame
    a_v, b_v = bframe.g[0, 0], bframe.g[1, 1]
    out = {
        "t_offdiag": zero_residual(d.t[0, 1], d.t),
        "t_balance": scalar_residual(b_v * d.t[0, 0], a_v * d.t[1, 1]),
    }
    _, df, d2f = at(block_program(fam, "root", 2, bframe.spec.coords), bframe.point)
    f1, f2 = df[:, 0]
    f11, f12, f22 = d2f[0, 0, 0], d2f[0, 1, 0], d2f[1, 1, 0]
    ap, bp = bframe.dg[0, 0, 0], bframe.dg[0, 1, 1]
    ab_p = ap * b_v + a_v * bp
    out["warp_root_mixed"] = scalar_residual(f12, f2 * bp / (2 * b_v))
    out["warp_root_balance"] = scalar_residual(f11 - (a_v / b_v) * f22, f1 * ab_p / (2 * a_v * b_v))
    return out


# The dense derivation kernel: the oracle for curvops' packed one.  One
# matrix product per slot of T, whatever its order, into fresh arrays.

def dense_derive(E, T):
    """(E . T)[a_1..a_k, x, y] = -sum_j T(a_1, .., E(x,y) e_{a_j}, .., a_k),
    with E[x, y, i, s] the component s of E(x,y) applied to e_i."""
    k, n = T.ndim, T.shape[0]
    out = np.zeros(T.shape + E.shape[:2])
    E_rows = E.reshape(n ** 3, n)  # [(x, y, i), s]
    shape = E.shape[:3] + T.shape[1:]
    for slot in range(k):
        others = [j for j in range(k) if j != slot]
        term = (E_rows @ T.transpose(slot, *others).reshape(n, -1)).reshape(shape)
        # term is [x, y, a_slot, other slots]; view it in out's slot order.
        out -= term.transpose(*range(3, slot + 3), 2, *range(slot + 3, k + 2), 0, 1)
    return out


def dense_derivation(B4, T, ginv):
    """Dense B . T: B's last slot raised gives the endomorphism field."""
    return dense_derive(np.einsum("xyid,sd->xyis", B4, ginv), T)


def dense_tachibana(A, T):
    """Dense Q(A,T): the derivation by (X ^_A Y)Z = A(Y,Z) X - A(X,Z) Y."""
    half = np.einsum("yi,xs->xyis", A, np.eye(A.shape[0]))
    return dense_derive(half - np.swapaxes(half, 0, 1), T)


def pack(D):
    """A dense order-4 or order-6 derivation product, derivation pair
    last, in curvops' packed layout: (n, n, m) or (m, m, m) over the
    pairs x < y, each antisymmetric pair's component times sqrt(2)."""
    x, y = np.triu_indices(D.shape[0], 1)
    if D.ndim == 4:
        return np.sqrt(2.0) * D[:, :, x, y]
    return 2.0 * np.sqrt(2.0) * D[x, y][:, x, y][:, :, x, y]


def json_lines(records) -> list:
    """Each record as the line json.dumps(rec, sort_keys=True) + "\\n": how
    write_report encoded records before its per-site template, kept as the
    byte-identity oracle for cli.record_lines."""
    encode = json.JSONEncoder(sort_keys=True).encode
    return [encode(rec) + "\n" for rec in records]
