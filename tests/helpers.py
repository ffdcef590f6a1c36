"""Shared test utilities: random expression instances and oracles."""

import math
import random
from typing import Mapping

import numpy as np

from curvcheck import expr as ex
from curvcheck import geometry as geo
from curvcheck import roter
from curvcheck import warped as wp
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


def frames_fits_and_products(fam, point):
    """(source, image) frames, Roter fits and curvature products of a
    warped family at a point, as the factor relations and the psi-Ricci
    identity take them."""
    frames = tuple(geo.frame(member.product, point) for member in (fam.source, fam.image))
    return (
        frames,
        tuple(roter.fit_roter(f) for f in frames),
        tuple(roter.curvature_products(f) for f in frames),
    )


def diagnostics_at(ws, point):
    """Warped diagnostics at a point, from the product and fiber frames
    there."""
    fiber_frame = geo.frame(ws.fiber, ws.split(point)[1])
    return wp.diagnostics(ws, geo.frame(ws.product, point), fiber_frame)


def member_diagnostics(fam, point):
    """(source, image) warped diagnostics of a family at a point."""
    return diagnostics_at(fam.source, point), diagnostics_at(fam.image, point)


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
