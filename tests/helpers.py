"""Shared test utilities: random expression instances and oracles."""

import math
import random
from typing import Mapping

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
