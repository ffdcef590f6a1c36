"""Shared test utilities: random expression instances and oracles."""

import random

from curvcheck import expr as ex
from curvcheck import geometry as geo
from curvcheck import roter
from curvcheck import warped as wp
from curvcheck.expr import IntPow, Num, Unary, Var, evaluate

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
