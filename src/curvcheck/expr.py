"""Closed-form scalar expressions over chart coordinates.

Metric components, warping functions and mapping covectors enter the
engine as short formulas such as ``1 - 2*M/r + Q^2/r^2``.  They are
parsed once into an immutable AST, evaluated as IEEE-754 doubles, and
differentiated exactly, so every curvature object downstream is built
from exact derivatives rather than finite differences.

The grammar is documented in docs/expr-grammar.md.  Identifiers are
case sensitive, ``^`` is power, and precedence is

    ^   >   unary -   >   * /   >   + -

with ``^`` grouping to the right.  Exponents that are integer literals
are stored as integer powers, which keeps differentiation stable near a
zero base (no log() is ever introduced on an integer-power chain).

There is no algebraic simplification beyond light constant folding in
derivative construction; correctness is by evaluation, not by normal
form.  All node types are frozen dataclasses, so expressions and
bindings are safe to share between threads.  A node computes its hash
on first use and stores it outside its fields; two threads that race on
a first hash() store the same value, so the cache needs no lock.
"""

from __future__ import annotations

import cmath
import math
import re
import traceback
import types
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

import numpy as np


class ExprError(ValueError):
    """Base class for expression failures."""


class ParseError(ExprError):
    """Syntax failure; carries the position of the offending token."""

    def __init__(self, message: str, src: str, pos: int):
        shown = src if len(src) <= 80 else src[:77] + "..."
        super().__init__(f"{message} at position {pos}: {shown!r}")
        self.src = src
        self.pos = pos


class UndeclaredSymbolError(ParseError):
    """An identifier that is neither a declared coordinate nor constant."""


class UnboundSymbolError(ExprError):
    """A symbol had no value at evaluation time."""


class DomainError(ExprError):
    """Evaluation left the real domain (log, sqrt, division, pow)."""

    def __init__(self, message: str, subexpr: str):
        super().__init__(f"{message} in {subexpr!r}")
        self.subexpr = subexpr


# --------------------------------------------------------------------------
# AST.  A frozen dataclass rehashes its whole subtree on every hash(), so
# each node caches its hash in its instance dict on first use.  The cache
# is not a field: ==, repr and dataclasses.fields see only the node's data.

def _cached_hash(node) -> int:
    h = node.__dict__.get("_hash")
    if h is None:
        h = hash(tuple(map(node.__getattribute__, node.__match_args__)))
        object.__setattr__(node, "_hash", h)
    return h


@dataclass(frozen=True)
class Num:
    value: float
    __hash__ = _cached_hash

    def __eq__(self, other):  # 0.0 == -0.0, but the two literals compute different signs
        sign = math.copysign
        return type(other) is Num and (self.value, sign(1, self.value)) == (other.value, sign(1, other.value))


@dataclass(frozen=True)
class Const:
    name: str
    __hash__ = _cached_hash


@dataclass(frozen=True)
class Var:
    name: str
    __hash__ = _cached_hash


@dataclass(frozen=True)
class Unary:
    op: str  # neg sin cos tan exp log sqrt abs
    arg: "Expr"
    __hash__ = _cached_hash


@dataclass(frozen=True)
class Bin:
    op: str  # + - * / pow
    lhs: "Expr"
    rhs: "Expr"
    __hash__ = _cached_hash


@dataclass(frozen=True)
class IntPow:
    base: "Expr"
    power: int
    __hash__ = _cached_hash


Expr = Union[Num, Const, Var, Unary, Bin, IntPow]

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "abs")


class Bindings(Mapping[str, float]):
    """Immutable name -> float map for named constants.

    Lookup of a name that was never bound raises UnboundSymbolError;
    there are no silent defaults.
    """

    def __init__(self, values: Mapping[str, float] | None = None, **extra: float):
        data = dict(values) if values else {}
        data.update(extra)
        self._values = {str(k): float(v) for k, v in data.items()}

    def __getitem__(self, name: str) -> float:
        try:
            return self._values[name]
        except KeyError:
            raise UnboundSymbolError(f"constant {name!r} is not bound") from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self._values.items()))
        return f"Bindings({inner})"

    # Immutable, so hashable by content; lets containing specs be cached.
    def __hash__(self) -> int:
        return hash(frozenset(self._values.items()))

    def __eq__(self, other) -> bool:
        if isinstance(other, Bindings):
            return self._values == other._values
        return NotImplemented


# --------------------------------------------------------------------------
# Construction helpers.  The binary helpers fold numeric literals and drop
# additive/multiplicative identities; diff() relies on them to keep
# derivative trees small.  parse() does not fold, so user formulas
# round-trip structurally.

def num(v: float) -> Num:
    return Num(float(v))


def const(name: str) -> Const:
    return Const(name)


def neg(e: Expr) -> Expr:
    if isinstance(e, Num):
        return Num(-e.value)
    if isinstance(e, Unary) and e.op == "neg":
        return e.arg
    return Unary("neg", e)


def add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Num) and a.value == 0.0:
        return b
    if isinstance(b, Num) and b.value == 0.0:
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value + b.value)
    return Bin("+", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if isinstance(b, Num) and b.value == 0.0:
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value - b.value)
    if isinstance(a, Num) and a.value == 0.0:
        return neg(b)
    return Bin("-", a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Num):
        if a.value == 0.0:
            return Num(0.0)
        if a.value == 1.0:
            return b
    if isinstance(b, Num):
        if b.value == 0.0:
            return Num(0.0)
        if b.value == 1.0:
            return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value * b.value)
    return Bin("*", a, b)


def div(a: Expr, b: Expr) -> Expr:
    if isinstance(b, Num) and b.value == 1.0:
        return a
    if isinstance(a, Num) and a.value == 0.0 and isinstance(b, Num) and b.value != 0.0:
        return Num(0.0)
    if isinstance(a, Num) and isinstance(b, Num) and b.value != 0.0:
        return Num(a.value / b.value)
    return Bin("/", a, b)


def intpow(base: Expr, k: int) -> Expr:
    if k == 0:
        return Num(1.0)
    if k == 1:
        return base
    return IntPow(base, int(k))


def fn(name: str, arg: Expr) -> Expr:
    if name not in FUNCTIONS:
        raise ExprError(f"unknown function {name!r}")
    return Unary(name, arg)


# --------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
)

# Exponent literals larger than this stay general powers.
_MAX_INT_POWER = 1_000_000

# Depth limits.  Hashing, ==, diff and compile_exprs recurse once per tree
# level, and the parser about five times per nesting level, so a deep
# formula would exhaust Python's recursion limit (1000).  The parser
# allows _MAX_NESTING levels.  Each level of a parsed tree costs the frames
# the deepest later pass spends on it, order-2 derivatives included (a
# product deepens its derivative by three levels, a quotient by six; a sum
# is compared at two frames per level).  The costliest root-to-leaf path
# must fit in _MAX_DEPTH, which leaves room for the caller's stack.
_MAX_NESTING = 100
_MAX_DEPTH = 800
_LEVEL_COST = {"*": 3, "/": 6, "pow": 5, "cos": 3, "log": 3, "sqrt": 3}  # others: 2


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    n = len(src)
    while pos < n:
        if src[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(src, pos)
        if not m:
            raise ParseError(f"unexpected character {src[pos]!r}", src, pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, src: str, coords: Sequence[str], consts: Iterable[str]):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0
        self.nesting = 0
        self.coords = set(coords)
        self.consts = set(consts)
        overlap = self.coords & self.consts
        if overlap:
            raise ExprError(f"names declared as both coordinate and constant: {sorted(overlap)}")

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, text: str):
        kind, value, pos = self.next()
        if kind != "op" or value != text:
            raise ParseError(f"expected {text!r}", self.src, pos)

    def parse(self) -> Expr:
        e = self.sum()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {value!r}", self.src, pos)
        return e

    def sum(self) -> Expr:
        e = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.next()
                rhs = self.term()
                e = Bin(value, e, rhs)
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.next()
                rhs = self.factor()
                e = Bin(value, e, rhs)
            else:
                return e

    def factor(self) -> Expr:
        # Every nested bracket, function, sign and exponent passes through here.
        kind, value, pos = self.peek()
        self.nesting += 1
        if self.nesting > _MAX_NESTING:
            raise ParseError(f"formula nested more than {_MAX_NESTING} levels deep", self.src, pos)
        if kind == "op" and value == "-":
            self.next()
            e = Unary("neg", self.factor())
        elif kind == "op" and value == "+":
            self.next()
            e = self.factor()
        else:
            e = self.power()
        self.nesting -= 1
        return e

    def power(self) -> Expr:
        base = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.next()
            exponent = self.factor()  # right associative; allows x^-2
            return _make_power(base, exponent)
        return base

    def atom(self) -> Expr:
        kind, value, pos = self.next()
        if kind == "num":
            return Num(float(value))
        if kind == "op" and value == "(":
            e = self.sum()
            self.expect_op(")")
            return e
        if kind == "name":
            nk, nv, _ = self.peek()
            if nk == "op" and nv == "(":
                if value not in FUNCTIONS:
                    raise ParseError(f"unknown function {value!r}", self.src, pos)
                self.next()
                arg = self.sum()
                self.expect_op(")")
                return Unary(value, arg)
            if value in self.coords:
                return Var(value)
            if value in self.consts:
                return Const(value)
            raise UndeclaredSymbolError(f"undeclared symbol {value!r}", self.src, pos)
        raise ParseError(f"unexpected token {value!r}", self.src, pos)


def _make_power(base: Expr, exponent: Expr) -> Expr:
    k = _as_int_literal(exponent)
    if k is not None and abs(k) <= _MAX_INT_POWER:
        return IntPow(base, k)
    return Bin("pow", base, exponent)


def _as_int_literal(e: Expr) -> int | None:
    if isinstance(e, Num) and float(e.value).is_integer():
        return int(e.value)
    if isinstance(e, Unary) and e.op == "neg":
        inner = _as_int_literal(e.arg)
        if inner is not None:
            return -inner
    return None


def _depth_cost(e: Expr) -> int:
    # Iterative, since a tree too deep for the recursive passes gets here.
    worst, stack = 0, [(e, 0)]
    while stack:
        node, cost = stack.pop()
        if isinstance(node, Bin):
            cost += _LEVEL_COST.get(node.op, 2)
            stack += [(node.lhs, cost), (node.rhs, cost)]
        elif isinstance(node, Unary):
            stack.append((node.arg, cost + _LEVEL_COST.get(node.op, 2)))
        elif isinstance(node, IntPow):
            stack.append((node.base, cost + 2))
        else:
            worst = max(worst, cost)
    return worst


def parse(src: str, coords: Sequence[str], consts: Iterable[str] = ()) -> Expr:
    """Parse a formula over the declared coordinates and constants.

    Raises ParseError (with position) on bad syntax, on nesting deeper
    than _MAX_NESTING and on a tree whose depth cost exceeds _MAX_DEPTH,
    and UndeclaredSymbolError on identifiers outside the declared names.
    """
    e = _Parser(src, coords, consts).parse()
    cost = _depth_cost(e)
    if cost > _MAX_DEPTH:
        raise ParseError(f"formula too deep: depth cost {cost} exceeds {_MAX_DEPTH}", src, 0)
    return e


# --------------------------------------------------------------------------
# Differentiation

def _d_unary(node: Unary, du: Expr) -> Expr:
    """Derivative of a unary node whose argument has derivative du."""
    u, op = node.arg, node.op
    if op == "neg":
        return neg(du)
    if op == "sin":
        return mul(Unary("cos", u), du)
    if op == "cos":
        return neg(mul(Unary("sin", u), du))
    if op == "tan":
        return mul(add(Num(1.0), intpow(Unary("tan", u), 2)), du)
    if op == "exp":
        return mul(node, du)
    if op == "log":
        return div(du, u)
    if op == "sqrt":
        return div(du, mul(Num(2.0), node))
    if op == "abs":
        return mul(div(u, node), du)
    raise ExprError(f"unknown unary op {op!r}")


def _d_bin(node: Bin, da: Expr, db: Expr) -> Expr:
    """Derivative of a binary node whose operands have derivatives da, db."""
    a, b, op = node.lhs, node.rhs, node.op
    if op == "+":
        return add(da, db)
    if op == "-":
        return sub(da, db)
    if op == "*":
        return add(mul(da, b), mul(a, db))
    if op == "/":
        return div(sub(mul(da, b), mul(a, db)), intpow(b, 2))
    if op == "pow":
        # d(a^b) = a^b * (db*log(a) + b*da/a)
        return mul(node, add(mul(db, Unary("log", a)), div(mul(b, da), a)))
    raise ExprError(f"unknown binary op {op!r}")


def diff(e: Expr, variable: str, _memo: dict | None = None) -> Expr:
    """Exact symbolic derivative with respect to a coordinate.

    Closed over the AST grammar; abs differentiates to u/abs(u) * u',
    which errors on evaluation at u = 0.

    The walk differentiates each distinct node object once, so a subtree
    shared by several parents is differentiated once and its derivative
    shared too.  _memo is jet()'s, not a caller's: it maps id(node) ->
    (node, derivative), and jet() passes one to every diff by the same
    variable, so a subtree reached from several expressions or partials
    is differentiated once as well.  It holds each node it keys, so no
    id is reused while it lives.
    """
    memo = {} if _memo is None else _memo

    # One frame per tree level, as _MAX_DEPTH assumes: the rules above
    # recurse into nothing.
    def d(node: Expr) -> Expr:
        hit = memo.get(id(node))
        if hit is not None:
            return hit[1]
        if isinstance(node, (Num, Const)):
            result = Num(0.0)
        elif isinstance(node, Var):
            result = Num(1.0) if node.name == variable else Num(0.0)
        elif isinstance(node, Unary):
            result = _d_unary(node, d(node.arg))
        elif isinstance(node, Bin):
            result = _d_bin(node, d(node.lhs), d(node.rhs))
        elif isinstance(node, IntPow):
            k = node.power
            result = mul(mul(Num(float(k)), intpow(node.base, k - 1)), d(node.base))
        else:
            raise ExprError(f"not an expression node: {node!r}")
        memo[id(node)] = (node, result)
        return result

    return d(e)


# --------------------------------------------------------------------------
# Printing and introspection

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(e: Expr) -> int:
    if isinstance(e, Bin):
        if e.op in "+-":
            return _PREC_ADD
        if e.op in "*/":
            return _PREC_MUL
        return _PREC_POW
    if isinstance(e, IntPow):
        return _PREC_POW
    if isinstance(e, Unary):
        return _PREC_NEG if e.op == "neg" else _PREC_ATOM
    if isinstance(e, Num) and e.value < 0:
        return _PREC_NEG
    return _PREC_ATOM


def to_text(e: Expr) -> str:
    """Render to grammar text; parsing the result evaluates identically."""

    def wrap(child: Expr, minimum: int) -> str:
        s = to_text(child)
        return f"({s})" if _prec(child) < minimum else s

    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, (Var, Const)):
        return e.name
    if isinstance(e, Unary):
        if e.op == "neg":
            return "-" + wrap(e.arg, _PREC_NEG)
        return f"{e.op}({to_text(e.arg)})"
    if isinstance(e, IntPow):
        base = wrap(e.base, _PREC_ATOM)
        return f"{base}^{e.power}" if e.power >= 0 else f"{base}^({e.power})"
    if isinstance(e, Bin):
        if e.op == "pow":
            return f"{wrap(e.lhs, _PREC_ATOM)}^{wrap(e.rhs, _PREC_POW)}"
        if e.op in "+-":
            return f"{to_text(e.lhs)} {e.op} {wrap(e.rhs, _PREC_MUL)}"
        # * and /: the grammar is left associative, so the right operand
        # must bind strictly tighter or grouping (and fp rounding) changes.
        left = wrap(e.lhs, _PREC_MUL)
        right = wrap(e.rhs, _PREC_MUL + 1)
        return f"{left}{e.op}{right}"
    raise ExprError(f"not an expression node: {e!r}")


def free_symbols(e: Expr) -> tuple[set[str], set[str]]:
    """Return (coordinate names, constant names) appearing in e."""
    varnames: set[str] = set()
    constnames: set[str] = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            varnames.add(node.name)
        elif isinstance(node, Const):
            constnames.add(node.name)
        elif isinstance(node, Unary):
            stack.append(node.arg)
        elif isinstance(node, Bin):
            stack.append(node.lhs)
            stack.append(node.rhs)
        elif isinstance(node, IntPow):
            stack.append(node.base)
    return varnames, constnames


# --------------------------------------------------------------------------
# Compilation and evaluation.  The geometry engine evaluates thousands
# of derivative expressions per point, so every evaluation runs through
# one generated function per expression list.  Each generated operation
# is the IEEE operation of its node, applied after its children, so a
# value equals a recursive tree walk of the same expression bit for bit;
# the tests keep such a walk as their oracle.

_COMPILE_NS = {
    "_sin": math.sin,
    "_cos": math.cos,
    "_tan": math.tan,
    "_exp": math.exp,
    "_log": math.log,
    "_sqrt": math.sqrt,
    "_abs": abs,
    "_pow": math.pow,
    "inf": math.inf, "nan": math.nan,  # the reprs of infinite and NaN literals
    "__builtins__": {},
}
# The complex twin's namespace: analytic continuations, abs by the real part's sign.
_COMPLEX_NS = {
    **{f"_{op}": getattr(cmath, op) for op in ("sin", "cos", "tan", "exp", "log", "sqrt")},
    "_abs": lambda z: -z if z.real < 0 else z,
    "_pow": pow,
    "inf": math.inf, "nan": math.nan,
    "__builtins__": {},
}

# A failing program line raises the interpreter's native exception.
# jet() names it by (operation of the line's node, exception type); an
# IntPow node's operation is "^", every other node's is its op.
_DOMAIN_MESSAGES = {
    ("log", ValueError): "log of non-positive value",
    ("sqrt", ValueError): "sqrt of negative value",
    **{(op, ValueError): f"{op} of an infinite value" for op in ("sin", "cos", "tan")},
    ("exp", OverflowError): "overflow",
    ("/", ZeroDivisionError): "division by zero",
    ("pow", ValueError): "power outside real domain",
    ("pow", OverflowError): "power outside real domain",
    ("^", ZeroDivisionError): "zero base with negative power",
    ("^", OverflowError): "overflow",
}


def compile_exprs(
    exprs: Sequence[Expr],
    coords: Sequence[str],
    consts: Mapping[str, float],
) -> Callable[..., tuple[float, ...]]:
    """Compile expressions into one positional function of the coordinates.

    f(*point) returns one double per expression.  Each constant is a
    trailing parameter, in sorted name order, whose default is its value
    in consts, so f(*point, *values) runs the same code at other values.
    Domain failures raise the interpreter's native ValueError /
    ZeroDivisionError / OverflowError; jet() turns them into an
    attributed DomainError.

    The function is straight-line code: every distinct interior node
    becomes one temporary, _tK = <op> over atoms (parameters, earlier
    temporaries and literal reprs), assigned after its children on line
    K + 2, f.nodes[K] is its node and f.source is the generated text.
    Only a negative literal as a ** base keeps parentheses.  Temporaries
    are keyed by that operation text, so equal operations share one.
    f.complex runs the same code on complex numbers, in _COMPLEX_NS.
    """
    argnames = {name: f"_c{i}" for i, name in enumerate(coords)}
    names = sorted(consts)
    constnames = {name: f"_k{i}" for i, name in enumerate(names)}
    temps: dict[str, str] = {}  # operation text -> temporary
    refs: dict[int, str] = {}  # id(node) -> atom: parameter, literal or temporary
    lines = []
    nodes = []

    def ref(e: Expr) -> str:
        r = refs.get(id(e))
        if r is not None:
            return r
        if isinstance(e, Num):
            r = repr(e.value)
        elif isinstance(e, Var):
            try:
                r = argnames[e.name]
            except KeyError:
                raise UnboundSymbolError(f"coordinate {e.name!r} is not in the chart") from None
        elif isinstance(e, Const):
            try:
                r = constnames[e.name]
            except KeyError:
                raise UnboundSymbolError(f"constant {e.name!r} is not bound") from None
        else:
            if isinstance(e, Unary):
                a = ref(e.arg)
                text = f"-{a}" if e.op == "neg" else f"_{e.op}({a})"
            elif isinstance(e, Bin):
                a, b = ref(e.lhs), ref(e.rhs)
                text = f"_pow({a}, {b})" if e.op == "pow" else f"{a} {e.op} {b}"
            elif isinstance(e, IntPow):
                base = ref(e.base)  # -x ** k would be -(x ** k)
                text = f"({base}) ** {e.power}" if base[0] == "-" else f"{base} ** {e.power}"
            else:
                raise ExprError(f"not an expression node: {e!r}")
            r = temps.get(text)
            if r is None:
                r = temps[text] = f"_t{len(temps)}"
                lines.append(f"    {r} = {text}\n")
                nodes.append(e)
        refs[id(e)] = r
        return r

    outs = [ref(e) for e in exprs]
    trailing = "," if len(exprs) == 1 else ""
    params = [*argnames.values(), *constnames.values()]
    src = (f"def _compiled({', '.join(params)}):\n"
           + "".join(lines) + f"    return {', '.join(outs)}{trailing}\n")
    namespace = dict(_COMPILE_NS)
    exec(compile(src, "<curvcheck-expr>", "exec"), namespace)
    program = namespace["_compiled"]
    program.__defaults__ = tuple(float(consts[name]) for name in names) or None
    program.nodes = tuple(nodes)
    program.source = src
    program.complex = types.FunctionType(program.__code__, _COMPLEX_NS, None,
                                         program.__defaults__)
    return program


@lru_cache(maxsize=None)
def _jet_build(
    exprs: tuple[Expr, ...],
    coords: tuple[str, ...],
    names: tuple[str, ...],
    order: int,
) -> tuple[Callable[..., tuple[float, ...]], tuple[np.ndarray, ...]]:
    """jet()'s program and output indices, built once per formula.

    The key holds the constants' names, not their values: the program
    takes them as trailing parameters, so every chart of one formula
    shares one diff, one code generation and one compile().  The
    program's defaults are NaN; jet() passes each chart's values.
    """
    if order not in (0, 1, 2):
        raise ExprError(f"jet order must be 0, 1 or 2, got {order!r}")
    unique = list(dict.fromkeys(exprs))
    slot = {e: i for i, e in enumerate(unique)}
    cols = np.array([slot[e] for e in exprs], dtype=np.intp)
    n, m = len(coords), len(unique)
    ordered = list(unique)
    indices = [cols]
    memos = {c: {} for c in coords}  # one diff memo per coordinate
    if order >= 1:
        first = [[diff(e, c, _memo=memos[c]) for e in unique] for c in coords]
        ordered += [d for row in first for d in row]
        indices.append(m * np.arange(1, n + 1)[:, None] + cols)
    if order == 2:
        offset = np.empty((n, n), dtype=np.intp)
        for l in range(n):
            for k in range(l, n):
                offset[l, k] = offset[k, l] = len(ordered)
                ordered += [diff(d, coords[l], _memo=memos[coords[l]]) for d in first[k]]
        indices.append(offset[:, :, None] + cols)
    return compile_exprs(ordered, coords, dict.fromkeys(names, math.nan)), tuple(indices)


def jet(
    exprs: tuple[Expr, ...],
    coords: tuple[str, ...],
    bindings: Mapping[str, float],
    order: int,
) -> Callable[[Sequence[Sequence[float]]], tuple[np.ndarray, ...]]:
    """Compile the values and exact derivatives of exprs up to order 2.

    Returns program(points) -> (values,) for order 0, (values, first)
    for order 1 and (values, first, second) for order 2, with arrays of
    shape (P, m), (P, n, m) and (P, n, n, m) for P points and m
    expressions over n coordinates: first[p, k, e] = d_k exprs[e] and
    second[p, l, k, e] = d_l d_k exprs[e] at points[p].  Each second
    partial is built once, as diff(diff(e, c_k), c_l) with l <= k, and
    mirrored, so second is exactly symmetric in its two derivative
    slots.  Every diff by one coordinate shares one memo, so each
    distinct subtree object is differentiated once per coordinate.
    Every value equals a tree walk of the same derivative bit for bit.

    Structurally equal expressions share one compiled output.  The
    program is built once per distinct (exprs, coords, constant names,
    order) value (_jet_build), whatever the constants' values: every
    run passes bindings' values to it.  A native domain failure at the
    first failing point raises a DomainError naming the node of the
    failing program line, with the message _DOMAIN_MESSAGES holds for
    its operation and the exception.  run.complex(points, columns) runs
    the program's complex twin at complex points, through the same
    indices, of the outputs at columns (an index array) alone.
    """
    names = tuple(sorted(bindings))
    program, indices = _jet_build(exprs, coords, names, order)
    values = tuple(float(bindings[name]) for name in names)

    def run(points: Sequence[Sequence[float]]) -> tuple[np.ndarray, ...]:
        try:
            rows = [program(*point, *values) for point in points]
        except (ValueError, ZeroDivisionError, OverflowError) as err:
            # The program's own frame is the innermost one: builtins add none.
            node = program.nodes[traceback.extract_tb(err.__traceback__)[-1].lineno - 2]
            op = "^" if isinstance(node, IntPow) else node.op
            raise DomainError(_DOMAIN_MESSAGES[op, type(err)], to_text(node)) from err
        flat = np.array(rows, dtype=float)
        return tuple(flat.take(index, axis=1) for index in indices)

    def run_complex(points: Sequence[Sequence[complex]], columns=slice(None)):
        flat = np.array([program.complex(*point, *values) for point in points], dtype=complex)
        return tuple(flat.take(index[..., columns], axis=1) for index in indices)

    run.complex = run_complex
    return run


def evaluate(e: Expr, point: Mapping[str, float], consts: Mapping[str, float] | None = None) -> float:
    """Evaluate one expression to an IEEE double, through its jet program.

    Domain failures (log of a non-positive value, division by zero,
    sqrt of a negative, non-real powers, overflow, a trigonometric
    function of an infinity) raise DomainError naming the offending
    subexpression; a symbol without a value raises UnboundSymbolError.
    """
    (values,) = jet((e,), tuple(point), Bindings(consts), 0)([tuple(map(float, point.values()))])
    return float(values[0, 0])
