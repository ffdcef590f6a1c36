"""Parser, evaluator and exact-derivative tests."""

import copy
import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvcheck import expr as ex
from curvcheck.expr import (
    Bin,
    Bindings,
    DomainError,
    IntPow,
    Num,
    ParseError,
    UnboundSymbolError,
    UndeclaredSymbolError,
    Unary,
    Var,
    compile_exprs,
    diff,
    parse,
    to_text,
)
# evaluate is the tests' tree walker: the oracle that ex.evaluate, jet and
# compile_exprs must match bit for bit.
from helpers import COORDS, at, central_difference, evaluate, random_expr, random_point


def ev(src, coords=("x",), consts=(), point=None, values=None):
    e = parse(src, coords, consts)
    return ex.evaluate(e, point or {}, values or {})


class TestParse:
    def test_sin_squared_shape(self):
        e = parse("sin(x)^2", ["x"])
        assert e == IntPow(Unary("sin", Var("x")), 2)

    def test_rn_profile_parses(self):
        e = parse("1 - 2*M/r + Q^2/r^2", ["r"], ["M", "Q"])
        vars_, consts_ = ex.free_symbols(e)
        assert vars_ == {"r"} and consts_ == {"M", "Q"}

    def test_undeclared_symbol(self):
        with pytest.raises(UndeclaredSymbolError):
            parse("b*(1+q*b)", ["x"], ["q"])

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as info:
            parse("x + * 2", ["x"])
        assert info.value.pos == 4

    def test_unknown_function(self):
        with pytest.raises(ParseError):
            parse("sinh(x)", ["x"])

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse("(x + 1", ["x"])

    def test_precedence(self):
        assert ev("2 + 3 * 4") == 14.0
        assert ev("2 * 3 ^ 2") == 18.0
        assert ev("-3^2") == -9.0  # pow binds tighter than unary minus
        assert ev("2^-2") == 0.25
        assert ev("2^3^2") == 512.0  # right associative
        assert ev("(2+3)*4") == 20.0

    def test_integer_power_detection(self):
        assert isinstance(parse("x^3", ["x"]), IntPow)
        assert isinstance(parse("x^(-2)", ["x"]), IntPow)
        assert isinstance(parse("x^2.5", ["x"]), Bin)

    def test_coordinate_constant_clash(self):
        with pytest.raises(ex.ExprError):
            parse("x", ["x"], ["x"])


class TestEvaluate:
    def test_square(self):
        assert ev("x^2", point={"x": 3.0}) == 9.0

    def test_rn_profile_value(self):
        # 1 - 2/3 + 1/9 at r=3, M=Q=1
        val = ev("1 - 2*M/r + Q^2/r^2", ("r",), ("M", "Q"),
                 point={"r": 3.0}, values={"M": 1.0, "Q": 1.0})
        assert val == pytest.approx(4.0 / 9.0, rel=1e-15)

    def test_log_domain_error(self):
        with pytest.raises(DomainError):
            ev("log(x)", point={"x": -1.0})

    def test_sqrt_domain_error(self):
        with pytest.raises(DomainError):
            ev("sqrt(x)", point={"x": -4.0})

    def test_trig_of_infinity_domain_error(self):
        with pytest.raises(DomainError) as info:
            ev("sin(x*x)", point={"x": 1e200})
        assert info.value.subexpr == "sin(x*x)"

    def test_division_by_zero_names_subexpression(self):
        with pytest.raises(DomainError) as info:
            ev("1/(x-1)", point={"x": 1.0})
        assert "x - 1" in str(info.value)

    def test_unbound_constant(self):
        e = parse("M*x", ["x"], ["M"])
        with pytest.raises(UnboundSymbolError):
            ex.evaluate(e, {"x": 1.0}, {})

    def test_bindings_reject_missing(self):
        b = Bindings(M=1.0)
        assert b["M"] == 1.0
        with pytest.raises(UnboundSymbolError):
            b["Q"]

    def test_purity(self):
        e = parse("sin(x)*exp(x) - x^3/7", ["x"])
        a = ex.evaluate(e, {"x": 0.731})
        b = ex.evaluate(e, {"x": 0.731})
        assert a == b


class TestDiff:
    def test_sin_squared_at_pi_over_4(self):
        e = parse("sin(x)^2", ["x"])
        d = diff(e, "x")
        assert ex.evaluate(d, {"x": math.pi / 4}) == pytest.approx(1.0, abs=1e-15)

    def test_constant_derivative_zero(self):
        e = parse("M", ["x"], ["M"])
        d = diff(e, "x")
        assert ex.evaluate(d, {"x": 5.0}, {"M": 3.0}) == 0.0

    def test_second_derivative_cubic(self):
        e = parse("x^3", ["x"])
        d2 = diff(diff(e, "x"), "x")
        assert ex.evaluate(d2, {"x": 2.0}) == 12.0

    def test_abs_derivative_is_sign(self):
        e = parse("abs(x)", ["x"])
        d = diff(e, "x")
        assert ex.evaluate(d, {"x": 2.5}) == 1.0
        assert ex.evaluate(d, {"x": -2.5}) == -1.0
        with pytest.raises(DomainError):
            ex.evaluate(d, {"x": 0.0})

    def test_general_power_derivative(self):
        e = parse("x^2.5", ["x"])
        d = diff(e, "x")
        assert ex.evaluate(d, {"x": 2.0}) == pytest.approx(2.5 * 2.0 ** 1.5, rel=1e-14)

    def test_negative_intpow_derivative(self):
        e = parse("x^(-2)", ["x"])
        d = diff(e, "x")
        assert ex.evaluate(d, {"x": 2.0}) == pytest.approx(-2.0 / 8.0, rel=1e-14)


# ---------------------------------------------------------------------------
# Randomized properties, on the shared domain-safe generator.

def test_derivative_matches_central_difference_bulk():
    rng = random.Random(20240817)
    for _ in range(1000):
        e = random_expr(rng, rng.choice([1, 2, 3]))
        p = random_point(rng)
        d = diff(e, "x")
        exact = evaluate(d, p)
        approx = central_difference(e, p, "x")
        assert abs(exact - approx) <= 1e-6 * (1.0 + abs(exact))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_diff_linearity(seed):
    rng = random.Random(seed)
    e1 = random_expr(rng, 2)
    e2 = random_expr(rng, 2)
    a, b = rng.uniform(-2, 2), rng.uniform(-2, 2)
    p = random_point(rng)
    combo = ex.add(ex.mul(Num(a), e1), ex.mul(Num(b), e2))
    lhs = evaluate(diff(combo, "x"), p)
    rhs = a * evaluate(diff(e1, "x"), p) + b * evaluate(diff(e2, "x"), p)
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + max(abs(lhs), abs(rhs)))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_diff_product_rule(seed):
    rng = random.Random(seed)
    e1 = random_expr(rng, 2)
    e2 = random_expr(rng, 2)
    p = random_point(rng)
    lhs = evaluate(diff(ex.Bin("*", e1, e2), "x"), p)
    rhs = (evaluate(diff(e1, "x"), p) * evaluate(e2, p)
           + evaluate(e1, p) * evaluate(diff(e2, "x"), p))
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + max(abs(lhs), abs(rhs)))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_diff_chain_rule(seed):
    rng = random.Random(seed)
    inner = random_expr(rng, 2)
    p = random_point(rng)
    lhs = evaluate(diff(Unary("sin", inner), "x"), p)
    rhs = math.cos(evaluate(inner, p)) * evaluate(diff(inner, "x"), p)
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + max(abs(lhs), abs(rhs)))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_print_parse_roundtrip(seed):
    rng = random.Random(seed)
    e = random_expr(rng, rng.choice([1, 2, 3]))
    text = to_text(e)
    back = parse(text, COORDS)
    again = parse(to_text(back), COORDS)
    for _ in range(5):
        p = random_point(rng)
        assert evaluate(back, p) == evaluate(e, p)
        assert evaluate(again, p) == evaluate(e, p)


def test_roundtrip_of_parsed_sources():
    sources = [
        "1 - 2*M/r + Q^2/r^2",
        "sin(x)^2 + cos(x)^2",
        "-x^2 + 3*x/(1 + x^2)",
        "sqrt(1.5 + x^2)*exp(0.5*x) - log(2 + x^2)",
        "x^(-3) - 2^x",
    ]
    for src in sources:
        e = parse(src, ["r", "x"], ["M", "Q"])
        back = parse(to_text(e), ["r", "x"], ["M", "Q"])
        point = {"r": 3.2, "x": 0.7}
        consts = {"M": 1.1, "Q": 0.8}
        assert evaluate(back, point, consts) == evaluate(e, point, consts)


def test_compiled_matches_treewalk():
    rng = random.Random(7)
    exprs = [random_expr(rng, 3) for _ in range(40)]
    f = compile_exprs(exprs, COORDS, {})
    program = ex.jet(tuple(exprs), COORDS, Bindings(), 2)
    for _ in range(25):
        p = random_point(rng)
        got = f(p["x"], p["y"])
        want = tuple(evaluate(e, p) for e in exprs)
        assert got == want
        values, first, second = at(program, (p["x"], p["y"]))
        assert tuple(values.tolist()) == want
        for k, ck in enumerate(COORDS):
            for i, e in enumerate(exprs):
                dk = diff(e, ck)
                assert first[k, i] == evaluate(dk, p)
                for l in range(k + 1):
                    want2 = evaluate(diff(dk, COORDS[l]), p)
                    assert second[l, k, i] == second[k, l, i] == want2


def test_infinite_literals_match_treewalk():
    # repr writes an infinite or NaN literal as inf or nan, names that the
    # programs bind: a literal and one diff folds (1e300*1e300) evaluate as
    # the tree walk does, in the program and in its complex twin.
    x = Var("x")
    exprs = (Num(math.inf), Bin("*", Num(-math.inf), x), Bin("+", Num(math.nan), x),
             Bin("*", Bin("*", Num(1e300), x), Num(1e300)))
    program = ex.jet(exprs, ("x",), Bindings(), 1)
    assert "inf" in to_text(diff(exprs[3], "x"))
    for point in (0.5, -2.0):
        values, first = at(program, (point,))
        want = [evaluate(e, {"x": point}) for e in exprs]
        want_first = [evaluate(diff(e, "x"), {"x": point}) for e in exprs]
        assert np.array_equal(values, want, equal_nan=True)
        assert np.array_equal(first[0], want_first, equal_nan=True)
        twin = at(program.complex, (complex(point),))[0].real
        assert np.array_equal(twin, want, equal_nan=True)


def test_complex_twin_steps_to_the_first_derivatives():
    # Im / h of the jet's complex twin at x + ih e_k is the exact d_k of
    # each value: the order-1 jet's, to round-off (4000 derivatives).
    rng, h = random.Random(28), 1e-30
    exprs = tuple(random_expr(rng, rng.choice([1, 2, 3])) for _ in range(200))
    program = ex.jet(exprs, COORDS, Bindings(), 1)
    for _ in range(10):
        x = list(random_point(rng).values())
        _, first = at(program, x)
        for k, step in enumerate((np.array(x) + 1j * h * np.eye(len(x))).tolist()):
            twin = at(program.complex, step)[0].imag / h
            assert np.all(np.abs(twin - first[k]) <= 1e-13 * (1.0 + np.abs(first[k])))


@pytest.mark.parametrize("count", [1, 2, 7])
def test_a_jet_program_runs_a_chunk_as_its_points_alone(count):
    # run(points), and its complex twin's, stack each point's own run bit
    # for bit, with the point axis first.
    rng = random.Random(31 + count)
    exprs = tuple(random_expr(rng, 3) for _ in range(12))
    program = ex.jet(exprs, COORDS, Bindings(), 2)
    points = [tuple(random_point(rng).values()) for _ in range(count)]
    steps = [(x + 1e-30j, y - 1e-30j) for x, y in points]
    for run, pts in ((program, points), (program.complex, steps)):
        chunk = run(pts)
        assert [part.shape for part in chunk] == [(count, 12), (count, 2, 12), (count, 2, 2, 12)]
        for part, lanes in zip(chunk, zip(*(at(run, point) for point in pts))):
            assert part.tobytes() == np.array(lanes).tobytes()


@pytest.mark.parametrize("lane, bad", [(0, (-1.0, 1.0)), (2, (1.0, 0.0)), (3, (0.0, 0.0))])
def test_a_failing_lane_raises_the_error_of_its_point_alone(lane, bad):
    program = ex.jet((parse("log(x)", COORDS), parse("1/y", COORDS)), COORDS, Bindings(), 1)
    points = [(1.0, 2.0), (0.5, -1.0), (3.0, 1.5), (2.0, 0.5)]
    points[lane] = bad
    with pytest.raises(DomainError) as chunk:
        program(points)
    with pytest.raises(DomainError) as alone:
        program([points[lane]])
    assert (str(chunk.value), chunk.value.subexpr) == (str(alone.value), alone.value.subexpr)


def _psi_values_at_pole():
    psi = ex.jet((parse("1/x", ("x", "y")), Num(0.0)), ("x", "y"), Bindings(), 1)
    return psi([(0.0, 1.0)])[0]


def _covariant_derivative_of_log():
    # The field's g and dg come from the frame, whose jet fails first.
    from curvcheck import geometry as geo

    spec = geo.diagonal_metric(("x1", "x2"), ["log(x1)", "1"])
    f = geo.frame(spec, (-1.0, 0.5))
    return geo.covariant_derivative_02(f, f.g, f.dg)


def _root_warp_jets_at_zero():
    # The product's jets (metric_jets checks nothing) get past warp > 0
    # and reach the warp's derivative, which the product's one program yields.
    from curvcheck import geometry as geo
    from curvcheck import warped as wp

    base = geo.diagonal_metric(("u", "v"), [1.0, 1.0])
    ws = wp.assemble(base, wp.constant_curvature_fiber(2, 2.0), "sqrt(u)")
    return geo.metric_jets(ws.product, [(0.0, 0.5, 0.1, 0.2)])


@pytest.mark.parametrize(
    "call, subexpr",
    [
        (_psi_values_at_pole, "1.0/x"),
        (_covariant_derivative_of_log, "log(x1)"),
        (_root_warp_jets_at_zero, "1.0/(2.0*sqrt(u))"),
    ],
    ids=["psi", "covariant_derivative_02", "warp"],
)
def test_jet_programs_name_the_failing_subexpression(call, subexpr):
    with pytest.raises(DomainError) as info:
        call()
    assert info.value.subexpr == subexpr


def test_compiled_inlines_constants():
    e = parse("M*x + Q^2", ["x"], ["M", "Q"])
    f = compile_exprs([e], ["x"], {"M": 2.0, "Q": 3.0})
    assert f(1.5) == (2.0 * 1.5 + 9.0,)
    with pytest.raises(UnboundSymbolError):
        compile_exprs([e], ["x"], {"M": 2.0})


# ---------------------------------------------------------------------------
# Straight-line programs: one temporary per distinct node, cached hashes.

def _bits(values):
    """repr round-trips a double exactly, so equal reprs mean equal bits."""
    return [repr(float(v)) for v in values]


def test_long_sum_compiles_bit_for_bit():
    # As one nested expression, 300 terms overflowed compile()'s
    # parenthesis limit.
    e = parse(" + ".join(f"{0.25 * (k + 1)}*x^{k % 5}*y" for k in range(300)), COORDS)
    f = compile_exprs([e, diff(e, "x")], COORDS, {})
    for point in ({"x": 0.3, "y": -1.1}, {"x": -1.7, "y": 0.4}):
        want = [evaluate(e, point), evaluate(diff(e, "x"), point)]
        assert _bits(f(point["x"], point["y"])) == _bits(want)


def _shared_dag(rng: random.Random) -> list:
    """Expressions that reuse subtree objects and hold equal copies of them.

    Every combination keeps magnitudes bounded, and Num(0.0) sits beside
    Num(-0.0), which == equates but which multiply to different signs.
    """
    pool = [Var("x"), Var("y"), Num(0.0), Num(-0.0), Num(1.5)]
    for _ in range(rng.randint(4, 24)):
        a, b = rng.choice(pool), rng.choice(pool)
        kind = rng.randrange(6)
        if kind == 0:
            pool.append(random_expr(rng, rng.choice([1, 2])))
        elif kind == 1:
            pool.append(copy.deepcopy(a))  # equal, not identical
        elif kind == 2:
            pool.append(Bin(rng.choice("+-"), a, b))
        elif kind == 3:
            pool.append(Bin("*", a, Unary("cos", b)))
        elif kind == 4:
            pool.append(IntPow(Unary("sin", a), 2))
        else:
            pool.append(Bin("*", rng.choice([Num(0.0), Num(-0.0)]), Unary("neg", a)))
    return [rng.choice(pool) for _ in range(rng.randint(1, 12))]


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=120, deadline=None)
def test_dag_program_matches_treewalk(seed):
    rng = random.Random(seed)
    exprs = _shared_dag(rng)
    f = compile_exprs(exprs, COORDS, {})
    program = ex.jet(tuple(exprs), COORDS, Bindings(), 2)
    for _ in range(3):
        p = random_point(rng)
        want = [evaluate(e, p) for e in exprs]
        assert _bits(f(p["x"], p["y"])) == _bits(want)
        values, first, second = at(program, (p["x"], p["y"]))
        assert values.tolist() == want
        for k, ck in enumerate(COORDS):
            for i, e in enumerate(exprs):
                dk = diff(e, ck)
                assert first[k, i] == evaluate(dk, p)
                for l in range(k + 1):
                    assert second[l, k, i] == second[k, l, i] == evaluate(diff(dk, COORDS[l]), p)


def test_shared_failing_node_keeps_its_attribution():
    bad = Unary("log", Var("x"))
    exprs = (Bin("+", Var("y"), bad), Bin("*", bad, Var("y")), IntPow(bad, 2))
    point = {"x": -1.0, "y": 0.5}
    with pytest.raises(DomainError) as direct:
        evaluate(exprs[0], point)
    with pytest.raises(DomainError) as compiled:
        ex.jet(exprs, COORDS, Bindings(), 2)([(point["x"], point["y"])])
    assert compiled.value.subexpr == direct.value.subexpr == "log(x)"


def test_jet_failure_re_evaluates_only_the_failing_node(monkeypatch):
    # Each prefix product sqrt(x)*(y + 1)*...*(y + k) is finite at x = 0,
    # but its x-derivative divides by 2*sqrt(x).  The failing line's node
    # is named from its operation and exception; nothing is evaluated again.
    prod, exprs = Unary("sqrt", Var("x")), []
    for k in range(40):
        prod = Bin("*", prod, Bin("+", Var("y"), Num(float(k + 1))))
        exprs.append(prod)
    point = {"x": 0.0, "y": 0.5}
    with pytest.raises(DomainError) as direct:
        evaluate(diff(exprs[0], "x"), point)
    calls = []
    original = ex.evaluate

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(ex, "evaluate", counting)
    with pytest.raises(DomainError) as compiled:
        ex.jet(tuple(exprs), COORDS, Bindings(), 2)([(point["x"], point["y"])])
    assert len(calls) == 0
    assert compiled.value.subexpr == direct.value.subexpr
    assert str(compiled.value) == str(direct.value)


INF = math.inf


@pytest.mark.parametrize(
    "src, point",
    [
        ("log(0)", (0.0, 0.0)),
        ("log(-1)", (0.0, 0.0)),
        ("sqrt(-1)", (0.0, 0.0)),
        ("exp(1000)", (0.0, 0.0)),
        ("1/0", (0.0, 0.0)),
        ("(-8)^0.5", (0.0, 0.0)),
        ("x^y", (-8.0, 0.5)),
        ("(x+10)^400.5", (0.0, 0.0)),
        ("0^(-1)", (0.0, 0.0)),
        ("(1e200)^2", (0.0, 0.0)),
    ]
    + [(f"{op}(x)", (x, 0.0)) for op in ("sin", "cos", "tan") for x in (INF, -INF)],
)
def test_domain_errors_match_the_oracle(src, point):
    # Each failure raised through a jet program and through ex.evaluate
    # carries the oracle's message and subexpression.
    e = parse(src, COORDS)
    pmap = dict(zip(COORDS, point))
    raised = []
    for call in (
        lambda: evaluate(e, pmap),
        lambda: ex.evaluate(e, pmap),
        lambda: ex.jet((e,), COORDS, Bindings(), 0)([point]),
    ):
        with pytest.raises(DomainError) as info:
            call()
        raised.append((type(info.value), str(info.value), info.value.subexpr))
    assert raised[0] == raised[1] == raised[2]


def _distinct_interior_nodes(exprs, consts) -> int:
    """Structurally distinct interior nodes of exprs.  A leaf is keyed by
    the value it stands for: a constant is inlined as its bound value."""
    interned: dict[tuple, int] = {}
    memo: dict[int, int] = {}

    def key(e) -> int:
        if id(e) not in memo:
            if isinstance(e, Num):
                k = ("leaf", repr(e.value))
            elif isinstance(e, ex.Const):
                k = ("leaf", repr(float(consts[e.name])))
            elif isinstance(e, Var):
                k = ("leaf", e.name)
            elif isinstance(e, Unary):
                k = ("unary", e.op, key(e.arg))
            elif isinstance(e, Bin):
                k = ("bin", e.op, key(e.lhs), key(e.rhs))
            else:
                k = ("intpow", e.power, key(e.base))
            memo[id(e)] = interned.setdefault(k, len(interned))
        return memo[id(e)]

    for e in exprs:
        key(e)
    return sum(1 for k in interned if k[0] != "leaf")


def test_n6_jet_has_one_temporary_per_distinct_node(monkeypatch):
    from curvcheck import cli
    from curvcheck.corpus import corpus_get

    job = cli.build_job(corpus_get("theorem41_c_neg_n6")["manifolds"][0])
    spec = next(t.spec for t in job.targets if t.label == "image")
    built = []

    def recording(exprs, coords, consts):
        program = compile_exprs(exprs, coords, consts)
        built.append((list(exprs), program))
        return program

    monkeypatch.setattr(ex, "compile_exprs", recording)
    components = tuple(e for row in spec.components for e in row)
    ex.jet.__wrapped__(components, spec.coords, spec.bindings, 2)  # bypass the cache
    ((ordered, program),) = built
    temporaries = program.__code__.co_nlocals - len(spec.coords)
    assert temporaries == _distinct_interior_nodes(ordered, spec.bindings)


def _node_objects(e) -> int:
    """Distinct node objects reachable from e."""
    seen, stack = set(), [e]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack += [getattr(node, f) for f in ("arg", "lhs", "rhs", "base") if hasattr(node, f)]
    return len(seen)


def test_diff_differentiates_each_shared_node_once():
    # Each level multiplies its child by itself.  Differentiated once per
    # tree path, the child's derivative is built 2^depth times, about
    # 2e5 node objects at depth 16; once per node object, it is built
    # once per level.
    depth = 16
    e = Var("x")
    for _ in range(depth):
        e = Bin("*", e, e)
    de = diff(e, "x")
    assert _node_objects(de) <= 5 * depth
    assert ex.evaluate(de, {"x": 1.0}) == 2.0 ** depth


def test_shared_memo_leaves_the_n6_program_unchanged(monkeypatch):
    # jet shares one diff memo per coordinate across all partials; the
    # program must be the one built from a separate diff call per partial.
    from curvcheck import cli
    from curvcheck.corpus import corpus_get

    job = cli.build_job(corpus_get("theorem41_c_neg_n6")["manifolds"][0])
    spec = next(t.spec for t in job.targets if t.label == "image")
    built = []

    def recording(exprs, coords, consts):
        program = compile_exprs(exprs, coords, consts)
        built.append(program)
        return program

    monkeypatch.setattr(ex, "compile_exprs", recording)
    components = tuple(e for row in spec.components for e in row)
    ex.jet.__wrapped__(components, spec.coords, spec.bindings, 2)  # bypass the cache
    (program,) = built
    coords, unique = spec.coords, list(dict.fromkeys(components))
    first = [[diff(e, c) for e in unique] for c in coords]
    separate = unique + [d for row in first for d in row]
    for l in range(len(coords)):
        for k in range(l, len(coords)):
            separate += [diff(d, coords[l]) for d in first[k]]
    assert program.source == compile_exprs(separate, coords, spec.bindings).source


def test_equal_nodes_built_separately_hash_and_compare_equal():
    a = parse("sin(x)^2 + M*x/(1 - x)", ["x"], ["M"])
    b = parse("sin(x)^2 + M*x/(1 - x)", ["x"], ["M"])
    assert a is not b
    assert hash(a) == hash(b) and a == b
    assert hash(diff(a, "x")) == hash(diff(b, "x")) and diff(a, "x") == diff(b, "x")
    assert repr(a) == repr(b) and "_hash" not in repr(a)


def test_cached_hash_is_not_a_field():
    e = parse("x*(1 + x)", ["x"])
    hash(e)
    assert [f.name for f in dataclasses.fields(Bin)] == ["op", "lhs", "rhs"]
    assert e == Bin("*", Var("x"), Bin("+", Num(1.0), Var("x")))


# ---------------------------------------------------------------------------
# Depth limits: a formula too deep for the recursive passes is a ParseError.

def test_deep_sum_is_a_parse_error():
    with pytest.raises(ParseError, match="too deep"):
        parse(" + ".join(f"0.001*x^{k % 7}" for k in range(600)), COORDS)


def test_deep_product_is_a_parse_error():
    with pytest.raises(ParseError, match="too deep"):
        parse("*".join("x" for _ in range(400)), COORDS)


def test_deep_brackets_are_a_parse_error():
    with pytest.raises(ParseError, match="nested more than"):
        parse("(" * 300 + "x" + ")" * 300, COORDS)
    with pytest.raises(ParseError, match="nested more than"):
        parse("-" * 300 + "x", COORDS)


def test_long_parse_error_shows_a_prefix():
    with pytest.raises(ParseError) as info:
        parse("x + " * 100 + "?", COORDS)
    assert len(str(info.value)) < 160 and "..." in str(info.value)

