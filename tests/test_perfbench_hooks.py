"""The benchmark tracer wraps curvcheck functions by name; a rename in
src/ must fail here, in the default suite, not only in perfbench/tests."""

import inspect
from pathlib import Path

import numpy as np
import pytest

from curvcheck import cli, roter
from curvcheck import expr as ex
from curvcheck import geometry as geo
from curvcheck.corpus import corpus_get

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    # Executed from its source text, so nothing is written under perfbench/.
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), namespace)
    return namespace


def _module(name):
    return __import__(f"curvcheck.{name}", fromlist=[name])


def test_every_wrapped_name_resolves(tracer):
    for span, module, attr in tracer["WRAPPED"]:
        assert not attr.startswith("_"), attr
        fn = getattr(_module(module), attr, None)
        assert callable(fn), (span, module, attr)
        assert fn.__module__ == f"curvcheck.{module}", (span, module, attr)


def test_frame_takes_spec_and_point_first(tracer):
    # The tracer's frame hook reads args[0] as the spec and args[1] as the point.
    assert ("geometry.frame", "geometry", "frame") in tracer["WRAPPED"]
    params = list(inspect.signature(_module("geometry").frame).parameters)
    assert params[:2] == ["spec", "point"]


def test_roter_entries_take_a_frame_first(tracer):
    # The tracer reads args[0].dim of every roter call.
    roter_entries = [attr for _, module, attr in tracer["WRAPPED"] if module == "roter"]
    assert roter_entries
    for attr in roter_entries:
        params = list(inspect.signature(getattr(_module("roter"), attr)).parameters)
        assert params[0] == "frame", attr


def test_roter_entries_take_a_stacked_frame(tracer):
    # The tracer's dimension split reads args[0].dim, which on a chunk
    # of points must still be the chart dimension.
    job = cli.build_job(corpus_get("rn_lambda0")["manifolds"][0])
    points = cli.sample_points(job, 3, np.random.default_rng(0))
    chunk = geo.frames(job.targets[0].spec, points)
    assert chunk.dim == job.targets[0].spec.dim == 4
    cs = roter.classify(chunk)
    products = roter.curvature_products(chunk)
    calls = {
        "classify": (chunk,),
        "fit_roter": (chunk,),
        "identity_suite": (chunk, [c.fit for c in cs], products),
        "pseudosymmetry_factors": (chunk, products),
        "ricci_pseudosymmetry": (chunk, products),
        "rank_grid_exceeds_one": (chunk, cs),
    }
    roter_entries = [attr for _, module, attr in tracer["WRAPPED"] if module == "roter"]
    assert roter_entries
    for attr in roter_entries:
        args = calls[attr]  # a new roter entry needs its chunk call here
        assert tracer["_frame_dim"](args) == 4
        assert len(getattr(roter, attr)(*args)) == len(points), attr


def test_the_bianchi_check_takes_a_stacked_frame(tracer):
    # geometry.second_bianchi_residual.calls counts one call per chunk that
    # holds run index 0 or 1: the call takes that chunk's stacked frame
    # first and returns one residual per lane.
    assert ("geometry.second_bianchi_residual", "geometry",
            "second_bianchi_residual") in tracer["WRAPPED"]
    assert list(inspect.signature(geo.second_bianchi_residual).parameters)[0] == "frame"
    job = cli.build_job(corpus_get("rn_lambda0")["manifolds"][0])
    points = cli.sample_points(job, 3, np.random.default_rng(0))
    residuals = geo.second_bianchi_residual(geo.frames(job.targets[0].spec, points))
    assert residuals.shape == (len(points),)


def test_traced_programs_keep_their_complex_twin(tracer):
    # install() wraps compile_exprs and, through _after_compile, each
    # program it returns, with functools.wraps, which copies the program's
    # attributes.  So the twin must come from compile_exprs itself: one
    # built later from the program's __code__ would run the tracer's wrapper.
    t = tracer["Tracer"]()
    compile_exprs = t.wrap("expr.compile_exprs", ex.compile_exprs, after=t._after_compile)
    program = compile_exprs([ex.parse("x^3", ["x"])], ["x"], {})
    assert program.__wrapped__ is not program
    assert program.complex.__code__ is program.__wrapped__.__code__
    assert program.complex(2 + 1e-30j)[0].imag / 1e-30 == pytest.approx(12.0, rel=1e-15)


def test_traced_jets_with_constants_run_the_wrapped_program(tracer, monkeypatch):
    # jet must call the very program compile_exprs returned, constants
    # passed as arguments, and that program's complex twin: a program
    # rebuilt from its __code__ would escape the tracer.  The twin is
    # wrapped here too, so that its calls are seen.
    exprs, bindings = (ex.parse("M*x^3 + Q/x", ["x"], ["M", "Q"]),), ex.Bindings(M=0.5, Q=-2.0)
    points, steps = [(1.5,), (-0.25,)], [(1.5 + 1e-30j,), (-0.25 + 1e-30j,)]
    ex._jet_build.cache_clear()
    plain = ex.jet(exprs, ("x",), bindings, 1)
    want = plain(points) + plain.complex(steps)
    t = tracer["Tracer"]()

    def after(args, kwargs, program):
        traced = t._after_compile(args, kwargs, program)
        traced.complex = t.wrap("expr.program.complex", traced.complex)
        return traced

    monkeypatch.setattr(ex, "compile_exprs", t.wrap("expr.compile_exprs", ex.compile_exprs,
                                                     after=after))
    ex._jet_build.cache_clear()
    try:
        run = ex.jet(exprs, ("x",), bindings, 1)
        got = run(points) + run.complex(steps)
    finally:
        ex._jet_build.cache_clear()  # no traced program outlives the test
    names = [span[0] for span in t.spans]
    assert names.count("expr.compile_exprs") == 1
    assert names.count("expr.program") == names.count("expr.program.complex") == len(points)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
