"""Warped-product assembly, diagnostics and block-form cross-checks."""

import dataclasses

import numpy as np
import pytest

from curvcheck import cli
from curvcheck import expr as ex
from curvcheck import geometry as geo
from curvcheck import roter
from curvcheck import warped
from curvcheck.corpus import corpus_get, corpus_list
from curvcheck.curvops import rank_shift, unit_curvature
from helpers import constant_curvature_2d, diagnostics_at, flat_metric, max_abs_residual, stack


def hyperbolic_base(D=4.0, C=0.0, b="x"):
    """diag(a, b) with a = (b')^2/(b(D b - 4C)); Gauss curvature -D/4."""
    return constant_curvature_2d(b, -D / 4.0, -4.0 * C, coords=("x", "t"))


def family(D=4.0, C=0.0, n=4, fiber_scalar=2.0, profile="2*t+1"):
    base = hyperbolic_base(D, C)
    fiber = warped.constant_curvature_fiber(n - 2, fiber_scalar)
    return warped.assemble(base, fiber, f"x*({profile})^2")


def sample_points(ws, rng, count=4):
    pts = []
    while len(pts) < count:
        base = [rng.uniform(0.6, 2.0), rng.uniform(-0.3, 0.6)]
        fib = [rng.uniform(-0.3, 0.3) for _ in range(ws.fiber_dim)]
        pt = tuple(base + fib)
        if geo.admissible(ws.product, pt):
            pts.append(pt)
    return pts


def roter_from_diagnostics(d, n):
    """(phi, mu, eta, L_R) of the decomposition from the block factors of
    a 2-D base: phi = nu (rho1 - 2 rho2 + rho3) with nu = (mu2 - mu1)^-2,
    the companion mu / eta combinations, and L_R from roter's closed form.
    """
    nu = (d.mu2 - d.mu1) ** -2
    phi = nu * (d.rho1 - 2 * d.rho2 + d.rho3)
    mu = nu * ((d.rho2 - d.rho3) * d.mu1 + (d.rho2 - d.rho1) * d.mu2)
    eta = nu * (d.rho1 * d.mu2**2 - 2 * d.rho2 * d.mu1 * d.mu2 + d.rho3 * d.mu1**2)
    L_R = ((n - 2) * (mu * mu - phi * eta) - mu) / phi
    return phi, mu, eta, L_R


RNG = np.random.default_rng(7)


class TestAssemble:
    def test_unit_warp_gives_plain_product(self):
        base = flat_metric(2, "x")
        fiber = warped.constant_curvature_fiber(2, 2.0)
        ws = warped.assemble(base, fiber, "1 + 0*x1")
        pt = (0.3, -0.2, 0.1, 0.2)
        gam = geo.frame(ws.product, pt).gamma
        # mixed Christoffels vanish when F is constant
        assert np.max(np.abs(gam[:2, 2:, 2:])) < 1e-14
        assert warped.verify_product_christoffels(diagnostics_at(ws, pt)) < 1e-10

    def test_charged_metric_as_warped_product(self):
        # (t, r) base with radius-squared warp over a unit sphere equals
        # the explicit four-dimensional chart.
        h = "1 - 2/r + 1/r^2"
        base = geo.diagonal_metric(
            ("t", "r"), [f"-({h})", f"1/({h})"], conditions=[(h, "positive")]
        )
        fiber = geo.diagonal_metric(
            ("th", "ph"), ["1", "sin(th)^2"], conditions=[("sin(th)", "nonzero")]
        )
        ws = warped.assemble(base, fiber, "r^2")
        explicit = geo.diagonal_metric(
            ("t", "r", "th", "ph"),
            [f"-({h})", f"1/({h})", "r^2", "r^2*sin(th)^2"],
        )
        pt = (0.0, 3.0, 1.2, 0.3)
        fw = geo.frame(ws.product, pt)
        fe = geo.frame(explicit, pt)
        assert max_abs_residual(fw.g, fe.g) < 1e-14
        assert max_abs_residual(fw.riemann, fe.riemann) < 1e-12
        assert warped.verify_product_christoffels(diagnostics_at(ws, pt)) < 1e-10

    def test_family_christoffels(self):
        ws = family()
        for pt in sample_points(ws, RNG, 3):
            assert warped.verify_product_christoffels(diagnostics_at(ws, pt)) < 1e-10

    def test_coordinate_collision_rejected(self):
        base = flat_metric(2, "y")
        fiber = warped.constant_curvature_fiber(2, 2.0)  # y1, y2
        with pytest.raises(geo.GeometryError):
            warped.assemble(base, fiber, "1 + 0*y1")

    def test_fiber_dependent_warp_rejected(self):
        base = flat_metric(2, "x")
        fiber = warped.constant_curvature_fiber(2, 2.0)
        with pytest.raises(geo.GeometryError):
            warped.assemble(base, fiber, ex.parse("y1", ("y1",)))

    def test_nonpositive_warp_is_inadmissible(self):
        base = flat_metric(2, "x")
        fiber = warped.constant_curvature_fiber(2, 0.0)
        ws = warped.assemble(base, fiber, "x1")
        point = (-1.0, 0.0, 0.1, 0.1)
        # warp > 0 is one of the product's conditions, so sampling's
        # admissible test turns the point away; diagnostics does not test it.
        assert not geo.admissible(ws.product, point)


WARPED_ENTRIES = [name for name in corpus_list()
                  if corpus_get(name)["manifolds"][0]["kind"] in ("warped", "family")]


def warped_targets(entry, count):
    """(label, warped spec, the first count points run_manifest draws) of
    each warped target of a corpus entry, both members of a family."""
    manifest = corpus_get(entry)
    job = cli.build_job(manifest["manifolds"][0])
    points = cli.sample_points(job, count, np.random.default_rng([manifest["seed"], 0]))
    return [(f"{entry}/{t.label}", t.warped_spec, points) for t in job.targets]


class TestOneProgram:
    """A warped product's components program is its only metric-level
    program: it also yields its base, fiber and warp jets."""

    @pytest.mark.parametrize("entry", WARPED_ENTRIES)
    def test_factor_jets_equal_their_own_programs(self, entry):
        # Base and fiber frames built from the product's jets equal those
        # of the factors' own programs on every lane field, and F, dF and
        # d2F equal a separately built warp jet, bit for bit.
        for name, ws, points in warped_targets(entry, 6):
            base_pts, fiber_pts = zip(*map(ws.split, points))
            base_jet, fiber_jet, warp_jet = ws.blocks(geo.metric_jets(ws.product, points))
            for spec, pts, jet in ((ws.base, base_pts, base_jet), (ws.fiber, fiber_pts, fiber_jet)):
                shared, own = geo.frames(spec, pts, jet), geo.frames(spec, pts)
                for field in dataclasses.fields(geo.PointFrame)[2:]:
                    assert np.array_equal(getattr(shared, field.name), getattr(own, field.name)), \
                        (name, spec.coords, field.name)
            program = ex.jet((ws.warp,), ws.base.coords, ws.base.bindings, 2)
            own = [part[..., 0] for part in program(base_pts)]
            for shared, alone in zip(warp_jet, own):
                assert shared.flags.c_contiguous and np.array_equal(shared, alone), name

    @pytest.mark.parametrize("entry", WARPED_ENTRIES)
    def test_extras_add_no_program_line(self, monkeypatch, entry):
        # The fiber components and the warp are subtrees of the product's
        # components, and so are their derivatives in jet's diff memo:
        # the program gains return values only.  (A family's source
        # program goes on with its image's outputs, after its own.)
        compile_exprs, built = ex.compile_exprs, []

        def recording(exprs, coords, consts):
            program = compile_exprs(exprs, coords, consts)
            built.append(program.source.splitlines())
            return program

        monkeypatch.setattr(ex, "compile_exprs", recording)
        for name, ws, _ in warped_targets(entry, 1):
            spec, built[:] = ws.product, []
            components = tuple(e for row in spec.components for e in row)
            own = spec.extras[:ws.fiber_dim ** 2 + 1]
            for outputs in (components, components + own):
                names = tuple(sorted(spec.bindings))
                ex._jet_build.__wrapped__(outputs, spec.coords, names, 2)  # bypass the cache
            without, with_extras = built
            assert with_extras[:-1] == without[:-1], name
            assert len(with_extras[-1]) > len(without[-1]), name


class TestConstantCurvatureFiber:
    @pytest.mark.parametrize("dim,kappa", [(2, 2.0), (2, 0.0), (3, 6.0), (4, -3.0)])
    def test_scalar_curvature(self, dim, kappa):
        spec = warped.constant_curvature_fiber(dim, kappa)
        rng = np.random.default_rng(1)
        for _ in range(3):
            pt = tuple(rng.uniform(-0.4, 0.4, size=dim))
            f = geo.frame(spec, pt)
            assert f.scalar == pytest.approx(kappa, abs=1e-8)

    def test_flat_fiber_curvature_vanishes(self):
        spec = warped.constant_curvature_fiber(3, 0.0)
        f = geo.frame(spec, (0.2, -0.1, 0.3))
        assert np.max(np.abs(f.riemann)) < 1e-14

    def test_sectional_model_matches_unit_tensor(self):
        kappa, dim = 6.0, 3
        spec = warped.constant_curvature_fiber(dim, kappa)
        f = geo.frame(spec, (0.1, 0.2, -0.15))
        k = kappa / (dim * (dim - 1))
        assert max_abs_residual(f.riemann, k * unit_curvature(f.g)) < 1e-8


class TestDiagnostics:
    def test_family_trace_is_d_times_warp(self):
        # tr(T) = D F on the constrained family.
        ws = family(D=4.0, C=0.0)
        for pt in sample_points(ws, RNG, 4):
            d = diagnostics_at(ws, pt)
            assert d.tr_t == pytest.approx(4.0 * d.f_value, rel=1e-10)

    def test_family_delta1_closed_form(self):
        # Δ₁F = b B^2 (B^2 (D b - 4C) + 4 B'^2) with b = x, B = 2t+1.
        ws = family(D=4.0, C=0.0)
        for pt in sample_points(ws, RNG, 4):
            x, t = pt[0], pt[1]
            B, Bp = 2 * t + 1, 2.0
            want = x * B**2 * (B**2 * 4 * x + 4 * Bp**2)
            assert diagnostics_at(ws, pt).delta1 == pytest.approx(want, rel=1e-10)

    def test_pinned_point_values(self):
        # x=1, t=0: F = 1, tr T = 4, mu1 = -(n-1) D / 4 = -3.
        ws = family(D=4.0, C=0.0)
        pt = (1.0, 0.0, 0.1, -0.2)
        d = diagnostics_at(ws, pt)
        assert d.f_value == pytest.approx(1.0, rel=1e-12)
        assert d.tr_t == pytest.approx(4.0, rel=1e-10)
        assert d.mu1 == pytest.approx(-3.0, rel=1e-10)
        pframe = geo.frame(ws.product, pt)
        assert pframe.ricci[0, 0] / pframe.g[0, 0] == pytest.approx(-3.0, rel=1e-9)

    def test_t_proportionality_on_family(self):
        ws = family(D=3.0, C=1.0, profile="exp(t) + 0.5*exp(-t)")
        for pt in sample_points(ws, RNG, 3):
            assert warped.t_proportionality_residual(diagnostics_at(ws, pt)) < 1e-9

    def test_block_factors_match_direct_curvature(self):
        ws = family(D=4.0, C=0.0, n=5, fiber_scalar=3.0)
        for pt in [p + (0.1,) for p in [(1.0, 0.2, 0.1, -0.1), (1.5, 0.4, -0.2, 0.2)]]:
            for name, res in warped.verify_proportional_blocks(diagnostics_at(ws, pt)).items():
                assert res < 1e-8, name

    def test_roter_coefficients_from_blocks(self):
        ws = family()
        pt = sample_points(ws, RNG, 1)[0]
        d = diagnostics_at(ws, pt)
        phi, mu, eta, L_R = roter_from_diagnostics(d, ws.dim)
        fit = roter.fit_roter(stack([geo.frame(ws.product, pt)]))[0]
        assert phi == pytest.approx(fit.phi, rel=1e-9)
        assert mu == pytest.approx(fit.mu, rel=1e-9)
        assert eta == pytest.approx(fit.eta, rel=1e-9)
        assert L_R == pytest.approx(fit.L_R, rel=1e-9)


class TestCurvatureBlocks:
    @pytest.mark.parametrize("n,fiber_scalar", [(4, 2.0), (5, 6.0), (6, -4.0)])
    def test_block_forms_on_family(self, n, fiber_scalar):
        ws = family(D=4.0, C=0.0, n=n, fiber_scalar=fiber_scalar)
        rng = np.random.default_rng(n)
        for pt in sample_points(ws, rng, 2):
            report = warped.verify_curvature_blocks(diagnostics_at(ws, pt))
            for name, res in report.items():
                assert res < 1e-8, (name, res)

    def test_block_forms_on_generic_warp(self):
        # Not the constrained family: generic F over a generic base.
        base = geo.diagonal_metric(("u", "v"), ["1 + u^2", "2 + sin(u)"])
        fiber = warped.constant_curvature_fiber(3, 6.0)
        ws = warped.assemble(base, fiber, "exp(u) + v^2 + 1")
        pt = (0.3, 0.5, 0.1, -0.2, 0.15)
        for name, res in warped.verify_curvature_blocks(diagnostics_at(ws, pt)).items():
            assert res < 1e-8, (name, res)

    def test_one_dimensional_base(self):
        base = geo.diagonal_metric(("x",), [["1"]][0])
        fiber = warped.constant_curvature_fiber(3, 6.0)
        ws = warped.assemble(base, fiber, "x^2 + 1")
        d = diagnostics_at(ws, (0.4, 0.1, 0.2, -0.1))
        for name, res in warped.verify_curvature_blocks(d).items():
            assert res < 1e-8, (name, res)
        assert d.rho0 is None


class TestConformalFlatness:
    def test_family_rho0_closed_form(self):
        # rho0 = (1/F)(kappa_fiber/((n-3)(n-2)) - B'^2 + C B^2).
        ws = family(D=4.0, C=0.0, n=4, fiber_scalar=2.0)
        for pt in sample_points(ws, RNG, 3):
            d = diagnostics_at(ws, pt)
            want = (2.0 / 2.0 - 4.0) / d.f_value  # B' = 2, C = 0
            rho0, flat = warped.conformal_flatness_test(d)
            assert rho0 == pytest.approx(want, rel=1e-9)
            assert not flat

    def test_weyl_blocks_match(self):
        for n, ks in [(4, 2.0), (5, 6.0)]:
            ws = family(D=4.0, C=0.0, n=n, fiber_scalar=ks)
            rng = np.random.default_rng(n + 10)
            for pt in sample_points(ws, rng, 2):
                for name, res in warped.verify_weyl_blocks(diagnostics_at(ws, pt)).items():
                    assert res < 1e-8, (name, res)

    def test_dimension_four_generic_fiber(self):
        # At n = 4 the conformal block forms hold for any 2-D fiber, not
        # just constant-curvature models; the fiber scalar enters pointwise.
        base = geo.diagonal_metric(("u", "v"), ["1 + u^2", "2 + sin(u)"])
        fiber = geo.diagonal_metric(("w", "z"), ["1", "2 + cos(w)"])
        ws = warped.assemble(base, fiber, "exp(u) + v^2 + 1")
        d = diagnostics_at(ws, (0.3, 0.5, 0.4, -0.2))
        for name, res in warped.verify_curvature_blocks(d).items():
            assert res < 1e-10, (name, res)
        for name, res in warped.verify_weyl_blocks(d).items():
            assert res < 1e-10, (name, res)

    def test_flat_base_flat_fiber_unit_warp(self):
        base = flat_metric(2, "x")
        fiber = warped.constant_curvature_fiber(2, 0.0)
        ws = warped.assemble(base, fiber, "1 + 0*x1")
        d = diagnostics_at(ws, (0.1, 0.2, 0.0, 0.1))
        rho0, flat = warped.conformal_flatness_test(d)
        assert rho0 == pytest.approx(0.0, abs=1e-14)
        assert flat

    def test_matched_fiber_scalar_gives_einstein(self):
        # With fiber scalar curvature (n-3)(n-2)(B'^2 - C B^2) the product
        # is conformally flat and Einstein and never quasi-Einstein otherwise.
        n = 4
        matched = (n - 3) * (n - 2) * 4.0  # B = 2t+1, C = 0
        ws = warped.assemble(
            hyperbolic_base(), warped.constant_curvature_fiber(2, matched), "x*(2*t+1)^2"
        )
        pt = (1.2, 0.3, 0.1, -0.1)
        rho0, flat = warped.conformal_flatness_test(diagnostics_at(ws, pt))
        assert flat
        f = geo.frame(ws.product, pt)
        assert roter.classify(stack([f]))[0].kind == roter.EINSTEIN
        assert np.max(np.abs(f.weyl)) < 1e-9 * (np.max(np.abs(f.riemann)) + 1)

    def test_unmatched_fiber_scalar_is_roter_not_quasi_einstein(self):
        ws = family(D=4.0, C=0.0, n=4, fiber_scalar=2.0)
        pt = (1.2, 0.3, 0.1, -0.1)
        f = geo.frame(ws.product, pt)
        c = roter.classify(stack([f]))[0]
        assert c.kind == roter.ROTER
        d = diagnostics_at(ws, pt)
        # no shift of the metric ever reduces the Ricci tensor to rank <= 1
        for alpha in list(np.linspace(-10, 10, 9)) + [d.mu1, d.mu2]:
            assert rank_shift(f.ricci, f.g, alpha) >= 2
