"""Curvature-engine tests against closed forms and classical surfaces."""

import math
from dataclasses import fields

import numpy as np
import pytest

from curvcheck import cli
from curvcheck import expr as ex
from curvcheck import geometry as geo
from curvcheck import warped as wp
from curvcheck.corpus import corpus_get, corpus_list
from curvcheck.curvops import lane_max_abs_residuals, unit_curvature

import helpers
from helpers import (
    constant_curvature_2d,
    flat_metric,
    lane_riemann_symmetry_residuals,
    lane_trace_residuals,
    max_abs_residual,
    riemann_symmetry_residuals,
    second_kind_curvature,
    stack,
    third_partials,
    trace_residual,
    zero_residual,
)


def surface(a, b):
    """diag(a(x), b(x)) on coordinates (x, y)."""
    return geo.diagonal_metric(("x", "y"), [a, b])


UNIT_SPHERE = surface("1", "sin(x)^2")


def rn_metric(M, Q, Lam):
    """Static spherically symmetric charged metric with cosmological term."""
    h = "1 - 2*M/r + Q^2/r^2 - Lam*r^2/3"
    return geo.diagonal_metric(
        ("t", "r", "th", "ph"),
        [f"-({h})", f"1/({h})", "r^2", "r^2*sin(th)^2"],
        bindings={"M": M, "Q": Q, "Lam": Lam},
        conditions=[(h, "nonzero"), ("sin(th)", "nonzero"), ("r", "positive")],
    )


RN_POINT = (0.0, 3.0, 1.2, 0.3)


class TestChristoffel:
    def test_flat_plane_all_zero(self):
        spec = flat_metric(2)
        assert np.max(np.abs(geo.frame(spec, (0.3, -1.2)).gamma)) == 0.0

    def test_surface_closed_forms(self):
        # For diag(a(x), b(x)): G^1_11 = a'/2a, G^2_12 = b'/2b, G^1_22 = -b'/2a.
        spec = surface("1 + x^2", "exp(x)")
        x = 0.7
        gam = geo.frame(spec, (x, 0.0)).gamma
        a, ap = 1 + x * x, 2 * x
        b, bp = math.exp(x), math.exp(x)
        assert gam[0, 0, 0] == pytest.approx(ap / (2 * a), rel=1e-12)
        assert gam[1, 0, 1] == pytest.approx(bp / (2 * b), rel=1e-12)
        assert gam[0, 1, 1] == pytest.approx(-bp / (2 * a), rel=1e-12)
        expected = np.zeros((2, 2, 2))
        expected[0, 0, 0] = ap / (2 * a)
        expected[1, 0, 1] = expected[1, 1, 0] = bp / (2 * b)
        expected[0, 1, 1] = -bp / (2 * a)
        assert max_abs_residual(gam, expected) < 1e-12

    def test_parabolic_profile_values(self):
        # a = 1, b = x^2 at x = 2: G^2_12 = 1/2, G^1_22 = -2.
        gam = geo.frame(surface("1", "x^2"), (2.0, 0.0)).gamma
        assert gam[1, 0, 1] == pytest.approx(0.5, rel=1e-13)
        assert gam[0, 1, 1] == pytest.approx(-2.0, rel=1e-13)

    def test_lower_index_symmetry(self):
        f = geo.frame(rn_metric(1.0, 1.0, 0.0), RN_POINT)
        assert max_abs_residual(f.gamma, np.swapaxes(f.gamma, 1, 2)) < 1e-12

    def test_singular_metric_raises(self):
        # Sampling's invertible test, not frame, turns the point away.
        spec = geo.diagonal_metric(("x", "y"), ["x", "1"])
        assert not geo.invertible(geo.metric_jets(spec, [(0.0, 0.0)]))[0]


class TestRiemann:
    def test_flat_is_zero(self):
        f = geo.frame(flat_metric(3), (0.1, 0.2, 0.3))
        assert np.max(np.abs(f.riemann)) == 0.0

    def test_surface_component_closed_form(self):
        # R_1221 = (1/2)(-b'' + a'b'/2a + (b')^2/2b)
        spec = surface("1 + x^2", "2 + sin(x)")
        x = 0.4
        f = geo.frame(spec, (x, 0.0))
        a, ap = 1 + x * x, 2 * x
        b, bp, bpp = 2 + math.sin(x), math.cos(x), -math.sin(x)
        expected = 0.5 * (-bpp + ap * bp / (2 * a) + bp * bp / (2 * b))
        assert f.riemann[0, 1, 1, 0] == pytest.approx(expected, rel=1e-12)

    def test_unit_sphere_component(self):
        # R_1221 = a*b*K with K = 1, so sin^2(pi/3) = 3/4.
        f = geo.frame(UNIT_SPHERE, (math.pi / 3, 0.2))
        assert f.riemann[0, 1, 1, 0] == pytest.approx(0.75, rel=1e-12)

    def test_symmetry_suite_on_charged_metric(self):
        f = geo.frame(rn_metric(1.0, 1.0, 0.0), RN_POINT)
        for name, res in riemann_symmetry_residuals(f.riemann).items():
            assert res < 1e-9, name

    def test_metric_inverse_identity(self):
        f = geo.frame(rn_metric(1.0, 0.5, 0.1), (0.0, 3.2, 1.0, 0.1))
        assert max_abs_residual(f.g @ f.ginv, np.eye(4)) < 1e-10


def targets_at_first_point(entry):
    """(name, spec, point) for every target of a corpus entry, at the
    first point run_manifest checks for its manifold."""
    manifest = corpus_get(entry)
    for m_index, mdef in enumerate(manifest["manifolds"]):
        job = cli.build_job(mdef)
        rng = np.random.default_rng([manifest.get("seed", 0), m_index])
        point = cli.sample_points(job, 1, rng)[0]
        for target in job.targets:
            yield f"{mdef['name']}/{target.label}", target.spec, point


@pytest.fixture(scope="module")
def corpus_chunks():
    """(name, spec, points) for every corpus target, at its pinned points
    and 18 sampled ones, drawn as run_manifest draws them."""
    out = []
    for entry in corpus_list():
        manifest = corpus_get(entry)
        for m_index, mdef in enumerate(manifest["manifolds"]):
            job = cli.build_job(mdef)
            rng = np.random.default_rng([manifest.get("seed", 0), m_index])
            points = cli.sample_points(job, 18, rng)
            out += [(f"{mdef['name']}/{t.label}", t.spec, points) for t in job.targets]
    return out


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestStackedFrames:
    def test_each_lane_is_the_frame_of_its_point(self, corpus_chunks):
        # frames stacks the curvature kernel over a chunk's points; each
        # lane is frame(spec, point), field for field, bit for bit.
        for name, spec, points in corpus_chunks:
            lanes = helpers.lanes(geo.frames(spec, points))
            assert len(lanes) == len(points), name
            for point, lane in zip(points, lanes):
                alone = geo.frame(spec, point)
                assert lane.spec is alone.spec and lane.point == alone.point == point, name
                assert type(lane.scalar) is type(alone.scalar) is float, name
                for field in fields(geo.PointFrame)[2:]:
                    have, want = getattr(lane, field.name), getattr(alone, field.name)
                    assert same_bits(have, want), (name, point, field.name)

    def test_lane_forms_match_one_point_forms(self, corpus_chunks):
        # The geometry suite's residuals run once per chunk through the
        # lane forms; each lane is the one-point form on its frame alone.
        for name, spec, points in corpus_chunks:
            F = geo.frames(spec, points)
            n = F.dim
            eye = np.broadcast_to(np.eye(n), F.g.shape)
            lanes = {
                "metric_inverse": lane_max_abs_residuals(F.g @ F.ginv, eye),
                "gamma": lane_max_abs_residuals(F.gamma, np.swapaxes(F.gamma, 2, 3)),
                "ricci": lane_max_abs_residuals(F.ricci, np.swapaxes(F.ricci, 1, 2)),
                "weyl": lane_trace_residuals(F.weyl, F.ginv),
                **lane_riemann_symmetry_residuals(F.riemann),
            }
            nabla = geo.covariant_derivative_02(F, F.g, F.dg)
            for i, f in enumerate(helpers.lanes(F)):
                alone = {
                    "metric_inverse": max_abs_residual(f.g @ f.ginv, np.eye(n)),
                    "gamma": max_abs_residual(f.gamma, np.swapaxes(f.gamma, 1, 2)),
                    "ricci": max_abs_residual(f.ricci, f.ricci.T),
                    "weyl": trace_residual(f.weyl, f.ginv),
                    **riemann_symmetry_residuals(f.riemann),
                }
                assert {key: lanes[key][i] for key in alone} == alone, (name, i)
                assert same_bits(nabla[i], geo.covariant_derivative_02(f, f.g, f.dg)), (name, i)

    @pytest.mark.parametrize("entry", ["theorem41_n4", "rn_lambda0", "surface_pair"])
    def test_geometry_piece_matches_the_lane_oracles(self, entry):
        # The geometry piece builds its curvature symmetry and Weyl trace
        # checks from lane_zero_residuals; each equals the oracle, bit for bit.
        job = cli.build_job(corpus_get(entry)["manifolds"][0])
        points = cli.sample_points(job, 3, np.random.default_rng(7))
        first = cli.Chunk(job, {"geometry-symmetries"}, job.targets[0], 0, points)
        for target in job.targets:
            chunk = first if target is job.targets[0] else cli.Chunk(
                job, {"geometry-symmetries"}, target, 0, points, first)
            F = chunk.stacked
            want = {f"riemann_{key}": res for key, res in lane_riemann_symmetry_residuals(F.riemann).items()}
            if F.dim >= 4:
                want["weyl_trace_free"] = lane_trace_residuals(F.weyl, F.ginv)
            for i, row in enumerate(chunk.geometry):
                have = {check: res for check, res, *_ in row if check in want}
                assert have == {key: res[i] for key, res in want.items()}, (entry, target.label, i)

    def test_frames_name_the_failing_point(self):
        # frames tests neither conditions nor invertibility (sampling
        # does); it names the first point of the wrong length, or where
        # curvature is not finite (Gamma ~ 1/x squares past the range).
        spec = surface("1", "x^2")
        with pytest.raises(geo.GeometryError, match=r"point has 1 coordinates"):
            geo.frames(spec, [(2.0, 0.5), (1.0,)])
        with pytest.raises(geo.GeometryError, match=r"not finite at \(1e-160, 0\.5\)"):
            geo.frames(spec, [(2.0, 0.5), (1e-160, 0.5)])


class TestFirstKindKernel:
    @pytest.mark.parametrize("entry", corpus_list())
    def test_matches_second_kind_oracle_on_corpus(self, entry):
        # frame's Gamma is the oracle's bit for bit (the first-kind
        # symbols are the oracle's B halved, an exact scaling), and its R
        # agrees to 1e-13 relative Frobenius.  Corpus charts have n = 2, 4, 5, 6.
        for name, spec, point in targets_at_first_point(entry):
            f = geo.frame(spec, point)
            jet = geo.jet_block(geo.metric_jets(spec, [point]))
            gamma, riemann = second_kind_curvature(*(part[0] for part in jet))
            assert (f.gamma == gamma).all(), name
            assert np.linalg.norm(f.riemann - riemann) <= 1e-13 * np.linalg.norm(riemann), name

    def test_riemann_is_exactly_skew_in_the_last_pair(self):
        f = geo.frame(rn_metric(1.0, 1.0, 0.0), RN_POINT)
        assert (f.riemann == -np.swapaxes(f.riemann, 2, 3)).all()


@pytest.mark.parametrize("entry", corpus_list())
def test_the_kernels_build_three_checks_exactly(entry):
    # gamma_lower_symmetry, riemann_skew_last_pair and trace_t compare what
    # a kernel builds equal by construction: Gamma from a first-kind symbol
    # symmetric in its lower pair, R as A - swapaxes(A, 3, 4), and tr T by
    # diagnostics' own contraction.  On the stacked frames of every corpus
    # target, at the first 6 points run_manifest draws, each holds exactly.
    manifest = corpus_get(entry)
    for m_index, mdef in enumerate(manifest["manifolds"]):
        job = cli.build_job(mdef)
        rng = np.random.default_rng([manifest.get("seed", 0), m_index])
        points = cli.sample_points(job, 6, rng)
        for target in job.targets:
            f, where = geo.frames(target.spec, points), f"{mdef['name']}/{target.label}"
            assert np.array_equal(f.gamma, np.swapaxes(f.gamma, 2, 3)), where
            assert np.array_equal(f.riemann, -np.swapaxes(f.riemann, 3, 4)), where
            ws = target.warped_spec
            if ws is not None:
                d = wp.diagnostics(ws, f, geo.frames(ws.fiber, [ws.split(p)[1] for p in points]),
                                   ws.blocks(geo.metric_jets(ws.product, points)))
                assert np.array_equal(d.tr_t, np.einsum("pab,pab->p", d.base_frame.ginv, d.t)), where


class TestRicciScalarWeyl:
    def test_flat_4d(self):
        f = geo.frame(flat_metric(4), (0.0, 1.0, 2.0, 3.0))
        assert np.max(np.abs(f.ricci)) == 0.0
        assert f.scalar == 0.0
        assert np.max(np.abs(f.weyl)) == 0.0

    def test_unit_sphere_scalar(self):
        # kappa = 2 K; contraction oracle below confirms the engine's S.
        f = geo.frame(UNIT_SPHERE, (1.1, 0.0))
        assert f.scalar == pytest.approx(2.0, rel=1e-12)
        s_oracle = np.einsum("ad,aijd->ij", f.ginv, f.riemann)
        assert max_abs_residual(f.ricci, s_oracle) == 0.0

    def test_charged_metric_scalar_vanishes_without_lambda(self):
        f = geo.frame(rn_metric(1.0, 1.0, 0.0), RN_POINT)
        assert abs(f.scalar) < 1e-12
        assert np.max(np.abs(f.ricci)) > 1e-3

    def test_ricci_symmetric(self):
        f = geo.frame(rn_metric(2.0, 1.0, -0.05), (0.0, 5.0, 1.3, 0.2))
        assert max_abs_residual(f.ricci, f.ricci.T) < 1e-10

    def test_weyl_trace_free(self):
        f = geo.frame(rn_metric(1.0, 1.0, 0.0), RN_POINT)
        assert trace_residual(f.weyl, f.ginv) < 1e-9

    def test_weyl_scales_linearly_with_metric(self):
        c = 3.7
        base = rn_metric(1.0, 1.0, 0.0)
        scaled = geo.metric_spec(
            base.coords,
            [[ex.mul(ex.num(c), base.components[i][j]) for j in range(4)] for i in range(4)],
            base.bindings,
            base.conditions,
        )
        f1 = geo.frame(base, RN_POINT)
        f2 = geo.frame(scaled, RN_POINT)
        assert max_abs_residual(f2.weyl, c * f1.weyl) < 1e-10

    def test_low_dimension_weyl_flagged_zero(self):
        # Below n = 4 the Weyl field is the zero array by convention,
        # even where R is not zero.
        f = geo.frame(flat_metric(3), (0.0, 0.0, 0.0))
        assert f.weyl.shape == (3, 3, 3, 3)
        assert np.max(np.abs(f.weyl)) == 0.0
        sphere = geo.frame(geo.diagonal_metric(("x", "y", "z"), ["1/(1 + (x^2+y^2+z^2)/4)^2"] * 3),
                           (0.2, -0.1, 0.3))
        assert np.max(np.abs(sphere.riemann)) > 0.1
        assert np.max(np.abs(sphere.weyl)) == 0.0

    def test_ricci_sq_definition(self):
        f = geo.frame(rn_metric(1.0, 1.0, 0.0), RN_POINT)
        assert max_abs_residual(f.ricci_sq, f.ricci @ f.ginv @ f.ricci) == 0.0


class TestGaussCurvature:
    def test_constant_curvature_factory(self):
        for K, E, b in [(1.0, 4.0, "sin(x)^2"), (-0.25, 2.0, "x"), (0.5, 3.0, "x^2")]:
            spec = constant_curvature_2d(b, K, E)
            for x in (0.4, 0.8, 1.2):
                assert geo.gauss_curvature(geo.frame(spec, (x, 0.0))) == pytest.approx(K, abs=1e-11)

    def test_unit_sphere_via_factory_has_unit_first_component(self):
        # E=4, K=1, b=sin^2 x collapses a to 4cos^2/(4cos^2) = 1.
        spec = constant_curvature_2d("sin(x)^2", 1.0, 4.0)
        for x in (0.3, 0.9, 1.4):
            f = geo.frame(spec, (x, 0.0))
            assert f.g[0, 0] == pytest.approx(1.0, rel=1e-12)

    def test_quarter_scale_law(self):
        # b = x^2 with a = (b')^2/(b(D*b - 4C)), D=4, C=0 gives a = 1/x^2
        # and Gauss curvature -D/4 = -1.
        spec = constant_curvature_2d("x^2", -1.0, 0.0)
        f = geo.frame(spec, (2.0, 0.0))
        assert f.g[0, 0] == pytest.approx(0.25, rel=1e-12)
        assert geo.gauss_curvature(f) == pytest.approx(-1.0, abs=1e-12)

    def test_gauss_equals_half_scalar(self):
        spec = constant_curvature_2d("x", -0.75, 1.5)
        pt = (0.7, 0.1)
        f = geo.frame(spec, pt)
        assert geo.gauss_curvature(f) == pytest.approx(f.scalar / 2, abs=1e-10)

    def test_requires_two_dimensions(self):
        with pytest.raises(geo.GeometryError):
            geo.gauss_curvature(geo.frame(flat_metric(3), (0, 0, 0)))


class TestCovariantDerivative:
    def test_metric_compatibility(self):
        f = geo.frame(rn_metric(1.0, 1.0, 0.0), RN_POINT)
        nabla_g = geo.covariant_derivative_02(f, f.g, f.dg)
        assert np.max(np.abs(nabla_g)) < 1e-10

    def test_constant_field_on_flat_chart(self):
        f = geo.frame(flat_metric(3), (1.0, 2.0, 3.0))
        T = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 3.0]])
        assert np.max(np.abs(geo.covariant_derivative_02(f, T, np.zeros((3, 3, 3))))) == 0.0

    def test_sphere_metric_compatibility(self):
        f = geo.frame(UNIT_SPHERE, (0.9, 0.4))
        nabla_g = geo.covariant_derivative_02(f, f.g, f.dg)
        assert np.max(np.abs(nabla_g)) < 1e-12


class TestAdmissibility:
    def test_positive_condition(self):
        spec = rn_metric(1.0, 1.0, 0.0)
        assert geo.admissible(spec, RN_POINT)
        assert not geo.admissible(spec, (0.0, -3.0, 1.2, 0.3))

    def test_horizon_rejected(self):
        spec = rn_metric(1.0, 1.0, 0.0)  # h(r) = (1 - 1/r)^2 vanishes at r=1
        assert not geo.admissible(spec, (0.0, 1.0, 1.2, 0.3))

    def test_inadmissible_frame_raises_with_condition(self):
        # Sampling's admissible test, not frame, turns the point away.
        spec = rn_metric(1.0, 1.0, 0.0)
        assert not geo.admissible(spec, (0.0, 3.0, 0.0, 0.3))  # sin(th) = 0

    def test_determinant_guard(self):
        # admissible checks the declared conditions; invertible the metric.
        spec = geo.diagonal_metric(("x", "y"), ["x", "1"])
        assert geo.admissible(spec, (0.0, 0.5))
        assert geo.invertible(geo.metric_jets(spec, [(0.0, 0.5), (2.0, 0.5)])).tolist() == [False, True]


class TestSmokeChecks:
    def test_second_bianchi_on_sphere(self):
        assert geo.second_bianchi_residual(geo.frames(UNIT_SPHERE, [(1.0, 0.3)])) < 1e-4

    def test_second_bianchi_on_charged_metric(self):
        # Exact d R: 1.7e-16 here, where a 1e-5 stencil read 4.8e-12.
        assert geo.second_bianchi_residual(geo.frames(rn_metric(1.0, 1.0, 0.0), [RN_POINT])) < 1e-14

    @pytest.mark.parametrize("name", ["theorem41_n4", "rn_desitter"])
    def test_complex_step_gives_the_third_partials(self, name):
        # Im / h of the components program's complex twin at x + ih e_m is
        # d_m of its d2g: the symbolic third partials, to round-off.
        h = 1e-30
        job = cli.build_job(corpus_get(name)["manifolds"][0])
        for point in cli.sample_points(job, 2, np.random.default_rng(7)):
            for spec in (target.spec for target in job.targets):
                n = spec.dim
                want = third_partials(spec, point)
                steps = (np.array(point) + 1j * h * np.eye(n)).tolist()
                got = spec._component_jet.complex(steps)[2][..., : n * n].imag / h
                got = got.reshape(want.shape)
                assert np.max(np.abs(got - want)) <= 1e-14 * (np.max(np.abs(want)) + 1.0)

    def test_planted_defect_in_dR_fails_the_bianchi_check(self, monkeypatch):
        # The complex rows of lane 1 (rows n..2n-1 of the one kernel call),
        # their Im R scaled by 1 + 1e-6, are a defect of that lane's d R
        # alone; the check must see it above the geo bound there only.
        bound = cli.DEFAULT_TOLERANCES["geo"]
        points = [RN_POINT, (0.0, 3.5, 1.0, 0.2), (0.0, 4.0, 0.8, 0.1)]
        f = geo.frames(rn_metric(1.0, 1.0, 0.0), points)
        assert np.all(geo.second_bianchi_residual(f) < bound)
        curvature, n = geo._curvature, f.dim

        def planted(g, dg, d2g):
            ginv, gamma, R = curvature(g, dg, d2g)
            R[n:2 * n] = R[n:2 * n].real + 1j * (1 + 1e-6) * R[n:2 * n].imag
            return ginv, gamma, R

        monkeypatch.setattr(geo, "_curvature", planted)
        assert (geo.second_bianchi_residual(f) > bound).tolist() == [False, True, False]

    # Every corpus target but the surfaces' is at n = 4, 5 or 6.
    @pytest.mark.parametrize("name", sorted(set(corpus_list()) - {"surface_pair", "unit_sphere"}))
    def test_a_stacked_bianchi_call_equals_its_one_lane_calls(self, name):
        job = cli.build_job(corpus_get(name)["manifolds"][0])
        points = cli.sample_points(job, 4, np.random.default_rng(13))[:4]
        for spec in (target.spec for target in job.targets):
            assert spec.dim in (4, 5, 6)
            f = geo.frames(spec, points)
            stacked = geo.second_bianchi_residual(f)
            lanes = [geo.second_bianchi_residual(f.take([i])) for i in range(4)]
            assert stacked.shape == (4,) and all(lane.shape == (1,) for lane in lanes)
            assert stacked.tobytes() == np.concatenate(lanes).tobytes(), spec.coords

    def test_constant_curvature_scalar_is_twice_gauss(self):
        spec = constant_curvature_2d("x", 0.5, 4.0)
        for x in (0.5, 1.0, 1.5):
            f = geo.frame(spec, (x, 0.0))
            assert abs(f.scalar - 2 * geo.gauss_curvature(f)) < 1e-10


class TestSpecValidation:
    def test_structural_symmetry_enforced(self):
        with pytest.raises(geo.GeometryError):
            geo.metric_spec(("x", "y"), [["1", "x"], ["x + 0", "1"]])

    def test_shared_reference_for_mirror_entries(self):
        spec = geo.metric_spec(("x", "y"), [["1", "x*y"], [None, "1"]])
        assert spec.components[0][1] is spec.components[1][0]

    def test_curvature_unit_matches_metric(self):
        f = geo.frame(UNIT_SPHERE, (0.8, 0.1))
        G = unit_curvature(f.g)
        # For a surface of Gauss curvature 1: R = K * G.
        assert max_abs_residual(f.riemann, G) < 1e-12

    def test_zero_residual_helper(self):
        f = geo.frame(flat_metric(4), (0, 0, 0, 0))
        assert zero_residual(f.riemann, f.riemann) == 0.0
