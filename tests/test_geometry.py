"""Curvature-engine tests against closed forms and classical surfaces."""

import math

import numpy as np
import pytest

from curvcheck import expr as ex
from curvcheck import geometry as geo
from curvcheck.curvops import (
    max_abs_residual,
    riemann_symmetry_residuals,
    trace_residual,
    unit_curvature,
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
        spec = geo.flat_metric(2)
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
        spec = geo.diagonal_metric(("x", "y"), ["x", "1"])
        with pytest.raises(geo.SingularMetricError):
            geo.frame(spec, (0.0, 0.0))


class TestRiemann:
    def test_flat_is_zero(self):
        f = geo.frame(geo.flat_metric(3), (0.1, 0.2, 0.3))
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


class TestRicciScalarWeyl:
    def test_flat_4d(self):
        f = geo.frame(geo.flat_metric(4), (0.0, 1.0, 2.0, 3.0))
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
        f = geo.frame(geo.flat_metric(3), (0.0, 0.0, 0.0))
        assert f.weyl_by_convention
        assert np.max(np.abs(f.weyl)) == 0.0

    def test_ricci_sq_definition(self):
        f = geo.frame(rn_metric(1.0, 1.0, 0.0), RN_POINT)
        assert max_abs_residual(f.ricci_sq, f.ricci @ f.ginv @ f.ricci) == 0.0


class TestGaussCurvature:
    def test_constant_curvature_factory(self):
        for K, E, b in [(1.0, 4.0, "sin(x)^2"), (-0.25, 2.0, "x"), (0.5, 3.0, "x^2")]:
            spec = geo.constant_curvature_2d(b, K, E)
            for x in (0.4, 0.8, 1.2):
                assert geo.gauss_curvature(geo.frame(spec, (x, 0.0))) == pytest.approx(K, abs=1e-11)

    def test_unit_sphere_via_factory_has_unit_first_component(self):
        # E=4, K=1, b=sin^2 x collapses a to 4cos^2/(4cos^2) = 1.
        spec = geo.constant_curvature_2d("sin(x)^2", 1.0, 4.0)
        for x in (0.3, 0.9, 1.4):
            f = geo.frame(spec, (x, 0.0))
            assert f.g[0, 0] == pytest.approx(1.0, rel=1e-12)

    def test_quarter_scale_law(self):
        # b = x^2 with a = (b')^2/(b(D*b - 4C)), D=4, C=0 gives a = 1/x^2
        # and Gauss curvature -D/4 = -1.
        spec = geo.constant_curvature_2d("x^2", -1.0, 0.0)
        f = geo.frame(spec, (2.0, 0.0))
        assert f.g[0, 0] == pytest.approx(0.25, rel=1e-12)
        assert geo.gauss_curvature(f) == pytest.approx(-1.0, abs=1e-12)

    def test_gauss_equals_half_scalar(self):
        spec = geo.constant_curvature_2d("x", -0.75, 1.5)
        pt = (0.7, 0.1)
        f = geo.frame(spec, pt)
        assert geo.gauss_curvature(f) == pytest.approx(f.scalar / 2, abs=1e-10)

    def test_requires_two_dimensions(self):
        with pytest.raises(geo.GeometryError):
            geo.gauss_curvature(geo.frame(geo.flat_metric(3), (0, 0, 0)))


class TestCovariantDerivative:
    def test_metric_compatibility(self):
        f = geo.frame(rn_metric(1.0, 1.0, 0.0), RN_POINT)
        nabla_g = geo.covariant_derivative_02(f, f.g, f.dg)
        assert np.max(np.abs(nabla_g)) < 1e-10

    def test_constant_field_on_flat_chart(self):
        f = geo.frame(geo.flat_metric(3), (1.0, 2.0, 3.0))
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
        spec = rn_metric(1.0, 1.0, 0.0)
        with pytest.raises(geo.InadmissiblePointError):
            geo.frame(spec, (0.0, 3.0, 0.0, 0.3))  # sin(th) = 0

    def test_determinant_guard(self):
        spec = geo.diagonal_metric(("x", "y"), ["x", "1"])
        assert not geo.admissible(spec, (0.0, 0.5))
        assert geo.admissible(spec, (2.0, 0.5))


class TestSmokeChecks:
    def test_second_bianchi_on_sphere(self):
        assert geo.second_bianchi_residual(geo.frame(UNIT_SPHERE, (1.0, 0.3))) < 1e-4

    def test_second_bianchi_on_charged_metric(self):
        assert geo.second_bianchi_residual(geo.frame(rn_metric(1.0, 1.0, 0.0), RN_POINT)) < 1e-4

    def test_constant_curvature_scalar_is_twice_gauss(self):
        spec = geo.constant_curvature_2d("x", 0.5, 4.0)
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
        f = geo.frame(geo.flat_metric(4), (0, 0, 0, 0))
        assert zero_residual(f.riemann, f.riemann) == 0.0
