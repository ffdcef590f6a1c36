"""Tensor-operator tests: products, derivations, factors, rank."""

import numpy as np
import pytest

from curvcheck import geometry as geo
from curvcheck.curvops import (
    derivation_apply,
    kulkarni_nomizu,
    max_abs_residual,
    proportionality,
    rank_shift,
    riemann_symmetry_residuals,
    tachibana,
    tensor_residual,
    unit_curvature,
)


def random_metric(rng, n):
    """Random symmetric matrix pushed away from degeneracy."""
    A = rng.normal(size=(n, n))
    return A @ A.T + n * np.eye(n)


def random_sym(rng, n):
    A = rng.normal(size=(n, n))
    return 0.5 * (A + A.T)


RNG = np.random.default_rng(42)


# Reference formulas, one explicit index expression per slot and order,
# independent of the slot-generic kernel behind derivation_apply and
# tachibana.

def reference_derivation(B4, T, ginv):
    E = np.einsum("xyid,sd->xyis", B4, ginv)
    if T.ndim == 2:
        return -np.einsum("xyis,sj->ijxy", E, T) - np.einsum("xyjs,is->ijxy", E, T)
    return (
        -np.einsum("xyas,sbcd->abcdxy", E, T)
        - np.einsum("xybs,ascd->abcdxy", E, T)
        - np.einsum("xycs,absd->abcdxy", E, T)
        - np.einsum("xyds,abcs->abcdxy", E, T)
    )


def reference_tachibana(A, T):
    if T.ndim == 2:
        return (
            -np.einsum("yi,xj->ijxy", A, T)
            + np.einsum("xi,yj->ijxy", A, T)
            - np.einsum("yj,ix->ijxy", A, T)
            + np.einsum("xj,iy->ijxy", A, T)
        )
    return (
        -np.einsum("ya,xbcd->abcdxy", A, T)
        + np.einsum("xa,ybcd->abcdxy", A, T)
        - np.einsum("yb,axcd->abcdxy", A, T)
        + np.einsum("xb,aycd->abcdxy", A, T)
        - np.einsum("yc,abxd->abcdxy", A, T)
        + np.einsum("xc,abyd->abcdxy", A, T)
        - np.einsum("yd,abcx->abcdxy", A, T)
        + np.einsum("xd,abcy->abcdxy", A, T)
    )


def assert_close_to_reference(got, want, scale):
    # Relative Frobenius error <= 1e-13.  At n = 2 every derivation of a
    # (0,4) curvature tensor vanishes (its 2-forms span a line), so where
    # the reference is zero to round-off both sides must vanish against
    # the scale of the inputs instead.
    err, size = np.linalg.norm(got - want), np.linalg.norm(want)
    if size <= 1e-13 * scale:
        assert np.linalg.norm(got) <= 1e-13 * scale
    else:
        assert err <= 1e-13 * size


class TestKulkarniNomizu:
    def test_metric_wedge_metric_is_twice_unit(self):
        for _ in range(50):
            g = random_metric(RNG, 4)
            assert max_abs_residual(kulkarni_nomizu(g, g), 2 * unit_curvature(g)) < 1e-12

    def test_commutative(self):
        A, B = random_sym(RNG, 5), random_sym(RNG, 5)
        assert max_abs_residual(kulkarni_nomizu(A, B), kulkarni_nomizu(B, A)) < 1e-12

    def test_riemann_symmetries(self):
        A, B = random_sym(RNG, 4), random_sym(RNG, 4)
        for name, res in riemann_symmetry_residuals(kulkarni_nomizu(A, B)).items():
            assert res < 1e-12, name

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kulkarni_nomizu(np.eye(3), np.eye(4))


class TestDerivationAndTachibana:
    def test_unit_derivation_reproduces_tachibana(self):
        # The endomorphism attached to G is the metric wedge, so
        # derivation by G must equal Q(g, .) on any tensor.
        for _ in range(25):
            g = random_metric(RNG, 4)
            G = unit_curvature(g)
            ginv = np.linalg.inv(g)
            T2 = random_sym(RNG, 4)
            T4 = kulkarni_nomizu(random_sym(RNG, 4), random_sym(RNG, 4))
            assert tensor_residual(derivation_apply(G, T2, ginv), tachibana(g, T2)) < 1e-10
            assert tensor_residual(derivation_apply(G, T4, ginv), tachibana(g, T4)) < 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_kernel_matches_reference_formulas(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            g = random_metric(rng, n)
            ginv = np.linalg.inv(g)
            A = random_sym(rng, n)
            B4 = kulkarni_nomizu(random_sym(rng, n), random_sym(rng, n))
            T2 = random_sym(rng, n)
            T4 = kulkarni_nomizu(random_sym(rng, n), random_sym(rng, n))
            for T in (T2, T4):
                assert_close_to_reference(
                    derivation_apply(B4, T, ginv), reference_derivation(B4, T, ginv),
                    np.linalg.norm(B4) * np.linalg.norm(ginv) * np.linalg.norm(T),
                )
                assert_close_to_reference(
                    tachibana(A, T), reference_tachibana(A, T),
                    np.linalg.norm(A) * np.linalg.norm(T),
                )

    def test_tachibana_kills_unit_curvature(self):
        for _ in range(50):
            g = random_metric(RNG, 4)
            q = tachibana(g, unit_curvature(g))
            assert np.max(np.abs(q)) < 1e-12 * (np.max(np.abs(g)) ** 3 + 1)

    def test_constant_curvature_is_semisymmetric(self):
        # R proportional to G: R.R and Q(g,R) both vanish.
        spec = geo.diagonal_metric(
            ("x1", "x2", "x3", "x4"),
            ["1/(1 + (x1^2+x2^2+x3^2+x4^2)/4)^2"] * 4,
        )
        f = geo.frame(spec, (0.2, -0.1, 0.3, 0.05))
        RR = derivation_apply(f.riemann, f.riemann, f.ginv)
        scale = np.max(np.abs(f.riemann)) + 1.0
        assert np.max(np.abs(RR)) < 1e-10 * scale
        assert np.max(np.abs(tachibana(f.g, f.riemann))) < 1e-10 * scale

    def test_derivation_image_antisymmetric_in_last_pair(self):
        spec = geo.diagonal_metric(
            ("t", "r", "th", "ph"),
            ["-(1 - 2/r)", "1/(1 - 2/r)", "r^2", "r^2*sin(th)^2"],
        )
        f = geo.frame(spec, (0.0, 3.0, 1.1, 0.2))
        RR = derivation_apply(f.riemann, f.riemann, f.ginv)
        assert max_abs_residual(RR, -np.swapaxes(RR, -1, -2)) <= 1e-9
        RS = derivation_apply(f.riemann, f.ricci, f.ginv)
        assert max_abs_residual(RS, -np.swapaxes(RS, -1, -2)) <= 1e-9


class TestProportionality:
    def test_exact_factor_recovered(self):
        g = random_metric(RNG, 4)
        rhs = kulkarni_nomizu(g, random_sym(RNG, 4))
        res = proportionality(-2.75 * rhs, rhs)
        assert res.verdict == "fit"
        assert res.factor == pytest.approx(-2.75, rel=1e-13)
        assert res.residual < 1e-14

    def test_zero_lhs(self):
        rhs = unit_curvature(random_metric(RNG, 4))
        res = proportionality(np.zeros_like(rhs), rhs)
        assert res.factor == pytest.approx(0.0, abs=1e-15)
        assert res.residual == 0.0

    def test_vacuous_when_both_vanish(self):
        z = np.zeros((4, 4, 4, 4))
        res = proportionality(z, z)
        assert res.degenerate and res.verdict == "vacuous"
        assert res.factor is None and res.residual == 0.0

    def test_inconsistent_when_only_rhs_vanishes(self):
        lhs = unit_curvature(np.eye(4))
        res = proportionality(lhs, np.zeros_like(lhs))
        assert res.degenerate and res.verdict == "inconsistent"
        assert res.factor is None and res.residual > 0.1

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            proportionality(np.zeros((3, 3)), np.zeros((4, 4)))


class TestRankShift:
    def test_einstein_shift_has_rank_zero(self):
        g = random_metric(RNG, 4)
        S = 1.7 * g
        assert rank_shift(S, g, 1.7) == 0

    def test_constructed_rank_one(self):
        g = np.eye(4)
        S = np.diag([2.0, 1.0, 1.0, 1.0])
        assert rank_shift(S, g, 1.0) == 1

    def test_generic_full_rank(self):
        g = np.eye(4)
        S = np.diag([3.0, 2.0, 1.0, 0.5])
        assert rank_shift(S, g, 0.0) == 4
        assert rank_shift(S, g, 1.0) == 3


def test_valid_riemann_passes():
    g = random_metric(RNG, 4)
    for name, res in riemann_symmetry_residuals(kulkarni_nomizu(g, g)).items():
        assert res <= 1e-10, name
