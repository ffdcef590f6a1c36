"""Tensor-operator tests: products, derivations, factors, rank."""

import numpy as np
import pytest

from curvcheck import geometry as geo
from curvcheck.curvops import (
    derivation_apply,
    kulkarni_nomizu,
    lane_residuals,
    proportionality,
    rank_shift,
    tachibana,
    unit_curvature,
)

from helpers import (
    dense_derive,
    dense_derivation,
    max_abs_residual,
    pack,
    riemann_symmetry_residuals,
    stack,
    tensor_residual,
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
# independent of both the packed kernel behind derivation_apply and
# tachibana and the dense oracle kernel in helpers.

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


def tensordot_derive(E, T):
    # The dense kernel as it was before it moved to one matrix product
    # per slot: tensordot, then moveaxis into place.
    k = T.ndim
    out = np.zeros(T.shape + E.shape[:2])
    for slot in range(k):
        term = np.tensordot(E, T, axes=([3], [slot]))  # [x, y, a_slot, other slots]
        out -= np.moveaxis(term, (0, 1, 2), (k, k + 1, slot))
    return out


def assert_close_to_reference(got, want, scale):
    # got is packed, want the dense reference: relative Frobenius error
    # <= 1e-14 after packing want, and equal norms to 1e-14.  At n = 2
    # every derivation of a (0,4) curvature tensor vanishes (its 2-forms
    # span a line), so where the reference is zero to round-off both
    # sides must vanish against the scale of the inputs instead.
    size = np.linalg.norm(want)
    if size <= 1e-14 * scale:
        assert np.linalg.norm(got) <= 1e-14 * scale
    else:
        assert np.linalg.norm(got - pack(want)) <= 1e-14 * size
        assert abs(np.linalg.norm(got) - size) <= 1e-14 * size


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

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
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

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_kernel_matches_tensordot_bit_for_bit(self, n):
        # The dense oracle kernel, on any B and T (outside the packed
        # kernel's domain too): each element keeps its length-n dot
        # product and its chain of subtractions, so the result is the
        # same to the last bit.
        rng = np.random.default_rng(100 + n)
        for _ in range(3):
            g = random_metric(rng, n)
            ginv = np.linalg.inv(g)
            A = random_sym(rng, n)
            B4 = rng.normal(size=(n,) * 4)
            half = np.einsum("yi,xs->xyis", A, np.eye(n))
            for T in (rng.normal(size=(n, n)), rng.normal(size=(n,) * 4)):
                for E in (np.einsum("xyid,sd->xyis", B4, ginv), half - np.swapaxes(half, 0, 1)):
                    assert dense_derive(E, T).tobytes() == tensordot_derive(E, T).tobytes()

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
        # The dense image drops nothing when packed on its last pair, and
        # the packed kernel gives that packing.
        for T in (f.riemann, f.ricci):
            dense = dense_derivation(f.riemann, T, f.ginv)
            assert max_abs_residual(dense, -np.swapaxes(dense, -1, -2)) <= 1e-9
            packed = derivation_apply(f.riemann, T, f.ginv)
            assert max_abs_residual(packed, pack(dense)) <= 1e-14


def one_lane(lhs, rhs, dim):
    """proportionality of one tensor pair, a chunk of one."""
    return proportionality(np.asarray(lhs)[None], np.asarray(rhs)[None], dim)[0]


class TestProportionality:
    def test_exact_factor_recovered(self):
        g = random_metric(RNG, 4)
        rhs = kulkarni_nomizu(g, random_sym(RNG, 4))
        res = one_lane(-2.75 * rhs, rhs, 4)
        assert res.verdict == "fit"
        assert res.factor == pytest.approx(-2.75, rel=1e-13)
        assert res.residual < 1e-14

    def test_zero_lhs(self):
        rhs = unit_curvature(random_metric(RNG, 4))
        res = one_lane(np.zeros_like(rhs), rhs, 4)
        assert res.factor == pytest.approx(0.0, abs=1e-15)
        assert res.residual == 0.0

    def test_vacuous_when_both_vanish(self):
        z = np.zeros((4, 4, 4, 4))
        res = one_lane(z, z, 4)
        assert res.verdict == "vacuous"
        assert res.factor is None and res.residual == 0.0

    def test_inconsistent_when_only_rhs_vanishes(self):
        lhs = unit_curvature(np.eye(4))
        res = one_lane(lhs, np.zeros_like(lhs), 4)
        assert res.verdict == "inconsistent"
        assert res.factor is None and res.residual > 0.1

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            proportionality(np.zeros((3, 3)), np.zeros((4, 4)), 4)

    def test_degeneracy_bound_reads_the_chart_dimension(self):
        # 1e-12 * dim**2 reads the chart dimension passed in, never the
        # leading axis: a packed order-6 product at n = 4 has m = 6.
        rhs = np.full((6, 6, 6), 2e-11 / np.sqrt(6 ** 3))
        assert one_lane(rhs, rhs, 4).verdict == "fit"
        assert one_lane(rhs, rhs, 6).verdict == "vacuous"

    def test_scalars(self):
        res = one_lane(2.0, 1.0, 1)
        assert res.verdict == "fit"
        assert res.factor == 2.0 and res.residual == 0.0

    def test_each_lane_is_its_own_fit(self):
        # A fit, a vacuous and an inconsistent lane in one chunk: each
        # gets what it gets alone, and no lane divides by a zero rhs.
        rhs = kulkarni_nomizu(random_metric(RNG, 4), random_sym(RNG, 4))
        z = np.zeros_like(rhs)
        lhs, rhs = np.stack([-2.75 * rhs, z, rhs]), np.stack([rhs, z, z])
        lanes = proportionality(lhs, rhs, 4)
        assert [r.verdict for r in lanes] == ["fit", "vacuous", "inconsistent"]
        assert lanes == [one_lane(a, b, 4) for a, b in zip(lhs, rhs)]
        alone = [tensor_residual(a, b) for a, b in zip(lhs, rhs)]
        assert lane_residuals(lhs, rhs).tolist() == alone


def test_tensor_residual_of_scalars():
    assert tensor_residual(3.0, 1.0) == 2.0 / 5.0
    assert tensor_residual(np.float64(1.0), 1.0) == 0.0


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

    def test_array_of_alpha_matches_scalar_calls(self):
        rng = np.random.default_rng(7)
        g = random_metric(rng, 4)
        S = random_sym(rng, 4) + np.outer(g[0], g[0])
        eigs = np.linalg.eigvals(np.linalg.inv(g) @ S).real
        alphas = np.concatenate([np.linspace(-5.0, 5.0, 21), eigs])
        ranks = rank_shift(S, g, alphas)
        assert ranks.shape == alphas.shape
        assert ranks.tolist() == [rank_shift(S, g, a) for a in alphas]
        grid = alphas.reshape(5, 5)
        assert rank_shift(S, g, grid).tolist() == ranks.reshape(5, 5).tolist()

    def test_zero_matrix_and_scalar_type(self):
        g = np.eye(3)
        assert rank_shift(np.zeros((3, 3)), g, 0.0) == 0
        assert rank_shift(2.0 * g, g, np.array([2.0, 2.0])).tolist() == [0, 0]
        assert rank_shift(g, g, 0.5).shape == ()
        assert rank_shift(g, g, []).shape == (0,)


def test_valid_riemann_passes():
    g = random_metric(RNG, 4)
    for name, res in riemann_symmetry_residuals(kulkarni_nomizu(g, g)).items():
        assert res <= 1e-10, name
