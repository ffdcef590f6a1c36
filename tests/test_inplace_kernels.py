"""The Roter path's packed products against the dense oracle.

curvops computes every derivation product on bivectors (see its module
docstring).  These tests pin that layout against the dense kernel in
helpers: each packed product equals the packing of the dense one, each
residual and factor read from packed products equals the one read from
dense products, the two readings that are not norms (proportionality's
degeneracy bound and the SEMISYMMETRIC guard) keep their dense meaning,
reading the products leaves them untouched, and the temporaries stay
small, measured with tracemalloc in units of one dense 6**6 array.
"""

import tracemalloc

import numpy as np
import pytest

from curvcheck import cli, curvops, geomap as gm, geometry as geo, roter
from curvcheck.corpus import corpus_get

from helpers import IDENTITY_NAMES, dense_derivation, dense_tachibana, pack, psi_jets, stack

# One family per chart dimension n = 4, 5, 6.
FAMILIES = {4: "theorem41_n4", 5: "theorem41_c_pos_n5", 6: "theorem41_c_neg_n6"}
UNIT = 6 ** 6 * np.dtype(float).itemsize  # bytes of one order-6 array at n = 6


def state_at(n, seed=3):
    """(family, frames, fits, products) of the (source, image) members at
    one sampled point of the n-dim family, one point's each, products all
    built."""
    job = cli.build_job(corpus_get(FAMILIES[n])["manifolds"][0])
    point = cli.sample_points(job, 1, np.random.default_rng(seed))[0]
    fam = job.mapped
    frames = tuple(geo.frame(member.product, point) for member in (fam.source, fam.image))
    fits = tuple(roter.fit_roter(stack([f]))[0] for f in frames)
    products = tuple(roter.curvature_products(f) for f in frames)
    for P in products:
        for key in roter._PRODUCTS:
            P[key]
    return fam, frames, fits, products


@pytest.fixture(scope="module", params=sorted(FAMILIES))
def member_state(request):
    return state_at(request.param)


# ---------------------------------------------------------------------------
# Packed products, and reading them

DENSE_PRODUCTS = {
    "RR": lambda f: dense_derivation(f.riemann, f.riemann, f.ginv),
    "RC": lambda f: dense_derivation(f.riemann, f.weyl, f.ginv),
    "RS": lambda f: dense_derivation(f.riemann, f.ricci, f.ginv),
    "CC": lambda f: dense_derivation(f.weyl, f.weyl, f.ginv),
    "CR": lambda f: dense_derivation(f.weyl, f.riemann, f.ginv),
    "CS": lambda f: dense_derivation(f.weyl, f.ricci, f.ginv),
    "QgR": lambda f: dense_tachibana(f.g, f.riemann),
    "QgS": lambda f: dense_tachibana(f.g, f.ricci),
    "QgC": lambda f: dense_tachibana(f.g, f.weyl),
    "QSR": lambda f: dense_tachibana(f.ricci, f.riemann),
    "QSC": lambda f: dense_tachibana(f.ricci, f.weyl),
    "QSG": lambda f: dense_tachibana(f.ricci, curvops.unit_curvature(f.g)),
}


def dense_products(frame):
    return {key: dense(frame) for key, dense in DENSE_PRODUCTS.items()}


def as_chunk(P):
    """One point's products as a chunk of one's: views with a point axis."""
    return {key: P[key][None] for key in P}


class TestSameBits:
    def test_products(self, member_state):
        # Each packed product is the packed dense oracle, to 1e-14
        # relative; at n = 6 an order-6 product is (15, 15, 15), 27 KB.
        _, frames, _, products = member_state
        for f, P in zip(frames, products):
            assert set(P) == set(DENSE_PRODUCTS)
            for key, dense in DENSE_PRODUCTS.items():
                D = dense(f)
                want = pack(D)
                assert P[key].shape == want.shape
                assert np.linalg.norm(P[key] - want) <= 1e-14 * np.linalg.norm(want), key
                if f.dim == 6 and D.ndim == 6:
                    assert P[key].shape == (15, 15, 15) and P[key].nbytes == 27000, key

    def test_products_left_untouched(self, member_state):
        # Residuals and factors never write into the products they read.
        _, frames, fits, products = member_state
        before = [{key: value.copy() for key, value in P.items()} for P in products]
        for f, fit, P in zip(frames, fits, products):
            F, chunk = stack([f]), as_chunk(P)
            roter.identity_suite(F, [fit], chunk)
            roter.ricci_pseudosymmetry(F, chunk)
        for fit, P in zip(fits, products):
            gm.corollary42_residual(frames[0].dim, [fit], as_chunk(P))
        gm.semisymmetric(products[0]["RR"][None], stack([frames[0]]))
        for P, kept in zip(products, before):
            for key, value in kept.items():
                assert (P[key] == value).all(), key


# ---------------------------------------------------------------------------
# Packed against dense

class TestPackedReadsAsDense:
    def test_identity_suite(self, member_state):
        _, frames, fits, products = member_state
        for f, fit, P in zip(frames, fits, products):
            F = stack([f])
            got = roter.identity_suite(F, [fit], as_chunk(P))[0]
            want = roter.identity_suite(F, [fit], as_chunk(dense_products(f)))[0]
            for name in IDENTITY_NAMES:
                assert abs(got[name] - want[name]) <= 1e-14, name

    def test_pseudosymmetry_factors(self, member_state):
        _, frames, _, products = member_state
        for f, P in zip(frames, products):
            F = stack([f])
            got = roter.pseudosymmetry_factors(F, as_chunk(P))[0]
            want = roter.pseudosymmetry_factors(F, as_chunk(dense_products(f)))[0]
            for key in want:
                assert got[key].verdict == want[key].verdict == "fit", key
                assert abs(got[key].residual - want[key].residual) <= 1e-14, key
                assert curvops.scalar_residual(got[key].factor, want[key].factor) <= 1e-14, key

    def test_factor_relations_cor42(self, member_state):
        _, frames, fits, products = member_state
        for tag, f, fit, P in zip(("cor42_source", "cor42_image"), frames, fits, products):
            (got,) = gm.corollary42_residual(f.dim, [fit], as_chunk(P))
            (want,) = gm.corollary42_residual(f.dim, [fit], as_chunk(dense_products(f)))
            assert abs(got - want) <= 1e-14, tag


def test_constant_curvature_is_vacuous_packed_and_dense():
    # R.R and Q(g,R) vanish; the degeneracy bound 1e-12 * n**2 reads the
    # chart dimension n, so the packed products (leading axis m = 6 at
    # n = 4) are as vacuous as the dense ones.
    spec = geo.diagonal_metric(
        ("x1", "x2", "x3", "x4"),
        ["1/(1 + (x1^2+x2^2+x3^2+x4^2)/4)^2"] * 4,
    )
    f = geo.frame(spec, (0.2, -0.1, 0.3, 0.05))
    packed = roter.curvature_products(f)
    dense = dense_products(f)
    for P in (packed, dense):
        for lhs, rhs in (("RR", "QgR"), ("CC", "QgC"), ("RS", "QgS")):
            (res,) = curvops.proportionality(P[lhs][None], P[rhs][None], f.dim)
            assert res.verdict == "vacuous"


def test_semisymmetric_guard_fires_where_the_dense_guard_fires():
    # The dense guard: max|R.R| <= 1e-9 (max|R| + 1).  Scale the source
    # R.R to sit at fixed multiples of that bound; the packed guard must
    # fire on exactly the same ones.
    _, frames, _, products = state_at(4)
    dense_rr = DENSE_PRODUCTS["RR"](frames[0])
    bound = 1e-9 * (np.max(np.abs(frames[0].riemann)) + 1.0)
    for ratio in (0.0, 0.5, 0.99, 1.01, 2.0, 1e6):
        t = ratio * bound / np.max(np.abs(dense_rr))
        dense_fires = np.max(np.abs(t * dense_rr)) <= bound
        (packed_fires,) = gm.semisymmetric(t * products[0]["RR"][None], stack([frames[0]]))
        assert packed_fires == dense_fires == (ratio < 1.0), ratio


# ---------------------------------------------------------------------------
# Few temporaries

def peak_units(fn) -> float:
    """Peak traced memory of fn(), above what was live before, in 6**6 arrays."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    return peak / UNIT


class TestTemporaries:
    """At n = 6 a dense order-6 array is 373 KB, above the allocator's
    mmap threshold.  A packed one is 27 KB, 0.072 units, so the
    residual formulas, one fresh array per operation, stay far below
    one unit; the dense kernel peaked at 3.06 (derivation_apply) and
    3.09 (tachibana) units."""

    @pytest.fixture(scope="class")
    def n6(self):
        _, frames, fits, products = state_at(6)
        return frames[0], fits[0], products[0]

    def test_derivation_apply(self, n6):
        f, _, _ = n6
        assert peak_units(lambda: curvops.derivation_apply(f.riemann, f.riemann, f.ginv)) < 0.5

    def test_tachibana(self, n6):
        f, _, _ = n6
        assert peak_units(lambda: curvops.tachibana(f.g, f.riemann)) < 0.5

    def test_pseudosymmetry_factors(self, n6):
        f, _, P = n6
        F, chunk = stack([f]), as_chunk(P)
        assert peak_units(lambda: roter.pseudosymmetry_factors(F, chunk)) < 0.5

    def test_identity_suite(self, n6):
        f, fit, P = n6
        F, chunk = stack([f]), as_chunk(P)
        assert peak_units(lambda: roter.identity_suite(F, [fit], chunk)) < 0.5
