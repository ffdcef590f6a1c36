"""The Roter path's in-place kernels against the plain formulas.

curvops._derive writes every slot's matrix product into one scratch
buffer, proportionality and the identity residuals overwrite the
temporaries they own.  These tests pin both sides of that: every float
equals the one the plain, allocate-per-operation formulas below give
(==, not a tolerance), and the temporaries stay few, measured with
tracemalloc in units of one 6**6 array.
"""

import tracemalloc

import numpy as np
import pytest

from curvcheck import cli, curvops, geomap as gm, roter
from curvcheck.corpus import corpus_get

from helpers import frames_fits_and_products

# One family per chart dimension n = 4, 5, 6.
FAMILIES = {4: "theorem41_n4", 5: "theorem41_c_pos_n5", 6: "theorem41_c_neg_n6"}
UNIT = 6 ** 6 * np.dtype(float).itemsize  # bytes of one order-6 array at n = 6


def state_at(n, seed=3):
    """(family, frames, fits, products) at one sampled point of the n-dim
    family, products all built."""
    job = cli.build_job(corpus_get(FAMILIES[n])["manifolds"][0])
    point = cli.sample_points(job, 1, np.random.default_rng(seed))[0]
    frames, fits, products = frames_fits_and_products(job.family, point)
    for P in products:
        for key in roter._PRODUCTS:
            P[key]
    return job.family, frames, fits, products


@pytest.fixture(scope="module", params=sorted(FAMILIES))
def member_state(request):
    return state_at(request.param)


# ---------------------------------------------------------------------------
# The plain formulas: one fresh array per operation.

def plain_derive(E, T):
    k, n = T.ndim, T.shape[0]
    out = np.zeros(T.shape + E.shape[:2])
    E_rows = E.reshape(n ** 3, n)
    shape = E.shape[:3] + T.shape[1:]
    for slot in range(k):
        others = [j for j in range(k) if j != slot]
        term = (E_rows @ T.transpose(slot, *others).reshape(n, -1)).reshape(shape)
        out -= term.transpose(*range(3, slot + 3), 2, *range(slot + 3, k + 2), 0, 1)
    return out


def plain_tachibana(A, T):
    half = np.einsum("yi,xs->xyis", A, np.eye(A.shape[0]))
    return plain_derive(half - np.swapaxes(half, 0, 1), T)


def plain_derivation(B4, T, ginv):
    return plain_derive(np.einsum("xyid,sd->xyis", B4, ginv), T)


def plain_tensor_residual(a, b):
    return float(np.linalg.norm(a - b) / (np.linalg.norm(a) + np.linalg.norm(b) + 1.0))


def plain_proportionality(a, b):
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    dim = a.shape[0]
    if nb <= 1e-12 * dim * dim:
        if na <= 1e-12 * dim * dim:
            return curvops.ProportionalityResult(None, 0.0, True, "vacuous")
        return curvops.ProportionalityResult(None, na / (na + nb + 1.0), True, "inconsistent")
    factor = float(np.vdot(b, a) / np.vdot(b, b))
    residual = float(np.linalg.norm(a - factor * b) / (na + nb + 1.0))
    return curvops.ProportionalityResult(factor, residual, False, "fit")


def plain_factors(P):
    return {
        "L_R": plain_proportionality(P["RR"], P["QgR"]),
        "L_C": plain_proportionality(P["CC"], P["QgC"]),
        "L": plain_proportionality(P["RR"] - P["QSR"], P["QgC"]),
    }


def plain_identity_suite(frame, fit, P):
    n = frame.dim
    S, g, kappa = frame.ricci, frame.g, frame.scalar
    phi, mu, eta = fit.phi, fit.mu, fit.eta
    commutator_rhs = (
        ((1.0 / phi) * (mu - 1.0 / (n - 2)) + kappa / (n - 1)) * P["QgR"]
        + ((mu / phi) * (mu - 1.0 / (n - 2)) - eta) * P["QSG"]
    )
    measured = plain_factors(P)
    res = plain_tensor_residual
    return {
        "ricci_square_affine": res(frame.ricci_sq, fit.alpha1 * S + fit.alpha2 * g),
        "rr_vs_qgr": res(P["RR"], fit.L_R * P["QgR"]),
        "rc_vs_qgc": res(P["RC"], fit.L_R * P["QgC"]),
        "rs_vs_qgs": res(P["RS"], fit.L_R * P["QgS"]),
        "rr_vs_qsr_plus_qgc": res(P["RR"], P["QSR"] + fit.L * P["QgC"]),
        "cc_vs_qgc": res(P["CC"], fit.L_C * P["QgC"]),
        "cr_vs_qgr": res(P["CR"], fit.L_C * P["QgR"]),
        "cs_vs_qgs": res(P["CS"], fit.L_C * P["QgS"]),
        "commutator_vs_qgr_qsg": res(P["RC"] - P["CR"], commutator_rhs),
        "commutator_vs_qsc_qgc": res(P["CR"] - P["RC"], P["QSC"] - (kappa / (n - 1)) * P["QgC"]),
        "lr_closed_vs_measured": curvops.scalar_residual(fit.L_R, measured["L_R"].factor),
        "lc_closed_vs_measured": curvops.scalar_residual(fit.L_C, measured["L_C"].factor),
        "l_closed_vs_measured": curvops.scalar_residual(fit.L, measured["L"].factor),
    }


# ---------------------------------------------------------------------------
# Same bits

PLAIN_PRODUCTS = {
    "RR": lambda f: plain_derivation(f.riemann, f.riemann, f.ginv),
    "RC": lambda f: plain_derivation(f.riemann, f.weyl, f.ginv),
    "RS": lambda f: plain_derivation(f.riemann, f.ricci, f.ginv),
    "CC": lambda f: plain_derivation(f.weyl, f.weyl, f.ginv),
    "CR": lambda f: plain_derivation(f.weyl, f.riemann, f.ginv),
    "CS": lambda f: plain_derivation(f.weyl, f.ricci, f.ginv),
    "QgR": lambda f: plain_tachibana(f.g, f.riemann),
    "QgS": lambda f: plain_tachibana(f.g, f.ricci),
    "QgC": lambda f: plain_tachibana(f.g, f.weyl),
    "QSR": lambda f: plain_tachibana(f.ricci, f.riemann),
    "QSC": lambda f: plain_tachibana(f.ricci, f.weyl),
    "QSG": lambda f: plain_tachibana(f.ricci, curvops.unit_curvature(f.g)),
}


class TestSameBits:
    def test_products(self, member_state):
        _, frames, _, products = member_state
        for f, P in zip(frames, products):
            assert set(P) == set(PLAIN_PRODUCTS)
            for key, plain in PLAIN_PRODUCTS.items():
                want = plain(f)
                assert P[key].shape == want.shape
                assert (P[key] == want).all(), key

    def test_identity_suite(self, member_state):
        _, frames, fits, products = member_state
        for f, fit, P in zip(frames, fits, products):
            got = roter.identity_suite(f, fit, P)
            want = plain_identity_suite(f, fit, P)
            assert list(got) == list(want) == list(roter.IDENTITY_NAMES)
            for name in want:
                assert got[name] == want[name], name

    def test_pseudosymmetry_factors(self, member_state):
        _, frames, _, products = member_state
        for f, P in zip(frames, products):
            assert roter.pseudosymmetry_factors(f, P) == plain_factors(P)

    def test_ricci_pseudosymmetry(self, member_state):
        _, frames, _, products = member_state
        for f, P in zip(frames, products):
            want = plain_proportionality(P["RS"], P["QgS"])
            assert roter.ricci_pseudosymmetry(f, P) == want

    def test_factor_relations_cor42(self, member_state):
        fam, frames, fits, products = member_state
        n = fam.cfg.n
        v = gm.family_values(fam, frames[0].point)
        got = gm.factor_relations(fam, frames, fits, products, v)
        for tag, fit, P in zip(("cor42_source", "cor42_image"), fits, products):
            want = plain_tensor_residual(P["RR"], P["QSR"] - (n - 2) * fit.L_R * P["QgC"])
            assert got[tag] == want, tag

    def test_products_left_untouched(self, member_state):
        # The residuals overwrite only temporaries they own.
        fam, frames, fits, products = member_state
        before = [{key: value.copy() for key, value in P.items()} for P in products]
        for f, fit, P in zip(frames, fits, products):
            roter.identity_suite(f, fit, P)
            roter.ricci_pseudosymmetry(f, P)
        gm.factor_relations(fam, frames, fits, products, gm.family_values(fam, frames[0].point))
        gm.psi_ricci_identity_residual(fam, frames, fits, products)
        for P, kept in zip(products, before):
            for key, value in kept.items():
                assert (P[key] == value).all(), key


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
    """At n = 6 an order-6 array is 373 KB, above the allocator's mmap
    threshold, so each temporary is a round trip to the OS.  The result
    array counts as one unit; allocate-per-operation code peaks at 3.06
    (derivation_apply), 3.09 (tachibana), 3.0 (pseudosymmetry_factors)
    and 4.0 (identity_suite)."""

    @pytest.fixture(scope="class")
    def n6(self):
        _, frames, fits, products = state_at(6)
        return frames[0], fits[0], products[0]

    def test_derivation_apply(self, n6):
        f, _, _ = n6
        assert peak_units(lambda: curvops.derivation_apply(f.riemann, f.riemann, f.ginv)) < 2.5

    def test_tachibana(self, n6):
        f, _, _ = n6
        assert peak_units(lambda: curvops.tachibana(f.g, f.riemann)) < 2.5

    def test_pseudosymmetry_factors(self, n6):
        f, _, P = n6
        assert peak_units(lambda: roter.pseudosymmetry_factors(f, P)) < 2.5

    def test_identity_suite(self, n6):
        f, fit, P = n6
        assert peak_units(lambda: roter.identity_suite(f, fit, P)) < 2.5
