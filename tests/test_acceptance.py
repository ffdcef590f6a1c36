"""Acceptance criteria, one test per criterion, one printed line each.

Criterion 2 compares fitted Roter coefficients with a published
closed-form table for the charged static spacetimes.  The table is
written for the (+,-,-,-) chart h dt^2 - dr^2/h - r^2 dOmega^2, or
equivalently for the engine's (-,+,+,+) chart under the opposite sign
of R_hijk: both flips map (phi, mu, eta) alike, so the numbers cannot
tell which one the source uses.  Its eta multiplies an unhalved g^g, so
its normal form is R = (phi/2) S^S + mu g^S + eta g^g, where the engine
fits (eta/2) g^g.  The as-stated test therefore fits the (+,-,-,-) chart,
compares phi and mu with the table, and checks that the table's own
normal form rebuilds that chart's curvature tensor.  The bridge
supplement checks the engine's (-,+,+,+) chart through
(phi, mu, eta) -> (-phi, mu, -eta/2), and the sympy supplement recomputes
R_hijk from the README formula in both signatures as an independent
oracle for the engine's sign.
"""

import dataclasses
import math
import random
import time

import numpy as np
import pytest

from curvcheck import cli
from curvcheck import expr as ex
from curvcheck import geometry as geo
from curvcheck import geomap as gm
from curvcheck import roter
from curvcheck import warped as wp
from curvcheck.corpus import corpus_get
from curvcheck.curvops import (
    constancy_residual,
    kulkarni_nomizu,
    tachibana,
    unit_curvature,
)
from helpers import (
    IDENTITY_NAMES,
    central_difference,
    constant_curvature_2d,
    diagnostics_at,
    frames_fits_and_products,
    mapped_point_ok,
    max_abs_residual,
    member_diagnostics,
    psi_jets,
    psi_program,
    random_expr,
    random_point,
    riemann_symmetry_residuals,
    stack,
    tensor_residual,
    values_at,
)

RNG_SEED = 20240817


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


# ---------------------------------------------------------------------------
# 1. Gauss curvature law

GAUSS_PROFILES = {
    "x": (0.3, 3.0),
    "x^2": (0.4, 2.2),
    "exp(x)": (-1.0, 1.5),
    "sin(x)^2": (0.25, 1.3),
}


def test_criterion_1_gauss_curvature_law():
    start = time.perf_counter()
    rng = random.Random(RNG_SEED)
    worst = 0.0
    for _ in range(10):
        d_const = rng.choice([-1.0, 1.0]) * rng.uniform(0.8, 4.0)
        c_const = rng.uniform(-1.5, 1.5)
        for profile, (lo, hi) in GAUSS_PROFILES.items():
            spec = constant_curvature_2d(profile, -d_const / 4.0, -4.0 * c_const)
            b_expr = spec.components[1][1]
            bp_expr = ex.diff(b_expr, "x")
            checked = 0
            while checked < 20:
                x = rng.uniform(lo, hi)
                b_v = ex.evaluate(b_expr, {"x": x, "y": 0.0})
                bp_v = ex.evaluate(bp_expr, {"x": x, "y": 0.0})
                if (abs(b_v) < 0.05 or abs(bp_v) < 0.05
                        or abs(d_const * b_v - 4 * c_const) < 0.05):
                    continue
                pt = (x, rng.uniform(-1.0, 1.0))
                if not geo.admissible(spec, [pt])[0]:
                    continue
                worst = max(worst, abs(geo.gauss_curvature(geo.frame(spec, pt)) + d_const / 4.0))
                checked += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed <= 5.0
    report(1, ok, f"max |kG + D/4| = {worst:.3e} over 800 samples in {elapsed:.2f} s")
    assert worst <= 1e-9
    assert elapsed <= 5.0


# ---------------------------------------------------------------------------
# 2. Roter reproduction on the charged static spacetimes

CHARGED_CASES = [
    (1.0, 1.0, 0.0, (2.5, 3.0, 3.5, 4.0, 5.0)),
    (1.0, 0.5, 0.1, (2.9, 3.0, 3.2, 3.4, 3.6)),
    (2.0, 1.0, -0.05, (4.3, 4.8, 5.3, 5.7, 6.0)),
]


ENGINE_CHART = "-+++"
TABLE_CHART = "+---"
CHARGED_H = "1 - 2*M/r + Q^2/r^2 - Lam*r^2/3"
CHARGED_DIAGONALS = {
    ENGINE_CHART: [f"-({CHARGED_H})", f"1/({CHARGED_H})", "r^2", "r^2*sin(th)^2"],
    TABLE_CHART: [CHARGED_H, f"-1/({CHARGED_H})", "-r^2", "-r^2*sin(th)^2"],
}


def charged_spec(M, Q, Lam, signature=ENGINE_CHART):
    """Charged static chart in the given signature.

    ENGINE_CHART is -h dt^2 + dr^2/h + r^2 dOmega^2; TABLE_CHART is its
    negative, the chart the published coefficient table is written for.
    """
    return geo.diagonal_metric(
        ("t", "r", "th", "ph"),
        CHARGED_DIAGONALS[signature],
        bindings={"M": M, "Q": Q, "Lam": Lam},
        conditions=[(CHARGED_H, "positive"), ("sin(th)", "nonzero"), ("r", "positive")],
    )


def published_closed_forms(M, Q, Lam, r):
    """Coefficient table as published for this metric family, verbatim."""
    phi = 1.5 * (Q * Q - M * r) * r**4 / Q**4
    mu = 0.5 * (Q**4 + 3 * Q * Q * Lam * r**4 - 3 * Lam * M * r**5) / Q**4
    eta = (
        (3 * Q**6 + 4 * Q**4 * Lam * r**4 - 3 * Q**4 * M * r
         + 9 * Q * Q * Lam**2 * r**8 - 9 * Lam**2 * M * r**9)
        / (12.0 * r**4 * Q**4)
    )
    return phi, mu, eta


def collect_charged_fits(signature=ENGINE_CHART):
    out = []
    for M, Q, Lam, radii in CHARGED_CASES:
        spec = charged_spec(M, Q, Lam, signature)
        for r in radii:
            pt = (0.0, r, 1.2, 0.3)
            assert geo.admissible(spec, [pt])[0], (M, Q, Lam, r)
            f = geo.frame(spec, pt)
            out.append(((M, Q, Lam, r), f, roter.fit_roter(stack([f]))[0],
                        published_closed_forms(M, Q, Lam, r)))
    return out


SPOT_KEY = (1.0, 1.0, 0.0, 3.0)
SPOT_MISSING = "spot point (M=1, Q=1, Lam=0, r=3) was not collected"


def rel(a, b):
    return abs(a - b) / (abs(a) + abs(b) + 1e-300)


def test_criterion_2_published_coefficients_as_stated():
    worst = 0.0
    worst_form = 0.0
    spot = None
    for key, f, fit, (phi_p, mu_p, eta_p) in collect_charged_fits(TABLE_CHART):
        worst = max(worst, rel(fit.phi, phi_p), rel(fit.mu, mu_p))
        # The table's own normal form, eta unhalved, rebuilds R on its chart.
        S, g = f.ricci, f.g
        table_form = (0.5 * phi_p * kulkarni_nomizu(S, S)
                      + mu_p * kulkarni_nomizu(g, S)
                      + eta_p * kulkarni_nomizu(g, g))
        worst_form = max(worst_form, tensor_residual(f.riemann, table_form))
        if key == SPOT_KEY:
            spot = fit.phi
    assert spot is not None, SPOT_MISSING
    ok = worst <= 1e-7 and worst_form <= 1e-7 and rel(spot, -243.0) <= 1e-7
    report(
        2, ok,
        f"(+,-,-,-) chart vs published table: worst rel err (phi, mu) = {worst:.3e}; "
        f"R vs (phi/2) S^S + mu g^S + eta g^g from the table: worst residual = "
        f"{worst_form:.3e}; spot phi(M=1,Q=1,Lam=0,r=3) = {spot:+.6g} vs published "
        "-243 (the table is written for the (+,-,-,-) chart, or equivalently "
        "the opposite sign of R_hijk, with an unhalved eta g^g)",
    )
    assert worst <= 1e-7, "fitted phi, mu do not match the published table as printed"
    assert worst_form <= 1e-7, "the published table's normal form does not rebuild R"
    assert rel(spot, -243.0) <= 1e-7


def test_criterion_2_supplement_convention_bridge():
    worst = 0.0
    spot = None
    for key, _, fit, (phi_p, mu_p, eta_p) in collect_charged_fits():
        worst = max(
            worst, rel(fit.phi, -phi_p), rel(fit.mu, mu_p), rel(fit.eta, -2.0 * eta_p)
        )
        if key == SPOT_KEY:
            spot = fit.phi
    assert spot is not None, SPOT_MISSING
    ok = worst <= 1e-7 and rel(spot, 243.0) <= 1e-7
    report(
        "2-bridge", ok,
        f"fitted triple vs bridge-mapped published forms: worst rel err = {worst:.3e}; "
        f"spot phi = {spot:+.6g} (= -(published -243))",
    )
    assert worst <= 1e-7
    assert rel(spot, 243.0) <= 1e-7


def test_criterion_2_supplement_sympy_oracle():
    """R_hijk and S_ij recomputed in sympy from the README formula.

    At M = Q = 1, Lam = 0, r = 3, th = pi/3 the exact Roter triple is
    (243, 1/2, 1/81) on the engine's chart and (-243, 1/2, -1/81) on the
    table's chart; the engine's frame and fit must agree with both.
    """
    sp = pytest.importorskip("sympy")
    X = t, r, th, ph = sp.symbols("t r th ph")
    phi, mu, eta = sp.symbols("phi mu eta")
    n = 4
    at = {r: 3, th: sp.pi / 3}
    h = 1 - 2 / r + 1 / r**2
    engine_g = sp.diag(-h, 1 / h, r**2, r**2 * sp.sin(th) ** 2)

    def kn(A, B, a, b, c, d):
        # One component of the Kulkarni-Nomizu product, curvops' formula.
        return A[a, d] * B[b, c] + A[b, c] * B[a, d] - A[a, c] * B[b, d] - A[b, d] * B[a, c]

    expected = {
        ENGINE_CHART: (1, {phi: 243, mu: sp.Rational(1, 2), eta: sp.Rational(1, 81)}),
        TABLE_CHART: (-1, {phi: -243, mu: sp.Rational(1, 2), eta: sp.Rational(-1, 81)}),
    }
    worst = 0.0
    for signature, (sign, triple) in expected.items():
        g = sign * engine_g
        ginv = g.inv()
        gam = [[[sum(ginv[s, l] * (sp.diff(g[l, j], X[i]) + sp.diff(g[l, i], X[j])
                                   - sp.diff(g[i, j], X[l])) for l in range(n)) / 2
                 for j in range(n)] for i in range(n)] for s in range(n)]
        dgam = [[[[sp.diff(gam[s][i][j], X[k]).subs(at) for k in range(n)]
                  for j in range(n)] for i in range(n)] for s in range(n)]
        gam = [[[gam[s][i][j].subs(at) for j in range(n)] for i in range(n)] for s in range(n)]
        g, ginv = g.subs(at), ginv.subs(at)
        R = sp.MutableDenseNDimArray.zeros(n, n, n, n)
        for a in range(n):
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        R[a, i, j, k] = sp.expand(sum(
                            g[a, s] * (dgam[s][i][j][k] - dgam[s][i][k][j]
                                       + sum(gam[q][i][j] * gam[s][q][k]
                                             - gam[q][i][k] * gam[s][q][j]
                                             for q in range(n)))
                            for s in range(n)))
        S = sp.Matrix(n, n, lambda i, j: sp.expand(sum(
            ginv[a, d] * R[a, i, j, d] for a in range(n) for d in range(n))))
        equations = {
            sp.expand(R[a, b, c, d] - phi / 2 * kn(S, S, a, b, c, d)
                      - mu * kn(g, S, a, b, c, d) - eta / 2 * kn(g, g, a, b, c, d))
            for a in range(n) for b in range(n) for c in range(n) for d in range(n)
        } - {0}
        assert sp.solve(list(equations), [phi, mu, eta], dict=True) == [triple], signature

        f = geo.frame(charged_spec(1.0, 1.0, 0.0, signature), (0.0, 3.0, math.pi / 3, 0.3))
        worst = max(worst,
                    max_abs_residual(f.riemann, np.array(R.tolist(), dtype=float)),
                    max_abs_residual(f.ricci, np.array(S.tolist(), dtype=float)))
        fit = roter.fit_roter(stack([f]))[0]
        for got, want in zip((fit.phi, fit.mu, fit.eta), (phi, mu, eta)):
            worst = max(worst, rel(got, float(triple[want])))
    ok = worst <= 1e-10
    report("2-oracle", ok, f"sympy R_hijk and S_ij at r=3 in both signatures give "
                           f"exact triples (243, 1/2, 1/81) and (-243, 1/2, -1/81); "
                           f"engine frame and fit vs oracle worst = {worst:.3e}")
    assert worst <= 1e-10


# ---------------------------------------------------------------------------
# 3. Identity suite at every Roter-certified corpus point

IDENTITY_CHECKS = set(IDENTITY_NAMES) | {
    "fit_residual", "lr_closed_vs_measured", "lc_closed_vs_measured",
    "l_closed_vs_measured",
}

CORPUS_FOR_SUITE = [
    "rn_lambda0", "rn_desitter", "rn_antidesitter",
    "theorem41_n4", "theorem41_c_pos_n5", "theorem41_c_neg_n6",
    "negative_control_perturbed",
]


def test_criterion_3_identity_suite_on_corpus():
    certified = 0
    worst = 0.0
    bad = []
    for name in CORPUS_FOR_SUITE:
        records, _ = cli.run_manifest(
            corpus_get(name), suites=["theorem21"], points=3
        )
        for rec in records:
            if rec["check"] == "fit_residual":
                certified += 1
            if rec["check"] in IDENTITY_CHECKS:
                worst = max(worst, rec["residual"])
                if rec["residual"] > 1e-8:
                    bad.append((name, rec["check"], rec["residual"]))
    ok = certified > 0 and not bad
    report(3, ok, f"{certified} Roter-certified points; worst identity residual "
                  f"= {worst:.3e} (threshold 1e-8)")
    assert certified >= 24
    assert not bad, bad


# ---------------------------------------------------------------------------
# 4. Warped family end to end, all branches, n in {4, 5, 6}

BRANCH_PARAMS = {
    "affine": dict(c=0.0, d=4.0, c1=2.0, c2=1.0),
    "exponential": dict(c=1.0, d=4.0, c1=1.0, c2=0.5),
    "trigonometric": dict(c=-1.0, d=4.0, c1=1.0, c2=1.0),
}

MAPPING_CHECKS = ("geo", "gamma", "ricci", "r4", "r5")


def family_points(fam, rng, count):
    pts = []
    while len(pts) < count:
        x = rng.uniform(1.3, 2.4) if fam.cfg.c > 0 else rng.uniform(0.6, 2.0)
        base = [x, rng.uniform(-0.35, 0.6)]
        fib = [rng.uniform(-0.3, 0.3) for _ in range(fam.cfg.fiber_dim)]
        pt = tuple(base + fib)
        if mapped_point_ok(fam, pt):
            pts.append(pt)
    return pts


def test_criterion_4_family_end_to_end():
    start = time.perf_counter()
    worst_mapping = 0.0
    worst_factor = 0.0
    failures = []
    for branch, params in BRANCH_PARAMS.items():
        for n in (4, 5, 6):
            shift = 0.5 if params["c"] < 0 else 1.0
            fam = gm.build_family(gm.FamilyConfig(
                fiber_dim=n - 2, fiber_scalar=2.0,
                map_scale=2.0, map_shift=shift, **params,
            ))
            rng = np.random.default_rng([RNG_SEED, n, hash(branch) % 2**31])
            points = family_points(fam, rng, 20)
            d, d_bar = member_diagnostics(fam, points)
            frames, jets = (d.frame, d_bar.frame), psi_jets(psi_program(fam), points)
            r4, r5 = gm.warp_compatibility_residuals(fam, d, d_bar, jets)
            mapping = {
                "geo": gm.geodesic_compatibility_residual(*frames, jets),
                "gamma": gm.christoffel_shift_residual(*frames, jets),
                "ricci": gm.ricci_shift_residual(*frames, jets),
                "r4": r4,
                "r5": r5,
            }
            for check, lanes in mapping.items():
                for res in lanes.tolist():
                    worst_mapping = max(worst_mapping, res)
                    if res > 1e-9:
                        failures.append((branch, n, check, res))
            frames, fits, products = frames_fits_and_products(fam, points)
            lr_src = [fit.L_R for fit in fits[0]]
            lr_img = [fit.L_R for fit in fits[1]]
            relations = gm.factor_relations(fam, frames, fits, values_at(fam, points))
            for tag, member_fits, P in zip(("cor42_source", "cor42_image"), fits, products):
                relations[tag] = gm.corollary42_residual(n, member_fits, P)
            for check in ("l_r_value", "l_r_image_value", "lkappa",
                          "lcr_source", "lcr_image", "lc_ratio",
                          "l_source", "l_image",
                          "cor42_source", "cor42_image"):
                for res in relations[check].tolist():
                    worst_factor = max(worst_factor, res)
                    if res > 1e-8:
                        failures.append((branch, n, check, res))
            for label, vals in (("source", lr_src), ("image", lr_img)):
                spread = constancy_residual(vals)
                if spread > 1e-8:
                    failures.append((branch, n, f"l_r_constancy_{label}", spread))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed <= 60.0
    report(4, ok, f"3 branches x n in {{4,5,6}} x 20 points: worst mapping residual "
                  f"= {worst_mapping:.3e}, worst factor residual = {worst_factor:.3e}, "
                  f"{elapsed:.1f} s")
    assert not failures, failures[:10]
    assert elapsed <= 60.0


# ---------------------------------------------------------------------------
# 5. Classification dichotomy under the conformal-flatness toggle

def test_criterion_5_classification_dichotomy():
    failures = []
    for n in (4, 5):
        invariant = 4.0  # B = 2t + 1
        matched = (n - 3) * (n - 2) * invariant
        toggled = gm.build_family(gm.FamilyConfig(
            c=0.0, d=4.0, c1=2.0, c2=1.0, fiber_dim=n - 2,
            fiber_scalar=matched, allow_conformally_flat=True,
        ))
        violated = gm.build_family(gm.FamilyConfig(
            c=0.0, d=4.0, c1=2.0, c2=1.0, fiber_dim=n - 2, fiber_scalar=2.0,
        ))
        rng = np.random.default_rng([RNG_SEED, n])
        for pt in family_points(toggled, rng, 3):
            for member in (toggled.source, toggled.image):
                frame = stack([geo.frame(member.product, pt)])
                kind = roter.classify(frame)[0].kind
                (rho0,), (flat,) = wp.conformal_flatness_test(diagnostics_at(member, pt))
                if kind != roter.EINSTEIN:
                    failures.append((n, "toggle-classify", kind))
                if not flat or abs(rho0) > 1e-9:
                    failures.append((n, "toggle-rho0", rho0))
        for pt in family_points(violated, rng, 3):
            for member in (violated.source, violated.image):
                frame = stack([geo.frame(member.product, pt)])
                c = roter.classify(frame)[0]
                if c.kind != roter.ROTER:
                    failures.append((n, "violated-classify", c.kind))
                elif not roter.rank_grid_exceeds_one(frame, [c], [()])[0]:
                    failures.append((n, "violated-rank", pt))
    ok = not failures
    report(5, ok, "matched fiber scalar => EINSTEIN with rho0 <= 1e-9 on both "
                  "members; violated => ROTER with rank(S - a g) >= 2 on the grid")
    assert not failures, failures


# ---------------------------------------------------------------------------
# 6. Randomized property suites and negative controls

def test_criterion_6_property_suites():
    rng = random.Random(RNG_SEED)
    nrng = np.random.default_rng(RNG_SEED)

    # (a) 1000 derivative-oracle instances.
    worst_oracle = 0.0
    for _ in range(1000):
        e = random_expr(rng, rng.choice([1, 2, 3]))
        p = random_point(rng)
        exact = ex.evaluate(ex.diff(e, "x"), p)
        err = abs(exact - central_difference(e, p, "x")) / (1.0 + abs(exact))
        worst_oracle = max(worst_oracle, err)
    assert worst_oracle <= 1e-6

    # (b) 1000 algebraic-identity instances on random symmetric tensors.
    worst_alg = 0.0
    for _ in range(1000):
        A = nrng.normal(size=(4, 4))
        g = A @ A.T + 4.0 * np.eye(4)
        G = unit_curvature(g)
        worst_alg = max(
            worst_alg,
            max_abs_residual(kulkarni_nomizu(g, g), 2.0 * G),
            float(np.max(np.abs(tachibana(g, G)))) / (float(np.max(np.abs(G))) + 1.0),
        )
    assert worst_alg <= 1e-12

    # (c) 1000 frame instances: curvature symmetries and nabla g = 0.
    specs = [
        geo.diagonal_metric(("x", "y"), ["1 + x^2", "2 + sin(x)"]),
        constant_curvature_2d("x", -1.0, 0.0),
        geo.diagonal_metric(("x", "y"), ["1", "exp(x)"]),
        charged_spec(1.0, 1.0, 0.0),
        gm.build_family(gm.FamilyConfig(c=0.0, d=4.0, c1=2.0, c2=1.0)).source.product,
    ]
    worst_sym = 0.0
    count = 0
    while count < 1000:
        spec = specs[count % len(specs)]
        if spec.dim == 2:
            pt = (nrng.uniform(0.4, 2.0), nrng.uniform(-1.0, 1.0))
        elif spec.coords[0] == "t":
            pt = (0.0, nrng.uniform(2.5, 5.0), nrng.uniform(0.7, 2.4),
                  nrng.uniform(0.0, 1.0))
        else:
            pt = (nrng.uniform(0.6, 2.0), nrng.uniform(-0.3, 0.6),
                  nrng.uniform(-0.3, 0.3), nrng.uniform(-0.3, 0.3))
        if not geo.admissible(spec, [pt])[0]:
            continue
        f = geo.frame(spec, pt)
        worst_sym = max(worst_sym, *riemann_symmetry_residuals(f.riemann).values())
        nabla_g = geo.covariant_derivative_02(f, f.g, f.dg)
        worst_sym = max(
            worst_sym,
            float(np.max(np.abs(nabla_g))) / (float(np.max(np.abs(f.g))) + 1.0),
        )
        count += 1
    assert worst_sym <= 1e-9

    # (d) negative controls must fail their designated checks.
    f = geo.frame(charged_spec(1.0, 1.0, 0.0), (0.0, 3.0, 1.2, 0.3))
    fit = roter.fit_roter(stack([f]))[0]
    noise = nrng.normal(size=(4, 4))
    bad_ricci = f.ricci + 1e-3 * 0.5 * (noise + noise.T)
    control_s2 = tensor_residual(
        bad_ricci @ f.ginv @ bad_ricci, fit.alpha1 * bad_ricci + fit.alpha2 * f.g
    )
    assert control_s2 > 1e-8, "perturbed quadratic Ricci relation must fail"

    broken = f.riemann.copy()
    broken[0, 1, 2, 3] += 1e-3
    assert max(riemann_symmetry_residuals(broken).values()) > 1e-9

    e = random_expr(rng, 2)
    p = random_point(rng)
    wrong = abs(
        ex.evaluate(ex.diff(e, "y"), p) - central_difference(e, p, "x")
    )
    right = abs(
        ex.evaluate(ex.diff(e, "x"), p) - central_difference(e, p, "x")
    )
    assert right <= 1e-6 * (1.0 + abs(ex.evaluate(ex.diff(e, "x"), p)))

    report(6, True, f"1000-instance suites: derivative oracle worst {worst_oracle:.2e}, "
                    f"algebraic worst {worst_alg:.2e}, frame worst {worst_sym:.2e}; "
                    f"negative controls fail as designed (perturbed Ricci relation "
                    f"residual {control_s2:.2e})")


# ---------------------------------------------------------------------------
# 7. The psi-Ricci identity across three family instances

def test_criterion_7_psi_ricci_identity():
    worst = 0.0
    controls = []
    for branch, params in BRANCH_PARAMS.items():
        shift = 0.5 if params["c"] < 0 else 1.0
        fam = gm.build_family(gm.FamilyConfig(
            fiber_dim=2, fiber_scalar=2.0, map_scale=2.0, map_shift=shift, **params,
        ))
        rng = np.random.default_rng([RNG_SEED, hash(branch) % 2**31])
        pt = family_points(fam, rng, 1)[0]
        frames, ((sfit,), (ifit,)), _ = frames_fits_and_products(fam, [pt])
        jets = psi_jets(psi_program(fam), [pt])
        perturbed = ([sfit], [dataclasses.replace(ifit, phi=1.01 * ifit.phi)])
        (res,) = gm.psi_ricci_identity_residual(fam, frames, ([sfit], [ifit]), jets)
        worst = max(worst, res)
        controls.append(gm.psi_ricci_identity_residual(fam, frames, perturbed, jets)[0])
    ok = worst <= 1e-7 and all(c > 1e-4 for c in controls)
    report(7, ok, f"identity residual worst = {worst:.3e} over 3 instances; "
                  f"perturbation controls min = {min(controls):.3e} (> 1e-4)")
    assert worst <= 1e-7
    assert all(c > 1e-4 for c in controls)
