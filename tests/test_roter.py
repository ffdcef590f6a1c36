"""Roter fit, classification and identity-suite tests."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from curvcheck import cli
from curvcheck import geometry as geo
from curvcheck import roter
from curvcheck.corpus import corpus_get, corpus_list
from curvcheck.curvops import constancy_residual, rank_shift, scalar_residual
from helpers import IDENTITY_NAMES, flat_metric, grid_classify, stack, tensor_residual

PERFBENCH_RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def rn_metric(M, Q, Lam):
    h = "1 - 2*M/r + Q^2/r^2 - Lam*r^2/3"
    return geo.diagonal_metric(
        ("t", "r", "th", "ph"),
        [f"-({h})", f"1/({h})", "r^2", "r^2*sin(th)^2"],
        bindings={"M": M, "Q": Q, "Lam": Lam},
        conditions=[(h, "nonzero"), ("sin(th)", "nonzero"), ("r", "positive")],
    )


def charged_coefficients(M, Q, Lam, r):
    """Closed-form Roter coefficients for the charged static metric.

    The published table for this family is written for the (+,-,-,-)
    chart, or equivalently the opposite sign of R_hijk, with an unhalved
    eta g^g term.  On this engine's (-,+,+,+) chart, in its (eta/2) g^g
    normal form, the table's triple maps by
    (phi, mu, eta) -> (-phi, mu, -2*eta), applied here.
    """
    phi = -1.5 * (Q * Q - M * r) * r**4 / Q**4
    mu = 0.5 * (Q**4 + 3 * Q * Q * Lam * r**4 - 3 * Lam * M * r**5) / Q**4
    eta = -2.0 * (
        (1.0 / 12.0)
        * (3 * Q**6 + 4 * Q**4 * Lam * r**4 - 3 * Q**4 * M * r
           + 9 * Q * Q * Lam**2 * r**8 - 9 * Lam**2 * M * r**9)
        / (r**4 * Q**4)
    )
    return phi, mu, eta


def family_n4():
    """Warped product: hyperbolic-type base, spherical fiber, F = x(2t+1)^2."""
    conf = "(1 + (y1^2 + y2^2)/4)^2"
    F = "x*(2*t+1)^2"
    return geo.diagonal_metric(
        ("x", "t", "y1", "y2"),
        ["1/(4*x^2)", "x", f"({F})/({conf})", f"({F})/({conf})"],
        conditions=[("x", "positive"), ("2*t+1", "nonzero")],
    )


RN_POINT = (0.0, 3.0, 1.2, 0.3)


class TestFit:
    def test_charged_metric_spot_values(self):
        f = stack([geo.frame(rn_metric(1.0, 1.0, 0.0), RN_POINT)])
        fit = roter.fit_roter(f)[0]
        assert fit.phi == pytest.approx(243.0, rel=1e-10)
        assert fit.mu == pytest.approx(0.5, rel=1e-10)
        assert fit.eta == pytest.approx(1.0 / 81.0, rel=1e-10)
        assert fit.residual < 1e-12

    @pytest.mark.parametrize("M,Q,Lam,rs", [
        (1.0, 1.0, 0.0, (2.5, 3.0, 4.0, 5.0)),
        (1.0, 0.5, 0.1, (2.9, 3.1, 3.4)),
        (2.0, 1.0, -0.05, (4.3, 5.0, 6.0)),
    ])
    def test_charged_metric_closed_forms(self, M, Q, Lam, rs):
        spec = rn_metric(M, Q, Lam)
        for r in rs:
            fit = roter.fit_roter(stack([geo.frame(spec, (0.0, r, 1.2, 0.3))]))[0]
            phi, mu, eta = charged_coefficients(M, Q, Lam, r)
            assert scalar_residual(fit.phi, phi) < 1e-9
            assert scalar_residual(fit.mu, mu) < 1e-9
            assert scalar_residual(fit.eta, eta) < 1e-9

    def test_einstein_point_rejected(self):
        spec = geo.diagonal_metric(
            ("x1", "x2", "x3", "x4"),
            ["1/(1 + (x1^2+x2^2+x3^2+x4^2)/4)^2"] * 4,
        )
        (err,) = roter.fit_roter(stack([geo.frame(spec, (0.1, 0.2, -0.1, 0.3))]))
        assert isinstance(err, roter.RoterFitError)
        assert err.reason == "NOT_IN_US"

    def test_family_fit_matches_block_closed_forms(self):
        spec = family_n4()
        pt = (1.3, 0.2, 0.1, -0.2)
        f = geo.frame(spec, pt)
        fit = roter.fit_roter(stack([f]))[0]
        mu1 = f.ricci[0, 0] / f.g[0, 0]
        mu2 = f.ricci[2, 2] / f.g[2, 2]
        n = 4
        phi = 1.0 / ((n - 3) * (mu2 - mu1))
        assert scalar_residual(fit.phi, phi) < 1e-10
        assert scalar_residual(fit.mu, -mu1 * phi) < 1e-10
        rho1 = f.riemann[0, 1, 1, 0] / (f.g[0, 0] * f.g[1, 1])
        assert scalar_residual(fit.eta, rho1 + mu1**2 * phi) < 1e-10

    def test_low_dimension_rejected(self):
        f = stack([geo.frame(flat_metric(3), (0, 0, 0))])
        (err,) = roter.fit_roter(f)
        assert isinstance(err, roter.RoterFitError)
        assert err.reason == "DIMENSION"


class TestIdentitySuite:
    def test_all_ten_on_charged_metric(self):
        f = stack([geo.frame(rn_metric(1.0, 1.0, 0.0), RN_POINT)])
        fit = roter.fit_roter(f)[0]
        report = roter.identity_suite(f, [fit], roter.curvature_products(f))[0]
        assert set(report) == set(IDENTITY_NAMES)
        for name, residual in report.items():
            assert residual <= 1e-8, name

    def test_all_ten_on_family(self):
        f = stack([geo.frame(family_n4(), (0.9, 0.35, -0.15, 0.1))])
        fit = roter.fit_roter(f)[0]
        report = roter.identity_suite(f, [fit], roter.curvature_products(f))[0]
        for name, residual in report.items():
            assert residual <= 1e-8, name

    def test_factors_match_direct_proportionality(self):
        f = stack([geo.frame(rn_metric(1.0, 0.5, 0.1), (0.0, 3.1, 1.0, 0.4))])
        fit = roter.fit_roter(f)[0]
        products = roter.curvature_products(f)
        measured = roter.pseudosymmetry_factors(f, products)[0]
        assert scalar_residual(fit.L_R, measured["L_R"].factor) < 1e-8
        assert scalar_residual(fit.L_C, measured["L_C"].factor) < 1e-8
        assert scalar_residual(fit.L, measured["L"].factor) < 1e-8
        l_s = roter.ricci_pseudosymmetry(f, products)[0]
        assert l_s.residual < 1e-8
        assert scalar_residual(fit.L_R, l_s.factor) < 1e-8
        report = roter.identity_suite(f, [fit], products)[0]
        for name, key in (("lr_closed_vs_measured", "L_R"),
                          ("lc_closed_vs_measured", "L_C"),
                          ("l_closed_vs_measured", "L")):
            assert report[name] == scalar_residual(getattr(fit, key), measured[key].factor)

    def test_perturbed_ricci_breaks_affine_relation(self):
        f = geo.frame(rn_metric(1.0, 1.0, 0.0), RN_POINT)
        fit = roter.fit_roter(stack([f]))[0]
        rng = np.random.default_rng(3)
        noise = rng.normal(size=(4, 4))
        bad_ricci = f.ricci + 1e-3 * 0.5 * (noise + noise.T)
        bad_sq = bad_ricci @ f.ginv @ bad_ricci
        res = tensor_residual(bad_sq, fit.alpha1 * bad_ricci + fit.alpha2 * f.g)
        assert res > 1e-6  # far above the 1e-8 identity threshold

    def test_internal_consistency_of_l(self):
        f = geo.frame(family_n4(), (1.1, 0.15, 0.2, 0.05))
        fit = roter.fit_roter(stack([f]))[0]
        n = 4
        target = ((n - 2) / fit.phi) * (fit.mu**2 - fit.phi * fit.eta)
        assert scalar_residual(fit.L, target) < 1e-8


class TestClassification:
    def test_flat_space_is_einstein(self):
        c = roter.classify(stack([geo.frame(flat_metric(4), (0, 0, 0, 0))]))[0]
        assert c.kind == roter.EINSTEIN

    def test_constant_curvature_is_einstein(self):
        spec = geo.diagonal_metric(
            ("x1", "x2", "x3", "x4"),
            ["1/(1 - (x1^2+x2^2+x3^2+x4^2)/8)^2"] * 4,
        )
        c = roter.classify(stack([geo.frame(spec, (0.2, 0.1, -0.3, 0.05))]))[0]
        assert c.kind == roter.EINSTEIN

    def test_family_is_roter_never_quasi_einstein(self):
        f = geo.frame(family_n4(), (1.4, 0.25, 0.1, 0.2))
        F = stack([f])
        c = roter.classify(F)[0]
        assert c.kind == roter.ROTER
        assert roter.rank_grid_exceeds_one(F, [c])[0]
        mu1 = f.ricci[0, 0] / f.g[0, 0]
        mu2 = f.ricci[2, 2] / f.g[2, 2]
        assert np.all(rank_shift(f.ricci, f.g, [mu1, mu2]) > 1)

    def test_charged_metric_is_roter(self):
        c = roter.classify(stack([geo.frame(rn_metric(2.0, 1.0, -0.05),
                                                (0.0, 5.0, 1.3, 0.2))]))[0]
        assert c.kind == roter.ROTER

    def test_constructed_quasi_einstein(self):
        # Product of a line and a 3-sphere-like factor is quasi-Einstein:
        # S has a degenerate eigenvalue of multiplicity n-1.
        conf = "(1 + (y1^2+y2^2+y3^2)/4)^2"
        spec = geo.diagonal_metric(
            ("x", "y1", "y2", "y3"),
            ["1", f"1/({conf})", f"1/({conf})", f"1/({conf})"],
        )
        c = roter.classify(stack([geo.frame(spec, (0.5, 0.1, -0.2, 0.3))]))[0]
        assert c.kind == roter.QUASI_EINSTEIN
        assert c.alpha == pytest.approx(2.0, rel=1e-8)

    def test_constant_type_across_points(self):
        spec = family_n4()
        rng = np.random.default_rng(11)
        values = []
        for _ in range(20):
            pt = (rng.uniform(0.6, 2.0), rng.uniform(-0.3, 0.6),
                  rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
            fit = roter.fit_roter(stack([geo.frame(spec, pt)]))[0]
            values.append(fit.L_R)
        assert constancy_residual(values) <= 1e-8
        assert np.mean(values) == pytest.approx(-1.0, abs=1e-9)


def _shifted_pair(n, lorentzian, case, seed):
    """(S, g, alpha0): a symmetric g = Q^T D Q of signature (n, 0) or
    (n - 1, 1) and condition at most 4, and a symmetric S, random or built
    so that S - alpha0 g has rank at most 1: Einstein S = c g, flat S = 0
    or quasi-Einstein S = c g + b u u^T, u spacelike or, for a Lorentzian
    g, null."""
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    d = rng.uniform(0.5, 2.0, n) * np.where(np.arange(n) == 0, -1.0 if lorentzian else 1.0, 1.0)
    g = Q.T @ np.diag(d) @ Q
    c = rng.normal()
    if case == "random":
        A = rng.normal(size=(n, n))
        return A + A.T, g, 0.0
    if case == "einstein":
        return c * g, g, c
    if case == "flat":
        return np.zeros((n, n)), g, 0.0
    # u = Q^T w is spacelike when w[0] = 0 and null when w^T D^{-1} w = 0.  A
    # null u makes g^{-1} S defective: two copies of c are computed to about
    # sqrt(eps) only, the other n - 2 to rounding, so it needs n >= 3.
    w = np.where(np.arange(n) == 0, 0.0, rng.normal(size=n))
    if case == "null_quasi_einstein":
        w = np.zeros(n)
        w[:2] = np.sqrt(-d[0]), np.sqrt(d[1])
    b = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
    return c * g + b * np.outer(Q.T @ w, Q.T @ w), g, c


class TestRankDrop:
    """rank(S - alpha g) <= 1 forces det(S - alpha g) = 0, so alpha is a
    real eigenvalue of g^{-1} S: classify ranks those alone."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.integers(2, 6), st.booleans(),
           st.sampled_from(["random", "einstein", "flat", "quasi_einstein",
                            "null_quasi_einstein"]),
           st.integers(0, 2**32 - 1))
    def test_rank_drops_only_at_a_real_eigenvalue(self, n, lorentzian, case, seed):
        assume(case != "null_quasi_einstein" or lorentzian and n >= 3)
        S, g, alpha0 = _shifted_pair(n, lorentzian, case, seed)
        eigs = np.linalg.eigvals(np.linalg.inv(g) @ S)
        real = eigs.real[np.abs(eigs.imag) <= 1e-8 * (1.0 + np.abs(eigs.real))]
        scale = np.linalg.norm(S) + np.linalg.norm(g)
        # A fine grid over the eigenvalues, through alpha0 exactly.
        lo, hi = eigs.real.min() - 1.0, eigs.real.max() + 1.0
        step = (hi - lo) / 400
        grid = alpha0 + step * np.arange(np.floor((lo - alpha0) / step),
                                         np.ceil((hi - alpha0) / step) + 1)
        ranks = rank_shift(S, g, grid)
        if case != "random":
            assert ranks[np.argmin(np.abs(grid - alpha0))] <= 1
        for alpha in grid[ranks <= 1]:
            near = real[np.abs(real - alpha) <= 1e-9 * scale]
            assert near.size
            # The rank is read against S - lam g's own largest singular
            # value, so where S = c g and an eigenvalue lam misses c by
            # rounding, it ranks noise; classify decides that lane by in_us
            # before any rank.
            noise = np.linalg.norm(S - near[:, None, None] * g, axis=(1, 2)) <= (
                1e-12 * scale * (1.0 + np.abs(near)))
            assert (rank_shift(S, g, near) <= 1).any() or case == "einstein" and noise.all()

    def test_classify_equals_the_grid_oracle_on_the_corpus(self, monkeypatch):
        # Every entry at its declared points.
        kinds = _classify_against_the_oracle(monkeypatch, [corpus_get(n) for n in corpus_list()])
        assert kinds >= {roter.EINSTEIN, roter.QUASI_EINSTEIN, roter.ROTER}

    @pytest.mark.parametrize("seed", [4711, 8123])
    def test_classify_equals_the_grid_oracle_on_the_sweeps(self, monkeypatch, seed):
        namespace = {"__name__": "perfbench_run", "__file__": str(PERFBENCH_RUN)}
        exec(compile(PERFBENCH_RUN.read_text(encoding="utf-8"), str(PERFBENCH_RUN), "exec"),
             namespace)
        charged = namespace["charged_manifests"](seed, 4, 60)
        families = [corpus_get(name) for name in namespace["FAMILIES"]]
        kinds = _classify_against_the_oracle(monkeypatch, charged, seed=seed)
        kinds |= _classify_against_the_oracle(monkeypatch, families, points=16, seed=seed)
        assert roter.ROTER in kinds


@pytest.mark.parametrize("entry", ["theorem41_n4", "theorem41_c_pos_n5", "theorem41_c_neg_n6"])
@pytest.mark.parametrize("points", [None, 16])
def test_block_factors_are_eigenvalues_the_scan_ranks(entry, points):
    # On a family lane S is mu1 g on the base block and mu2 g on the fiber
    # block, so mu1 and mu2 are eigenvalues of g^{-1} S, which classify
    # ranks already: ranking them again, as the oracle can, moves no verdict.
    manifest = corpus_get(entry)
    job = cli.build_job(manifest["manifolds"][0])
    rng = np.random.default_rng([manifest["seed"], 0])
    pts = cli.sample_points(job, points or manifest["points"], rng)
    run = job.jets(pts)
    first = cli.Chunk(job, job.targets[0], 0, pts, run)
    for target in job.targets:
        chunk = first if target is job.targets[0] else cli.Chunk(job, target, 0, pts, run, first)
        F, d = chunk.stacked, chunk.diagnostics
        eigs = np.linalg.eigvals(F.ginv @ F.ricci)
        for mu in (d.mu1, d.mu2):
            gap = np.abs(eigs - mu[:, None]).min(axis=-1)
            assert np.all(gap <= 1e-12 * np.abs(mu)), (entry, target.label, gap / np.abs(mu))
        extras = list(zip(d.mu1.tolist(), d.mu2.tolist()))
        assert grid_classify(F, extras) == grid_classify(F), (entry, target.label)


def _classify_against_the_oracle(monkeypatch, manifests, **overrides) -> set:
    """Run each manifest with roter.classify checked lane by lane against
    helpers.grid_classify; the kinds seen."""
    classify, kinds = roter.classify, set()

    def checked(frame):
        out = classify(frame)
        assert [(c.kind, c.alpha, c.grid_rank_above_one) for c in out] == grid_classify(frame)
        kinds.update(c.kind for c in out)
        return out

    monkeypatch.setattr(roter, "classify", checked)
    for manifest in manifests:
        records, summary = cli.run_manifest(manifest, **overrides)
        assert summary["ok"]
    return kinds


class TestRicciPseudosymmetry:
    def test_one_dimensional_base_product(self):
        # 1-D base cross constant-curvature fiber: R.S and Q(g,S) are
        # linearly dependent even though the space need not be Roter.
        conf = "(1 + (y1^2+y2^2+y3^2)/4)^2"
        spec = geo.diagonal_metric(
            ("x", "y1", "y2", "y3"),
            ["1", f"(x^2+1)/({conf})", f"(x^2+1)/({conf})", f"(x^2+1)/({conf})"],
        )
        f = stack([geo.frame(spec, (0.4, 0.1, 0.2, -0.1))])
        res = roter.ricci_pseudosymmetry(f, roter.curvature_products(f))[0]
        assert res.verdict == "fit"
        assert res.residual <= 1e-8
