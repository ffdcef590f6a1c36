"""Geodesic pair and warped-family mapping tests."""

import dataclasses
import inspect
import pathlib
import re

import numpy as np
import pytest

from curvcheck import cli
from curvcheck import expr as ex
from curvcheck import geometry as geo
from curvcheck import geomap as gm
from curvcheck import roter
from curvcheck import warped as wp
from curvcheck.corpus import corpus_get, corpus_list
from curvcheck.curvops import constancy_residual, scalar_residual
from helpers import (
    constant_curvature_2d,
    diagnostics_at,
    frames_fits_and_products,
    mapped_point_ok,
    member_diagnostics,
    member_ok,
    point_family_values,
    program_blocks,
    program_jets,
    program_spec,
    psi_jets,
    psi_program,
    stack,
    values_at,
)


BRANCHES = {
    "affine": gm.FamilyConfig(c=0.0, d=4.0, c1=2.0, c2=1.0),
    "exponential": gm.FamilyConfig(c=1.0, d=4.0, c1=1.0, c2=0.5),
    "trigonometric": gm.FamilyConfig(c=-1.0, d=4.0, c1=1.0, c2=1.0),
}


def family_for(branch, n=4, **overrides):
    cfg = BRANCHES[branch]
    params = dict(
        c=cfg.c, d=cfg.d, c1=cfg.c1, c2=cfg.c2,
        fiber_dim=n - 2, fiber_scalar=2.0,
        map_scale=2.0, map_shift=1.0,
    )
    params.update(overrides)
    return gm.build_family(gm.FamilyConfig(**params))


def pair_frames(pair, points):
    """(source, image) stacked frames of a surface pair at a chunk of points."""
    return geo.frames(pair.source, points), geo.frames(pair.image, points)


def sample(fam, rng, count=3):
    pts = []
    while len(pts) < count:
        base = [rng.uniform(0.6, 2.0), rng.uniform(-0.35, 0.6)]
        if fam.cfg.c > 0:
            base[0] = rng.uniform(1.3, 2.4)  # keep D*b - 4C away from zero
        fib = [rng.uniform(-0.3, 0.3) for _ in range(fam.cfg.fiber_dim)]
        pt = tuple(base + fib)
        if mapped_point_ok(fam, pt):
            pts.append(pt)
    return pts


class TestSurfacePair:
    def test_psi_value_and_compatibility(self):
        pair = gm.geodesic_pair_2d("1", "x", 2.0, 1.0)
        pt = (1.0, 0.2)
        cut = gm.cut(pair, program_jets(pair, [pt]))
        psi, values, root = cut["psi"], cut["values"], cut["root"]
        assert psi[0][0, 0] == pytest.approx(-0.25, rel=1e-14) and values is root is None
        frames = pair_frames(pair, [pt])
        assert gm.geodesic_compatibility_residual(*frames, psi_jets(psi_program(pair), [pt])) < 1e-9

    def test_image_connection_closed_forms(self):
        pair = gm.geodesic_pair_2d("1", "x", 2.0, 1.0)
        frames = pair_frames(pair, [(1.0, 0.0)])
        forms = gm.pair_christoffel_closed_forms(pair, *frames)
        for name, res in forms.items():
            assert res < 1e-12, name
        gam_bar = frames[1].gamma
        assert gam_bar[0, 1, 0, 1] == pytest.approx(0.25, rel=1e-13)

    def test_trivial_mapping_identity(self):
        # psi = 0 and identical metrics satisfy the equation exactly.
        spec = geo.diagonal_metric(("x", "y"), ["1 + x^2", "2 + sin(x)"])
        psi = ex.jet((ex.Num(0.0), ex.Num(0.0)), ("x", "y"), ex.Bindings(), 1)
        f = geo.frames(spec, [(0.4, 0.1)])
        jets = psi_jets(psi, f.point)
        assert gm.geodesic_compatibility_residual(f, f, jets) < 1e-14
        assert gm.christoffel_shift_residual(f, f, jets) < 1e-14
        assert gm.ricci_shift_residual(f, f, jets) < 1e-14

    def test_zero_shift_rejected(self):
        with pytest.raises(gm.FamilyError):
            gm.geodesic_pair_2d("1", "x", 2.0, 0.0)
        with pytest.raises(gm.FamilyError):
            gm.geodesic_pair_2d("1", "x", 0.0, 1.0)

    def test_curved_pair_ricci_shift(self):
        pair = gm.geodesic_pair_2d("1 + x^2", "2 + sin(x)", 1.5, 0.7)
        points = [(0.3, 0.1), (0.9, -0.4)]
        frames, jets = pair_frames(pair, points), psi_jets(psi_program(pair), points)
        assert np.all(gm.geodesic_compatibility_residual(*frames, jets) < 1e-9)
        assert np.all(gm.christoffel_shift_residual(*frames, jets) < 1e-9)
        assert np.all(gm.ricci_shift_residual(*frames, jets) < 1e-8)

    def test_psi_is_gradient(self):
        pair = gm.geodesic_pair_2d("1 + x^2", "2 + sin(x)", 1.5, 0.7)
        assert gm.psi_gradient_residual(psi_jets(psi_program(pair), [(0.5, 0.2)])) < 1e-12


class TestProfile:
    def test_affine_invariant(self):
        cfg = gm.FamilyConfig(c=0.0, d=4.0, c1=2.0, c2=1.0)
        # B = 2t + 1: (B')^2 = 4 at all t.
        prof = gm.profile_expr(cfg)
        vals = [ex.evaluate(prof, {"x": 0, "t": t}, gm._family_bindings(cfg))
                for t in (0.0, 0.5)]
        assert vals == [1.0, 2.0]
        assert gm.profile_invariant_residual(gm.build_family(cfg)) < 1e-12

    def test_exponential_invariant(self):
        cfg = gm.FamilyConfig(c=1.0, d=4.0, c1=1.0, c2=0.0)
        # B = e^t: (B')^2 - B^2 = 0.
        fam = gm.build_family(cfg)
        assert gm.profile_invariant_residual(fam) < 1e-10
        assert fam.profile_invariant == pytest.approx(0.0, abs=1e-12)

    def test_trigonometric_invariant(self):
        # B = cos t: (B')^2 + B^2 = 1 (fiber scalar chosen off the
        # degenerate value (n-3)(n-2)*1 so construction succeeds).
        cfg = gm.FamilyConfig(c=-1.0, d=4.0, c1=1.0, c2=0.0, fiber_scalar=3.0)
        fam = gm.build_family(cfg)
        assert gm.profile_invariant_residual(fam) < 1e-12
        assert fam.profile_invariant == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("branch", list(BRANCHES))
    def test_profile_solves_oscillator(self, branch):
        cfg = BRANCHES[branch]
        prof = gm.profile_expr(cfg)
        second = ex.diff(ex.diff(prof, "t"), "t")
        binds = gm._family_bindings(cfg)
        for t in (-0.3, 0.2, 0.8):
            pmap = {"x": 0.0, "t": t}
            want = cfg.c * ex.evaluate(prof, pmap, binds)
            assert ex.evaluate(second, pmap, binds) == pytest.approx(want, abs=1e-12)


class TestFamilyConstruction:
    def test_conformally_degenerate_rejected(self):
        # fiber scalar = (n-3)(n-2) * invariant makes the member Einstein.
        with pytest.raises(gm.FamilyError) as err:
            gm.build_family(gm.FamilyConfig(c=0.0, d=4.0, c1=2.0, c2=1.0,
                                            fiber_scalar=8.0))
        assert err.value.reason == "CONFORMALLY_DEGENERATE"

    def test_degenerate_allowed_with_flag(self):
        fam = gm.build_family(gm.FamilyConfig(c=0.0, d=4.0, c1=2.0, c2=1.0,
                                              fiber_scalar=8.0,
                                              allow_conformally_flat=True))
        pt = (1.2, 0.3, 0.1, -0.1)
        f = geo.frame(fam.source.product, pt)
        assert roter.classify(stack([f]))[0].kind == roter.EINSTEIN

    def test_trivial_mapping_rejected(self):
        with pytest.raises(gm.FamilyError):
            gm.build_family(gm.FamilyConfig(c=0.0, d=4.0, c1=2.0, c2=1.0, map_shift=0.0))

    def test_factory_consistency_with_constrained_base(self):
        # The constant-curvature factory with E = -4C, K = -D/4 must
        # reproduce the family's first base component pointwise.
        fam = family_for("exponential")
        factory = constant_curvature_2d(
            "x", -fam.cfg.d / 4.0, -4.0 * fam.cfg.c, coords=("x", "t")
        )
        binds = gm._family_bindings(fam.cfg)
        for x in (1.4, 1.8, 2.3):
            pmap = {"x": x, "t": 0.0}
            a_fam = ex.evaluate(fam.source.base.components[0][0], pmap, binds)
            a_fac = ex.evaluate(factory.components[0][0], pmap, factory.bindings)
            assert scalar_residual(a_fam, a_fac) < 1e-12

    def test_base_gauss_curvatures(self):
        fam = family_for("affine")
        points = sample(fam, np.random.default_rng(0), 2)
        kg, kg_bar = gm.base_gauss_values(*member_diagnostics(fam, points))
        assert kg == pytest.approx([-1.0] * 2, abs=1e-10)
        assert kg_bar == pytest.approx([-0.5] * 2, abs=1e-10)


class TestFamilyCompatibility:
    @pytest.mark.parametrize("branch", list(BRANCHES))
    @pytest.mark.parametrize("n", [4, 5])
    def test_mapping_equations(self, branch, n):
        fam = family_for(branch, n=n)
        rng = np.random.default_rng(hash((branch, n)) % 2**32)
        points = sample(fam, rng, 2)
        d, d_bar = member_diagnostics(fam, points)
        frames, jets = (d.frame, d_bar.frame), psi_jets(psi_program(fam), points)
        assert np.all(gm.geodesic_compatibility_residual(*frames, jets) < 1e-9)
        assert np.all(gm.christoffel_shift_residual(*frames, jets) < 1e-9)
        assert np.all(gm.ricci_shift_residual(*frames, jets) < 1e-8)
        r4, r5 = gm.warp_compatibility_residuals(fam, d, d_bar, jets)
        assert np.all(r4 < 1e-9) and np.all(r5 < 1e-9)

    def test_scaling_image_warp_breaks_scale_equation(self):
        # Doubling the image warp leaves the log equation alone but
        # breaks the scale equation.
        fam = family_for("affine")
        doubled = wp.assemble(fam.image.base, fam.image.fiber,
                              ex.mul(ex.num(2.0), fam.image.warp))
        broken = dataclasses.replace(fam, image=doubled)
        pt = (1.0, 0.1, 0.05, -0.1)
        r4, r5 = gm.warp_compatibility_residuals(broken, *member_diagnostics(broken, pt),
                                                 psi_jets(psi_program(broken), [pt]))
        assert r5 < 1e-12
        assert r4 > 1e-3

    def test_psi_closed_forms(self):
        for branch in BRANCHES:
            fam = family_for(branch)
            rng = np.random.default_rng(5)
            points = sample(fam, rng, 2)
            d = member_diagnostics(fam, points)[0]
            v, jets = values_at(fam, points), psi_jets(psi_program(fam), points)
            for name, res in gm.family_psi_closed_forms(fam, d, v, jets).items():
                assert np.all(res < 1e-9), (branch, name, res)

    def test_image_ricci_closed_forms(self):
        for branch in BRANCHES:
            fam = family_for(branch, n=5)
            rng = np.random.default_rng(6)
            points = sample(fam, rng, 2)
            d_bar = diagnostics_at(fam.image, points)
            v = values_at(fam, points)
            for name, res in gm.family_image_ricci_forms(fam, d_bar, v).items():
                assert np.all(res < 1e-8), (branch, name, res)

    def test_warp_profile_pde(self):
        fam = family_for("trigonometric")
        points = sample(fam, np.random.default_rng(8), 2)
        d, root = diagnostics_at(fam.source, points), gm.cut(fam, program_jets(fam, points))["root"]
        for name, res in gm.warp_profile_pde_residuals(d, root).items():
            assert np.all(res < 1e-9), (name, res)


class TestFactorRelations:
    @pytest.mark.parametrize("branch", list(BRANCHES))
    def test_relations_hold(self, branch):
        fam = family_for(branch)
        rng = np.random.default_rng(hash(branch) % 2**32)
        points = sample(fam, rng, 2)
        frames, fits, products = frames_fits_and_products(fam, points)
        relations = gm.factor_relations(fam, frames, fits, values_at(fam, points))
        for tag, member_fits, P in zip(("cor42_source", "cor42_image"), fits, products):
            relations[tag] = gm.corollary42_residual(fam.cfg.n, member_fits, P)
        for name, res in relations.items():
            assert np.all(res <= 1e-8), (branch, name, res)

    def test_expected_factor_values(self):
        fam = family_for("exponential", map_scale=2.0, map_shift=1.0)
        # L_R = -D/4 = -1; image: -(D + 4qC)/(4p) = -(4+4)/8 = -1.
        assert fam.l_r_expected == -1.0
        assert fam.l_r_image_expected == -1.0
        fam2 = family_for("affine", map_scale=2.0, map_shift=1.0)
        assert fam2.l_r_image_expected == -0.5

    def test_constant_type_on_both_members(self):
        fam = family_for("affine")
        rng = np.random.default_rng(12)
        src_vals, img_vals = [], []
        for pt in sample(fam, rng, 8):
            src_vals.append(roter.fit_roter(stack([geo.frame(fam.source.product, pt)]))[0].L_R)
            img_vals.append(roter.fit_roter(stack([geo.frame(fam.image.product, pt)]))[0].L_R)
        assert constancy_residual(src_vals) <= 1e-8
        assert constancy_residual(img_vals) <= 1e-8
        assert np.mean(src_vals) == pytest.approx(-1.0, abs=1e-9)
        assert np.mean(img_vals) == pytest.approx(-0.5, abs=1e-9)

    def test_both_members_are_roter(self):
        fam = family_for("trigonometric", n=6)
        pt = sample(fam, np.random.default_rng(3), 1)[0]
        for member in (fam.source, fam.image):
            assert roter.classify(stack([geo.frame(member.product, pt)]))[0].kind == roter.ROTER


class TestPsiRicciIdentity:
    @pytest.mark.parametrize("branch", list(BRANCHES))
    def test_identity_holds(self, branch):
        fam = family_for(branch)
        pt = sample(fam, np.random.default_rng(4), 1)[0]
        frames, fits, _ = frames_fits_and_products(fam, [pt])
        assert gm.psi_ricci_identity_residual(fam, frames, fits, psi_jets(psi_program(fam), [pt])) <= 1e-7

    def test_perturbation_control(self):
        fam = family_for("affine")
        pt = sample(fam, np.random.default_rng(4), 1)[0]
        frames, ((sfit,), (ifit,)), _ = frames_fits_and_products(fam, [pt])
        perturbed = ([sfit], [dataclasses.replace(ifit, phi=1.01 * ifit.phi)])
        assert gm.psi_ricci_identity_residual(fam, frames, perturbed,
                                              psi_jets(psi_program(fam), [pt])) > 1e-4

    def test_semisymmetric_source_rejected(self):
        # d = 0 gives both members a Roter fit, the source with L_R = 0,
        # so R.R vanishes there, and the guard in front of the identity
        # fires.
        fam = gm.build_family(gm.FamilyConfig(c=1.0, d=0.0, c1=1.0, c2=0.5))
        pt = (1.2, 0.3, 0.1, -0.1)
        frames, fits, products = frames_fits_and_products(fam, [pt])
        assert fits[0][0].L_R == pytest.approx(0.0, abs=1e-12)
        assert gm.semisymmetric(products[0]["RR"], frames[0]).tolist() == [True]


class TestEinsteinToggle:
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_matched_fiber_scalar_is_einstein_both_sides(self, n):
        cfg0 = BRANCHES["affine"]
        matched = (n - 3) * (n - 2) * 4.0  # invariant of B = 2t+1 is 4
        fam = family_for("affine", n=n, fiber_scalar=matched,
                         allow_conformally_flat=True)
        rng = np.random.default_rng(n)
        for pt in sample(fam, rng, 2):
            for member in (fam.source, fam.image):
                frame = stack([geo.frame(member.product, pt)])
                assert roter.classify(frame)[0].kind == roter.EINSTEIN
                rho0, flat = wp.conformal_flatness_test(diagnostics_at(member, pt))
                assert flat, rho0
        assert cfg0.fiber_scalar != matched

    @pytest.mark.parametrize("n", [4, 5])
    def test_unmatched_fiber_scalar_is_roter_both_sides(self, n):
        fam = family_for("affine", n=n)
        pt = sample(fam, np.random.default_rng(n + 50), 1)[0]
        for member in (fam.source, fam.image):
            frame = stack([geo.frame(member.product, pt)])
            c = roter.classify(frame)[0]
            assert c.kind == roter.ROTER
            assert roter.rank_grid_exceeds_one(frame, [c], [()])[0]


class TestIndefiniteBase:
    def test_negative_first_component_family(self):
        # d < 0 turns the base Lorentzian (a < 0); admissibility only
        # requires nondegeneracy and every relation is signature-blind.
        fam = gm.build_family(gm.FamilyConfig(c=0.0, d=-2.0, c1=2.0, c2=1.0))
        pt = (1.1, 0.2, 0.1, -0.15)
        assert member_ok(fam.source.product, pt) and member_ok(fam.image.product, pt)
        assert fam.guards_hold(values_at(fam, [pt]))[0]
        f = geo.frame(fam.source.product, pt)
        assert f.g[0, 0] < 0 < f.g[1, 1]
        assert roter.classify(stack([f]))[0].kind == roter.ROTER
        frames, fits, products = frames_fits_and_products(fam, [pt])
        jets = psi_jets(psi_program(fam), [pt])
        assert gm.geodesic_compatibility_residual(*frames, jets) < 1e-9
        relations = gm.factor_relations(fam, frames, fits, values_at(fam, [pt]))
        for tag, member_fits, P in zip(("cor42_source", "cor42_image"), fits, products):
            relations[tag] = gm.corollary42_residual(fam.cfg.n, member_fits, P)
        for name, res in relations.items():
            assert res <= 1e-8, (name, res)
        kg, kg_bar = gm.base_gauss_values(*member_diagnostics(fam, pt))
        assert kg == pytest.approx(0.5, abs=1e-10)       # -d/4
        assert kg_bar == pytest.approx(0.25, abs=1e-10)  # -(d+4qc)/(4p)


class TestOneProgram:
    """A mapped pair's one program: each block reads as its own program
    would, and sampling on it admits what a program per part admits."""

    @pytest.mark.parametrize("entry", [name for name in corpus_list()
                                       if corpus_get(name)["manifolds"][0]["kind"]
                                       in ("family", "pair2d")])
    def test_each_block_equals_its_own_program(self, entry):
        # Source, image, psi and a family's values and sqrt(F), each
        # against ex.jet of that block alone at 5 seeded points, bit for
        # bit: the float run and the complex twin at the Bianchi steps.
        manifest = corpus_get(entry)
        job = cli.build_job(manifest["manifolds"][0])
        mapped, spec = job.mapped, job.targets[0].spec
        points = cli.sample_points(job, 5, np.random.default_rng([32, 5]))
        steps = (np.array(points)[:, None] + 1j * 1e-30 * np.eye(spec.dim)).reshape(-1, spec.dim)
        program = spec._component_jet
        runs = ((program, points), (program.complex, steps.tolist()))
        merged = [run(pts) for run, pts in runs]
        start, blocks = 0, program_blocks(mapped)
        assert spec is program_spec(mapped) and list(blocks)[:3] == ["source", "image", "psi"]
        for name, exprs in blocks.items():
            alone = ex.jet(exprs, spec.coords, spec.bindings, 2)
            columns = np.arange(start, start + len(exprs))
            for jets, (run, pts) in zip(merged, ((alone, points), (alone.complex, steps.tolist()))):
                for got, want in zip(jets, run(pts)):
                    assert got[..., columns].tobytes() == want.tobytes(), (entry, name)
            start += len(exprs)
        assert start == merged[0][0].shape[1]

    @pytest.mark.parametrize("entry, box", [
        ("theorem41_n4", {"x": [-0.5, 1.5], "t": [-1.0, 1.0]}),
        ("surface_pair", {"x": [-1.0, 1.0], "y": [0.0, 2.0]}),
    ])
    def test_sampling_agrees_with_a_program_per_part(self, entry, box):
        # With 𝔟 = x^9 and a box widened past the corpus's, the members'
        # conditions reject candidates (𝔟 = 0 and a warp F = 𝔟B² < 0
        # below x = 0.05) and, on the family, the guards do (D𝔟 - 4C =
        # 4x^9 below GUARD_FLOOR up to x = 0.21).  psi's operations are
        # those of the members' 2-jets, so psi rejects no candidate they
        # admit.
        mdef = corpus_get(entry)["manifolds"][0]
        mdef["params" if "params" in mdef else "pair"]["b"] = "x^9"
        job, rng = cli.build_job(mdef), np.random.default_rng(32)
        mapped = job.mapped
        coords = job.targets[0].spec.coords
        candidates = [tuple(float(rng.uniform(*box.get(c, [-0.3, 0.3]))) for c in coords)
                      for _ in range(300)]
        verdicts = [mapped_point_ok(mapped, pt) for pt in candidates]
        assert job.sample_ok(candidates) == verdicts
        rejected = [pt for pt, ok in zip(candidates, verdicts) if not ok]
        by_conditions = [pt for pt in rejected
                         if not all(geo.admissible(t.spec, [pt])[0] for t in job.targets)]
        assert 0 < len(by_conditions) and len(rejected) < len(candidates)
        guarded = [pt for pt in rejected if pt not in by_conditions]
        assert bool(guarded) == (job.kind == "family")
        for pt in guarded:
            values = point_family_values(mapped, pt)
            assert min(abs(values[key]) for key in ("one_plus_qb", "shape", "bp", "B")) < gm.GUARD_FLOOR


def test_only_geomap_knows_the_program_layout():
    # Where each block sits in a mapped pair's program is geomap's
    # alone: no other module reads the columns image_at and psi_at, and
    # geometry and warped take no column offset (jet_block's columns
    # index the jets it is given).
    src = pathlib.Path(gm.__file__).parent
    readers = {path.name for path in src.glob("*.py")
               if re.search(r"\b(image_at|psi_at)\b", path.read_text(encoding="utf-8"))}
    assert readers == {"geomap.py"}
    for fn, params in ((geo.metric_jets, ["spec", "points"]), (geo.admissible, ["spec", "points"]),
                       (geo.jet_block, ["jets", "columns", "axes"]),
                       (wp.WarpedSpec.blocks, ["self", "jets"])):
        assert list(inspect.signature(fn).parameters) == params, fn.__qualname__
