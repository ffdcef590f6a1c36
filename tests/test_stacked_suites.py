"""The warped and geodesic suites on the stack.

Both suites run once over a chunk of points.  For every warped, family
and pair2d corpus target, at 18 sampled points (one chunk), each lane of
the stacked diagnostics, of every verify_* result and of every geodesic
residual equals the one-point oracle in helpers bit for bit.  Records do
not depend on how the points are chunked; sampling skips a candidate
whose psi jet fails, and the semisymmetry guard or a rejected fit at
one point fails that point only.
"""

import numpy as np
import pytest

from curvcheck import cli, roter
from curvcheck import expr as ex
from curvcheck import geomap as gm
from curvcheck import geometry as geo
from curvcheck import warped as wp
from curvcheck.corpus import corpus_get, corpus_list
from curvcheck.curvops import constancy_residual

from helpers import (
    point_christoffel_shift,
    point_conformal_flatness,
    point_curvature_blocks,
    point_diagnostics,
    point_factor_relations,
    point_family_image_ricci_forms,
    point_family_psi_closed_forms,
    point_family_values,
    point_gauss_curvature,
    point_geodesic_compatibility,
    point_gradient_residual,
    point_pair_christoffel_closed_forms,
    point_product_christoffels,
    point_proportional_blocks,
    point_psi_ricci_identity,
    point_ricci_shift,
    point_t_proportionality_residual,
    point_warp_compatibility,
    point_warp_profile_pde,
    point_weyl_blocks,
    program_jets,
    psi_jets,
    psi_program,
)

POINTS = 18
KINDS = ("warped", "family", "pair2d")
ENTRIES = [name for name in corpus_list() if corpus_get(name)["manifolds"][0]["kind"] in KINDS]


def job_and_points(name):
    manifest = corpus_get(name)
    job = cli.build_job(manifest["manifolds"][0])
    return job, cli.sample_points(job, POINTS, np.random.default_rng([manifest["seed"], 0]))


def same(got, want, where):
    """got and want hold the same float64 bits."""
    if want is None:
        assert got is None, where
        return
    a, b = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert a.shape == b.shape and a.tobytes() == b.tobytes(), (where, got, want)


def same_lanes(stacked: dict, alone: list, where):
    """Each lane of a dict of stacked residuals equals its point's dict."""
    for i, want in enumerate(alone):
        assert stacked.keys() == want.keys(), where
        for key, value in want.items():
            same(stacked[key][i], value, f"{where}[{i}].{key}")


def test_the_entries_cover_every_kind_and_dimension():
    jobs = [job_and_points(name)[0] for name in ENTRIES]
    assert {job.kind for job in jobs} == set(KINDS)
    assert {4, 5, 6} <= {job.targets[0].spec.dim for job in jobs}


@pytest.mark.parametrize("name", ENTRIES)
def test_warped_lanes_equal_the_one_point_forms(name):
    job, points = job_and_points(name)
    for target in job.targets:
        ws = target.warped_spec
        if ws is None:
            continue
        frame = geo.frames(ws.product, points)
        fiber = geo.frames(ws.fiber, [ws.split(point)[1] for point in points])
        d = wp.diagnostics(ws, frame, fiber, ws.blocks(geo.metric_jets(ws.product, points)))
        alone = [point_diagnostics(ws, f, g) for f, g in zip(frame.lanes(), fiber.lanes())]
        where = f"{name}/{target.label}"
        for i, one in enumerate(alone):
            for field in ("f_value", "grad", "t", "tr_t", "delta1",
                          "rho0", "rho1", "rho2", "rho3", "mu1", "mu2"):
                value = getattr(d, field)
                same(None if value is None else value[i], getattr(one, field), f"{where}.{field}")
            for field in ("g", "ginv", "gamma", "riemann", "ricci", "scalar"):
                same(getattr(d.base_frame, field)[i], getattr(one.base_frame, field),
                     f"{where}.base_frame.{field}")
        same(wp.verify_product_christoffels(d), [point_product_christoffels(one) for one in alone],
             f"{where}.product_christoffels")
        same(wp.t_proportionality_residual(d),
             [point_t_proportionality_residual(one) for one in alone], f"{where}.t_proportional")
        same_lanes(wp.verify_curvature_blocks(d), [point_curvature_blocks(one) for one in alone],
                   where)
        if ws.base_dim == 2 and ws.dim >= 4:
            same_lanes(wp.verify_weyl_blocks(d), [point_weyl_blocks(one) for one in alone], where)
            same_lanes(wp.verify_proportional_blocks(d),
                       [point_proportional_blocks(one) for one in alone], where)
            rho0, flat = wp.conformal_flatness_test(d)
            want = [point_conformal_flatness(one) for one in alone]
            same(rho0, [r for r, _ in want], f"{where}.rho0")
            assert flat.tolist() == [f for _, f in want], where


@pytest.mark.parametrize("name", [name for name in ENTRIES
                                  if corpus_get(name)["manifolds"][0]["kind"] != "warped"])
def test_geodesic_lanes_equal_the_one_point_forms(name):
    job, points = job_and_points(name)
    source, image = job.targets
    mapped = job.pair or job.family
    psi, run = psi_program(mapped), program_jets(mapped, points)
    frames = (geo.frames(source.spec, points), geo.frames(image.spec, points))
    lanes = list(zip(frames[0].lanes(), frames[1].lanes()))
    jets, values, root = gm.mapped_jets(mapped, run)
    for got, want in zip(jets, psi_jets(psi, points)):
        same(got, want, f"{name}.psi_jets")
    for fn, oracle in ((gm.geodesic_compatibility_residual, point_geodesic_compatibility),
                       (gm.christoffel_shift_residual, point_christoffel_shift),
                       (gm.ricci_shift_residual, point_ricci_shift)):
        same(fn(*frames, jets), [oracle(f, g, psi) for f, g in lanes], f"{name}.{fn.__name__}")
    same(gm.psi_gradient_residual(jets), [point_gradient_residual(psi, pt) for pt in points],
         f"{name}.psi_gradient")
    if job.kind == "pair2d":
        same_lanes(gm.pair_christoffel_closed_forms(job.pair, *frames),
                   [point_pair_christoffel_closed_forms(job.pair, f, g) for f, g in lanes], name)
        return
    fam = job.family
    d, d_bar = (wp.diagnostics(ws, frame, geo.frames(ws.fiber, [ws.split(p)[1] for p in points]),
                               ws.blocks(geo.metric_jets(ws.product, points)))
                for ws, frame in zip((fam.source, fam.image), frames))
    ones = [tuple(point_diagnostics(ws, f, geo.frame(ws.fiber, ws.split(f.point)[1]))
                  for ws, f in zip((fam.source, fam.image), pair)) for pair in lanes]
    vs = [point_family_values(fam, pt) for pt in points]
    same_lanes(values, vs, f"{name}.family_values")
    r4, r5 = gm.warp_compatibility_residuals(fam, d, d_bar, jets)
    want = [point_warp_compatibility(fam, *one) for one in ones]
    same(r4, [w[0] for w in want], f"{name}.warp_scale_equation")
    same(r5, [w[1] for w in want], f"{name}.warp_log_equation")
    same_lanes(gm.family_psi_closed_forms(fam, d, values, jets),
               [point_family_psi_closed_forms(fam, one[0], v) for one, v in zip(ones, vs)], name)
    same_lanes(gm.family_image_ricci_forms(fam, d_bar, values),
               [point_family_image_ricci_forms(fam, one[1], v) for one, v in zip(ones, vs)], name)
    same_lanes(gm.warp_profile_pde_residuals(d, root),
               [point_warp_profile_pde(fam, one[0]) for one in ones], name)
    for got, member in zip(gm.base_gauss_values(d, d_bar), (0, 1)):
        same(got, [point_gauss_curvature(one[member].base_frame) for one in ones],
             f"{name}.base_gauss")

    fits = tuple(roter.fit_roter(frame) for frame in frames)
    keep = [i for i in range(POINTS) if all(isinstance(f[i], roter.RoterFit) for f in fits)]
    if not keep:
        return
    frames = tuple(frame.take(keep) for frame in frames)
    fits = tuple([f[i] for i in keep] for f in fits)
    products = tuple(roter.curvature_products(frame) for frame in frames)
    relations = gm.factor_relations(fam, frames, fits, {k: v[keep] for k, v in values.items()})
    for tag, member_fits, P in zip(("cor42_source", "cor42_image"), fits, products):
        relations[tag] = gm.corollary42_residual(fam.cfg.n, member_fits, P)
    identity = gm.psi_ricci_identity_residual(fam, frames, fits, tuple(j[keep] for j in jets))
    semisymmetric = gm.semisymmetric(products[0]["RR"], frames[0])
    for lane, i in enumerate(keep):
        pair = tuple(frame.lanes()[lane] for frame in frames)
        fit = tuple(f[lane] for f in fits)
        alone = tuple(roter.curvature_products(f) for f in pair)
        want = point_factor_relations(fam, pair, fit, alone, vs[i])
        for key, value in want.items():
            same(relations[key][lane], value, f"{name}[{i}].{key}")
        try:
            same(identity[lane], point_psi_ricci_identity(fam, pair, fit, alone),
                 f"{name}[{i}].psi_ricci_identity")
            assert not semisymmetric[lane]
        except gm.FamilyError:
            assert semisymmetric[lane]


@pytest.mark.parametrize("size", [1, 3])
@pytest.mark.parametrize("name", ["theorem41_n4", "theorem41_c_pos_n5", "theorem41_c_neg_n6",
                                  "rn_lambda0", "negative_control_perturbed", "surface_pair",
                                  "unit_sphere"])
def test_records_do_not_depend_on_the_chunking(monkeypatch, name, size):
    # At their declared points the families run as one chunk of 10 (n = 4)
    # or 8 (n = 5), or as chunks of 4 and 2 (n = 6); chunks of 1 or 3
    # points write the same records.
    manifest = corpus_get(name)
    default, summary = cli.run_manifest(manifest)
    assert summary["ok"]
    monkeypatch.setattr(roter, "chunk_size", lambda n: size)
    chunked, _ = cli.run_manifest(manifest)
    assert chunked == default


def test_a_60_point_charged_chart_is_one_chunk(monkeypatch):
    # A charged chart as the benchmark's charged sweep draws one: no pinned
    # point, and an r-box that straddles the outer horizon, so sampling
    # rejects candidates.  Its 60 points run as one classify call of 60
    # lanes, and chunks of 18 or 1 write the same records.
    manifest = corpus_get("rn_lambda0")
    mdef = manifest["manifolds"][0]
    del mdef["pinned_points"], mdef["expect"]["pinned_scalars"]
    mass, charge = 1.3, 0.8
    r_plus = mass + np.sqrt(mass ** 2 - charge ** 2)
    mdef["constants"] = {"M": mass, "Q": charge, "Lam": 0.0}
    mdef["box"]["r"] = [0.6 * r_plus, 3.0 * r_plus]
    manifest.update(points=60, suites=["geometry-symmetries", "theorem21"])
    lanes, classify = [], roter.classify
    monkeypatch.setattr(roter, "classify",
                        lambda frame, *rest: lanes.append(len(frame.g)) or classify(frame, *rest))
    default, summary = cli.run_manifest(manifest)
    assert summary["ok"] and lanes == [60]
    assert {r["point_index"] for r in default} == set(range(60))
    for size in (18, 1):
        monkeypatch.setattr(roter, "chunk_size", lambda n: size)
        chunked, _ = cli.run_manifest(manifest)
        assert chunked == default, size


def failing_point_run(monkeypatch, plant):
    """Records of theorem41_c_neg_n6 at 16 points with and without a
    failure planted by plant(monkeypatch, bad) at point 3, and index 3."""
    manifest = corpus_get("theorem41_c_neg_n6")
    clean, summary = cli.run_manifest(manifest, points=16)
    assert summary["ok"]
    bad = cli.sample_points(cli.build_job(manifest["manifolds"][0]), 16,
                            np.random.default_rng([manifest["seed"], 0]))[3]
    plant(monkeypatch, bad)
    planted, summary = cli.run_manifest(manifest, points=16)
    assert not summary["ok"]
    for index in set(range(16)) - {3}:
        assert ([r for r in planted if r["point_index"] == index]
                == [r for r in clean if r["point_index"] == index]), index
    at = [r for r in planted if r["point_index"] == 3]
    was = [r for r in clean if r["point_index"] == 3]
    def geodesic(records, keep=True):
        return [r for r in records if (r["suite"] == "geodesic") == keep]

    assert geodesic(at, keep=False) == geodesic(was, keep=False)
    assert len([r for r in geodesic(at) if r["check"] == "error"]) == 1
    return [r for r in geodesic(at) if r["check"] != "error"], geodesic(was)


def test_a_candidate_whose_psi_jet_fails_is_not_sampled(monkeypatch):
    # Sampling runs each candidate's one program, psi jet included, so no
    # suite meets one that raises: the candidate is skipped and the next
    # one takes its place.
    manifest = corpus_get("theorem41_c_neg_n6")
    mdef = manifest["manifolds"][0]

    def sampled():
        rng = np.random.default_rng([manifest["seed"], 0])
        return cli.sample_points(cli.build_job(mdef), 16, rng)

    clean = sampled()
    bad = clean[3]
    build_family = gm.build_family

    def planting(cfg):
        family = build_family(cfg)
        spec = family.source.product
        program = spec._component_jet

        def planted(points):
            if bad in map(tuple, points):
                raise ex.DomainError("planted", "psi")
            return program(points)
        planted.complex = program.complex
        spec.__dict__["_component_jet"] = planted  # where the cached_property keeps it
        return family

    monkeypatch.setattr(gm, "build_family", planting)
    points = sampled()
    assert bad not in points and points[:3] == clean[:3] and points[3:15] == clean[4:]
    records, summary = cli.run_manifest(manifest, points=16)
    assert summary["ok"] and all(r["check"] != "error" for r in records)
    assert {tuple(r["point"]) for r in records if r["point_index"] == 3} != {bad}


def test_a_rejected_fit_fails_only_the_fitted_geodesic_checks(monkeypatch):
    # fit_roter rejects the image at point 1 of theorem41_n4.  There the
    # geodesic suite records its checks that read no fit and roter_fits,
    # with the rejection message; the L_R constancy runs over the others.
    manifest = corpus_get("theorem41_n4")
    mdef = manifest["manifolds"][0]
    clean, summary = cli.run_manifest(manifest, points=4)
    assert summary["ok"]
    unfitted = corpus_get("theorem41_n4")
    unfitted["manifolds"][0]["expect"]["classify"] = "OTHER"  # so no fit is read
    no_fit, _ = cli.run_manifest(unfitted, points=4, suites=["geodesic"])
    job = cli.build_job(mdef)
    bad = cli.sample_points(job, 4, np.random.default_rng([manifest["seed"], 0]))[1]
    image, fit_roter = job.targets[1].spec, roter.fit_roter

    def rejecting(frame):
        fits = fit_roter(frame)
        if frame.spec != image:
            return fits
        return [roter.RoterFitError("RESIDUAL", "planted") if point == bad else fit
                for point, fit in zip(frame.point, fits)]

    monkeypatch.setattr(roter, "fit_roter", rejecting)
    planted, summary = cli.run_manifest(manifest, points=4)
    assert not summary["ok"]

    def geodesic(records, index):
        return [r for r in records if r["suite"] == "geodesic" and r["point_index"] == index]

    flag = [r for r in geodesic(planted, 1) if r["check"] == "roter_fits"]
    assert len(flag) == 1 and not flag[0]["ok"] and flag[0]["detail"] == "RESIDUAL: planted"
    assert [r for r in geodesic(planted, 1) if r["check"] != "roter_fits"] == geodesic(no_fit, 1)
    for index in (0, 2, 3):
        assert geodesic(planted, index) == geodesic(clean, index)
    fitted = {(r["target"], r["point_index"]): r["scalars"]["L_R"] for r in clean
              if r["check"] == "fit_scalars"}
    for label in ("source", "image"):
        want = constancy_residual([fitted[label, i] for i in (0, 2, 3)])
        (got,) = [r["residual"] for r in geodesic(planted, -1)
                  if r["check"] == f"l_r_constancy_{label}"]
        assert got == want


def test_the_semisymmetry_guard_fails_its_point_only(monkeypatch):
    def plant(monkeypatch, bad):
        guard = gm.semisymmetric

        def planted(RR, frame):
            return guard(RR, frame) | np.array([tuple(p) == bad for p in frame.point])

        monkeypatch.setattr(gm, "semisymmetric", planted)

    kept, clean = failing_point_run(monkeypatch, plant)
    assert kept == [r for r in clean if r["check"] != "psi_ricci_identity"]
    assert len(kept) == len(clean) - 1
