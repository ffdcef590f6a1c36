"""The Roter path on chunks of points.

Every roter entry takes a chunk of frames, stacked as geometry.frames
stacks them.
Each lane of a chunk must get what the same call on that point alone,
as a chunk of one, gets: the same classification and fit-error reason,
and residuals, factors and products equal to 1e-14, whatever the chunk
size and whatever kinds of points share the chunk.
"""

import warnings

import numpy as np
import pytest

from curvcheck import cli, roter
from curvcheck import geometry as geo
from curvcheck.corpus import corpus_get, corpus_list

from helpers import stack
from test_roter import RN_POINT, family_n4, rn_metric

# Chunk sizes tried on the corpus targets; the largest, 18, takes every
# sampled point of a target as one chunk.  Chunks at roter.chunk_size(4)
# = 64 run in test_stacked_suites.py, as 60-point runs of a charged chart.
CHUNK_SIZES = (1, 2, 18)
# Sampled points per target: 18 at n = 4, fewer where each point costs more.
POINTS = {4: 18, 5: 6, 6: 3}
TOL = 1e-14
PRODUCTS = sorted(roter._PRODUCTS)


def close(a, b, where=""):
    """a == b, with floats and arrays to TOL relative to their scale."""
    if isinstance(a, roter.RoterFitError):
        assert isinstance(b, roter.RoterFitError) and (a.reason, str(a)) == (b.reason, str(b)), where
    elif isinstance(a, dict):
        assert a.keys() == b.keys(), where
        for key in a:
            close(a[key], b[key], f"{where}.{key}")
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            close(x, y, f"{where}[{i}]")
    elif hasattr(a, "__dataclass_fields__"):
        assert type(a) is type(b), where
        for name in a.__dataclass_fields__:
            close(getattr(a, name), getattr(b, name), f"{where}.{name}")
    elif isinstance(a, np.ndarray):
        assert a.shape == b.shape, where
        assert np.linalg.norm(a - b) <= TOL * (np.linalg.norm(b) + 1.0), where
    elif isinstance(a, float) and isinstance(b, float):
        assert abs(a - b) <= TOL * max(1.0, abs(a), abs(b)), (where, a, b)
    else:
        assert a == b, (where, a, b)


def one_point(f):
    """Every roter entry on one point's frame, as a chunk of one."""
    F = stack([f])
    (c,), (fit,) = roter.classify(F), roter.fit_roter(F)
    P = roter.curvature_products(F)
    out = {
        "classification": c,
        "fit": fit,
        "membership": tuple(bool(fn(F)[0]) for fn in (roter.in_us, roter.in_uc, roter.in_ur)),
        "factors": roter.pseudosymmetry_factors(F, P)[0],
        "ricci": roter.ricci_pseudosymmetry(F, P)[0],
        "grid": bool(roter.rank_grid_exceeds_one(F, [c])[0]),
        "products": {key: P[key][0] for key in PRODUCTS},
    }
    if c.kind == roter.ROTER:
        out["identities"] = roter.identity_suite(F, [c.fit], P)[0]
    return out


def chunked(frames):
    """Every roter entry on one chunk of frames, unpacked lane by lane."""
    F = stack(frames)
    cs = roter.classify(F)
    P = roter.curvature_products(F)
    membership = zip(*(fn(F).tolist() for fn in (roter.in_us, roter.in_uc, roter.in_ur)))
    lanes = [
        {"classification": c, "fit": fit, "membership": m, "factors": factors, "ricci": ricci,
         "grid": bool(grid), "products": {key: P[key][i] for key in PRODUCTS}}
        for i, (c, fit, m, factors, ricci, grid) in enumerate(zip(
            cs, roter.fit_roter(F), membership, roter.pseudosymmetry_factors(F, P),
            roter.ricci_pseudosymmetry(F, P),
            roter.rank_grid_exceeds_one(F, cs)))
    ]
    # The identity suite runs on the ROTER lanes, indexed out first.
    keep = [i for i, c in enumerate(cs) if c.kind == roter.ROTER]
    if keep:
        sub = F.take(keep)
        results = roter.identity_suite(sub, [cs[i].fit for i in keep], roter.curvature_products(sub))
        for i, res in zip(keep, results):
            lanes[i]["identities"] = res
    return lanes


def corpus_frames():
    """(entry, target, frames) for every corpus target of dimension 4 or more."""
    out = []
    for name in corpus_list():
        manifest = corpus_get(name)
        for index, mdef in enumerate(manifest["manifolds"]):
            job = cli.build_job(mdef)
            n = job.targets[0].spec.dim
            if n < 4:
                continue
            rng = np.random.default_rng([manifest.get("seed", 0), index])
            points = cli.sample_points(job, POINTS[n], rng)
            for target in job.targets:
                out.append((name, target.label, [geo.frame(target.spec, pt) for pt in points]))
    return out


@pytest.fixture(scope="module")
def corpus_targets():
    return [(name, label, frames, [one_point(f) for f in frames])
            for name, label, frames in corpus_frames()]


def test_chunk_size_follows_the_bivector_count():
    # A chunk holds as many points as keep an order-4 curvature array
    # (n**4 floats) within 256 KB; its curvature products are built in
    # groups of as many lanes as keep a stacked order-6 product (m**3
    # floats, m the bivector count) within 128 KB.
    assert (roter.CHUNK_BYTES, roter.PRODUCT_BYTES) == (256 * 1024, 128 * 1024)
    assert [roter.chunk_size(n) for n in (2, 3, 4, 5, 6, 7)] == [2048, 404, 128, 52, 25, 13]
    assert [roter.product_lanes(n) for n in (2, 3, 4, 5, 6, 7)] == [16384, 606, 75, 16, 4, 1]
    for n in (2, 3, 4, 5, 6, 7):
        m = n * (n - 1) // 2
        assert roter.chunk_size(n) * 8 * n ** 4 <= roter.CHUNK_BYTES
        assert roter.product_lanes(n) * 8 * m ** 3 <= roter.PRODUCT_BYTES


@pytest.mark.parametrize("size", CHUNK_SIZES)
def test_chunks_equal_one_point_calls_on_the_corpus(corpus_targets, size):
    assert {n for _, _, frames, _ in corpus_targets for n in [frames[0].dim]} == {4, 5, 6}
    for name, label, frames, alone in corpus_targets:
        for start in range(0, len(frames), size):
            lanes = chunked(frames[start:start + size])
            for offset, (got, want) in enumerate(zip(lanes, alone[start:start + size])):
                close(got, want, f"{name}/{label}/point {start + offset}")


def mixed_frames():
    """(frame, kind, fit-error reason) at one point of each kind, n = 4."""
    sphere = geo.diagonal_metric(("x1", "x2", "x3", "x4"),
                                 ["1/(1 - (x1^2+x2^2+x3^2+x4^2)/8)^2"] * 4)
    conf = "(1 + (y1^2+y2^2+y3^2)/4)^2"
    line_times_sphere = geo.diagonal_metric(
        ("x", "y1", "y2", "y3"), ["1", f"1/({conf})", f"1/({conf})", f"1/({conf})"])
    conformally_flat = geo.diagonal_metric(("x1", "x2", "x3", "x4"),
                                           ["exp(0.6*x1^2 + 0.4*x2*x3 + 0.2*x4)"] * 4)
    return [
        (geo.frame(rn_metric(1.0, 1.0, 0.0), RN_POINT), roter.ROTER, None),
        (geo.frame(sphere, (0.2, 0.1, -0.3, 0.05)), roter.EINSTEIN, "NOT_IN_US"),
        (geo.frame(rn_metric(1.0, 0.5, 0.1), (0.0, 5.0, 1.2, 0.3)), roter.OTHER, "ILL_CONDITIONED"),
        (geo.frame(line_times_sphere, (0.5, 0.1, -0.2, 0.3)), roter.QUASI_EINSTEIN, None),
        (geo.frame(conformally_flat, (0.3, 0.2, -0.1, 0.4)), roter.OTHER, "NOT_IN_UC"),
        (geo.frame(family_n4(), (1.4, 0.25, 0.1, 0.2)), roter.ROTER, None),
    ]


def test_mixed_chunk_matches_one_point_calls(monkeypatch):
    frames, kinds, reasons = zip(*mixed_frames())
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        alone = [one_point(f) for f in frames]
        # The fit sees only the lanes inside U_S and U_C: the others are
        # indexed out before the basis tensors are built.
        built = []
        kn = roter.kulkarni_nomizu
        monkeypatch.setattr(roter, "kulkarni_nomizu", lambda A, B: built.append(len(A)) or kn(A, B))
        fits = roter.fit_roter(stack(frames))
        inside = sum(us and uc for us, uc, _ in (want["membership"] for want in alone))
        assert 0 < inside < len(frames) and built == [inside] * 3
        monkeypatch.undo()
        lanes = chunked(list(frames))
    assert [c.kind for c in (lane["classification"] for lane in lanes)] == list(kinds)
    for lane, want, fit, kind, reason in zip(lanes, alone, fits, kinds, reasons):
        close(lane, want, kind)
        assert lane["classification"] == want["classification"]
        close(fit, want["fit"], kind)
        if reason is not None:
            assert fit.reason == want["fit"].reason == reason
        elif kind == roter.QUASI_EINSTEIN:
            assert lane["classification"].alpha == pytest.approx(2.0, rel=1e-8)
    assert [("identities" in lane) for lane in lanes] == [k == roter.ROTER for k in kinds]


def test_fit_errors_are_returned_in_their_lanes():
    frames = [f for f, _, _ in mixed_frames()[:2]]
    (alone,) = roter.fit_roter(stack(frames[1:]))
    assert isinstance(alone, roter.RoterFitError) and alone.reason == "NOT_IN_US"
    fit, error = roter.fit_roter(stack(frames))
    assert isinstance(fit, roter.RoterFit) and error.reason == "NOT_IN_US"
