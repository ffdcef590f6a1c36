"""Batch verification front-end.

Reads a manifest (JSON file or built-in corpus entry), samples
admissible points per manifold, runs the selected check suites and
writes a structured report:

    <name>.records.jsonl   one JSON record per check per point
    <name>.summary.json    counts, environment stamp, verdict
    <name>.summary.txt     human-readable digest

Identical manifest and seed produce byte-identical records and summary
(modulo the summary timestamp field).  Exit codes: 0 all checks agree
with expectations, 1 at least one check off-expectation (an error at a
sampled point is recorded as an off-expectation "error" check and the
report is still written), 2 manifest, schema or out-of-range
--points / --tol-scale error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import sys
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import __version__
from . import corpus as corpus_mod
from . import expr as ex
from . import geometry as geo
from . import geomap as gm
from . import roter
from . import warped as wp
from .curvops import (
    constancy_residual,
    lane_max_abs_residuals,
    lane_riemann_symmetry_residuals,
    lane_trace_residuals,
    scalar_residual,
    tensor_residual,
)

SUITES = ("geometry-symmetries", "theorem21", "warped-diagnostics", "geodesic", "all")

DEFAULT_TOLERANCES = {
    "strict": 1e-10,
    "geo": 1e-9,
    "identity": 1e-8,
    "compound": 1e-7,
    "smoke": 1e-4,
    "pinned": 1e-6,
}

OUT_ENV = "CURVCHECK_OUT"

_number = {"type": "number"}
_string = {"type": "string"}
_suites = {"type": "array", "minItems": 1, "items": {"enum": list(SUITES)}}
_expr_matrix = {"type": "array", "items": {"type": "array", "items": _string}}
_conditions = {
    "type": "array",
    "items": {
        "type": "array",
        "minItems": 2,
        "maxItems": 2,
        "items": [_string, {"enum": ["positive", "nonzero"]}],
    },
}
_explicit_fields = {
    "coords": {"type": "array", "items": _string, "minItems": 1},
    "metric": _expr_matrix,
    "conditions": _conditions,
}
_expect_schema = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "classify": {"enum": ["EINSTEIN", "QUASI_EINSTEIN", "ROTER", "OTHER"]},
        "ricci_pseudosymmetric": {"type": "boolean"},
        "conformally_flat": {"type": "boolean"},
        "scalars": {"type": "object", "additionalProperties": _number},
        "pinned_scalars": {
            "type": "array",
            "items": {"type": "object", "additionalProperties": _number},
        },
    },
}
_manifold_schema = {
    "type": "object",
    "additionalProperties": False,
    "required": ["name", "kind", "box"],
    "properties": {
        "name": _string,
        "kind": {"enum": ["explicit", "warped", "family", "pair2d"]},
        "box": {
            "type": "object",
            "additionalProperties": {
                "type": "array", "minItems": 2, "maxItems": 2, "items": _number
            },
        },
        "pinned_points": {
            "type": "array",
            "items": {"type": "object", "additionalProperties": _number},
        },
        "constants": {"type": "object", "additionalProperties": _number},
        "suites": _suites,
        "expect": _expect_schema,
        "perturb": {
            "type": "object",
            "additionalProperties": False,
            "required": ["target", "epsilon"],
            "properties": {"target": {"enum": ["ricci"]}, "epsilon": _number},
        },
        **_explicit_fields,
        "base": {
            "type": "object",
            "additionalProperties": False,
            "properties": {**_explicit_fields, "constants": {"type": "object", "additionalProperties": _number}},
            "required": ["coords", "metric"],
        },
        "fiber": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "dim": {"type": "integer", "minimum": 2},
                "scalar_curvature": _number,
                **_explicit_fields,
            },
        },
        "warp": _string,
        "params": {
            "type": "object",
            "additionalProperties": False,
            "required": ["c", "d", "c1", "c2"],
            "properties": {
                "c": _number, "d": _number, "c1": _number, "c2": _number,
                "b": _string,
                "fiber_dim": {"type": "integer", "minimum": 2},
                "fiber_scalar": _number,
                "map_scale": _number, "map_shift": _number,
                "allow_conformally_flat": {"type": "boolean"},
            },
        },
        "pair": {
            "type": "object",
            "additionalProperties": False,
            "required": ["a", "b", "map_scale", "map_shift"],
            "properties": {
                "a": _string, "b": _string,
                "map_scale": _number, "map_shift": _number,
            },
        },
    },
}
MANIFEST_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["name", "manifolds"],
    "properties": {
        # The report file stem: a plain file name, never a path.
        "name": {"type": "string", "pattern": "^[A-Za-z0-9_][A-Za-z0-9_.-]*$"},
        "description": _string,
        "seed": {"type": "integer", "minimum": 0},
        "points": {"type": "integer", "minimum": 1},
        "suites": _suites,
        "tolerances": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                k: {"type": "number", "exclusiveMinimum": 0} for k in DEFAULT_TOLERANCES
            },
        },
        "manifolds": {"type": "array", "minItems": 1, "items": _manifold_schema},
    },
}


class ManifestError(ValueError):
    pass


def load_manifest(source: str) -> dict:
    """Path to a JSON manifest, or a corpus name (corpus/ prefix allowed)."""
    if os.path.exists(source):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                data = json.load(fh, parse_constant=_reject_constant)
        except json.JSONDecodeError as err:
            raise ManifestError(f"manifest is not valid JSON: {err}") from None
        except (OSError, UnicodeDecodeError) as err:
            raise ManifestError(f"cannot read manifest {source!r}: {err}") from None
    else:
        try:
            data = corpus_mod.corpus_get(source)
        except KeyError:
            raise ManifestError(
                f"{source!r} is neither a file nor a corpus entry; "
                f"known entries: {', '.join(corpus_mod.corpus_list())}"
            ) from None
    validate_manifest(data)
    return data


def _reject_constant(name):
    raise ManifestError(f"manifest is not valid JSON: {name} is not a JSON number")


def _validate_overrides(points, tol_scale) -> None:
    """Overrides obey the schema's bounds: points >= 1, finite tol_scale > 0."""
    if points is not None and points < 1:
        raise ManifestError(f"points must be at least 1, got {points}")
    if not (math.isfinite(tol_scale) and tol_scale > 0):
        raise ManifestError(f"tolerance scale must be finite and positive, got {tol_scale}")


# Each kind's own manifold keys, (required, optional); a manifold may
# carry no key of another kind.
_KIND_KEYS = {
    "explicit": (("coords", "metric"), ("conditions",)),
    "warped": (("base", "fiber", "warp"), ()),
    "family": (("params",), ()),
    "pair2d": (("pair",), ()),
}


# Draft-7 type tests: a boolean is no number, and 1.0 is an integer.
_JSON_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                          or isinstance(v, float) and v.is_integer()),
}


def schema_errors(instance, schema: dict, path: tuple = ()):
    """Yield (path, message) for each draft-7 violation of schema by instance.

    Interprets only the keywords MANIFEST_SCHEMA uses: type, enum,
    required, properties, additionalProperties (false or a schema),
    items (one schema or a tuple of them), minItems, maxItems, minimum,
    exclusiveMinimum and pattern.  As in draft 7, a keyword ignores an
    instance of a type it does not apply to.  Paths and messages follow
    jsonschema's Draft7Validator.
    """
    kind = schema.get("type")
    if kind is not None and not _JSON_TYPES[kind](instance):
        yield path, f"{instance!r} is not of type {kind!r}"
    if "enum" in schema and instance not in schema["enum"]:
        yield path, f"{instance!r} is not one of {schema['enum']!r}"
    if isinstance(instance, dict):
        for key in schema.get("required", ()):
            if key not in instance:
                yield path, f"{key!r} is a required property"
        properties = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        for key, value in instance.items():
            sub = properties.get(key, extra)
            if isinstance(sub, dict):
                yield from schema_errors(value, sub, path + (key,))
        unexpected = sorted(key for key in instance if key not in properties)
        if extra is False and unexpected:
            verb = "was" if len(unexpected) == 1 else "were"
            yield path, (f"Additional properties are not allowed "
                         f"({', '.join(map(repr, unexpected))} {verb} unexpected)")
    elif isinstance(instance, list):
        if len(instance) < schema.get("minItems", 0):
            short = "should be non-empty" if schema["minItems"] == 1 else "is too short"
            yield path, f"{instance!r} {short}"
        if len(instance) > schema.get("maxItems", math.inf):
            yield path, f"{instance!r} is too long"
        items = schema.get("items", {})
        subs = items if isinstance(items, list) else [items] * len(instance)
        for index, (value, sub) in enumerate(zip(instance, subs)):
            yield from schema_errors(value, sub, path + (index,))
    elif isinstance(instance, str):
        if "pattern" in schema and not re.search(schema["pattern"], instance):
            yield path, f"{instance!r} does not match {schema['pattern']!r}"
    elif _JSON_TYPES["number"](instance):
        if instance < schema.get("minimum", -math.inf):
            yield path, f"{instance!r} is less than the minimum of {schema['minimum']!r}"
        if instance <= schema.get("exclusiveMinimum", -math.inf):
            yield path, (f"{instance!r} is less than or equal to the minimum of "
                         f"{schema['exclusiveMinimum']!r}")


def validate_manifest(data: dict) -> None:
    errors = sorted((message, "/".join(map(str, path)) or "<root>")
                    for path, message in schema_errors(data, MANIFEST_SCHEMA))
    if errors:
        joined = "; ".join(f"{where}: {message}" for message, where in errors[:5])
        raise ManifestError(f"manifest schema violation: {joined}")
    for mdef in data["manifolds"]:
        kind = mdef["kind"]
        for key in _KIND_KEYS[kind][0]:
            if key not in mdef:
                raise ManifestError(f"manifold {mdef['name']!r}: kind {kind} needs {key!r}")
        foreign = [key for other, (needed, optional) in _KIND_KEYS.items() if other != kind
                   for key in needed + optional if key in mdef]
        if foreign:
            raise ManifestError(f"manifold {mdef['name']!r}: kind {kind} does not take "
                                f"{', '.join(map(repr, foreign))}")
        if "fiber" in mdef:
            keys = mdef["fiber"].keys()
            model = keys & {"dim", "scalar_curvature"}
            if not ("dim" in model and model == keys or not model and keys >= {"coords", "metric"}):
                raise ManifestError(f"manifold {mdef['name']!r}: fiber needs either 'dim' or both "
                                    f"'coords' and 'metric', not keys of both forms")
        for block in (mdef, mdef.get("base"), mdef.get("fiber")):
            if not block or "metric" not in block:
                continue
            n = len(block.get("coords", ()))
            rows = block["metric"]
            if len(rows) != n or any(len(r) != n for r in rows):
                raise ManifestError(
                    f"manifold {mdef['name']!r}: metric matrix must be {n}x{n}"
                )


# ---------------------------------------------------------------------------
# Runtime objects

@dataclass
class Target:
    """One metric under test within a manifold definition."""

    label: str  # "self" | "source" | "image"
    spec: geo.MetricSpec
    warped_spec: wp.WarpedSpec | None = None


@dataclass
class Job:
    name: str
    kind: str
    definition: dict
    targets: list[Target]
    family: gm.Family | None
    pair: gm.GeodesicPair2D | None
    box: dict
    pinned: list[dict]

    def sample_ok(self, point) -> bool:
        if self.family is not None:
            return self.family.admissible_sample(point)
        return all(geo.admissible(t.spec, point) for t in self.targets)


def _build_explicit(mdef) -> geo.MetricSpec:
    return geo.metric_spec(
        mdef["coords"], mdef["metric"], mdef.get("constants", {}), mdef.get("conditions", [])
    )


def _build_fiber(fdef, constants) -> geo.MetricSpec:
    if "dim" in fdef:
        return wp.constant_curvature_fiber(int(fdef["dim"]), fdef.get("scalar_curvature", 0.0))
    return _build_explicit({**fdef, "constants": constants})


def build_job(mdef: dict) -> Job:
    kind = mdef["kind"]
    family = None
    pair = None
    if kind == "explicit":
        targets = [Target("self", _build_explicit(mdef))]
    elif kind == "warped":
        constants = mdef.get("constants", {})
        base = _build_explicit({"constants": constants, **mdef["base"]})
        fiber = _build_fiber(mdef["fiber"], constants)
        ws = wp.assemble(base, fiber, mdef["warp"])
        targets = [Target("self", ws.product, ws)]
    elif kind == "family":
        params = dict(mdef["params"])
        if "fiber_dim" in params:
            params["fiber_dim"] = int(params["fiber_dim"])
        family = gm.build_family(gm.FamilyConfig(**params))
        targets = [
            Target("source", family.source.product, family.source),
            Target("image", family.image.product, family.image),
        ]
    else:  # pair2d
        pdef = mdef["pair"]
        pair = gm.geodesic_pair_2d(
            pdef["a"], pdef["b"], pdef["map_scale"], pdef["map_shift"]
        )
        targets = [Target("source", pair.source), Target("image", pair.image)]
    return Job(
        mdef["name"], kind, mdef, targets, family, pair,
        mdef["box"], mdef.get("pinned_points", []),
    )


def sample_points(job: Job, count: int, rng) -> list[tuple[float, ...]]:
    coords = job.targets[0].spec.coords
    for what, keys in [("box", job.box)] + [(f"pinned point {pin}", pin) for pin in job.pinned]:
        for key in keys:
            if key not in coords:
                raise ManifestError(f"{what} of {job.name!r}: {key!r} is not in the chart {coords}")
    box = dict(job.box)
    for c in coords:
        box.setdefault(c, [-0.3, 0.3])  # default window for fiber coordinates
    points = []
    for pin in job.pinned:
        missing = ", ".join(repr(c) for c in coords if c not in pin)
        if missing:
            raise ManifestError(f"pinned point {pin} of {job.name!r} leaves out {missing}")
        pt = tuple(float(pin[c]) for c in coords)
        if not job.sample_ok(pt):
            raise ManifestError(f"pinned point {pin} of {job.name!r} is inadmissible")
        points.append(pt)
    tries = 0
    while len(points) < count + len(job.pinned):
        if tries > 1000 * count:
            raise ManifestError(f"cannot sample admissible points for {job.name!r}")
        tries += 1
        pt = tuple(float(rng.uniform(*box[c])) for c in coords)
        if job.sample_ok(pt):
            points.append(pt)
    return points


# ---------------------------------------------------------------------------
# Checks and records
#
# A suite is a generator over point i of a chunk, reading each target's
# chunk pieces at i.  It yields each check as (check, residual,
# tolerance_key) with optional extra record fields ({"scalars": ...} or
# {"detail": ...}) and expect_fail; run_manifest turns every yielded
# check into a record through _record, and a _POINT_ERRORS error the
# suite raises (the Bianchi stencil, a psi jet, the semisymmetry guard)
# into an "error" one.

_POINT_ERRORS = (geo.GeometryError, ex.ExprError)


def _named(residuals: dict, key: str) -> list:
    """A residual dict's entries as (check, residual, tolerance key)."""
    return [(name, res, key) for name, res in residuals.items()]


def _per_point(checks, count: int) -> list:
    """Checks of one residual per lane, (check, residuals, tolerance key)
    and maybe extra record fields per lane, as a list per point."""
    lanes = [(check, np.asarray(res).tolist(), key, *extra) for check, res, key, *extra in checks]
    return [[(check, res[i], key, *(fields[i] for fields in extra))
             for check, res, key, *extra in lanes] for i in range(count)]


class Chunk:
    """One target at a chunk of points, and the only owner of their frames.

    Each piece is computed for every point on first read, once over the
    chunk's point axis, and suites read it at point i.  No piece fails at
    a sampled point: Job.sample_ok admitted it by running the metric jet
    that geo.frames runs, and a warped product's conditions and jet cover
    those of its base, fiber and warp.

    stacked is the frame of all the points from one geo.frames call, and
    frames[i] its lane i.  fiber_frames and diagnostics are stacked too;
    a family's image reads the fiber frames of its peer, the source
    chunk.  The Roter pieces (classifications through product_checks)
    run on sub-chunks of roter.chunk_size(n) points, so that only one
    sub-chunk's curvature products are alive."""

    def __init__(self, job: Job, suites: set, target: Target, points: list, peer=None):
        self.job, self.suites = job, suites
        self.target, self.points, self.peer = target, points, peer

    @cached_property
    def stacked(self) -> geo.PointFrame:
        return geo.frames(self.target.spec, self.points)

    @cached_property
    def frames(self) -> list:
        return self.stacked.lanes()

    @cached_property
    def fiber_frames(self) -> geo.PointFrame:
        if self.job.family is not None and self.peer is not None:
            return self.peer.fiber_frames
        ws = self.target.warped_spec
        return geo.frames(ws.fiber, [ws.split(point)[1] for point in self.points])

    @cached_property
    def geometry_residuals(self) -> list:
        """The geometry suite's residual checks at each point, as
        (check, residual, tolerance key), from one pass over stacked."""
        f = self.stacked
        eye = np.broadcast_to(np.eye(f.dim), f.g.shape)
        checks = [
            ("metric_inverse", lane_max_abs_residuals(f.g @ f.ginv, eye), "strict"),
            ("gamma_lower_symmetry",
             lane_max_abs_residuals(f.gamma, np.swapaxes(f.gamma, 2, 3)), "strict"),
            *((f"riemann_{name}", res, "geo")
              for name, res in lane_riemann_symmetry_residuals(f.riemann).items()),
            ("ricci_symmetric", lane_max_abs_residuals(f.ricci, np.swapaxes(f.ricci, 1, 2)), "geo"),
        ]
        if f.dim >= 4:
            checks.append(("weyl_trace_free", lane_trace_residuals(f.weyl, f.ginv), "geo"))
        nabla_g = np.abs(geo.covariant_derivative_02(f, f.g, f.dg))
        scale = np.max(np.abs(f.g), axis=(1, 2)) + 1.0
        checks.append(("nabla_g", np.max(nabla_g, axis=(1, 2, 3)) / scale, "strict"))
        return _per_point(checks, len(self.points))

    @cached_property
    def diagnostics(self) -> wp.WarpedDiagnostics:
        return wp.diagnostics(self.target.warped_spec, self.stacked, self.fiber_frames)

    @cached_property
    def warped(self) -> list:
        """The warped-diagnostics suite's checks at each point, from one
        pass over diagnostics."""
        job, ws, d = self.job, self.target.warped_spec, self.diagnostics
        block_tols = {"riemann_zero": "geo", "ricci_mixed": "geo", "trace_t": "strict"}
        checks = [("product_christoffels", wp.verify_product_christoffels(d), "strict")]
        checks += [(name, res, block_tols.get(name, "identity"))
                   for name, res in wp.verify_curvature_blocks(d).items()]
        scalars = {"warp": d.f_value, "tr_t": d.tr_t, "delta1": d.delta1,
                   "base_scalar": d.base_frame.scalar, "fiber_scalar": d.fiber_frame.scalar}
        if ws.base_dim == 2 and ws.dim >= 4:
            checks += _named(wp.verify_weyl_blocks(d), "identity")
            rho0, is_flat = wp.conformal_flatness_test(d)
            scalars.update(rho0=rho0, rho1=d.rho1, rho2=d.rho2, rho3=d.rho3, mu1=d.mu1, mu2=d.mu2)
            expect = job.definition.get("expect", {})
            if "conformally_flat" in expect:  # a flag, as _flag makes it
                flags = np.where(is_flat == expect["conformally_flat"], 0.0, 1.0)
                details = [{"detail": value} for value in rho0.tolist()]
                checks.append(("conformally_flat", flags, "flag", details))
        if job.kind == "family":
            checks.append(("t_proportional", wp.t_proportionality_residual(d), "geo"))
            checks += _named(wp.verify_proportional_blocks(d), "identity")
            if self.target.label == "source":
                res = scalar_residual(d.tr_t, job.family.cfg.d * d.f_value)
                checks.append(("trace_t_scaled_warp", res, "identity"))
        lanes = zip(*(value.tolist() for value in scalars.values()))
        checks.append(("warp_scalars", np.zeros(len(self.points)), "strict",
                       [{"scalars": dict(zip(scalars, lane))} for lane in lanes]))
        return _per_point(checks, len(self.points))

    @cached_property
    def membership(self) -> list:
        f = self.stacked
        return [{"in_US": bool(us), "in_UC": bool(uc), "in_UR": bool(ur)}
                for us, uc, ur in zip(roter.in_us(f), roter.in_uc(f), roter.in_ur(f))]

    def _parts(self) -> list:
        """The lanes of each Roter sub-chunk, roter.chunk_size(n) points."""
        size, count = roter.chunk_size(self.stacked.dim), len(self.points)
        return [range(start, min(start + size, count)) for start in range(0, count, size)]

    @cached_property
    def classifications(self) -> list:
        return [c for lanes in self._parts() for c in roter.classify(self.stacked.take(lanes))]

    @cached_property
    def fits(self) -> list:
        """Each classification's fit, or a direct one where it has none."""
        fits = [c.fit for c in self.classifications]
        for lanes in self._parts():
            rest = [i for i in lanes if fits[i] is None]
            for i, fit in zip(rest, roter.fit_roter(self.stacked.take(rest)) if rest else []):
                fits[i] = fit
        return fits

    @cached_property
    def rank_grid(self) -> list:
        """rank_grid_exceeds_one of each ROTER lane, None for the others.
        On a warped target with a 2-dimensional base, each lane's block
        eigenvalues mu1, mu2 join its scan."""
        ws, cs = self.target.warped_spec, self.classifications
        lanes = [i for i, c in enumerate(cs) if c.kind == roter.ROTER]
        out, extras = [None] * len(cs), [()] * len(lanes)
        if lanes and ws and ws.base_dim == 2 and self.diagnostics.mu1 is not None:
            d = self.diagnostics
            extras = list(zip(d.mu1[lanes].tolist(), d.mu2[lanes].tolist()))
        if lanes:
            flags = roter.rank_grid_exceeds_one(self.stacked.take(lanes), [cs[i] for i in lanes],
                                                extras)
            for i, flag in zip(lanes, flags.tolist()):
                out[i] = flag
        return out

    @cached_property
    def product_checks(self) -> list:
        """Per point, a dict of what reads curvature products for the
        suites that run: identities and ricci (if expected) for theorem21;
        for the geodesic suite on a family expected ROTER, at a point with
        a fit, cor42 (corollary42_residual) and on the source semisymmetric."""
        job, cs, theorem21 = self.job, self.classifications, "theorem21" in self.suites
        expect = job.definition.get("expect", {})
        family = ("geodesic" in self.suites and job.kind == "family"
                  and expect.get("classify", "ROTER") == "ROTER")
        out = []
        for lanes in self._parts():
            frame = self.stacked.take(lanes)
            products, pieces = roter.curvature_products(frame), [{} for _ in lanes]
            kept = [j for j, i in enumerate(lanes) if theorem21 and cs[i].kind == roter.ROTER]
            if kept:
                sub = frame.take(kept)
                sub_products = products if sub is frame else roter.curvature_products(sub)
                results = roter.identity_suite(sub, [cs[lanes[j]].fit for j in kept], sub_products)
                for j, res in zip(kept, results):
                    pieces[j]["identities"] = res
            if theorem21 and expect.get("ricci_pseudosymmetric"):
                for piece, rp in zip(pieces, roter.ricci_pseudosymmetry(frame, products)):
                    piece["ricci"] = rp
            fits = [self.fits[i] for i in lanes] if family else []
            kept = [j for j, fit in enumerate(fits) if isinstance(fit, roter.RoterFit)]
            if kept:
                P = {key: products[key][kept] for key in ("RR", "QSR", "QgC")}
                res = gm.corollary42_residual(frame.dim, [fits[j] for j in kept], P)
                for j, value in zip(kept, res.tolist()):
                    pieces[j]["cor42"] = value
                if self.target.label == "source":
                    flags = gm.semisymmetric(products["RR"], frame).tolist()
                    for piece, flag in zip(pieces, flags):
                        piece["semisymmetric"] = flag
            out += pieces
        return out

    @cached_property
    def geodesic(self) -> list:
        """On the image chunk of a mapped pair (peer its source), the
        geodesic suite at each point: its checks that read no fit, and
        where a family's members both have a Roter fit, the factor
        relations and last the psi-Ricci identity (else None).  A point
        whose psi jet raises gets None; the suite raises it there."""
        job, source, count, n = self.job, self.peer, len(self.points), self.stacked.dim
        psi = (job.pair or job.family).psi
        jets, failed = (np.zeros((count, n)), np.zeros((count, n, n))), []
        for k, point in enumerate(self.points):
            try:
                jets[0][k], jets[1][k] = psi.jet(point)
            except _POINT_ERRORS:
                failed.append(k)  # its lanes keep zeros and are never read
        frames = (source.stacked, self.stacked)
        checks = [
            ("geodesic_compatibility", gm.geodesic_compatibility_residual(*frames, jets), "geo"),
            ("christoffel_shift", gm.christoffel_shift_residual(*frames, jets), "geo"),
            ("ricci_shift", gm.ricci_shift_residual(*frames, jets), "identity"),
            ("psi_gradient", gm.psi_gradient_residual(jets), "strict"),
        ]
        relations = [None] * count
        if job.kind == "pair2d":
            checks += _named(gm.pair_christoffel_closed_forms(job.pair, *frames), "geo")
        else:
            fam, values = job.family, gm.family_values(job.family, self.points)
            d, d_bar = source.diagnostics, self.diagnostics
            r4, r5 = gm.warp_compatibility_residuals(fam, d, d_bar, jets)
            checks += [("warp_scale_equation", r4, "geo"), ("warp_log_equation", r5, "geo")]
            checks += _named(gm.family_psi_closed_forms(fam, d, values, jets), "geo")
            checks += _named(gm.family_image_ricci_forms(fam, d_bar, values), "identity")
            checks += _named(gm.warp_profile_pde_residuals(fam, d), "geo")
            kg, kg_bar = gm.base_gauss_values(d, d_bar)
            checks += [("base_gauss_source", scalar_residual(kg, fam.l_r_expected), "geo"),
                       ("base_gauss_image", scalar_residual(kg_bar, fam.l_r_image_expected), "geo")]
            expect = job.definition.get("expect", {})
            fits = (source.fits, self.fits) if expect.get("classify", "ROTER") == "ROTER" else ()
            lanes = [i for i, pair in enumerate(zip(*fits))
                     if all(isinstance(fit, roter.RoterFit) for fit in pair)]
            if lanes:
                frames = (source.stacked.take(lanes), self.stacked.take(lanes))
                fits = tuple([member[i] for i in lanes] for member in fits)
                values = {key: value[lanes] for key, value in values.items()}
                jets = tuple(part[lanes] for part in jets)
                fitted = _named(gm.factor_relations(fam, frames, fits, values), "identity")
                fitted.append(("psi_ricci_identity",
                               gm.psi_ricci_identity_residual(fam, frames, fits, jets), "compound"))
                for i, row in zip(lanes, _per_point(fitted, len(lanes))):
                    relations[i] = row
        out = list(zip(_per_point(checks, count), relations))
        for k in failed:
            out[k] = None
        return out


def _flag(check, ok, detail=None):
    """A boolean check: residual 0 or 1 under the internal "flag" bound 0.5."""
    return check, 0.0 if ok else 1.0, "flag", None if detail is None else {"detail": detail}


def _record(job, target, index, point, suite, thresholds,
            check, residual, tol_key, extra=None, expect_fail=False) -> dict:
    threshold = thresholds[tol_key]
    passed = bool(residual <= threshold)
    rec = {
        "manifold": job.name,
        "target": target,
        "point_index": index,
        "point": point,
        "suite": suite,
        "check": check,
        "residual": float(residual),
        "threshold": threshold,
        "pass": passed,
        "expect_fail": expect_fail,
        "ok": passed != expect_fail,
    }
    rec.update(extra or {})  # scalars hold Python numbers (see the suites)
    return rec


def geometry_checks(job: Job, chunk: Chunk, i, idx):
    f = chunk.frames[i]
    n = f.dim
    yield from chunk.geometry_residuals[i]
    if idx < 2:  # finite-differenced, so spot-check only
        yield "second_bianchi", geo.second_bianchi_residual(f), "smoke"
    scalars = {"kappa": f.scalar}
    if n == 2:
        scalars["gauss"] = float(geo.gauss_curvature(f))
        expected = job.definition.get("expect", {}).get("scalars", {})
        if "gauss" in expected:
            yield "gauss_value", scalar_residual(scalars["gauss"], expected["gauss"]), "geo"
    yield "frame_scalars", 0.0, "strict", {"scalars": scalars}


def theorem21_checks(job: Job, chunk: Chunk, i, idx):
    target = chunk.target
    if target.spec.dim < 2:
        return
    expect = job.definition.get("expect", {})
    f = chunk.frames[i]
    perturb = job.definition.get("perturb")
    c = chunk.classifications[i]
    scalars = {"classification": c.kind, "kappa": f.scalar, **chunk.membership[i]}
    want = expect.get("classify")
    if want:
        # Source and image members of a family share the expected kind.
        yield _flag("classification", c.kind == want, detail=c.kind)
    if c.kind == roter.ROTER:
        fit = c.fit
        scalars.update(phi=fit.phi, mu=fit.mu, eta=fit.eta, L_R=fit.L_R,
                       L_C=fit.L_C, L=fit.L, alpha1=fit.alpha1, alpha2=fit.alpha2)
        yield "fit_residual", fit.residual, "identity"
        for name, res in chunk.product_checks[i]["identities"].items():
            yield name, res, "identity"
        yield _flag("rank_shift_grid", chunk.rank_grid[i])
        expected_scalar = expect.get("scalars", {})
        key = "L_R" if target.label in ("self", "source") else "L_R_image"
        if key in expected_scalar:
            yield "l_r_expected", scalar_residual(fit.L_R, expected_scalar[key]), "identity"
        if perturb and perturb["target"] == "ricci":
            rng = np.random.default_rng(12345)
            noise = rng.normal(size=f.ricci.shape)
            bad = f.ricci + perturb["epsilon"] * 0.5 * (noise + noise.T)
            res = tensor_residual(bad @ f.ginv @ bad, fit.alpha1 * bad + fit.alpha2 * f.g)
            yield "ricci_square_affine_perturbed", res, "identity", None, True  # expect_fail
    if expect.get("ricci_pseudosymmetric"):
        rp = chunk.product_checks[i]["ricci"]
        yield "ricci_pseudosymmetry", rp.residual if rp.verdict != "vacuous" else 0.0, "identity"
        if rp.factor is not None:
            scalars["L_S"] = rp.factor
    pins = expect.get("pinned_scalars", [])
    if idx < min(len(job.pinned), len(pins)):
        for key, want_v in pins[idx].items():
            have = scalars.get(key)
            res = scalar_residual(have, want_v) if have is not None else 1.0
            yield f"pinned_{key}", res, "pinned"
    yield "fit_scalars", 0.0, "strict", {"scalars": scalars}


def warped_checks(job: Job, chunk: Chunk, i, idx):
    if chunk.target.warped_spec is not None:
        yield from chunk.warped[i]


def geodesic_checks(job: Job, chunks, i, idx, fits_log):
    """Checks on the mapped pair of a pair2d or family manifold, from the
    (source, image) chunks at point i.  A psi jet or the semisymmetry
    guard that fails at the point raises here, at that point only."""
    if job.kind not in ("pair2d", "family"):
        return
    source, image = chunks
    if image.geodesic[i] is None:
        (job.pair or job.family).psi.jet(source.points[i])  # raises this point's error
    checks, relations = image.geodesic[i]
    yield from checks
    if job.kind == "pair2d" or job.definition.get("expect", {}).get("classify", "ROTER") != "ROTER":
        return
    fits = (source.fits[i], image.fits[i])  # each a RoterFit or the RoterFitError returned
    rejected = [fit for fit in fits if isinstance(fit, roter.RoterFitError)]
    if rejected:
        yield _flag("roter_fits", False, detail=str(rejected[0]))
        return
    fits_log.append((fits[0].L_R, fits[1].L_R))
    *relations, identity = relations
    yield from relations
    yield "cor42_source", source.product_checks[i]["cor42"], "identity"
    yield "cor42_image", image.product_checks[i]["cor42"], "identity"
    if source.product_checks[i]["semisymmetric"]:
        raise gm.FamilyError("SEMISYMMETRIC", "source has R.R = 0; identity needs R.R != 0")
    yield identity


def family_checks(job: Job, fits_log):
    """Aggregates over all points of a family (point index -1)."""
    if job.kind != "family":
        return
    yield "profile_invariant", gm.profile_invariant_residual(job.family.cfg), "strict"
    if fits_log:
        yield "l_r_constancy_source", constancy_residual([a for a, _ in fits_log]), "identity"
        yield "l_r_constancy_image", constancy_residual([b for _, b in fits_log]), "identity"


TARGET_SUITES = (
    ("geometry-symmetries", geometry_checks),
    ("theorem21", theorem21_checks),
    ("warped-diagnostics", warped_checks),
)


def _suite_runs(job: Job, points, suites):
    """(suite, target label, point index, point, checks) in run order.

    Points go in chunks of roter.chunk_size(min(n, 4)), n the chart
    dimension, read through one Chunk per target, whose Roter pieces cut
    sub-chunks of roter.chunk_size(n); a mapped pair's image has peer."""
    fits_log: list = []
    size = roter.chunk_size(min(job.targets[0].spec.dim, 4))
    for start in range(0, len(points), size):
        pts = points[start:start + size]
        first = Chunk(job, suites, job.targets[0], pts)
        chunks = [first] + [Chunk(job, suites, target, pts, first) for target in job.targets[1:]]
        for i, pt in enumerate(pts):
            idx = start + i
            for suite, checks in TARGET_SUITES:
                if suite in suites:
                    for chunk in chunks:
                        yield suite, chunk.target.label, idx, pt, checks(job, chunk, i, idx)
            if "geodesic" in suites:
                yield "geodesic", "pair", idx, pt, geodesic_checks(job, chunks, i, idx, fits_log)
    if "geodesic" in suites:
        yield "geodesic", "pair", -1, (), family_checks(job, fits_log)


def _expand_suites(names) -> set:
    names = set(names)
    unknown = sorted(names - set(SUITES))
    if unknown:
        raise ManifestError(f"unknown suite {', '.join(map(repr, unknown))}; "
                            f"valid suites: {', '.join(SUITES)}")
    return set(SUITES) - {"all"} if "all" in names else names


def run_manifest(manifest: dict, suites=None, points=None, seed=None,
                 tol_scale: float = 1.0) -> tuple[list, dict]:
    """Execute the manifest; returns (records, summary)."""
    _validate_overrides(points, tol_scale)
    selected = _expand_suites(suites or manifest.get("suites", ["all"]))
    tol = dict(DEFAULT_TOLERANCES)
    tol.update(manifest.get("tolerances", {}))
    tol = {k: v * tol_scale for k, v in tol.items()}
    thresholds = {**tol, "flag": 0.5}
    # Draft 7 takes 1.0 for an integer; the run needs an int.
    seed = int(manifest.get("seed", 0) if seed is None else seed)
    count = int(manifest.get("points", 20) if points is None else points)
    plans = [selected if suites else _expand_suites(mdef.get("suites", [])) or selected
             for mdef in manifest.get("manifolds", [])]
    validate_manifest(manifest)  # run_manifest reads keys only the schema guarantees
    records: list = []

    for m_index, (mdef, m_suites) in enumerate(zip(manifest["manifolds"], plans)):
        job = build_job(mdef)
        rng = np.random.default_rng([seed, m_index])
        pts = sample_points(job, count, rng)
        for suite, label, idx, pt, checks in _suite_runs(job, pts, m_suites):
            site = (job, label, idx, [round(v, 12) for v in pt], suite, thresholds)
            try:
                for check in checks:
                    records.append(_record(*site, *check))
            except _POINT_ERRORS as err:
                error = _flag("error", False, f"{type(err).__name__}: {err}")
                records.append(_record(*site, *error))

    records.sort(key=lambda r: (r["manifold"], r["target"], r["point_index"],
                                r["suite"], r["check"]))
    failed = sum(not r["pass"] for r in records)
    off_expectation = sum(not r["ok"] for r in records)
    summary = {
        "manifest": manifest["name"],
        "version": __version__,
        "seed": seed,
        "points": count,
        "suites": sorted(selected),
        "tolerances": tol,
        "conventions": {
            "residual_normalization": "sum-plus-one",
            "us_threshold": roter.US_THRESHOLD,
            "uc_threshold": roter.UC_THRESHOLD,
            "ur_threshold": roter.UR_THRESHOLD,
        },
        "counts": {
            "checks": len(records),
            "failed": failed,
            "off_expectation": off_expectation,
        },
        "ok": off_expectation == 0,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.system(),
        },
    }
    return records, summary


# ---------------------------------------------------------------------------
# Report files and entry point

def write_report(records, summary, out_dir: str) -> dict[str, str]:
    os.makedirs(out_dir, exist_ok=True)
    name = summary["manifest"]
    paths = {
        "records": os.path.join(out_dir, f"{name}.records.jsonl"),
        "summary": os.path.join(out_dir, f"{name}.summary.json"),
        "text": os.path.join(out_dir, f"{name}.summary.txt"),
    }
    encode = json.JSONEncoder(sort_keys=True).encode  # what json.dumps(rec, sort_keys=True) builds
    with open(paths["records"], "w", encoding="utf-8") as fh:
        fh.writelines(encode(rec) + "\n" for rec in records)
    stamped = dict(summary)
    stamped["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    with open(paths["summary"], "w", encoding="utf-8") as fh:
        json.dump(stamped, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(paths["text"], "w", encoding="utf-8") as fh:
        fh.write(render_text_summary(records, summary))
    return paths


def render_text_summary(records, summary) -> str:
    lines = [
        f"manifest : {summary['manifest']}",
        f"seed     : {summary['seed']}   points: {summary['points']}",
        f"suites   : {', '.join(summary['suites'])}",
        f"checks   : {summary['counts']['checks']}"
        f"   failed: {summary['counts']['failed']}"
        f"   off-expectation: {summary['counts']['off_expectation']}",
        f"verdict  : {'OK' if summary['ok'] else 'FAIL'}",
        "",
    ]
    worst: dict[tuple, dict] = {}
    for rec in records:
        key = (rec["manifold"], rec["target"], rec["check"])
        prev = worst.get(key)
        if prev is None or rec["residual"] > prev["residual"]:
            worst[key] = rec
    lines.append(f"{'manifold':24} {'target':7} {'check':32} {'worst residual':>14}  status")
    for key in sorted(worst):
        rec = worst[key]
        status = "ok" if rec["ok"] else "OFF-EXPECTATION"
        if rec["expect_fail"]:
            status += " (expected-fail)"
        lines.append(
            f"{rec['manifold'][:24]:24} {rec['target']:7} {rec['check'][:32]:32} "
            f"{rec['residual']:14.3e}  {status}"
        )
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="curvcheck",
        description="Curvature identity verification harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a manifest or corpus entry")
    p_run.add_argument("manifest", help="manifest path or corpus name")
    p_run.add_argument("--suite", action="append", choices=SUITES, help="restrict suites")
    p_run.add_argument("--points", type=int, help="points per manifold")
    p_run.add_argument("--seed", type=int, help="sampling seed override")
    p_run.add_argument("--out", help=f"output directory (default ${OUT_ENV} or ./reports)")
    p_run.add_argument("--tol-scale", type=float, default=1.0,
                       help="multiply every tolerance by this factor")

    sub.add_parser("list", help="list corpus entries")

    p_desc = sub.add_parser("describe", help="print a corpus manifest")
    p_desc.add_argument("name")

    args = parser.parse_args(argv)

    if args.command == "list":
        for name in corpus_mod.corpus_list():
            print(name)
        return 0

    if args.command == "describe":
        try:
            entry = corpus_mod.corpus_get(args.name)
        except KeyError as err:
            print(err, file=sys.stderr)
            return 2
        print(json.dumps(entry, indent=2, sort_keys=True))
        return 0

    try:
        _validate_overrides(args.points, args.tol_scale)
        manifest = load_manifest(args.manifest)
    except ManifestError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        records, summary = run_manifest(
            manifest, suites=args.suite, points=args.points,
            seed=args.seed, tol_scale=args.tol_scale,
        )
    except (*_POINT_ERRORS, ManifestError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    out_dir = args.out or os.environ.get(OUT_ENV) or "reports"
    paths = write_report(records, summary, out_dir)
    print(render_text_summary(records, summary))
    print(f"records : {paths['records']}")
    print(f"summary : {paths['summary']}")
    return 0 if summary["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
