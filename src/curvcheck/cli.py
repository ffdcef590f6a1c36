"""Batch verification front-end.

Reads a manifest (JSON file or built-in corpus entry), samples
admissible points per manifold, runs the selected check suites and
writes a structured report:

    <name>.records.jsonl   one JSON record per check per point
    <name>.summary.json    counts, environment stamp, verdict
    <name>.summary.txt     human-readable digest

Identical manifest and seed produce byte-identical records and summary
(modulo the summary timestamp field).  Exit codes: 0 at least one check
and every check agrees with its expectation; 1 a check off-expectation
(an error at a sampled point is recorded as an off-expectation "error"
check) or no check at all, with the report written, or a manifold that
cannot be built or sampled, with one "error:" line and no report; 2
manifest, schema or out-of-range --points / --seed / --tol-scale error,
or an --out it cannot make.  A run that writes no report removes the
directories it made for one.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import os
import platform
import re
import sys
import time
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property, partial

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
    lane_residuals,
    lane_zero_residuals,
    scalar_residual,
)

SUITES = ("geometry-symmetries", "theorem21", "warped-diagnostics", "geodesic", "all")

DEFAULT_TOLERANCES = {
    "strict": 1e-10,
    "geo": 1e-9,
    "identity": 1e-8,
    "compound": 1e-7,
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
        "scalars": {"type": "object", "additionalProperties": False,  # the keys the suites read
                    "properties": dict.fromkeys(("L_R", "L_R_image", "gauss"), _number)},
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


def _validate_overrides(points, seed, tol_scale, tolerances=None) -> dict:
    """Overrides obey the schema: points and seed integers of at least 1 and 0, every
    tolerance times tol_scale finite and positive (so tol_scale too); returns those."""
    for key, value in (("points", points), ("seed", seed)):
        bound = MANIFEST_SCHEMA["properties"][key]
        if value is not None and any(schema_errors(value, bound)):
            raise ManifestError(f"{key} must be an integer of at least {bound['minimum']}, "
                                f"got {value!r}")
    tol = {**DEFAULT_TOLERANCES, **(tolerances or {})}
    for key, value in tol.items():  # an int past the float range scales to inf
        tol[key] = value * tol_scale if value <= sys.float_info.max else math.inf
        if not (math.isfinite(tol[key]) and tol[key] > 0):
            raise ManifestError(f"tolerance {key!r} times {tol_scale} is {tol[key]}, "
                                "not finite and positive")
    return tol


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


def _numbers(value, path: tuple = ()):
    """Yield (path, number) for each JSON number in value."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _numbers(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _numbers(item, path + (index,))
    elif _JSON_TYPES["number"](value):
        yield path, value


def validate_manifest(data: dict) -> None:
    errors = sorted((message, "/".join(map(str, path)) or "<root>")
                    for path, message in schema_errors(data, MANIFEST_SCHEMA))
    if errors:
        joined = "; ".join(f"{where}: {message}" for message, where in errors[:5])
        raise ManifestError(f"manifest schema violation: {joined}")
    for index, mdef in enumerate(data["manifolds"]):
        if mdef["name"] in (other["name"] for other in data["manifolds"][:index]):
            raise ManifestError(f"manifold name {mdef['name']!r} is used more than once")
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
        big = sys.float_info.max  # an int compares with it exactly, so no int overflows
        for key, (lo, hi) in mdef["box"].items():
            if not (-big <= lo <= hi <= big and hi - lo <= big):
                raise ManifestError(f"manifold {mdef['name']!r}: box {key!r} needs float "
                                    f"bounds lo <= hi and a finite width, got {[lo, hi]}")
        for path, value in _numbers(mdef):
            if not -big <= value <= big:
                raise ManifestError(f"manifold {mdef['name']!r}: {'/'.join(map(str, path))} "
                                    f"is outside the float range +-{big!r}")
        pins = len(mdef.get("expect", {}).get("pinned_scalars", ()))
        if pins > len(mdef.get("pinned_points", ())):
            raise ManifestError(f"manifold {mdef['name']!r}: {pins} pinned_scalars entries, "
                                f"more than its pinned_points")
        for block in (mdef, mdef.get("base"), mdef.get("fiber")):
            if not block or "metric" not in block:
                continue
            n = len(block.get("coords", ()))
            rows = block["metric"]
            if len(rows) != n or any(len(r) != n for r in rows):
                raise ManifestError(
                    f"manifold {mdef['name']!r}: metric matrix must be {n}x{n}"
                )
        # Whether a check reads each expectation on this chart, from its kind and
        # dimension alone; one it does not read would pass unread.
        n, p = _chart_dims(mdef)
        read = {"expect/scalars/gauss": n == 2, "expect/scalars/L_R": n >= 4, "perturb": n >= 4,
                "expect/scalars/L_R_image": kind == "family",
                "expect/conformally_flat": kind == "family" or kind == "warped" and p == 2 and n >= 4,
                "expect/classify": n >= 2, "expect/ricci_pseudosymmetric": n >= 2,
                "expect/pinned_scalars": n >= 2}
        expect = mdef.get("expect", {})
        if expect.get("ricci_pseudosymmetric") is False:  # the suites test only true
            raise ManifestError(f"manifold {mdef['name']!r}: expect/ricci_pseudosymmetric takes only true")
        given = ({"perturb"} & mdef.keys()) | {f"expect/{key}" for key in expect}
        given |= {f"expect/scalars/{key}" for key in expect.get("scalars", ())}
        unread = sorted(path for path in given if not read.get(path, True))
        if unread:
            base = f" over a {p}-dimensional base" if kind == "warped" else ""
            raise ManifestError(f"manifold {mdef['name']!r}: no check reads {', '.join(unread)} "
                                f"on its {kind} chart of dimension {n}{base}")


def _chart_dims(mdef: dict) -> tuple[int, int]:
    """A valid manifold's chart dimension n and base dimension p (a warped one's alone)."""
    kind = mdef["kind"]
    if kind == "explicit":
        return len(mdef["coords"]), 0
    if kind == "warped":
        fiber, p = mdef["fiber"], len(mdef["base"]["coords"])
        return p + int(fiber["dim"] if "dim" in fiber else len(fiber["coords"])), p
    return (int(mdef["params"].get("fiber_dim", 2)) + 2, 2) if kind == "family" else (2, 2)


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
    mapped: gm.Family | gm.GeodesicPair2D | None  # kind tells which
    box: dict
    pinned: list[dict]

    @property
    def expect(self) -> dict:
        return self.definition.get("expect", {})

    @property
    def fitted(self) -> bool:
        """A family expected ROTER (the default), whose fits the geodesic suite reads."""
        return self.kind == "family" and self.expect.get("classify", "ROTER") == "ROTER"

    def sample_ok(self, points) -> list[bool]:
        """Per point, whether the first target's conditions (on a mapped pair, both members')
        hold, its program runs, each target's metric inverts and a family clears its mapping
        guards: no chunk piece fails there.  The conditions run over the points, the program over
        those that hold; if either raises, each point is decided alone, and one that raises fails."""
        try:
            ok = geo.admissible(self.targets[0].spec, points)
            if ok.any():
                jets = self.jets([pt for pt, held in zip(points, ok) if held])
                passed = np.all([geo.invertible(jets[t.label]) for t in self.targets], axis=0)
                ok[ok] = passed & (self.kind != "family" or self.mapped.guards_hold(jets["values"]))
        except _POINT_ERRORS:
            return [len(points) > 1 and self.sample_ok([pt])[0] for pt in points]
        return ok.tolist()

    def jets(self, points) -> dict:
        """One run of the first target's program at points, per target label (gm.cut's if mapped)."""
        run = geo.metric_jets(self.targets[0].spec, points)
        return gm.cut(self.mapped, run) if self.mapped else {self.targets[0].label: run}


def _build_explicit(mdef) -> geo.MetricSpec:
    return geo.metric_spec(
        mdef["coords"], mdef["metric"], mdef.get("constants", {}), mdef.get("conditions", [])
    )


def _build_fiber(fdef, constants) -> geo.MetricSpec:
    if "dim" in fdef:
        return wp.constant_curvature_fiber(int(fdef["dim"]), fdef.get("scalar_curvature", 0.0))
    return _build_explicit({**fdef, "constants": constants})


def build_job(mdef: dict) -> Job:
    kind, mapped = mdef["kind"], None
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
        mapped = gm.build_family(gm.FamilyConfig(**params))
        targets = [
            Target("source", mapped.source.product, mapped.source),
            Target("image", mapped.image.product, mapped.image),
        ]
    else:  # pair2d
        pdef = mdef["pair"]
        mapped = gm.geodesic_pair_2d(
            pdef["a"], pdef["b"], pdef["map_scale"], pdef["map_shift"]
        )
        targets = [Target("source", mapped.source), Target("image", mapped.image)]
    return Job(
        mdef["name"], kind, mdef, targets, mapped,
        mdef["box"], mdef.get("pinned_points", []),
    )


def sample_points(job: Job, count: int, rng) -> list[tuple[float, ...]]:
    coords = job.targets[0].spec.coords
    for what, keys in [("box", job.box)] + [(f"pinned point {pin}", pin) for pin in job.pinned]:
        for key in keys:
            if key not in coords:
                raise ManifestError(f"{what} of {job.name!r}: {key!r} is not in the chart {coords}")
    ws = job.targets[0].warped_spec  # only a fiber's coordinates have a default window
    box = {**dict.fromkeys(ws.fiber.coords if ws else (), [-0.3, 0.3]), **job.box}
    missing = ", ".join(repr(c) for c in coords if c not in box)
    if missing:
        raise ManifestError(f"box of {job.name!r} leaves out {missing}")
    points = []
    for pin in job.pinned:
        missing = ", ".join(repr(c) for c in coords if c not in pin)
        if missing:
            raise ManifestError(f"pinned point {pin} of {job.name!r} leaves out {missing}")
        points.append(tuple(float(pin[c]) for c in coords))
    for pin, ok in zip(job.pinned, job.sample_ok(points) if points else ()):
        if not ok:
            raise ManifestError(f"pinned point {pin} of {job.name!r} is inadmissible")
    # Rounds of at most a chunk, none past the last point needed: one-at-a-time's draws.
    lo, hi = np.array([box[c] for c in coords], dtype=float).T
    tries, cap = 0, 1000 * count + 1
    while len(points) < count + len(job.pinned):
        if tries == cap:
            raise ManifestError(f"cannot sample admissible points for {job.name!r}")
        k = min(count + len(job.pinned) - len(points), roter.chunk_size(len(coords)), cap - tries)
        batch = [tuple(row) for row in rng.uniform(lo, hi, size=(k, len(coords))).tolist()]
        tries += k
        points += [pt for pt, ok in zip(batch, job.sample_ok(batch)) if ok]
    return points


# ---------------------------------------------------------------------------
# Checks and records
#
# A suite's checks are a Chunk piece, whose entry i lists point i's checks
# as (check, residual, tolerance_key) with optional extra record fields
# ({"scalars": ...} or {"detail": ...}) and expect_fail.  run_manifest
# reads each piece once, turns each check into a record dict in its site
# loop, and a _POINT_ERRORS error the piece raises (a chunk's curvature
# that is not finite) into an "error" record at each point of the chunk.

_POINT_ERRORS = (geo.GeometryError, ex.ExprError)
# The error detail in the psi-Ricci identity's place where R.R = 0 on the source.
_SEMISYMMETRIC = "FamilyError: SEMISYMMETRIC: source has R.R = 0; identity needs R.R != 0"


def _named(residuals: dict, key: str) -> list:
    """A residual dict's entries as (check, residual, tolerance key)."""
    return [(name, res, key) for name, res in residuals.items()]


def _per_point(checks, count: int) -> list:
    """Checks of one residual per lane, (check, residuals, tolerance key)
    and maybe extra record fields per lane, as a list per point."""
    lanes = []
    for check, res, key, *extra in checks:
        res = np.asarray(res).tolist()
        lanes.append([(check, r, key, *fields) for r, *fields in zip(res, *extra, strict=True)]
                     if extra else [(check, r, key) for r in res])
    return [list(row) for row in zip(*lanes, strict=True)] if lanes else [[] for _ in range(count)]


def _scalars(check: str, scalars: dict, count: int) -> tuple:
    """A check of residual 0 whose record at lane i holds lane i of scalars' arrays."""
    lanes = zip(*(value.tolist() for value in scalars.values()))
    return check, np.zeros(count), "strict", [{"scalars": dict(zip(scalars, v))} for v in lanes]


class Chunk:
    """One target at a chunk of points, and the only owner of their frames.

    Each piece is computed for every point on first read, once over the
    chunk's point axis (the curvature products once per group of
    roter.product_lanes(n) lanes), and holds one entry per point; a suite's
    piece holds its checks, planned from the job alone, never from the
    suites that run.  No piece fails at a sampled point: Job.sample_ok(points)
    is the only gate, and run is Job.jets(points), the run it tested (a
    warped product's covers its base, fiber and warp, a mapped pair's both
    members and ψ), whose jets geo.frames and wp.diagnostics take as handed.
    Only curvature can still fail, by overflow: evaluated then raises the
    same error at every read.  start is the run's index of the first point.
    The chunk builds its own member alone; peer, the source chunk on a mapped
    pair's image and None on the first target, is read by the geodesic piece
    only."""

    def __init__(self, job: Job, target: Target, start: int, points: list, run: dict, peer=None):
        self.job, self.target, self.start, self.points = job, target, start, points
        self.run, self.peer = run, peer

    @cached_property
    def evaluated(self) -> tuple:
        """stacked and, on a warped target, its factor jets (wp.WarpedSpec.blocks).
        The target's jets leave run only once the frames are built, so curvature
        that is not finite raises the same geo.GeometryError at every read."""
        label, ws = self.target.label, self.target.warped_spec
        jets = self.run[label]
        out = geo.frames(self.target.spec, self.points, geo.jet_block(jets)), ws and ws.blocks(jets)
        del self.run[label]
        return out

    @property
    def stacked(self) -> geo.PointFrame:
        return self.evaluated[0]

    @cached_property
    def geometry(self) -> list:
        """The geometry suite's checks at each point, from one pass over
        stacked, and the second Bianchi check at the run's first two points."""
        f, count, R = self.stacked, len(self.points), self.stacked.riemann
        eye = np.broadcast_to(np.eye(f.dim), f.g.shape)
        checks = [
            ("metric_inverse", lane_max_abs_residuals(f.g @ f.ginv, eye), "strict"),
            ("gamma_lower_symmetry",
             lane_max_abs_residuals(f.gamma, np.swapaxes(f.gamma, 2, 3)), "strict"),
            ("riemann_skew_first_pair", lane_zero_residuals(R + np.swapaxes(R, 1, 2), R), "geo"),
            ("riemann_skew_last_pair", lane_zero_residuals(R + np.swapaxes(R, 3, 4), R), "geo"),
            ("riemann_pair_exchange",
             lane_zero_residuals(R - np.transpose(R, (0, 3, 4, 1, 2)), R), "geo"),
            ("riemann_first_cyclic", lane_zero_residuals(
                R + np.transpose(R, (0, 3, 1, 2, 4)) + np.transpose(R, (0, 2, 3, 1, 4)), R), "geo"),
            ("ricci_symmetric", lane_max_abs_residuals(f.ricci, np.swapaxes(f.ricci, 1, 2)), "geo"),
        ]
        if f.dim >= 4:
            # The Weyl tensor's metric trace over each of its six slot pairs.
            traces = [np.einsum(subs, f.ginv, f.weyl) for subs in (
                "pab,pabcd->pcd", "pac,pabcd->pbd", "pad,pabcd->pbc",
                "pbc,pabcd->pad", "pbd,pabcd->pac", "pcd,pabcd->pab")]
            checks.append(("weyl_trace_free", lane_zero_residuals(np.stack(traces, 1), f.weyl), "geo"))
        checks.append(("nabla_g", lane_zero_residuals(
            geo.covariant_derivative_02(f, f.g, f.dg), f.g), "strict"))
        scalars = {"kappa": f.scalar}
        if f.dim == 2:
            scalars["gauss"] = geo.gauss_curvature(f)
            want = self.job.expect.get("scalars", {}).get("gauss")
            if want is not None and self.peer is None:  # the source's or the single target's
                checks.append(("gauss_value", scalar_residual(scalars["gauss"], want), "geo"))
        checks.append(_scalars("frame_scalars", scalars, count))
        rows = _per_point(checks, count)
        if self.start < 2:
            twin = self.peer and gm.image_twin(self.job.mapped)
            bianchi = geo.second_bianchi_residual(f.take(range(min(2 - self.start, count))), twin)
            for row, res in zip(rows, bianchi.tolist()):
                row.append(("second_bianchi", res, "geo"))
        return rows

    @cached_property
    def theorem21(self) -> list:
        """The theorem21 suite's checks at each point (none below dimension
        2); the perturbed-Ricci control, expected to fail, draws its noise
        from default_rng(12345) anew at each point."""
        job, target = self.job, self.target
        if target.spec.dim < 2:
            return [[] for _ in self.points]
        f, perturb, want = self.stacked, job.definition.get("perturb"), job.expect.get("classify")
        l_r = job.expect.get("scalars", {}).get("L_R" if self.peer is None else "L_R_image")
        # One per pinned point at most, on the source or the single target.
        pins = job.expect.get("pinned_scalars", [])[self.start:] if self.peer is None else []
        rows = []
        for i, (c, kappa) in enumerate(zip(self.classifications, f.scalar.tolist())):
            # Source and image members of a family share the expected kind.
            row = [_flag("classification", c.kind == want, detail=c.kind)] if want else []
            scalars = {"classification": c.kind, "kappa": kappa,
                       "in_US": c.in_US, "in_UC": c.in_UC, "in_UR": c.in_UR}
            if c.kind == roter.ROTER:
                fit = c.fit
                scalars.update(phi=fit.phi, mu=fit.mu, eta=fit.eta, L_R=fit.L_R,
                               L_C=fit.L_C, L=fit.L, alpha1=fit.alpha1, alpha2=fit.alpha2)
                row.append(("fit_residual", fit.residual, "identity"))
                row += _named(self.product_checks[i]["identities"], "identity")
                row.append(_flag("rank_shift_grid", c.grid_rank_above_one))
                if l_r is not None:
                    row.append(("l_r_expected", scalar_residual(fit.L_R, l_r), "identity"))
                if perturb and perturb["target"] == "ricci":
                    noise = np.random.default_rng(12345).normal(size=f.ricci.shape[1:])
                    bad = f.ricci[i] + perturb["epsilon"] * 0.5 * (noise + noise.T)
                    res = lane_residuals([bad @ f.ginv[i] @ bad],
                                         [fit.alpha1 * bad + fit.alpha2 * f.g[i]])
                    row.append(("ricci_square_affine_perturbed", res[0], "identity", None, True))
            if job.expect.get("ricci_pseudosymmetric"):
                rp = self.product_checks[i]["ricci"]
                row.append(("ricci_pseudosymmetry",
                            rp.residual if rp.verdict != "vacuous" else 0.0, "identity"))
                if rp.factor is not None:
                    scalars["L_S"] = rp.factor
            for key, value in (pins[i] if i < len(pins) else {}).items():
                # A pin on a scalar the target lacks, or holds as a name, fails.
                have = scalars.get(key)
                res = scalar_residual(have, value) if isinstance(have, (int, float)) else 1.0
                row.append((f"pinned_{key}", res, "pinned"))
            row.append(("fit_scalars", 0.0, "strict", {"scalars": scalars}))
            rows.append(row)
        return rows

    @cached_property
    def diagnostics(self) -> wp.WarpedDiagnostics:
        return wp.diagnostics(self.target.warped_spec, self.stacked, self.evaluated[1])

    @cached_property
    def warped(self) -> list:
        """The warped-diagnostics suite's checks at each point, from one
        pass over diagnostics; none on a target that is not warped."""
        job, ws, count = self.job, self.target.warped_spec, len(self.points)
        if ws is None:
            return [[] for _ in self.points]
        d = self.diagnostics
        block_tols = {"riemann_zero": "geo", "ricci_mixed": "geo", "trace_t": "strict"}
        checks = [("product_christoffels", wp.verify_product_christoffels(d), "strict")]
        checks += [(name, res, block_tols.get(name, "identity"))
                   for name, res in wp.verify_curvature_blocks(d).items()]
        scalars = {"warp": d.f_value, "tr_t": d.tr_t, "delta1": d.delta1,
                   "base_scalar": d.base_frame.scalar, "fiber_scalar": d.fiber_frame.scalar}
        if d.rho0 is not None:
            checks += _named(wp.verify_weyl_blocks(d), "identity")
            rho0, is_flat = wp.conformal_flatness_test(d)
            scalars.update(rho0=rho0, rho1=d.rho1, rho2=d.rho2, rho3=d.rho3, mu1=d.mu1, mu2=d.mu2)
            if "conformally_flat" in job.expect:  # a flag, as _flag makes it
                flags = np.where(is_flat == job.expect["conformally_flat"], 0.0, 1.0)
                details = [{"detail": value} for value in rho0.tolist()]
                checks.append(("conformally_flat", flags, "flag", details))
        if job.kind == "family":
            checks.append(("t_proportional", wp.t_proportionality_residual(d), "geo"))
            checks += _named(wp.verify_proportional_blocks(d), "identity")
            if self.peer is None:
                res = scalar_residual(d.tr_t, job.mapped.cfg.d * d.f_value)
                checks.append(("trace_t_scaled_warp", res, "identity"))
        checks.append(_scalars("warp_scalars", scalars, count))
        return _per_point(checks, count)

    @cached_property
    def classifications(self) -> list:
        """roter.classify of every point; on a warped target whose
        diagnostics have block factors, each ROTER point's block
        eigenvalues mu1, mu2 join the alphas its rank scan ranks."""
        ws, extras = self.target.warped_spec, None
        if ws and self.diagnostics.mu1 is not None:
            extras = list(zip(self.diagnostics.mu1.tolist(), self.diagnostics.mu2.tolist()))
        return roter.classify(self.stacked, extras)

    @cached_property
    def product_checks(self) -> list:
        """Per point, a dict of what reads curvature products, planned from
        the job alone: at a ROTER point identities, and ricci where expected,
        for theorem21; on a fitted family, at a point with a fit, cor42 and
        on the source semisymmetric, which the geodesic piece reads.  Products
        are built and dropped per contiguous group of roter.product_lanes(n)
        lanes (a 25-lane chunk's take 6.5 MB at n = 6); since the packed
        products and lane forms, all else costs most per call, not per point,
        so it runs once per chunk.  Where only some points of a group are
        ROTER, the identities read products built on those alone."""
        job, size, out = self.job, roter.product_lanes(self.stacked.dim), []
        for start in range(0, len(self.points), size):
            lanes = range(start, min(start + size, len(self.points)))
            frame, cs = self.stacked.take(lanes), [self.classifications[i] for i in lanes]
            products, group = roter.curvature_products(frame), [{} for _ in cs]
            kept = [i for i, c in enumerate(cs) if c.kind == roter.ROTER]
            if kept:
                sub = frame.take(kept)
                sub_products = products if sub is frame else roter.curvature_products(sub)
                for i, res in zip(kept, roter.identity_suite(sub, [cs[i].fit for i in kept],
                                                             sub_products)):
                    group[i]["identities"] = res
            if job.expect.get("ricci_pseudosymmetric"):
                for piece, rp in zip(group, roter.ricci_pseudosymmetry(frame, products)):
                    piece["ricci"] = rp
            kept = [i for i, c in enumerate(cs) if job.fitted and c.fit is not None]
            if kept:
                P = {key: products[key][kept] for key in ("RR", "QSR", "QgC")}
                res = gm.corollary42_residual(frame.dim, [cs[i].fit for i in kept], P)
                for i, value in zip(kept, res.tolist()):
                    group[i]["cor42"] = value
                if self.peer is None:
                    for piece, flag in zip(group, gm.semisymmetric(products["RR"], frame).tolist()):
                        piece["semisymmetric"] = flag
            out += group
        return out

    @cached_property
    def geodesic(self) -> list:
        """On the image chunk of a mapped pair (peer its source), each point's
        geodesic checks: the checks that read no fit and, on a fitted family,
        the roter_fits flag with the first rejection or the factor relations,
        each member's cor42 and the psi-Ricci identity (an error flag where
        the source is semisymmetric)."""
        job, source, count = self.job, self.peer, len(self.points)
        jets, values, root = (self.run[key] for key in ("psi", "values", "root"))
        frames = (source.stacked, self.stacked)
        checks = [
            ("geodesic_compatibility", gm.geodesic_compatibility_residual(*frames, jets), "geo"),
            ("christoffel_shift", gm.christoffel_shift_residual(*frames, jets), "geo"),
            ("ricci_shift", gm.ricci_shift_residual(*frames, jets), "identity"),
            ("psi_gradient", gm.psi_gradient_residual(jets), "strict"),
        ]
        if job.kind == "pair2d":
            checks += _named(gm.pair_christoffel_closed_forms(job.mapped, *frames), "geo")
        else:
            fam, d, d_bar = job.mapped, source.diagnostics, self.diagnostics
            r4, r5 = gm.warp_compatibility_residuals(fam, d, d_bar, jets)
            checks += [("warp_scale_equation", r4, "geo"), ("warp_log_equation", r5, "geo")]
            checks += _named(gm.family_psi_closed_forms(fam, d, values, jets), "geo")
            checks += _named(gm.family_image_ricci_forms(fam, d_bar, values), "identity")
            checks += _named(gm.warp_profile_pde_residuals(d, root), "geo")
            kg, kg_bar = gm.base_gauss_values(d, d_bar)
            checks += [("base_gauss_source", scalar_residual(kg, fam.l_r_expected), "geo"),
                       ("base_gauss_image", scalar_residual(kg_bar, fam.l_r_image_expected), "geo")]
        rows, lanes = [[] for _ in range(count)], []
        members = zip(source.classifications, self.classifications) if job.fitted else ()
        for i, cs in enumerate(members):
            rejected = [c.fit_error for c in cs if c.fit is None]
            if rejected:
                rows[i].append(_flag("roter_fits", False, detail=rejected[0]))
            else:
                lanes.append(i)
        if lanes:
            frames = (source.stacked.take(lanes), self.stacked.take(lanes))
            fits = tuple([chunk.classifications[i].fit for i in lanes] for chunk in (source, self))
            values = {key: value[lanes] for key, value in values.items()}
            jets = tuple(part[lanes] for part in jets)
            fitted = _named(gm.factor_relations(fam, frames, fits, values), "identity")
            for tag, chunk in (("cor42_source", source), ("cor42_image", self)):
                fitted.append((tag, [chunk.product_checks[i]["cor42"] for i in lanes], "identity"))
            fitted.append(("psi_ricci_identity",
                           gm.psi_ricci_identity_residual(fam, frames, fits, jets), "compound"))
            for i, row in zip(lanes, _per_point(fitted, len(lanes))):
                if source.product_checks[i]["semisymmetric"]:
                    row[-1] = _flag("error", False, _SEMISYMMETRIC)
                rows[i] += row
        return [a + b for a, b in zip(_per_point(checks, count), rows)]


def _flag(check, ok, detail=None):
    """A boolean check: residual 0 or 1 under the internal "flag" bound 0.5."""
    return check, 0.0 if ok else 1.0, "flag", None if detail is None else {"detail": detail}


def family_checks(job: Job, members):
    """A family's aggregates (point index -1); members are its points' (source, image) verdicts."""
    yield "profile_invariant", gm.profile_invariant_residual(job.mapped), "strict"
    pairs = [(a.fit.L_R, b.fit.L_R) for a, b in members if a.fit and b.fit]
    if pairs:
        yield "l_r_constancy_source", constancy_residual([a for a, _ in pairs]), "identity"
        yield "l_r_constancy_image", constancy_residual([b for _, b in pairs]), "identity"


# The Chunk piece of each suite that runs on every target.
TARGET_SUITES = {"geometry-symmetries": "geometry", "theorem21": "theorem21",
                 "warped-diagnostics": "warped"}


def _suite_runs(job: Job, points, suites):
    """(suite, target label, start, points, read) in run order, read()
    giving the checks at each of the points, which run from index start:
    a piece of one Chunk per target, for chunks of roter.chunk_size(n)
    points (products in groups of roter.product_lanes(n)), n the chart
    dimension.  A mapped pair's image has peer and holds the geodesic
    piece, and a family's aggregates (index -1) read the Roter verdicts
    of every chunk that did not fail."""
    members: list = []
    size = roter.chunk_size(job.targets[0].spec.dim)
    for start in range(0, len(points), size):
        pts = points[start:start + size]
        # One run per chunk; sampling admitted each point by running it there, so it cannot raise.
        run = job.jets(pts)
        first = Chunk(job, job.targets[0], start, pts, run)
        chunks = [first] + [Chunk(job, t, start, pts, run, first) for t in job.targets[1:]]
        runs = [(suite, chunk.target.label, chunk, piece)
                for suite, piece in TARGET_SUITES.items() if suite in suites for chunk in chunks]
        if "geodesic" in suites and job.kind in ("pair2d", "family"):
            runs.append(("geodesic", "pair", chunks[1], "geodesic"))
        for suite, label, chunk, piece in runs:
            yield suite, label, start, pts, partial(getattr, chunk, piece)
        if "geodesic" in suites and job.fitted:
            with suppress(*_POINT_ERRORS):  # a chunk that failed recorded it at each point
                members += zip(first.classifications, chunks[1].classifications)
    if "geodesic" in suites and job.kind == "family":
        yield "geodesic", "pair", -1, [()], lambda: [list(family_checks(job, members))]


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
    manifolds = manifest.get("manifolds")  # suite names first, so a misspelt one is named
    for owner in [manifest, *(manifolds if isinstance(manifolds, list) else [])]:
        names = owner.get("suites") if isinstance(owner, dict) else None
        if isinstance(names, list) and all(isinstance(name, str) for name in names):
            _expand_suites(names)
    validate_manifest(manifest)  # then the schema, which every key read below relies on
    tol = _validate_overrides(points, seed, tol_scale, manifest.get("tolerances"))
    selected = _expand_suites(suites or manifest.get("suites", ["all"]))
    thresholds = {**tol, "flag": 0.5}
    # Draft 7 takes 1.0 for an integer; the run needs an int.
    seed = int(manifest.get("seed", 0) if seed is None else seed)
    count = int(manifest.get("points", 20) if points is None else points)
    records: list = []

    for m_index, mdef in enumerate(manifest["manifolds"]):
        m_suites = selected if suites else _expand_suites(mdef.get("suites", [])) or selected
        job = build_job(mdef)
        rng = np.random.default_rng([seed, m_index])
        pts = sample_points(job, count, rng)
        rounded = [[round(v, 12) for v in pt] for pt in pts]
        for suite, label, start, chunk_pts, read in _suite_runs(job, pts, m_suites):
            try:
                rows = read()
            except _POINT_ERRORS as err:
                rows = [[_flag("error", False, f"{type(err).__name__}: {err}")]] * len(chunk_pts)
            for index, row in enumerate(rows, start):
                point = rounded[index] if index >= 0 else []  # -1: a family's aggregates
                for check in row:
                    threshold = thresholds[check[2]]
                    passed = bool(check[1] <= threshold)
                    expect_fail = len(check) > 4 and check[4]
                    rec = {"manifold": job.name, "target": label, "point_index": index,
                           "point": point, "suite": suite, "check": check[0],
                           "residual": float(check[1]), "threshold": threshold, "pass": passed,
                           "expect_fail": expect_fail, "ok": passed != expect_fail}
                    if len(check) > 3 and check[3]:
                        rec.update(check[3])  # scalars hold Python numbers (see the suites)
                    records.append(rec)

    records.sort(key=operator.itemgetter("manifold", "target", "point_index", "suite", "check"))
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
        "ok": off_expectation == 0 and bool(records),  # a run with no check shows nothing
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
    with open(paths["records"], "w", encoding="utf-8") as fh:
        fh.writelines(record_lines(records))
    stamped = dict(summary)
    stamped["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    with open(paths["summary"], "w", encoding="utf-8") as fh:
        json.dump(stamped, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(paths["text"], "w", encoding="utf-8") as fh:
        fh.write(render_text_summary(records, summary))
    return paths


_RECORD_FIELDS = operator.itemgetter("check", "expect_fail", "manifold", "ok", "pass", "point",
                                     "point_index", "residual", "suite", "target", "threshold")
_DIGEST_KEY = operator.itemgetter("manifold", "target", "check")


def record_lines(records):
    """Each record as json.dumps(rec, sort_keys=True) + "\\n": a sorted-key template that encodes a
    site field only when its object changes, and each str check name and nonzero threshold
    once per call; a record it does not fit is encoded whole."""
    encode = json.JSONEncoder(sort_keys=True).encode
    names, limits = {}, {}  # 0.0 == -0.0, so a zero threshold is not cached
    sm = st = sp = si = ss = object()  # the site fields, which no record holds at first
    for rec in records:
        size = len(rec)
        try:
            check, ef, m, ok, ps, p, i, res, s, t, thr = _RECORD_FIELDS(rec)
            extra = size > 11 and size - 11 - ("detail" in rec) - ("scalars" in rec)
        except KeyError:
            extra = 1
        if extra or not (type(check) is str and type(ef) is type(ok) is type(ps) is bool
                         and type(res) is type(thr) is float
                         and math.isfinite(res) and math.isfinite(thr)):
            yield encode(rec) + "\n"
            continue
        if m is not sm:
            sm, em = m, encode(m)
        if t is not st:
            st, et = t, encode(t)
        if p is not sp:
            sp, ep = p, encode(p)
        if i is not si:
            si, ei = i, encode(i)
        if s is not ss:
            ss, es = s, encode(s)
        detail = scalars = ""
        if size > 11:
            if "detail" in rec:
                detail = ', "detail": ' + encode(rec["detail"])
            if "scalars" in rec:
                scalars = ', "scalars": ' + encode(rec["scalars"])
        name = names.get(check)
        if name is None:
            name = names[check] = encode(check)
        limit = limits.get(thr) if thr else repr(thr)
        if limit is None:
            limit = limits[thr] = repr(thr)
        yield (f'{{"check": {name}{detail}, "expect_fail": {"true" if ef else "false"}, '
               f'"manifold": {em}, "ok": {"true" if ok else "false"}, '
               f'"pass": {"true" if ps else "false"}, "point": {ep}, "point_index": {ei}, '
               f'"residual": {res!r}{scalars}, "suite": {es}, "target": {et}, '
               f'"threshold": {limit}}}\n')


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
    # Per (manifold, target, check): the worst residual, NaN the worst of all.
    worst: dict[tuple, float] = {}
    off, controls = set(), set()  # keys with a record off expectation, with a negative control
    for rec in records:
        key, res = _DIGEST_KEY(rec), rec["residual"]
        prev = worst.get(key)
        if prev is None or res > prev or res != res:
            worst[key] = res
        if not rec["ok"]:
            off.add(key)
        if rec["expect_fail"]:
            controls.add(key)
    lines.append(f"{'manifold':24} {'target':7} {'check':32} {'worst residual':>14}  status")
    for key in sorted(worst):
        manifold, target, check = key
        status = "OFF-EXPECTATION" if key in off else "ok"
        if key in controls:
            status += " (expected-fail)"
        lines.append(f"{manifold[:24]:24} {target:7} {check[:32]:32} {worst[key]:14.3e}  {status}")
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

    p_desc = sub.add_parser("describe", help="print a manifest file or corpus entry")
    p_desc.add_argument("name")

    args = parser.parse_args(argv)

    if args.command == "list":
        for name in corpus_mod.corpus_list():
            print(name)
        return 0

    if args.command == "describe":
        try:
            entry = load_manifest(args.name)
        except ManifestError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        print(json.dumps(entry, indent=2, sort_keys=True))
        return 0

    out_dir = args.out or os.environ.get(OUT_ENV) or "reports"
    made = []  # the directories the run makes, deepest first
    parent = os.path.abspath(out_dir)
    while not os.path.lexists(parent):
        made.append(parent)
        parent = os.path.dirname(parent)
    try:
        try:
            manifest = load_manifest(args.manifest)
            _validate_overrides(args.points, args.seed, args.tol_scale, manifest.get("tolerances"))
            os.makedirs(out_dir, exist_ok=True)
        except (ManifestError, OSError) as err:
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
        paths = write_report(records, summary, out_dir)
        made.clear()
    finally:  # a run that writes no report leaves no directory it made
        for path in made:
            with suppress(OSError):  # kept if another run has written into it
                os.rmdir(path)
    with open(paths["text"], encoding="utf-8") as fh:
        print(fh.read())
    print(f"records : {paths['records']}")
    print(f"summary : {paths['summary']}")
    return 0 if summary["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
