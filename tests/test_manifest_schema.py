"""cli.schema_errors, the manifest schema's interpreter, against an oracle.

curvcheck checks MANIFEST_SCHEMA with its own interpreter of the draft-7
keywords the schema uses.  jsonschema's Draft7Validator, a test
dependency only, is the oracle: both must accept the same manifests and
report each violation at the same place.
"""

import copy
import json

import pytest

from curvcheck import cli
from curvcheck.corpus import corpus_get, corpus_list

Draft7Validator = pytest.importorskip("jsonschema").Draft7Validator


def oracle_paths(manifest) -> list:
    return sorted("/".join(map(str, e.absolute_path))
                  for e in Draft7Validator(cli.MANIFEST_SCHEMA).iter_errors(manifest))


def own_paths(manifest) -> list:
    return sorted("/".join(map(str, path))
                  for path, _ in cli.schema_errors(manifest, cli.MANIFEST_SCHEMA))


def good() -> dict:
    # A 4-D chart: below n = 4 no check reads perturb, and validation refuses it.
    return {
        "name": "tiny", "seed": 1, "points": 2, "suites": ["geometry-symmetries"],
        "manifolds": [{
            "name": "flat", "kind": "explicit", "coords": ["x", "y", "z", "w"],
            "metric": [["1" if i == j else "0" for j in range(4)] for i in range(4)],
            "conditions": [["1 + x^2", "positive"]],
            "box": {c: [-1, 1] for c in ("x", "y", "z", "w")},
            "constants": {"M": 1.0},
            "expect": {"classify": "EINSTEIN"},
            "perturb": {"target": "ricci", "epsilon": 1e-3},
        }],
    }


def warped() -> dict:
    manifest = good()
    manifest["manifolds"][0] = {
        "name": "line_cross_fiber", "kind": "warped",
        "base": {"coords": ["u"], "metric": [["1"]]},
        "fiber": {"dim": 2, "scalar_curvature": 2.0},
        "warp": "u^2 + 1", "box": {"u": [0.3, 1.5]},
    }
    return manifest


def family() -> dict:
    manifest = good()
    manifest["manifolds"] = corpus_get("theorem41_n4")["manifolds"]
    return manifest


def edited(base, edit):
    manifest = copy.deepcopy(base())
    edit(manifest, manifest["manifolds"][0])
    return manifest


# (keyword, manifest): each manifest breaks the schema through that keyword.
VIOLATIONS = [
    ("type_root", lambda: [good()]),
    ("type_string_for_integer", lambda: edited(good, lambda m, f: m.update(seed="1"))),
    ("type_true_is_no_integer", lambda: edited(good, lambda m, f: m.update(seed=True))),
    ("type_true_is_no_number", lambda: edited(
        good, lambda m, f: f["perturb"].update(epsilon=True))),
    ("type_fraction_is_no_integer", lambda: edited(good, lambda m, f: m.update(points=2.5))),
    ("type_nested", lambda: edited(good, lambda m, f: m.update(description=3))),
    ("enum", lambda: edited(good, lambda m, f: m.update(suites=["spectral"]))),
    ("enum_kind", lambda: edited(good, lambda m, f: f.update(kind="sphere"))),
    ("required_root", lambda: edited(good, lambda m, f: m.pop("name"))),
    ("required_manifold", lambda: edited(good, lambda m, f: f.pop("box"))),
    ("required_nested", lambda: edited(good, lambda m, f: f["perturb"].pop("epsilon"))),
    ("additional_properties_false", lambda: edited(good, lambda m, f: m.update(surprise=1))),
    ("additional_properties_false_nested", lambda: edited(
        good, lambda m, f: f["expect"].update(fail_checks=["nabla_g"], other=1))),
    ("additional_properties_false_scalars", lambda: edited(
        family, lambda m, f: f["expect"]["scalars"].update(L_r=123.0))),
    ("additional_properties_schema", lambda: edited(
        good, lambda m, f: f["constants"].update(Q="one"))),
    ("additional_properties_schema_deep", lambda: edited(
        good, lambda m, f: f["box"].update(x=[0, "1"]))),
    ("items_single", lambda: edited(good, lambda m, f: f.update(coords=["x", 1]))),
    ("items_single_matrix", lambda: edited(
        good, lambda m, f: f.update(metric=[["1", 0], ["0", "1"]]))),
    ("items_tuple_first", lambda: edited(
        good, lambda m, f: f.update(conditions=[[1, "positive"]]))),
    ("items_tuple_second", lambda: edited(
        good, lambda m, f: f.update(conditions=[["x", "maybe"]]))),
    ("min_items_empty", lambda: edited(good, lambda m, f: m.update(manifolds=[]))),
    ("min_items_suites", lambda: edited(good, lambda m, f: m.update(suites=[]))),
    ("min_items_manifold_suites", lambda: edited(good, lambda m, f: f.update(suites=[]))),
    ("min_items_short", lambda: edited(good, lambda m, f: f["box"].update(x=[0]))),
    ("min_items_condition", lambda: edited(good, lambda m, f: f.update(conditions=[["x"]]))),
    ("max_items", lambda: edited(good, lambda m, f: f["box"].update(x=[0, 1, 2]))),
    ("max_items_condition", lambda: edited(
        good, lambda m, f: f.update(conditions=[["x", "positive", "nonzero"]]))),
    ("minimum", lambda: edited(good, lambda m, f: m.update(seed=-1))),
    ("minimum_points", lambda: edited(good, lambda m, f: m.update(points=0))),
    ("minimum_fiber_dim", lambda: edited(warped, lambda m, f: f["fiber"].update(dim=1))),
    ("exclusive_minimum_zero", lambda: edited(good, lambda m, f: m.update(tolerances={"geo": 0}))),
    ("exclusive_minimum_negative", lambda: edited(
        good, lambda m, f: m.update(tolerances={"geo": -1e-9, "strict": 0.0}))),
    ("pattern", lambda: edited(good, lambda m, f: m.update(name="../escaped"))),
    ("pattern_empty", lambda: edited(good, lambda m, f: m.update(name=""))),
    ("several_at_once", lambda: edited(good, lambda m, f: (
        m.update(seed=True, surprise=1, name=".hidden"), f.update(kind="sphere", coords=[])))),
]

# Manifests the schema accepts: the type edge cases that hold.
ACCEPTED = [
    ("integer_valued_float_is_an_integer", lambda: edited(
        good, lambda m, f: m.update(seed=1.0, points=2.0))),
    ("integer_valued_float_fiber_dim", lambda: edited(
        warped, lambda m, f: f["fiber"].update(dim=3.0))),
    ("integer_valued_float_params_fiber_dim", lambda: edited(
        family, lambda m, f: f["params"].update(fiber_dim=2.0))),
    ("integer_is_a_number", lambda: edited(
        good, lambda m, f: m.update(tolerances={"geo": 1}))),
    ("float_at_the_minimum", lambda: edited(good, lambda m, f: m.update(seed=0.0))),
]


@pytest.mark.parametrize("name", corpus_list())
def test_corpus_entries_pass_both(name):
    manifest = corpus_get(name)
    assert oracle_paths(manifest) == own_paths(manifest) == []


@pytest.mark.parametrize("make", [m for _, m in ACCEPTED], ids=[k for k, _ in ACCEPTED])
def test_accepted_by_both(make):
    manifest = make()
    assert oracle_paths(manifest) == own_paths(manifest) == []
    cli.validate_manifest(manifest)


def integer_twin(value):
    """value with each integer-valued float made an int."""
    if isinstance(value, dict):
        return {k: integer_twin(v) for k, v in value.items()}
    if isinstance(value, list):
        return [integer_twin(v) for v in value]
    return int(value) if isinstance(value, float) and value.is_integer() else value


@pytest.mark.parametrize("make", [m for _, m in ACCEPTED], ids=[k for k, _ in ACCEPTED])
def test_accepted_runs_as_its_integer_twin(make, tmp_path):
    # `curvcheck run` on the manifest and on its twin: the same exit code,
    # records and summaries, the summary.json timestamp aside.
    reports = []
    for k, manifest in enumerate((make(), integer_twin(make()))):
        path, out = tmp_path / f"{k}.json", tmp_path / f"out{k}"
        path.write_text(json.dumps(manifest))
        code = cli.main(["run", str(path), "--out", str(out)])
        stem = out / manifest["name"]
        summary = json.loads(stem.with_suffix(".summary.json").read_text())
        summary.pop("timestamp")
        reports.append((code, stem.with_suffix(".records.jsonl").read_text(), summary,
                        stem.with_suffix(".summary.txt").read_text()))
    assert reports[0] == reports[1]


@pytest.mark.parametrize("make", [m for _, m in ACCEPTED], ids=[k for k, _ in ACCEPTED])
def test_accepted_runs_in_process_as_its_integer_twin(make):
    # The corpus and library callers hand run_manifest a dict that
    # load_manifest never saw.
    assert cli.run_manifest(make()) == cli.run_manifest(integer_twin(make()))


@pytest.mark.parametrize("make", [m for _, m in VIOLATIONS], ids=[k for k, _ in VIOLATIONS])
def test_rejected_by_both_at_the_same_paths(make):
    manifest = make()
    paths = oracle_paths(manifest)
    assert paths and own_paths(manifest) == paths
    with pytest.raises(cli.ManifestError, match="^manifest schema violation: "):
        cli.validate_manifest(manifest)


def test_violation_is_one_line_with_path_and_message():
    manifest = edited(good, lambda m, f: f["box"].update(x=[0, "1"]))
    with pytest.raises(cli.ManifestError) as info:
        cli.validate_manifest(manifest)
    assert str(info.value) == ("manifest schema violation: "
                               "manifolds/0/box/x/1: '1' is not of type 'number'")
