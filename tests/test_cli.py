"""Harness tests: manifest validation, corpus runs, reports, determinism."""

import ast
import gc
import hashlib
import json
import math
import random
import re
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvcheck import cli, curvops, roter
from curvcheck import expr as ex
from curvcheck import geomap as gm
from curvcheck import geometry as geo
from curvcheck import warped as wp
from curvcheck.corpus import corpus_get, corpus_list
from helpers import evaluate, json_lines, mapped_point_ok, member_ok, sample_one_at_a_time


def run_module(args, **kw):
    """Run `python -m curvcheck.cli` in a fresh interpreter."""
    return subprocess.run(
        [sys.executable, "-m", "curvcheck.cli", *args],
        capture_output=True, text=True, **kw,
    )


def run_cli(args, capsys):
    """Run cli.main(args) in this process, output captured by capsys, and
    return what run_module would: exit code, stdout and stderr."""
    code = cli.main(list(args))
    out, err = capsys.readouterr()
    return subprocess.CompletedProcess(args, code, out, err)


class TestCorpus:
    def test_required_names_present(self):
        names = corpus_list()
        for required in ("rn_lambda0", "theorem41_n4", "einstein_cflat"):
            assert required in names

    def test_all_profile_branches_covered(self):
        params = [
            corpus_get(n)["manifolds"][0]["params"]
            for n in corpus_list()
            if corpus_get(n)["manifolds"][0]["kind"] == "family"
        ]
        signs = {(p["c"] > 0) - (p["c"] < 0) for p in params}
        assert signs == {-1, 0, 1}

    def test_every_entry_declares_expectations(self):
        for name in corpus_list():
            entry = corpus_get(name)
            assert any(
                "expect" in m or "perturb" in m for m in entry["manifolds"]
            ), name

    def test_all_entries_validate(self):
        for name in corpus_list():
            cli.validate_manifest(corpus_get(name))

    def test_prefix_and_suffix_stripping(self):
        assert corpus_get("corpus/rn_lambda0.manifest")["name"] == "rn_lambda0"

    def test_each_get_is_a_new_copy(self):
        # An edit to one copy, or load_manifest's own, never reaches the
        # next: a float seed left behind used to crash every later run.
        before = json.dumps(corpus_get("flat_space"), sort_keys=True)
        corpus_get("flat_space")["seed"] = 1.5
        cli.load_manifest("flat_space")["manifolds"][0]["box"].clear()
        assert json.dumps(corpus_get("flat_space"), sort_keys=True) == before
        records, summary = cli.run_manifest(corpus_get("flat_space"), points=1)
        assert summary["ok"] and summary["seed"] == json.loads(before)["seed"]


class TestValidation:
    def good(self):
        return {
            "name": "tiny",
            "seed": 1,
            "points": 2,
            "suites": ["geometry-symmetries"],
            "manifolds": [
                {
                    "name": "flat",
                    "kind": "explicit",
                    "coords": ["x", "y"],
                    "metric": [["1", "0"], ["0", "1"]],
                    "box": {"x": [-1, 1], "y": [-1, 1]},
                }
            ],
        }

    def test_good_manifest_passes(self):
        cli.validate_manifest(self.good())

    def test_importing_the_cli_loads_no_jsonschema(self):
        # jsonschema is a test dependency only: the tests use it as the
        # schema interpreter's oracle (test_manifest_schema.py).
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, curvcheck.cli; assert 'jsonschema' not in sys.modules"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_unknown_key_rejected(self):
        bad = self.good()
        bad["surprise"] = 1
        unread = self.good()
        unread["manifolds"][0]["expect"] = {"fail_checks": ["nabla_g"]}
        for manifest in (bad, unread):
            with pytest.raises(cli.ManifestError):
                cli.validate_manifest(manifest)

    def test_unknown_suite_rejected(self):
        bad = self.good()
        bad["suites"] = ["spectral"]
        with pytest.raises(cli.ManifestError):
            cli.validate_manifest(bad)

    def test_missing_kind_fields_rejected(self):
        bad = self.good()
        bad["manifolds"][0]["kind"] = "family"
        with pytest.raises(cli.ManifestError):
            cli.validate_manifest(bad)

    @pytest.mark.parametrize("entry, change, message", [
        ("flat_space", lambda m: m.pop("box"), "'box' is a required property"),
        ("theorem41_n4", lambda m: m.pop("params"), "kind family needs 'params'"),
        ("flat_space", lambda m: m.update(kind="pair"), "'pair' is not one of"),
    ], ids=["no_box", "family_without_params", "unknown_kind"])
    def test_run_manifest_checks_the_manifold_keys(self, entry, change, message):
        # A manifest built in code reaches run_manifest without
        # load_manifest; a missing key is a ManifestError, not a KeyError.
        manifest = corpus_get(entry)
        change(manifest["manifolds"][0])
        with pytest.raises(cli.ManifestError, match=message):
            cli.run_manifest(manifest, points=1)

    @pytest.mark.parametrize("change", [
        lambda m: m.update(tolerances={"strict": "x"}),
        lambda m: m.update(tolerances=[1e-10]),
        lambda m: m.update(manifolds=5),
        lambda m: m.update(manifolds=[5]),
    ], ids=["tolerance_not_a_number", "tolerances_a_list", "manifolds_a_number",
            "manifold_a_number"])
    def test_run_manifest_validates_before_reading(self, change):
        # run_manifest checks the schema before it reads the tolerances or
        # the manifolds, so a malformed one is a ManifestError, not a bare
        # TypeError or AttributeError.
        manifest = corpus_get("flat_space")
        change(manifest)
        with pytest.raises(cli.ManifestError, match="manifest schema violation"):
            cli.run_manifest(manifest, points=1)

    @pytest.mark.parametrize("kind, foreign", [
        ("explicit", {"warp": "x", "pair": {"a": "1", "b": "x", "map_scale": 1.0, "map_shift": 0.0}}),
        ("warped", {"params": {"c": 1.0, "d": 1.0, "c1": 1.0, "c2": 0.0}}),
        ("family", {"coords": ["x", "t"], "conditions": [["x", "positive"]]}),
        ("pair2d", {"fiber": {"dim": 2}, "metric": [["1"]]}),
    ])
    def test_keys_of_another_kind_exit_2(self, tmp_path, capsys, kind, foreign):
        # Each used to pass validation and run with the keys ignored.
        manifest = {
            "explicit": self.good(),
            "warped": self.warped({"dim": 2, "scalar_curvature": 2.0}),
            "family": corpus_get("theorem41_n4"),
            "pair2d": corpus_get("surface_pair"),
        }[kind]
        cli.validate_manifest(manifest)
        manifest["manifolds"][0].update(foreign)
        with pytest.raises(cli.ManifestError, match=f"kind {kind} does not take"):
            cli.validate_manifest(manifest)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(manifest))
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert all(repr(key) in err for key in foreign)
        assert not out.exists()

    @staticmethod
    def line_chart():
        return {"name": "line", "manifolds": [{
            "name": "line", "kind": "explicit", "coords": ["x"], "metric": [["1 + x^2"]],
            "box": {"x": [-1, 1]}}]}

    @pytest.mark.parametrize("entry, expect, unread", [
        ("flat_space", {"scalars": {"gauss": 0.0}}, ["expect/scalars/gauss"]),
        ("flat_space", {"conformally_flat": True}, ["expect/conformally_flat"]),
        ("ricci_pseudo_1d_base", {"conformally_flat": False}, ["expect/conformally_flat"]),
        ("rn_lambda0", {"scalars": {"L_R_image": -0.5}}, ["expect/scalars/L_R_image"]),
        ("surface_pair", {"scalars": {"L_R_image": -0.5}}, ["expect/scalars/L_R_image"]),
        ("unit_sphere", {"scalars": {"L_R": 1.0}}, ["expect/scalars/L_R"]),
        ("line", {"classify": "ROTER", "ricci_pseudosymmetric": True},
         ["expect/classify", "expect/ricci_pseudosymmetric"]),
    ], ids=["gauss_at_n4", "cflat_explicit", "cflat_1d_base", "l_r_image_explicit",
            "l_r_image_pair", "l_r_at_n2", "classify_at_n1"])
    def test_an_expectation_no_check_reads_exits_2(self, tmp_path, capsys, entry, expect, unread):
        # Each used to run green with no record for its check, whatever the
        # suites.  Whether a check reads it is decided from the kind and
        # the chart dimension alone.
        manifest = self.line_chart() if entry == "line" else corpus_get(entry)
        mdef = manifest["manifolds"][0]
        cli.validate_manifest(manifest)
        given = mdef.setdefault("expect", {})
        for key, value in expect.items():
            given[key] = {**given.get(key, {}), **value} if isinstance(value, dict) else value
        with pytest.raises(cli.ManifestError, match=f"manifold {mdef['name']!r}: no check reads "
                                                    f"{', '.join(unread)} on its"):
            cli.validate_manifest(manifest)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(manifest))
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(mdef["name"]) in err and all(key in err for key in unread)
        assert not out.exists()

    def test_ricci_pseudosymmetric_false_exits_2(self, tmp_path, capsys):
        # The suites test only a true ricci_pseudosymmetric: false used to
        # run green on rn_lambda0, which is Ricci pseudosymmetric, with no
        # ricci_pseudosymmetry record.
        manifest = corpus_get("rn_lambda0")
        mdef = manifest["manifolds"][0]
        assert mdef["expect"]["ricci_pseudosymmetric"] is True
        cli.validate_manifest(manifest)
        mdef["expect"]["ricci_pseudosymmetric"] = False
        with pytest.raises(cli.ManifestError, match="manifold 'rn_lambda0': "
                                                    "expect/ricci_pseudosymmetric takes only true"):
            cli.validate_manifest(manifest)
        with pytest.raises(cli.ManifestError, match="ricci_pseudosymmetric takes only true"):
            cli.run_manifest(manifest, points=2)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(manifest))
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'rn_lambda0'" in err and "expect/ricci_pseudosymmetric" in err
        assert not out.exists()

    def test_repeated_manifold_name_exits_2(self, tmp_path, capsys):
        # Records are keyed by manifold name: two manifolds named "m" used
        # to run green, each pair of their records merged in the digest.
        bad = self.good()
        bad["manifolds"] = [dict(bad["manifolds"][0], name="m") for _ in range(2)]
        with pytest.raises(cli.ManifestError, match="'m'"):
            cli.validate_manifest(bad)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        proc = run_cli(["run", str(path), "--out", str(tmp_path / "out")], capsys)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and "'m'" in proc.stderr

    def test_non_square_metric_rejected(self):
        bad = self.good()
        bad["manifolds"][0]["metric"] = [["1", "0"]]
        with pytest.raises(cli.ManifestError):
            cli.validate_manifest(bad)

    def test_unknown_suite_exits_2(self, tmp_path):
        bad = self.good()
        bad["suites"] = ["spectral"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        proc = run_module(["run", str(path), "--out", str(tmp_path / "out")])
        assert proc.returncode == 2

    def test_unknown_corpus_name_exits_2(self, tmp_path, capsys):
        proc = run_cli(["run", "no_such_entry", "--out", str(tmp_path)], capsys)
        assert proc.returncode == 2

    def test_name_with_path_exits_2(self, tmp_path, capsys):
        # The name is the report file stem; "../escaped" would write the
        # report outside --out.
        bad = self.good()
        bad["name"] = "../escaped"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        out = tmp_path / "out"
        proc = run_cli(["run", str(path), "--out", str(out)], capsys)
        assert proc.returncode == 2
        assert not list(tmp_path.glob("escaped.*"))
        for name in ("a/b", "", ".hidden", "-dash"):
            bad["name"] = name
            with pytest.raises(cli.ManifestError):
                cli.validate_manifest(bad)

    def test_non_positive_tolerance_rejected(self):
        for value in (0, -1e-9):
            bad = self.good()
            bad["tolerances"] = {"geo": value}
            with pytest.raises(cli.ManifestError):
                cli.validate_manifest(bad)

    def test_non_finite_json_constant_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({**self.good(), "tolerances": {"geo": float("nan")}}))
        proc = run_cli(["run", str(path), "--out", str(tmp_path / "out")], capsys)
        assert proc.returncode == 2
        assert "NaN" in proc.stderr

    @pytest.mark.parametrize(
        "field, value",
        [("box", {"theta": [0.5, 2.5], "y": [0, 1]}),
         ("pinned_points", [{"x": 0.1, "theta": 0.5}])],
    )
    def test_key_outside_the_chart_exits_1(self, tmp_path, field, value, capsys):
        # A misspelt coordinate used to be dropped: the run sampled the
        # default window instead and reported OK.
        bad = self.good()
        bad["manifolds"][0][field] = value
        with pytest.raises(cli.ManifestError, match="'theta'"):
            cli.run_manifest(bad)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        out = tmp_path / "out"
        proc = run_cli(["run", str(path), "--out", str(out)], capsys)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "'theta'" in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("kind, box, missing", [
        ("explicit", {"x": [0.3, 2.8]}, "'y'"),
        ("explicit", {}, "'x', 'y'"),
        ("warped", {"theta": [0.1, 0.2]}, "'u'"),
    ])
    def test_box_missing_a_chart_coordinate_exits_1(self, tmp_path, kind, box, missing, capsys):
        # A left-out coordinate other than a fiber's used to be sampled in
        # the fiber window [-0.3, 0.3] without a word.
        bad = self.good() if kind == "explicit" else self.warped(
            {"coords": ["theta", "phi"], "metric": [["1", "0"], ["0", "1"]]})
        bad["manifolds"][0]["box"] = box
        name = bad["manifolds"][0]["name"]
        with pytest.raises(cli.ManifestError, match=f"box of '{name}' leaves out {missing}$"):
            cli.run_manifest(bad)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        out = tmp_path / "out"
        proc = run_cli(["run", str(path), "--out", str(out)], capsys)
        assert proc.returncode == 1
        assert proc.stderr == f"error: box of '{name}' leaves out {missing}\n"
        assert not out.exists()

    @pytest.mark.parametrize("fiber", [
        {"dim": 2, "scalar_curvature": 2.0},
        {"coords": ["theta", "phi"], "metric": [["1", "0"], ["0", "1"]]},
    ])
    def test_a_fiber_coordinate_left_out_of_the_box_takes_the_fiber_window(self, fiber):
        job = cli.build_job(self.warped(fiber)["manifolds"][0])
        points = np.array(cli.sample_points(job, 8, np.random.default_rng(0)))
        assert ((0.3 <= points[:, 0]) & (points[:, 0] <= 1.5)).all()
        assert (np.abs(points[:, 1:]) <= 0.3).all()

    @pytest.mark.parametrize("pin, missing", [({"th": 1.0}, "'ph'"), ({"ph": 0.5}, "'th'")])
    def test_pinned_point_missing_a_coordinate_exits_1(self, tmp_path, pin, missing, capsys):
        # A left-out coordinate used to be placed at 0.0: {"th": 1.0} ran
        # at (1.0, 0.0) and reported OK, {"ph": 0.5} was "inadmissible"
        # (sin(0) = 0) without naming th.
        sphere = self.good()
        sphere["manifolds"][0].update(
            coords=["th", "ph"], metric=[["1", "0"], ["0", "sin(th)^2"]],
            conditions=[["sin(th)", "nonzero"]], box={"th": [0.3, 2.8], "ph": [0, 3]},
            pinned_points=[pin],
        )
        with pytest.raises(cli.ManifestError, match=missing):
            cli.run_manifest(sphere)
        path = tmp_path / "sphere.json"
        path.write_text(json.dumps(sphere))
        out = tmp_path / "out"
        proc = run_cli(["run", str(path), "--out", str(out)], capsys)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert missing in proc.stderr and "inadmissible" not in proc.stderr
        assert not out.exists()

    def warped(self, fiber):
        """A one-manifold warped manifest with the given fiber block."""
        manifest = self.good()
        manifest["manifolds"][0] = {
            "name": "line_cross_fiber",
            "kind": "warped",
            "base": {"coords": ["u"], "metric": [["1"]]},
            "fiber": fiber,
            "warp": "u^2 + 1",
            "box": {"u": [0.3, 1.5]},
        }
        return manifest

    @pytest.mark.parametrize("bounds", [[1, 0.1], [-1e308, 1e308], [-10**400, -10**400]])
    def test_box_needs_ordered_bounds_and_a_finite_width_exits_2(self, tmp_path, bounds, capsys):
        # lo > hi reached rng.uniform as "high - low < 0", and a width or
        # an integer bound past the largest float as an OverflowError,
        # each with a traceback.
        bad = self.good()
        bad["manifolds"][0]["box"]["x"] = bounds
        with pytest.raises(cli.ManifestError, match="manifold 'flat': box 'x'"):
            cli.validate_manifest(bad)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        proc = run_cli(["run", str(path), "--out", str(tmp_path / "out")], capsys)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and "'flat'" in proc.stderr

    @pytest.mark.parametrize("entry, keys", [
        ("rn_lambda0", ("constants", "M")),
        ("theorem41_n4", ("params", "c")),
        ("rn_lambda0", ("pinned_points", 0, "r")),
        ("surface_pair", ("pair", "map_scale")),
    ])
    def test_a_number_past_the_float_range_exits_2(self, tmp_path, entry, keys, capsys):
        # A 401-digit integer here used to end the run in "OverflowError:
        # int too large to convert to float", exit 1, with no report.
        bad = corpus_get(entry)
        *parents, last = keys
        mdef = block = bad["manifolds"][0]
        for key in parents:
            block = block[key]
        block[last] = 10 ** 400
        where = f"manifold {mdef['name']!r}: {'/'.join(map(str, keys))} is outside the float range"
        with pytest.raises(cli.ManifestError, match=f"^{re.escape(where)}"):
            cli.validate_manifest(bad)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        out = tmp_path / "out"
        proc = run_cli(["run", str(path), "--out", str(out)], capsys)
        assert proc.returncode == 2
        assert proc.stderr == f"error: {where} +-{sys.float_info.max!r}\n"
        assert not out.exists()

    def test_pinned_scalars_beyond_the_pinned_points_exit_2(self, tmp_path, capsys):
        # A pinned_scalars entry with no pinned point was never checked:
        # this one used to leave the run ok.
        bad = corpus_get("rn_lambda0")
        bad["manifolds"][0]["expect"]["pinned_scalars"].append({"phi": 12345.0})
        with pytest.raises(cli.ManifestError, match="manifold 'rn_lambda0'.*pinned_scalars"):
            cli.validate_manifest(bad)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        proc = run_cli(["run", str(path), "--out", str(tmp_path / "out")], capsys)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and "'rn_lambda0'" in proc.stderr

    def test_fiber_in_either_form_runs(self):
        for fiber in ({"dim": 2, "scalar_curvature": 2.0},
                      {"coords": ["y", "z"], "metric": [["1", "0"], ["0", "cos(y)^2"]]}):
            records, summary = cli.run_manifest(self.warped(fiber), points=1)
            assert summary["ok"] and records

    @pytest.mark.parametrize("fiber", [
        {"scalar_curvature": 2.0},
        {"coords": ["y", "z"]},
        {"dim": 2, "coords": ["y", "z"], "metric": [["1", "0"], ["0", "1"]]},
    ], ids=["no_dim", "no_metric", "both_forms"])
    def test_fiber_in_neither_form_exits_2(self, tmp_path, fiber, capsys):
        # The first two used to end in a KeyError traceback (exit 1); the
        # third ran with its explicit metric ignored.
        bad = self.warped(fiber)
        with pytest.raises(cli.ManifestError, match="'line_cross_fiber'"):
            cli.validate_manifest(bad)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        out = tmp_path / "out"
        proc = run_cli(["run", str(path), "--out", str(out)], capsys)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "fiber" in proc.stderr
        assert not out.exists()

    def test_directory_as_manifest_exits_2(self, tmp_path, capsys):
        # Used to end in an IsADirectoryError traceback.
        (tmp_path / "dir.json").mkdir()
        out = tmp_path / "out"
        proc = run_cli(["run", str(tmp_path / "dir.json"), "--out", str(out)], capsys)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert not out.exists()

    def test_manifest_not_utf8_exits_2(self, tmp_path, capsys):
        # Used to end in a UnicodeDecodeError traceback.
        path = tmp_path / "latin1.json"
        path.write_bytes(json.dumps(self.good()).encode()[:-1] + b'\xff}')
        out = tmp_path / "out"
        proc = run_cli(["run", str(path), "--out", str(out)], capsys)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_points_below_one_exits_2(self, tmp_path, points, capsys):
        proc = run_cli(["run", "flat_space", "--points", points, "--out", str(tmp_path)], capsys)
        assert proc.returncode == 2
        assert not list(tmp_path.iterdir())
        with pytest.raises(cli.ManifestError):
            cli.run_manifest(corpus_get("flat_space"), points=int(points))

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        # It used to end in numpy's ValueError traceback, with exit 1.
        proc = run_cli(["run", "flat_space", "--seed", "-1", "--out", str(tmp_path)], capsys)
        assert proc.returncode == 2
        assert proc.stderr == "error: seed must be an integer of at least 0, got -1\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("out", ["taken", "taken/reports"])
    def test_out_that_cannot_be_a_directory_exits_2(self, tmp_path, monkeypatch, capsys, out):
        # The report directory is made before the run: an --out that names
        # a file (or lies under one) used to run the whole manifest, then
        # end in a FileExistsError traceback with exit 1.
        (tmp_path / "taken").write_text("")
        runs = count_calls(monkeypatch, cli, "run_manifest")
        proc = run_cli(["run", "flat_space", "--out", str(tmp_path / out)], capsys)
        assert proc.returncode == 2 and not runs
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]

    def test_smoke_tolerance_is_rejected(self, tmp_path, capsys):
        # smoke bounded only the finite-difference Bianchi check, which is
        # gone: a manifest that sets it is told so, not silently ignored.
        manifest = corpus_get("flat_space")
        manifest["tolerances"] = {"smoke": 1e-3}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        out = tmp_path / "out"
        proc = run_cli(["run", str(path), "--out", str(out)], capsys)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "'smoke' was unexpected" in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("override", [{"seed": -1}, {"seed": 1.5}, {"seed": True},
                                          {"points": 2.5}, {"points": 0.0}])
    def test_overrides_must_be_schema_integers(self, override):
        # As the schema's seed and points: seed 1.5 used to run seed 1, and
        # points 2.5 two points.
        (key, _), = override.items()
        with pytest.raises(cli.ManifestError, match=f"^{key} must be an integer of at least"):
            cli.run_manifest(corpus_get("flat_space"), **override)

    def test_integral_float_overrides_are_integers(self):
        run = cli.run_manifest
        assert run(corpus_get("flat_space"), points=2.0, seed=3.0) == \
            run(corpus_get("flat_space"), points=2, seed=3)

    @pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1"])
    def test_bad_tolerance_scale_exits_2(self, tmp_path, scale, capsys):
        proc = run_cli(["run", "flat_space", "--tol-scale", scale, "--out", str(tmp_path)], capsys)
        assert proc.returncode == 2
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("strict, scale", [
        (1e308, "10"),      # would write "threshold": Infinity, which is not JSON
        (1e-10, "1e-320"),  # every tolerance 0.0: nothing could pass
        (10 ** 400, "1"),   # an int past the float range
    ])
    def test_scaled_tolerance_not_finite_and_positive_exits_2(self, tmp_path, strict, scale,
                                                              capsys):
        manifest = corpus_get("flat_space")
        manifest["tolerances"] = {"strict": strict}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        out = tmp_path / "out"
        proc = run_cli(["run", str(path), "--tol-scale", scale, "--out", str(out)], capsys)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: tolerance 'strict' times ")
        assert not out.exists()
        with pytest.raises(cli.ManifestError, match="'strict'"):
            cli.run_manifest(manifest, points=1, tol_scale=float(scale))


class TestRun:
    def test_flat_space_in_process(self):
        records, summary = cli.run_manifest(corpus_get("flat_space"))
        assert summary["ok"]
        assert all(rec["ok"] for rec in records)

    def test_family_corpus_end_to_end(self, tmp_path):
        proc = run_module([
            "run", "corpus/theorem41_n4.manifest",
            "--points", "4", "--out", str(tmp_path),
        ])
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "theorem41_n4.records.jsonl").exists()
        assert "verdict  : OK" in proc.stdout

    def test_charged_metric_report_contains_fit(self, tmp_path, capsys):
        proc = run_cli(["run", "rn_lambda0", "--points", "2", "--out", str(tmp_path)], capsys)
        assert proc.returncode == 0, proc.stderr
        records = [
            json.loads(line)
            for line in (tmp_path / "rn_lambda0.records.jsonl").read_text().splitlines()
        ]
        pinned = {r["check"]: r for r in records if r["check"].startswith("pinned_")}
        assert pinned["pinned_phi"]["ok"]
        assert pinned["pinned_mu"]["ok"]
        assert pinned["pinned_eta"]["ok"]
        scalars = [
            r["scalars"] for r in records
            if r["check"] == "fit_scalars" and r["point_index"] == 0
        ][0]
        assert scalars["phi"] == pytest.approx(243.0, rel=1e-9)
        assert scalars["classification"] == "ROTER"

    @pytest.mark.parametrize("key", ["classification", "no_such_scalar"])
    def test_a_pin_on_no_number_is_a_failing_record(self, key):
        # The target produces no such scalar, or produces it as a name:
        # the pin's record fails with residual 1, and the run goes on.
        manifest = corpus_get("rn_lambda0")
        manifest["manifolds"][0]["expect"]["pinned_scalars"] = [{key: 1.0}]
        records, summary = cli.run_manifest(manifest, points=2)
        (pin,) = [r for r in records if r["check"] == f"pinned_{key}"]
        assert (pin["residual"], pin["pass"], summary["ok"]) == (1.0, False, False)

    def test_a_pin_binds_the_first_target_of_a_mapped_pair(self):
        # As expect.scalars.L_R does: the source's L_R is -D/4 = -1, and
        # the image's, -(D + 4qC)/(4p), is not.
        manifest = corpus_get("theorem41_n4")
        mdef = manifest["manifolds"][0]
        mdef["pinned_points"] = [{"x": 1.0, "t": 0.1, "y1": 0.0, "y2": 0.1}]
        mdef.setdefault("expect", {})["pinned_scalars"] = [{"L_R": -1.0}]
        records, summary = cli.run_manifest(manifest, points=1)
        pins = [r for r in records if r["check"] == "pinned_L_R"]
        assert [(r["target"], r["point_index"]) for r in pins] == [("source", 0)]
        assert pins[0]["residual"] < 1e-12 and summary["ok"]

    def test_gauss_binds_the_first_target_of_a_surface_pair(self):
        # The source's Gauss curvature is -1 and the image's -(D + 4qC)/(4p)
        # = -0.75: expect.scalars.gauss binds the source alone.
        manifest = {"name": "gauss_pair", "manifolds": [{
            "name": "pair", "kind": "pair2d",
            "pair": {"a": "1/(x*(4*x - 4))", "b": "x", "map_scale": 2.0, "map_shift": 0.5},
            "box": {"x": [1.5, 2.5], "y": [0.0, 1.0]}, "expect": {"scalars": {"gauss": -1.0}},
        }]}
        records, summary = cli.run_manifest(manifest, suites=["geometry-symmetries"], points=3)
        gauss = [r for r in records if r["check"] == "gauss_value"]
        assert [r["target"] for r in gauss] == ["source"] * 3
        assert all(r["pass"] for r in gauss) and summary["ok"]

    def test_negative_control_fails_as_designed(self):
        records, summary = cli.run_manifest(
            corpus_get("negative_control_perturbed"), points=2
        )
        assert summary["ok"]
        perturbed = [r for r in records if r["check"].endswith("_perturbed")]
        assert summary["counts"]["failed"] == len(perturbed) > 0
        assert summary["counts"]["off_expectation"] == 0
        for rec in perturbed:
            assert not rec["pass"] and rec["expect_fail"] and rec["ok"]

    def test_einstein_toggle_classifies_einstein(self):
        records, summary = cli.run_manifest(corpus_get("einstein_cflat"), points=2)
        assert summary["ok"]
        flags = [r for r in records if r["check"] == "classification"]
        assert flags and all(r["detail"] == "EINSTEIN" for r in flags)
        flat = [r for r in records if r["check"] == "conformally_flat"]
        assert flat and all(r["ok"] for r in flat)

    def test_ricci_pseudosymmetric_entry(self):
        records, summary = cli.run_manifest(corpus_get("ricci_pseudo_1d_base"), points=2)
        assert summary["ok"]
        rp = [r for r in records if r["check"] == "ricci_pseudosymmetry"]
        assert rp and all(r["pass"] for r in rp)
        cls = [r for r in records if r["check"] == "classification"]
        assert all(r["detail"] == "QUASI_EINSTEIN" for r in cls)

    def test_tolerance_scale_can_force_failure(self):
        records, summary = cli.run_manifest(
            corpus_get("unit_sphere"), points=2, tol_scale=1e-18
        )
        assert not summary["ok"]

    def test_suite_restriction(self):
        records, _ = cli.run_manifest(corpus_get("rn_lambda0"), points=1,
                                      suites=["geometry-symmetries"])
        assert {r["suite"] for r in records} == {"geometry-symmetries"}

    def test_suite_argument_overrides_the_manifold_suites(self):
        # Given suites win over both the manifest's and a manifold's own
        # list; without them, the manifold's own list wins.
        manifest = corpus_get("theorem41_n4")
        manifest["manifolds"][0]["suites"] = ["theorem21"]
        records, summary = cli.run_manifest(manifest, points=1, suites=["geometry-symmetries"])
        assert {r["suite"] for r in records} == set(summary["suites"]) == {"geometry-symmetries"}
        records, _ = cli.run_manifest(manifest, points=1)
        assert {r["suite"] for r in records} == {"theorem21"}

    @pytest.mark.parametrize("suite", ["geodesic", "warped-diagnostics"])
    def test_run_with_no_check_is_not_ok(self, suite):
        # flat_space is one explicit metric, which neither suite checks:
        # a run that checks nothing shows nothing.
        records, summary = cli.run_manifest(corpus_get("flat_space"), points=2, suites=[suite])
        assert records == [] and summary["counts"]["checks"] == 0
        assert not summary["ok"]

    def test_run_with_no_check_exits_1(self, tmp_path, capsys):
        proc = run_cli(["run", "flat_space", "--suite", "geodesic", "--out", str(tmp_path)],
                       capsys)
        assert proc.returncode == 1
        assert "verdict  : FAIL" in proc.stdout
        assert (tmp_path / "flat_space.records.jsonl").read_text() == ""
        assert not json.loads((tmp_path / "flat_space.summary.json").read_text())["ok"]

    @pytest.mark.parametrize("where", ["argument", "manifest", "manifold"])
    def test_unknown_suite_is_a_manifest_error(self, where):
        # run_manifest checks suite names wherever they come from, so a
        # misspelt one cannot select no suite and pass vacuously.
        manifest, suites = corpus_get("flat_space"), None
        if where == "argument":
            suites = ["geometry_symmetries"]
        elif where == "manifest":
            manifest["suites"] = ["geometry_symmetries"]
        else:
            manifest["manifolds"][0]["suites"] = ["geometry_symmetries"]
        with pytest.raises(cli.ManifestError, match="unknown suite 'geometry_symmetries'") as err:
            cli.run_manifest(manifest, suites=suites, points=1)
        assert all(suite in str(err.value) for suite in cli.SUITES)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_point_error_becomes_record(self, tmp_path, monkeypatch, capsys):
        # At the pinned x = 0.2 the metric's exp(+-460 ...) factors make
        # its curvature overflow; at the sampled x >= 0.5 they are 1.  At
        # one point per chunk, the error takes the pinned point's place
        # only, and the report is still written.
        bump = "460*exp(-1e4*(x - 0.2)^2)"
        manifest = {
            "name": "bad_point", "seed": 1, "points": 2, "suites": ["geometry-symmetries"],
            "manifolds": [{
                "name": "bump", "kind": "explicit", "coords": ["t", "x", "y", "z"],
                "metric": [[f"-(1 + x^2)*exp({bump})", "0", "0", "0"], ["0", "1", "0", "0"],
                           ["0", "0", "1", "0"], ["0", "0", "0", f"(2 + y^2)*exp(-{bump})"]],
                "box": {"t": [0, 1], "x": [0.5, 1.0], "y": [0, 1], "z": [0, 1]},
                "pinned_points": [{"t": 0.5, "x": 0.2, "y": 0.5, "z": 0.5}],
            }],
        }
        path = tmp_path / "bad_point.json"
        path.write_text(json.dumps(manifest))
        monkeypatch.setattr(cli.roter, "chunk_size", lambda n: 1)
        proc = run_cli(["run", str(path), "--out", str(tmp_path / "out")], capsys)
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        records = [
            json.loads(line)
            for line in (tmp_path / "out" / "bad_point.records.jsonl").read_text().splitlines()
        ]
        errors = [r for r in records if r["check"] == "error"]
        assert len(errors) == 1 and errors[0]["point_index"] == 0
        assert not errors[0]["ok"] and "curvature is not finite" in errors[0]["detail"]
        assert all(r["ok"] for r in records if r["check"] != "error")
        checks = [{r["check"]: r for r in records if r["point_index"] == i} for i in range(3)]
        assert checks[1]["second_bianchi"]["pass"] and "second_bianchi" not in checks[2]

    def test_the_bianchi_check_runs_once_per_chunk_that_holds_index_0_or_1(self, monkeypatch):
        # theorem41_c_neg_n6 at 27 points runs as chunks of 25 and 2 points:
        # one stacked call per target reads run indices 0 and 1, and the
        # chunk that starts at index 25 has no second_bianchi record.
        calls, bianchi = [], geo.second_bianchi_residual
        monkeypatch.setattr(geo, "second_bianchi_residual",
                            lambda f, *rest: calls.append(len(f.point)) or bianchi(f, *rest))
        records, summary = cli.run_manifest(corpus_get("theorem41_c_neg_n6"), points=27)
        assert summary["ok"] and roter.chunk_size(6) == 25 and calls == [2, 2]
        assert max(r["point_index"] for r in records) == 26
        sites = {(r["target"], r["point_index"]) for r in records if r["check"] == "second_bianchi"}
        assert sites == {(target, i) for target in ("source", "image") for i in (0, 1)}

    def test_a_metric_singular_past_the_float_range_exits_1(self, tmp_path, capsys):
        # One row's norm overflows to inf and the other row is 0.  Their
        # product, NaN, used to read as "not singular": sampling passed
        # and frames' inv raised LinAlgError, with no report.
        manifest = {
            "name": "singular", "seed": 1, "points": 1,
            "manifolds": [{
                "name": "m", "kind": "explicit", "coords": ["x", "y"],
                "metric": [["1e200*(1 + x^2)", "0"], ["0", "0*y"]],
                "box": {"x": [0.0, 1.0], "y": [0.0, 1.0]},
            }],
        }
        path = tmp_path / "singular.json"
        path.write_text(json.dumps(manifest))
        out = tmp_path / "out"
        proc = run_cli(["run", str(path), "--out", str(out)], capsys)
        assert proc.returncode == 1
        assert proc.stderr == "error: cannot sample admissible points for 'm'\n"
        assert not out.exists()

    @pytest.mark.parametrize("g_xx", ["1e300*x*1e300", "1e400*x"])
    def test_an_infinite_component_exits_1(self, tmp_path, capsys, g_xx):
        # diff folds 1e300*1e300 to an infinite literal, and 1e400 parses
        # as one.  The program binds inf, so it runs; the metric is not
        # finite, so no point is admissible, and no numpy warning is raised.
        manifest = {
            "name": "infinite", "seed": 1, "points": 1,
            "manifolds": [{
                "name": "m", "kind": "explicit", "coords": ["x", "y"],
                "metric": [[g_xx, "0"], ["0", "1"]],
                "box": {"x": [0.0, 1.0], "y": [0.0, 1.0]},
            }],
        }
        path = tmp_path / "infinite.json"
        path.write_text(json.dumps(manifest))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            proc = run_cli(["run", str(path), "--out", str(tmp_path / "out")], capsys)
        assert proc.returncode == 1
        assert proc.stderr == "error: cannot sample admissible points for 'm'\n"

    def test_bianchi_check_stays_at_the_point(self):
        # d|x|/dx = x/abs(x) divides by zero at x = 0, one step of 1e-5
        # from the pinned x = 1e-5.  The complex step keeps the real part
        # at the point, so the check runs there, exactly.
        manifest = {
            "name": "kink", "seed": 1, "points": 2, "suites": ["geometry-symmetries"],
            "manifolds": [{
                "name": "kink", "kind": "explicit", "coords": ["x", "y"],
                "metric": [["1 + abs(x)", "0"], ["0", "1"]],
                "box": {"x": [0.5, 1.0], "y": [0.0, 1.0]},
                "pinned_points": [{"x": 1e-5, "y": 0.5}],
            }],
        }
        records, summary = cli.run_manifest(manifest)
        assert summary["ok"] and not [r for r in records if r["check"] == "error"]
        (pinned,) = [r for r in records if r["check"] == "second_bianchi" and r["point_index"] == 0]
        assert pinned["pass"] and pinned["residual"] < 1e-13

    @staticmethod
    def overflow_manifest(suites, points=2) -> dict:
        """A chart whose every sampled point passes sampling, but whose curvature overflows."""
        return {
            "name": "overflow", "seed": 1, "points": points, "suites": suites,
            "manifolds": [{
                "name": "huge", "kind": "explicit", "coords": ["t", "x", "y", "z"],
                "metric": [["-1e200*(1 + x^2)", "0", "0", "0"], ["0", "1", "0", "0"],
                           ["0", "0", "1", "0"], ["0", "0", "0", "1e-200*(2 + y^2)"]],
                "box": {"t": [0, 1], "x": [0.1, 1], "y": [0.1, 1], "z": [0, 1]},
            }],
        }

    @pytest.mark.parametrize("suite", ["theorem21", "geometry-symmetries"])
    def test_non_finite_curvature_is_an_error_record(self, tmp_path, suite):
        # theorem21 used to die in classify's eigvals with a traceback and
        # no report, and the geometry suite wrote NaN residuals and kappa.
        # The overflow is an error record, not a numpy warning on stderr.
        manifest = self.overflow_manifest([suite])
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(manifest))
        proc = run_module(["run", str(path), "--out", str(tmp_path / "out")])
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr, proc.stderr
        text = (tmp_path / "out" / "overflow.records.jsonl").read_text()
        assert "NaN" not in text
        records = [json.loads(line) for line in text.splitlines()]
        assert [(r["point_index"], r["check"]) for r in records] == [(0, "error"), (1, "error")]
        assert all("curvature is not finite" in r["detail"] for r in records)
        assert (tmp_path / "out" / "overflow.summary.json").exists()
        # In process, where every RuntimeWarning is an error, the same records.
        assert cli.run_manifest(manifest)[0] == records

    def test_a_failing_chunk_is_evaluated_once(self, monkeypatch):
        # The chunk keeps the jets of its one chunk-wide metric_jets call
        # until its frames are built, so each suite's piece raises the
        # same GeometryError and records it at every point; sampling
        # admits all 40 points in one round, one chunk's worth.
        suites = ["geometry-symmetries", "theorem21"]
        calls, metric_jets = [], geo.metric_jets
        monkeypatch.setattr(geo, "metric_jets",
                            lambda spec, points, *rest: calls.append(len(points))
                            or metric_jets(spec, points, *rest))
        records, _ = cli.run_manifest(self.overflow_manifest(suites, 40))
        assert calls == [40, 40]
        assert [(r["point_index"], r["suite"], r["check"]) for r in records] == [
            (i, suite, "error") for i in range(40) for suite in suites]
        assert all(r["detail"] == records[0]["detail"] for r in records)
        assert records[0]["detail"].startswith("GeometryError: curvature is not finite at (")

    @staticmethod
    def run_formula(tmp_path, g_xx, capsys):
        """Run a 2-D manifest whose g_xx is the given formula."""
        manifest = {
            "name": "long_formula", "seed": 1, "points": 2,
            "manifolds": [{
                "name": "long", "kind": "explicit", "coords": ["x", "y"],
                "metric": [[g_xx, "0"], ["0", "1"]],
                "box": {"x": [0.1, 0.5], "y": [-1.0, 1.0]},
            }],
        }
        path = tmp_path / "long_formula.json"
        path.write_text(json.dumps(manifest))
        return run_cli(["run", str(path), "--out", str(tmp_path / "out")], capsys)

    @staticmethod
    def assert_green(proc, tmp_path):
        assert proc.returncode == 0, proc.stderr
        records = [
            json.loads(line)
            for line in (tmp_path / "out" / "long_formula.records.jsonl").read_text().splitlines()
        ]
        assert records and all(r["ok"] for r in records)

    def test_long_formula_runs_green(self, tmp_path, capsys):
        # 251 terms: compiled as one nested expression, this overflowed
        # compile()'s parenthesis limit with a SyntaxError.
        poly = " + ".join(f"0.001*x^{k}" for k in range(1, 251))
        self.assert_green(self.run_formula(tmp_path, "1 + " + poly, capsys), tmp_path)

    def test_long_product_runs_green(self, tmp_path, capsys):
        product = "*".join("(1 + 0.001*x)" for _ in range(250))
        self.assert_green(self.run_formula(tmp_path, product, capsys), tmp_path)

    def test_deep_formula_is_an_error_line(self, tmp_path, capsys):
        # Hashing, diff and evaluate recurse once per level: a 600-term sum
        # used to die with a RecursionError traceback and no report.
        poly = " + ".join(f"0.001*x^{k % 7}" for k in range(600))
        proc = self.run_formula(tmp_path, poly, capsys)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "too deep" in proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("error", [geo.GeometryError("refused"), KeyboardInterrupt()],
                             ids=["run_error", "interrupt"])
    def test_failed_run_removes_the_directories_it_made(self, tmp_path, monkeypatch, capsys,
                                                        error):
        # --out a/b with no a: a failed run used to leave an empty a, and an
        # interrupted one both a and a/b.
        out = tmp_path / "a" / "b"

        def failing(*args, **kwargs):
            assert out.is_dir()
            raise error

        monkeypatch.setattr(cli, "run_manifest", failing)
        args = ["run", "flat_space", "--out", str(out)]
        if isinstance(error, KeyboardInterrupt):
            with pytest.raises(KeyboardInterrupt):
                cli.main(args)
        else:
            proc = run_cli(args, capsys)
            assert proc.returncode == 1 and proc.stderr == "error: refused\n"
        assert not list(tmp_path.iterdir())

    def test_failed_run_keeps_a_directory_another_run_wrote_into(self, tmp_path, monkeypatch,
                                                                 capsys):
        # A run sharing the default reports/ may write into it meanwhile:
        # removing it used to end in an OSError traceback.
        out = tmp_path / "reports"

        def failing(*args, **kwargs):
            (out / "other.records.jsonl").write_text("")
            raise geo.GeometryError("refused")

        monkeypatch.setattr(cli, "run_manifest", failing)
        proc = run_cli(["run", "flat_space", "--out", str(out)], capsys)
        assert proc.returncode == 1 and proc.stderr == "error: refused\n"
        assert [p.name for p in out.iterdir()] == ["other.records.jsonl"]


def flag_sampling(monkeypatch) -> list:
    """Wrap cli.sample_points; the returned list is not empty while it runs."""
    sampling, sample_points = [], cli.sample_points

    def flagged(*args, **kwargs):
        sampling.append(True)
        try:
            return sample_points(*args, **kwargs)
        finally:
            sampling.pop()

    monkeypatch.setattr(cli, "sample_points", flagged)
    return sampling


def count_calls(monkeypatch, module, name) -> list:
    """Wrap module.name wherever curvcheck binds it; returns the call log."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "curvcheck":
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counted)
    return calls


def sampled(manifest, count) -> list:
    """The points run_manifest samples for the manifest's first manifold."""
    job = cli.build_job(manifest["manifolds"][0])
    return cli.sample_points(job, count, np.random.default_rng([manifest["seed"], 0]))


def refuse_at(monkeypatch, module, name, bad) -> list:
    """Make module.name (geo.frames or wp.diagnostics) raise at any chunk
    of points holding the point bad; returns the log of refused calls."""
    original, refused = getattr(module, name), []

    def refusing(*args):
        points = args[1] if name == "frames" else args[1].point
        if bad in map(tuple, points):
            refused.append(name)
            raise geo.GeometryError(f"{name} refused")
        return original(*args)

    monkeypatch.setattr(module, name, refusing)
    return refused


class TestSharedEvaluation:
    def test_each_target_point_evaluated_once(self, monkeypatch):
        # Every suite reads one diagnostics lane per (target, point), and
        # one Roter fit and one product set per (target, chunk) whose
        # lanes cover each point once; identity_suite's products serve
        # the geodesic's corollary 4.2 residuals too.  Two points at
        # n = 4 make one chunk per target.
        diagnostics = count_calls(monkeypatch, wp, "diagnostics")
        fits = count_calls(monkeypatch, roter, "fit_roter")
        derivations = count_calls(monkeypatch, curvops, "derivation_apply")
        records, summary = cli.run_manifest(corpus_get("theorem41_n4"), points=2)
        assert summary["ok"]
        target_points = {(r["target"], r["point_index"]) for r in records
                         if r["target"] in ("source", "image")}
        assert len(target_points) == 4
        lanes = [(id(ws), point) for ws, frame, *_ in diagnostics for point in frame.point]
        assert len(lanes) == len(set(lanes)) == len(target_points)
        assert len(fits) == 2
        assert sum(len(frame.g) for frame, in fits) == len(target_points)
        assert len(derivations) == 6 * 2
        assert sum(len(ginv) for _, _, ginv in derivations) == 6 * len(target_points)

    def test_rank_scans_and_products_once_per_point(self, monkeypatch):
        # Per (target, chunk), classify ranks the Ricci operator's
        # eigenvalues, and no grid, in one stacked rank_shift, and one
        # rank_grid_exceeds_one ranks alpha1/2 of each ROTER lane's fit,
        # with that lane's warped mu1 and mu2 where it has them, in a
        # second.  ricci_pseudosymmetry reads R.S and Q(g,S) from the
        # chunk's products, whose lanes cover each point once.
        classify = count_calls(monkeypatch, roter, "classify")
        grids = count_calls(monkeypatch, roter, "rank_grid_exceeds_one")
        ranks = count_calls(monkeypatch, curvops, "rank_shift")
        derivations = count_calls(monkeypatch, curvops, "derivation_apply")
        tachibanas = count_calls(monkeypatch, curvops, "tachibana")
        ricci = count_calls(monkeypatch, roter, "ricci_pseudosymmetry")
        records, summary = cli.run_manifest(corpus_get("rn_lambda0"), points=2)
        assert summary["ok"]
        target_points = {(r["target"], r["point_index"]) for r in records}
        assert len(target_points) == 3  # the pinned point and two sampled ones
        assert len(classify) == 1 and len(classify[0][0].g) == len(target_points)
        assert len(grids) == 1 and len(grids[0][0].g) == len(target_points)
        assert len(ranks) == 2
        # classify's scan ranks n alphas per lane, its eigenvalues of g^{-1} S.
        assert np.shape(ranks[0][2]) == (len(target_points), 4)
        assert len(ricci) == 1 and len(ricci[0][0].g) == len(target_points)
        assert len(derivations) == len(tachibanas) == 6
        assert sum(len(ginv) for _, _, ginv in derivations) == 6 * len(target_points)
        assert sum(len(A) for A, _ in tachibanas) == 6 * len(target_points)
        # A family at n = 4: two targets of one chunk each, every lane
        # ranking its mu1 and mu2 with alpha1/2.
        for log in (grids, ranks):
            log.clear()
        records, summary = cli.run_manifest(corpus_get("theorem41_n4"), points=4)
        assert summary["ok"]
        assert len(grids) == 2 and all(len(frame.g) == 4 for frame, _, _ in grids)
        assert all(len(extra) == 2 for _, _, extras in grids for extra in extras)
        assert len(ranks) == 4
        assert [np.shape(alphas) for _, _, alphas in ranks] == [(4, 4), (4, 3)] * 2

    def test_each_frame_computed_once(self, monkeypatch):
        # A target's Chunk owns its points' frames, one lane each of a
        # geo.frames stack, and hands them to every helper.  The stack is
        # built from the chunk's one geo.metric_jets call, which a warped
        # target's base and fiber frames read too: no base or fiber
        # program runs.  On a mapped pair that call runs the first
        # target's program, which holds the image's components too: the
        # image runs none.  Each chunk builds its own member's frames, so
        # the fiber frame of a family, whose source and image share one
        # fiber, is built once per member: twice per point, and every
        # other frame once.  geo.frame is a one-lane geo.frames, so every
        # frame counts.
        computed, evaluated = Counter(), Counter()
        frames, metric_jets = geo.frames, geo.metric_jets
        sampling = flag_sampling(monkeypatch)

        def counted(spec, points, *jet):
            for point in points:
                computed[(spec, tuple(point))] += 1
            return frames(spec, points, *jet)

        def counted_jets(spec, points):
            if not sampling:  # sampling runs the program at each candidate
                for point in points:
                    evaluated[(spec, tuple(point))] += 1
            return metric_jets(spec, points)

        monkeypatch.setattr(geo, "frames", counted)
        monkeypatch.setattr(geo, "metric_jets", counted_jets)
        jobs = []
        for name in ("theorem41_n4", "surface_pair"):
            records, summary = cli.run_manifest(corpus_get(name), points=2)
            assert summary["ok"]
            jobs.append(cli.build_job(corpus_get(name)["manifolds"][0]))
        fiber = jobs[0].mapped.source.fiber
        assert jobs[0].mapped.image.fiber == fiber
        assert {count for (spec, _), count in computed.items() if spec != fiber} == {1}
        assert [count for (spec, _), count in computed.items() if spec == fiber] == [2, 2]
        assert max(evaluated.values()) == 1
        firsts = {job.targets[0].spec for job in jobs}
        assert {spec for spec, _ in evaluated} == firsts and len(evaluated) == 2 * len(firsts)

    @pytest.mark.parametrize("entry", corpus_list())
    def test_run_compiles_no_program(self, monkeypatch, entry):
        # Building each job and sampling one point compiles every program
        # the run reads: each target's conditions program, the first
        # target's components program (a warped product's also yields its
        # base, fiber and warp jets, a mapped pair's both members, psi, the
        # family values and sqrt(F)) and a family's profile jet.
        ex._jet_build.cache_clear()
        manifest = corpus_get(entry)
        jobs = [cli.build_job(mdef) for mdef in manifest["manifolds"]]
        for index, job in enumerate(jobs):
            cli.sample_points(job, 1, np.random.default_rng([manifest["seed"], index]))
        compiled = count_calls(monkeypatch, ex, "compile_exprs")
        records, summary = cli.run_manifest(manifest, points=2)
        assert summary["ok"] and compiled == []

    def test_charts_differing_only_in_constants_share_one_program(self, monkeypatch):
        # Two rn_lambda0 charts at other (M, Q), as the charged sweep of
        # perfbench/run.py builds them: the build keys on the constants'
        # names, and each run passes its chart's values.
        def chart(mass, charge):
            mdef = corpus_get("rn_lambda0")["manifolds"][0]
            mdef.pop("pinned_points")
            mdef["constants"] = {"M": mass, "Q": charge, "Lam": 0.0}
            r_plus = mass + math.sqrt(mass * mass - charge * charge)
            mdef["box"]["r"] = [0.6 * r_plus, 3.0 * r_plus]
            return mdef

        def same_bits(a, b):
            return all(x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in zip(a, b))

        ex._jet_build.cache_clear()
        compiled = count_calls(monkeypatch, ex, "compile_exprs")
        jobs = [cli.build_job(chart(1.3, 0.6)), cli.build_job(chart(0.7, 0.5))]
        chunks = [cli.sample_points(job, 3, np.random.default_rng(k)) for k, job in enumerate(jobs)]
        assert len(compiled) == 2  # the conditions program and the components program
        specs = [job.targets[0].spec for job in jobs]
        assert specs[0].bindings != specs[1].bindings
        bad = [(0.0, 0.0, 1.2, 0.3)]  # r = 0: 2*M/r divides by zero
        with pytest.raises(ex.DomainError) as shared_error:
            geo.metric_jets(specs[1], bad)
        for spec, points in zip(specs, chunks):
            steps = [(p[0], p[1] + 1e-30j, p[2], p[3]) for p in points]
            shared = geo.metric_jets(spec, points), spec._component_jet.complex(steps)
            assert all(np.isfinite(part).all() for part in shared[0] + shared[1])
            ex._jet_build.cache_clear()
            outputs = tuple(e for row in spec.components for e in row) + spec.extras
            own = ex.jet(outputs, spec.coords, spec.bindings, 2)
            assert shared[0][0].tolist() == [  # the chart's own values, by the tree walk
                [evaluate(e, dict(zip(spec.coords, p)), spec.bindings) for e in outputs]
                for p in points]
            assert same_bits(shared[0], own(points)) and same_bits(shared[1], own.complex(steps))
        assert len(compiled) == 4  # one more program per chart, for its constants alone
        with pytest.raises(ex.DomainError) as own_error:
            own(bad)
        assert str(shared_error.value) == str(own_error.value)
        assert shared_error.value.subexpr == own_error.value.subexpr

    @pytest.mark.parametrize("entry, programs", [("theorem41_n4", 3), ("surface_pair", 2)])
    def test_a_mapped_job_compiles_one_metric_level_program(self, monkeypatch, entry, programs):
        # Building a mapped job and sampling one point compiles the job's
        # one conditions program and one components program (the
        # source's, which hold the image's conditions and components) and
        # a family's profile jet, and nothing else.
        ex._jet_build.cache_clear()
        compiled = count_calls(monkeypatch, ex, "compile_exprs")
        manifest = corpus_get(entry)
        job = cli.build_job(manifest["manifolds"][0])
        cli.sample_points(job, 1, np.random.default_rng([manifest["seed"], 0]))
        spec, image = job.targets[0].spec, job.targets[1].spec
        assert set(image.conditions) <= set(spec.conditions)
        wants = [[gm.profile_expr(job.mapped.cfg)]] if job.kind == "family" else []  # in the order they compile
        wants.append([c for c, _ in spec.conditions])
        wants.append([e for row in spec.components for e in row] + list(spec.extras))
        assert len(compiled) == len(wants) == programs
        for (exprs, _, _), want in zip(compiled, wants):
            want = list(dict.fromkeys(want))  # each distinct output, then its partials
            assert list(exprs[:len(want)]) == want

    def test_bianchi_stencil_builds_no_frames(self, monkeypatch):
        # The second Bianchi check reads R at its n complex-step points
        # from the components program's complex twin, so the only frame
        # lane per (target, point) is the one its Chunk builds.
        frames = count_calls(monkeypatch, geo, "frames")
        records, summary = cli.run_manifest(corpus_get("rn_lambda0"), points=2)
        assert summary["ok"]
        assert any(r["check"] == "second_bianchi" for r in records)
        target_points = {(r["target"], r["point_index"]) for r in records}
        assert len(target_points) == 3
        assert sum(len(points) for _, points, *_ in frames) == len(target_points)

    def test_a_run_checks_no_condition_past_sampling(self, monkeypatch):
        # Sampling is the only gate: once it has admitted the points, no
        # chunk runs a conditions program again.
        sampling, runs, bound = flag_sampling(monkeypatch), [], geo.MetricSpec._condition_jet

        def logged(spec):
            program = bound.func(spec)
            return lambda points: runs.append(bool(sampling)) or program(points)

        monkeypatch.setattr(geo.MetricSpec, "_condition_jet", property(logged))
        for entry in ("rn_lambda0", "theorem41_n4", "surface_pair"):
            records, summary = cli.run_manifest(corpus_get(entry), points=3)
            assert summary["ok"]
        assert runs and all(runs)

    @pytest.mark.parametrize("entry", ["theorem41_n4", "surface_pair"])
    def test_sampling_a_mapped_job_checks_conditions_once_per_candidate(self, monkeypatch, entry):
        # The source's conditions hold the image's, so each candidate
        # is a lane of exactly one geo.admissible call, on the first target.
        manifest = corpus_get(entry)
        job, tried = cli.build_job(manifest["manifolds"][0]), []
        sample_ok = job.sample_ok
        monkeypatch.setattr(job, "sample_ok", lambda points: tried.extend(points) or sample_ok(points))
        calls = count_calls(monkeypatch, geo, "admissible")
        cli.sample_points(job, 4, np.random.default_rng([manifest["seed"], 0]))
        assert len(tried) >= 4 and [point for _, points, *_ in calls for point in points] == tried
        assert all(spec is job.targets[0].spec for spec, *_ in calls)

    def test_rejected_candidates_format_no_message(self, monkeypatch):
        # Sampling asks whether a candidate is admissible and formats no
        # error message for the ones it rejects.  rn_lambda0 with Q = 0.5
        # and its r-box straddling the horizon r+ = 1 + sqrt(0.75).
        manifest = corpus_get("rn_lambda0")
        mdef = manifest["manifolds"][0]
        del mdef["pinned_points"], mdef["expect"]["pinned_scalars"]
        mdef["constants"]["Q"] = 0.5
        mdef["box"]["r"] = [1.1, 5.6]
        job, verdicts = cli.build_job(mdef), []
        admissible = geo.admissible

        def logged(spec, points, *rest):
            held = admissible(spec, points, *rest)
            verdicts.extend(zip(points, held))
            return held

        monkeypatch.setattr(geo, "admissible", logged)
        texts = count_calls(monkeypatch, ex, "to_text")
        cli.sample_points(job, 20, np.random.default_rng([manifest["seed"], 0]))
        rejected = [point for point, ok in verdicts if not ok]
        assert len(rejected) > 0 and texts == []

    def test_one_family_jet_per_point(self, monkeypatch):
        # The psi and image Ricci closed forms and the factor relations
        # read one family_values lane per point, from the chunk's one
        # program run.  Sampling's guards make their own calls, which are
        # not counted.
        run_calls, family_values = [], gm.family_values
        sampling = flag_sampling(monkeypatch)

        def counted(fam, jets):
            if not sampling:
                run_calls.append(len(jets[0]))
            return family_values(fam, jets)

        monkeypatch.setattr(gm, "family_values", counted)
        records, summary = cli.run_manifest(corpus_get("theorem41_n4"), points=2)
        assert summary["ok"]
        checks = {r["check"] for r in records}
        assert {"psi_11", "ricci_base_bar", "cor42_source"} <= checks
        points = {r["point_index"] for r in records if r["suite"] == "geodesic"} - {-1}
        assert len(points) == 2 and run_calls == [len(points)]

    @pytest.mark.parametrize("entry", ["rn_lambda0", "theorem41_n4", "surface_pair"])
    def test_jet_lookups_do_not_grow_with_points(self, monkeypatch, entry):
        # Each chart binds its jet programs once per run (MetricSpec,
        # WarpedSpec, GeodesicPair2D, Family), so no point looks one up in
        # the ex.jet cache, whose key compare walks the expression trees.
        lookups = count_calls(monkeypatch, ex, "jet")
        counts = []
        for points in (2, 12):
            before = len(lookups)
            records, summary = cli.run_manifest(corpus_get(entry), points=points)
            assert summary["ok"]
            counts.append(len(lookups) - before)
        assert counts[0] == counts[1] > 0

    def test_products_built_on_first_read(self, monkeypatch):
        # ricci_pseudo_1d_base is Ricci-pseudosymmetric but not Roter: its
        # chunk reads R.S and Q(g,S), so only those two products are
        # built, once for both points.
        derivations = count_calls(monkeypatch, curvops, "derivation_apply")
        tachibanas = count_calls(monkeypatch, curvops, "tachibana")
        records, summary = cli.run_manifest(corpus_get("ricci_pseudo_1d_base"), points=2)
        assert summary["ok"]
        target_points = {(r["target"], r["point_index"]) for r in records}
        assert len(target_points) == 2
        assert len(derivations) == len(tachibanas) == 1
        assert len(derivations[0][2]) == len(tachibanas[0][0]) == len(target_points)

    def test_products_built_once_per_chunk(self, monkeypatch):
        # At n = 6 a chunk of 6 points builds its products in groups of 4
        # and 2 lanes.  classify runs once per target over the chunk's six
        # lanes and makes the target's one fit_roter and one
        # rank_grid_exceeds_one call, and each derivation product is built
        # once per group and target, over the group's lanes.
        classify, calls, inside = roter.classify, [], []

        def classifying(frame, extras=None):
            calls.append(("classify", len(frame.g)))
            inside.append(True)
            try:
                return classify(frame, extras)
            finally:
                inside.pop()

        def logged(name):
            original = getattr(roter, name)

            def logging(frame, *args):
                calls.append((name, bool(inside), len(frame.g)))
                return original(frame, *args)
            monkeypatch.setattr(roter, name, logging)

        monkeypatch.setattr(roter, "classify", classifying)
        logged("fit_roter")
        logged("rank_grid_exceeds_one")
        derivations = count_calls(monkeypatch, curvops, "derivation_apply")
        records, summary = cli.run_manifest(corpus_get("theorem41_c_neg_n6"), points=6)
        assert summary["ok"] and roter.chunk_size(6) >= 6 and roter.product_lanes(6) == 4
        # source, then image
        assert calls == [("classify", 6), ("fit_roter", True, 6),
                         ("rank_grid_exceeds_one", True, 6)] * 2
        assert [len(ginv) for _, _, ginv in derivations] == ([4] * 6 + [2] * 6) * 2

    def test_products_never_span_more_than_a_group(self, monkeypatch):
        # theorem41_c_neg_n6 at 16 points is one chunk per target, read by
        # one classify call over its 16 lanes, while no product kernel call
        # holds more than a product group's lanes.
        lanes, classify = [], roter.classify
        monkeypatch.setattr(roter, "classify",
                            lambda frame, *rest: lanes.append(len(frame.g)) or classify(frame, *rest))
        derivations = count_calls(monkeypatch, curvops, "derivation_apply")
        tachibanas = count_calls(monkeypatch, curvops, "tachibana")
        records, summary = cli.run_manifest(corpus_get("theorem41_c_neg_n6"), points=16)
        assert summary["ok"] and lanes == [16, 16]
        assert derivations and tachibanas
        assert max(len(ginv) for _, _, ginv in derivations) <= roter.product_lanes(6) == 4
        assert max(len(a) for a, _ in tachibanas) <= roter.product_lanes(6)

    def test_refused_frame_fails_its_whole_chunk(self, monkeypatch, tmp_path, capsys):
        # Sampling admits no point whose frame can fail: if one raised
        # anyway, every suite reading the chunk's frames records it at
        # each of its points.  rn_lambda0's pinned point and size sampled
        # ones make a full chunk and a chunk of one at n = 4.
        size = roter.chunk_size(4)
        bad = sampled(corpus_get("rn_lambda0"), size)[5]
        refuse_at(monkeypatch, geo, "frames", bad)
        proc = run_cli(["run", "rn_lambda0", "--points", str(size), "--out", str(tmp_path)],
                       capsys)
        assert proc.returncode == 1, proc.stderr
        lines = (tmp_path / "rn_lambda0.records.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        errors = [(r["point_index"], r["suite"]) for r in records if r["check"] == "error"]
        assert sorted(errors) == [(i, suite) for i in range(size)
                                  for suite in ("geometry-symmetries", "theorem21")]
        assert all("frames refused" in r["detail"] for r in records if r["check"] == "error")
        later = [r for r in records if r["point_index"] >= size]
        assert {r["point_index"] for r in later} == {size} and all(r["ok"] for r in later)
        assert (tmp_path / "rn_lambda0.summary.json").exists()

    @pytest.mark.parametrize("refused", [None, "frames", "diagnostics"],
                             ids=["clean", "frame_refused", "diagnostics_refused"])
    def test_no_chunk_outlives_its_run(self, monkeypatch, refused):
        # A Chunk forms no reference cycle, and the error it keeps has no
        # traceback, which would hold it, so no chunk is left after the
        # run, even with the cycle collector off.
        manifest = corpus_get("theorem41_n4")
        if refused:
            module = geo if refused == "frames" else wp
            refuse_at(monkeypatch, module, refused, sampled(manifest, 4)[2])

        def chunks():
            return [o for o in gc.get_objects() if isinstance(o, cli.Chunk)]

        gc.collect()
        assert chunks() == []
        gc.disable()
        try:
            records, summary = cli.run_manifest(manifest, points=4)
            left = len(chunks())
        finally:
            gc.enable()
        assert summary["ok"] == (refused is None) and left == 0

    @pytest.mark.parametrize("suite", cli.SUITES[:-1])
    def test_suite_records_do_not_depend_on_other_suites(self, suite):
        full, _ = cli.run_manifest(corpus_get("theorem41_n4"), points=2)
        alone, _ = cli.run_manifest(corpus_get("theorem41_n4"), points=2, suites=[suite])
        records = [r for r in full if r["suite"] == suite]
        assert records and alone == records


REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


# sha256 of the corpus's records files, in corpus_list order, as
# write_report writes them at each entry's declared seed and points.  A
# change that moves a residual updates it and says so.
CORPUS_RECORDS_SHA256 = "09786d3007c040a959b59500b49b6c96ab0a0924d7a33fcf2777217453d327c5"


class TestWholeCorpus:
    def test_every_entry_runs_green(self, tmp_path):
        # Index-symmetry and identity suites across the entire corpus, at
        # each entry's declared points; the total check count is pinned,
        # and so are the records' bytes on the numpy they were taken with.
        total, digest = 0, hashlib.sha256()
        for name in corpus_list():
            records, summary = cli.run_manifest(corpus_get(name))
            assert summary["ok"], (name, [r for r in records if not r["ok"]][:3])
            total += len(records)
            digest.update(Path(cli.write_report(records, summary, tmp_path)["records"]).read_bytes())
        expected = json.loads(REFERENCE.read_text())["checks"]["full"]["corpus"]
        assert total == expected
        if np.__version__ != "2.4.6":
            pytest.skip(f"records pinned on numpy 2.4.6, not {np.__version__}")
        assert digest.hexdigest() == CORPUS_RECORDS_SHA256


def test_one_kernel_divides_every_residual(monkeypatch):
    # curvops._normalized is the one place a difference becomes a residual:
    # moving its "+ 1" moves every nonzero residual of every suite, but
    # fit_residual's (relative to |R|) and a flag's (0 or 1).
    def run():
        return [r for name in ("theorem41_n4", "surface_pair", "rn_lambda0")
                for r in cli.run_manifest(corpus_get(name), points=2)[0]]

    base = run()
    monkeypatch.setattr(curvops, "_normalized", lambda difference, scale: difference / (scale + 2.0))
    moved = run()
    assert {r["suite"] for r in base} == set(cli.SUITES) - {"all"}
    assert {"second_bianchi", "psi_ricci_identity"} <= {r["check"] for r in base}
    assert [(r["check"], r["point_index"]) for r in base] == [
        (r["check"], r["point_index"]) for r in moved]
    kept = [a["check"] for a, b in zip(base, moved)
            if a["residual"] != 0.0 and a["residual"] == b["residual"]
            and a["threshold"] != 0.5 and a["check"] != "fit_residual"]
    assert kept == []


# sha256 of the records files of sweep-shaped runs at each entry's
# declared seed, as write_report writes them: the theorem41 families at
# 16 points (n = 4 and n = 5 in one chunk, n = 6 in four chunks of 4), and
# rn_lambda0 with Q = 0.5, its pins dropped and its r-box straddling the
# horizon, at 60 points (one chunk; sampling rejects 14 candidates).  A
# change that moves a residual updates them and says so.
SWEEP_RECORDS_SHA256 = {
    "theorem41_n4": "dd320c155b4cb6374f7911473a4ed8ff069c2565fd3b8631d7c2451f44f464e8",
    "theorem41_c_pos_n5": "80b760ce7405d6d1188144f06d7d9d69193f8c9b14b6f572f2f5068f9379d43a",
    "theorem41_c_neg_n6": "aad6501e43b7d5bab41cfa6743cef5b04f1704595822882cfcc481e90bac4c64",
    "rn_lambda0": "d76d600a2594845da9b034303de12a4b2837b00df5f32e6d00c9a0784651b6b6",
}


class TestSweepRecords:
    @pytest.mark.parametrize("name", list(SWEEP_RECORDS_SHA256))
    def test_records_are_pinned(self, tmp_path, name):
        manifest, points = corpus_get(name), 16
        if name == "rn_lambda0":
            mdef, points = manifest["manifolds"][0], 60
            del mdef["pinned_points"], mdef["expect"]["pinned_scalars"]
            mdef["constants"]["Q"] = 0.5
            mdef["box"]["r"] = [1.1, 5.6]  # r+ = 1 + sqrt(0.75)
        records, summary = cli.run_manifest(manifest, points=points)
        assert summary["ok"], [r for r in records if not r["ok"]][:3]
        if np.__version__ != "2.4.6":
            pytest.skip(f"records pinned on numpy 2.4.6, not {np.__version__}")
        path = Path(cli.write_report(records, summary, tmp_path)["records"])
        assert hashlib.sha256(path.read_bytes()).hexdigest() == SWEEP_RECORDS_SHA256[name]


class TestDeterminism:
    def test_byte_identical_records(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            proc = run_module(["run", "theorem41_n4", "--points", "3", "--out", str(out)])
            assert proc.returncode == 0, proc.stderr
        rec_a = (a / "theorem41_n4.records.jsonl").read_bytes()
        rec_b = (b / "theorem41_n4.records.jsonl").read_bytes()
        assert rec_a == rec_b
        sum_a = json.loads((a / "theorem41_n4.summary.json").read_text())
        sum_b = json.loads((b / "theorem41_n4.summary.json").read_text())
        sum_a.pop("timestamp"), sum_b.pop("timestamp")
        assert sum_a == sum_b

    def test_seed_changes_points(self):
        rec1, _ = cli.run_manifest(corpus_get("flat_space"), points=2, seed=1)
        rec2, _ = cli.run_manifest(corpus_get("flat_space"), points=2, seed=2)
        assert rec1[0]["point"] != rec2[0]["point"]

    def test_digest_rendered_once_and_printed_as_written(self, tmp_path, monkeypatch, capsys):
        calls = count_calls(monkeypatch, cli, "render_text_summary")
        proc = run_cli(["run", "flat_space", "--points", "1", "--out", str(tmp_path)], capsys)
        assert proc.returncode == 0 and len(calls) == 1
        text = (tmp_path / "flat_space.summary.txt").read_text(encoding="utf-8")
        assert proc.stdout.startswith(text + "\nrecords : ")

    def test_out_env_default(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(cli.OUT_ENV, str(tmp_path / "envout"))
        proc = run_cli(["run", "flat_space", "--points", "1"], capsys)
        assert proc.returncode == 0
        assert (tmp_path / "envout" / "flat_space.records.jsonl").exists()


def _record(**fields) -> dict:
    rec = {"manifold": "m", "target": "self", "point_index": 0, "point": [0.1, -0.25],
           "suite": "geometry-symmetries", "check": "metric_inverse", "residual": 1e-16,
           "threshold": 1e-10, "pass": True, "expect_fail": False, "ok": True}
    rec.update(fields)
    return rec


_SHARED_POINT = [0.0, 1.5]
_ODD_TEXT = 'say "hi" \\ back\nslash, r\u00e9sidu \u2603 \U0001d11e \x00'

# Strategies for random records over a few sites.
_TEXT, _NUMBER = st.text(max_size=6), st.floats() | st.integers(-3, 3)
_VALUE = st.recursive(st.none() | st.booleans() | _NUMBER | _TEXT,
                      lambda inner: st.lists(inner, max_size=3)
                      | st.dictionaries(_TEXT, inner, max_size=3), max_leaves=5)
_SITE = st.fixed_dictionaries({
    "manifold": _TEXT, "target": _TEXT, "suite": _TEXT,
    "point": st.lists(st.floats(), max_size=3), "point_index": st.integers(-1, 3)})
_FIELDS = st.fixed_dictionaries(
    {"check": _TEXT, "residual": st.floats(), "threshold": st.floats(),
     "pass": st.booleans(), "expect_fail": st.booleans(), "ok": st.booleans()},
    optional={"detail": _VALUE, "scalars": _VALUE})
# Most records fit the template; the rest override a field or add a key.
_ODD = st.none() | st.dictionaries(
    st.sampled_from(["pass", "residual", "threshold", "point", "point_index"]) | _TEXT,
    _VALUE, max_size=1)


class TestRecordLines:
    """cli.record_lines writes what json.dumps(rec, sort_keys=True) writes."""

    @pytest.mark.parametrize("records", [
        [_record()],
        [_record(residual=r) for r in (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324)],
        [_record(threshold=2), _record(threshold=np.float64(1e-10)), _record(threshold=math.inf)],
        [_record(check="conformally_flat", residual=0.0, threshold=0.5, detail=0.3125)],
        [_record(check="error", detail=_ODD_TEXT, manifold=_ODD_TEXT)],
        [_record(scalars={"phi": 243.0, "classification": "ROTER", "L_S": None,
                          "nested": {"b": [1, None, "x"], "a": -0.0, "c": math.nan}})],
        [_record(zeta=1), _record(aaa=None), _record(detail="x", scalars={}, more=[1])],
        [_record(**{"pass": 1}), _record(ok=None), _record(residual=np.float64(0.5))],
        # Sites out of order, and equal sites that encode differently:
        # [0.0] and [-0.0], 1 and True and 1.0; then a tuple point.
        [_record(point=_SHARED_POINT, point_index=1, suite="b"),
         _record(point=_SHARED_POINT, point_index=0, suite="a"),
         _record(point=_SHARED_POINT, point_index=1, suite="b", check="z"),
         _record(point=[0.0, 1.5], point_index=True, suite="b"),
         _record(point=[-0.0, 1.5], point_index=1.0, suite="b"),
         _record(point=(0, 1.5), point_index=1, suite="b"),
         {k: v for k, v in reversed(_record(point=_SHARED_POINT, suite="a").items())}],
        # Names and thresholds that a cache keyed by value alone would merge:
        # 1 == True and 0.0 == -0.0, yet each pair encodes differently.
        [_record(check=1), _record(check=True), _record(check=1), _record(check="1")],
        [_record(threshold=0.0), _record(threshold=-0.0), _record(threshold=0.0)],
        [_record(threshold=t) for t in map(float, ["1e-10", "0.5", "1e-10", "0.5"])],
        [_record(check=_ODD_TEXT, point_index=k, suite=s) for k in (0, 1) for s in "ab"],
        # One point object under changing suites and targets, as run_manifest
        # shares it; then distinct points that == would merge.
        [_record(point=_SHARED_POINT, target=t, suite=s, check=c)
         for t in ("self", "image") for s in "ab" for c in "xy"],
        [_record(point=[0.0]), _record(point=[-0.0], suite="a"), _record(point=[0.0], suite="a")],
    ], ids=["plain", "residuals", "thresholds", "float_detail", "text", "scalars",
            "extra_keys", "odd_flags", "shuffled_sites", "int_and_bool_names",
            "signed_zero_thresholds", "equal_thresholds_distinct_floats", "repeated_odd_name",
            "suites_under_one_point", "signed_zero_points"])
    def test_byte_identical_on_a_table(self, records):
        assert list(cli.record_lines(records)) == json_lines(records)

    def test_a_point_is_one_list_in_every_record(self):
        # run_manifest rounds each sampled point once per manifold, so
        # record_lines encodes it once per run of its records.
        records, _ = cli.run_manifest(corpus_get("theorem41_n4"), points=2)
        points = {}
        for r in records:
            points.setdefault((r["manifold"], r["point_index"]), set()).add(id(r["point"]))
        assert len({r["suite"] for r in records}) == 4 and len(points) == 3
        assert all(len(ids) == 1 for ids in points.values())

    def test_byte_identical_on_a_run_with_int_thresholds(self):
        # int thresholds (1 * 2 stays an int), float and string details,
        # fit scalars and warp scalars from one run.
        manifest = corpus_get("einstein_cflat")
        manifest["tolerances"] = {"strict": 1}
        records, _ = cli.run_manifest(manifest, points=2, tol_scale=2)
        assert any(type(r["threshold"]) is int for r in records)
        assert {type(r.get("detail")) for r in records} == {type(None), float, str}
        assert list(cli.record_lines(records)) == json_lines(records)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(_SITE, min_size=1, max_size=3),
           st.lists(st.tuples(st.integers(0, 2), st.booleans(), _FIELDS, _ODD), max_size=6),
           st.randoms(use_true_random=False))
    def test_byte_identical_on_random_records(self, sites, picks, rng):
        # Records drawn over a few sites, some as equal copies that are not
        # the same objects, in any order and with their keys in any order.
        records = []
        for k, copy, fields, odd in picks:
            site = sites[k % len(sites)]
            items = list({**(json.loads(json.dumps(site)) if copy else site),
                          **fields, **(odd or {})}.items())
            rng.shuffle(items)
            records.append(dict(items))
        assert list(cli.record_lines(records)) == json_lines(records)


class TestDigest:
    """cli.render_text_summary: one line per (manifold, target, check)."""

    @pytest.mark.parametrize("records, worst, status", [
        # A NaN residual off expectation beside a passing one: NaN is the worst.
        ([_record(residual=1e-12), _record(point_index=1, residual=math.nan, ok=False,
                                           **{"pass": False})],
         "nan", "OFF-EXPECTATION"),
        # A negative control that fails as designed at one point but passes
        # at the other: the worst record is on expectation, the other is not.
        ([_record(residual=1.0, expect_fail=True, **{"pass": False}),
          _record(point_index=1, residual=1e-12, expect_fail=True, ok=False)],
         "1.000e+00", "OFF-EXPECTATION (expected-fail)"),
    ], ids=["nan_residual", "control_passing_at_one_point"])
    def test_digest_shows_a_key_off_expectation(self, records, worst, status):
        summary = {"manifest": "m", "seed": 0, "points": 2, "suites": ["theorem21"], "ok": False,
                   "counts": {"checks": 2, "failed": 1, "off_expectation": 1}}
        row = cli.render_text_summary(records, summary).splitlines()[-1]
        assert row.split(None, 4) == ["m", "self", "metric_inverse", worst, status]


class TestJob:
    def test_expect_and_fitted_over_the_corpus(self):
        # fitted: a family expected ROTER, whose geodesic suite reads the
        # members' fits; a family that leaves classify out counts too.
        fitted = set()
        for name in corpus_list():
            for mdef in corpus_get(name)["manifolds"]:
                job = cli.build_job(mdef)
                assert job.expect == mdef.get("expect", {})
                if job.fitted:
                    fitted.add(mdef["name"])
        assert fitted == {"theorem41_n4", "theorem41_c_pos_n5", "theorem41_c_neg_n6"}
        mdef = corpus_get("theorem41_n4")["manifolds"][0]
        del mdef["expect"]
        job = cli.build_job(mdef)
        assert job.expect == {} and job.fitted

    def test_family_guard_rejects_a_near_singular_mapping(self):
        # With q = -1 and b = x, 1 + qb is 3e-7 at the first point, below
        # GUARD_FLOOR, where both members are admissible and their metrics
        # invert; 3e-5 clears it.
        mdef = corpus_get("theorem41_n4")["manifolds"][0]
        mdef["params"]["map_shift"] = -1.0
        job = cli.build_job(mdef)
        near, clear = (1 - 3e-7, 0.1, 0.05, -0.02), (1 - 3e-5, 0.1, 0.05, -0.02)
        assert all(member_ok(t.spec, near) for t in job.targets)
        values = gm.family_values(job.mapped, geo.metric_jets(job.targets[0].spec, [near]))
        assert abs(values["one_plus_qb"][0]) < gm.GUARD_FLOOR
        assert job.sample_ok([near, clear]) == [False, True]

    @pytest.mark.parametrize("name", ["surface_pair", "theorem41_n4"])
    def test_a_singular_image_is_not_sampled(self, monkeypatch, name):
        # sample_ok tests each member's metric, the image's too: with a
        # zero first row in the image's g (in a copy of gm.cut's output),
        # a point that is otherwise admitted is turned away.
        job = cli.build_job(corpus_get(name)["manifolds"][0])
        point = cli.sample_points(job, 1, np.random.default_rng(0))[0]
        assert job.sample_ok([point]) == [True]
        cut = gm.cut

        def singular_image(mapped, jets):
            out = cut(mapped, jets)
            values, first, second = (part.copy() for part in out["image"])
            values[:, :first.shape[1]] = 0.0
            return {**out, "image": (values, first, second)}

        monkeypatch.setattr(gm, "cut", singular_image)
        jets = job.jets([point])
        assert geo.invertible(jets["source"])[0] and not geo.invertible(jets["image"])[0]
        assert job.sample_ok([point]) == [False]

    def test_sampling_is_the_only_gate(self):
        # Which points a run certifies is decided in one place: the
        # package calls its admissibility tests in Job.sample_ok alone.
        gates, calls = {"admissible", "invertible", "guards_hold"}, set()

        def visit(node, where):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    visit(child, f"{where}.{child.name}")
                    continue
                if isinstance(child, ast.Call):
                    func = child.func
                    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                    if name in gates:
                        calls.add((where, name))
                visit(child, where)

        for path in Path(cli.__file__).parent.glob("*.py"):
            visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
        assert calls == {("cli.Job.sample_ok", name) for name in gates}


def straddling_rn(points: int) -> dict:
    """rn_lambda0 at Q = 0.5 without pins, its r-box straddling the horizon r+ = 1 + sqrt(0.75)."""
    manifest = corpus_get("rn_lambda0")
    manifest["points"], mdef = points, manifest["manifolds"][0]
    del mdef["pinned_points"], mdef["expect"]["pinned_scalars"]
    mdef["constants"]["Q"] = 0.5
    mdef["box"]["r"] = [1.1, 5.6]
    return manifest


def shuffles(batch, count=4):
    """batch and count seeded shuffles of it."""
    out = [list(batch)]
    for seed in range(count):
        out.append(list(batch))
        random.Random(seed).shuffle(out[-1])
    return out


class TestSampling:
    # An explicit chart whose lanes fail in each way but the mapped ones:
    # log(x) raises at x <= 0, y + 0.5 fails below y = -0.5, and the
    # components program's sqrt(0.5 - y) raises above y = 0.5.
    EXPLICIT = {
        "name": "lanes", "kind": "explicit", "coords": ["x", "y"],
        "metric": [["1 + x^2", "0"], ["0", "sqrt(0.5 - y)"]],
        "conditions": [["log(x)", "nonzero"], ["y + 0.5", "positive"]],
        "box": {"x": [-1.0, 1.0], "y": [-1.0, 1.0]},
    }

    def test_explicit_lanes_are_decided_alone(self):
        job = cli.build_job(self.EXPLICIT)
        admitted, raising = [(0.5, 0.0), (0.25, 0.3), (0.9, -0.4)], [(-0.5, 0.0), (0.0, 0.2)]
        batch = [*admitted, *raising, (0.5, -0.8), (0.5, 0.8), (0.7, 0.9)]
        verdicts = dict(zip(batch, [True] * 3 + [False] * 5))
        assert all(member_ok(job.targets[0].spec, pt) == ok for pt, ok in verdicts.items())
        with pytest.raises(ex.DomainError):  # sample_ok alone splits the batch
            geo.admissible(job.targets[0].spec, batch)
        for points in shuffles(batch):
            assert job.sample_ok(points) == [job.sample_ok([pt])[0] for pt in points]
            assert job.sample_ok(points) == [verdicts[pt] for pt in points]

    def test_mapped_lanes_are_decided_alone(self, monkeypatch):
        # theorem41_n4 at q = -1: near fails the family guard (as in
        # test_family_guard_rejects_a_near_singular_mapping), x < 0 fails
        # the warp's condition, and the singular lanes get a zero first row
        # in the image's g (as in test_a_singular_image_is_not_sampled),
        # picked by the source's g_00 there.
        mdef = corpus_get("theorem41_n4")["manifolds"][0]
        mdef["params"]["map_shift"] = -1.0
        job = cli.build_job(mdef)
        spec = job.targets[0].spec
        near, clear = (1 - 3e-7, 0.1, 0.05, -0.02), (1 - 3e-5, 0.1, 0.05, -0.02)
        admitted = cli.sample_points(job, 4, np.random.default_rng(5))
        singular = admitted[2:]
        batch = [*admitted, near, clear, (-0.3, 0.1, 0.0, 0.1), (-1.0, 0.2, 0.1, 0.0)]
        marks = geo.metric_jets(spec, singular)[0][:, 0]
        cut = gm.cut

        def singular_image(mapped, jets):
            out = cut(mapped, jets)
            values, first, second = (part.copy() for part in out["image"])
            values[np.isin(out["source"][0][:, 0], marks), :first.shape[1]] = 0.0
            return {**out, "image": (values, first, second)}

        monkeypatch.setattr(gm, "cut", singular_image)
        verdicts = {pt: mapped_point_ok(job.mapped, pt) and pt not in singular for pt in batch}
        assert list(verdicts.values()) == [True, True, False, False, False, True, False, False]
        for points in shuffles(batch):
            assert job.sample_ok(points) == [job.sample_ok([pt])[0] for pt in points]
            assert job.sample_ok(points) == [verdicts[pt] for pt in points]

    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("entry", [*corpus_list(), "straddling_rn"])
    def test_rounds_draw_what_one_at_a_time_draws(self, entry, seed):
        # Rounds of candidates admit the points, in their order, that one
        # candidate at a time does, and leave the rng in the same state.
        manifest = straddling_rn(20) if entry == "straddling_rn" else corpus_get(entry)
        for index, mdef in enumerate(manifest["manifolds"]):
            job = cli.build_job(mdef)
            rounds, alone = (np.random.default_rng([seed, index]) for _ in range(2))
            assert cli.sample_points(job, 20, rounds) == sample_one_at_a_time(job, 20, alone)
            assert rounds.bit_generator.state == alone.bit_generator.state

    def test_the_cap_counts_candidates(self, monkeypatch):
        # With the r-box inside the horizon nothing is admitted: both
        # samplers give up after 1000 * count + 1 candidates, at one rng state.
        mdef = straddling_rn(2)["manifolds"][0]
        mdef["box"]["r"] = [0.5, 1.5]
        job, tried = cli.build_job(mdef), []
        sample_ok = job.sample_ok
        monkeypatch.setattr(job, "sample_ok", lambda points: tried.append(len(points)) or sample_ok(points))
        rounds, alone = np.random.default_rng(7), np.random.default_rng(7)
        for sampler, rng in ((cli.sample_points, rounds), (sample_one_at_a_time, alone)):
            with pytest.raises(cli.ManifestError, match="cannot sample admissible points for 'rn_lambda0'"):
                sampler(job, 2, rng)
            assert sum(tried) == 2001
            tried.clear()
        assert rounds.bit_generator.state == alone.bit_generator.state

    def test_the_first_inadmissible_pin_is_named(self):
        mdef = corpus_get("rn_lambda0")["manifolds"][0]
        good = mdef["pinned_points"][0]
        mdef["pinned_points"] = [good, {**good, "r": 1.0}, {**good, "th": 0.0}]
        job = cli.build_job(mdef)
        for sampler in (cli.sample_points, sample_one_at_a_time):
            with pytest.raises(cli.ManifestError) as err:
                sampler(job, 3, np.random.default_rng(0))
            assert str(err.value) == f"pinned point {mdef['pinned_points'][1]} of 'rn_lambda0' is inadmissible"

    def test_sampling_runs_a_handful_of_rounds(self, monkeypatch):
        # The 60 points of a horizon-straddling chart take three rounds:
        # one conditions run over each round's candidates and one
        # components run over those that pass, not one run per candidate.
        # At n = 6 no round exceeds a chunk: 52 points take rounds of 25, 25
        # and 2.
        sampling, lanes = flag_sampling(monkeypatch), {"admissible": [], "metric_jets": []}
        for name, log in lanes.items():
            def logged(spec, points, run=getattr(geo, name), log=log):
                if sampling:
                    log.append(len(points))
                return run(spec, points)
            monkeypatch.setattr(geo, name, logged)
        records, summary = cli.run_manifest(straddling_rn(60))
        assert summary["ok"] and lanes == {"admissible": [60, 11, 3], "metric_jets": [49, 8, 3]}
        for log in lanes.values():
            log.clear()
        records, summary = cli.run_manifest(corpus_get("theorem41_c_neg_n6"), points=52)
        assert summary["ok"] and max(lanes["admissible"]) == roter.chunk_size(6) == 25
        assert len(lanes["admissible"]) == 3 and lanes["admissible"] == lanes["metric_jets"]


class TestBenchmarkCalls:
    @pytest.mark.parametrize("source", [*corpus_list(), "manifest_file"])
    def test_repetition_call_sequence(self, tmp_path, source):
        # The cli calls of one benchmark repetition, in their order: load
        # the manifest, build each job and sample one point, then run the
        # manifest at one point and write its report.  The file is a
        # charged chart whose r-box straddles the horizon r+ = 2.25.
        seed = 11
        if source == "manifest_file":
            manifest = corpus_get("rn_lambda0")
            mdef = manifest["manifolds"][0]
            del mdef["pinned_points"], mdef["expect"]["pinned_scalars"]
            mdef["constants"] = {"M": 1.25, "Q": 0.75, "Lam": 0.0}
            mdef["box"]["r"] = [1.2, 6.0]
            manifest["suites"] = ["geometry-symmetries", "theorem21"]
            source = str(tmp_path / "charged.json")
            Path(source).write_text(json.dumps(manifest))
        manifest = cli.load_manifest(source)
        for index, mdef in enumerate(manifest["manifolds"]):
            cli.sample_points(cli.build_job(mdef), 1, np.random.default_rng([seed, index]))
        records, summary = cli.run_manifest(manifest, points=1, seed=seed)
        paths = cli.write_report(records, summary, str(tmp_path / "out"))
        lines = Path(paths["records"]).read_text().splitlines()
        assert summary["ok"] and len(lines) == summary["counts"]["checks"] > 0
        assert all(json.loads(line)["ok"] for line in lines)


class TestDescribe:
    def test_describe_prints_manifest(self, capsys):
        proc = run_cli(["describe", "einstein_cflat"], capsys)
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert data["name"] == "einstein_cflat"

    def test_describe_unknown_exits_2(self, capsys, tmp_path):
        proc = run_cli(["describe", "nope"], capsys)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: 'nope' is neither a file nor a corpus entry")
        assert "theorem41_n4" in proc.stderr
        ran = run_cli(["run", "nope", "--out", str(tmp_path / "out")], capsys)
        assert (ran.returncode, ran.stderr) == (proc.returncode, proc.stderr)

    def test_describe_reads_a_manifest_file_as_run_does(self, capsys, tmp_path):
        path = tmp_path / "entry.json"
        path.write_text(json.dumps(corpus_get("theorem41_n4")))
        proc = run_cli(["describe", str(path)], capsys)
        assert proc.returncode == 0
        assert proc.stdout == run_cli(["describe", "theorem41_n4"], capsys).stdout

    def test_list_contains_required(self, capsys):
        proc = run_cli(["list"], capsys)
        names = proc.stdout.split()
        for required in ("rn_lambda0", "theorem41_n4", "einstein_cflat"):
            assert required in names
