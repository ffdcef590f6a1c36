"""Harness tests: manifest validation, corpus runs, reports, determinism."""

import gc
import hashlib
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from curvcheck import cli, curvops, roter
from curvcheck import expr as ex
from curvcheck import geomap as gm
from curvcheck import geometry as geo
from curvcheck import warped as wp
from curvcheck.corpus import corpus_get, corpus_list


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

    @pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1"])
    def test_bad_tolerance_scale_exits_2(self, tmp_path, scale, capsys):
        proc = run_cli(["run", "flat_space", "--tol-scale", scale, "--out", str(tmp_path)], capsys)
        assert proc.returncode == 2
        assert not list(tmp_path.iterdir())


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

    def test_point_error_becomes_record(self, tmp_path):
        # The finite-difference second_bianchi stencil around x = 1e-5
        # steps onto x = 0, where d|x|/dx divides by zero.
        manifest = {
            "name": "bad_point", "seed": 1, "points": 1, "suites": ["geometry-symmetries"],
            "manifolds": [{
                "name": "kink", "kind": "explicit", "coords": ["x", "y"],
                "metric": [["1 + abs(x)", "0"], ["0", "1"]],
                "box": {"x": [0.5, 1.0], "y": [0.0, 1.0]},
                "pinned_points": [{"x": 1e-5, "y": 0.5}],
            }],
        }
        path = tmp_path / "bad_point.json"
        path.write_text(json.dumps(manifest))
        proc = run_module(["run", str(path), "--out", str(tmp_path / "out")])
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        records = [
            json.loads(line)
            for line in (tmp_path / "out" / "bad_point.records.jsonl").read_text().splitlines()
        ]
        errors = [r for r in records if r["check"] == "error"]
        assert len(errors) == 1
        assert not errors[0]["ok"] and "x/abs(x)" in errors[0]["detail"]
        assert all(r["ok"] for r in records if r["check"] != "error")

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
        lanes = [(id(ws), point) for ws, frame, _ in diagnostics for point in frame.point]
        assert len(lanes) == len(set(lanes)) == len(target_points)
        assert len(fits) == 2
        assert sum(len(frame.g) for frame, in fits) == len(target_points)
        assert len(derivations) == 6 * 2
        assert sum(len(ginv) for _, _, ginv in derivations) == 6 * len(target_points)

    def test_rank_scans_and_products_once_per_point(self, monkeypatch):
        # Per (target, chunk), classify ranks its grid and the Ricci
        # eigenvalues in one stacked rank_shift, and one
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

    def test_each_frame_computed_once(self, monkeypatch):
        # A target's Chunk owns its points' frames, one lane each of a
        # geo.frames stack, and hands them to every helper.  The fiber
        # frame that a family's source and image share is computed once,
        # by the source, and read by the image.  geo.frame is a one-lane
        # geo.frames, so the base frames of the diagnostics count too.
        computed = Counter()
        original = geo.frames

        def counted(spec, points):
            for point in points:
                computed[(spec, tuple(point))] += 1
            return original(spec, points)

        monkeypatch.setattr(geo, "frames", counted)
        for name in ("theorem41_n4", "surface_pair"):
            records, summary = cli.run_manifest(corpus_get(name), points=2)
            assert summary["ok"]
        fiber = cli.build_job(corpus_get("theorem41_n4")["manifolds"][0]).family.source.fiber
        assert max(computed.values()) == 1
        assert sum(spec == fiber for spec, _ in computed) == 2  # one per point

    def test_bianchi_stencil_builds_no_frames(self, monkeypatch):
        # The second Bianchi check reads R at its 2n stencil points from
        # unchecked jets, so the only frame lane per (target, point) is
        # the one its Chunk builds.
        frames = count_calls(monkeypatch, geo, "frames")
        records, summary = cli.run_manifest(corpus_get("rn_lambda0"), points=2)
        assert summary["ok"]
        assert any(r["check"] == "second_bianchi" for r in records)
        target_points = {(r["target"], r["point_index"]) for r in records}
        assert len(target_points) == 3
        assert sum(len(points) for _, points in frames) == len(target_points)

    def test_one_family_jet_per_point(self, monkeypatch):
        # The psi and image Ricci closed forms and the factor relations
        # read one family_values lane per point.  Sampling's guards make
        # their own calls, which are not counted.
        sampling, run_calls = [], []
        sample_points, family_values = cli.sample_points, gm.family_values

        def flagged(*args, **kwargs):
            sampling.append(True)
            try:
                return sample_points(*args, **kwargs)
            finally:
                sampling.pop()

        def counted(fam, points):
            if not sampling:
                run_calls.extend(tuple(point) for point in points)
            return family_values(fam, points)

        monkeypatch.setattr(cli, "sample_points", flagged)
        monkeypatch.setattr(gm, "family_values", counted)
        records, summary = cli.run_manifest(corpus_get("theorem41_n4"), points=2)
        assert summary["ok"]
        checks = {r["check"] for r in records}
        assert {"psi_11", "ricci_base_bar", "cor42_source"} <= checks
        points = {r["point_index"] for r in records if r["suite"] == "geodesic"} - {-1}
        assert len(points) == 2
        assert len(run_calls) == len(set(run_calls)) == len(points)

    @pytest.mark.parametrize("entry", ["rn_lambda0", "theorem41_n4", "surface_pair"])
    def test_jet_lookups_do_not_grow_with_points(self, monkeypatch, entry):
        # Each chart binds its jet programs once per run (MetricSpec,
        # WarpedSpec, PsiField, Family), so no point looks one up in the
        # ex.jet cache, whose key compare walks the expression trees.
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

    def test_refused_frame_fails_its_whole_chunk(self, monkeypatch, tmp_path, capsys):
        # Sampling admits no point whose frame can fail, so a chunk keeps
        # no frame error: if one raised anyway, every suite reading the
        # chunk's frames records it at each of its points.  rn_lambda0's
        # pinned point and 20 sampled ones make chunks of 18 and 3 at n = 4.
        bad = sampled(corpus_get("rn_lambda0"), 20)[5]
        refuse_at(monkeypatch, geo, "frames", bad)
        proc = run_cli(["run", "rn_lambda0", "--points", "20", "--out", str(tmp_path)], capsys)
        assert proc.returncode == 1, proc.stderr
        lines = (tmp_path / "rn_lambda0.records.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        errors = [(r["point_index"], r["suite"]) for r in records if r["check"] == "error"]
        assert sorted(errors) == [(i, suite) for i in range(18)
                                  for suite in ("geometry-symmetries", "theorem21")]
        assert all("frames refused" in r["detail"] for r in records if r["check"] == "error")
        later = [r for r in records if r["point_index"] >= 18]
        assert {r["point_index"] for r in later} == {18, 19, 20} and all(r["ok"] for r in later)
        assert (tmp_path / "rn_lambda0.summary.json").exists()

    @pytest.mark.parametrize("refused", [None, "frames", "diagnostics"],
                             ids=["clean", "frame_refused", "diagnostics_refused"])
    def test_no_chunk_outlives_its_run(self, monkeypatch, refused):
        # A Chunk forms no reference cycle and keeps no error, whose
        # traceback would hold it, so no chunk is left after the run, even
        # with the cycle collector off.
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

    def test_geodesic_records_do_not_depend_on_other_suites(self):
        full, _ = cli.run_manifest(corpus_get("theorem41_n4"), points=2)
        alone, _ = cli.run_manifest(corpus_get("theorem41_n4"), points=2,
                                    suites=["geodesic"])
        geodesic = [r for r in full if r["suite"] == "geodesic"]
        assert geodesic and alone == geodesic


REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


# sha256 of the corpus's records files, in corpus_list order, as
# write_report writes them at each entry's declared seed and points.  A
# change that moves a residual updates it and says so.
CORPUS_RECORDS_SHA256 = "1546203d057fce56071cb2bff1efb20a9b593f7a80c215549c33917d7b847532"


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

    def test_out_env_default(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(cli.OUT_ENV, str(tmp_path / "envout"))
        proc = run_cli(["run", "flat_space", "--points", "1"], capsys)
        assert proc.returncode == 0
        assert (tmp_path / "envout" / "flat_space.records.jsonl").exists()


class TestDescribe:
    def test_describe_prints_manifest(self, capsys):
        proc = run_cli(["describe", "einstein_cflat"], capsys)
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert data["name"] == "einstein_cflat"

    def test_describe_unknown_exits_2(self, capsys):
        proc = run_cli(["describe", "nope"], capsys)
        assert proc.returncode == 2

    def test_list_contains_required(self, capsys):
        proc = run_cli(["list"], capsys)
        names = proc.stdout.split()
        for required in ("rn_lambda0", "theorem41_n4", "einstein_cflat"):
            assert required in names
