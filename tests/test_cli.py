"""Harness tests: manifest validation, corpus runs, reports, determinism."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from curvcheck import cli
from curvcheck.corpus import corpus_get, corpus_list


def run_cli(args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "curvcheck.cli", *args],
        capture_output=True, text=True, **kw,
    )


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
        proc = run_cli(["run", str(path), "--out", str(tmp_path / "out")])
        assert proc.returncode == 2

    def test_unknown_corpus_name_exits_2(self, tmp_path):
        proc = run_cli(["run", "no_such_entry", "--out", str(tmp_path)])
        assert proc.returncode == 2


class TestRun:
    def test_flat_space_in_process(self):
        records, summary = cli.run_manifest(corpus_get("flat_space"))
        assert summary["ok"]
        assert all(rec["ok"] for rec in records)

    def test_family_corpus_end_to_end(self, tmp_path):
        proc = run_cli([
            "run", "corpus/theorem41_n4.manifest",
            "--points", "4", "--out", str(tmp_path),
        ])
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "theorem41_n4.records.jsonl").exists()
        assert "verdict  : OK" in proc.stdout

    def test_charged_metric_report_contains_fit(self, tmp_path):
        proc = run_cli(["run", "rn_lambda0", "--points", "2", "--out", str(tmp_path)])
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
        proc = run_cli(["run", str(path), "--out", str(tmp_path / "out")])
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


REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


class TestWholeCorpus:
    def test_every_entry_runs_green(self):
        # Index-symmetry and identity suites across the entire corpus, at
        # each entry's declared points; the total check count is pinned.
        total = 0
        for name in corpus_list():
            records, summary = cli.run_manifest(corpus_get(name))
            assert summary["ok"], (name, [r for r in records if not r["ok"]][:3])
            total += len(records)
        expected = json.loads(REFERENCE.read_text())["checks"]["full"]["corpus"]
        assert total == expected


class TestDeterminism:
    def test_byte_identical_records(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            proc = run_cli(["run", "theorem41_n4", "--points", "3", "--out", str(out)])
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

    def test_out_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUT_ENV, str(tmp_path / "envout"))
        proc = run_cli(
            ["run", "flat_space", "--points", "1"],
            env={**__import__("os").environ, cli.OUT_ENV: str(tmp_path / "envout")},
        )
        assert proc.returncode == 0
        assert (tmp_path / "envout" / "flat_space.records.jsonl").exists()


class TestDescribe:
    def test_describe_prints_manifest(self):
        proc = run_cli(["describe", "einstein_cflat"])
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert data["name"] == "einstein_cflat"

    def test_describe_unknown_exits_2(self):
        proc = run_cli(["describe", "nope"])
        assert proc.returncode == 2

    def test_list_contains_required(self):
        proc = run_cli(["list"])
        names = proc.stdout.split()
        for required in ("rn_lambda0", "theorem41_n4", "einstein_cflat"):
            assert required in names
