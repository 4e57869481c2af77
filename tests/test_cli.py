"""End-to-end CLI contract tests: commands, exit codes, artifacts."""

import json
import subprocess
import sys

import numpy as np
import pytest

from pathduality import (
    NotHermitianError,
    NotPsdError,
    cli,
    config_to_json,
    information,
    rng_stream,
    sample_config,
)
from pathduality.cli import family_points, main
from pathduality.core import CSV_HEADER

ORTHO3 = {
    "probs": [0.2, 0.3, 0.5],
    "detectors": {
        "dim": 3,
        "states": [
            [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
        ],
    },
}

OVERLAP06 = {
    "probs": [0.5, 0.5],
    "detectors": {
        "dim": 2,
        "states": [[[1.0, 0.0], [0.0, 0.0]], [[0.6, 0.0], [0.8, 0.0]]],
    },
}


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_orthonormal_config_is_tight(self, tmp_path, capsys):
        path = write_config(tmp_path, ORTHO3)
        code, out, _ = run(capsys, "--command", "analyze", "--input", path,
                           "--restarts", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "ok"
        assert payload["n_paths"] == 3
        assert payload["l1_duality"]["x"] == 0.0
        assert payload["l1_duality"]["ps_bound"] == pytest.approx(1.0, abs=1e-12)
        assert abs(payload["l1_duality"]["gap_l1"]) <= 1e-9
        assert abs(payload["entropic_duality"]["gap_entropic"]) <= 1e-9

    def test_overlap_06_values(self, tmp_path, capsys):
        path = write_config(tmp_path, OVERLAP06)
        code, out, _ = run(capsys, "--command", "analyze", "--input", path,
                           "--restarts", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["l1_duality"]["x"] == pytest.approx(0.3, abs=1e-12)
        assert payload["l1_duality"]["ps_bound"] == pytest.approx(0.9, abs=1e-12)
        assert payload["l1_duality"]["gap_l1"] == pytest.approx(0.0, abs=1e-12)
        assert payload["l1_coherence"] == pytest.approx(0.6, abs=1e-12)
        assert payload["pgm_success_probability"] == pytest.approx(0.9, abs=1e-10)
        assert payload["holevo_bound"] == pytest.approx(0.7219280948873623, abs=1e-10)
        assert payload["accessible_info_lower_bound"] == pytest.approx(
            0.5310044064107188, abs=1e-9
        )
        assert payload["particle_spectrum"] == pytest.approx([0.2, 0.8], abs=1e-12)
        assert payload["detector_spectrum"] == pytest.approx([0.2, 0.8], abs=1e-12)
        assert payload["rng_algorithm"] == "philox4x64"

    def test_output_file_instead_of_stdout(self, tmp_path, capsys):
        path = write_config(tmp_path, OVERLAP06)
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "--command", "analyze", "--input", path,
                           "--restarts", "1", "--output", str(out_path))
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text())["status"] == "ok"

    def test_malformed_json_exits_2_with_location(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"probs": [0.5, 0.5,]}', encoding="utf-8")
        code, _, err = run(capsys, "--command", "analyze", "--input", str(path))
        assert code == 2
        assert "line 1" in err and "column" in err

    def test_schema_error_exits_2_naming_the_field(self, tmp_path, capsys):
        path = write_config(tmp_path, {"probs": "half", "detectors": ORTHO3["detectors"]})
        code, _, err = run(capsys, "--command", "analyze", "--input", str(path))
        assert code == 2
        assert "probs" in err

    def test_invalid_values_exit_2(self, tmp_path, capsys):
        bad = dict(ORTHO3, probs=[0.5, 0.5, 0.5])
        path = write_config(tmp_path, bad)
        code, _, err = run(capsys, "--command", "analyze", "--input", str(path))
        assert code == 2
        assert "invalid configuration" in err

    def test_negative_restarts_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, OVERLAP06)
        code, out, err = run(capsys, "--command", "analyze", "--input", path,
                             "--restarts", "-1")
        assert code == 2
        assert out == ""
        assert "--restarts" in err

    def test_missing_input_exits_2(self, capsys):
        code, _, err = run(capsys, "--command", "analyze")
        assert code == 2
        assert "--input" in err

    @pytest.mark.parametrize("error", [
        NotPsdError("eigenvalue -1e-03"),
        NotHermitianError("defect 1e-03"),
        ValueError("radicand -1e-03"),
        np.linalg.LinAlgError("Eigenvalues did not converge"),
    ])
    def test_numerical_failure_exits_3_with_config(self, tmp_path, monkeypatch,
                                                   capsys, error):
        def broken(probs, states):
            raise error

        monkeypatch.setattr(cli, "pure_duality_batch", broken)
        path = write_config(tmp_path, OVERLAP06)
        code, out, err = run(capsys, "--command", "analyze", "--input", path)
        assert code == 3
        assert out == ""
        lines = err.splitlines()
        assert lines[0] == f"pathduality: numerical failure: {error}"
        assert lines[1].startswith("replay: ")
        replayed = json.loads(lines[1][len("replay: "):])
        assert replayed["probs"] == [0.5, 0.5]
        assert replayed["detectors"]["dim"] == 2

    def rank_deficient_config(self, tmp_path):
        # Stream (10003, 0, 0) at N = 8, d = 8, alpha = 0.05: its lopsided
        # priors leave rho numerically rank-deficient, and its pretty good
        # measurement built through pinv_sqrt had an entry of -1.4e-12.
        config = sample_config(8, 8, rng_stream(10003, 0, 0), alpha=0.05)
        return write_config(tmp_path, config_to_json(config))

    def test_rank_deficient_pgm_exits_0_without_search(self, tmp_path, capsys):
        path = self.rank_deficient_config(tmp_path)
        code, out, _ = run(capsys, "--command", "analyze", "--input", path,
                           "--restarts", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "ok"
        assert payload["accessible_info_lower_bound"] >= payload["entropic_duality"]["mi"]

    def test_rank_deficient_pgm_exits_0_at_the_default_budget(self, tmp_path, monkeypatch,
                                                             capsys):
        # Eight full restarts at N = 8 take about 40 s. The failure sat in
        # the starting candidates, which do not depend on the budget, so the
        # restarts are stubbed and only counted here.
        starts = []

        def no_search(coords, priors, rng):
            starts.append(rng)
            return 0.0

        monkeypatch.setattr(information, "_ascend_rank_one_mi", no_search)
        path = self.rank_deficient_config(tmp_path)
        code, out, _ = run(capsys, "--command", "analyze", "--input", path)
        assert code == 0
        assert json.loads(out)["status"] == "ok"
        assert len(starts) == 8

    def test_wrong_format_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, OVERLAP06)
        code, _, _ = run(capsys, "--command", "analyze", "--input", path,
                         "--format", "csv")
        assert code == 2


class TestVerify:
    def test_single_cell_smoke(self, capsys):
        code, out, _ = run(capsys, "--command", "verify", "--samples", "1",
                           "--n", "2", "--d", "2")
        assert code == 0
        assert "seed=42" in out
        assert "total_configs=1" in out
        assert out.strip().endswith("PASS")

    def test_small_grid_reports_every_cell(self, capsys):
        code, out, _ = run(capsys, "--command", "verify", "--samples", "2",
                           "--n-range", "2:3", "--d-range", "1:2", "--seed", "7")
        assert code == 0
        cell_lines = [l for l in out.splitlines() if l.startswith("N=")]
        assert len(cell_lines) == 4
        assert "total_configs=8" in out

    def test_impossible_tolerance_is_a_negative_control(self, capsys):
        # A negative tolerance demands gaps of at least 0.01, which the
        # saturated N = 2 quadratic relation (gap_l1 = 0) never meets,
        # whatever the sign of its round-off.
        code, out, _ = run(capsys, "--command", "verify", "--samples", "1",
                           "--n", "2", "--d", "2", "--tolerance", "-0.01")
        assert code == 1
        assert "FAIL" in out
        offender = json.loads(out.strip().splitlines()[-1])
        assert set(offender) == {"probs", "detectors"}

    def test_csv_artifact(self, tmp_path, capsys):
        out_path = tmp_path / "rows.csv"
        code, _, _ = run(capsys, "--command", "verify", "--samples", "2",
                         "--n", "2", "--d", "2", "--seed", "3",
                         "--output", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("# pathduality verify seed=3")
        assert lines[2] == CSV_HEADER
        rows = lines[3:]
        assert [row.split(",")[0] for row in rows] == ["N2/d2/0", "N2/d2/1"]
        for row in rows:
            values = [float(v) for v in row.split(",")[1:]]
            assert len(values) == 9

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        paths = []
        for name in ("a.csv", "b.csv"):
            out_path = tmp_path / name
            code, _, _ = run(capsys, "--command", "verify", "--samples", "3",
                             "--n-range", "2:3", "--d-range", "1:2",
                             "--seed", "42", "--output", str(out_path))
            assert code == 0
            paths.append(out_path.read_bytes())
        assert paths[0] == paths[1]

    def test_json_summary(self, tmp_path, capsys):
        out_path = tmp_path / "summary.json"
        code, _, _ = run(capsys, "--command", "verify", "--samples", "1",
                         "--n", "3", "--d", "2", "--seed", "11",
                         "--format", "json", "--output", str(out_path))
        assert code == 0
        summary = json.loads(out_path.read_text())
        assert summary["status"] == "ok"
        assert summary["grid"]["d"] == "2:2"
        assert summary["cells"][0]["n"] == 3
        assert summary["worst_gap_l1"] >= -1e-9

    def test_lopsided_priors_pass(self, capsys):
        # Dirichlet(0.01) priors make rho rank-deficient; the PGM table is
        # still a valid distribution and both relations hold.
        code, out, err = run(capsys, "--command", "verify", "--alpha", "0.01",
                             "--samples", "50")
        assert code == 0
        assert out.strip().endswith("PASS")
        assert err == ""

    def test_numerical_failure_exits_3_with_replay_address(self, monkeypatch, capsys):
        def broken(probs, states):
            raise NotPsdError("eigenvalue -1.000e-03 below allowed -1e-09")

        monkeypatch.setattr(cli, "pure_duality_batch", broken)
        code, out, err = run(capsys, "--command", "verify", "--samples", "2",
                             "--n", "3", "--d", "2", "--seed", "5")
        assert code == 3
        assert "PASS" not in out and "FAIL" not in out
        lines = err.splitlines()
        assert lines[0] == ("pathduality: numerical failure: "
                            "eigenvalue -1.000e-03 below allowed -1e-09")
        assert lines[1] == "replay: seed=5 cell=0 (N=3, d=2) samples=0..1"

    def test_chunks_do_not_change_the_artifact(self, tmp_path, monkeypatch, capsys):
        artifacts = []
        for chunk in (1, 2, 256):
            monkeypatch.setattr(cli, "VERIFY_CHUNK", chunk)
            out_path = tmp_path / f"chunk{chunk}.csv"
            code, out, _ = run(capsys, "--command", "verify", "--samples", "5",
                               "--n-range", "2:3", "--d-range", "1:2",
                               "--output", str(out_path))
            assert code == 0
            artifacts.append((out, out_path.read_bytes()))
        assert artifacts[0] == artifacts[1] == artifacts[2]

    @pytest.mark.parametrize(
        "argv",
        [
            ("--command", "verify", "--samples", "0"),
            ("--command", "verify", "--n-range", "2:a"),
            ("--command", "verify", "--n-range", "1:3"),
            ("--command", "verify", "--d-range", "3:1"),
        ],
    )
    def test_usage_errors(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err


class TestSweep:
    def test_overlap_scan_traces_the_circle(self, capsys):
        code, out, _ = run(capsys, "--command", "sweep", "--family", "overlap-scan")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# pathduality sweep family=overlap-scan")
        assert lines[1] == CSV_HEADER
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 11
        first, last = rows[0], rows[-1]
        assert float(first[1]) == 0.0 and float(first[2]) == pytest.approx(1.0, abs=1e-12)
        assert float(last[1]) == pytest.approx(0.5, abs=1e-12)
        assert float(last[2]) == pytest.approx(0.5, abs=1e-12)
        for row in rows:
            assert float(row[3]) == pytest.approx(0.25, abs=1e-12)

    def test_prior_scan_keeps_orthogonal_detectors_tight(self, capsys):
        code, out, _ = run(capsys, "--command", "sweep", "--family", "prior-scan",
                           "--steps", "5", "--overlap", "0.0")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[2:]]
        assert len(rows) == 5
        for row in rows:
            assert float(row[1]) == 0.0
            assert float(row[2]) == pytest.approx(1.0, abs=1e-12)
            assert float(row[5]) >= -1e-9
            assert float(row[9]) >= -1e-9

    def test_dimension_scan(self, capsys):
        code, out, _ = run(capsys, "--command", "sweep", "--family", "dimension-scan",
                           "--steps", "4", "--n", "3", "--seed", "5")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[2:]]
        assert [float(r[0]) for r in rows] == [1.0, 2.0, 3.0, 4.0]
        for row in rows:
            assert float(row[5]) >= -1e-9
            assert float(row[9]) >= -1e-9

    def test_dimension_scan_is_deterministic(self, capsys):
        a = run(capsys, "--command", "sweep", "--family", "dimension-scan",
                "--steps", "3", "--seed", "9")
        b = run(capsys, "--command", "sweep", "--family", "dimension-scan",
                "--steps", "3", "--seed", "9")
        assert a == b

    def test_analyze_reproduces_sweep_rows(self, tmp_path, capsys):
        # A sweep row and an analyze run of the same configuration must agree
        # on every shared quantity to replay precision.
        from pathduality import config_to_json

        code, out, _ = run(capsys, "--command", "sweep", "--family", "overlap-scan",
                           "--steps", "11")
        assert code == 0
        row = out.splitlines()[2 + 4].split(",")  # t = 0.4 point
        t, config = family_points("overlap-scan", steps=11, seed=42)[4]
        assert float(row[0]) == t
        path = tmp_path / "point.json"
        path.write_text(json.dumps(config_to_json(config)), encoding="utf-8")
        code, out, _ = run(capsys, "--command", "analyze", "--input", str(path),
                           "--restarts", "1")
        assert code == 0
        payload = json.loads(out)
        l1 = payload["l1_duality"]
        ent = payload["entropic_duality"]
        for value, key, side in (
            (row[1], "x", l1), (row[2], "ps_bound", l1), (row[3], "lhs_l1", l1),
            (row[4], "rhs_l1", l1), (row[5], "gap_l1", l1), (row[6], "c_rel", ent),
            (row[7], "mi", ent), (row[8], "h_priors", ent),
            (row[9], "gap_entropic", ent),
        ):
            assert float(value) == pytest.approx(side[key], abs=1e-12)

    def test_numerical_failure_exits_3(self, monkeypatch, capsys):
        def broken(probs, states):
            raise NotPsdError("eigenvalue -1e-03")

        monkeypatch.setattr(cli, "pure_duality_batch", broken)
        code, out, err = run(capsys, "--command", "sweep", "--family", "overlap-scan",
                             "--steps", "3")
        assert code == 3
        assert out == ""
        assert err.splitlines()[1] == "replay: family=overlap-scan seed=42 param=0..1"

    def test_bad_alpha_exits_2(self, capsys):
        code, _, err = run(capsys, "--command", "sweep", "--family", "dimension-scan",
                           "--alpha", "0")
        assert code == 2
        assert "alpha" in err

    def test_missing_family_exits_2(self, capsys):
        code, _, err = run(capsys, "--command", "sweep")
        assert code == 2
        assert "--family" in err

    def test_unknown_family_exits_2(self, capsys):
        code, _, _ = run(capsys, "--command", "sweep", "--family", "phase-scan")
        assert code == 2

    def test_json_format_rejected(self, capsys):
        code, _, _ = run(capsys, "--command", "sweep", "--family", "overlap-scan",
                         "--format", "json")
        assert code == 2

    def test_output_file(self, tmp_path, capsys):
        out_path = tmp_path / "trace.csv"
        code, out, _ = run(capsys, "--command", "sweep", "--family", "overlap-scan",
                           "--steps", "3", "--output", str(out_path))
        assert code == 0
        assert out == ""
        assert out_path.read_text().splitlines()[1] == CSV_HEADER


@pytest.mark.parametrize("argv", [
    ("--command", "sweep", "--family", "prior-scan"),
    ("--command", "sweep", "--family", "prior-scan", "--overlap", "0.5"),
    ("--command", "sweep", "--family", "overlap-scan"),
    ("--command", "verify", "--samples", "3", "--seed", "42"),
    ("--command", "verify", "--samples", "3", "--prior-mode", "uniform"),
])
def test_no_csv_field_is_negative_zero(tmp_path, capsys, argv):
    out_path = tmp_path / "out.csv"
    code, _, _ = run(capsys, *argv, "--output", str(out_path))
    assert code == 0
    rows = [line for line in out_path.read_text().splitlines()
            if not line.startswith("#")][1:]
    assert rows
    for row in rows:
        assert "-0" not in row.split(","), row


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pathduality", "--command", "sweep",
             "--family", "overlap-scan", "--steps", "3"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[1] == CSV_HEADER

    def test_unknown_flag_exits_2(self, capsys):
        code, _, _ = run(capsys, "--command", "sweep", "--familly", "overlap-scan")
        assert code == 2

    def test_missing_command_exits_2(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2
