"""Command-line interface: parsing, output formats, determinism, exit codes.

Most flows run in-process with captured stdout; the installed entry point is
exercised once through a real subprocess.  Determinism is checked as byte
equality of repeated invocations.  The legacy flags --resolution, --cache and
--threads are checked to be accepted and ignored.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from cantor_spectra import BandMeasure
from cantor_spectra.cli import parse_args, run

# --------------------------------------------------------------------------
# parsing
# --------------------------------------------------------------------------


class TestParseArgs:
    def test_orbit_defaults(self):
        cfg = parse_args(["orbit", "--energy", "0.5", "--lambda", "1"])
        assert cfg.command == "orbit"
        assert cfg.params["energy"] == 0.5
        assert cfg.params["lam"] == 1.0
        assert cfg.params["max_iter"] == 200
        assert cfg.params["escape"] == 10.0
        assert cfg.fmt == "json"
        assert not {"cache", "threads", "resolution"} & set(cfg.params)

    def test_spectrum_defaults_and_csv(self):
        cfg = parse_args(["spectrum", "--lambda", "1", "--level", "8"])
        assert cfg.params == {"lam": 1.0, "level": 8}
        assert cfg.fmt == "json"
        cfg = parse_args(["spectrum", "--lambda", "1", "--level", "8", "--csv"])
        assert cfg.fmt == "csv"

    def test_phase_grid_range_argument(self):
        cfg = parse_args(
            ["phase", "--l1", "0.1:8:40", "--l2", "0.1:8:40", "--out", "x"]
        )
        assert cfg.params["l1"] == "0.1:8:40"
        assert cfg.params["level"] == 12
        assert "resolution" not in cfg.params
        assert cfg.params["margin"] == 0.05
        assert cfg.params["samples"] == 400

    def test_cache_and_threads(self):
        # Accepted for older invocations and ignored: the config is the same.
        plain = ["spectrum", "--lambda", "1", "--level", "8"]
        legacy = plain + ["--cache", "/c", "--threads", "3", "--resolution", "1e-9"]
        assert parse_args(legacy) == parse_args(plain)

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--lambda", "-1", "--level", "8"],
            ["spectrum", "--lambda", "1", "--level", "0"],
            ["spectrum", "--lambda", "1", "--level", "40"],
            ["spectrum", "--lambda", "1", "--level", "8", "--resolution", "0"],
            ["orbit", "--energy", "0", "--lambda", "1", "--escape", "2"],
            ["orbit", "--energy", "0", "--lambda", "1", "--max-iter", "0"],
            ["sumset", "--lambda1", "-1", "--lambda2", "1", "--level", "8"],
            ["dos", "--lambda", "1", "--level", "8", "--oracle-sites", "1"],
            ["convolve", "--in", "only-one.json"],
            ["convolve", "--in", "a", "--in", "b", "--granularity", "0"],
            ["dimension", "--measure", "m.json", "--samples", "99"],
            ["dimension", "--measure", "m.json", "--eps-min", "0.5", "--eps-max", "0.1"],
            ["phase", "--l1", "0.1:8", "--l2", "0.1:8:4", "--out", "x"],
            ["phase", "--l1", "0:8:4", "--l2", "0.1:8:4", "--out", "x"],
            ["phase", "--l1", "8:0.1:4", "--l2", "0.1:8:4", "--out", "x"],
            ["phase", "--l1", "0.1:8:4", "--l2", "0.1:8:4", "--out", "x", "--margin", "0"],
            ["spectrum", "--lambda", "1", "--level", "8", "--threads", "0"],
            ["spectrum", "--lambda", "1", "--level", "8", "--no-such-flag"],
            ["unknown-command"],
            [],
        ],
    )
    def test_usage_errors_exit_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        assert exc.value.code == 2

    def test_json_csv_mutually_exclusive(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["spectrum", "--lambda", "1", "--level", "8", "--json", "--csv"])
        assert exc.value.code == 2


# --------------------------------------------------------------------------
# helpers for run() flows
# --------------------------------------------------------------------------


def run_cli(capsys, argv):
    code = run(parse_args(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------------
# run() flows
# --------------------------------------------------------------------------


class TestOrbitCommand:
    def test_bounded_orbit_json(self, capsys):
        code, out, err = run_cli(capsys, ["orbit", "--energy", "0", "--lambda", "0"])
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["command"] == "orbit"
        assert payload["status"] == "bounded_up_to"
        assert payload["steps"] == 200
        assert payload["max_norm"] == 1.0
        assert payload["invariant_drift"] == 0.0

    def test_escaped_orbit(self, capsys):
        code, out, _ = run_cli(capsys, ["orbit", "--energy", "30", "--lambda", "1"])
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "escaped"
        assert payload["steps"] <= 10


class TestSpectrumCommand:
    def test_json_payload(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            ["spectrum", "--lambda", "0", "--level", "6", "--resolution", "1e-3",
             "--cache", str(tmp_path)],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["command"] == "spectrum"
        assert payload["count"] == len(payload["intervals"]) == 1
        lo, hi = payload["intervals"][0]
        assert abs(lo + 2.0) <= 1e-4 and abs(hi - 2.0) <= 1e-4
        assert abs(payload["measure"] - 4.0) <= 1e-3

    def test_csv_output(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            ["spectrum", "--lambda", "1", "--level", "6", "--resolution", "1e-3",
             "--csv", "--cache", str(tmp_path)],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "lo,hi"
        assert len(lines) > 1
        for line in lines[1:]:
            lo, hi = map(float, line.split(","))
            assert lo <= hi


class TestSumsetCommand:
    def test_free_couplings_fill_interval(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            ["sumset", "--lambda1", "0", "--lambda2", "0", "--level", "8",
             "--resolution", "1e-3", "--cache", str(tmp_path)],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "sumset"
        assert payload["count"] == 1
        assert abs(payload["measure"] - 8.0) <= 1e-3
        lo, hi = payload["intervals"][0]
        assert abs(lo + 4.0) <= 1e-3 and abs(hi - 4.0) <= 1e-3


class TestDosCommand:
    def test_atoms_sum_to_one(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            ["dos", "--lambda", "1", "--level", "8", "--resolution", "1e-3",
             "--cache", str(tmp_path)],
        )
        assert code == 0
        payload = json.loads(out)
        atoms = payload["atoms"]
        assert abs(sum(w for _, _, w in atoms) - 1.0) <= 1e-9
        assert all(lo <= hi for lo, hi, _ in atoms)

    def test_output_reads_back_into_convolve(self, capsys, tmp_path):
        # 89 bands: weights cut to 12 digits would sum to 1 + 1.8e-12, past
        # the 1e-12 tolerance of a measure file; full precision reads back.
        code, out, _ = run_cli(capsys, ["dos", "--lambda", "1", "--level", "10"])
        assert code == 0
        assert len(json.loads(out)["atoms"]) == 89
        path = tmp_path / "nu.json"
        path.write_text(out)
        code, out, err = run_cli(capsys, ["convolve", "--in", str(path), "--in", str(path)])
        assert (code, err) == (0, "")
        assert abs(sum(w for _, _, w in json.loads(out)["atoms"]) - 1.0) <= 1e-12

    def test_oracle_distance_reported(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            ["dos", "--lambda", "1", "--level", "8", "--resolution", "1e-3",
             "--oracle-sites", "500", "--cache", str(tmp_path)],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["oracle_sites"] == 500
        assert 0.0 <= payload["oracle_sup_distance"] <= 0.05


class TestConvolveCommand:
    def test_convolves_files(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(BandMeasure.uniform(0, 1).to_json())
        b.write_text(BandMeasure.uniform(0, 1).to_json())
        code, out, _ = run_cli(
            capsys,
            ["convolve", "--in", str(a), "--in", str(b), "--granularity", "0.25"],
        )
        assert code == 0
        payload = json.loads(out)
        atoms = payload["atoms"]
        assert payload["granularity"] == 0.25
        assert len(atoms) == 8  # [0, 2] in quarter-width cells
        assert abs(sum(w for _, _, w in atoms) - 1.0) <= 1e-9

    def test_missing_file_is_failure(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys,
            ["convolve", "--in", str(tmp_path / "no.json"), "--in", str(tmp_path / "no2.json")],
        )
        assert (code, out) == (1, "")
        payload = json.loads(err)
        assert payload["schema_version"] == 1
        assert payload["error"] == "FileNotFoundError"


class TestDimensionCommand:
    def test_uniform_measure(self, capsys, tmp_path):
        path = tmp_path / "u.json"
        path.write_text(BandMeasure.uniform(0, 1).to_json())
        code, out, _ = run_cli(
            capsys,
            ["dimension", "--measure", str(path), "--samples", "200",
             "--eps-min", "1e-12", "--eps-max", "1e-9", "--seed", "0"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "dimension"
        assert abs(payload["midpoint"] - 1.0) <= 0.05
        assert payload["lower"] <= payload["midpoint"] <= payload["upper"]
        assert payload["sample_count"] >= 180

    def test_deterministic_output(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(
            BandMeasure([(0, 1, 0.5), (2, 3, 0.5)]).to_json()
        )
        argv = ["dimension", "--measure", str(path), "--samples", "150", "--seed", "4"]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        assert out1 == out2


class TestPhaseCommand:
    def test_writes_artifacts(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(
            capsys,
            ["phase", "--l1", "0.5:1:2", "--l2", "0.5:1:2", "--level", "6",
             "--resolution", "1e-3", "--out", str(out_dir),
             "--cache", str(tmp_path / "cache"), "--threads", "1"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["out"] == str(out_dir)
        assert sum(payload["regime_counts"].values()) == 4
        assert (out_dir / "cells.csv").exists()
        assert (out_dir / "diagram.pgm").exists()
        assert (out_dir / "provenance.json").exists()
        pgm = (out_dir / "diagram.pgm").read_bytes()
        assert pgm.startswith(b"P5\n2 2\n255\n")
        assert len(pgm) == 11 + 4
        prov = json.loads((out_dir / "provenance.json").read_text())
        assert prov["lambda1_grid"] == [0.5, 1.0]


class TestFailureExits:
    def test_bad_weights_is_exit_1_with_json_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"atoms": [[0.0, 1.0, 0.5], [2.0, 3.0, 0.4]]}))
        code, out, err = run_cli(capsys, ["convolve", "--in", str(path), "--in", str(path)])
        assert (code, out) == (1, "")
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert "sum to 1" in payload["message"]

    def test_budget_error_reported(self, capsys, tmp_path):
        # [0, 2] in cells of 1e-8 is 2e8 cells, past MAX_CONVOLUTION_ATOMS.
        path = tmp_path / "u.json"
        path.write_text(BandMeasure.uniform(0, 1).to_json())
        code, _, err = run_cli(
            capsys, ["convolve", "--in", str(path), "--in", str(path), "--granularity", "1e-8"]
        )
        assert code == 1
        assert json.loads(err)["error"] == "BudgetExceededError"


class TestDeterminism:
    def test_cold_and_warm_cache_identical_bytes(self, capsys, tmp_path):
        argv = ["spectrum", "--lambda", "1.25", "--level", "7", "--resolution", "1e-3",
                "--cache", str(tmp_path)]
        _, cold, _ = run_cli(capsys, argv)
        _, warm, _ = run_cli(capsys, argv)
        assert cold == warm

    def test_twelve_digit_floats_in_json(self, capsys, tmp_path):
        _, out, _ = run_cli(
            capsys,
            ["spectrum", "--lambda", "1", "--level", "7", "--resolution", "1e-3",
             "--cache", str(tmp_path)],
        )
        for tok in out.replace(",", " ").replace("[", " ").replace("]", " ").split():
            try:
                float(tok)
            except ValueError:
                continue
            digits = tok.lstrip("-0.").replace(".", "").replace("-", "")
            assert len(digits) <= 13


class TestImportCost:
    """Every CLI run pays its imports; keep the pool, metadata and RNG machinery out."""

    @staticmethod
    def loaded_after(code):
        probe = code + "; import sys; print(' '.join(sorted(sys.modules)))"
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.split())

    def test_import_loads_no_process_pool(self):
        loaded = self.loaded_after("import cantor_spectra.cli")
        assert not {"concurrent.futures", "multiprocessing"} & loaded
        assert "numpy.random" not in loaded  # 12-16 ms of every process that loads it

    def test_phase_run_reads_no_package_metadata(self, tmp_path):
        argv = ["phase", "--l1", "0.5:1:2", "--l2", "0.5:1:2", "--level", "6",
                "--out", str(tmp_path)]
        loaded = self.loaded_after(
            "import contextlib, io; from cantor_spectra.cli import run, parse_args\n"
            f"with contextlib.redirect_stdout(io.StringIO()): run(parse_args({argv!r}))"
        )
        assert "importlib.metadata" not in loaded
        assert "numpy.ma" not in loaded  # np.percentile would import it
        assert not {"concurrent.futures", "multiprocessing"} & loaded


class TestEntryPoint:
    def test_installed_script_runs(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-c", "from cantor_spectra.cli import main; main()",
             "orbit", "--energy", "0", "--lambda", "0"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["status"] == "bounded_up_to"

    def test_usage_error_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-c", "from cantor_spectra.cli import main; main()",
             "spectrum", "--lambda", "-3", "--level", "8"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "--lambda" in proc.stderr
