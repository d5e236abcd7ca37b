"""Tests for the vector-backend cut-over micro-calibration."""

from __future__ import annotations

import json

import pytest

from repro.timing import calibrate, vector
from repro.timing.calibrate import (CALIBRATION_ENV, CALIBRATION_FORMAT,
                                    calibration_path, load_calibration,
                                    measure_vector_cutover, save_calibration,
                                    synthetic_trace)
from repro.timing.dispatch import resolve_execution


@pytest.fixture
def calib_file(tmp_path, monkeypatch):
    """Point the calibration machinery at a per-test file."""
    path = tmp_path / "calibration.json"
    monkeypatch.setenv(CALIBRATION_ENV, str(path))
    vector.set_min_batch_override(None)
    yield path
    vector.set_min_batch_override(None)


class TestSyntheticTrace:
    def test_deterministic_and_mixed(self, assert_same_trace):
        a = synthetic_trace(256)
        b = synthetic_trace(256)
        assert len(a) >= 256
        assert_same_trace(a, b)
        lowered = a.lower()
        # a useful calibration trace exercises several FU classes
        assert len(lowered.shapes) >= 4

    def test_respects_length_floor(self):
        assert len(synthetic_trace(100)) >= 100


class TestMeasurement:
    def test_report_shape_and_monotone_rule(self):
        lowered = synthetic_trace(64).lower()
        report = measure_vector_cutover(lowered, batch_sizes=(2, 4),
                                        repeats=1)
        assert set(report) >= {"vector_min_batch", "measurements",
                               "trace_instructions", "repeats"}
        assert [row["batch"] for row in report["measurements"]] == [2, 4]
        sizes = {row["batch"] for row in report["measurements"]}
        # the cut-over is a ladder size or the "never won" sentinel
        assert report["vector_min_batch"] in sizes | {8}

    def test_rejects_bad_ladder(self):
        with pytest.raises(ValueError):
            measure_vector_cutover(batch_sizes=())
        with pytest.raises(ValueError):
            measure_vector_cutover(batch_sizes=(0, 4))


class TestPersistence:
    def test_round_trip(self, calib_file):
        path = save_calibration({"vector_min_batch": 48})
        assert path == str(calib_file)
        entry = json.loads(calib_file.read_text())
        assert entry["format"] == CALIBRATION_FORMAT
        assert load_calibration() == 48

    def test_reading_disabled_by_env(self, calib_file, monkeypatch):
        save_calibration({"vector_min_batch": 48})
        monkeypatch.setenv(CALIBRATION_ENV, "off")
        assert calibration_path() is None
        assert load_calibration() is None
        with pytest.raises(ValueError):
            save_calibration({"vector_min_batch": 48})

    def test_absent_file_is_none(self, calib_file):
        assert load_calibration() is None

    @pytest.mark.parametrize("content", [
        "not json",
        json.dumps({"format": 999, "vector_min_batch": 48}),
        json.dumps({"format": CALIBRATION_FORMAT}),
        json.dumps({"format": CALIBRATION_FORMAT, "vector_min_batch": "x"}),
        json.dumps({"format": CALIBRATION_FORMAT, "vector_min_batch": 0}),
        json.dumps({"format": CALIBRATION_FORMAT,
                    "vector_min_batch": 1 << 40}),
    ])
    def test_malformed_file_is_none(self, calib_file, content):
        calib_file.write_text(content)
        assert load_calibration() is None

    def test_explicit_path_beats_env(self, calib_file, tmp_path):
        other = tmp_path / "other.json"
        save_calibration({"vector_min_batch": 24}, path=str(other))
        assert load_calibration(path=str(other)) == 24
        assert load_calibration() is None  # env path still empty


class TestDispatchIntegration:
    """resolve_execution's auto rule reads the persisted measurement."""

    def test_persisted_cutover_moves_auto_routing(self, calib_file):
        save_calibration({"vector_min_batch": 8})
        assert vector.effective_min_batch() == 8
        assert resolve_execution("auto", 8, 100) == "vector"
        assert resolve_execution("auto", 7, 100) == "lowered"

    def test_constant_is_the_fallback(self, calib_file):
        assert vector.effective_min_batch() == vector.VECTOR_MIN_BATCH
        assert (resolve_execution("auto", vector.VECTOR_MIN_BATCH, 100)
                == "vector")

    def test_override_beats_file_and_clears(self, calib_file):
        save_calibration({"vector_min_batch": 8})
        vector.set_min_batch_override(100)
        assert vector.effective_min_batch() == 100
        assert resolve_execution("auto", 99, 100) == "lowered"
        vector.set_min_batch_override(None)
        assert vector.effective_min_batch() == 8

    def test_file_read_is_cached_until_cleared(self, calib_file):
        save_calibration({"vector_min_batch": 8})
        assert vector.effective_min_batch() == 8
        save_calibration({"vector_min_batch": 16})
        # lazily cached: the old value sticks until explicitly cleared
        assert vector.effective_min_batch() == 8
        vector.set_min_batch_override(None)
        assert vector.effective_min_batch() == 16


class TestCalibrateCli:
    def test_calibrate_dry_run(self, calib_file, capsys):
        from repro.cli import main

        rc = main(["calibrate", "--instructions", "64", "--repeats", "1",
                   "--dry-run"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "measured cut-over" in out
        assert "dry run" in out
        assert not calib_file.exists()

    def test_calibrate_persists_and_applies(self, calib_file, capsys):
        from repro.cli import main

        rc = main(["calibrate", "--instructions", "64", "--repeats", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert str(calib_file) in out
        assert calib_file.exists()
        persisted = load_calibration()
        assert persisted is not None
        assert vector.effective_min_batch() == persisted

    def test_calibrate_json_stdout_is_pure_json(self, calib_file, capsys):
        from repro.cli import main

        rc = main(["calibrate", "--instructions", "64", "--repeats", "1",
                   "--json"])
        assert rc == 0
        captured = capsys.readouterr()
        # status lines ("persisted to ...") go to stderr under --json
        report = json.loads(captured.out)
        assert "vector_min_batch" in report
        assert "persisted to" in captured.err

    def test_calibrate_errors_cleanly_when_disabled(self, monkeypatch,
                                                    capsys):
        from repro.cli import main

        monkeypatch.setenv(CALIBRATION_ENV, "off")
        vector.set_min_batch_override(None)
        rc = main(["calibrate", "--instructions", "64", "--repeats", "1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "persistence is disabled" in captured.err

    def test_calibrate_explicit_path_prints_activation_note(self, calib_file,
                                                            tmp_path,
                                                            capsys):
        from repro.cli import main

        other = tmp_path / "elsewhere.json"
        rc = main(["calibrate", "--instructions", "64", "--repeats", "1",
                   "--path", str(other)])
        out = capsys.readouterr().out
        assert rc == 0
        assert other.exists()
        # the auto rule reads the env/default path, not --path: say so
        assert "export" in out and str(other) in out
