"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "comp"])
        assert args.kernel == "comp"
        assert args.way == 4
        assert args.mem_latency == 1

    def test_unknown_kernel_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fft"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "idct" in out and "ltpsfilt" in out

    def test_run(self, capsys):
        assert main(["run", "h2v2", "--scale", "1"]) == 0
        out = capsys.readouterr().out
        assert "MOM" in out and "IPC" in out

    def test_run_with_machine_options(self, capsys):
        assert main(["run", "comp", "--scale", "1", "--way", "2",
                     "--mem-latency", "12"]) == 0
        out = capsys.readouterr().out
        assert "2-way" in out and "12-cycle" in out

    def test_figure4_subset(self, capsys):
        assert main(["figure4", "--kernels", "comp", "--ways", "1", "4",
                     "--scale", "1"]) == 0
        out = capsys.readouterr().out
        assert "way 1" in out and "comp" in out

    def test_figure5_subset(self, capsys):
        assert main(["figure5", "--kernels", "h2v2", "--latencies", "1", "50",
                     "--scale", "1"]) == 0
        out = capsys.readouterr().out
        assert "lat 50" in out and "Slow-down" in out

    def test_tables_subset(self, capsys):
        assert main(["tables", "--kernels", "addblock", "--scale", "1"]) == 0
        out = capsys.readouterr().out
        assert "Table 7" in out and "MDMX" in out

    def test_sweep_subset(self, capsys):
        assert main(["sweep", "--kernels", "comp", "--isas", "scalar", "mom",
                     "--ways", "1", "4", "--scale", "1"]) == 0
        out = capsys.readouterr().out
        assert "comp" in out and "way4" in out and "mom" in out

    def test_sweep_cache_flags(self, capsys, tmp_path):
        argv = ["sweep", "--kernels", "comp", "--isas", "mom", "--scale", "1",
                "--jobs", "2", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "1 point(s) simulated, 0 from cache" in out
        assert "1 trace build(s)" in out
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 point(s) simulated, 1 from cache; 0 trace build(s)" in out
        assert "trace hit" not in out

    def test_unusable_cache_dir_is_one_line_exit_2(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        bad = str(blocker / "cache")
        assert main(["sweep", "--kernels", "comp", "--ways", "1",
                     "--latencies", "1", "--scale", "1",
                     "--cache-dir", bad]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("repro: error: cache directory")
        assert bad in captured.err

    def test_serve_rejects_unusable_cache_dir(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        assert main(["serve", "--state-dir", str(tmp_path / "state"),
                     "--cache-dir", str(blocker / "cache")]) == 2
        assert capsys.readouterr().err.startswith(
            "repro: error: cache directory")

    def test_sweep_seed_applies_without_scale(self, capsys, tmp_path):
        """--seed must flow into the workload spec even when each kernel
        keeps its default scale (regression: it used to be ignored)."""
        import json
        import os

        from repro.kernels.registry import get_kernel

        assert main(["sweep", "--kernels", "comp", "--isas", "scalar",
                     "--seed", "7", "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        entries = []
        for root, _dirs, files in os.walk(tmp_path):
            for name in files:
                with open(os.path.join(root, name)) as f:
                    entries.append(json.load(f))
        results = [e for e in entries if "sim" in e]
        assert len(results) == len(entries) == 1
        for entry in results:
            assert entry["workload"]["seed"] == 7
            assert entry["workload"]["scale"] == get_kernel("comp").default_scale


class TestBackendFlag:
    def test_backend_defaults_to_lowered(self):
        args = build_parser().parse_args(["sweep", "--kernels", "comp"])
        assert args.backend == "lowered"
        args = build_parser().parse_args(["serve", "--state-dir", "s"])
        assert args.backend == "lowered"

    def test_backend_choices(self):
        for backend in ("lowered", "object"):
            args = build_parser().parse_args(
                ["sweep", "--kernels", "comp", "--backend", backend])
            assert args.backend == backend
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sweep", "--kernels", "comp", "--backend", "fpga"])

    @pytest.mark.parametrize("argv", [
        ["sweep", "--kernels", "comp", "--backend", "auto"],
        ["sweep", "--kernels", "comp", "--backend", "vector"],
        ["serve", "--state-dir", "s", "--backend", "vector"],
        ["calibrate"],
    ], ids=["auto", "vector", "serve-vector", "calibrate"])
    def test_removed_names_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_backend_flag_on_every_sweep_command(self):
        for command in (["figure4"], ["figure5"], ["tables"]):
            args = build_parser().parse_args(
                command + ["--kernels", "comp", "--backend", "object"])
            assert args.backend == "object"

    @pytest.mark.parametrize("backend", ["object", "lowered"])
    def test_sweep_backends_print_identical_numbers(self, capsys, backend):
        base = ["sweep", "--kernels", "comp", "--isas", "scalar", "mom",
                "--scale", "1"]
        assert main(base) == 0
        default_out = capsys.readouterr().out
        assert main(base + ["--backend", backend]) == 0
        assert capsys.readouterr().out == default_out


class TestCacheStatsJson:
    def test_stats_json_round_trips(self, capsys, tmp_path):
        import json

        assert main(["sweep", "--kernels", "comp", "--isas", "mom",
                     "--scale", "1", "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(tmp_path),
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cache_dir"] == str(tmp_path)
        assert payload["total_entries"] == 1
        assert payload["sqlite_entries"] == 0
        assert payload["total_bytes"] > 0
        assert "traces" not in json.dumps(payload)
        assert payload["oldest_mtime"] <= payload["newest_mtime"]

    def test_stats_human_format_unchanged_without_flag(self, capsys,
                                                       tmp_path):
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "cache root:" in out


class TestStreamInstrRate:
    def test_stream_jsonl_reports_sim_instr_per_sec(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "points.jsonl"
        assert main(["sweep", "--kernels", "comp", "--isas", "scalar",
                     "--scale", "1", "--stream-jsonl", str(out_path)]) == 0
        capsys.readouterr()
        (line,) = [json.loads(l) for l in out_path.read_text().splitlines()]
        assert line["sim_instr_per_sec"] > 0

    def test_cached_points_report_zero_rate(self, capsys, tmp_path):
        import json

        cache = tmp_path / "cache"
        argv = ["sweep", "--kernels", "comp", "--isas", "mom", "--scale",
                "1", "--cache-dir", str(cache)]
        assert main(argv) == 0
        out_path = tmp_path / "warm.jsonl"
        assert main(argv + ["--stream-jsonl", str(out_path)]) == 0
        capsys.readouterr()
        (line,) = [json.loads(l) for l in out_path.read_text().splitlines()]
        assert line["cached"] is True
        assert line["sim_instr_per_sec"] == 0
