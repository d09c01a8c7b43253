"""Tests for the CLI and the Markdown report generator."""

import re
import signal

import pytest

from repro.cli import main
from repro.core import LAPTOP_SCALE, ResultCache, run_suite
from repro.core.report import generate_report


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Cactus (10):" in out
        assert "Rodinia (18):" in out
        assert "CactusExt (3):" in out

    def test_characterize(self, capsys):
        assert main(["characterize", "GMS", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "kernels: 9" in out
        assert "nbnxn_kernel" in out

    def test_table1(self, capsys):
        assert main(["--preset", "laptop", "table1"]) == 0
        out = capsys.readouterr().out
        for abbr in ("GMS", "LGT"):
            assert abbr in out

    def test_trace(self, tmp_path, capsys):
        path = tmp_path / "gru.jsonl"
        assert main(["trace", "GRU", str(path), "--scale", "0.001"]) == 0
        assert path.exists()
        assert "launches" in capsys.readouterr().out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_sweep(self, capsys):
        sigterm = signal.getsignal(signal.SIGTERM)
        assert main(["--preset", "laptop", "sweep",
                     "--devices", "V100,H100",
                     "--workloads", "GST,DCG"]) == 0
        # A suite command's SIGTERM handler lasts only as long as it runs.
        assert signal.getsignal(signal.SIGTERM) is sigterm
        out = capsys.readouterr().out
        assert "## Device sweep" in out
        assert "Roofline elbows" in out
        assert "V100" in out and "H100" in out

    def test_sweep_to_file_all_devices(self, tmp_path, capsys):
        path = tmp_path / "sweep.md"
        assert main(["--preset", "laptop", "sweep", "--all-devices",
                     "--workloads", "GST",
                     "--output", str(path)]) == 0
        text = path.read_text()
        for name in ("EdgeGPU", "P100", "RTX 4090"):
            assert name in text

    def test_sweep_rejects_unknown_device(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--devices", "TPUv4", "--workloads", "GST"])
        assert excinfo.value.code == 2
        assert "unknown device" in capsys.readouterr().err.lower()

    def test_report_to_file(self, tmp_path, capsys):
        path = tmp_path / "report.md"
        assert main(["--preset", "laptop", "report",
                     "--output", str(path)]) == 0
        text = path.read_text()
        assert text.startswith("# Cactus characterization report")
        assert "Table I" in text


class TestCLIEpilogue:
    """Every suite command ends with one stderr epilogue, and a run
    without a cache directory does no cache work."""

    @pytest.mark.parametrize("env", [None, ""], ids=["unset", "empty"])
    def test_no_cache_dir_means_no_cache_work(self, monkeypatch, capsys, env):
        import repro.core.engine as engine

        digests = []
        digest = engine.launch_stream_digest
        monkeypatch.setattr(
            engine, "launch_stream_digest",
            lambda stream: digests.append(1) or digest(stream),
        )
        if env is None:
            monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        else:
            monkeypatch.setenv("REPRO_CACHE_DIR", env)
        assert main(["--preset", "laptop", "table1"]) == 0
        assert digests == []
        assert "[cache]" not in capsys.readouterr().err

    def test_report_stdout_is_byte_identical_across_runs(
        self, monkeypatch, tmp_path, capsys
    ):
        """Wall-clock tables and cache counts go to the stderr epilogue,
        so every run of one recipe prints the same report: two uncached
        runs, then a cold and a warm run on one cache directory."""
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        cached = ["--cache-dir", str(tmp_path)]
        outputs, errors = [], []
        for flags in ([], [], cached, cached):
            argv = ["--preset", "laptop", *flags, "report", "--with-prt"]
            assert main(argv) == 0
            captured = capsys.readouterr()
            outputs.append(captured.out)
            errors.append(captured.err)
            assert "Run profile" not in captured.out
            assert "Engine cache" not in captured.out
            assert "## Run profile\n" in captured.err
            assert "## Run profile (PRT)\n" in captured.err
        assert ", 0 stores" not in errors[2]
        assert ", 0 stores" in errors[3]
        assert outputs[1:] == outputs[:1] * 3
        # Only hits save compute, and every warm lookup hits.
        assert "cache saved: 0.000s of compute" in errors[2]
        saved = re.findall(r"cache saved: ([0-9.]+)s of compute", errors[3])
        assert len(saved) == 2 and all(float(s) > 0 for s in saved)

    def test_cache_command_needs_a_directory(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert main(["cache"]) == 2
        assert "no cache directory" in capsys.readouterr().err

    def test_cache_command_prints_no_run_stats(self, tmp_path, capsys):
        """``cache`` makes no run, so it has no hit/store counts to show."""
        run_suite(["Cactus"], preset=LAPTOP_SCALE, workloads=["DCG"],
                  cache=ResultCache(tmp_path))
        assert main(["--cache-dir", str(tmp_path), "cache"]) == 0
        out = capsys.readouterr().out
        assert "entries:      1" in out
        [entry] = ResultCache(tmp_path).version_dir.glob("*/*.json")
        assert f"bytes:        {entry.stat().st_size}\n" in out
        assert "stats:" not in out and "hits" not in out

    def test_similar_query_prints_cache_and_trace(self, tmp_path, capsys):
        trace_dir = tmp_path / "trace"
        assert main(["--preset", "laptop",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--trace-dir", str(trace_dir),
                     "similar", "--workloads", "GMS",
                     "--query", "GMS:pme_gather", "-k", "2"]) == 0
        captured = capsys.readouterr()
        assert "nearest 2 to GMS:pme_gather" in captured.out
        assert "[cache] 0/1 hits, 1 stores" in captured.err
        assert (
            f"[trace] events.jsonl and trace.json written under {trace_dir}"
            in captured.err
        )


class TestReportGenerator:
    @pytest.fixture(scope="class")
    def runs(self):
        cactus = run_suite(["Cactus"], preset=LAPTOP_SCALE)
        prt = run_suite(["Parboil", "Rodinia", "Tango"],
                        preset=LAPTOP_SCALE)
        return cactus, prt

    def test_cactus_only_report(self, runs):
        cactus, _ = runs
        text = generate_report(cactus)
        assert "## Table I" in text
        assert "## Aggregate roofline" in text
        assert "Observations" not in text

    def test_full_report_with_prt(self, runs):
        text = generate_report(*runs)
        assert "## PRT dominance (Fig. 2)" in text
        assert "## Clustering (Fig. 9)" in text
        assert "Observations:" in text

    def test_report_mentions_every_cactus_workload(self, runs):
        cactus, _ = runs
        text = generate_report(cactus)
        for abbr in ("GMS", "LMR", "LMC", "GST", "GRU",
                     "DCG", "NST", "RFL", "SPT", "LGT"):
            assert f"| {abbr} |" in text
