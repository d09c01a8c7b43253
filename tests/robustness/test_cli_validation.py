"""CLI flag/env validation happens at parse time, not mid-run.

Satellite (ISSUE 2): bad ``--jobs`` / ``--timeout`` / ``--retries``
values must be rejected by argparse with a clear message, environment
values must pass through the same validators, and the help text must
document the flag-vs-environment precedence.
"""

import pytest

from repro.cli import _build_parser, main


def _parse(argv):
    return _build_parser().parse_args(argv)


class TestFlagValidation:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--jobs", "four", "list"],
            ["--jobs", "2.5", "list"],
            ["--jobs", "100000", "list"],
            ["--retries", "-1", "list"],
            ["--retries", "many", "list"],
            ["--retries", "101", "list"],
            ["--timeout", "0", "list"],
            ["--timeout", "-5", "list"],
            ["--timeout", "soon", "list"],
            ["--timeout", "inf", "list"],
            ["--timeout", "nan", "list"],
        ],
    )
    def test_bad_values_rejected_at_parse_time(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            _parse(argv)
        assert excinfo.value.code == 2  # argparse usage error
        err = capsys.readouterr().err
        assert argv[0].lstrip("-") in err  # names the offending flag

    @pytest.mark.parametrize(
        "argv, attr, expected",
        [
            (["--jobs", "4", "list"], "jobs", 4),
            (["--jobs", "-1", "list"], "jobs", -1),
            (["--retries", "0", "list"], "retries", 0),
            (["--retries", "5", "list"], "retries", 5),
            (["--timeout", "30", "list"], "timeout", 30.0),
            (["--timeout", "0.5", "list"], "timeout", 0.5),
        ],
    )
    def test_good_values_accepted(self, argv, attr, expected):
        assert getattr(_parse(argv), attr) == expected

    def test_strict_and_keep_going_are_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            _parse(["--strict", "--keep-going", "list"])
        assert excinfo.value.code == 2
        assert "not allowed with" in capsys.readouterr().err


class TestBadInputIsAUsageError:
    """Bad workload, scale, selection, device and directory input exits 2 with
    one ``repro: error:`` line before any run starts, not a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["characterize", "XYZ"],
            ["trace", "XYZ", "{tmp}/trace.jsonl"],
            ["characterize", "GMS", "--scale", "0"],
            ["characterize", "GMS", "--scale", "-1"],
            ["sweep", "--devices", "A100", "--workloads", "XYZ"],
            ["sweep", "--devices", "A100", "--workloads", "GST,XYZ"],
            ["similar", "--workloads", "XYZ", "--coverage", "0.5"],
            ["similar", "--query", "GMS:pme_gather", "-k", "0"],
            ["similar", "--representatives", "0"],
            ["similar", "--coverage", "0"],
            ["sweep", "--devices", "A100", "--suite", "XYZ"],
            ["--journal-dir", "{tmp}/file", "table1"],
            ["sweep", "--devices", "A100,A100", "--workloads", "GMS"],
            ["sweep", "--devices", "A100", "--workloads", "GMS",
             "--baseline", "H100"],
        ],
    )
    def test_exits_2_with_one_error_line(self, argv, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        with pytest.raises(SystemExit) as excinfo:
            main(["--no-cache", *argv])
        assert excinfo.value.code == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines[-1].startswith("repro: error: ")
        assert sum("error" in line for line in lines) == 1
        assert not (tmp_path / "trace.jsonl").exists()

    def test_baseline_resolves_like_devices(self, capsys):
        assert main(["--no-cache", "--preset", "laptop", "sweep",
                     "--devices", "RTX3080,A100", "--baseline", "rtx3080",
                     "--workloads", "GST"]) == 0
        assert "Dominant-kernel shifts vs RTX 3080" in capsys.readouterr().out

    def test_journal_dir_env_naming_a_file(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "file").write_text("")
        monkeypatch.setenv("REPRO_JOURNAL_DIR", str(tmp_path / "file"))
        with pytest.raises(SystemExit) as excinfo:
            main(["--no-cache", "table1"])
        assert excinfo.value.code == 2
        assert "--journal-dir: not a directory" in capsys.readouterr().err


class TestEnvValidation:
    def test_env_provides_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        monkeypatch.setenv("REPRO_RETRIES", "7")
        monkeypatch.setenv("REPRO_TIMEOUT", "45")
        args = _parse(["list"])
        assert args.jobs == 3
        assert args.retries == 7
        assert args.timeout == 45.0

    def test_flags_override_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        monkeypatch.setenv("REPRO_RETRIES", "7")
        args = _parse(["--jobs", "1", "--retries", "0", "list"])
        assert args.jobs == 1
        assert args.retries == 0

    @pytest.mark.parametrize(
        "name, value",
        [
            ("REPRO_JOBS", "lots"),
            ("REPRO_RETRIES", "-2"),
            ("REPRO_TIMEOUT", "whenever"),
        ],
    )
    def test_garbage_env_fails_fast_naming_the_variable(
        self, monkeypatch, name, value
    ):
        monkeypatch.setenv(name, value)
        with pytest.raises(SystemExit) as excinfo:
            _build_parser()
        assert name in str(excinfo.value.code)

    def test_empty_env_means_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "")
        monkeypatch.setenv("REPRO_TIMEOUT", "")
        args = _parse(["list"])
        assert args.jobs is None
        assert args.timeout is None


class TestHelpText:
    def test_help_documents_env_precedence_and_failure_semantics(self):
        # argparse re-wraps the epilog, so normalize line breaks first.
        text = " ".join(_build_parser().format_help().split())
        for needle in (
            "REPRO_JOBS",
            "REPRO_RETRIES",
            "REPRO_TIMEOUT",
            "REPRO_JOURNAL_DIR",
            "flag always overrides its",
            "--strict",
        ):
            assert needle in text


class TestMainWiring:
    def test_timeout_without_jobs_warns_on_stderr(self, capsys):
        rc = main(["--timeout", "30", "list"])
        assert rc == 0
        assert "--timeout has no effect on the serial path" in (
            capsys.readouterr().err
        )

    def test_timeout_with_all_cpus_on_one_cpu_warns(
        self, capsys, monkeypatch
    ):
        # --jobs -1 on a one-CPU host resolves to one worker: serial.
        monkeypatch.setattr("repro.core.engine.os.cpu_count", lambda: 1)
        rc = main(["--jobs", "-1", "--timeout", "30", "list"])
        assert rc == 0
        assert "--timeout has no effect on the serial path" in (
            capsys.readouterr().err
        )

    def test_timeout_with_jobs_does_not_warn(self, capsys):
        rc = main(["--jobs", "2", "--timeout", "30", "list"])
        assert rc == 0
        assert "--timeout" not in capsys.readouterr().err
