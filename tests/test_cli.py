"""Tests for the command-line interface."""

import io
import json
import sys

import pytest

from gtorder import verify
from gtorder.cli import main
from gtorder.harness import CSV_COLUMNS


def test_minfind_writes_csv_to_stdout(capsys):
    assert main(["minfind", "--n", "16", "--trials", "5", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == CSV_COLUMNS
    assert len(lines) == 6


def test_out_file_and_summary(tmp_path, capsys):
    path = tmp_path / "report.csv"
    code = main(["minfind", "--n", "16", "--trials", "5", "--seed", "1",
                 "--out", str(path)])
    assert code == 0
    assert path.read_text().splitlines()[0] == CSV_COLUMNS
    assert "success_rate: 1.0" in capsys.readouterr().out


def test_json_format(capsys):
    assert main(["rank", "--n", "32", "--trials", "2", "--seed", "3",
                 "--delta", "0.4", "--epsilon", "0.2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["algorithm"] == "rank"
    assert len(payload["trials"]) == 2


def test_select_subcommand(capsys):
    assert main(["select", "--n", "150", "--k", "30", "--trials", "2",
                 "--seed", "5", "--delta", "0.5", "--epsilon", "0.2"]) == 0
    assert capsys.readouterr().out.startswith(CSV_COLUMNS)


def test_identical_commands_give_identical_output(tmp_path):
    argv = ["testle", "--n", "100", "--r", "20", "--trials", "10", "--seed", "9",
            "--delta", "0.5", "--epsilon", "0.2"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["minfind"])  # --n is required
    assert excinfo.value.code == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["quickselect", "--n", "8"])
    assert excinfo.value.code == 2


def test_invalid_parameters_exit_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["testle", "--n", "100", "--r", "200", "--trials", "2",
              "--seed", "0", "--delta", "0.5", "--epsilon", "0.2"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("workers", ["0", "-4"])
def test_workers_below_one_exit_2(workers):
    with pytest.raises(SystemExit) as excinfo:
        main(["minfind", "--n", "16", "--trials", "3", "--seed", "0",
              "--workers", workers])
    assert excinfo.value.code == 2


def test_bad_oracle_command_exits_1(capsys):
    code = main(["minfind", "--n", "8", "--trials", "1", "--seed", "0",
                 "--oracle", "cmd:/nonexistent/oracle"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_verify_list(capsys):
    assert main(["verify", "--list"]) == 0
    out = capsys.readouterr().out
    assert "swap_uniformity" in out
    assert "apxselect_theorem" in out


def test_verify_single_check(capsys):
    assert main(["verify", "--seed", "4", "--only", "swap_uniformity"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS swap_uniformity")
    assert "1/1 checks passed" in out


def test_verify_unknown_check_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--only", "nonsense"])
    assert excinfo.value.code == 2


def test_verify_reduces_negative_seeds_modulo_2_64(capsys):
    details = []
    for seed in ("-1", str(2**64 - 1)):
        assert main(["verify", "--seed", seed, "--only", "swap_uniformity"]) == 0
        details.append(capsys.readouterr().out.splitlines()[0].rpartition(" (")[0])
    assert details[0].startswith("PASS swap_uniformity")
    assert details[0] == details[1]


@pytest.fixture
def checks(monkeypatch):
    """An empty check registry in place of the suite's, for test checks."""
    monkeypatch.setattr(verify, "ALL_CHECKS", {})
    return verify.ALL_CHECKS


def test_a_check_at_its_time_limit_fails_and_names_it(checks):
    @verify._check(time_limit=0.0)
    def check_instant(seed):
        return True, "fine"

    @verify._check(time_limit=60.0)
    def check_quick(seed):
        return True, "fine"

    assert list(checks) == ["instant", "quick"]
    late, quick = check_instant(0), check_quick(0)
    assert not late.passed and late.detail.startswith("fine; over the 0s limit (")
    assert quick.passed and quick.detail.startswith("fine (") and quick.detail.endswith("s)")


def test_verify_prints_each_line_before_the_next_check_starts(checks, monkeypatch):
    # a stdout that passes text on only when flushed
    raw = io.BytesIO()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="ascii"))
    seen = []

    @verify._check()
    def check_first(seed):
        return True, "one"

    @verify._check()
    def check_second(seed):
        seen.append(raw.getvalue().decode())
        return False, "two"

    assert main(["verify"]) == 1
    assert seen[0].startswith("PASS first: one (") and seen[0].count("\n") == 1


def test_verify_rejects_unknown_names_before_any_check_runs(checks):
    ran = []

    @verify._check()
    def check_known(seed):
        ran.append(seed)
        return True, ""

    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--only", "known", "--only", "nonsense"])
    assert excinfo.value.code == 2
    assert ran == []


def test_verify_does_not_report_a_key_error_in_a_check_as_usage(checks):
    @verify._check()
    def check_broken(seed):
        return {}["missing"]

    with pytest.raises(KeyError, match="missing"):
        main(["verify"])
