"""Tests for the command-line interface."""

import json

import pytest

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
