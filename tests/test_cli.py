"""Tests for the command-line interface."""

import argparse
import io
import json
import subprocess
import sys
from dataclasses import fields

import pytest

from gtorder import verify
from gtorder.cli import build_parser, main
from gtorder.harness import ALGORITHMS, CSV_COLUMNS, OPTIONAL_FIELDS, ExperimentConfig

COMMON_FLAGS = {"-h", "--help", "--n", "--trials", "--seed", "--oracle", "--fixed-instance",
                "--out", "--format", "--workers"}


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


@pytest.mark.parametrize("out", ["/dev/stdout", "the same file"])
def test_report_to_the_file_stdout_writes_comes_before_the_summary(tmp_path, out):
    # stdout redirected to a regular file, as the shell's "> out.txt" does:
    # a report written through a second open file would start at offset 0
    # too, and the summary printed after it would overwrite its first bytes
    command = [sys.executable, "-m", "gtorder", "minfind", "--n", "16", "--trials", "2",
               "--seed", "1"]
    plain = subprocess.run(command, capture_output=True, check=True).stdout
    path = tmp_path / "out.txt"
    with open(path, "wb") as stdout:
        subprocess.run([*command, "--out", str(path) if out == "the same file" else out],
                       stdout=stdout, check=True)
    text = path.read_bytes()
    assert text.startswith(plain)
    assert text[len(plain):].startswith(b"algorithm: minfind\nn: 16\n")


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


def subcommands():
    (action,) = [a for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_every_algorithm_has_a_subcommand():
    assert set(subcommands()) == {*ALGORITHMS, "verify"}


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_subcommand_flags_are_the_common_ones_and_the_table_fields(algorithm):
    config_fields = {field.name for field in fields(ExperimentConfig)}
    takes = ALGORITHMS[algorithm][1]
    assert set(takes) <= config_fields
    actions = subcommands()[algorithm]._actions
    flags = {option for action in actions for option in action.option_strings}
    assert flags == COMMON_FLAGS | {"--" + field.replace("_", "-") for field in takes}
    for action in actions:
        if action.dest in takes:
            assert action.required == (action.dest not in OPTIONAL_FIELDS)
        else:
            assert action.dest in config_fields | {"help", "out", "format"}


def test_every_flag_reaches_the_config(tmp_path):
    path = tmp_path / "report.json"
    assert main(["testle", "--n", "20", "--trials", "2", "--seed", "4", "--r", "5",
                 "--delta", "0.5", "--epsilon", "0.25", "--x-rank", "3", "--workers", "2",
                 "--fixed-instance", "--format", "json", "--out", str(path)]) == 0
    assert json.loads(path.read_text())["config"] == dict(
        algorithm="testle", n=20, trials=2, seed=4, r=5.0, k=None, delta=0.5, epsilon=0.25,
        oracle="builtin", fixed_instance=True, x_rank=3, workers=2)


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


@pytest.mark.parametrize("oracle", ["cmd:", "cmd:  ", "cmd:'x"])
def test_empty_or_unparseable_oracle_command_exits_2(oracle, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["minfind", "--n", "8", "--trials", "1", "--seed", "0", "--oracle", oracle])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "oracle command" in err and "Traceback" not in err


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
