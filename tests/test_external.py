"""Tests for the external-process oracle and its wire protocol."""

import os
import sys

import numpy as np
import pytest

from gtorder import (
    ExternalOracle,
    InstanceOracle,
    InvalidParameterError,
    OracleProtocolError,
    OracleSpawnError,
    OracleTimeoutError,
    make_instance,
)


def reference_command(n, seed):
    return [sys.executable, "-m", "gtorder.oracle_server", "--n", str(n), "--seed", str(seed)]


def script_command(tmp_path, body):
    path = tmp_path / "server.py"
    path.write_text(body)
    return [sys.executable, str(path)]


class TestReferenceServer:
    def test_matches_builtin_oracle(self):
        n, seed = 32, 805
        builtin = InstanceOracle(make_instance(n, seed))
        rng = np.random.default_rng(1)
        with ExternalOracle(reference_command(n, seed), n) as remote:
            for _ in range(300):
                u = int(rng.integers(n))
                V = rng.integers(0, n, size=int(rng.integers(1, 9))).tolist()
                assert remote.left_test(u, V) == builtin.left_test(u, V)
                assert remote.right_test(u, V) == builtin.right_test(u, V)

    def test_empty_sets_answer_false(self):
        with ExternalOracle(reference_command(8, 0), 8) as remote:
            assert remote.left_test(3, []) is False
            assert remote.right_test(3, []) is False

    def test_out_of_range_id_raises_invalid_parameter(self):
        with ExternalOracle(reference_command(8, 0), 8) as remote:
            with pytest.raises(InvalidParameterError):
                remote.right_test(3, [8])
            # the connection stays usable after a rejected query
            assert remote.right_test(3, [3]) is True

    def test_size_mismatch_at_init(self):
        with pytest.raises(OracleProtocolError):
            ExternalOracle(reference_command(16, 0), 8)


class TestProtocolFailures:
    def test_spawn_failure(self):
        with pytest.raises(OracleSpawnError):
            ExternalOracle(["/nonexistent/oracle-binary"], 8)

    def test_malformed_reply(self, tmp_path):
        command = script_command(
            tmp_path,
            "import sys\n"
            "print('OK', flush=True)\n"
            "sys.stdin.readline()\n"
            "print('MAYBE', flush=True)\n"
            "for line in sys.stdin:\n"
            "    print('Y', flush=True)\n",
        )
        with ExternalOracle(command, 8) as remote:
            with pytest.raises(OracleProtocolError):
                remote.left_test(0, [1])
            # the session is over: a later well-formed reply is not trusted
            with pytest.raises(OracleProtocolError):
                remote.left_test(0, [1])

    def test_timeout(self, tmp_path):
        command = script_command(
            tmp_path,
            "import sys, time\n"
            "print('OK', flush=True)\n"
            "sys.stdin.readline()\n"
            "time.sleep(60)\n",
        )
        with ExternalOracle(command, 8, timeout=0.3) as remote:
            with pytest.raises(OracleTimeoutError):
                remote.left_test(0, [1])

    def test_server_exit_is_a_protocol_error(self, tmp_path):
        command = script_command(
            tmp_path,
            "import sys\n"
            "print('OK', flush=True)\n"
            "sys.stdin.readline()\n",
        )
        with ExternalOracle(command, 8) as remote:
            with pytest.raises(OracleProtocolError):
                remote.right_test(0, [1])

    def test_late_reply_never_answers_a_later_query(self, tmp_path):
        # the first reply arrives after the client gave up on it; answering
        # the next query with that stale N would be a false answer
        command = script_command(
            tmp_path,
            "import sys, time\n"
            "print('OK', flush=True)\n"
            "sys.stdin.readline()\n"
            "time.sleep(0.6)\n"
            "print('N', flush=True)\n"
            "for line in sys.stdin:\n"
            "    print('Y', flush=True)\n",
        )
        with ExternalOracle(command, 8, timeout=0.3) as remote:
            with pytest.raises(OracleTimeoutError):
                remote.left_test(0, [1])
            with pytest.raises(OracleProtocolError):
                remote.left_test(0, [1])
            with pytest.raises(OracleProtocolError):
                remote.right_test(0, [1])

    def test_init_timeout_reaps_the_child(self, tmp_path):
        pid_file = tmp_path / "server.pid"
        command = script_command(
            tmp_path,
            "import os, time\n"
            f"open({str(pid_file)!r}, 'w').write(str(os.getpid()))\n"
            "time.sleep(60)\n",
        )
        with pytest.raises(OracleTimeoutError):
            ExternalOracle(command, 8, timeout=1.0)
        pid = int(pid_file.read_text())
        try:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        finally:
            try:
                os.kill(pid, 9)
            except ProcessLookupError:
                pass
