"""Tests for the external-process oracle and its wire protocol."""

import io
import itertools
import logging
import os
import re
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gtorder import (
    CountingOracle,
    ExternalOracle,
    InstanceOracle,
    InvalidParameterError,
    OracleProtocolError,
    OracleRejectedError,
    OracleSpawnError,
    OracleTimeoutError,
    make_instance,
    max_find,
    min_find,
)
from gtorder import external
from gtorder.external import (_OFFERS, _agreed_features, _batch_answer, _descent_answer,
                              _test_answer)
from gtorder.oracle_server import serve


def reference_command(n, seed):
    return [sys.executable, "-m", "gtorder.oracle_server", "--n", str(n), "--seed", str(seed)]


def script_command(tmp_path, body):
    path = tmp_path / "server.py"
    path.write_text(body)
    return [sys.executable, str(path)]


def filtered_server(tmp_path, n, seed, hook):
    """A script server that logs every line it receives and answers it
    with the reference serve(), unless ``hook``, a statement run on each
    ``line`` before serve() sees it, answers the line itself and
    continues.  Returns the command and the log path."""
    log = tmp_path / "received.log"
    body = (
        "import sys\n"
        "from gtorder.oracle_server import instance_ranks, serve\n"
        "def lines(log):\n"
        "    for line in sys.stdin:\n"
        "        log.write(line)\n"
        "        log.flush()\n"
        + textwrap.indent(textwrap.dedent(hook), " " * 8)
        + "        yield line\n"
        f"with open({str(log)!r}, 'w') as log:\n"
        f"    serve(instance_ranks({n}, {seed}), lines(log), sys.stdout)\n"
    )
    return script_command(tmp_path, body), log


def ops_received(log):
    return [line.split()[0] for line in log.read_text().splitlines()]


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

    def test_matches_builtin_oracle_at_a_seed_of_two_words(self):
        # seeds above 2**32 enter the seed sequence as two 32-bit words
        n, seed = 64, 2**40 + 3
        builtin = InstanceOracle(make_instance(n, seed))
        rng = np.random.default_rng(2)
        with ExternalOracle(reference_command(n, seed), n) as remote:
            for _ in range(100):
                u = int(rng.integers(n))
                rows = rng.integers(0, n + 3, size=(int(rng.integers(1, 9)), 4))
                arr = rng.permutation(n)[:int(rng.integers(1, n + 1))]
                for name in ("left_test_batch", "right_test_batch"):
                    assert np.array_equal(getattr(remote, name)(u, rows, n + 3),
                                          getattr(builtin, name)(u, rows, n + 3))
                for name in ("left_descent", "right_descent"):
                    assert getattr(remote, name)(u, arr) == getattr(builtin, name)(u, arr)
            for find in (min_find, max_find):
                assert (find(remote, n, np.random.default_rng(3))
                        == find(builtin, n, np.random.default_rng(3)))

    def test_logs_each_exchange_at_debug_level(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="gtorder.external"):
            with ExternalOracle(reference_command(8, 0), 8) as remote:
                remote.right_test(3, [3, 5])
                remote.left_test_batch(3, np.array([[0, 1], [2, 3]]), 8)
        messages = [r.getMessage() for r in caplog.records
                    if r.name == "gtorder.external" and r.levelno == logging.DEBUG]
        assert len(messages) == 3
        # "INIT 8 BATCH DESCENT\n" and "OK BATCH DESCENT\n"
        assert re.fullmatch(r"INIT: 21 bytes out, 17 bytes in, \d+ us", messages[0])
        # "R 3 2 3 5\n" and "Y\n"
        assert re.fullmatch(r"R: 10 bytes out, 2 bytes in, \d+ us", messages[1])
        # "BL 3 8 2 2 0 1 2 3\n" and two answers
        assert re.fullmatch(r"BL: 19 bytes out, 3 bytes in, \d+ us", messages[2])

    def test_formats_no_record_without_debug(self, caplog, monkeypatch):
        def unguarded(*args, **kwargs):
            raise AssertionError("debug record made without DEBUG enabled")

        monkeypatch.setattr(external._log, "debug", unguarded)
        with caplog.at_level(logging.INFO, logger="gtorder.external"):
            with ExternalOracle(reference_command(8, 0), 8) as remote:
                assert remote.right_test(3, [3]) is True
        assert not [r for r in caplog.records if r.name == "gtorder.external"]

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


# INIT hooks of servers that lack some op: each answers an offer it does
# not know with ERR, or with OK that leaves the feature out
BATCH_ONLY_HOOKS = {
    "batch_only_err": """
        if line.split()[2:] == ["BATCH", "DESCENT"]:
            print("ERR malformed INIT", flush=True)
            continue
    """,
    "batch_only_ok": """
        if line.startswith("INIT "):
            line = line.replace(" DESCENT", "")
    """,
}
NO_BATCH_HOOKS = {
    "err_then_ok": """
        if line.startswith("INIT ") and line.split()[2:]:
            print("ERR malformed INIT", flush=True)
            continue
    """,
    "plain_ok": """
        if line.startswith("INIT "):
            line = " ".join(line.split()[:2]) + "\\n"
    """,
}


class TestBatchOp:
    @pytest.mark.parametrize("server", sorted(NO_BATCH_HOOKS))
    def test_fallback_asks_one_line_per_row(self, tmp_path, server):
        n, seed = 20, 3
        command, log = filtered_server(tmp_path, n, seed, NO_BATCH_HOOKS[server])
        builtin = InstanceOracle(make_instance(n, seed))
        rng = np.random.default_rng(4)
        rows_sent = 0
        with ExternalOracle(command, n) as remote:
            for _ in range(20):
                u = int(rng.integers(n))
                n_eff = n + int(rng.integers(0, 4))
                rows = rng.integers(0, n_eff, size=(int(rng.integers(1, 6)), 3))
                for name in ("left_test_batch", "right_test_batch"):
                    assert (getattr(remote, name)(u, rows, n_eff).tolist()
                            == getattr(builtin, name)(u, rows, n_eff).tolist())
                rows_sent += 2 * len(rows)
        ops = ops_received(log)
        assert ops[0] == "INIT" and "BL" not in ops and "BR" not in ops
        assert len(ops) - ops.count("INIT") == rows_sent

    @pytest.mark.parametrize("reply", ["YY", "YNYN", "YNX", "Y N", "yny", "OK"])
    def test_malformed_batch_reply_ends_the_session(self, tmp_path, reply):
        command, _ = filtered_server(tmp_path, 8, 0, f"""
            if line.startswith("B"):
                print({reply!r}, flush=True)
                continue
        """)
        rows = np.array([[0, 1], [2, 3], [4, 5]])
        with ExternalOracle(command, 8) as remote:
            with pytest.raises(OracleProtocolError):
                remote.right_test_batch(3, rows, 8)
            with pytest.raises(OracleProtocolError):
                remote.right_test(3, [3])
            with pytest.raises(OracleProtocolError):
                remote.left_test_batch(3, rows, 8)

    def test_err_reply_to_a_batch_leaves_the_session_usable(self, tmp_path):
        command, log = filtered_server(tmp_path, 8, 0, """
            if line.startswith("BR 3 "):
                print("ERR busy", flush=True)
                continue
        """)
        builtin = InstanceOracle(make_instance(8, 0))
        rows = np.array([[0, 1], [2, 3], [4, 5]])
        with ExternalOracle(command, 8) as remote:
            with pytest.raises(OracleRejectedError):
                remote.right_test_batch(3, rows, 8)
            assert (remote.right_test_batch(4, rows, 8).tolist()
                    == builtin.right_test_batch(4, rows, 8).tolist())
            assert remote.left_test(3, [5]) == builtin.left_test(3, [5])
        assert ops_received(log) == ["INIT", "BR", "BR", "L"]

    # the client offers BATCH DESCENT, then BATCH, then nothing; a reply may
    # name only features its INIT offered, each once, in the order offered
    @pytest.mark.parametrize("replies", [
        ("MAYBE",), ("ERR no", "ERR no", "OK BATCH"), ("ERR no", "MAYBE"), ("OK BATCH OK",),
        ("ERR no", "OK BATCH DESCENT"), ("ERR no", "ERR no", "ERR no"),
        ("OK DESCENT BATCH",), ("OK BATCH BATCH",), ("ERR no", "ERR no", "OK DESCENT")])
    def test_bad_handshake_is_a_protocol_error(self, tmp_path, replies):
        command = script_command(
            tmp_path,
            "import sys\n"
            f"for reply in {list(replies)!r}:\n"
            "    sys.stdin.readline()\n"
            "    print(reply, flush=True)\n"
            "sys.stdin.read()\n",
        )
        with pytest.raises(OracleProtocolError):
            ExternalOracle(command, 8)

    def test_unread_batch_line_times_out(self, tmp_path):
        # the line is far longer than a pipe holds; a server that stops
        # reading must cost a timeout, not a client blocked in write
        command = script_command(
            tmp_path,
            "import sys, time\n"
            "sys.stdin.readline()\n"
            "print('OK BATCH', flush=True)\n"
            "time.sleep(60)\n",
        )
        rows = np.full((2000, 50), 999)
        with ExternalOracle(command, 1000, timeout=0.5) as remote:
            with pytest.raises(OracleTimeoutError):
                remote.right_test_batch(3, rows, 1000)
            with pytest.raises(OracleProtocolError):
                remote.right_test(3, [3])


# each kind of server, its INIT hook, and the features the client should agree
SERVERS = {
    "full": ("pass\n", {"BATCH", "DESCENT"}),
    **{name: (hook, {"BATCH"}) for name, hook in BATCH_ONLY_HOOKS.items()},
    **{f"no_batch_{name}": (hook, set()) for name, hook in NO_BATCH_HOOKS.items()},
}


class TestDescentOp:
    @pytest.mark.parametrize("server", sorted(SERVERS))
    def test_every_server_gives_the_builtin_answers(self, tmp_path, server):
        hook, features = SERVERS[server]
        n, seed = 40, 6
        command, log = filtered_server(tmp_path, n, seed, hook)
        builtin = InstanceOracle(make_instance(n, seed))
        rng = np.random.default_rng(9)
        singles = descents = levels = rows_sent = 0
        with ExternalOracle(command, n) as remote:
            for find in (min_find, max_find):
                runs = [find(oracle, n, np.random.default_rng(3)) for oracle in (remote, builtin)]
                assert runs[0] == runs[1]
                # a condition test per swap and a last one; each swap
                # descends over the n - 1 ids other than the candidate
                singles += runs[0].iterations + 1
                descents += runs[0].iterations
                levels += runs[0].iterations * (n - 2).bit_length()
            for m in (1, 2, 5, 8, 39):
                u, arr = int(rng.integers(n)), rng.permutation(n)[:m]
                for name in ("left_descent", "right_descent"):
                    counting = [CountingOracle(oracle) for oracle in (remote, builtin)]
                    ends = [getattr(oracle, name)(u, arr) for oracle in counting]
                    assert ends[0] == ends[1]
                    assert counting[0].ledger == counting[1].ledger
                    descents += m > 1
                    levels += (m - 1).bit_length()
            rows = rng.integers(0, n + 2, size=(3, 4))
            for name in ("left_test_batch", "right_test_batch"):
                assert (getattr(remote, name)(3, rows, n + 2).tolist()
                        == getattr(builtin, name)(3, rows, n + 2).tolist())
                rows_sent += len(rows)
        ops = ops_received(log)
        offers = [" ".join(("INIT", str(n), *offer)) for offer in _OFFERS]
        inits = [line for line in log.read_text().splitlines() if line.startswith("INIT")]
        # the ladder stops at the first offer not answered with ERR
        assert inits == offers[:len(inits)] and len(inits) == {
            "batch_only_err": 2, "no_batch_err_then_ok": 3}.get(server, 1)
        queries = [op for op in ops if op != "INIT"]
        if "DESCENT" in features:
            # one line per swap, none per level
            assert queries.count("DL") + queries.count("DR") == descents
            levels = 0
        else:
            assert "DL" not in queries and "DR" not in queries
        if "BATCH" in features:
            assert queries.count("BL") == queries.count("BR") == 1
            rows_sent = 0
        else:
            assert "BL" not in queries and "BR" not in queries
        assert queries.count("L") + queries.count("R") == singles + levels + rows_sent

    @pytest.mark.parametrize("reply", ["-1", "8", "03", "+3", "3.0", "0x3", "Y", "3 3", "OK", ""])
    def test_malformed_descent_reply_ends_the_session(self, tmp_path, reply):
        command, _ = filtered_server(tmp_path, 8, 0, f"""
            if line.startswith("D"):
                print({reply!r}, flush=True)
                continue
        """)
        arr = np.array([6, 1, 7, 0, 2, 5, 3, 4])
        with ExternalOracle(command, 8) as remote:
            with pytest.raises(OracleProtocolError):
                remote.right_descent(3, arr)
            with pytest.raises(OracleProtocolError):
                remote.right_test(3, [3])
            with pytest.raises(OracleProtocolError):
                remote.left_descent(3, arr)

    def test_err_reply_to_a_descent_leaves_the_session_usable(self, tmp_path):
        command, log = filtered_server(tmp_path, 8, 0, """
            if line.startswith("DR 3 "):
                print("ERR busy", flush=True)
                continue
        """)
        builtin = InstanceOracle(make_instance(8, 0))
        arr = np.array([6, 1, 7, 0, 2, 5, 3, 4])
        with ExternalOracle(command, 8) as remote:
            with pytest.raises(OracleRejectedError):
                remote.right_descent(3, arr)
            assert remote.right_descent(4, arr) == builtin.right_descent(4, arr)
            assert remote.left_descent(3, arr) == builtin.left_descent(3, arr)
            # one id: the descent ends at 0 without a line
            assert remote.right_descent(3, arr[:1]) == 0
        assert ops_received(log) == ["INIT", "DR", "DR", "DL"]


def outcome(test, *args):
    """A test's answer as a plain value, or "invalid" when it raises
    InvalidParameterError."""
    try:
        answer = test(*args)
    except InvalidParameterError:
        return "invalid"
    return answer.tolist() if isinstance(answer, np.ndarray) else answer


class TestIdSafety:
    N = 8
    SINGLE = {
        "negative_id": (3, [-1]),
        "negative_id_among_valid": (3, [5, -1]),
        "id_at_n": (3, [8]),
        "id_far_out": (3, [10**12]),
        "negative_u": (-1, [3]),
        "u_at_n": (8, [3]),
        "int64_ids": (np.int64(3), [np.int64(5), np.int64(0)]),
        "int64_array": (3, np.array([5, 0, 7], dtype=np.int64)),
        "int64_negative": (3, [np.int64(-1)]),
        "set": (3, {7, 1, 4}),
        "frozenset": (6, frozenset({0, 2})),
        "bool_id": (5, [True]),
        "bool_u": (True, [3]),
        "bool_array": (5, np.array([True])),
        "numpy_bool_id": (5, [np.bool_(True)]),
        "float_u": (5.5, [3]),
    }
    BATCH = {
        "negative_id": (3, [[0, -1]], 10),
        "id_at_n_eff": (3, [[0, 10]], 10),
        "negative_u": (-1, [[0, 1]], 10),
        "u_at_n": (8, [[0, 1]], 10),
        "int64_u_and_n_eff": (np.int64(3), [[0, 9], [5, 8]], np.int64(10)),
        "uint8_rows": (3, np.array([[0, 9], [5, 7]], dtype=np.uint8), 10),
        "dummy_only_rows": (3, [[8, 9], [9, 9]], 10),
        "n_eff_below_n": (3, [[0, 1]], 7),
        "bool_u": (True, [[0, 1]], 10),
        "float_u": (5.5, [[0, 1]], 10),
        "empty_float_rows": (3, np.asarray([[]]), 10),
    }
    DESCENT = {
        "negative_id": (3, [0, -1]),
        "id_at_n": (3, [0, 8]),
        "negative_u": (-1, [0, 1]),
        "u_at_n": (8, [0, 1]),
        "float_u": (5.5, [0, 1]),
        "bool_u": (True, [0, 1]),
        "bool_ids": (3, [True, False]),
        "float_ids": (3, [0.0, 1.0]),
        "no_ids": (3, np.array([], dtype=np.int64)),
        "two_d": (3, [[0, 1], [2, 3]]),
        "one_id": (3, [5]),
        "int64": (np.int64(3), np.array([7, 0, 5, 1, 2], dtype=np.int64)),
        "uint8": (3, np.array([7, 0, 5], dtype=np.uint8)),
    }

    @pytest.fixture(scope="class")
    def oracles(self):
        with ExternalOracle(reference_command(self.N, 11), self.N) as remote:
            yield remote, InstanceOracle(make_instance(self.N, 11))

    @pytest.mark.parametrize("case", sorted(SINGLE))
    def test_single_query(self, oracles, case):
        remote, builtin = oracles
        u, V = self.SINGLE[case]
        for name in ("left_test", "right_test"):
            got = outcome(getattr(remote, name), u, V)
            assert got in (outcome(getattr(builtin, name), u, V), "invalid")

    @pytest.mark.parametrize("case", sorted(BATCH))
    def test_batch(self, oracles, case):
        remote, builtin = oracles
        u, rows, n_eff = self.BATCH[case]
        for name in ("left_test_batch", "right_test_batch"):
            got = outcome(getattr(remote, name), u, np.array(rows), n_eff)
            assert got in (outcome(getattr(builtin, name), u, np.array(rows), n_eff),
                           "invalid")

    @pytest.mark.parametrize("case", sorted(DESCENT))
    def test_descent(self, oracles, case):
        remote, builtin = oracles
        u, arr = self.DESCENT[case]
        for name in ("left_descent", "right_descent"):
            assert (outcome(getattr(remote, name), u, np.array(arr))
                    == outcome(getattr(builtin, name), u, np.array(arr)))

    def test_bools_never_reach_the_pipe(self, tmp_path):
        command, log = filtered_server(tmp_path, self.N, 11, "pass\n")
        rows, arr = np.array([[0, 1], [2, 3]]), np.array([0, 1, 2])
        calls = [("right_test", 5, [True]), ("right_test", True, [3]),
                 ("left_test", 5, np.array([True])), ("left_test", 5, [1, np.bool_(False)]),
                 ("right_test_batch", True, rows, self.N),
                 ("left_test_batch", 3, rows.astype(bool), self.N),
                 ("right_descent", True, arr), ("left_descent", 3, arr.astype(bool))]
        with ExternalOracle(command, self.N) as remote:
            remote.right_test(1, [1])  # the text of id 1 is now cached
            for name, *args in calls:
                with pytest.raises(InvalidParameterError):
                    getattr(remote, name)(*args)
        assert ops_received(log) == ["INIT", "R"]

    def test_negative_id_is_never_read_as_another(self, oracles):
        remote, builtin = oracles
        # rank of the last id, so an id read modulo n would answer Y
        u = int(np.argsort(builtin.instance.ranks)[-1])
        for V in ([-1], [np.int64(-1)], np.array([-1])):
            with pytest.raises(InvalidParameterError):
                remote.right_test(u, V)
        with pytest.raises(InvalidParameterError):
            remote.right_test_batch(u, np.array([[-1, -1]]), self.N)
        assert remote.right_test(u, [self.N - 1]) == builtin.right_test(u, [self.N - 1])


# valid lines for a universe of 8 ids, and tokens to mutate them with
FUZZ_N = 8
FUZZ_RANKS = make_instance(FUZZ_N, 5).ranks.tolist()
VALID_LINES = [
    "INIT 8", "INIT 8 BATCH", "INIT 8 BATCH DESCENT", "INIT 8 DESCENT",
    "L 3 2 0 7", "R 3 2 0 7", "L 5 0",
    "BL 3 10 2 3 0 1 8 9 9 9", "BR 3 10 2 3 0 1 8 9 9 9", "BR 0 8 1 1 0",
    "DL 3 4 6 0 7 2", "DR 3 4 6 0 7 2", "DR 3 1 5", "DL 3 3 3 3 3",
]
TOKENS = st.one_of(
    st.sampled_from(["\u00b2", "\u0663", "\uff11", "-1", "+1", "1_0", "0x1", "1e3", "08",
                     "9" * 5000, "BATCH", "DESCENT", "INIT", "L", "R", "BL", "BR", "DL", "DR",
                     "Y", "\x00"]),
    st.integers(-3, 12).map(str),
    st.integers(0, 10**30).map(str),
    st.text(st.characters(blacklist_characters="\n"), min_size=1, max_size=4),
)


@st.composite
def mutated_lines(draw):
    tokens = draw(st.sampled_from(VALID_LINES)).split()
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["replace", "delete", "insert"]))
        at = draw(st.integers(0, len(tokens)))
        if edit == "insert":
            tokens.insert(at, draw(TOKENS))
        elif tokens and at < len(tokens):
            if edit == "replace":
                tokens[at] = draw(TOKENS)
            else:
                del tokens[at]
    return draw(st.sampled_from([" ", "  ", "\t"])).join(tokens)


def well_formed(line, reply):
    if reply.startswith("ERR "):
        return True
    parts = line.split()
    if parts[0] == "INIT":
        return reply == " ".join(("OK", *parts[2:]))
    if parts[0] in ("L", "R"):
        return reply in ("Y", "N")
    if parts[0] in ("BL", "BR"):
        return reply != "" and set(reply) <= {"Y", "N"} and len(reply) == int(parts[3])
    if parts[0] in ("DL", "DR"):
        return reply in {str(position) for position in range(int(parts[2]))}
    return False


@given(lines=st.lists(st.one_of(
    mutated_lines(), st.text(st.characters(blacklist_characters="\n"), max_size=30)),
    min_size=1, max_size=8))
@example(lines=["INIT \u00b2"])
@settings(max_examples=300, deadline=None)
def test_serve_answers_every_line_and_never_raises(lines):
    out = io.StringIO()
    serve(FUZZ_RANKS, io.StringIO("".join(line + "\n" for line in lines)), out)
    replies = out.getvalue().split("\n")
    assert replies.pop() == ""
    assert len(replies) == len(lines)
    for line, reply in zip(lines, replies):
        assert well_formed(line, reply), (line, reply)


INVALID_LINES = {
    # digits outside ASCII
    "INIT \u00b2": "ERR malformed INIT",
    "INIT \u0668": "ERR malformed INIT",
    "INIT \u0668 BATCH": "ERR malformed INIT",
    "L 3 1 \u0663": "ERR malformed query",
    "R \u0663 1 3": "ERR malformed query",
    "L 3 \u0661 3": "ERR malformed query",
    "BR 3 8 1 1 \u0663": "ERR malformed batch",
    "BL 3 \uff18 1 1 0": "ERR malformed batch",
    "BR 3 8 \u0661 1 0": "ERR malformed batch",
    # batch ids outside 0..n_eff-1, and rows of no ids
    "BR 3 10 1 2 0 10": "ERR batch id outside",
    "BL 3 10 1 2 -1 0": "ERR batch id outside",
    "BR 3 8 1 1 8": "ERR batch id outside",
    "BR 3 8 2 0": "ERR malformed batch",
    # descents: no ids, a count that does not match, ids outside 0..n-1
    "DR 3 0": "ERR malformed descent",
    "DL 3 -1": "ERR id count mismatch",
    "DR 3 2 0": "ERR id count mismatch",
    "DR 3 1 8": "ERR element id out of range",
    "DL 3 2 0 -1": "ERR element id out of range",
    "DR 8 1 0": "ERR element id out of range",
    "DR 3 1 \u0663": "ERR malformed query",
    # features the server does not have, or offered twice or out of order
    "INIT 8 DESCENT BATCH": "ERR malformed INIT",
    "INIT 8 BATCH BATCH": "ERR malformed INIT",
    "INIT 8 RESTART": "ERR malformed INIT",
}


@pytest.mark.parametrize("line", sorted(INVALID_LINES))
def test_serve_rejects_invalid_lines(line):
    out = io.StringIO()
    serve(FUZZ_RANKS, io.StringIO(line + "\n"), out)
    assert out.getvalue().startswith(INVALID_LINES[line])


@pytest.mark.parametrize("line", VALID_LINES)
def test_serve_answers_valid_lines(line):
    out = io.StringIO()
    serve(FUZZ_RANKS, io.StringIO(line + "\n"), out)
    reply = out.getvalue()
    assert not reply.startswith("ERR") and well_formed(line, reply.rstrip("\n"))


@pytest.mark.parametrize("line", ["DL 3 4 6 0 7 2", "DR 3 4 6 0 7 2", "DR 6 3 6 6 6", "DL 3 2 0 1"])
def test_serve_descent_ends_where_the_builtin_descent_does(line):
    op, u, _, *ids = line.split()
    out = io.StringIO()
    serve(FUZZ_RANKS, io.StringIO(line + "\n"), out)
    builtin = InstanceOracle(make_instance(FUZZ_N, 5))
    descent = builtin.left_descent if op == "DL" else builtin.right_descent
    assert out.getvalue() == f"{descent(int(u), np.array(ids, dtype=np.int64))}\n"


# replies the client must parse: answers, near misses and noise
REPLIES = st.one_of(
    st.sampled_from(["Y", "N", "y", "YN", "0", "3", "8", "03", "00", "-0", "-1", "+1", "1_0",
                     "3.0", "0x3", "\u0663", "\u00b2", "\uff13", "\ufffd", "ERR", "ERR busy",
                     "OK", "OK BATCH", "OK DESCENT", "OK BATCH DESCENT", "OK DESCENT BATCH",
                     "OK BATCH BATCH", "OK  BATCH", "OK RESTART", "9" * 5000, ""]),
    st.integers(-3, 12).map(str),
    st.text(st.sampled_from("YN"), max_size=10),
    st.text(max_size=6),
)


def parsed(parse, reply, *args):
    """``parse(reply, *args)``, or the type of the error it raised."""
    try:
        return parse(reply, *args)
    except (OracleProtocolError, OracleRejectedError) as exc:
        return type(exc)


@given(reply=REPLIES, size=st.integers(1, 9), offer=st.sampled_from(_OFFERS))
@settings(max_examples=500, deadline=None)
def test_reply_parsers_answer_only_well_formed_replies(reply, size, offer):
    # what any reply that is not an answer raises: ERR leaves the session
    # usable, anything else ends it (an INIT reply is never ERR here: the
    # client offers the next rung instead)
    error = OracleRejectedError if reply.startswith("ERR") else OracleProtocolError
    test = {"Y": True, "N": False}.get(reply, error)
    assert parsed(_test_answer, reply) == test
    batch = parsed(_batch_answer, reply, size)
    if len(reply) == size and set(reply) <= {"Y", "N"}:
        assert batch.dtype == bool and batch.tolist() == [c == "Y" for c in reply]
    else:
        assert batch == error
    positions = {str(position): position for position in range(size)}
    assert parsed(_descent_answer, reply, size) == positions.get(reply, error)
    agreed = {" ".join(("OK", *chosen)): frozenset(chosen)
              for k in range(len(offer) + 1) for chosen in itertools.combinations(offer, k)}
    assert parsed(_agreed_features, reply, offer) == agreed.get(reply, OracleProtocolError)
