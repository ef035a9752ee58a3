"""Tests for the external-process oracle and its wire protocol."""

import hashlib
import io
import logging
import os
import re
import shlex
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
    OracleError,
    OracleProtocolError,
    OracleRejectedError,
    OracleSpawnError,
    OracleTimeoutError,
    QueryLedger,
    make_instance,
    max_find,
    min_find,
    min_find_among,
    reversed_view,
    swap,
)
from gtorder import external
from gtorder.external import (
    _batch_answer,
    _full_session,
    _test_answer,
    _walk_answer,
)
from gtorder.harness import ExperimentConfig, render_csv, run_experiment
from gtorder.oracle import GroupTestOracle
from gtorder.oracle_server import serve
from gtorder.verify import _PerQueryOracle

FULL_INIT = "INIT {} BATCH WALK HEX"


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
                assert remote.test(u, V, True) == builtin.test(u, V, True)
                assert remote.test(u, V, False) == builtin.test(u, V, False)

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
                for left in (True, False):
                    assert np.array_equal(remote.test_batch(u, rows, n + 3, left),
                                          builtin.test_batch(u, rows, n + 3, left))
                for left in (True, False):
                    assert remote.walk(u, arr, left) == builtin.walk(u, arr, left)
            for find in (min_find, max_find):
                assert (find(remote, n, np.random.default_rng(3))
                        == find(builtin, n, np.random.default_rng(3)))

    def test_logs_each_exchange_at_debug_level(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="gtorder.external"):
            with ExternalOracle(reference_command(8, 0), 8) as remote:
                remote.test(3, [3, 5], False)
                remote.test_batch(3, np.array([[0, 1], [2, 3]]), 8, True)
        messages = [r.getMessage() for r in caplog.records
                    if r.name == "gtorder.external" and r.levelno == logging.DEBUG]
        assert len(messages) == 3
        # "INIT 8 BATCH WALK HEX\n" and "OK BATCH WALK HEX\n"
        assert re.fullmatch(r"INIT: 22 bytes out, 18 bytes in, \d+ us", messages[0])
        # "R 3 2 " and 16 hex digits, and "Y\n"
        assert re.fullmatch(r"R: 23 bytes out, 2 bytes in, \d+ us", messages[1])
        # "BL 3 8 2 2 " and 32 hex digits, and two answers
        assert re.fullmatch(r"BL: 44 bytes out, 3 bytes in, \d+ us", messages[2])

    def test_formats_no_record_without_debug(self, caplog, monkeypatch):
        def unguarded(*args, **kwargs):
            raise AssertionError("debug record made without DEBUG enabled")

        monkeypatch.setattr(external._log, "debug", unguarded)
        with caplog.at_level(logging.INFO, logger="gtorder.external"):
            with ExternalOracle(reference_command(8, 0), 8) as remote:
                assert remote.test(3, [3], False) is True
        assert not [r for r in caplog.records if r.name == "gtorder.external"]

    def test_empty_sets_answer_false(self):
        with ExternalOracle(reference_command(8, 0), 8) as remote:
            assert remote.test(3, [], True) is False
            assert remote.test(3, [], False) is False

    def test_out_of_range_id_raises_invalid_parameter(self):
        with ExternalOracle(reference_command(8, 0), 8) as remote:
            with pytest.raises(InvalidParameterError):
                remote.test(3, [8], False)
            # the connection stays usable after a rejected query
            assert remote.test(3, [3], False) is True

    def test_dummy_ids_past_32_bits_answer_as_dummies(self, tmp_path):
        # a HEX id is 32 bits wide; dummy slots past that still answer alike
        n, n_eff = 8, 2**33
        command, log = filtered_server(tmp_path, n, 0, "pass\n")
        builtin = InstanceOracle(make_instance(n, 0))
        rows = np.array([[0, 2**32], [2**32 + 5, n_eff - 1], [3, n]])
        with ExternalOracle(command, n) as remote:
            for left in (True, False):
                for u in range(n):
                    assert (remote.test_batch(u, rows, n_eff, left).tolist()
                            == builtin.test_batch(u, np.minimum(rows, n), n + 1, left).tolist())
        assert log.read_text().splitlines()[0] == "INIT 8 BATCH WALK HEX"

    def test_a_huge_padded_size_answers_like_the_per_row_path(self, tmp_path):
        # a hit table or a token spanning n_eff = 2**45 would not fit in memory
        rows = np.array([[0, 9]])
        builtin = InstanceOracle(make_instance(8, 0))
        with ExternalOracle(reference_command(8, 0), 8) as remote:
            for oracle in (builtin, reversed_view(builtin), remote):
                assert (oracle.test_batch(3, rows, 2**45, False).tolist()
                        == GroupTestOracle.test_batch(oracle, 3, rows, 2**45, False).tolist())
                assert (oracle.test_batch(3, rows, 2**45, True).tolist()
                        == GroupTestOracle.test_batch(oracle, 3, rows, 2**45, True).tolist())
        assert builtin.test_batch(3, rows, 2**45, False).tolist() == [True]

    @pytest.mark.parametrize("n, offer", [(2**31, FULL_INIT.format(2**31)),
                                          (2**31 + 1, f"INIT {2**31 + 1}")])
    def test_hex_is_offered_only_while_every_id_fits_32_bits(self, tmp_path, n, offer):
        init = tmp_path / "init.log"
        command = script_command(
            tmp_path,
            "import sys\n"
            f"open({str(init)!r}, 'w').write(sys.stdin.readline())\n"
            "print('OK', flush=True)\n"
            "sys.stdin.read()\n",
        )
        with ExternalOracle(command, n):
            pass
        assert init.read_text() == f"{offer}\n"

    def test_size_mismatch_at_init(self):
        with pytest.raises(OracleProtocolError):
            ExternalOracle(reference_command(16, 0), 8)


class TestProtocolFailures:
    def test_spawn_failure(self):
        with pytest.raises(OracleSpawnError):
            ExternalOracle(["/nonexistent/oracle-binary"], 8)

    @pytest.mark.parametrize("command", ["", [], "  ", "'x"])
    def test_empty_or_unparseable_command_is_rejected_before_spawning(self, command,
                                                                      monkeypatch):
        def no_spawn(*args, **kwargs):
            raise AssertionError("spawned a process")

        monkeypatch.setattr(external.subprocess, "Popen", no_spawn)
        with pytest.raises(InvalidParameterError) as info:
            ExternalOracle(command, 4)
        assert not isinstance(info.value, OracleError)

    @pytest.mark.parametrize("n, timeout", [
        (2.5, 10.0), (0, 10.0), (True, 10.0), ("8", 10.0),
        (8, float("nan")), (8, float("inf")), (8, 0.0), (8, -1.0), (8, "10"), (8, None)])
    def test_bad_size_or_timeout_is_rejected_before_spawning(self, n, timeout, monkeypatch):
        def no_spawn(*args, **kwargs):
            raise AssertionError("spawned a process")

        monkeypatch.setattr(external.subprocess, "Popen", no_spawn)
        with pytest.raises(InvalidParameterError) as info:
            ExternalOracle(reference_command(8, 0), n, timeout=timeout)
        assert not isinstance(info.value, OracleError)

    def test_any_handshake_failure_reaps_the_child(self, monkeypatch):
        spawned = []
        popen = external.subprocess.Popen

        def recording_popen(*args, **kwargs):
            spawned.append(popen(*args, **kwargs))
            return spawned[-1]

        def broken_exchange(self, line):
            raise RuntimeError("handshake broke")

        monkeypatch.setattr(external.subprocess, "Popen", recording_popen)
        monkeypatch.setattr(ExternalOracle, "_exchange", broken_exchange)
        with pytest.raises(RuntimeError, match="handshake broke"):
            ExternalOracle(reference_command(8, 0), 8)
        (proc,) = spawned
        assert proc.poll() is not None
        assert proc.stdin.closed and proc.stdout.closed

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
                remote.test(0, [1], True)
            # the session is over: a later well-formed reply is not trusted
            with pytest.raises(OracleProtocolError):
                remote.test(0, [1], True)

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
                remote.test(0, [1], True)

    def test_server_exit_is_a_protocol_error(self, tmp_path):
        command = script_command(
            tmp_path,
            "import sys\n"
            "print('OK', flush=True)\n"
            "sys.stdin.readline()\n",
        )
        with ExternalOracle(command, 8) as remote:
            with pytest.raises(OracleProtocolError):
                remote.test(0, [1], False)

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
                remote.test(0, [1], True)
            with pytest.raises(OracleProtocolError):
                remote.test(0, [1], True)
            with pytest.raises(OracleProtocolError):
                remote.test(0, [1], False)

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


# INIT hooks of servers with the basic session only: one answers the
# full offer with ERR, another answers it with a plain OK, and the third
# is the reference server as it was before the walk op, whose full
# session is BATCH DESCENT HEX and so rejects this client's offer
BASIC_HOOKS = {
    "err_then_ok": """
        if line.startswith("INIT ") and line.split()[2:]:
            print("ERR malformed INIT", flush=True)
            continue
    """,
    "plain_ok": """
        if line.startswith("INIT "):
            line = " ".join(line.split()[:2]) + "\\n"
    """,
    "pre_walk": """
        import gtorder.oracle_server
        gtorder.oracle_server._FULL_FEATURES = "BATCH DESCENT HEX"
    """,
}


class TestBatchOp:
    @pytest.mark.parametrize("server", sorted(BASIC_HOOKS))
    def test_fallback_asks_one_line_per_row(self, tmp_path, server):
        n, seed = 20, 3
        command, log = filtered_server(tmp_path, n, seed, BASIC_HOOKS[server])
        builtin = InstanceOracle(make_instance(n, seed))
        rng = np.random.default_rng(4)
        rows_sent = 0
        with ExternalOracle(command, n) as remote:
            for _ in range(20):
                u = int(rng.integers(n))
                n_eff = n + int(rng.integers(0, 4))
                rows = rng.integers(0, n_eff, size=(int(rng.integers(1, 6)), 3))
                for left in (True, False):
                    assert (remote.test_batch(u, rows, n_eff, left).tolist()
                            == builtin.test_batch(u, rows, n_eff, left).tolist())
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
                remote.test_batch(3, rows, 8, False)
            with pytest.raises(OracleProtocolError):
                remote.test(3, [3], False)
            with pytest.raises(OracleProtocolError):
                remote.test_batch(3, rows, 8, True)

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
                remote.test_batch(3, rows, 8, False)
            assert (remote.test_batch(4, rows, 8, False).tolist()
                    == builtin.test_batch(4, rows, 8, False).tolist())
            assert remote.test(3, [5], True) == builtin.test(3, [5], True)
        assert ops_received(log) == ["INIT", "BR", "BR", "L"]

    # the client offers the full session, then the basic one after ERR;
    # only OK, or OK BATCH WALK HEX to the full offer, agrees a session
    @pytest.mark.parametrize("replies", [
        ("MAYBE",), ("ERR no", "MAYBE"), ("OK BATCH OK",), ("OK WALK BATCH",),
        ("OK BATCH BATCH",), ("OK HEX BATCH",), ("OK BATCH",), ("OK BATCH WALK",),
        ("OK HEX",), ("OK WALK BATCH HEX",), ("OK  BATCH WALK HEX",),
        ("ERR no", "OK BATCH WALK HEX"), ("ERR no", "OK HEX"), ("ERR no", "ERR no"),
        ("OK BATCH DESCENT HEX",)])
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
            "print('OK BATCH WALK HEX', flush=True)\n"
            "time.sleep(60)\n",
        )
        rows = np.full((2000, 50), 999)
        with ExternalOracle(command, 1000, timeout=0.5) as remote:
            with pytest.raises(OracleTimeoutError):
                remote.test_batch(3, rows, 1000, False)
            with pytest.raises(OracleProtocolError):
                remote.test(3, [3], False)


# each kind of server, its INIT hook, and whether the session should be full
SERVERS = {
    "full": ("pass\n", True),
    **{f"basic_{name}": (hook, False) for name, hook in BASIC_HOOKS.items()},
}


def id_tokens_fit(line, hex_ids):
    """True when a query line carries its ids as one HEX token (8 hex
    digits per id, none for no ids) or as one decimal token per id."""
    parts = line.split()
    batch = parts[0] in ("BL", "BR")
    count = int(parts[3]) * int(parts[4]) if batch else int(parts[2])
    tokens = parts[5:] if batch else parts[3:]
    if hex_ids:
        return len(tokens) == (count > 0) and len("".join(tokens)) == 8 * count
    return len(tokens) == count and all(tok.isdigit() for tok in tokens)


class TestWalkOp:
    @pytest.mark.parametrize("server", sorted(SERVERS))
    def test_every_server_gives_the_builtin_answers(self, tmp_path, server):
        hook, full = SERVERS[server]
        n, seed = 40, 6
        command, log = filtered_server(tmp_path, n, seed, hook)
        builtin = InstanceOracle(make_instance(n, seed))
        # each test of a run or walk asked one by one and counted: the
        # lines a basic session sends for it
        asked = CountingOracle(builtin)
        per_level = _PerQueryOracle(asked)
        rng = np.random.default_rng(9)
        walks = endless = rows_sent = 0
        with ExternalOracle(command, n) as remote:
            # seed 3 starts above the extreme, so a full session sends the
            # run's walk line alone; 25 starts min_find at the minimum and 9
            # max_find at the maximum, so the empty walk reply is followed
            # by the walk's first test
            for find, start, run_ops in ((min_find, 3, ["WR"]), (max_find, 3, ["WL"]),
                                         (min_find, 25, ["WR", "R"]), (max_find, 9, ["WL", "L"])):
                sent = len(ops_received(log))
                runs = [find(oracle, n, np.random.default_rng(start))
                        for oracle in (remote, builtin, per_level)]
                assert runs[0] == runs[1] == runs[2]
                assert (runs[0].iterations == 0) == (len(run_ops) == 2)
                if full:
                    assert ops_received(log)[sent:] == run_ops
                walks += 1
                endless += not runs[0].iterations
            for m in (1, 2, 5, 8, 39):
                u, arr = int(rng.integers(n)), rng.permutation(n)[:m]
                for left in (True, False):
                    counting = [CountingOracle(oracle) for oracle in (remote, builtin)]
                    ends = [oracle.walk(u, arr, left) for oracle in counting]
                    assert ends[0] == ends[1] == per_level.walk(u, arr, left)
                    assert counting[0].ledger == counting[1].ledger
                    walks += 1
                    endless += not ends[0]
            rows = rng.integers(0, n + 2, size=(3, 4))
            for left in (True, False):
                assert (remote.test_batch(3, rows, n + 2, left).tolist()
                        == builtin.test_batch(3, rows, n + 2, left).tolist())
                rows_sent += len(rows)
        ops = ops_received(log)
        inits = [line for line in log.read_text().splitlines() if line.startswith("INIT")]
        # the basic INIT follows only an ERR to the full one
        assert inits == [FULL_INIT.format(n)] + [f"INIT {n}"] * (
            server in ("basic_err_then_ok", "basic_pre_walk"))
        lines = [line for line in log.read_text().splitlines() if not line.startswith("INIT")]
        assert all(id_tokens_fit(line, full) for line in lines)
        queries = [op for op in ops if op != "INIT"]
        if full:
            # one line per walk, a run's or an explicit one over one id
            # or more, one more per walk with no end (its first test), and
            # one per batch; none per round, level or row
            assert queries.count("L") + queries.count("R") == endless
            assert queries.count("WL") + queries.count("WR") == walks
            assert queries.count("BL") == queries.count("BR") == 1
            assert len(queries) == walks + endless + 2
        else:
            assert not {"BL", "BR", "WL", "WR"} & set(queries)
            assert queries.count("L") + queries.count("R") == asked.ledger.total + rows_sent

    @pytest.mark.parametrize("server", ["full", "basic_plain_ok"])
    def test_a_repeated_id_raises_as_in_process(self, tmp_path, server):
        hook, full = SERVERS[server]
        n, seed = 300, 7
        command, log = filtered_server(tmp_path, n, seed, hook)
        instance = make_instance(n, seed)
        low = instance.element_with_rank(1)
        elements = np.append(np.arange(n), low)  # a twin of the minimum
        with ExternalOracle(command, n) as remote:
            errors = []
            for oracle in (InstanceOracle(instance), remote):
                with pytest.raises(InvalidParameterError) as info:
                    min_find_among(oracle, elements, np.random.default_rng(1))
                errors.append((info.type, str(info.value)))
        assert errors[0] == errors[1] == (InvalidParameterError,
                                          f"the collection repeats ids [{low}]")
        queries = [line for line in log.read_text().splitlines() if not line.startswith("INIT")]
        if full:
            # one walk that breaks at the twin, then its first test, which
            # tells the break from a start no id beats
            assert [line.split()[0] for line in queries] == ["WR", "R"]
        else:
            # the rounds up to the twin, not n + 1 of them
            assert len(queries) < 20 * ((n - 1).bit_length() + 1)

    @pytest.mark.parametrize("reply", ["8", "03", "0  1", "1 0", "0 0", "2 1", "0 8", "0 1 1",
                                       "0 Y", "0 N", "Y", "N", "-0", "-1", "+3", "3.0", "0x3",
                                       "1\t2", "1,2", "\u0663", "OK"])
    def test_malformed_walk_reply_ends_the_session(self, tmp_path, reply):
        command, _ = filtered_server(tmp_path, 8, 0, f"""
            if line.startswith("W"):
                print({reply!r}, flush=True)
                continue
        """)
        arr = np.array([6, 1, 7, 0, 2, 5, 3, 4])
        with ExternalOracle(command, 8) as remote:
            with pytest.raises(OracleProtocolError):
                remote.walk(3, arr, False)
            with pytest.raises(OracleProtocolError):
                remote.test(3, [3], False)

    def test_err_reply_to_a_walk_leaves_the_session_usable(self, tmp_path):
        command, log = filtered_server(tmp_path, 8, 0, """
            if line.startswith("WR 3 "):
                print("ERR busy", flush=True)
                continue
        """)
        builtin = InstanceOracle(make_instance(8, 0))
        arr = np.array([6, 1, 7, 0, 2, 5, 3, 4])
        with ExternalOracle(command, 8) as remote:
            with pytest.raises(OracleRejectedError):
                remote.walk(3, arr, False)
            for u, left, ids in ((4, False, arr), (3, True, arr), (3, True, arr[:1])):
                assert remote.walk(u, ids, left) == builtin.walk(u, ids, left)
        # a walk over one id is a line too, and one whose reply has no end
        # asks its first test after it
        assert ops_received(log) == ["INIT", "WR", "WR", "WL", "WL", "L"]

    # swap's descent has no op of its own: each session asks its levels as
    # single tests, the full one with HEX ids
    @pytest.mark.parametrize("view", ["full", "basic", "reversed"])
    def test_swap_asks_its_levels_as_single_tests(self, tmp_path, view):
        n, seed = 40, 6
        hook = BASIC_HOOKS["plain_ok"] if view == "basic" else "pass\n"
        command, log = filtered_server(tmp_path, n, seed, hook)
        builtin = InstanceOracle(make_instance(n, seed))
        ids = np.random.default_rng(5).permutation(n)
        levels = 0
        with ExternalOracle(command, n) as remote:
            views = (remote, builtin)
            if view == "reversed":
                views = tuple(map(reversed_view, views))
            for m in (1, 2, 5, 8, 33, 39):
                # x among the candidates keeps the precondition: something lies below it
                A, x = ids[:m], int(ids[m // 2])
                runs = []
                for oracle in views:
                    counting, rng = CountingOracle(oracle), np.random.default_rng(m)
                    runs.append((swap(counting, A, x, rng), rng.bit_generator.state,
                                 counting.ledger))
                assert runs[0] == runs[1]
                assert runs[0][2] == QueryLedger(0, (m - 1).bit_length())
                levels += (m - 1).bit_length()
        lines = [line for line in log.read_text().splitlines() if not line.startswith("INIT")]
        assert len(lines) == levels
        assert {line.split()[0] for line in lines} == {"L" if view == "reversed" else "R"}
        assert all(id_tokens_fit(line, view != "basic") for line in lines)


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
        "zero_d_array": (3, np.array(5)),
        "two_d_array": (3, np.array([[1, 2], [3, 4]])),
        "wide_two_d_array": (3, np.arange(100).reshape(10, 10) % 8),
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

    # the server's INIT hook, and the line it receives for test(1, [1], False)
    HOOK, ONE_QUERY = "pass\n", "R 1 1 01000000"

    @pytest.fixture(scope="class")
    def oracles(self, tmp_path_factory):
        command, _ = filtered_server(tmp_path_factory.mktemp("server"), self.N, 11, self.HOOK)
        with ExternalOracle(command, self.N) as remote:
            yield remote, InstanceOracle(make_instance(self.N, 11))

    @pytest.mark.parametrize("case", sorted(SINGLE))
    def test_single_query(self, oracles, case):
        remote, builtin = oracles
        u, V = self.SINGLE[case]
        for left in (True, False):
            got = outcome(remote.test, u, V, left)
            assert got in (outcome(builtin.test, u, V, left), "invalid")

    @pytest.mark.parametrize("case", sorted(BATCH))
    def test_batch(self, oracles, case):
        remote, builtin = oracles
        u, rows, n_eff = self.BATCH[case]
        for left in (True, False):
            got = outcome(remote.test_batch, u, np.array(rows), n_eff, left)
            assert got in (outcome(builtin.test_batch, u, np.array(rows), n_eff, left),
                           "invalid")

    @pytest.mark.parametrize("case", sorted(DESCENT))
    def test_walk(self, oracles, case):
        remote, builtin = oracles
        u, arr = self.DESCENT[case]
        for left in (True, False):
            assert (outcome(remote.walk, u, np.array(arr), left)
                    == outcome(builtin.walk, u, np.array(arr), left))

    def test_bools_never_reach_the_pipe(self, tmp_path):
        # nor do floats, nor id arrays that are not 1-D
        command, log = filtered_server(tmp_path, self.N, 11, self.HOOK)
        rows, arr = np.array([[0, 1], [2, 3]]), np.array([0, 1, 2])
        calls = [("test", 5, [True], False), ("test", True, [3], False),
                 ("test", 5, np.array([True]), True), ("test", 5, [1, np.bool_(False)], True),
                 ("test", 5, [1.0], False), ("test", 5, np.array([1.0]), True),
                 ("test", 1.0, [1], False), ("test", 5, [1, 1.5], True),
                 ("test", 5, np.array(3), False),
                 ("test", 5, np.array([[1, 2], [3, 4]]), True),
                 ("test", 5, np.arange(100).reshape(10, 10) % 8, False),
                 ("test_batch", True, rows, self.N, False),
                 ("test_batch", 3, rows.astype(bool), self.N, True),
                 ("test_batch", 3, rows.astype(float), self.N, False),
                 ("walk", True, arr, False),
                 ("walk", 3, arr.astype(bool), True),
                 ("walk", 3, arr.astype(float), True)]
        with ExternalOracle(command, self.N) as remote:
            remote.test(1, [1], False)  # the text of id 1 is now cached
            for name, *args in calls:
                with pytest.raises(InvalidParameterError):
                    getattr(remote, name)(*args)
        assert log.read_text().splitlines()[1:] == [self.ONE_QUERY]
        assert ops_received(log) == ["INIT", "R"]

    @pytest.mark.parametrize("V", [[-1], [8], [3, 8], [10**30], [np.int64(-1)], np.array([8]),
                                   np.array([-1, 2], dtype=np.int32)])
    def test_out_of_range_single_test_is_rejected_and_the_session_goes_on(self, oracles, V):
        remote, builtin = oracles
        for left in (True, False):
            with pytest.raises(OracleRejectedError):
                remote.test(3, V, left)
            with pytest.raises(OracleRejectedError):
                remote.test(self.N, [3], left)
            assert remote.test(3, [5, 0], left) == builtin.test(3, [5, 0], left)

    def test_bad_batch_and_walk_ids_are_rejected_before_any_line(self, tmp_path):
        # the harness turns only an OracleError into an error row, so a
        # bad batch or walk id must be one, as a bad single-test id is
        command, log = filtered_server(tmp_path, self.N, 11, self.HOOK)
        calls = [("test_batch", 3, [[9]], self.N, False), ("test_batch", 3, [[0, -1]], 10, True),
                 ("test_batch", 3, [[0, 1], [10, 2]], 10, False),
                 ("test_batch", 3, np.array([[0, 2**40]]), 2**40, True),
                 ("test_batch", -1, [[0, 1]], 10, False), ("test_batch", 8, [[0, 1]], 10, True),
                 ("walk", 3, [0, 9], False), ("walk", 3, [0, -1], True),
                 ("walk", 3, [8, 0, 1], False),
                 ("walk", -1, [0, 1], True), ("walk", 8, [0, 1], False)]
        with ExternalOracle(command, self.N) as remote:
            for name, u, ids, *rest in calls:
                with pytest.raises(OracleRejectedError):
                    getattr(remote, name)(u, np.array(ids), *rest)
                assert remote.test(1, [1], False) is True
        assert log.read_text().splitlines()[1:] == [self.ONE_QUERY] * len(calls)

    def test_queries_take_keyword_arguments(self, oracles):
        remote, builtin = oracles
        rows, arr = np.array([[0, 1], [2, 9]]), np.array([5, 0, 7])
        for oracle in (remote, builtin):
            assert oracle.test(u=3, V=[1, 5], left=False) == builtin.test(3, [1, 5], False)
            assert (oracle.test_batch(u=3, rows=rows, n_eff=10, left=True).tolist()
                    == builtin.test_batch(3, rows, 10, True).tolist())
            assert oracle.walk(u=3, arr=arr, left=False) == builtin.walk(3, arr, False)

    def test_an_err_reply_inside_a_batch_or_walk_is_raised_unchanged(self, tmp_path):
        # a basic session asks each row or level as a single test
        hook = textwrap.dedent(self.HOOK) + textwrap.dedent("""
            if line.startswith(("R 3 ", "BR 3 ", "WR 3 ")):
                print("ERR busy", flush=True)
                continue
        """)
        command, _ = filtered_server(tmp_path, self.N, 11, hook)
        with ExternalOracle(command, self.N) as remote:
            for query in (lambda: remote.test_batch(3, np.array([[0, 1]]), 8, False),
                          lambda: remote.walk(3, np.array([0, 1, 2]), False)):
                with pytest.raises(OracleRejectedError, match="busy") as excinfo:
                    query()
                # raised where the reply was parsed, not re-raised above it
                assert excinfo.traceback[-1].name.endswith("_answer")
                assert remote.test(1, [1], False) is True

    @pytest.mark.parametrize("V", [[], set(), np.array([], dtype=np.int64), np.array([])])
    def test_empty_set_answers_false(self, oracles, V):
        remote, _ = oracles
        assert remote.test(3, V, True) is False
        assert remote.test(3, V, False) is False
        with pytest.raises(OracleRejectedError):
            remote.test(-1, V, False)

    def test_empty_set_sends_no_line(self, tmp_path):
        command, log = filtered_server(tmp_path, self.N, 11, self.HOOK)
        with ExternalOracle(command, self.N) as remote:
            counting = CountingOracle(remote)
            assert counting.test(3, [], False) is False and counting.test(3, [], True) is False
            assert counting.ledger.total == 2
            remote.test(1, [1], False)
        assert log.read_text().splitlines()[1:] == [self.ONE_QUERY]

    def test_negative_id_is_never_read_as_another(self, oracles):
        remote, builtin = oracles
        # rank of the last id, so an id read modulo n would answer Y
        u = int(np.argsort(builtin.instance.ranks)[-1])
        for V in ([-1], [np.int64(-1)], np.array([-1])):
            with pytest.raises(InvalidParameterError):
                remote.test(u, V, False)
        with pytest.raises(InvalidParameterError):
            remote.test_batch(u, np.array([[-1, -1]]), self.N, False)
        assert remote.test(u, [self.N - 1], False) == builtin.test(u, [self.N - 1], False)



class TestIdSafetyBasic(TestIdSafety):
    """The same cases in a basic session, whose ids are decimal."""

    HOOK, ONE_QUERY = BASIC_HOOKS["plain_ok"], "R 1 1 1"


# fixed-instance reports at n = 150, seed 11, and the sha256 of each
# report's CSV, which the basic and the full session must both give
PARITY_N, PARITY_SEED = 150, 11
PARITY_REPORTS = {
    "select_low_target": (dict(algorithm="select", k=30, delta=0.8, epsilon=0.3, trials=1),
                          "d18413673b03d89093069abc83aa9fcc9a53a228c0a6f5455cc428938f4414d8"),
    "select_high_target": (dict(algorithm="select", k=120, delta=0.8, epsilon=0.3, trials=1),
                           "ebb494da88fc93c243995a883203cd20cc8b8a76223c9d941ebb19653f99e187"),
    "testle": (dict(algorithm="testle", r=60, delta=0.5, epsilon=0.2, trials=3),
               "60e089b378e673b8c974549bad11356c5bfb3fd8d2e308f20cd9edd14467b0fd"),
    "rank": (dict(algorithm="rank", delta=0.4, epsilon=0.2, trials=1),
             "a88462456ca8f115769615948fae80928e722a68a8380a2cafec2d20349c222b"),
    "minfind": (dict(algorithm="minfind", trials=3),
                "c8db90d86867ba343f8d4fde6e30ee25c71e37e2078f09e8d02d7b9506533685"),
    "maxfind": (dict(algorithm="maxfind", trials=3),
                "f62dad1e68241fca71d0a1f531f8e7a793faaa42b503ec2ffb599db34c8a0795"),
}


@pytest.mark.parametrize("name", sorted(PARITY_REPORTS))
def test_basic_and_full_sessions_give_the_same_reports(tmp_path, name):
    fields, digest = PARITY_REPORTS[name]
    full_init = FULL_INIT.format(PARITY_N)
    # the reference serve(), and the same behind a server that refuses
    # the full session; each run spawns one server
    for hook, inits in (("pass\n", [full_init]),
                        (BASIC_HOOKS["err_then_ok"], [full_init, f"INIT {PARITY_N}"])):
        command, log = filtered_server(tmp_path, PARITY_N, PARITY_SEED, hook)
        config = ExperimentConfig(n=PARITY_N, seed=PARITY_SEED, fixed_instance=True,
                                  oracle="cmd:" + shlex.join(command), **fields)
        reports, summary = run_experiment(config)
        assert summary["errors"] == 0
        csv = render_csv(config, reports).encode("ascii")
        assert hashlib.sha256(csv).hexdigest() == digest
        assert [line for line in log.read_text().splitlines()
                if line.startswith("INIT")] == inits


# valid lines for a universe of 8 ids, and tokens to mutate them with
FUZZ_N = 8
FUZZ_RANKS = make_instance(FUZZ_N, 5).ranks.tolist()
HEX_INIT = FULL_INIT.format(FUZZ_N)
# the single tests both sessions have, and the ops only a full session
# has, written here with decimal ids
BASIC_LINES = ["L 3 2 0 7", "R 3 2 0 7", "L 5 0"]
FULL_OPS = ["BL 3 10 2 3 0 1 8 9 9 9", "BR 3 10 2 3 0 1 8 9 9 9", "BR 0 8 1 1 0",
            "WL 3 4 6 0 7 2", "WR 3 4 6 0 7 2", "WR 3 1 5", "WL 3 3 3 3 3", "WR 7 3 0 5 1"]
VALID_LINES = ["INIT 8", HEX_INIT, *BASIC_LINES]


def hexed(line):
    """A decimal query line with its ids as one HEX token."""
    parts = line.split()
    head = 5 if parts[0] in ("BL", "BR") else 3
    ids = [int(tok) for tok in parts[head:]]
    return " ".join(parts[:head] + ([np.array(ids).astype("<u4").tobytes().hex()] if ids else []))


# valid lines of a full session: dummies past 2n, upper-case digits
HEX_VALID_LINES = [hexed(line) for line in BASIC_LINES + FULL_OPS] + [
    hexed("BR 3 100 2 2 0 99 50 1"), "BR 3 16 1 1 0A000000"]
TOKENS = st.one_of(
    st.sampled_from(["\u00b2", "\u0663", "\uff11", "-1", "+1", "1_0", "0x1", "1e3", "08",
                     "9" * 5000, "BATCH", "WALK", "DESCENT", "HEX", "INIT", "L", "R", "BL", "BR", "DL",
                     "DR", "DTL", "DTR", "WL", "WR", "Y", "\x00", "0000000", "000000000",
                     "0000000g",
                     "0000000\u0663",
                     "00000000", "07000000", "08000000", "0a000000", "ffffffff", "0000000A",
                     "0000000000000000", "0" * 8000]),
    st.integers(-3, 12).map(str),
    st.integers(0, 10**30).map(str),
    st.text(st.characters(blacklist_characters="\n"), min_size=1, max_size=4),
)


@st.composite
def mutated_lines(draw):
    tokens = draw(st.sampled_from(VALID_LINES + FULL_OPS + HEX_VALID_LINES)).split()
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


def well_formed(line, reply, full=False):
    """True when ``reply`` is ERR or an answer of the right shape to a line
    the session has: in a full session any op with one HEX token of ids,
    in a basic one a single test."""
    if reply.startswith("ERR "):
        return True
    parts = line.split()
    if parts[0] == "INIT":
        # only the basic and the full INIT are agreed
        return parts[2:] in ([], HEX_INIT.split()[2:]) and reply == " ".join(("OK", *parts[2:]))
    if not full and parts[0] not in ("L", "R"):
        return False
    if full and not id_tokens_fit(line, True):
        return False
    if parts[0] in ("L", "R"):
        return reply in ("Y", "N")
    if parts[0] in ("BL", "BR"):
        return reply != "" and set(reply) <= {"Y", "N"} and len(reply) == int(parts[3])
    if parts[0] in ("WL", "WR"):
        ends = reply.split(" ") if reply else []
        return (all(end.isdigit() and str(int(end)) == end for end in ends)
                and [int(end) for end in ends] == sorted(set(map(int, ends)))
                and all(int(end) < int(parts[2]) for end in ends))
    return False


@given(opening=st.sampled_from([[], [HEX_INIT]]), lines=st.lists(st.one_of(
    mutated_lines(), st.text(st.characters(blacklist_characters="\n"), max_size=30)),
    min_size=1, max_size=8))
@example(opening=[], lines=["INIT \u00b2"])
@example(opening=[HEX_INIT], lines=["R 3 1 0000000\u0663", "INIT 8", "R 3 1 00000000"])
@example(opening=[HEX_INIT], lines=["INIT 8 BATCH WALK", "BR 3 8 1 1 00000000"])
@settings(max_examples=400, deadline=None)
def test_serve_answers_every_line_and_never_raises(opening, lines):
    lines = opening + lines
    out = io.StringIO()
    serve(FUZZ_RANKS, io.StringIO("".join(line + "\n" for line in lines)), out)
    replies = out.getvalue().split("\n")
    assert replies.pop() == ""
    assert len(replies) == len(lines)
    full = False  # each accepted INIT starts a basic or a full session
    for line, reply in zip(lines, replies):
        assert well_formed(line, reply, full), (line, reply)
        if line.split()[:1] == ["INIT"] and reply.startswith("OK"):
            full = len(line.split()) > 2


# lines a basic session (the one before any INIT) must reject
INVALID_LINES = {
    # digits outside ASCII
    "INIT \u00b2": "ERR malformed INIT",
    "INIT \u0668": "ERR malformed INIT",
    "INIT \u0668 BATCH WALK HEX": "ERR malformed INIT",
    "L 3 1 \u0663": "ERR malformed query",
    "R \u0663 1 3": "ERR malformed query",
    "L 3 \u0661 3": "ERR malformed query",
    # a count that does not match, ids outside 0..n-1
    "L 3 -1": "ERR id count mismatch",
    "R 3 2 0": "ERR id count mismatch",
    "R 3 1 8": "ERR element id out of range",
    "L 3 2 0 -1": "ERR element id out of range",
    "R 8 1 0": "ERR element id out of range",
    # ASCII digits only, with no sign but a leading "-": no "+" and no "_"
    "R 3 1 0_1": "ERR malformed query",
    "R 3 1 0_8": "ERR malformed query",
    "R 3 1 +1": "ERR malformed query",
    "L +3 1 0": "ERR malformed query",
    "L 3 +1 0": "ERR malformed query",
    # batches and walks, in decimal or HEX, need a full session
    "BR 3 8 1 1 0": "ERR BR needs a full session",
    "BL 3 10 1 2 -1 0": "ERR BL needs a full session",
    "WR 3 4 6 0 7 2": "ERR WR needs a full session",
    "WL 3 1 00000000": "ERR WL needs a full session",
    # a lone descent and a descent with one test are no ops of either session
    "DR 3 4 6 0 7 2": "ERR unknown op DR",
    "DL 3 0": "ERR unknown op DL",
    "DTR 3 4 6 0 7 2": "ERR unknown op DTR",
    "DTL 3 1 00000000": "ERR unknown op DTL",
    "BR 3 8 1 1 00000000": "ERR BR needs a full session",
    # only the basic and the full INIT: no partial, reordered, repeated
    # or unknown feature list
    "INIT 8 BATCH": "ERR malformed INIT",
    "INIT 8 BATCH WALK": "ERR malformed INIT",
    "INIT 8 WALK": "ERR malformed INIT",
    "INIT 8 HEX": "ERR malformed INIT",
    "INIT 8 WALK BATCH HEX": "ERR malformed INIT",
    "INIT 8 BATCH WALK HEX HEX": "ERR malformed INIT",
    "INIT 8 WALK BATCH": "ERR malformed INIT",
    # the full offer from before the walk op
    "INIT 8 BATCH DESCENT HEX": "ERR malformed INIT",
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


# lines a full session must reject
HEX_INVALID_LINES = {
    # odd length, a length that is not whole ids, digits that are not hex
    # or not ASCII
    "R 3 1 0000000": "ERR malformed query",
    "R 3 1 000000000": "ERR malformed query",
    "R 3 1 0000000000": "ERR malformed query",
    "R 3 1 0000000g": "ERR malformed query",
    "R 3 1 0x000000": "ERR malformed query",
    "R 3 1 0000000\u0663": "ERR malformed query",
    "R 3 1 \uff10\uff10\uff10\uff10\uff10\uff10\uff10\uff10": "ERR malformed query",
    "WL 3 1 000000\u00b2\u00b2": "ERR malformed query",
    "BR 3 8 1 1 0000000": "ERR malformed batch",
    "BL 3 \uff18 1 1 00000000": "ERR malformed batch",
    "BR 3 8 \u0661 1 00000000": "ERR malformed batch",
    # two id tokens, decimal ids
    "R 3 2 00000000 07000000": "ERR malformed query",
    "R 3 2 0 7": "ERR malformed query",
    "BR 3 8 1 1 0": "ERR malformed batch",
    "BR 3 8 1 2 00000000 01000000": "ERR malformed batch",
    # whitespace inside what would otherwise be one id, which
    # bytes.fromhex skips between bytes
    "R 3 1 0000 0000": "ERR malformed query",
    "WR 3 1 0000\t0000": "ERR malformed query",
    "BR 3 8 1 1 0000\x0b0000": "ERR malformed batch",
    # ASCII digits only, with no sign but a leading "-": no "+" and no "_"
    "R +3 1 01000000": "ERR malformed query",
    "WR 3 0_1 00000000": "ERR malformed query",
    "BR 3 0_8 1 1 00000000": "ERR malformed batch",
    "BR +1 8 1 1 00000000": "ERR malformed batch",
    "BL 3 8 +1 1 00000000": "ERR malformed batch",
    # whole ids, but not as many as declared
    "R 3 2 00000000": "ERR id count mismatch",
    "L 3 0 00000000": "ERR id count mismatch",
    "WR 3 1": "ERR id count mismatch",
    "WL 3 2 00000000": "ERR id count mismatch",
    "R 3 -1": "ERR id count mismatch",
    "BR 3 8 1 2 00000000": "ERR id count mismatch",
    # m = 0 for a walk, rows or width 0
    "WR 3 0": "ERR malformed walk",
    "WL 3 0": "ERR malformed walk",
    "WR 3 2 00000000": "ERR id count mismatch",
    "WL 3 1 08000000": "ERR element id out of range",
    "WR 8 1 00000000": "ERR element id out of range",
    "BR 3 8 0 1": "ERR malformed batch",
    "BR 3 8 1 0": "ERR malformed batch",
    "BL 3 8 0 0": "ERR malformed batch",
    # ids outside 0..n-1, batch ids outside 0..n_eff-1
    "R 3 1 08000000": "ERR element id out of range",
    "WR 3 1 08000000": "ERR element id out of range",
    "WL 3 2 00000000ffffffff": "ERR element id out of range",
    "R 8 1 00000000": "ERR element id out of range",
    "WL 8 1 00000000": "ERR element id out of range",
    "R -1 1 00000000": "ERR element id out of range",
    "BR 3 10 1 2 000000000a000000": "ERR batch id outside",
    "BL 3 8 1 1 08000000": "ERR batch id outside",
    "BR 3 10 1 1 ffffffff": "ERR batch id outside",
    "BR 8 10 1 1 00000000": "ERR element id out of range",
    # a lone descent and a descent with one test are no ops of either session
    "DR 3 1 00000000": "ERR unknown op DR",
    "DL 3 4 06000000000000000700000002000000": "ERR unknown op DL",
    "DTR 3 1 00000000": "ERR unknown op DTR",
    "DTL 3 4 06000000000000000700000002000000": "ERR unknown op DTL",
}


def served(*lines, ranks=FUZZ_RANKS):
    """The replies of one in-process session to ``lines``."""
    out = io.StringIO()
    serve(ranks, io.StringIO("".join(line + "\n" for line in lines)), out)
    return out.getvalue().splitlines()


@pytest.mark.parametrize("line", sorted(HEX_INVALID_LINES))
def test_serve_rejects_invalid_hex_lines(line):
    agreed, reply = served(HEX_INIT, line)
    assert agreed == "OK BATCH WALK HEX"
    assert reply.startswith(HEX_INVALID_LINES[line])


@pytest.mark.parametrize("line", HEX_VALID_LINES)
def test_serve_answers_valid_hex_lines(line):
    _, reply = served(HEX_INIT, line)
    assert not reply.startswith("ERR") and well_formed(line, reply, True)


def test_only_an_accepted_init_switches_the_id_encoding():
    line, answer = "R 3 1 07000000", served("R 3 1 7")[0]
    # after a basic INIT the token is the decimal id 7000000, and a batch
    # is an op the session does not have
    assert served(HEX_INIT, line, "INIT 8", line, "R 3 1 7", "BR 3 8 1 1 07000000")[1:] == [
        answer, "OK", "ERR element id out of range", answer, "ERR BR needs a full session"]
    # a rejected INIT leaves the session as it was
    assert served(HEX_INIT, "INIT 9", "INIT 8 BATCH", line)[1:] == [
        "ERR size mismatch: serving 8", "ERR malformed INIT", answer]


def test_each_accepted_init_starts_a_session_of_its_kind():
    # full -> basic -> full: each session takes the ops and the id
    # encoding of its own INIT, whatever session came before it
    test, batch, walk = "R 3 2 0 7", "BR 3 10 2 3 0 1 8 9 9 9", "WL 3 4 6 0 7 2"
    full_lines = [hexed(test), hexed(batch), hexed(walk), test]
    full = served(HEX_INIT, *full_lines)
    answer = full[1]
    assert answer in ("Y", "N") and not full[2].startswith("ERR")
    assert not full[3].startswith("ERR") and full[4] == "ERR malformed query"
    basic = served(HEX_INIT, *full_lines, "INIT 8", test, batch, walk, hexed(test))
    assert basic[:5] == full
    assert basic[5:] == ["OK", answer, "ERR BR needs a full session",
                         "ERR WL needs a full session",
                         "ERR id count mismatch: declared 2, got 1"]
    again = served(HEX_INIT, *full_lines, "INIT 8", test, batch, walk, hexed(test),
                   HEX_INIT, *full_lines)
    assert again[:10] == basic and again[10:] == full


# ids in range, dummies within and past 2n, and ids past every range
ID_VALUES = st.one_of(st.integers(0, FUZZ_N + 5), st.integers(2 * FUZZ_N, 4 * FUZZ_N),
                      st.just(2**32 - 1))


@st.composite
def decimal_queries(draw):
    """A query line of any op with decimal ids, some of them invalid."""
    op = draw(st.sampled_from(["L", "R", "WL", "WR", "BL", "BR"]))
    u = draw(st.integers(0, FUZZ_N))
    if op in ("BL", "BR"):
        rows, width = draw(st.integers(0, 4)), draw(st.integers(0, 4))
        head = [u, draw(st.sampled_from([FUZZ_N, FUZZ_N + 2, 4 * FUZZ_N + 1])), rows, width]
        ids = draw(st.lists(ID_VALUES, min_size=rows * width, max_size=rows * width))
    else:
        ids = draw(st.lists(ID_VALUES, max_size=9))
        head = [u, len(ids)]
    return " ".join(map(str, [op, *head, *ids]))


def builtin_reply(line):
    """The builtin oracle's answer to a decimal query line, in the reply's
    text, or None when it rejects the line (or a server must: a batch
    has at least one row and one column)."""
    op, *tokens = line.split()
    numbers = list(map(int, tokens))
    oracle = InstanceOracle(make_instance(FUZZ_N, 5))
    left = op[-1] == "L"
    try:
        if op in ("BL", "BR"):
            u, n_eff, rows, width, *ids = numbers
            if not (rows and width):
                return None
            hits = oracle.test_batch(u, np.reshape(ids, (rows, width)), n_eff, left)
            return "".join("Y" if hit else "N" for hit in hits)
        u, _, *ids = numbers
        if op in ("WL", "WR"):
            # no end and a broken walk both reply an empty line
            return " ".join(map(str, oracle.walk(u, np.array(ids, dtype=np.int64), left) or ()))
        return "Y" if oracle.test(u, ids, left) else "N"
    except InvalidParameterError:
        return None


@given(line=decimal_queries())
@settings(max_examples=400, deadline=None)
def test_sessions_answer_like_the_builtin_oracle(line):
    full = served(HEX_INIT, hexed(line))
    assert full[0] == "OK BATCH WALK HEX"
    expected = builtin_reply(line)
    assert full[1] == expected if expected is not None else full[1].startswith("ERR ")
    if line.split()[0] in ("L", "R"):
        # a basic session answers a single test as a full one does, ERR text included
        assert served("INIT 8", line) == ["OK", full[1]]


@pytest.mark.parametrize("line", ["WL 3 4 6 0 7 2", "WR 3 4 6 0 7 2", "WR 6 3 6 6 6",
                                  "WL 3 2 0 1", "WR 7 7 0 1 2 3 4 5 6", "WL 7 7 0 1 2 3 4 5 6"])
def test_serve_walk_ends_where_the_builtin_walk_does(line):
    op, u, _, *ids = line.split()
    builtin = InstanceOracle(make_instance(FUZZ_N, 5))
    ends = builtin.walk(int(u), np.array(ids, dtype=np.int64), op == "WL")
    assert served(HEX_INIT, hexed(line))[1] == " ".join(map(str, ends or ()))


def documented_exchanges():
    """The worked examples of the protocol's specification, the docstring
    of gtorder.external: the lines quoted as the client's and the replies
    quoted after them."""
    quoted = [line.strip() for line in external.__doc__.splitlines()]
    # a bare "<" quotes an empty reply
    return ([line[2:] for line in quoted if line.startswith("> ")],
            [line[2:] for line in quoted if line.startswith("< ") or line == "<"])


def test_documented_examples_are_what_serve_answers():
    # the examples' order has n = 1024 ids, and id i has rank i + 1
    sent, replies = documented_exchanges()
    assert sent and len(sent) == len(replies)
    assert served(*sent, ranks=list(range(1, 1025))) == replies


def test_documented_full_session_lines_are_what_the_client_writes(tmp_path):
    sent, _ = documented_exchanges()
    command, log = filtered_server(tmp_path, 1024, 0, "pass\n")
    with ExternalOracle(command, 1024) as remote:
        remote.test(5, [1023, 9], False)
        remote.test(5, np.array([1023, 9]), True)
        remote.test_batch(5, np.array([[1, 1028], [1023, 1029]]), 1030, False)
        remote.walk(5, np.array([1, 2, 1023]), False)
        remote.walk(5, np.array([1, 2, 1023]), True)
        remote.walk(9, np.array([1023, 5, 2]), False)
        remote.walk(0, np.array([1, 2, 1023]), False)
    received = log.read_text().splitlines()
    assert received == sent[:len(received)] and len(received) == 9


# replies the client must parse: answers, near misses and noise
REPLIES = st.one_of(
    st.sampled_from(["Y", "N", "y", "YN", "0", "3", "8", "03", "00", "-0", "-1", "+1", "1_0",
                     "3.0", "0x3", "\u0663", "\u00b2", "\uff13", "\ufffd", "ERR", "ERR busy",
                     "OK", "OK BATCH", "OK WALK", "OK BATCH WALK", "OK WALK BATCH",
                     "OK BATCH BATCH", "OK  BATCH", "OK RESTART", "OK BATCH WALK HEX",
                     "OK HEX", "OK BATCH HEX", "OK HEX BATCH", "OK WALK HEX", "OK WALK BATCH HEX",
                     "OK BATCH WALK HEX HEX", "OK BATCH DESCENT HEX", "9" * 5000, "", "0 Y", "0 N", "3 N", "8 Y",
                     "03 Y", "0  Y", " 0 Y", "0 Y ", "0 y", "0 YN", "0\tY", "-0 N", "ERR 0 Y",
                     "0 1", "1 0", "0 0", "0 2 5", "01 2", "0  1", "0 1 ", " 0 1", "2 8",
                     "1 2 3 4 5 6 7 8", "0\t1", "0 -1", "ERR 0 1"]),
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


@given(reply=REPLIES, size=st.integers(1, 9),
       offer=st.sampled_from([FULL_INIT.format(8), "INIT 8"]))
@settings(max_examples=500, deadline=None)
def test_reply_parsers_answer_only_well_formed_replies(reply, size, offer):
    # what any reply that is not an answer raises: ERR leaves the session
    # usable, anything else ends it (an INIT reply is never ERR here: the
    # client sends the basic INIT instead, or fails at the second ERR)
    error = OracleRejectedError if reply.startswith("ERR") else OracleProtocolError
    test = {"Y": True, "N": False}.get(reply, error)
    assert parsed(_test_answer, reply) == test
    batch = parsed(_batch_answer, reply, size)
    if len(reply) == size and set(reply) <= {"Y", "N"}:
        assert batch.dtype == bool and batch.tolist() == [c == "Y" for c in reply]
    else:
        assert batch == error
    # a walk: canonical positions below size, strictly increasing, one
    # space apart, or none
    tokens = reply.split(" ") if reply else []
    ends = [int(token) if token.isascii() and token.isdigit() and len(token) <= len(str(size))
            else -1 for token in tokens]
    walk = (ends if all(str(end) == token for end, token in zip(ends, tokens))
            and ends == sorted(set(ends)) and all(0 <= end < size for end in ends) else error)
    assert parsed(_walk_answer, reply, size) == walk
    # OK agrees a basic session, and the full one only answers its offer
    agreed = {"OK": False, "OK BATCH WALK HEX": True if offer != "INIT 8" else OracleProtocolError}
    assert parsed(_full_session, reply, offer) == agreed.get(reply, OracleProtocolError)
