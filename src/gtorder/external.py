"""Group-test oracle backed by an external process.

The child process answers a newline-delimited ASCII protocol on its
standard input/output, one query in flight at a time:

    client -> "INIT <n> BATCH DESCENT"      server -> "OK BATCH DESCENT",
                                            or OK naming fewer features
    client -> "L <u> <m> <v1> ... <vm>"     server -> "Y" or "N"
    client -> "R <u> <m> <v1> ... <vm>"     server -> "Y" or "N"
    client -> "BL <u> <n_eff> <rows> <width> <rows*width ids>"
                                            server -> one "Y"/"N" per row
    client -> "BR <u> <n_eff> <rows> <width> <rows*width ids>"
                                            server -> one "Y"/"N" per row
    client -> "DL <u> <m> <v1> ... <vm>"    server -> a position in 0..m-1
    client -> "DR <u> <m> <v1> ... <vm>"    server -> a position in 0..m-1

``L`` asks the left test (u <=_Q V), ``R`` the right test (V <=_Q u),
``m`` is the number of ids that follow.  Ids are 0-based ASCII base-10
integers; the server replies ``ERR <message>`` to any invalid input,
non-ASCII digits included.

``BL``/``BR`` ask one left/right test per row of a ``rows`` x ``width``
id array, sent row after row; they mirror
``GroupTestOracle.left_test_batch``/``right_test_batch``.  Ids in
n..n_eff-1 are dummy slots that satisfy neither test; ``rows`` and
``width`` are at least 1.  The reply is one line of ``rows`` characters,
each ``Y`` or ``N``.  Batches serve non-adaptive tests, such as the trials
of a threshold test.

``DL``/``DR`` run a whole swap descent of left/right tests over the
``m >= 1`` ids, as ``GroupTestOracle.left_descent``/``right_descent`` do,
and the reply is the canonical decimal of the position where it ends: the
first position whose id satisfies the test, or ``m - 1`` if none does.
Every level of a descent depends only on the hidden order, so the server
answers them all at once; the ledger still counts ceil(log2 m) tests.
Descents carry no dummy slots, and a descent over one id asks no test, so
the client sends none.

The ops beyond ``L``/``R`` are agreed at ``INIT``.  The client offers
``INIT <n> BATCH DESCENT``; a server answers ``OK`` followed by the
offered features it has, in the order offered.  A server that answers
``ERR`` is offered ``INIT <n> BATCH``, then ``INIT <n>``.  Without the
batch op the client asks a batch one ``L``/``R`` line per row; without
the descent op it asks a descent one ``L``/``R`` line per level, each the
test on one half of the range the answer before it left.

Protocol violations surface as exceptions, never as false answers:
a reply of ``ERR`` raises OracleRejectedError (an OracleError and an
InvalidParameterError), any other unexpected reply (a batch reply of the
wrong length, or a descent reply that is not the canonical decimal of a
position in 0..m-1) raises OracleProtocolError, a missing reply (or a
query the server does not read) raises OracleTimeoutError, and a command
that cannot be started raises OracleSpawnError.  After a timeout or a
protocol error the stream can no longer be matched to its queries (a late
reply would answer the next one), so every later query raises
OracleProtocolError; an ``ERR`` reply leaves the session usable, and the
harness records only the trial that received it as an error row.

Each exchange is logged at DEBUG level on the ``gtorder.external``
logger: the op, the bytes of the query and of the reply line (newlines
included) and the round trip in microseconds.  Without DEBUG enabled
nothing is formatted.

The reference server, ``python -m gtorder.oracle_server --n N --seed S``,
lives in ``gtorder.oracle_server``: it serves the protocol for the
instance ``make_instance(N, S)`` builds, without importing numpy, and the
conformance tests check this client against it.
"""

from __future__ import annotations

import logging
import operator
import os
import select
import shlex
import subprocess
import time
from typing import Sequence, Union

import numpy as np

from .errors import (
    InvalidParameterError,
    OracleError,
    OracleProtocolError,
    OracleRejectedError,
    OracleSpawnError,
    OracleTimeoutError,
)
from .oracle import (GroupTestOracle, IdSet, _check_id_types, _checked_descent,
                     _checked_rows)
from .oracle_server import _FEATURES, _features_named

_log = logging.getLogger(__name__)


class _DecimalText(dict):
    """Decimal text of each id, made on first use and kept.

    Keyed by the id's value, so a numpy integer finds the entry of the
    equal int, and a negative or out-of-range id is sent as itself, for
    the server's range check to reject.  A bool would find the entry of
    the equal int too, so callers check id types first.
    """

    def __missing__(self, key) -> str:
        text = self[key] = str(operator.index(key))
        return text


# what the client offers at INIT, richest first; a server that answers
# ERR is offered the next
_OFFERS = (_FEATURES, ("BATCH",), ())


def _reply_error(reply: str) -> OracleError:
    """The error for a reply that is not an answer; only ``ERR`` leaves
    the session usable."""
    if reply.startswith("ERR"):
        return OracleRejectedError(f"oracle rejected query: {reply[3:].strip()}")
    return OracleProtocolError(f"malformed oracle reply {reply!r}")


def _agreed_features(reply: str, offer: Sequence[str]) -> frozenset[str]:
    """The features an ``INIT`` reply agrees to: ``OK`` followed by some
    of the offered ones, in the order offered."""
    words = reply.split(" ")
    if words[0] != "OK" or not _features_named(words[1:], offer):
        raise OracleProtocolError(f"expected OK to INIT, got {reply!r}")
    return frozenset(words[1:])


def _test_answer(reply: str) -> bool:
    """The answer of a single test: exactly ``Y`` or ``N``."""
    if reply == "Y":
        return True
    if reply == "N":
        return False
    raise _reply_error(reply)


def _batch_answer(reply: str, count: int) -> np.ndarray:
    """The answers of a batch of ``count`` rows: one ``Y``/``N`` per row."""
    if len(reply) == count and not reply.strip("YN"):
        return np.frombuffer(reply.encode("ascii"), dtype=np.uint8) == ord("Y")
    raise _reply_error(reply)


def _descent_answer(reply: str, m: int) -> int:
    """Where a descent over ``m`` ids ends: the canonical ASCII decimal of
    an integer in 0..m-1."""
    # the length bound keeps int() off replies longer than it parses
    if reply.isascii() and reply.isdigit() and len(reply) <= len(str(m)):
        position = int(reply)
        if position < m and str(position) == reply:
            return position
    raise _reply_error(reply)


class ExternalOracle(GroupTestOracle):
    """Forwards each group test to a child process over the line protocol.

    The oracle is exclusive-use: one query at a time, no concurrent use.
    Close it (or use it as a context manager) to terminate the child.
    """

    def __init__(self, command: Union[str, Sequence[str]], n: int, timeout: float = 10.0):
        if n < 1:
            raise InvalidParameterError(f"universe size must be positive, got {n}")
        args = shlex.split(command) if isinstance(command, str) else list(command)
        self.size = n
        self._timeout = timeout
        self._buffer = b""
        self._failure: OracleError | None = None
        self._text = _DecimalText()
        try:
            self._proc = subprocess.Popen(
                args,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                bufsize=0,
            )
        except OSError as exc:
            raise OracleSpawnError(f"could not start oracle command {args!r}: {exc}") from exc
        # a long batch line may not fit the pipe: writes wait under the
        # query's deadline instead of blocking on a server that stopped reading
        os.set_blocking(self._proc.stdin.fileno(), False)
        try:
            for offer in _OFFERS:
                reply = self._exchange(" ".join(("INIT", str(n), *offer)))
                # a server without some feature may reject the longer INIT
                if not reply.startswith("ERR"):
                    break
            features = _agreed_features(reply, offer)
        except OracleError:
            self._proc.kill()
            self.close()
            raise
        self._batch_op = "BATCH" in features
        self._descent_op = "DESCENT" in features

    def close(self) -> None:
        proc = getattr(self, "_proc", None)
        if proc is None:
            return
        if proc.stdin:
            try:
                proc.stdin.close()
            except OSError:
                pass
        try:
            proc.wait(timeout=2.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()

    def __enter__(self) -> "ExternalOracle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _exchange(self, line: str) -> str:
        if self._failure is not None:
            raise OracleProtocolError(
                f"oracle session unusable after an earlier failure: {self._failure}")
        proc = self._proc
        start = time.monotonic()
        deadline = start + self._timeout
        try:
            if proc.poll() is not None:
                raise OracleProtocolError("oracle process has exited")
            self._write((line + "\n").encode("ascii"), deadline)
            reply = self._read_line(deadline)
        except OracleError as exc:
            self._failure = exc
            raise
        if _log.isEnabledFor(logging.DEBUG):
            _log.debug("%s: %d bytes out, %d bytes in, %.0f us", line.partition(" ")[0],
                       len(line) + 1, len(reply) + 1, (time.monotonic() - start) * 1e6)
        return reply

    def _write(self, data: bytes, deadline: float) -> None:
        fd = self._proc.stdin.fileno()
        view = memoryview(data)
        while True:
            try:
                view = view[os.write(fd, view):]
            except BlockingIOError:
                pass
            except OSError as exc:
                raise OracleProtocolError(f"oracle process closed its input: {exc}") from exc
            if not view:
                return
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise OracleTimeoutError(
                    f"oracle did not read its query within {self._timeout} seconds")
            select.select([], [fd], [], remaining)

    def _read_line(self, deadline: float) -> str:
        fd = self._proc.stdout.fileno()
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise OracleTimeoutError(
                    f"no reply from oracle within {self._timeout} seconds"
                )
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(fd, 65536)
            if not chunk:
                raise OracleProtocolError("oracle process closed its output")
            self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return line.decode("ascii", errors="replace").strip()

    def _ask(self, line: str, parse, *args):
        """Send ``line`` and return ``parse(reply, *args)``; a reply that is
        neither an answer nor ``ERR`` ends the session."""
        reply = self._exchange(line)
        try:
            return parse(reply, *args)
        except OracleProtocolError as exc:
            self._failure = exc
            raise

    def _line(self, kind: str, u: int, ids: list) -> str:
        """``kind u m v1 ... vm``, the line of a single test or a descent."""
        text = self._text
        return " ".join((kind, text[u], str(len(ids)), *map(text.__getitem__, ids)))

    def _query(self, kind: str, u: int, V: IdSet) -> bool:
        _check_id_types(u, V)
        ids = V.tolist() if isinstance(V, np.ndarray) else list(V)
        return self._ask(self._line(kind, u, ids), _test_answer)

    def left_test(self, u: int, V: IdSet) -> bool:
        return self._query("L", u, V)

    def right_test(self, u: int, V: IdSet) -> bool:
        return self._query("R", u, V)

    def _batch(self, kind: str, u: int, rows: np.ndarray, n_eff: int) -> np.ndarray:
        rows = _checked_rows(u, rows, n_eff, self.size)
        if not rows.size:
            # no rows, or rows of no ids: each is an empty existential
            return np.zeros(len(rows), dtype=bool)
        count, width = rows.shape
        text = self._text
        line = " ".join((kind, text[u], text[n_eff], str(count), str(width),
                         *map(text.__getitem__, rows.ravel().tolist())))
        return self._ask(line, _batch_answer, count)

    def left_test_batch(self, u: int, rows: np.ndarray, n_eff: int) -> np.ndarray:
        if not self._batch_op:
            return super().left_test_batch(u, rows, n_eff)
        return self._batch("BL", u, rows, n_eff)

    def right_test_batch(self, u: int, rows: np.ndarray, n_eff: int) -> np.ndarray:
        if not self._batch_op:
            return super().right_test_batch(u, rows, n_eff)
        return self._batch("BR", u, rows, n_eff)

    def _descent(self, kind: str, u: int, arr: np.ndarray) -> int:
        arr = _checked_descent(u, arr, self.size)
        m = arr.size
        if m == 1:
            return 0  # a descent over one id asks no test
        return self._ask(self._line(kind, u, arr.tolist()), _descent_answer, m)

    def left_descent(self, u: int, arr: np.ndarray) -> int:
        if not self._descent_op:
            return super().left_descent(u, arr)
        return self._descent("DL", u, arr)

    def right_descent(self, u: int, arr: np.ndarray) -> int:
        if not self._descent_op:
            return super().right_descent(u, arr)
        return self._descent("DR", u, arr)
