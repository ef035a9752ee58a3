"""Group-test oracle backed by an external process.

The child process answers a newline-delimited ASCII protocol on its
standard input/output, one query in flight at a time.  This docstring is
the protocol's specification.

A session is one of two kinds, fixed by its ``INIT`` line:

* **basic**: ``INIT <n>``, answered ``OK``.  It has the single tests
  only, with decimal ids; it is the least a server must speak.
* **full**: ``INIT <n> BATCH WALK HEX``, answered ``OK BATCH WALK
  HEX``.  It has every op, and the ids of each line are one HEX token.

Nothing in between is agreed: a server answers the full ``INIT`` with
exactly ``OK BATCH WALK HEX``, or with ``OK`` to give a basic session,
or with ``ERR``.  Before any accepted ``INIT`` the session is basic.

An ``INIT`` may come at any point, not only first.  An accepted one ends
the current session and starts a new one of its own kind, so a full
session can become basic and full again; no line leaves state behind, so
nothing else carries over.  A rejected one leaves the current session as
it was.  The client sends ``INIT`` only when it starts.

The ops, where ``<ids>`` is ``<v1> ... <vm>`` in a basic session and one
HEX token in a full one:

    client -> "L <u> <m> <ids>"     server -> "Y" or "N"
    client -> "R <u> <m> <ids>"     server -> "Y" or "N"
    client -> "BL <u> <n_eff> <rows> <width> <ids>"
                                    server -> one "Y"/"N" per row    (full only)
    client -> "BR <u> <n_eff> <rows> <width> <ids>"
                                    server -> one "Y"/"N" per row    (full only)
    client -> "WL <u> <m> <ids>"    server -> "<p1> ... <pk>", "N" or ""  (full only)
    client -> "WR <u> <m> <ids>"    server -> "<p1> ... <pk>", "N" or ""  (full only)

``L`` asks the left test (u <=_Q V), ``R`` the right test (V <=_Q u), and
``m`` is the number of ids.  Ids are 0-based.  ``u``, ``m``, ``n_eff``,
``rows`` and ``width`` are ASCII base-10 integers in both sessions, and so
are the ids of a basic session.  In a full session each id is a
little-endian unsigned 32-bit word written as 8 hex digits, and a line's
ids are one token (``ids.astype("<u4").tobytes().hex()``): ``WR 5 3
0100000002000000ff030000`` is a walk over ids 1, 2 and 1023.  The token
holds exactly the declared number of ids; a line of no ids carries no
token.  The server replies ``ERR <message>`` to any invalid line,
non-ASCII digits and a batch or walk op in a basic session included.

``BL``/``BR`` ask one left/right test per row of a ``rows`` x ``width``
id array, sent row after row; they mirror ``GroupTestOracle.test_batch``
with ``left`` true/false.  Ids in n..n_eff-1 are dummy slots that satisfy
neither test; ``rows`` and ``width`` are at least 1.  The reply is one
line of ``rows`` characters, each ``Y`` or ``N``.  Batches serve
non-adaptive tests, such as the trials of a threshold test.

``WL``/``WR`` run a whole min-finding walk of left/right tests over the
``m >= 1`` ids from u, as ``GroupTestOracle.walk`` does with ``left``
true/false: a round ends at each id that satisfies the test against u
and every id before it, a record of the order.  The reply is those ends
as canonical decimals, strictly increasing and one space apart; ``N``
if no id beats u, the walk's first test answering no; or an empty line
if a record only ties (a repeated id), which breaks the walk.  The
server answers the whole walk at once, the run's first condition test
included; the ledger counts that test and ceil(log2 m) + 1 tests a
round, so a min-finding run is one line, whatever its outcome.  The
``WALK`` feature of ``INIT`` names this op pair, so a server whose full
session has other ops names other features, and the client then falls
back to a basic session.

Worked examples, for n = 1024 ids where id i has rank i + 1 (``>`` marks
a client line, ``<`` the server's reply)::

    > INIT 1024 BATCH WALK HEX
    < OK BATCH WALK HEX
    > R 5 2 ff03000009000000
    < N
    > L 5 2 ff03000009000000
    < Y
    > BR 5 1030 2 2 0100000004040000ff03000005040000
    < YN
    > WR 5 3 0100000002000000ff030000
    < 0
    > WL 5 3 0100000002000000ff030000
    < 2
    > WR 9 3 ff0300000500000002000000
    < 1 2
    > WR 0 3 0100000002000000ff030000
    < N
    > WR 5 3 050000000100000002000000
    <
    > INIT 1024
    < OK
    > R 5 2 1023 9
    < N
    > WR 5 3 1 2 1023
    < ERR WR needs a full session

The client offers the full session while n <= 2**31, so that every id and
every padded id it sends fits 32 bits, and the basic one otherwise.  A
server that answers the full offer with ``ERR`` is sent ``INIT <n>``.  In
a basic session the client asks a batch one ``L``/``R`` line per row, and
a walk one for its first test and then one per level and per round's
last test, with the answers and ledgers of a full session.  Any other
``INIT`` reply (``OK`` with some of the features, say) raises
OracleProtocolError: a server that agreed ``HEX`` alone would read
decimal ids as hex.

The client checks every query before it writes a line, in both sessions:
a bad subject, padded size or id raises OracleRejectedError, as the
server's ``ERR`` would.  That covers an id outside 0..n-1 of a single
test or a walk, a batch id outside 0..n_eff-1, an id that is not an
integer and an id array of the wrong shape.  A single test over no ids
answers False without a line.

Protocol violations surface as exceptions, never as false answers:
a reply of ``ERR`` raises OracleRejectedError (an OracleError and an
InvalidParameterError), any other unexpected reply (a batch reply of the
wrong length, one with whitespace around it, or a ``WL``/``WR`` reply that
is not ``N``, empty, or canonical decimals of strictly increasing positions
in 0..m-1, one space apart) raises OracleProtocolError, a missing reply (or
a query the server does not read) raises OracleTimeoutError, and a command
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
lives in ``gtorder.oracle_server``: it serves both sessions for the
instance ``make_instance(N, S)`` builds, without importing numpy, and the
conformance tests check this client against it.
"""

from __future__ import annotations

import logging
import math
import os
import select
import shlex
import subprocess
import time
from numbers import Real
from typing import Sequence, Union

import numpy as np

from .errors import (
    InvalidParameterError,
    OracleError,
    OracleProtocolError,
    OracleRejectedError,
    OracleSpawnError,
    OracleTimeoutError,
    check_integer,
)
from .oracle import GroupTestOracle, IdSet, _checked_descent, _checked_ids, _checked_rows
from .oracle_server import _FULL_FEATURES

_log = logging.getLogger(__name__)

# HEX ids are unsigned 32-bit words: the full session is offered only up
# to this n, so that every id and every padded id a batch sends (below
# 2n, see _checked_rows) fits
_HEX_MAX_N = 1 << 31


def _hex_token(ids: np.ndarray) -> str:
    """The HEX token of in-range ids: 8 hex digits per id, each a
    little-endian unsigned 32-bit word, row after row."""
    return ids.astype("<u4").tobytes().hex()


def _reply_error(reply: str) -> OracleError:
    """The error for a reply that is not an answer; only ``ERR`` leaves
    the session usable."""
    if reply.startswith("ERR"):
        return OracleRejectedError(f"oracle rejected query: {reply[3:].strip()}")
    return OracleProtocolError(f"malformed oracle reply {reply!r}")


def _full_session(reply: str, offer: str) -> bool:
    """Whether the reply to the ``INIT`` line ``offer`` agrees a full
    session: ``OK`` agrees a basic one, and ``OK BATCH WALK HEX`` a full
    one, but only in answer to the full offer."""
    if reply == "OK":
        return False
    if reply == f"OK {_FULL_FEATURES}" and offer.endswith(f" {_FULL_FEATURES}"):
        return True
    raise OracleProtocolError(f"expected OK to INIT, got {reply!r}")


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


def _walk_answer(reply: str, m: int) -> list[int] | None:
    """Where the rounds of a walk over ``m`` ids end: canonical ASCII decimals of
    strictly increasing positions in 0..m-1, one space apart; ``N`` for none,
    and None for an empty line, a broken walk."""
    if not reply:
        return None
    if reply == "N":
        return []
    ends = [-1]
    for position in reply.split(" "):
        # the length bound keeps int() off positions longer than it parses
        if not (position.isascii() and position.isdigit() and len(position) <= len(str(m))
                and ends[-1] < int(position) < m and str(int(position)) == position):
            raise _reply_error(reply)
        ends.append(int(position))
    return ends[1:]


class ExternalOracle(GroupTestOracle):
    """Forwards each group test to a child process over the line protocol.

    The oracle is exclusive-use: one query at a time, no concurrent use.
    Close it (or use it as a context manager) to terminate the child.
    """

    def __init__(self, command: Union[str, Sequence[str]], n: int, timeout: float = 10.0):
        # every check comes before the spawn, so a bad one starts no process
        check_integer("universe size", n, 1)
        if not (isinstance(timeout, Real) and 0 < timeout < math.inf):
            raise InvalidParameterError(f"timeout must be positive and finite: {timeout!r}")
        try:
            args = shlex.split(command) if isinstance(command, str) else list(command)
        except ValueError as exc:
            raise InvalidParameterError(f"cannot parse oracle command {command!r}: {exc}") from None
        if not args:
            raise InvalidParameterError("oracle command is empty")
        self.size = n
        self._timeout = timeout
        self._buffer = b""
        self._failure: OracleError | None = None
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
        basic = f"INIT {n}"
        offer = f"{basic} {_FULL_FEATURES}" if n <= _HEX_MAX_N else basic
        try:
            reply = self._exchange(offer)
            if reply.startswith("ERR") and offer != basic:
                # a server with the basic session only may reject the full one
                offer = basic
                reply = self._exchange(offer)
            self._full = _full_session(reply, offer)
        except BaseException:
            self._proc.kill()
            self.close()
            raise

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
        return line.decode("ascii", errors="replace")

    def _ask(self, line: str, parse, *args):
        """Send ``line`` and return ``parse(reply, *args)``; a reply that is
        neither an answer nor ``ERR`` ends the session."""
        reply = self._exchange(line)
        try:
            return parse(reply, *args)
        except OracleProtocolError as exc:
            self._failure = exc
            raise

    def _line(self, kind: str, u: int, ids: np.ndarray) -> str:
        """``kind u m <ids>``, the line of a single test or a walk."""
        if self._full:
            return f"{kind} {u} {ids.size} {_hex_token(ids)}"
        return " ".join((kind, str(u), str(ids.size), *map(str, ids.tolist())))

    def _checked(self, check, *args):
        """``check(*args, size)``, with a bad query's InvalidParameterError
        raised as the OracleRejectedError of ``ERR``, before any line."""
        try:
            return check(*args, self.size)
        except InvalidParameterError as exc:
            raise OracleRejectedError(str(exc)) from None

    def test(self, u: int, V: IdSet, left: bool) -> bool:
        ids = self._checked(_checked_ids, u, V)
        if not ids.size:
            return False  # an empty existential asks no test
        return self._ask(self._line("L" if left else "R", u, ids), _test_answer)

    def test_batch(self, u: int, rows: np.ndarray, n_eff: int, left: bool) -> np.ndarray:
        rows, n_eff = self._checked(_checked_rows, u, rows, n_eff)
        if not self._full:
            return super().test_batch(u, rows, n_eff, left)
        if not rows.size:
            # no rows, or rows of no ids: each is an empty existential
            return np.zeros(len(rows), dtype=bool)
        count, width = rows.shape
        line = f"{'BL' if left else 'BR'} {u} {n_eff} {count} {width} {_hex_token(rows)}"
        return self._ask(line, _batch_answer, count)

    def walk(self, u: int, arr: np.ndarray, left: bool) -> list[int] | None:
        arr = self._checked(_checked_descent, u, arr)
        if not self._full:
            return super().walk(u, arr, left)
        return self._ask(self._line("WL" if left else "WR", u, arr), _walk_answer, arr.size)
