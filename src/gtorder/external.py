"""Group-test oracle backed by an external process, plus a reference server.

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

The companion entry point (``python -m gtorder.oracle_server --n N
--seed S``) serves the protocol for a seeded builtin instance, which is the
reference implementation used by the conformance tests.
"""

from __future__ import annotations

import operator
import os
import select
import shlex
import subprocess
import sys
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
from .order import TotalOrderInstance, make_instance


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


# the ops beyond L/R, in the order INIT names them
_FEATURES = ("BATCH", "DESCENT")
# what the client offers at INIT, richest first; a server that answers
# ERR is offered the next
_OFFERS = (_FEATURES, ("BATCH",), ())


def _features_named(words: Sequence[str], offer: Sequence[str]) -> bool:
    """True when ``words`` are some of the ``offer``, each once, in its order."""
    return list(words) == [feature for feature in offer if feature in words]


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
        deadline = time.monotonic() + self._timeout
        try:
            if proc.poll() is not None:
                raise OracleProtocolError("oracle process has exited")
            self._write((line + "\n").encode("ascii"), deadline)
            return self._read_line(deadline)
        except OracleError as exc:
            self._failure = exc
            raise

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


def _integer(token: str) -> int:
    """The value of an ASCII base-10 integer token; ValueError otherwise."""
    if not token.isascii():
        raise ValueError(f"non-ASCII token {token!r}")
    return int(token)


def _known_ranks(tokens: list[str], rank_of: dict[str, int]) -> list[int] | None:
    """Ranks of the tokens when each is the canonical text of an id."""
    try:
        return list(map(rank_of.__getitem__, tokens))
    except KeyError:
        return None


def serve(instance: TotalOrderInstance, infile, outfile) -> None:
    """Answer protocol queries for a known instance until EOF.

    Every input line gets exactly one reply line, ``ERR ...`` for any
    invalid one.
    """
    ranks = instance.ranks.tolist()
    # the canonical text of each id maps straight to its rank; any other
    # token goes through _integer and the range checks
    rank_of = {str(v): rank for v, rank in enumerate(ranks)}
    for raw in infile:
        parts = raw.split()
        op = parts[0] if parts else ""
        if not op:
            answer = "ERR empty line"
        elif op == "INIT":
            answer = _answer_init(parts, len(ranks))
        elif op in ("L", "R"):
            answer = _answer_test(op == "L", parts, ranks, rank_of)
        elif op in ("BL", "BR"):
            answer = _answer_batch(op == "BL", parts, ranks, rank_of)
        elif op in ("DL", "DR"):
            answer = _answer_descent(op == "DL", parts, ranks, rank_of)
        else:
            answer = f"ERR unknown op {op}"
        outfile.write(answer + "\n")
        outfile.flush()


def _answer_init(parts: list[str], n: int) -> str:
    """The reply to one ``INIT`` line, split into ``parts``: ``OK`` and
    every feature asked for, since this server has them all."""
    if (len(parts) < 2 or not _features_named(parts[2:], _FEATURES)
            or not (parts[1].isascii() and parts[1].isdigit())):
        return "ERR malformed INIT"
    if parts[1].lstrip("0") != str(n):
        return f"ERR size mismatch: serving {n}"
    return " ".join(("OK", *parts[2:]))


def _operands(parts: list[str], ranks: list[int],
              rank_of: dict[str, int]) -> tuple[int, list[int]] | str:
    """The rank of u and the ranks of the ids of a ``<op> <u> <m> <ids>``
    line, or the ``ERR`` reply to it."""
    n = len(ranks)
    tokens = parts[3:]
    try:
        u = _integer(parts[1])
        m = _integer(parts[2])
        found = _known_ranks(tokens, rank_of)
        ids = tokens if found is not None else [_integer(tok) for tok in tokens]
    except (IndexError, ValueError):
        return "ERR malformed query"
    if m != len(ids):
        return f"ERR id count mismatch: declared {m}, got {len(ids)}"
    if not 0 <= u < n or found is None and any(not 0 <= v < n for v in ids):
        return "ERR element id out of range"
    if found is None:
        found = [ranks[v] for v in ids]
    return ranks[u], found


def _answer_test(left: bool, parts: list[str], ranks: list[int],
                 rank_of: dict[str, int]) -> str:
    """The reply to one ``L``/``R`` line, split into ``parts``."""
    operands = _operands(parts, ranks, rank_of)
    if isinstance(operands, str):
        return operands
    ru, found = operands
    if left:
        return "Y" if max(found, default=0) >= ru else "N"
    return "Y" if min(found, default=len(ranks) + 1) <= ru else "N"


def _answer_descent(left: bool, parts: list[str], ranks: list[int],
                    rank_of: dict[str, int]) -> str:
    """The reply to one ``DL``/``DR`` line, split into ``parts``: the first
    position whose id satisfies the test, or m - 1 if none does."""
    operands = _operands(parts, ranks, rank_of)
    if isinstance(operands, str):
        return operands
    ru, found = operands
    if not found:
        return "ERR malformed descent: no ids"
    if left:
        for position, rank in enumerate(found):
            if rank >= ru:
                return str(position)
    else:
        for position, rank in enumerate(found):
            if rank <= ru:
                return str(position)
    return str(len(found) - 1)


def _answer_batch(left: bool, parts: list[str], ranks: list[int],
                  rank_of: dict[str, int]) -> str:
    """The reply to one ``BL``/``BR`` line, split into ``parts``."""
    n = len(ranks)
    tokens = parts[5:]
    try:
        u, n_eff, count, width = map(_integer, parts[1:5])
        found = _known_ranks(tokens, rank_of)
        ids = tokens if found is not None else [_integer(tok) for tok in tokens]
    except ValueError:
        return "ERR malformed batch"
    if count < 1 or width < 1:
        return "ERR malformed batch: rows and width must be positive"
    if len(ids) != count * width:
        return f"ERR id count mismatch: declared {count}x{width}, got {len(ids)}"
    if n_eff < n:
        return f"ERR padded size {n_eff} below universe size {n}"
    if not 0 <= u < n:
        return "ERR element id out of range"
    if found is None:
        if any(not 0 <= v < n_eff for v in ids):
            return f"ERR batch id outside padded universe of size {n_eff}"
        # a dummy's sentinel rank fails the comparison in either direction
        sentinel = 0 if left else n + 1
        found = [ranks[v] if v < n else sentinel for v in ids]
    ru = ranks[u]
    rows = (found[i:i + width] for i in range(0, len(found), width))
    if left:
        return "".join(["Y" if max(row) >= ru else "N" for row in rows])
    return "".join(["Y" if min(row) <= ru else "N" for row in rows])


def main(argv: Sequence[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Serve the group-test line protocol for a seeded instance."
    )
    parser.add_argument("--n", type=int, required=True, help="universe size")
    parser.add_argument("--seed", type=int, default=0, help="instance seed")
    args = parser.parse_args(argv)
    # any byte outside ASCII decodes to U+FFFD and so fails every parse;
    # only "\n" ends a line
    sys.stdin.reconfigure(encoding="ascii", errors="replace", newline="\n")
    sys.stdout.reconfigure(encoding="ascii", errors="backslashreplace")
    serve(make_instance(args.n, args.seed), sys.stdin, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
