"""Group-test oracle backed by an external process, plus a reference server.

The child process answers a newline-delimited ASCII protocol on its
standard input/output, one query in flight at a time:

    client -> "INIT <n> BATCH"              server -> "OK BATCH" or "OK"
    client -> "L <u> <m> <v1> ... <vm>"     server -> "Y" or "N"
    client -> "R <u> <m> <v1> ... <vm>"     server -> "Y" or "N"
    client -> "BL <u> <n_eff> <rows> <width> <rows*width ids>"
                                            server -> one "Y"/"N" per row
    client -> "BR <u> <n_eff> <rows> <width> <rows*width ids>"
                                            server -> one "Y"/"N" per row

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
of a threshold test; a swap step depends on the answer before it and
stays one ``L``/``R`` line per test.

The batch op is agreed at ``INIT``: a server that has it answers
``INIT <n> BATCH`` with ``OK BATCH``.  A server that answers ``OK``, or
``ERR`` (after which the client sends ``INIT <n>`` and expects ``OK``),
has no batch op, and the client asks its batches one ``L``/``R`` line per
row.

Protocol violations surface as exceptions, never as false answers:
a reply of ``ERR`` raises OracleRejectedError (an OracleError and an
InvalidParameterError), any other unexpected reply, a batch reply of the
wrong length included, raises OracleProtocolError, a missing reply (or a
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
from .oracle import GroupTestOracle, IdSet, _checked_rows
from .order import TotalOrderInstance, make_instance


class _DecimalText(dict):
    """Decimal text of each id, made on first use and kept.

    Keyed by the id's value, so a numpy integer finds the entry of the
    equal int, and a negative or out-of-range id is sent as itself, for
    the server's range check to reject.
    """

    def __missing__(self, key) -> str:
        try:
            value = operator.index(key)
        except TypeError:
            raise InvalidParameterError(f"element id {key!r} is not an integer") from None
        text = self[value] = str(value)
        return text


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
            reply = self._exchange(f"INIT {n} BATCH")
            accepted = ("OK BATCH", "OK")
            if reply.startswith("ERR"):
                # a server without the batch op may reject the longer INIT
                reply, accepted = self._exchange(f"INIT {n}"), ("OK",)
            if reply not in accepted:
                raise OracleProtocolError(f"expected OK to INIT, got {reply!r}")
            self._batch_op = reply == "OK BATCH"
        except OracleError:
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

    def _unexpected(self, reply: str) -> OracleError:
        """The error for a reply that is not an answer; only ``ERR``
        leaves the session usable."""
        if reply.startswith("ERR"):
            return OracleRejectedError(f"oracle rejected query: {reply[3:].strip()}")
        self._failure = OracleProtocolError(f"malformed oracle reply {reply!r}")
        return self._failure

    def _query(self, kind: str, u: int, V: IdSet) -> bool:
        ids = V.tolist() if isinstance(V, np.ndarray) else list(V)
        text = self._text
        reply = self._exchange(" ".join(
            (kind, text[u], str(len(ids)), *map(text.__getitem__, ids))))
        if reply == "Y":
            return True
        if reply == "N":
            return False
        raise self._unexpected(reply)

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
        reply = self._exchange(" ".join(
            (kind, text[u], text[n_eff], str(count), str(width),
             *map(text.__getitem__, rows.ravel().tolist()))))
        if len(reply) == count and not reply.strip("YN"):
            return np.frombuffer(reply.encode("ascii"), dtype=np.uint8) == ord("Y")
        raise self._unexpected(reply)

    def left_test_batch(self, u: int, rows: np.ndarray, n_eff: int) -> np.ndarray:
        if not self._batch_op:
            return super().left_test_batch(u, rows, n_eff)
        return self._batch("BL", u, rows, n_eff)

    def right_test_batch(self, u: int, rows: np.ndarray, n_eff: int) -> np.ndarray:
        if not self._batch_op:
            return super().right_test_batch(u, rows, n_eff)
        return self._batch("BR", u, rows, n_eff)


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
        else:
            answer = f"ERR unknown op {op}"
        outfile.write(answer + "\n")
        outfile.flush()


def _answer_init(parts: list[str], n: int) -> str:
    """The reply to one ``INIT`` line, split into ``parts``."""
    if (len(parts) < 2 or parts[2:] not in ([], ["BATCH"])
            or not (parts[1].isascii() and parts[1].isdigit())):
        return "ERR malformed INIT"
    if parts[1].lstrip("0") != str(n):
        return f"ERR size mismatch: serving {n}"
    return "OK BATCH" if len(parts) == 3 else "OK"


def _answer_test(left: bool, parts: list[str], ranks: list[int],
                 rank_of: dict[str, int]) -> str:
    """The reply to one ``L``/``R`` line, split into ``parts``."""
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
    ru = ranks[u]
    if left:
        return "Y" if max(found, default=0) >= ru else "N"
    return "Y" if min(found, default=n + 1) <= ru else "N"


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
