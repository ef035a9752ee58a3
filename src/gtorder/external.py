"""Group-test oracle backed by an external process, plus a reference server.

The child process answers a newline-delimited ASCII protocol on its
standard input/output, one query in flight at a time:

    client -> "INIT <n>"                    server -> "OK"
    client -> "L <u> <m> <v1> ... <vm>"     server -> "Y" or "N"
    client -> "R <u> <m> <v1> ... <vm>"     server -> "Y" or "N"

``L`` asks the left test (u <=_Q V), ``R`` the right test (V <=_Q u),
``m`` is the number of ids that follow, ids are 0-based decimal.  The
server replies ``ERR <message>`` to any invalid input.

Protocol violations surface as exceptions, never as false answers:
a reply of ``ERR`` raises OracleRejectedError (an OracleError and an
InvalidParameterError), any other unexpected reply raises
OracleProtocolError, a missing reply raises
OracleTimeoutError, and a command that cannot be started raises
OracleSpawnError.  After a timeout or a protocol error the stream can no
longer be matched to its queries (a late reply would answer the next
one), so every later query raises OracleProtocolError; an ``ERR`` reply
leaves the session usable, and the harness records only the trial that
received it as an error row.

The companion entry point (``python -m gtorder.oracle_server --n N
--seed S``) serves the protocol for a seeded builtin instance, which is the
reference implementation used by the conformance tests.
"""

from __future__ import annotations

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
from .oracle import GroupTestOracle, IdSet
from .order import TotalOrderInstance, make_instance


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
        try:
            self._proc = subprocess.Popen(
                args,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                bufsize=0,
            )
        except OSError as exc:
            raise OracleSpawnError(f"could not start oracle command {args!r}: {exc}") from exc
        try:
            reply = self._exchange(f"INIT {n}")
            if reply != "OK":
                raise OracleProtocolError(f"expected OK to INIT, got {reply!r}")
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
        try:
            if proc.poll() is not None:
                raise OracleProtocolError("oracle process has exited")
            try:
                proc.stdin.write((line + "\n").encode("ascii"))
                proc.stdin.flush()
            except (BrokenPipeError, OSError) as exc:
                raise OracleProtocolError(f"oracle process closed its input: {exc}") from exc
            return self._read_line()
        except OracleError as exc:
            self._failure = exc
            raise

    def _read_line(self) -> str:
        fd = self._proc.stdout.fileno()
        deadline = time.monotonic() + self._timeout
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise OracleTimeoutError(
                    f"no reply from oracle within {self._timeout} seconds"
                )
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                raise OracleProtocolError("oracle process closed its output")
            self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return line.decode("ascii", errors="replace").strip()

    def _query(self, kind: str, u: int, V: IdSet) -> bool:
        ids = V.tolist() if isinstance(V, np.ndarray) else list(V)
        parts = [kind, str(int(u)), str(len(ids))]
        parts.extend(str(int(v)) for v in ids)
        reply = self._exchange(" ".join(parts))
        if reply == "Y":
            return True
        if reply == "N":
            return False
        if reply.startswith("ERR"):
            raise OracleRejectedError(f"oracle rejected query: {reply[3:].strip()}")
        self._failure = OracleProtocolError(f"malformed oracle reply {reply!r}")
        raise self._failure

    def left_test(self, u: int, V: IdSet) -> bool:
        return self._query("L", u, V)

    def right_test(self, u: int, V: IdSet) -> bool:
        return self._query("R", u, V)


def serve(instance: TotalOrderInstance, infile, outfile) -> None:
    """Answer protocol queries for a known instance until EOF."""
    ranks = instance.ranks.tolist()
    n = instance.n

    def reply(text: str) -> None:
        outfile.write(text + "\n")
        outfile.flush()

    for raw in infile:
        parts = raw.split()
        if not parts:
            reply("ERR empty line")
            continue
        op = parts[0]
        if op == "INIT":
            if len(parts) != 2 or not parts[1].isdigit():
                reply("ERR malformed INIT")
            elif int(parts[1]) != n:
                reply(f"ERR size mismatch: serving {n}")
            else:
                reply("OK")
            continue
        if op not in ("L", "R"):
            reply(f"ERR unknown op {op}")
            continue
        try:
            u = int(parts[1])
            m = int(parts[2])
            ids = [int(tok) for tok in parts[3:]]
        except (IndexError, ValueError):
            reply("ERR malformed query")
            continue
        if m != len(ids):
            reply(f"ERR id count mismatch: declared {m}, got {len(ids)}")
            continue
        if not 0 <= u < n or any(not 0 <= v < n for v in ids):
            reply("ERR element id out of range")
            continue
        ru = ranks[u]
        if op == "L":
            answer = any(ranks[v] >= ru for v in ids)
        else:
            answer = any(ranks[v] <= ru for v in ids)
        reply("Y" if answer else "N")


def main(argv: Sequence[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Serve the group-test line protocol for a seeded instance."
    )
    parser.add_argument("--n", type=int, required=True, help="universe size")
    parser.add_argument("--seed", type=int, default=0, help="instance seed")
    args = parser.parse_args(argv)
    serve(make_instance(args.n, args.seed), sys.stdin, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
