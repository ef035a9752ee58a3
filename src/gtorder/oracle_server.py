"""Reference server for the group-test line protocol.

Run as ``python -m gtorder.oracle_server --n N --seed S`` to answer
group-test queries on stdin/stdout for the instance that
``make_instance(N, S)`` builds; ``gtorder.external`` documents the
protocol and its client.  ``serve`` answers the protocol for any rank
list and never raises on a bad line: every input line gets exactly one
reply line, ``ERR ...`` for an invalid one.  It serves both sessions:
each accepted ``INIT`` starts a basic one (decimal ``L``/``R`` only) or
a full one (every op, ``HEX`` ids).  Past decoding and one range check,
a full session's work on a line grows with where its answer is decided,
not with the line's length.  It splits off only the line's head, decodes
the id token once with ``bytes.fromhex`` and checks all the ids against
the bound in one range check, a single big-int test over the line's
32-bit words (an id-by-id check past bounds of 2**31).  Then it scans
the ids in order and stops at the first that satisfies the test: ``L``
and ``R`` reply ``Y`` there, ``DL`` and ``DR`` reply its position, and
each row of ``BL`` or ``BR`` stops at its own first hit.  The scans read
one table per direction, built at the direction's first query and kept
until EOF: the ranks for the left test, their negations for the right
one, each padded with n dummy sentinels.  A basic session keeps the
per-id path: decimal ids, checked one by one.

The server imports no numpy, which would cost most of its start-up time.
``instance_ranks`` rebuilds ``make_instance``'s ranks in pure Python by
running the same stream numpy's ``default_rng`` does: SeedSequence
seeding, PCG64 with XSL-RR output, 32-bit draws and the Fisher-Yates
shuffle of ``Generator.permutation``.  The tests compare it with
``make_instance`` over many sizes and seeds, and ``gtorder verify --only
external_conformance`` compares the served answers with the builtin
oracle's.  The pure shuffle is several times slower per id than numpy's,
so the library's own instances still come from ``make_instance``.
"""

from __future__ import annotations

import os
import sys
from array import array
from functools import lru_cache
from typing import Sequence

from .errors import check_integer

# what the INIT line of a full session names after n, and its OK echoes
_FULL_FEATURES = "BATCH DESCENT HEX"
# an array typecode of unsigned 32-bit words, the width of a HEX id
_U32 = next(code for code in "IL" if array(code).itemsize == 4)

# a HEX id of value 1, and the largest bound _below tests in one big-int test
_ONE_WORD = (1).to_bytes(4, "little")
_BIT31 = 1 << 31

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1
# numpy.random.SeedSequence: a pool of 4 words, hashed with these constants
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int) -> list[int]:
    """The four 64-bit words ``SeedSequence(seed).generate_state(4, uint64)``
    gives, for a seed in 0..2**64-1."""
    entropy = [seed & _MASK32, seed >> 32] if seed >> 32 else [seed]
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> _XSHIFT

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> _XSHIFT

    # the entropy has at most 2 words, so it all goes into the pool
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    hash_const = _INIT_B
    state = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> _XSHIFT)
    # 32-bit words read as little-endian 64-bit ones
    return [state[i] | state[i + 1] << 32 for i in range(0, len(state), 2)]


def instance_ranks(n: int, seed: int) -> list[int]:
    """``make_instance(n, seed).ranks.tolist()``, computed without numpy:
    ``ranks[i]`` is the rank of id ``i``."""
    check_integer("n", n, 1)
    words = _seed_words(seed & _MASK64)
    # PCG64 set_seed: state 0, step, add the seed, step
    inc = ((words[2] << 64 | words[3]) << 1 | 1) & _MASK128
    state = (inc + (words[0] << 64 | words[1])) * _PCG_MULT + inc & _MASK128
    ranks = list(range(1, n + 1))
    spare = None  # the high half of the last 64-bit output, not yet drawn
    for i in range(n - 1, 0, -1):
        # numpy's random_interval: draw masked 32-bit words until one is <= i
        mask = (1 << i.bit_length()) - 1
        while True:
            if spare is None:
                state = state * _PCG_MULT + inc & _MASK128
                # XSL-RR: fold the halves, rotate right by the top 6 bits
                folded = (state >> 64 ^ state) & _MASK64
                rot = state >> 122
                out = (folded >> rot | folded << (64 - rot)) & _MASK64
                draw, spare = out & _MASK32, out >> 32
            else:
                draw, spare = spare, None
            j = draw & mask
            if j <= i:
                break
        ranks[i], ranks[j] = ranks[j], ranks[i]
    return ranks


def _integer(token: str) -> int:
    """The value of a token of ASCII digits with an optional leading
    ``-``; ValueError otherwise, for ``+1`` and ``0_1`` too, which int()
    accepts."""
    digits = token[1:] if token.startswith("-") else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a base-10 integer token {token!r}")
    return int(token)


def _hex_ids(rest: list[str]) -> tuple[bytes, array]:
    """The ids of a ``HEX`` line, as the decoded bytes and as an array,
    from the rest of the line after its head, left unsplit: nothing, or
    one token of 8 hex digits per id, each a little-endian unsigned
    32-bit word; ValueError otherwise.  Callers check the id count."""
    token = rest[0].rstrip() if rest else ""
    raw = bytes.fromhex(token)
    # fromhex skips whitespace between bytes: more than one token decodes
    # to fewer bytes than half the characters
    if 2 * len(raw) != len(token):
        raise ValueError("more than one id token")
    ids = array(_U32, raw)
    if sys.byteorder == "big":
        ids.byteswap()
    return raw, ids


# a session repeats a few (count, bound) pairs line after line, and
# building the masks costs about as much as the rest of the range check;
# each entry holds about 8 bytes per id of the line it was built for
@lru_cache(maxsize=4)
def _word_masks(count: int, bound: int) -> tuple[int, int]:
    """For ``count`` 32-bit words, read as one integer: bit 31 of every
    word, and 2**31 - bound in every word."""
    ones = int.from_bytes(_ONE_WORD * count, "little")
    return ones << 31, ones * (_BIT31 - bound)


def _below(raw: bytes, ids: array, bound: int) -> bool:
    """Whether every id of a ``HEX`` line, ``ids`` decoded from ``raw``,
    is below ``bound``, a positive integer."""
    if bound > _BIT31:
        return max(ids, default=0) < bound
    # one big-int test over all the words: none may have bit 31 set, and
    # none may after adding 2**31 - bound to each, which then carries
    # into no other word
    top, offset = _word_masks(len(ids), bound)
    words = int.from_bytes(raw, "little")
    return not (words | words + offset) & top


def _search_table(ranks: list[int], left: bool) -> list[int]:
    """What a scan in one direction reads: id v satisfies the test
    against u iff ``table[v] >= table[u]``.  The left test reads the
    ranks, the right test their negations, and n more slots hold a
    dummy's sentinel, which satisfies neither: 0, or -(n + 1)."""
    n = len(ranks)
    if left:
        return ranks + [0] * n
    return [-rank for rank in ranks] + [-(n + 1)] * n


def _first_hit(ids: Sequence[int], table: list[int], key: int) -> int | None:
    """The first of ``ids`` that satisfies the test, ``table[v] >= key``,
    or None if none does."""
    for v in ids:
        if table[v] >= key:
            return v
    return None


def serve(ranks: list[int], infile, outfile) -> None:
    """Answer protocol queries until EOF for the order where ``ranks[i]``
    is the rank of id ``i``, a permutation of 1..n.

    Every input line gets exactly one reply line, ``ERR ...`` for any
    invalid one.  The session is basic until an accepted ``INIT`` makes
    it full, and each accepted ``INIT`` starts a new one.
    """
    n = len(ranks)
    full = False
    tables: dict[bool, list[int]] = {}

    def table(left: bool) -> list[int]:
        if left not in tables:
            tables[left] = _search_table(ranks, left)
        return tables[left]

    # each op splits off only its head: scanning a long id token for
    # whitespace would cost more than decoding it
    for line in infile:
        head = line.split(None, 1)
        op = head[0] if head else ""
        if not op:
            answer = "ERR empty line"
        elif op == "INIT":
            parts = line.split()
            answer = _answer_init(parts, n)
            if answer.startswith("OK"):
                full = len(parts) > 2
        elif op in ("L", "R"):
            answer = _answer_test(line, table(op == "L"), n, full)
        elif op in ("BL", "BR", "DL", "DR") and not full:
            answer = f"ERR {op} needs a full session"
        elif op in ("BL", "BR"):
            answer = _answer_batch(line, table(op == "BL"), n)
        elif op in ("DL", "DR"):
            answer = _answer_descent(line, table(op == "DL"), n)
        else:
            answer = f"ERR unknown op {op}"
        outfile.write(answer + "\n")
        outfile.flush()


def _answer_init(parts: list[str], n: int) -> str:
    """The reply to one ``INIT`` line, split into ``parts``: ``OK`` to a
    basic one, ``OK BATCH DESCENT HEX`` to a full one."""
    if (len(parts) < 2 or " ".join(parts[2:]) not in ("", _FULL_FEATURES)
            or not (parts[1].isascii() and parts[1].isdigit())):
        return "ERR malformed INIT"
    if parts[1].lstrip("0") != str(n):
        return f"ERR size mismatch: serving {n}"
    return " ".join(("OK", *parts[2:]))


def _operands(line: str, n: int, full: bool) -> tuple[int, Sequence[int]] | str:
    """u and the ids of a ``<op> <u> <m> <ids>`` line, each checked to be
    below n, or the ``ERR`` reply to it: one HEX token of ids in a full
    session, decimal ones in a basic session."""
    parts = line.split(None, 3) if full else line.split()
    try:
        u = _integer(parts[1])
        m = _integer(parts[2])
        raw, ids = _hex_ids(parts[3:]) if full else (b"", [_integer(tok) for tok in parts[3:]])
    except (IndexError, ValueError):
        return "ERR malformed query"
    if m != len(ids):
        return f"ERR id count mismatch: declared {m}, got {len(ids)}"
    if not 0 <= u < n:
        return "ERR element id out of range"
    if full:
        in_range = _below(raw, ids, n)
    else:
        in_range = min(ids, default=0) >= 0 and max(ids, default=0) < n
    return (u, ids) if in_range else "ERR element id out of range"


def _answer_test(line: str, table: list[int], n: int, full: bool) -> str:
    """The reply to one ``L``/``R`` line."""
    operands = _operands(line, n, full)
    if isinstance(operands, str):
        return operands
    u, ids = operands
    return "N" if _first_hit(ids, table, table[u]) is None else "Y"


def _answer_descent(line: str, table: list[int], n: int) -> str:
    """The reply to one ``DL``/``DR`` line of a full session: the first
    position whose id satisfies the test, or m - 1 if none does."""
    operands = _operands(line, n, True)
    if isinstance(operands, str):
        return operands
    u, ids = operands
    if not ids:
        return "ERR malformed descent: no ids"
    hit = _first_hit(ids, table, table[u])
    return str(len(ids) - 1 if hit is None else ids.index(hit))


def _answer_batch(line: str, table: list[int], n: int) -> str:
    """The reply to one ``BL``/``BR`` line of a full session."""
    parts = line.split(None, 5)
    try:
        u, n_eff, rows, width = map(_integer, parts[1:5])
        raw, ids = _hex_ids(parts[5:])
    except ValueError:
        return "ERR malformed batch"
    if rows < 1 or width < 1:
        return "ERR malformed batch: rows and width must be positive"
    if len(ids) != rows * width:
        return f"ERR id count mismatch: declared {rows}x{width}, got {len(ids)}"
    if n_eff < n:
        return f"ERR padded size {n_eff} below universe size {n}"
    if not 0 <= u < n:
        return "ERR element id out of range"
    if not _below(raw, ids, n_eff):
        return f"ERR batch id outside padded universe of size {n_eff}"
    # the table holds dummies up to 2n; a dummy past that reads slot n's
    if n_eff > 2 * n and not _below(raw, ids, 2 * n):
        ids = [min(v, n) for v in ids]
    key = table[u]
    # each row stops at its first hit; a loop inlined here costs less
    # than a call of _first_hit per row
    answer = []
    for start in range(0, len(ids), width):
        for v in ids[start:start + width]:
            if table[v] >= key:
                answer.append("Y")
                break
        else:
            answer.append("N")
    return "".join(answer)


def main(argv: Sequence[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Serve the group-test line protocol for a seeded instance."
    )
    parser.add_argument("--n", type=int, required=True, help="universe size, at least 1")
    parser.add_argument("--seed", type=int, default=0, help="instance seed")
    args = parser.parse_args(argv)
    if args.n < 1:
        parser.exit(2, f"{parser.prog}: error: --n must be at least 1, got {args.n}\n")
    # any byte outside ASCII decodes to U+FFFD and so fails every parse;
    # only "\n" ends a line
    sys.stdin.reconfigure(encoding="ascii", errors="replace", newline="\n")
    sys.stdout.reconfigure(encoding="ascii", errors="backslashreplace")
    serve(instance_ranks(args.n, args.seed), sys.stdin, sys.stdout)
    return 0


if __name__ == "__main__":
    main()  # a usage error exits here, as SystemExit
    os._exit(0)  # every reply is flushed: skip the teardown that close() waits for
