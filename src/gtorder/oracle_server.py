"""Reference server for the group-test line protocol.

Run as ``python -m gtorder.oracle_server --n N --seed S`` to answer
group-test queries on stdin/stdout for the instance that
``make_instance(N, S)`` builds; ``gtorder.external`` documents the
protocol and its client.  ``serve`` answers the protocol for any rank
list and never raises on a bad line: every input line gets exactly one
reply line, ``ERR ...`` for an invalid one.  It serves both sessions:
each accepted ``INIT`` starts a basic one (decimal ``L``/``R`` only) or a
full one (every op, ``HEX`` ids).  A full session decodes a line's ids
with ``bytes.fromhex`` into an ``array`` of 32-bit words and gathers
their ranks in one pass; an id past the end of the rank list raises the
IndexError that is the range check.

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

import sys
from array import array
from itertools import compress, count
from typing import Sequence

from .errors import InvalidParameterError

# what the INIT line of a full session names after n, and its OK echoes
_FULL_FEATURES = "BATCH DESCENT HEX"
# an array typecode of unsigned 32-bit words, the width of a HEX id
_U32 = next(code for code in "IL" if array(code).itemsize == 4)

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
    if n < 1:
        raise InvalidParameterError(f"need at least one element, got n={n}")
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


def _hex_ids(tokens: list[str]) -> array:
    """The ids of a ``HEX`` line's id tokens: none, or one token of 8 hex
    digits per id, each a little-endian unsigned 32-bit word; ValueError
    otherwise.  Callers check the id count."""
    if len(tokens) > 1:
        raise ValueError("more than one id token")
    ids = array(_U32, bytes.fromhex(tokens[0] if tokens else ""))
    if sys.byteorder == "big":
        ids.byteswap()
    return ids


def serve(ranks: list[int], infile, outfile) -> None:
    """Answer protocol queries until EOF for the order where ``ranks[i]``
    is the rank of id ``i``, a permutation of 1..n.

    Every input line gets exactly one reply line, ``ERR ...`` for any
    invalid one.  The session is basic until an accepted ``INIT`` makes
    it full, and each accepted ``INIT`` starts a new one.
    """
    full = False
    for raw in infile:
        parts = raw.split()
        op = parts[0] if parts else ""
        if not op:
            answer = "ERR empty line"
        elif op == "INIT":
            answer = _answer_init(parts, len(ranks))
            if answer.startswith("OK"):
                full = len(parts) > 2
        elif op in ("L", "R"):
            answer = _answer_test(op == "L", parts, ranks, full)
        elif op in ("BL", "BR", "DL", "DR") and not full:
            answer = f"ERR {op} needs a full session"
        elif op in ("BL", "BR"):
            answer = _answer_batch(op == "BL", parts, ranks)
        elif op in ("DL", "DR"):
            answer = _answer_descent(op == "DL", parts, ranks)
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


def _operands(parts: list[str], ranks: list[int], full: bool) -> tuple[int, list[int]] | str:
    """The rank of u and the ranks of the ids of a ``<op> <u> <m> <ids>``
    line, or the ``ERR`` reply to it: one HEX token of ids in a full
    session, decimal ones in a basic session."""
    n = len(ranks)
    tokens = parts[3:]
    try:
        u = _integer(parts[1])
        m = _integer(parts[2])
        ids = _hex_ids(tokens) if full else [_integer(tok) for tok in tokens]
    except (IndexError, ValueError):
        return "ERR malformed query"
    if m != len(ids):
        return f"ERR id count mismatch: declared {m}, got {len(ids)}"
    if not 0 <= u < n:
        return "ERR element id out of range"
    # hex ids are unsigned; a negative decimal one would index from the end
    if not full and min(ids, default=0) < 0:
        return "ERR element id out of range"
    try:
        found = [ranks[v] for v in ids]
    except IndexError:
        return "ERR element id out of range"
    return ranks[u], found


def _answer_test(left: bool, parts: list[str], ranks: list[int], full: bool) -> str:
    """The reply to one ``L``/``R`` line, split into ``parts``."""
    operands = _operands(parts, ranks, full)
    if isinstance(operands, str):
        return operands
    ru, found = operands
    if left:
        return "Y" if max(found, default=0) >= ru else "N"
    return "Y" if min(found, default=len(ranks) + 1) <= ru else "N"


def _answer_descent(left: bool, parts: list[str], ranks: list[int]) -> str:
    """The reply to one ``DL``/``DR`` line of a full session, split into
    ``parts``: the first position whose id satisfies the test, or m - 1 if
    none does."""
    operands = _operands(parts, ranks, True)
    if isinstance(operands, str):
        return operands
    ru, found = operands
    if not found:
        return "ERR malformed descent: no ids"
    hits = map(ru.__le__ if left else ru.__ge__, found)
    return str(next(compress(count(), hits), len(found) - 1))


def _answer_batch(left: bool, parts: list[str], ranks: list[int]) -> str:
    """The reply to one ``BL``/``BR`` line of a full session, split into
    ``parts``."""
    n = len(ranks)
    try:
        u, n_eff, rows, width = map(_integer, parts[1:5])
        ids = _hex_ids(parts[5:])
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
    # a dummy's sentinel rank fails the comparison in either direction
    sentinel = 0 if left else n + 1
    # the ranks padded with sentinels, at most to 2n: padding never takes
    # more than n slots, and the ids past it take the path below
    table = ranks + [sentinel] * (min(n_eff, 2 * n) - n)
    try:
        found = [table[v] for v in ids]
    except IndexError:
        if any(v >= n_eff for v in ids):
            return f"ERR batch id outside padded universe of size {n_eff}"
        found = [ranks[v] if v < n else sentinel for v in ids]
    ru = ranks[u]
    # the ranks of each row: one iterator zipped width times with itself
    by_row = zip(*[iter(found)] * width)
    if left:
        return "".join(["Y" if top >= ru else "N" for top in map(max, by_row)])
    return "".join(["Y" if low <= ru else "N" for low in map(min, by_row)])


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
    sys.exit(main())
