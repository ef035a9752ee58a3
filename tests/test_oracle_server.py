"""Tests for the reference server's numpy-free instance, its full-session
fast path and its command line."""

import io
import itertools
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gtorder
from gtorder import InvalidParameterError, make_instance
from gtorder.oracle_server import _below, _hex_ids, instance_ranks, main, serve

# sizes just above a power of two make the shuffle reject most draws
SIZES = (1, 2, 3, 255, 256, 257, 1000, 4096, 4097)
# one 32-bit word, two words, the 64-bit edges, and seeds make_instance
# masks to 64 bits
SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, -1, 2**70 + 5)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("seed", SEEDS)
def test_instance_ranks_equal_make_instance(n, seed):
    assert instance_ranks(n, seed) == make_instance(n, seed).ranks.tolist()


@given(n=st.integers(1, 3000), seed=st.integers(-(2**70) + 1, 2**70 - 1))
@settings(max_examples=100, deadline=None)
def test_instance_ranks_equal_make_instance_anywhere(n, seed):
    assert instance_ranks(n, seed) == make_instance(n, seed).ranks.tolist()


@pytest.mark.parametrize("n", [0, -1])
def test_instance_ranks_reject_empty_universes(n):
    with pytest.raises(InvalidParameterError):
        instance_ranks(n, 0)


def test_package_serve_is_the_reference_server():
    assert gtorder.serve is serve


@pytest.mark.parametrize("n", ["0", "-3"])
def test_universe_below_one_is_a_usage_error(n):
    run = subprocess.run([sys.executable, "-m", "gtorder.oracle_server", "--n", n],
                         input="INIT 1\n", capture_output=True, text=True, timeout=60)
    assert run.returncode == 2
    assert run.stdout == ""
    assert run.stderr.splitlines() == [f"oracle_server.py: error: --n must be at least 1, got {n}"]


def test_server_exits_at_eof_with_every_reply_and_no_teardown():
    # an atexit hook runs only in the interpreter's teardown, which the
    # server skips once its output is flushed
    script = ("import atexit, runpy, sys\n"
              "atexit.register(lambda: sys.stderr.write('teardown\\n'))\n"
              "sys.argv = ['oracle_server', '--n', '8', '--seed', '3']\n"
              "runpy.run_module('gtorder.oracle_server', run_name='__main__')\n")
    queries = [(u, v) for u in range(8) for v in range(8)]
    lines = ["INIT 8", *(f"R {u} 1 {v}" for u, v in queries)]
    run = subprocess.run([sys.executable, "-c", script], input="\n".join(lines) + "\n",
                         capture_output=True, text=True, timeout=60)
    ranks = instance_ranks(8, 3)
    assert run.returncode == 0
    assert run.stderr == ""
    assert run.stdout.splitlines() == ["OK", *("Y" if ranks[v] <= ranks[u] else "N"
                                               for u, v in queries)]


def test_server_ends_quietly_when_the_client_stops_reading():
    server = subprocess.Popen([sys.executable, "-m", "gtorder.oracle_server", "--n", "8"],
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE)
    server.stdout.close()
    _, stderr = server.communicate(b"INIT 8\nR 3 1 0\n", timeout=60)
    assert server.returncode == 0
    assert stderr == b""


def test_main_returns_to_an_in_process_caller(monkeypatch):
    stdout = io.TextIOWrapper(io.BytesIO())
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"INIT 4\nR 0 1 0\n")))
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["--n", "4"]) == 0
    stdout.seek(0)
    assert stdout.read() == "OK\nY\n"


def hexed(ids):
    return "".join(v.to_bytes(4, "little").hex() for v in ids)


def full_session(ranks, *lines):
    """The replies of a full session over ``ranks`` to ``lines``."""
    out = io.StringIO()
    text = "".join(f"{line}\n" for line in [f"INIT {len(ranks)} BATCH WALK HEX", *lines])
    serve(ranks, io.StringIO(text), out)
    replies = out.getvalue().splitlines()
    assert replies[0] == "OK BATCH WALK HEX"
    return replies[1:]


# 32-bit ids with bit 31 set: past every bound but the largest
BAD_IDS = (2**31, 2**32 - 1)
RANGE_BOUNDS = (1, 2, 1000, 2**31 - 1, 2**31, 2**31 + 1, 2**32 - 1, 2**32)


@pytest.mark.parametrize("bound", RANGE_BOUNDS)
def test_range_check_takes_ids_up_to_bound_minus_one(bound):
    values = sorted(v for v in {0, bound - 1, bound, 2**31 - 1, *BAD_IDS} if v < 2**32)
    # one id, and two or many ids with the largest one first, last or in the middle
    lines = [[v] for v in values] + [list(pair) for pair in itertools.product(values, repeat=2)]
    lines += [[bound - 1] * 50 + [v] + [0] * 50 for v in values]
    for ids in lines:
        raw, decoded = _hex_ids([hexed(ids)])
        assert list(decoded) == ids
        assert _below(raw, decoded, bound) == (max(ids) < bound), (bound, ids)


@pytest.mark.parametrize("bound", RANGE_BOUNDS)
def test_range_check_takes_an_empty_token(bound):
    raw, ids = _hex_ids([])
    assert raw == b"" and len(ids) == 0
    assert _below(raw, ids, bound)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_rows_of_dummies_never_hit_at_either_end_of_the_order(n):
    # a dummy's sentinel is one step from a hit where u has rank 1 or n,
    # and ids from 2n on read the table's slot n
    ranks = instance_ranks(n, 3)
    for n_eff in (n + 1, 2 * n, 2 * n + 3):
        dummies = list(range(n, n_eff))
        for op in ("BL", "BR"):
            for u in (ranks.index(1), ranks.index(n)):
                replies = full_session(ranks, f"{op} {u} {n_eff} {len(dummies)} 1 {hexed(dummies)}",
                                       f"{op} {u} {n_eff} 1 {len(dummies)} {hexed(dummies)}")
                assert replies == ["N" * len(dummies), "N"], (op, u, n_eff)


def brute_force_reply(ranks, op, u, ids, n_eff, width):
    """The reply to a well-formed full-session line, from the rank of
    every id: ids from n on are dummies of a batch, up to n_eff."""
    n = len(ranks)
    batch = op in ("BL", "BR")
    if any(v >= (n_eff if batch else n) for v in ids):
        return (f"ERR batch id outside padded universe of size {n_eff}" if batch
                else "ERR element id out of range")
    if op.endswith("L"):
        hits = [v < n and ranks[v] >= ranks[u] for v in ids]
    else:
        hits = [v < n and ranks[v] <= ranks[u] for v in ids]
    if batch:
        return "".join("Y" if any(hits[at:at + width]) else "N"
                       for at in range(0, len(hits), width))
    if op in ("WL", "WR"):
        ends = walk_ends(ranks, u, ids, op == "WL")
        return "" if ends is None else " ".join(map(str, ends)) or "N"
    return "Y" if any(hits) else "N"


def walk_ends(ranks, u, ids, left):
    """Where the rounds of a walk over ``ids`` from u end, round by round:
    a descent to the first id that satisfies the test, a test of that id
    w against the rest and the subject, and a swap; none when no id
    satisfies the first test, and None when a round ends at or before
    the one before it."""
    def hit(v, subject):
        return ranks[v] >= ranks[subject] if left else ranks[v] <= ranks[subject]

    ids, ends = list(ids), []
    if not any(hit(v, u) for v in ids):
        return ends
    while True:
        hits = [hit(v, u) for v in ids]
        p = hits.index(True)  # the test before this round found a hit
        if ends and p <= ends[-1]:
            return None
        ends.append(p)
        w = ids[p]
        if not any(hit(v, w) for v in ids[:p] + ids[p + 1:] + [u]):
            return ends
        ids[p], u = u, w


@st.composite
def full_session_lines(draw):
    """A rank list and a line of one of the six ops, its ids in range but
    for a few bad ones anywhere, before or after the first hit."""
    n = draw(st.integers(1, 300))
    ranks = list(range(1, n + 1))
    # a seeded shuffle draws faster than st.permutations
    random.Random(draw(st.integers(0, 2**32 - 1))).shuffle(ranks)
    op = draw(st.sampled_from(["L", "R", "WL", "WR", "BL", "BR"]))
    # a dummy's sentinel is closest to a hit at the subjects of rank 1 and n
    u = draw(st.integers(0, n - 1) | st.sampled_from((ranks.index(1), ranks.index(n))))
    # padded sizes past 2n are rare among n..2n+3 at large n: draw them often
    n_eff = draw(st.integers(n, 2 * n + 3) | st.sampled_from((n, 2 * n, 2 * n + 1, 2 * n + 3)))
    rows = width = None
    if op in ("BL", "BR"):
        rows, width = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        count = rows * width
    else:
        count = draw(st.integers(1 if op.startswith("W") else 0, 24))
    bound = n_eff if rows else n
    # ids at the edges: the last real id, the first dummy, the last dummy
    # a 2n table holds, the first past it and the last in range
    edges = sorted(v for v in {n - 1, n, 2 * n - 1, 2 * n, n_eff - 1} if v < bound)
    ids = draw(st.lists(st.integers(0, bound - 1) | st.sampled_from(edges),
                        min_size=count, max_size=count))
    for _ in range(draw(st.integers(0, 2)) if ids else 0):
        ids[draw(st.integers(0, count - 1))] = draw(st.sampled_from((n, n_eff, *BAD_IDS)))
    head = f"{op} {u} {n_eff} {rows} {width}" if rows else f"{op} {u} {count}"
    line = f"{head} {hexed(ids)}".rstrip()
    return ranks, line, brute_force_reply(ranks, op, u, ids, n_eff, width)


@given(case=full_session_lines())
@settings(max_examples=500, deadline=None)
def test_full_session_replies_equal_a_brute_force_scan(case):
    ranks, line, expected = case
    assert full_session(ranks, line) == [expected]
