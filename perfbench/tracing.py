"""Call-site tracing for the gtorder benchmark.

Nothing in ``src/gtorder`` is edited.  For the length of one traced pass
the tracer replaces, at the modules that call them, the public entry
points of each layer with wrappers that record a span (name, start, end,
parent, trial id), and it wraps the ``left_test``/``right_test`` methods
of the oracle classes and ``ExternalOracle._exchange``, the one round
trip of the line protocol.  Everything is restored afterwards.

Oracle calls are far too many to keep as spans (a selection trial makes
~35k group tests through two adapters), so each one is folded into its
enclosing span instead: the outermost oracle call of a chain is timed and
its time is added to the enclosing span's child time and to the oracle
layer; adapter and base calls are counted.  A span's self time is its
duration minus its children's, so the self times of all spans plus the
oracle time add up to the root spans' time.  The roots
(``run_experiment`` and ``write_report``) catch whatever no layer span
does, so coverage counts every self time but theirs.
"""

from __future__ import annotations

import inspect
import json
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from gtorder import apxrank, harness, minfind, selection
from gtorder.external import ExternalOracle
from gtorder.oracle import GroupTestOracle, InstanceOracle

# (owner, attribute) call sites wrapped in a traced pass
CALL_SITES = (
    (harness, "make_instance"),
    (harness, "render_csv"),
    (harness, "exact_rank"),
    (harness, "summarize"),
    (harness, "InstanceOracle"),
    (harness, "ExternalOracle"),
    (harness, "min_find"),
    (harness, "max_find"),
    (harness, "rank_at_most"),
    (harness, "approximate_rank"),
    (harness, "approximate_select"),
    (selection, "draw_candidate"),
    (selection, "min_find_among"),
    (selection, "rank_at_most"),
    (minfind, "min_find_among"),
    (minfind, "swap"),
    (apxrank, "rank_at_most"),
    (ExternalOracle, "close"),
)

# the harness calls one of these per trial
ENTRY_POINTS = ("min_find", "max_find", "rank_at_most", "approximate_rank",
                "approximate_select")

# spans opened by the benchmark itself; their self time is unattributed
ROOTS = ("run_experiment", "write_report")
HARNESS_SPANS = ROOTS + ("make_instance", "render_csv", "exact_rank", "summarize")


def _oracle_classes() -> tuple[list[type], list[type]]:
    """Base oracles (the answer) and the library's adapter classes."""
    bases = [InstanceOracle, ExternalOracle]
    adapters = []
    pending = list(GroupTestOracle.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if cls not in bases and cls.__module__.startswith("gtorder."):
            adapters.append(cls)
    return bases, adapters


@contextmanager
def patched(replacements):
    """Set ``owner.name = value`` for each triple; restore on exit."""
    missing = object()
    saved = []
    try:
        for owner, name, value in replacements:
            saved.append((owner, name, vars(owner).get(name, missing)))
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, old in reversed(saved):
            if old is missing:
                delattr(owner, name)
            else:
                setattr(owner, name, old)


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.trials: list[int] = []
        self.child: list[float] = []
        self.queries: list[int] = []  # base oracle calls made directly under each span
        self.stack: list[int] = []
        self.trial = -1
        self._trial_open = False
        self.algorithm = ""  # of the job being traced
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.busy: defaultdict[str, float] = defaultdict(float)
        # query round trips of the line protocol, by algorithm
        self.trip_s: defaultdict[str, float] = defaultdict(float)
        self.trips: defaultdict[str, int] = defaultdict(int)
        self._depth = 0
        self._base = ""
        self._select_k = 0.0

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.trials.append(self.trial)
        self.child.append(0.0)
        self.queries.append(0)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, start: float, end: float) -> None:
        self.stack.pop()
        self.starts[idx] = start
        self.ends[idx] = end
        parent = self.parents[idx]
        if parent >= 0:
            self.child[parent] += end - start

    def _next_trial(self, name: str) -> None:
        # a builtin trial starts with make_instance, an external one with
        # its entry point; both open the same trial id
        if name == "make_instance":
            self.trial += 1
            self._trial_open = True
        elif self._trial_open:
            self._trial_open = False
        else:
            self.trial += 1

    def span(self, name: str, fn, entry: bool = False):
        """Wrap ``fn`` so that each call records a span named ``name``."""
        observe = getattr(self, "_observe_" + name, None)
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            if entry or name == "make_instance":
                self._next_trial(name)
            if name == "approximate_select":
                # the screens target k, or n - k + 1 under reversal
                bound = signature.bind(*args, **kwargs).arguments
                n, k = bound["n"], bound["k"]
                self._select_k = k if k <= n / 2 else n - k + 1
            idx = self._open(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(signature.bind(*args, **kwargs).arguments, result)
                return result
            finally:
                self._close(idx, start, perf_counter())

        return wrapper

    # -- observations from arguments and results ------------------------------

    def _observe_rank_at_most(self, args, outcome) -> None:
        c = self.counts
        params = outcome.params
        n = args["oracle"].size
        c["ranktest.calls"] += 1
        c["ranktest.trials"] += params.trials
        c["ranktest.reversed"] += args["r"] >= n / 2 + 0.5
        sampled = params.trials * params.sample_size
        c["ranktest.sampled_ids"] += sampled
        c["ranktest.dummy_ids"] += sampled * (params.n_eff - n) / params.n_eff
        parent = self.parents[self.stack[-1]]
        if parent >= 0 and self.names[parent] == "approximate_select":
            upper = args["r"] > self._select_k
            c["selection.screens"] += 1
            c["selection.screens_passed"] += outcome.answer if upper else not outcome.answer

    def _observe_approximate_select(self, args, outcome) -> None:
        self.counts["selection.trials"] += 1
        self.counts["selection.rounds"] += outcome.rounds_used
        self.counts["selection.found"] += outcome.found

    def _observe_approximate_rank(self, args, estimate) -> None:
        self.counts["apxrank.estimates"] += 1
        self.counts["apxrank.levels"] += estimate.calls

    # -- oracle methods ------------------------------------------------------

    def _oracle_method(self, fn, kind: str):
        """``kind`` is "adapter", "builtin" or "external"."""
        t = self

        def method(obj, u, V):
            outer = t._depth == 0
            t._depth += 1
            if kind == "adapter":
                t.counts["oracle.adapter_calls"] += 1
            else:
                t._base = kind
                t.counts[kind + ".calls"] += 1
                t.queries[t.stack[-1]] += 1
                if kind == "builtin":
                    t.counts["builtin.ids"] += len(V)
            if not outer:
                try:
                    return fn(obj, u, V)
                finally:
                    t._depth -= 1
            start = perf_counter()
            try:
                return fn(obj, u, V)
            finally:
                elapsed = perf_counter() - start
                t._depth = 0
                t.child[t.stack[-1]] += elapsed
                t.busy[t._base] += elapsed

        return method

    def _exchange_method(self, fn):
        """Count the bytes of each query line and its reply as they go on
        the wire (with their newlines), and time the round trip.  The
        ``INIT`` of a spawn is left out."""
        t = self

        def exchange(obj, line):
            start = perf_counter()
            reply = fn(obj, line)
            elapsed = perf_counter() - start
            if t.names[t.stack[-1]] != "ExternalOracle":
                t.counts["external.bytes"] += len(line) + len(reply) + 2
                t.trip_s[t.algorithm] += elapsed
                t.trips[t.algorithm] += 1
            return reply

        return exchange

    def installed(self):
        """Context in which every call site and oracle method is traced."""
        replacements = []
        for module, name in CALL_SITES:
            fn = getattr(module, name, None)
            if fn is not None:
                replacements.append((module, name, self.span(
                    name, fn, entry=module is harness and name in ENTRY_POINTS)))
        bases, adapters = _oracle_classes()
        for cls in bases + adapters:
            kind = ("adapter" if cls in adapters
                    else "external" if cls is ExternalOracle else "builtin")
            for name in ("left_test", "right_test"):
                if name in vars(cls):
                    replacements.append((cls, name, self._oracle_method(vars(cls)[name], kind)))
        replacements.append((ExternalOracle, "_exchange",
                             self._exchange_method(ExternalOracle._exchange)))
        return patched(replacements)

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        totals: defaultdict[str, float] = defaultdict(float)
        for name, start, end, child in zip(self.names, self.starts, self.ends, self.child):
            totals[name] += (end - start) - child
        return totals

    def metrics(self, traced_raw_wall: float, traced_wall: float,
                untraced_wall: float, external_queries: int) -> dict[str, float]:
        """Per-layer metrics.  Span times are raw; the overhead compares
        the two passes' scaled wall times (see ``run.cpu_scale``).
        ``external_queries`` is the ledger total of the external jobs."""
        c = self.counts
        own = self.self_times()
        durations: defaultdict[str, float] = defaultdict(float)
        queries_under: defaultdict[str, int] = defaultdict(int)
        spawn = []
        for name, start, end, q in zip(self.names, self.starts, self.ends, self.queries):
            durations[name] += end - start
            queries_under[name] += q
            if name == "ExternalOracle":
                spawn.append(end - start)
        swaps = self.names.count("swap")

        def ratio(a, b):
            return a / b if b else 0.0

        builtin_calls = c["builtin.calls"]
        all_calls = builtin_calls + c["external.calls"]
        covered = (sum(t for name, t in own.items() if name not in ROOTS)
                   + self.busy["builtin"] + self.busy["external"])
        return {
            "oracle.calls": builtin_calls,
            "oracle.ids_per_call": ratio(c["builtin.ids"], builtin_calls),
            "oracle.busy_s": self.busy["builtin"],
            "oracle.build_s": durations["InstanceOracle"],
            "oracle.us_per_call": 1e6 * ratio(self.busy["builtin"], builtin_calls),
            "oracle.adapter_calls_per_query": ratio(c["oracle.adapter_calls"], all_calls),
            "ranktest.calls": c["ranktest.calls"],
            "ranktest.trials_per_call": ratio(c["ranktest.trials"], c["ranktest.calls"]),
            "ranktest.self_s": own["rank_at_most"],
            "ranktest.us_per_trial": 1e6 * ratio(own["rank_at_most"], c["ranktest.trials"]),
            "ranktest.reversed_share": ratio(c["ranktest.reversed"], c["ranktest.calls"]),
            "ranktest.dummy_share_computed": ratio(c["ranktest.dummy_ids"],
                                                   c["ranktest.sampled_ids"]),
            "minfind.swaps": swaps,
            "minfind.queries_per_swap": ratio(queries_under["swap"], swaps),
            "minfind.self_s": own["min_find"] + own["max_find"] + own["min_find_among"],
            "minfind.swap_self_s": own["swap"],
            "apxrank.levels_per_estimate": ratio(c["apxrank.levels"], c["apxrank.estimates"]),
            "apxrank.self_s": own["approximate_rank"],
            "selection.rounds_per_trial": ratio(c["selection.rounds"], c["selection.trials"]),
            "selection.screen_pass_ratio": ratio(c["selection.screens_passed"],
                                                 c["selection.screens"]),
            "selection.accept_ratio": ratio(c["selection.found"], c["selection.rounds"]),
            "selection.self_s": own["approximate_select"],
            "selection.draw_self_s": own["draw_candidate"],
            "external.spawn_s": statistics.median(spawn) if spawn else 0.0,
            "external.busy_s": self.busy["external"],
            "external.round_trip_us.testle": 1e6 * ratio(self.trip_s["testle"],
                                                         self.trips["testle"]),
            "external.round_trip_us.minfind": 1e6 * ratio(self.trip_s["minfind"],
                                                          self.trips["minfind"]),
            "external.bytes_per_query": ratio(c["external.bytes"], external_queries),
            "harness.instance_s": durations["make_instance"],
            "harness.render_s": durations["render_csv"],
            "harness.self_s": sum(own[name] for name in HARNESS_SPANS),
            "trace.overhead_share": ratio(traced_wall - untraced_wall, untraced_wall),
            "trace.coverage": ratio(covered, traced_raw_wall),
        }

    def entry_calls(self) -> int:
        return sum(1 for name, parent in zip(self.names, self.parents)
                   if name in ENTRY_POINTS and parent >= 0
                   and self.names[parent] == "run_experiment")

    def write(self, path, origin: float) -> None:
        """Write every span, times in seconds from ``origin``."""
        rows = [[name, round(start - origin, 7), round(end - origin, 7), parent, trial]
                for name, start, end, parent, trial
                in zip(self.names, self.starts, self.ends, self.parents, self.trials)]
        with open(path, "w", encoding="ascii") as handle:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "trial"],
                       "spans": rows}, handle, separators=(",", ":"))
            handle.write("\n")
