"""Tests for the parameter rules and the entry points that use them.

Every integer size, rank and id is checked by ``check_integer`` (a
Python or numpy integer, not a bool, in a range), every delta and
epsilon by ``check_unit`` (a real number in (0,1), not NaN), and the
threshold test's target rank r by ``check_open`` (a real, not a bool, in
(0, n)).  A bad value raises InvalidParameterError before any group test
is asked.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from gtorder import (
    CountingOracle,
    InstanceOracle,
    InvalidParameterError,
    approximate_rank,
    approximate_select,
    derive_params,
    draw_candidate,
    exact_rank,
    make_instance,
    min_find,
    rank_at_most,
    select_params,
)
from gtorder.errors import check_integer, check_open, check_unit
from gtorder.harness import ExperimentConfig, run_experiment, validate_config
from gtorder.oracle import _check_subject
from gtorder.oracle_server import instance_ranks

INTEGERS = (0, 3, 7, np.int64(3), np.uint8(3), np.int32(7))
NOT_INTEGERS = (True, False, np.bool_(True), 3.0, 2.5, np.float64(3.0), "3", None,
                Fraction(3), [3])
NOT_UNIT = (float("nan"), 0.0, 1.0, 0, 1, -0.5, 1.5, float("inf"), True, "0.5", None)


@pytest.mark.parametrize("value", INTEGERS)
def test_integers_in_range_pass(value):
    check_integer("id", value, 0, 7)
    check_integer("id", value, 0)


@pytest.mark.parametrize("value", NOT_INTEGERS)
def test_non_integers_fail(value):
    with pytest.raises(InvalidParameterError, match="id must be an integer"):
        check_integer("id", value, 0, 7)


@pytest.mark.parametrize("value, low, high", [(-1, 0, 7), (8, 0, 7), (0, 1, None),
                                              (np.int64(-1), 0, None)])
def test_integers_out_of_range_fail(value, low, high):
    with pytest.raises(InvalidParameterError):
        check_integer("id", value, low, high)


@pytest.mark.parametrize("value", [*INTEGERS, *NOT_INTEGERS, -1, 8, 2**70])
def test_the_subject_check_is_the_integer_rule(value):
    def verdict(check):
        try:
            check()
        except InvalidParameterError:
            return False
        return True

    assert verdict(lambda: _check_subject(value, 8)) == verdict(
        lambda: check_integer("subject", value, 0, 7))


@pytest.mark.parametrize("value", [0.5, 1e-9, 1 - 1e-9, np.float32(0.25), Fraction(1, 3)])
def test_unit_values_pass(value):
    check_unit(delta=value, epsilon=value)


@pytest.mark.parametrize("value", NOT_UNIT)
def test_non_unit_values_fail(value):
    with pytest.raises(InvalidParameterError, match="epsilon must lie in"):
        check_unit(delta=0.5, epsilon=value)


# target ranks r for n = 16: inside (0, 16), and not (bools, strings,
# NaN, infinities, the ends)
TARGETS = (0.5, 1, 4.0, 15.5, np.float64(8), np.int64(3), Fraction(7, 2))
NOT_TARGETS = (True, False, np.bool_(True), "5", None, [4], complex(4), float("nan"),
               float("inf"), -float("inf"), 0, 0.0, 16, 16.0, -1)


@pytest.mark.parametrize("value", TARGETS)
def test_open_interval_values_pass(value):
    check_open("r", value, 0, 16)


@pytest.mark.parametrize("value", NOT_TARGETS)
def test_values_outside_the_open_interval_fail(value):
    with pytest.raises(InvalidParameterError, match=r"r must lie in \(0,16\)"):
        check_open("r", value, 0, 16)


N = 16


@pytest.fixture
def oracle():
    return CountingOracle(InstanceOracle(make_instance(N, 3)))


def rng():
    return np.random.default_rng(0)


def raises_before_any_query(oracle, call, match=None):
    with pytest.raises(InvalidParameterError, match=match):
        call()
    assert oracle.ledger.total == 0


# bad integers and sizes, each at one entry point
BAD_INTEGER_CALLS = {
    "min_find n=2.5": lambda o: min_find(o, 2.5, rng()),
    "min_find n=True": lambda o: min_find(o, True, rng()),
    "approximate_select k=2.5": lambda o: approximate_select(o, N, 2.5, 0.5, 0.2, rng()),
    "approximate_select k=True": lambda o: approximate_select(o, N, True, 0.5, 0.2, rng()),
    "approximate_select n=16.0": lambda o: approximate_select(o, 16.0, 2, 0.5, 0.2, rng()),
    "draw_candidate k=2.5": lambda o: draw_candidate(o, N, 2.5, 0.5, rng()),
    "draw_candidate k=True": lambda o: draw_candidate(o, N, True, 0.5, rng()),
    "rank_at_most x=1.0": lambda o: rank_at_most(o, 1.0, 4, 0.5, 0.2, rng()),
    "approximate_rank x=1.0": lambda o: approximate_rank(o, 1.0, 0.5, 0.2, rng()),
}


@pytest.mark.parametrize("name", sorted(BAD_INTEGER_CALLS))
def test_bad_integers_raise_before_any_query(oracle, name):
    raises_before_any_query(oracle, lambda: BAD_INTEGER_CALLS[name](oracle))


def test_a_float_id_is_not_ranked_in_a_universe_of_one():
    single = CountingOracle(InstanceOracle(make_instance(1, 0)))
    raises_before_any_query(single, lambda: approximate_rank(single, 0.0, 0.5, 0.2, rng()))


@pytest.mark.parametrize("build", [make_instance, instance_ranks])
@pytest.mark.parametrize("n", [2.5, 0, True, "4"])
def test_instances_need_an_integer_size(build, n):
    with pytest.raises(InvalidParameterError):
        build(n, 0)


@pytest.mark.parametrize("call", [lambda i: exact_rank(i, 1.0), lambda i: exact_rank(i, True),
                                  lambda i: i.element_with_rank(2.0),
                                  lambda i: i.element_with_rank(N + 1)])
def test_instance_lookups_need_integers(call):
    with pytest.raises(InvalidParameterError):
        call(make_instance(N, 0))


# every entry point that takes delta or epsilon, as a call of both
BAND_CALLS = {
    "derive_params": lambda o, d, e: derive_params(N, 4, d, e),
    "rank_at_most": lambda o, d, e: rank_at_most(o, 3, 4, d, e, rng()),
    "approximate_rank": lambda o, d, e: approximate_rank(o, 3, d, e, rng()),
    "approximate_rank n=1": lambda o, d, e: approximate_rank(
        CountingOracle(InstanceOracle(make_instance(1, 0))), 0, d, e, rng()),
    "select_params": lambda o, d, e: select_params(4, d, e),
    "approximate_select": lambda o, d, e: approximate_select(o, N, 4, d, e, rng()),
    "validate_config": lambda o, d, e: validate_config(ExperimentConfig(
        "rank", N, 1, 0, delta=d, epsilon=e)),
}


@pytest.mark.parametrize("name", sorted(BAND_CALLS))
@pytest.mark.parametrize("bad", NOT_UNIT)
@pytest.mark.parametrize("which", ["delta", "epsilon"])
def test_delta_and_epsilon_outside_0_1_are_rejected_everywhere(oracle, name, bad, which):
    delta, epsilon = (bad, 0.2) if which == "delta" else (0.5, bad)
    raises_before_any_query(oracle, lambda: BAND_CALLS[name](oracle, delta, epsilon))


# in (0,1) but too small for a trial count or round budget of at most
# 2**32: delta**2 is 0 at 1e-300, the count overflows a float at 1e-160,
# and at 1e-12 it is finite but about 1e26
@pytest.mark.parametrize("name", ["derive_params", "rank_at_most", "approximate_rank",
                                  "select_params", "approximate_select"])
@pytest.mark.parametrize("delta", [1e-300, 1e-160, 1e-12])
def test_delta_too_small_for_a_finite_count_is_rejected(oracle, name, delta):
    raises_before_any_query(oracle, lambda: BAND_CALLS[name](oracle, delta, 0.2), match="delta")


@pytest.mark.parametrize("name", ["derive_params", "rank_at_most", "select_params",
                                  "approximate_select"])
def test_epsilon_too_small_for_a_finite_count_is_rejected(oracle, name):
    # ln(1/epsilon) is infinite, and selection's per-test budget
    # epsilon / (max_rounds + 1) underflows to 0
    raises_before_any_query(oracle, lambda: BAND_CALLS[name](oracle, 0.5, 5e-324),
                            match="epsilon 5e-324")


def test_a_selection_whose_screens_ask_too_many_trials_is_rejected():
    # 32 / delta^2 rounds fit, but each screen would ask about 2e10
    # trials; at k = 2 of 4096 a candidate is min-found, with queries
    big = CountingOracle(InstanceOracle(make_instance(4096, 0)))
    raises_before_any_query(big, lambda: approximate_select(big, 4096, 2, 1e-3, 0.2, rng()),
                            match="delta 0.001 and epsilon 0.2")


@pytest.mark.parametrize("delta", [1e-300, 1e-12])
def test_run_experiment_rejects_a_delta_too_small_for_a_finite_count(delta):
    config = ExperimentConfig("testle", N, 2, 0, r=4.0, delta=delta, epsilon=0.2)
    with pytest.raises(InvalidParameterError, match="delta"):
        run_experiment(config)


@pytest.mark.parametrize("bad", NOT_TARGETS)
def test_testle_target_rank_has_one_rule(oracle, bad):
    raises_before_any_query(oracle, lambda: rank_at_most(oracle, 3, bad, 0.5, 0.2, rng()))
    config = ExperimentConfig("testle", N, 1, 0, r=bad, delta=0.5, epsilon=0.2)
    with pytest.raises(InvalidParameterError):
        validate_config(config)


@pytest.mark.parametrize("bad", NOT_UNIT)
def test_draw_candidate_rejects_delta_outside_0_1(oracle, bad):
    raises_before_any_query(oracle, lambda: draw_candidate(oracle, N, 2, bad, rng()))


@pytest.mark.parametrize("fields", [
    dict(algorithm="minfind", n=2.5),
    dict(algorithm="minfind", n=True),
    dict(algorithm="minfind", n=16, trials=1.0),
    dict(algorithm="minfind", n=16, workers=2.0),
    dict(algorithm="select", n=16, k=10.5, delta=0.5, epsilon=0.2),
    dict(algorithm="select", n=16, k=True, delta=0.5, epsilon=0.2),
    dict(algorithm="rank", n=16, x_rank=True, delta=0.5, epsilon=0.2),
    dict(algorithm="testle", n=16, r=4.0, x_rank=2.0, delta=0.5, epsilon=0.2),
    dict(algorithm="testle", n=16, r=math.nan, delta=0.5, epsilon=0.2),
    # a config holds plain numbers, but a float is still no integer, a
    # Fraction too large for a float stays a Fraction, and np.bool_ no bool
    dict(algorithm="minfind", n=np.float64(16.0)),
    dict(algorithm="testle", n=16, r=Fraction(10**400), delta=0.5, epsilon=0.2),
    dict(algorithm="minfind", n=16, fixed_instance=np.bool_(True)),
    # a field the algorithm does not take
    dict(algorithm="minfind", n=16, delta=0.5),
    dict(algorithm="rank", n=16, k=3, delta=0.5, epsilon=0.2),
    dict(algorithm="select", n=16, k=3, x_rank=2, delta=0.5, epsilon=0.2),
])
def test_validate_config_applies_the_rules(fields):
    config = ExperimentConfig(**{"trials": 2, "seed": 0, **fields})
    with pytest.raises(InvalidParameterError):
        validate_config(config)
    with pytest.raises(InvalidParameterError):
        run_experiment(config)
