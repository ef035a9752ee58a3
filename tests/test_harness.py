"""Tests for the experiment runner and report emission."""

import hashlib
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from gtorder import InvalidParameterError, harness, make_instance, verify
from gtorder.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    render_csv,
    render_json,
    run_experiment,
    summarize,
    validate_config,
    write_report,
)


def small_config(**overrides):
    base = dict(algorithm="minfind", n=16, trials=20, seed=1)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_minfind_trials_all_succeed(self):
        reports, summary = run_experiment(small_config(trials=100))
        assert len(reports) == 100
        assert all(r.success for r in reports)
        assert all(r.true_rank == 1 for r in reports)
        assert summary["success_rate"] == 1.0

    def test_maxfind_trials_all_succeed(self):
        reports, _ = run_experiment(small_config(algorithm="maxfind", trials=50))
        assert all(r.true_rank == 16 for r in reports)

    def test_testle_with_pinned_rank(self):
        config = small_config(algorithm="testle", n=1000, trials=500,
                              r=100.0, delta=0.5, epsilon=0.2, x_rank=170)
        reports, summary = run_experiment(config)
        assert all(r.true_rank == 170 for r in reports)
        assert summary["success_rate"] >= 0.76

    def test_rank_reports_estimates(self):
        config = small_config(algorithm="rank", n=64, trials=10,
                              delta=0.4, epsilon=0.2)
        reports, _ = run_experiment(config)
        assert all(r.est_rank is not None for r in reports)
        assert all(1 <= r.est_rank <= 64 for r in reports)

    def test_select_summary_has_return_rate(self):
        config = small_config(algorithm="select", n=150, trials=4,
                              k=30, delta=0.5, epsilon=0.2)
        reports, summary = run_experiment(config)
        assert "return_rate" in summary
        assert all(r.rounds is not None for r in reports)

    def test_non_select_summary_has_no_return_rate(self):
        _, summary = run_experiment(small_config())
        assert "return_rate" not in summary

    def test_fixed_instance_pins_the_element(self):
        config = small_config(algorithm="testle", n=100, trials=10, r=20.0,
                              delta=0.5, epsilon=0.2, x_rank=30,
                              fixed_instance=True)
        reports, _ = run_experiment(config)
        assert len({r.result_id for r in reports}) == 1

    def test_fresh_instances_vary_the_element(self):
        config = small_config(algorithm="testle", n=100, trials=10, r=20.0,
                              delta=0.5, epsilon=0.2, x_rank=30)
        reports, _ = run_experiment(config)
        assert len({r.result_id for r in reports}) > 1

    def test_ledger_conservation(self):
        reports, summary = run_experiment(small_config(trials=50))
        assert summary["total_queries"] == sum(
            r.queries_left + r.queries_right for r in reports
        )

    def test_rerun_is_byte_identical(self):
        config = small_config(algorithm="rank", n=64, trials=5,
                              delta=0.4, epsilon=0.2)
        a, _ = run_experiment(config)
        b, _ = run_experiment(config)
        assert render_csv(config, a) == render_csv(config, b)


# sha256 of render_csv for fixed-instance configs at seed 5: the reports
# that building the instance anew for every trial gives
FIXED_INSTANCE_CSV_SHA256 = {
    "minfind": (dict(algorithm="minfind", n=64, trials=20),
                "2bc988883c459301b3122c1314fbb92a9f5b35e66e15f8163b8d78eee8662989"),
    "maxfind_pool": (dict(algorithm="maxfind", n=64, trials=20, workers=2),
                     "6ac54e1ffd538886b1ddcd07b182160aa2533eecc8198d7e840ca5d804ffc2e1"),
    "testle": (dict(algorithm="testle", n=200, trials=10, r=50, delta=0.5, epsilon=0.2,
                    x_rank=40),
               "859bb6a7fcae39c5d3137025049ce75c636c2e54422512b7b7d1f1edf2c1b677"),
    "rank_pool": (dict(algorithm="rank", n=64, trials=5, delta=0.4, epsilon=0.2, workers=2),
                  "aae02b78c228ac9ae52d78c95e88e192a592608d14ec2b8394e685ff4d9be56a"),
    "select": (dict(algorithm="select", n=150, trials=3, k=30, delta=0.8, epsilon=0.3),
               "2411111692b23c326abc0a17f8dee3843e12da44f6603a2a4fafe171523801b2"),
}


@pytest.mark.parametrize("name", sorted(FIXED_INSTANCE_CSV_SHA256))
def test_fixed_instance_is_built_once_per_config(name, monkeypatch):
    """The trials of a fixed-instance config share one instance, built in
    this process: a pool's forked workers never build one."""
    fields, digest = FIXED_INSTANCE_CSV_SHA256[name]
    config = ExperimentConfig(seed=5, fixed_instance=True, **fields)
    calls, parent = [], os.getpid()
    build = harness.make_instance

    def counted(n, seed):
        assert os.getpid() == parent, "a worker built the fixed instance"
        calls.append((n, seed))
        return build(n, seed)

    monkeypatch.setattr(harness, "make_instance", counted)
    reports, _ = run_experiment(config)
    assert calls == [(config.n, 5)]
    assert hashlib.sha256(render_csv(config, reports).encode()).hexdigest() == digest


def reference_server(n, seed):
    return f"cmd:{sys.executable} -m gtorder.oracle_server --n {n} --seed {seed}"


class TestTrialSeeds:
    """The one-pass seeding against numpy's per-trial SeedSequence."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1, -7])
    def test_bit_for_bit_numpy_seed_sequences(self, seed):
        entropy = seed & (2**64 - 1)
        seeds = harness._trial_seeds(small_config(trials=300, seed=seed))
        for t, (words, instance_words) in enumerate(seeds):
            reference = np.random.SeedSequence(entropy=(entropy, t, 1))
            assert np.array_equal(words, reference.generate_state(4, np.uint64))
            rng = np.random.Generator(np.random.PCG64(harness._SeedWords(words)))
            assert rng.bit_generator.state == np.random.default_rng(reference).bit_generator.state
            instance = np.random.SeedSequence(entropy=(entropy, t, 0))
            instance_seed = int(instance.generate_state(1, np.uint64)[0])
            assert np.array_equal(instance_words, np.random.SeedSequence(
                instance_seed).generate_state(4, np.uint64))

    # below 2**32 an instance seed's entropy is one word, not two
    @pytest.mark.parametrize("seeds", [[0, 1, 2**32 - 1], [2**32, 2**63 + 5, 2**64 - 1],
                                       [0, 2**64 - 1, 1, 2**32, 2**32 - 1]])
    def test_instance_words_pad_short_entropy_exactly(self, seeds):
        words = harness._instance_words(np.array(seeds, dtype=np.uint64))
        assert words.shape == (len(seeds), 4)
        for seed, row in zip(seeds, words):
            reference = np.random.SeedSequence(seed)
            assert np.array_equal(row, reference.generate_state(4, np.uint64))
            assert np.array_equal(make_instance(50, harness._SeedWords(row)).ranks,
                                  make_instance(50, seed).ranks)

    def test_fixed_instance_hashes_no_instance_lane(self, monkeypatch):
        """A fixed-instance or external config builds no fresh instance,
        so it hashes no instance lane."""
        columns = []
        state_words = harness._state_words
        monkeypatch.setattr(harness, "_state_words",
                            lambda entropy: columns.append(entropy.shape[1]) or state_words(entropy))
        fresh = list(harness._trial_seeds(small_config(trials=7)))
        assert columns == [14, 7]
        columns.clear()
        server = reference_server(16, 1)
        others = [list(harness._trial_seeds(small_config(trials=7, **fields)))
                  for fields in (dict(fixed_instance=True), dict(oracle=server),
                                 dict(fixed_instance=True, oracle=server))]
        assert columns == [7, 7, 7]
        for seeds in others:
            assert [s for _, s in seeds] == [None] * 7
            assert all(np.array_equal(a, b) for (a, _), (b, _) in zip(fresh, seeds))

    def test_large_configs_are_seeded_a_chunk_at_a_time(self, monkeypatch):
        columns = []
        state_words = harness._state_words
        monkeypatch.setattr(harness, "_state_words",
                            lambda entropy: columns.append(entropy.shape[1]) or state_words(entropy))
        seeds = harness._trial_seeds(small_config(trials=10**9))
        chunk = harness._SEED_CHUNK
        first = list(itertools.islice(seeds, chunk + 1))
        assert columns == [2 * chunk, chunk, 2 * chunk, chunk]
        last, _ = first[-1]
        reference = np.random.SeedSequence(entropy=(1, chunk, 1)).generate_state(4, np.uint64)
        assert np.array_equal(last, reference)

    @pytest.mark.parametrize("fixed_instance", [False, True])
    @pytest.mark.parametrize("algorithm", ["minfind", "maxfind"])
    def test_worker_pool_gives_the_sequential_reports(self, algorithm, fixed_instance):
        config = small_config(algorithm=algorithm, trials=24, fixed_instance=fixed_instance)
        pool_config = small_config(algorithm=algorithm, trials=24, workers=2,
                                   fixed_instance=fixed_instance)
        serial, _ = run_experiment(config)
        pooled, _ = run_experiment(pool_config)
        assert serial == pooled
        assert render_csv(config, serial) == render_csv(pool_config, pooled)

    # each once raised OverflowError where the seed is taken mod 2**64
    @pytest.mark.parametrize("seed", [np.int64(5), np.int64(-3), np.int64(-2**63), np.uint32(7),
                                      np.uint32(2**32 - 1), np.uint64(5), np.uint64(2**64 - 1)],
                             ids=repr)
    def test_numpy_integer_seeds_run_as_their_python_ints(self, seed):
        assert np.array_equal(make_instance(8, seed).ranks, make_instance(8, int(seed)).ranks)
        for fixed_instance in (False, True):
            config = small_config(trials=3, seed=seed, fixed_instance=fixed_instance)
            twin = small_config(trials=3, seed=int(seed), fixed_instance=fixed_instance)
            assert (render_csv(config, run_experiment(config)[0])
                    == render_csv(twin, run_experiment(twin)[0]))
        assert (verify._rng(seed, 4).bit_generator.state
                == verify._rng(int(seed), 4).bit_generator.state)
        assert verify.ALL_CHECKS["reproducibility"](seed).passed

    def test_trial_indices_stay_one_entropy_word(self):
        validate_config(small_config(trials=2**32))
        for trials in (2**32 + 1, 2**40):
            with pytest.raises(InvalidParameterError, match="trials"):
                validate_config(small_config(trials=trials))


# sha256 of render_csv at seed 0.  Reports must stay byte-identical from
# one change to the next unless the change says why; the values also
# depend on numpy's Generator streams (permutation, integers), so a numpy
# release that changes those streams changes them too.
GOLDEN_CSV_SHA256 = {
    "minfind": (dict(algorithm="minfind", n=64, trials=20),
                "b5cf4acc5d77d5f3641cdaede9fb5caca1553ee17fc23b839045ba9c414230b0"),
    "maxfind": (dict(algorithm="maxfind", n=64, trials=20),
                "5e93971b62bcc4a31bac43ee423ab4722640c2593c82aec76cb4affeac2e2635"),
    "testle_high_target": (dict(algorithm="testle", n=200, trials=10, r=170,
                                delta=0.5, epsilon=0.2),
                           "911eea40ae3294fa999ffd385a61d1c7f948691ebba4e2d698b76fc79377e255"),
    "rank": (dict(algorithm="rank", n=64, trials=5, delta=0.4, epsilon=0.2),
             "b178c639913e5705cd25d995c932b028cd2fd18b36fa642ef0bffae4436399a6"),
    "select_low_target": (dict(algorithm="select", n=150, trials=3, k=30,
                               delta=0.8, epsilon=0.3),
                          "fac65ece21b6653a25f611a4f035fa7fbc26fada415cfca6ee97695eeb9ba9d9"),
    "select_high_target": (dict(algorithm="select", n=150, trials=3, k=120,
                                delta=0.8, epsilon=0.3),
                           "8acb4e1d3719e1d895b19d578a7ffc04a1f492bfd8514feadfde157a6c405d06"),
    # two uniform-branch selections that reject candidates, so they pin
    # that branch's screen order (upper first)
    "select_uniform_low_target": (dict(algorithm="select", n=150, trials=3, k=60,
                                       delta=0.8, epsilon=0.3),
                                  "d99021d67b8fc0c273a339dc79502ae88927f54be9f2a4f2668f0f0d6e11e6dd"),
    "select_uniform_high_target": (dict(algorithm="select", n=150, trials=3, k=100,
                                        delta=0.8, epsilon=0.3),
                                   "7fa251373eb9c7fab2641d45249fd12b5b2ed4b2e399c20a86b3551f4723a410"),
    "external_maxfind": (dict(algorithm="maxfind", n=32, trials=5, fixed_instance=True,
                              oracle=reference_server(32, 0)),
                         "3af1588e3a03f253be6b832aca8eebc187d3acc4b85496dfb756cad332385824"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CSV_SHA256))
def test_fixed_seed_reports_match_golden_digests(name):
    fields, digest = GOLDEN_CSV_SHA256[name]
    config = ExperimentConfig(seed=0, **fields)
    reports, _ = run_experiment(config)
    assert hashlib.sha256(render_csv(config, reports).encode("ascii")).hexdigest() == digest


class TestValidation:
    def test_rejects_unknown_algorithm(self):
        with pytest.raises(InvalidParameterError):
            validate_config(small_config(algorithm="sort"))

    def test_rejects_missing_band_parameters(self):
        with pytest.raises(InvalidParameterError):
            validate_config(small_config(algorithm="rank"))

    def test_rejects_bad_targets(self):
        with pytest.raises(InvalidParameterError):
            validate_config(small_config(algorithm="select", delta=0.5,
                                         epsilon=0.1, k=17))
        with pytest.raises(InvalidParameterError):
            validate_config(small_config(algorithm="testle", delta=0.5,
                                         epsilon=0.1, r=16.5))

    def test_rejects_x_rank_outside_universe(self):
        with pytest.raises(InvalidParameterError):
            validate_config(small_config(algorithm="testle", r=4.0, delta=0.5,
                                         epsilon=0.1, x_rank=17))

    def test_rejects_unknown_oracle(self):
        with pytest.raises(InvalidParameterError):
            validate_config(small_config(oracle="telnet:host"))

    # each once raised a TypeError or AttributeError, or ran as another
    # value: True as seed 1, "no" as a fixed instance
    @pytest.mark.parametrize("field, value", [
        ("seed", 1.5), ("seed", "3"), ("seed", None), ("seed", True), ("oracle", None),
        ("fixed_instance", "no")])
    def test_rejects_a_field_of_the_wrong_type(self, field, value):
        config = small_config(**{field: value})
        for call in (validate_config, run_experiment):
            with pytest.raises(InvalidParameterError, match=field):
                call(config)

    def test_takes_any_integer_seed_and_a_bool_fixed_instance(self):
        for seed in (0, -1, 2**70, np.int64(3), np.uint64(2**63)):
            for fixed in (False, True):
                validate_config(small_config(seed=seed, fixed_instance=fixed))


class TestReports:
    def test_csv_schema(self):
        config = small_config(trials=3)
        reports, _ = run_experiment(config)
        lines = render_csv(config, reports).splitlines()
        assert lines[0] == CSV_COLUMNS
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "minfind"
        assert first[2] == ""  # no target
        assert first[8] == ""  # est_rank stays empty for minfind
        assert first[10] == "true"

    def test_empty_report_is_header_only(self):
        config = small_config()
        assert render_csv(config, []) == CSV_COLUMNS + "\n"

    def test_json_mirrors_rows_and_summary(self):
        config = small_config(trials=4)
        reports, summary = run_experiment(config)
        payload = json.loads(render_json(config, reports, summary))
        assert payload["summary"]["trials"] == 4
        assert len(payload["trials"]) == 4
        assert payload["config"]["algorithm"] == "minfind"

    # a numpy field once raised TypeError in render_json after the run,
    # a numpy target or tolerance wrote success as "True" in the CSV, a
    # float32 one wrote its short repr (10.1) rather than the value the
    # run used, and a Fraction target wrote 7/2 and failed render_json
    @pytest.mark.parametrize("fields", [
        dict(seed=np.uint64(5)), dict(seed=np.int64(-3)),
        dict(algorithm="testle", r=np.float32(4.0), delta=np.float64(0.5), epsilon=0.2),
        dict(algorithm="select", n=64, k=np.int64(8), delta=np.float32(0.5), epsilon=0.25),
        dict(algorithm="testle", r=np.float32(10.1), delta=np.float32(0.3), epsilon=0.2),
        dict(algorithm="testle", r=Fraction(7, 2), delta=0.5, epsilon=0.2)])
    def test_numpy_fields_report_as_python_numbers(self, fields):
        config = small_config(trials=3, **fields)
        plain = small_config(trials=3, **{
            name: value.item() if isinstance(value, np.generic)
            else float(value) if isinstance(value, Fraction) else value
            for name, value in fields.items()})
        reports, summary = run_experiment(config)
        plain_reports, plain_summary = run_experiment(plain)
        assert render_json(config, reports, summary) == render_json(plain, plain_reports,
                                                                    plain_summary)
        assert render_csv(config, reports) == render_csv(plain, plain_reports)

    def test_write_report_to_file(self, tmp_path):
        config = small_config(trials=3)
        reports, summary = run_experiment(config)
        path = tmp_path / "out.csv"
        write_report(config, reports, summary, fmt="csv", path=str(path))
        assert path.read_text().splitlines()[0] == CSV_COLUMNS

    def test_rewritten_report_holds_exactly_its_own_bytes(self, tmp_path):
        path = tmp_path / "out.csv"
        for trials, fmt in ((20, "json"), (20, "csv"), (2, "csv"), (5, "json")):
            config = small_config(trials=trials)
            reports, summary = run_experiment(config)
            write_report(config, reports, summary, fmt=fmt, path=str(path))
            render = render_csv(config, reports) if fmt == "csv" else render_json(
                config, reports, summary)
            assert path.read_bytes() == render.encode()

    def test_new_report_gets_the_mode_open_gives(self, tmp_path):
        config = small_config(trials=1)
        reports, summary = run_experiment(config)
        with open(tmp_path / "by_open.csv", "w"):
            pass
        write_report(config, reports, summary, path=str(tmp_path / "report.csv"))
        assert ((tmp_path / "report.csv").stat().st_mode
                == (tmp_path / "by_open.csv").stat().st_mode)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_report_to_dev_stdout_is_written(self, fmt):
        """Through the console script, so standard output is a pipe that
        cannot be truncated, as in a shell pipeline; with ``--out`` the
        summary lines follow the report."""
        command = [sys.executable, "-m", "gtorder", "minfind", "--n", "16", "--trials", "2",
                   "--seed", "1", "--format", fmt]
        plain = subprocess.run(command, capture_output=True, check=True)
        to_path = subprocess.run([*command, "--out", "/dev/stdout"], capture_output=True,
                                 check=True)
        report, summary = to_path.stdout.split(b"\nalgorithm: minfind\n")
        assert report + b"\n" == plain.stdout and summary.startswith(b"n: 16\n")

    def test_write_report_bad_path_has_context(self):
        config = small_config(trials=1)
        reports, summary = run_experiment(config)
        with pytest.raises(OSError, match="no/such/dir"):
            write_report(config, reports, summary, fmt="csv",
                         path="no/such/dir/out.csv")


class TestExternalOracleTrials:
    def test_trials_run_without_ground_truth(self):
        command = f"{sys.executable} -m gtorder.oracle_server --n 24 --seed 6"
        config = small_config(n=24, trials=5, oracle=f"cmd:{command}")
        reports, summary = run_experiment(config)
        assert len(reports) == 5
        assert all(r.result_id is not None for r in reports)
        # the hidden order lives server-side, so no success verdicts
        assert all(r.success is None for r in reports)
        assert summary["errors"] == 0
        # the same server answers every trial identically on a fixed order
        assert len({r.result_id for r in reports}) == 1

    def test_failed_trials_become_error_rows(self, tmp_path):
        script = tmp_path / "flaky.py"
        script.write_text(
            "import sys\n"
            "print('OK', flush=True)\n"
            "count = 0\n"
            "for line in sys.stdin:\n"
            "    count += 1\n"
            "    if count > 2:\n"
            "        sys.exit(0)\n"
            "    print('N', flush=True)\n"
        )
        config = small_config(n=24, trials=4,
                              oracle=f"cmd:{sys.executable} {script}")
        reports, summary = run_experiment(config)
        assert summary["errors"] >= 1
        failed = [r for r in reports if r.error is not None]
        assert failed and all(r.result_id is None for r in failed)

    def test_rejected_query_becomes_one_error_row(self, tmp_path):
        # the server answers for the identity order (rank of id i is i + 1)
        # and rejects its query number argv[1]; every trial asks one test
        script = tmp_path / "busy.py"
        script.write_text(
            "import sys\n"
            "reject = int(sys.argv[1])\n"
            "count = 0\n"
            "for line in sys.stdin:\n"
            "    op, *args = line.split()\n"
            "    if op == 'INIT':\n"
            "        print('OK', flush=True)\n"
            "        continue\n"
            "    count += 1\n"
            "    if count == reject:\n"
            "        print('ERR busy', flush=True)\n"
            "        continue\n"
            "    u, ids = int(args[0]), [int(v) for v in args[2:]]\n"
            "    hit = any(v >= u for v in ids) if op == 'L' else any(v <= u for v in ids)\n"
            "    print('Y' if hit else 'N', flush=True)\n"
        )

        def run(reject):
            config = small_config(algorithm="testle", n=24, trials=5, r=6, delta=0.5,
                                  epsilon=0.999999, fixed_instance=True,
                                  oracle=f"cmd:{sys.executable} {script} {reject}")
            return run_experiment(config)

        clean, _ = run(0)
        reports, summary = run(3)
        assert summary["errors"] == 1
        assert "busy" in reports[2].error
        assert all(r.error is None for r in clean)
        assert reports[:2] + reports[3:] == clean[:2] + clean[3:]
