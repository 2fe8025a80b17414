"""Tests of the benchmark's own parts: generator, oracle, spans, metrics.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import generate
import oracle
import run
import spans
import workloads

FIB = (((0, 1), (0,)), (0, 1))


class TestGenerator:
    def test_decide_corpus_is_deterministic_per_seed(self):
        first = generate.decide_corpus(7, 200, 0.2)
        assert first == generate.decide_corpus(7, 200, 0.2)
        assert first != generate.decide_corpus(8, 200, 0.2)

    def test_expand_and_search_inputs_are_deterministic_per_seed(self):
        assert generate.expand_problems(3, 4) == generate.expand_problems(3, 4)
        assert generate.search_target(3, 60) == generate.search_target(3, 60)
        assert generate.search_target(3, 60) != generate.search_target(4, 60)

    @pytest.mark.parametrize("seed", range(4))
    def test_constructions_hold_according_to_the_oracle(self, seed):
        corpus = generate.decide_corpus(seed, 120, 0.2)
        assert {p.kind for p in corpus} == set(generate.KINDS)
        assert sum(p.equal for p in corpus) == 60
        for p in corpus:
            assert len(p.left[0]) <= 10 and len(p.right[0]) <= 10
            if p.equal:
                assert oracle.first_mismatch(p.left, p.right, 2000) is None, p.name
            else:
                assert p.mismatch[0] < generate.MISMATCH_HORIZON
                assert oracle.first_mismatch(p.left, p.right, 2000) == p.mismatch, p.name

    def test_expand_problems_start_with_the_proving_fixtures(self):
        problems = generate.expand_problems(0, 2)
        names = tuple(p.name for p in problems[: len(generate.PROVING_FIXTURES)])
        assert names == generate.PROVING_FIXTURES
        assert all(p.equal for p in problems)

    def test_problem_text_round_trips_through_the_oracle_parser(self):
        for p in generate.decide_corpus(1, 40, 0.2):
            assert oracle.parse_problem(p.text()) == (p.left, p.right)

    def test_search_targets_look_aperiodic(self):
        assert not generate.aperiodic_looking([1] + [0] * 59)
        assert not generate.aperiodic_looking([0, 1, 1] * 20)
        assert generate.aperiodic_looking(oracle.coded_prefix(FIB, 60))
        for seed in range(95, 125):
            assert generate.aperiodic_looking(generate.search_target(seed, 60)[1])

    def test_seeded_search_pool_holds_generated_targets(self):
        recorded = json.loads(workloads.DIGESTS.read_text())
        draws = [entry["draw"] for entry in recorded["seeded"]]
        assert draws == sorted(set(draws))
        for entry in recorded["seeded"]:
            target = generate.search_target(entry["draw"], workloads.SEARCH_PREFIX)[1]
            assert entry["target"] == "".join(map(str, target))

    def test_subsequence_power_is_capped(self):
        for p in generate.decide_corpus(2, 300, 0.2):
            if p.kind == "subseq":
                assert 1 <= p.power <= generate.MAX_SUBSEQ_POWER
                images = generate.power(p.base[0], 3 * p.power)
                assert max(map(len, images)) <= generate.MAX_SUBSEQ_IMAGE


class TestOracle:
    def test_fibonacci_word(self):
        assert "".join(map(str, oracle.coded_prefix(FIB, 13))) == "0100101001001"

    @pytest.mark.parametrize("path", sorted(generate.FIXTURES.glob("*.txt")), ids=lambda p: p.stem)
    def test_every_fixture_is_an_equal_pair(self, path):
        # Includes growth_mismatch and linear_growth: equal sequences the
        # prover gives up on.
        left, right = oracle.parse_problem(path.read_text())
        assert oracle.first_mismatch(left, right, 10_000) is None

    def test_growth_mismatch_sides_read_0111(self):
        left, right = oracle.parse_problem((generate.FIXTURES / "growth_mismatch.txt").read_text())
        assert oracle.coded_prefix(left, 6) == oracle.coded_prefix(right, 6) == [0, 1, 1, 1, 1, 1]

    def test_first_mismatch_of_a_changed_coding(self):
        changed = (FIB[0], (0, 0))
        assert oracle.first_mismatch(FIB, changed, 100) == (1, 1, 0)

    def test_first_occurrence(self):
        assert oracle.first_occurrence(FIB[0], 1, 10) == 1
        assert oracle.first_occurrence(((0, 0), (1,)), 1, 50) is None

    def test_reproduces(self):
        target = oracle.coded_prefix(FIB, 30)
        assert oracle.reproduces(FIB, target)
        assert not oracle.reproduces((FIB[0], (1, 0)), target)
        assert not oracle.reproduces((((1, 0), (0,)), (0, 1)), target)


class TestSpans:
    def test_self_time_subtracts_the_union_of_children(self):
        recorded = [
            ["root", 0, 100, None, 1],
            ["a", 10, 30, 0, 1],
            ["b", 20, 50, 0, 1],
            ["c", 90, 120, 0, 1],
            ["a.inner", 12, 28, 1, 1],
        ]
        assert spans.self_times(recorded) == [50, 4, 30, 30, 16]

    def test_by_name_totals_and_filter(self):
        recorded = [
            ["x", 0, 10, None, 1],
            ["y", 2, 5, 0, 1],
            ["x", 20, 26, None, 2],
        ]
        assert spans.by_name(recorded) == {"x": (2, 13), "y": (1, 3)}
        assert spans.by_name(recorded, lambda s: s[spans.OP] == 2) == {"x": (1, 6)}

    def test_recorder_links_parents_and_operations(self):
        rec = spans.Recorder()
        op = rec.new_op()
        with rec.span("outer"):
            with rec.span("inner"):
                pass
        with rec.span("next"):
            pass
        names = [(s[spans.NAME], s[spans.PARENT], s[spans.OP]) for s in rec.spans]
        assert names == [("outer", None, op), ("inner", 0, op), ("next", None, op)]
        assert all(s[spans.END] >= s[spans.START] for s in rec.spans)

    def test_covered_ignores_parts_outside_the_parent(self):
        assert spans.covered(0, 10, [(-5, 3), (8, 15)]) == 5


class TestMetrics:
    def test_tail_leaves_ten_samples_above(self):
        assert run.tail(list(range(20))) == (50, 9)
        assert run.tail(list(range(1000))) == (99, 989)
        assert run.tail(list(range(10))) is None

    def test_residual_and_overhead_of_replayed_calls(self):
        rec = spans.Recorder()
        rec.spans = [
            ["cli.prove", 0, 1_000_000, None, 1],
            ["cli.argparse", 0, 300_000, 0, 1],
            ["formats.parse_problem", 300_000, 500_000, 0, 1],
            ["words.prune", 500_000, 900_000, 0, 1],
            ["spectral.estimate", 600_000, 700_000, 3, 1],
        ]
        calls = [workloads.Call(0.0012)]
        residual_ms, overhead_s = run.cli_split(rec, calls, passes=1)
        # 1.2 ms in the CLI minus 0.6 ms in the two layer calls under the root.
        assert residual_ms == pytest.approx(0.6)
        assert overhead_s == pytest.approx(-0.0002)

    def test_benchmark_json_matches_the_metrics_the_run_prints(self):
        spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
        assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
        assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


class TestSearchChecks:
    OUT = "complexity 3\n2\n01\n0\n01\n\ncomplexity 4\n2\n01\n00\n01\n"

    def test_parse_and_digest(self):
        results = workloads.parse_results(self.OUT)
        assert results == [(3, ((0, 1), (0,)), (0, 1)), (4, ((0, 1), (0, 0)), (0, 1))]
        assert workloads.well_formed(results) is None
        assert workloads.digest(results) == workloads.digest(results[::-1])
        assert workloads.parse_results("") == []

    def test_well_formed_rejects_unsorted_or_miscounted(self):
        results = workloads.parse_results(self.OUT)
        assert workloads.well_formed(results[::-1]) is not None
        assert workloads.well_formed([(5,) + results[0][1:]]) is not None
