"""Ten acceptance criteria, one test each.

Every test is tagged with the acceptance marker; the hooks in conftest.py
print a per-criterion pass/fail summary at the end of the run.  Expected
words, tables, and rendered documents are frozen here and in the golden
files; runtime bounds are asserted with wall-clock measurements.
"""

import subprocess
import sys
import time
from fractions import Fraction

import pytest

import test_properties as property_suites
from morpheq.catalog import builtin_prefix, even_fib_rep, odd_fib_rep
from morpheq.certificate import EqualityProblem, ProofMode, check_proof
from morpheq.cli import main
from morpheq.formats import parse_problem
from morpheq.proofdoc import render_latex
from morpheq.prover import (
    FailureStage,
    ProveFailure,
    prove_basic,
    prove_general,
)
from morpheq.repsearch import SearchSpec, canonical_form, search
from morpheq.spectral import estimate_eigenvalue
from morpheq.subseq import block_encode
from morpheq.words import Morphism, parse_word as w

from conftest import FIXTURES, read_fixture


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


@pytest.mark.acceptance(1, "prove and render the two-vs-three-letter pair")
def test_criterion_1(golden_dir):
    def run():
        proof = prove_general(parse_problem(read_fixture("fib_three_letter.txt")))
        return proof, render_latex(proof)

    (proof, latex), elapsed = timed(run)
    assert (proof.p, proof.q) == (2, 1)
    assert proof.table.pairs == ((w("01"), w("02")), (w("0"), w("1")))
    assert proof.table.decompositions == ((0, 1, 0), (0, 1))
    assert latex == (golden_dir / "fib_three_letter.tex").read_text()
    assert elapsed < 1.0


@pytest.mark.acceptance(2, "per-symbol induction tables")
def test_criterion_2():
    problem = parse_problem(read_fixture("fib_coded_triple.txt"))
    proof, elapsed = timed(lambda: prove_basic(problem))
    assert proof.mode is ProofMode.BASIC
    assert tuple(u for u, _ in proof.table.pairs) == (w("011"), w("101"), w("01"))
    assert tuple(v for _, v in proof.table.pairs) == problem.g.images
    assert proof.table.decompositions == ((0, 2, 1), (1, 0, 2), (0, 2))
    assert check_proof(proof).ok
    assert elapsed < 1.0


@pytest.mark.acceptance(3, "general mode succeeds where per-symbol tables fail")
def test_criterion_3():
    problem = parse_problem(read_fixture("pure_pair.txt"))
    swapped = EqualityProblem(problem.g, problem.rho, problem.f, problem.tau)

    def run():
        for oriented in (problem, swapped):
            with pytest.raises(ProveFailure):
                prove_basic(oriented)
        return prove_general(problem)

    proof, elapsed = timed(run)
    assert proof.table.pairs == ((w("021"), w("021")), (w("01"), w("01")))
    assert elapsed < 1.0


@pytest.mark.acceptance(4, "double scaling with exact expansions")
def test_criterion_4():
    problem = parse_problem(read_fixture("double_scale.txt"))
    proof, elapsed = timed(lambda: prove_general(problem))
    assert (proof.p, proof.q) == (2, 3)
    assert proof.scaled_f.images == (
        w("02102021021020210"),
        w("021020210210202102021"),
        w("20210210202102102"),
    )
    assert proof.scaled_g.images == (
        w("0210202102102"),
        w("021020210210202102021"),
        w("021020210210202102102"),
    )
    assert proof.table.pairs == ((w("02"), w("02")), (w("1"), w("1")))
    assert elapsed < 1.0


@pytest.mark.acceptance(5, "even-subsequence pipeline and token fidelity")
def test_criterion_5(golden_dir):
    def run():
        blocks = block_encode(Morphism.from_strings("01", "0") ** 3)
        problem = parse_problem(read_fixture("even_fib.txt"))
        proof = prove_general(problem)
        return blocks, problem, proof, render_latex(proof)

    (blocks, problem, proof, latex), elapsed = timed(run)
    g, first, second = blocks
    assert g.images == (w("0122"), w("01220"), w("0120"))
    assert first.table == (0, 0, 1)
    assert second.table == (1, 0, 0)
    assert problem.g == g
    assert problem.rho.table == first.table
    assert problem.f == even_fib_rep().morphism

    assert (proof.p, proof.q) == (3, 1)
    assert proof.scaled_f.images == (
        w("01231"), w("042"), w("01031"), w("01201"), w("012")
    )
    assert proof.table.pairs == (
        (w("012"), w("012")),
        (w("31"), w("20")),
        (w("0"), w("1")),
        (w("42"), w("22")),
        (w("01"), w("00")),
    )
    assert latex == (golden_dir / "even_fib.tex").read_text()
    assert elapsed < 2.0


@pytest.mark.acceptance(6, "odd-subsequence pipeline")
def test_criterion_6(golden_dir):
    problem = parse_problem(read_fixture("odd_fib.txt"))
    assert problem.f == odd_fib_rep().morphism
    assert problem.rho.table == (1, 0, 0)

    def run():
        proof = prove_general(problem)
        return proof, render_latex(proof)

    (proof, latex), elapsed = timed(run)
    assert (proof.p, proof.q) == (3, 1)
    assert proof.scaled_f.images == (
        w("0151251"), w("30251"), w("30151"), w("4"), w("3"), w("401")
    )
    assert proof.table.pairs == (
        (w("01512513"), w("01220122")),
        (w("02514"), w("00120")),
        (w("013"), w("012")),
        (w("02513"), w("00122")),
        (w("01514"), w("01220")),
    )
    assert latex == (golden_dir / "odd_fib.tex").read_text()
    assert elapsed < 2.0


@pytest.mark.acceptance(7, "honest failure stages and prefix evidence")
def test_criterion_7(capsys):
    with pytest.raises(ProveFailure) as mismatch:
        prove_general(parse_problem(read_fixture("growth_mismatch.txt")))
    assert mismatch.value.stage is FailureStage.EIGENVALUE_MISMATCH

    with pytest.raises(ProveFailure) as stuck:
        prove_general(parse_problem(read_fixture("linear_growth.txt")))
    assert stuck.value.stage is FailureStage.NO_INITIAL_SAFE_PAIR

    path = str(FIXTURES / "linear_growth.txt")
    assert main(["verify-prefix", path, "--n", "10000"]) == 0
    assert capsys.readouterr().out == "equal on the first 10000 symbols\n"


@pytest.mark.acceptance(8, "minimal representation census")
@pytest.mark.usefixtures("force_pool")
def test_criterion_8():
    even_target = builtin_prefix("even-fib", 40)
    odd_target = builtin_prefix("odd-fib", 40)

    def census():
        empty = search(
            SearchSpec(target=even_target, alphabet_size=4, max_image_len=2, prefix_len=40)
        )
        five = search(
            SearchSpec(target=even_target, alphabet_size=5, max_image_len=2, prefix_len=40)
        )
        six = search(
            SearchSpec(target=odd_target, alphabet_size=6, max_image_len=2, prefix_len=40)
        )
        return empty, five, six

    (empty, five, six), elapsed = timed(census)
    assert empty == []

    assert [r.complexity for r in five] == [8, 8]
    known = even_fib_rep()
    assert (five[0].morphism, five[0].coding) == canonical_form(known.morphism, known.coding)
    assert five[1].morphism == Morphism.from_strings("01", "2", "34", "0", "32")
    assert five[1].coding.table == (0, 0, 1, 1, 0)

    minimal = odd_fib_rep()
    canon = canonical_form(minimal.morphism, minimal.coding)
    assert any(
        (r.morphism, r.coding) == canon and r.complexity == 9 for r in six
    )
    assert elapsed < 600.0

    parallel, parallel_elapsed = timed(
        lambda: search(
            SearchSpec(
                target=odd_target, alphabet_size=6, max_image_len=2, prefix_len=40, jobs=4
            )
        )
    )
    assert parallel == six
    assert parallel_elapsed < 180.0


@pytest.mark.acceptance(9, "randomized property suites")
def test_criterion_9():
    assert property_suites.SUITE.max_examples >= 200
    suites = [
        property_suites.TestWordsCore,
        property_suites.TestSpectral,
        property_suites.TestCheckerDifferential,
        property_suites.TestProverSoundness,
        property_suites.TestBlockEncoding,
    ]
    assert len(suites) == 5

    run = subprocess.run(
        [sys.executable, "-m", "pytest", "tests/test_properties.py", "-q"],
        capture_output=True,
        text=True,
        cwd=str(FIXTURES.parent.parent),
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert "failed" not in run.stdout


@pytest.mark.acceptance(10, "growth rate numerics")
def test_criterion_10():
    estimate = estimate_eigenvalue(Morphism.from_strings("01", "0"), 0, 8)
    assert estimate.value == Fraction(89, 55)
    golden_ratio = (1 + 5 ** 0.5) / 2
    assert abs(float(estimate.value) - golden_ratio) < 1e-3

    doubling = estimate_eigenvalue(Morphism.from_strings("01", "10"), 0, 8)
    assert doubling.value == Fraction(2)
    tripling = estimate_eigenvalue(Morphism.from_strings("012", "120", "201"), 0, 8)
    assert tripling.value == Fraction(3)
