"""Safe-pair table construction and the two proving pipelines."""

from time import perf_counter

import pytest

from morpheq import certificate, prover
from morpheq.certificate import EqualityProblem, ProofMode, SafePairTable, check_proof
from morpheq.formats import parse_problem
from morpheq.prover import (
    MAX_PAIR_LEN,
    FailureStage,
    ProveFailure,
    ProverConfig,
    derive_table,
    find_initial_safe_pair,
    prove_basic,
    prove_general,
)
from morpheq.words import (
    POWER_BYTES,
    Coding,
    FixedPoint,
    Morphism,
    MorphicRep,
    NotProlongableError,
    PowerLimitError,
    parse_word,
)

from conftest import UNIFORM_256_512, read_fixture


def w(text: str):
    return parse_word(text)


class TestSafePairs:
    def test_initial_pair_is_smallest_safe_prefix_pair(self):
        f = Morphism.from_strings("010", "01")
        g = Morphism.from_strings("02", "021", "102")
        assert find_initial_safe_pair(f, g) == (w("01"), w("02"))

    def test_identical_sides_pair_at_length_one(self):
        fib = Morphism.from_strings("01", "0")
        assert find_initial_safe_pair(fib, fib) == ((0,), (0,))

    def test_initial_pair_failure(self):
        f = Morphism.from_strings("01", "21", "2")
        g = Morphism.from_strings("012", "12", "2")
        with pytest.raises(ProveFailure) as exc:
            find_initial_safe_pair(f, g)
        assert exc.value.stage is FailureStage.NO_INITIAL_SAFE_PAIR

    def test_initial_pair_respects_length_budget(self):
        fib = Morphism.from_strings("01", "0")
        other = Morphism.from_strings("011", "0")
        # the smallest safe prefix pair has length 3: 010 vs 011, images 5 vs 5
        assert find_initial_safe_pair(fib, other) == (w("010"), w("011"))
        with pytest.raises(ProveFailure) as exc:
            find_initial_safe_pair(fib, other, max_len=2)
        assert exc.value.stage is FailureStage.NO_INITIAL_SAFE_PAIR

    def test_safe_cut_at_one_reads_few_symbols(self, monkeypatch):
        """The prefixes read stop growing at the first safe cut, far below max_len."""
        requested = []
        prefix = FixedPoint.prefix
        monkeypatch.setattr(FixedPoint, "prefix", lambda fp, n: requested.append(n) or prefix(fp, n))
        fib = Morphism.from_strings("01", "0")
        assert find_initial_safe_pair(fib, fib, max_len=10**5) == ((0,), (0,))
        assert sum(requested) <= 2 * POWER_BYTES

    def test_doubling_reads_find_the_same_cuts(self, monkeypatch):
        """Read prefixes of 1, 2, 4, ... symbols: cuts past the first read are found."""
        monkeypatch.setattr(prover, "POWER_BYTES", 1)
        self.test_initial_pair_is_smallest_safe_prefix_pair()
        self.test_initial_pair_failure()
        self.test_initial_pair_respects_length_budget()

    @pytest.mark.parametrize("length", [0, 10**6])
    def test_length_budget_outside_its_range_is_refused(self, length):
        """Refused before reading anything: under 1 ms, best of three tries."""
        fib = Morphism.from_strings("01", "0")
        message = f"max_pair_len is {length}; it must be between 1 and {MAX_PAIR_LEN}"
        times = []
        for _ in range(3):
            start = perf_counter()
            with pytest.raises(ValueError, match=message):
                find_initial_safe_pair(fib, fib, max_len=length)
            times.append(perf_counter() - start)
        assert min(times) < 1e-3


class TestDeriveTable:
    def test_two_pair_closure(self):
        f = Morphism.from_strings("010", "01")
        g = Morphism.from_strings("02", "021", "102")
        table = derive_table(f, Coding.identity(2), g, Coding.from_string("001"))
        assert table.pairs == ((w("01"), w("02")), (w("0"), w("1")))
        assert table.decompositions == (w("010"), w("01"))

    def test_closure_reuses_existing_pairs(self):
        f = Morphism.from_strings("02", "101", "10")
        g = Morphism.from_strings("0210", "1", "10")
        table = derive_table(f, Coding.identity(3), g, Coding.identity(3))
        assert table.pairs == ((w("021"), w("021")), (w("01"), w("01")))
        assert table.decompositions == ((0, 1, 1), (0, 1))

    def test_coding_mismatch_aborts(self):
        f = Morphism.from_strings("010", "01")
        g = Morphism.from_strings("02", "021", "102")
        bad_rho = Coding.from_string("011")
        with pytest.raises(ProveFailure) as exc:
            derive_table(f, Coding.identity(2), g, bad_rho)
        assert exc.value.stage is FailureStage.CODING_MISMATCH

    def test_pair_budget(self, monkeypatch):
        f = Morphism.from_strings("010", "01")
        g = Morphism.from_strings("02", "021", "102")
        monkeypatch.setattr(prover, "MAX_PAIRS", 1)
        with pytest.raises(ProveFailure) as exc:
            derive_table(f, Coding.identity(2), g, Coding.from_string("001"))
        assert exc.value.stage is FailureStage.PAIR_BUDGET_EXCEEDED
        assert exc.value.detail == "more than 1 safe pairs needed"

    def test_doubling_reads_close_the_same_tables(self, monkeypatch):
        """Read the initial pair's prefixes 1, 2, 4, ... symbols at a time: the same tables close."""
        monkeypatch.setattr(prover, "POWER_BYTES", 1)
        self.test_two_pair_closure()
        self.test_closure_reuses_existing_pairs()
        self.test_coding_mismatch_aborts()

    def test_a_cut_reads_few_symbols(self, monkeypatch):
        """At max_pair_len 10^5, each cut of one symbol reads one symbol of each word."""
        reads = []

        class Counted(tuple):
            def __getitem__(self, i):
                reads.append(i)
                return super().__getitem__(i)

        safe_cut = prover._smallest_safe_cut
        monkeypatch.setattr(
            prover, "_smallest_safe_cut", lambda fw, gw, *args: safe_cut(Counted(fw), Counted(gw), *args)
        )
        f = Morphism.from_strings("0" + "1" * 999, "1" * 1000)
        config = ProverConfig(max_pair_len=MAX_PAIR_LEN)
        table = derive_table(f, Coding.identity(2), f, Coding.identity(2), config)
        assert table.pairs == (((0,), (0,)), ((1,), (1,)))
        # The initial pair and 2000 cuts.
        assert len(reads) == 2 * 2001


class TestProveGeneral:
    def test_scales_then_closes(self):
        proof = prove_general(parse_problem(read_fixture("fib_three_letter.txt")))
        assert (proof.p, proof.q) == (2, 1)
        assert proof.mode is ProofMode.GENERAL
        assert proof.table.pairs == ((w("01"), w("02")), (w("0"), w("1")))
        assert proof.table.decompositions == (w("010"), w("01"))

    def test_reflexive_problem_over_unary_alphabet(self):
        f = Morphism.from_strings("00")
        problem = EqualityProblem(f, Coding.identity(1), f, Coding.identity(1))
        proof = prove_general(problem)
        assert (proof.p, proof.q) == (1, 1)
        assert proof.table.pairs == (((0,), (0,)),)
        assert proof.table.decompositions == ((0, 0),)

    def test_reflexive_problem_generally_needs_one_pair_per_symbol(self):
        fib = Morphism.from_strings("01", "0")
        problem = EqualityProblem(fib, Coding.identity(2), fib, Coding.identity(2))
        proof = prove_general(problem)
        assert proof.table.pairs == (((0,), (0,)), ((1,), (1,)))

    def test_every_table_entry_is_safe(self):
        proof = prove_general(parse_problem(read_fixture("double_scale.txt")))
        fp, gq = proof.scaled_f, proof.scaled_g
        for u, v in proof.table.pairs:
            assert len(u) == len(v) >= 1
            assert sum(len(fp.images[s]) for s in u) == sum(len(gq.images[s]) for s in v)

    def test_eigenvalue_mismatch_stage(self):
        problem = parse_problem(read_fixture("growth_mismatch.txt"))
        with pytest.raises(ProveFailure) as exc:
            prove_general(problem)
        assert exc.value.stage is FailureStage.EIGENVALUE_MISMATCH

    def test_no_initial_safe_pair_stage(self):
        problem = parse_problem(read_fixture("linear_growth.txt"))
        with pytest.raises(ProveFailure) as exc:
            prove_general(problem)
        assert exc.value.stage is FailureStage.NO_INITIAL_SAFE_PAIR

    def test_unreachable_symbols_are_pruned_before_proving(self):
        f = Morphism.from_strings("01", "0", "2")
        problem = EqualityProblem(
            f, Coding.identity(3), Morphism.from_strings("01", "0"), Coding.identity(2)
        )
        proof = prove_general(problem)
        assert proof.problem.f.alphabet_size == 2

    def test_scaled_morphisms_over_budget_are_refused(self):
        problem = parse_problem(UNIFORM_256_512)
        start = perf_counter()
        for prove in (prove_general, prove_basic):
            with pytest.raises(PowerLimitError):
                prove(problem)
        assert perf_counter() - start < 1

    def test_determinism(self):
        problem = parse_problem(read_fixture("even_fib.txt"))
        assert prove_general(problem) == prove_general(problem)


class TestProverConfig:
    @pytest.mark.parametrize("length", [-5, 0, MAX_PAIR_LEN + 1, 10**18])
    def test_pair_length_outside_its_range_is_refused(self, length):
        with pytest.raises(ValueError, match=f"between 1 and {MAX_PAIR_LEN}"):
            ProverConfig(max_pair_len=length)

    def test_eigen_iterations_is_not_a_field(self):
        assert ProverConfig().eigen_iterations == ProverConfig.eigen_iterations == 8
        with pytest.raises(TypeError):
            ProverConfig(eigen_iterations=4)

    def test_longest_pair_length_gives_up_quickly(self):
        problem = parse_problem(read_fixture("linear_growth.txt"))
        start = perf_counter()
        with pytest.raises(ProveFailure) as exc:
            prove_general(problem, ProverConfig(max_pair_len=MAX_PAIR_LEN))
        assert perf_counter() - start < 1
        assert exc.value.stage is FailureStage.NO_INITIAL_SAFE_PAIR


class TestProveBasic:
    def test_factors_read_off_the_fixed_point(self):
        proof = prove_basic(parse_problem(read_fixture("fib_coded_triple.txt")))
        assert proof.mode is ProofMode.BASIC
        assert [u for u, _ in proof.table.pairs] == [w("011"), w("101"), w("01")]
        # the second component is always the g-image of the pair index
        assert [v for _, v in proof.table.pairs] == [w("021"), w("102"), w("02")]
        assert proof.table.decompositions == ((0, 2, 1), (1, 0, 2), (0, 2))

    def test_fails_where_greedy_closure_succeeds(self):
        problem = parse_problem(read_fixture("pure_pair.txt"))
        prove_general(problem)
        with pytest.raises(ProveFailure) as exc:
            prove_basic(problem)
        assert exc.value.stage is FailureStage.DECOMPOSITION_STUCK

    def test_fails_in_the_swapped_orientation_too(self):
        problem = parse_problem(read_fixture("pure_pair.txt"))
        swapped = EqualityProblem(problem.g, problem.rho, problem.f, problem.tau)
        with pytest.raises(ProveFailure) as exc:
            prove_basic(swapped)
        assert exc.value.stage is FailureStage.DECOMPOSITION_STUCK

    def test_coded_words_that_differ_are_a_coding_mismatch(self):
        fib = Morphism.from_strings("01", "0")
        # 0 -> 0 1 ... 10, coded 10 -> 9: words past digits print with commas.
        wide = Morphism((tuple(range(11)),) + tuple((s,) for s in range(1, 11)))
        g0 = ",".join(map(str, range(11)))
        for f, rho, pair in [
            (fib, Coding.from_string("10"), "(01, 01)"),
            (wide, Coding(tuple(range(10)) + (9,), 11), f"({g0}, {g0})"),
        ]:
            problem = EqualityProblem(f, Coding.identity(f.alphabet_size), f, rho)
            with pytest.raises(ProveFailure) as exc:
                prove_basic(problem)
            assert exc.value.stage is FailureStage.CODING_MISMATCH
            assert exc.value.detail == f"coded words differ on pair {pair} for symbol 0"

    def test_symbol_missing_within_horizon_is_decomposition_stuck(self, monkeypatch):
        fib = Morphism.from_strings("01", "0")
        problem = EqualityProblem(fib, Coding.identity(2), fib, Coding.identity(2))
        monkeypatch.setattr(prover, "HORIZON", 1)
        with pytest.raises(ProveFailure) as exc:
            prove_basic(problem)
        assert exc.value.stage is FailureStage.DECOMPOSITION_STUCK
        assert "symbol 1 does not occur in the first 1 symbols" in exc.value.detail

    def test_pair_past_the_prefix_budget_is_decomposition_stuck(self, monkeypatch):
        fib = Morphism.from_strings("01", "0")
        problem = EqualityProblem(fib, Coding.identity(2), fib, Coding.identity(2))
        monkeypatch.setattr(prover, "PREFIX_BUDGET", 1)
        with pytest.raises(ProveFailure) as exc:
            prove_basic(problem)
        assert exc.value.stage is FailureStage.DECOMPOSITION_STUCK
        assert exc.value.detail == "pair for symbol 0 needs more than 1 symbols of f's fixed point"

    def test_reflexive_problem_reads_u_from_images(self):
        fib = Morphism.from_strings("01", "0")
        problem = EqualityProblem(fib, Coding.identity(2), fib, Coding.identity(2))
        proof = prove_basic(problem)
        assert [u for u, _ in proof.table.pairs] == [w("01"), w("0")]


class TestExpandBudget:
    @pytest.mark.parametrize("name, prove, stage", [
        ("fib_three_letter.txt", prove_general, FailureStage.PAIR_BUDGET_EXCEEDED),
        ("fib_coded_triple.txt", prove_basic, FailureStage.DECOMPOSITION_STUCK),
    ], ids=["general", "basic"])
    def test_prover_and_checker_agree_at_the_budget(self, monkeypatch, name, prove, stage):
        def set_budget(budget):
            monkeypatch.setattr(certificate, "EXPAND_BUDGET", budget)
            monkeypatch.setattr(prover, "EXPAND_BUDGET", budget)

        problem = parse_problem(read_fixture(name))
        unbounded = prove(problem)
        # The symbols check_proof expands: the images of every pair.
        size = sum(
            len(unbounded.scaled_f.apply(u)) + len(unbounded.scaled_g.apply(v))
            for u, v in unbounded.table.pairs
        )
        set_budget(size)
        proof = prove(problem)
        assert proof == unbounded
        assert check_proof(proof).ok
        set_budget(size - 1)
        with pytest.raises(ProveFailure) as exc:
            prove(problem)
        assert exc.value.stage is stage
        assert exc.value.detail == f"pairs expand more than {size - 1} symbols"
        assert [v.condition for v in check_proof(proof).violations] == ["budget"]

    @pytest.mark.parametrize("name, budget, u, v", [
        ("even_fib.txt", 16, "0123", "0122"),
        ("even_fib.txt", 17, "0123", "0122"),
        ("even_fib.txt", 33, "0123", "0122"),
        ("pure_pair.txt", 11, "0210", "0210"),
        ("pure_pair.txt", 21, "0210", "0210"),
        ("linear_growth.txt", 6, "012", "012"),
        ("linear_growth.txt", 11, "012", "012"),
    ])
    def test_basic_names_the_checkers_first_violation(self, monkeypatch, name, budget, u, v):
        # Pair 0's f-image lengths differ, so the checker rejects it before it
        # counts that image against the budget.
        monkeypatch.setattr(certificate, "EXPAND_BUDGET", budget)
        monkeypatch.setattr(prover, "EXPAND_BUDGET", budget)
        checked = []

        def recording_check(proof):
            checked.append(proof)
            return check_proof(proof)

        monkeypatch.setattr(prover, "check_proof", recording_check, raising=False)
        with pytest.raises(ProveFailure) as exc:
            prove_basic(parse_problem(read_fixture(name)))
        assert exc.value.stage is FailureStage.DECOMPOSITION_STUCK
        assert exc.value.detail == f"f-image of {u} does not decompose along g(0) = {v}"
        [proof] = checked
        violations = check_proof(proof).violations
        lowest = min(x.pair for x in violations)
        first = next(x for x in violations if x.pair == lowest)
        assert (first.pair, first.condition) == (0, "f-decomposition")
        assert proof.table.pairs[0] == (w(u), w(v))


class TestProblemValidation:
    def test_coding_sizes_must_match(self):
        fib = Morphism.from_strings("01", "0")
        with pytest.raises(ValueError, match="tau does not cover f's alphabet"):
            EqualityProblem(fib, Coding.identity(3), fib, Coding.identity(2))
        with pytest.raises(ValueError, match="rho does not cover g's alphabet"):
            EqualityProblem(fib, Coding.identity(2), fib, Coding.identity(3))

    @pytest.mark.parametrize(
        "pairs, decompositions, message",
        [
            ((), (), "table needs at least one pair"),
            ((((0,), (0,)),), ((0,), (0,)), "each pair needs exactly one decomposition"),
        ],
        ids=["no-pairs", "extra-decomposition"],
    )
    def test_tables_need_one_decomposition_per_pair(self, pairs, decompositions, message):
        with pytest.raises(ValueError, match=message):
            SafePairTable(pairs, decompositions)

    def test_sides_must_be_prolongable(self):
        fib = Morphism.from_strings("01", "0")
        bad = Morphism.from_strings("10", "0")
        with pytest.raises(NotProlongableError):
            EqualityProblem(bad, Coding.identity(2), fib, Coding.identity(2))


def test_success_implies_long_prefix_agreement():
    for name in ("fib_three_letter.txt", "double_scale.txt", "even_fib.txt", "odd_fib.txt"):
        problem = parse_problem(read_fixture(name))
        prove_general(problem)
        left = MorphicRep(problem.f, problem.tau).prefix(10_000)
        right = MorphicRep(problem.g, problem.rho).prefix(10_000)
        assert left == right, name
