"""Proof checking and rendering against frozen golden documents."""

import ast
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import pytest

from morpheq import certificate
from morpheq.certificate import Proof, SafePairTable, check_proof
from morpheq.formats import parse_problem, parse_proof
from morpheq.proofdoc import render_latex, render_text
from morpheq.prover import prove_general
from morpheq.words import Morphism, parse_word

from conftest import FIB_CERTIFICATE_P34, read_fixture


def proof_for(name: str) -> Proof:
    return prove_general(parse_problem(read_fixture(name)))


def with_table(proof: Proof, pairs, decompositions) -> Proof:
    return replace(proof, table=SafePairTable(tuple(pairs), tuple(decompositions)))


class TestChecker:
    def test_accepts_generated_proofs(self):
        for name in ("fib_three_letter.txt", "double_scale.txt", "even_fib.txt"):
            report = check_proof(proof_for(name))
            assert report.ok and report.violations == ()

    def test_rejects_wrong_exponent(self):
        proof = proof_for("fib_three_letter.txt")
        report = check_proof(replace(proof, p=1))
        assert not report.ok
        assert "f-decomposition" in {v.condition for v in report.violations}
        report = check_proof(replace(proof, q=2))
        assert "g-decomposition" in {v.condition for v in report.violations}

    @pytest.mark.parametrize("change", [{"p": 0}, {"q": -1}])
    def test_exponents_below_one_fail_at_construction(self, change):
        proof = proof_for("fib_three_letter.txt")
        with pytest.raises(ValueError, match="exponents must be at least 1"):
            replace(proof, **change)

    def test_rejects_mutated_pair_word(self):
        proof = proof_for("fib_three_letter.txt")
        pairs = list(proof.table.pairs)
        pairs[1] = (parse_word("1"), pairs[1][1])
        report = check_proof(with_table(proof, pairs, proof.table.decompositions))
        assert not report.ok

    def test_rejects_mutated_decomposition_index(self):
        proof = proof_for("fib_three_letter.txt")
        decomps = list(proof.table.decompositions)
        decomps[0] = (0, 1, 1)
        report = check_proof(with_table(proof, proof.table.pairs, decomps))
        conditions = {v.condition for v in report.violations}
        assert "f-decomposition" in conditions or "g-decomposition" in conditions

    def test_rejects_out_of_range_index(self):
        proof = proof_for("fib_three_letter.txt")
        decomps = list(proof.table.decompositions)
        decomps[0] = (0, 5, 0)
        report = check_proof(with_table(proof, proof.table.pairs, decomps))
        assert not report.ok

    def test_rejects_coding_disagreement(self):
        proof = proof_for("pure_pair.txt")
        pairs = list(proof.table.pairs)
        # replace the second pair with words whose codings differ
        pairs[1] = (parse_word("01"), parse_word("10"))
        report = check_proof(with_table(proof, pairs, proof.table.decompositions))
        assert "coding-eq" in {v.condition for v in report.violations}

    def test_rejects_start_symbol_violation(self):
        proof = proof_for("fib_three_letter.txt")
        pairs = list(proof.table.pairs)
        decomps = list(proof.table.decompositions)
        pairs.reverse()
        decomps = [tuple(1 - j for j in w) for w in reversed(decomps)]
        report = check_proof(with_table(proof, pairs, decomps))
        assert "start-symbol" in {v.condition for v in report.violations}

    def test_rejects_empty_pair(self):
        proof = proof_for("fib_three_letter.txt")
        pairs = list(proof.table.pairs)
        pairs[1] = ((), ())
        report = check_proof(with_table(proof, pairs, proof.table.decompositions))
        assert "nonempty" in {v.condition for v in report.violations}

    def test_reports_symbols_outside_the_alphabet(self):
        proof = proof_for("fib_three_letter.txt")
        pairs = list(proof.table.pairs)
        pairs[1] = ((5,), pairs[1][1])
        report = check_proof(with_table(proof, pairs, proof.table.decompositions))
        assert not report.ok
        # Pair 0 decomposes through pair 1, whose word changed.
        assert [(v.condition, v.pair) for v in report.violations] == [
            ("alphabet", 1), ("f-decomposition", 0)
        ]
        assert report.violations[0].detail == "symbol 5 outside alphabet of size 2"

    def test_reports_powers_over_budget_without_expanding(self):
        start = perf_counter()
        report = check_proof(parse_proof(FIB_CERTIFICATE_P34))
        assert perf_counter() - start < 1
        assert [(v.condition, v.pair) for v in report.violations] == [("budget", 0)]

    def test_equal_sides_build_one_power(self, monkeypatch):
        # Thue-Morse on both sides at (18, 18) and one pair of 20,000 zeros.
        proof = parse_proof("2\n01\n10\n01\n" * 2 + "18 18 general\n1\n" + ("0" * 20000 + "\n") * 2 + "0\n")
        powers = []
        power = Morphism.power
        monkeypatch.setattr(Morphism, "power", lambda f, k: powers.append(k) or power(f, k))
        report = check_proof(proof)
        assert powers == [18]
        assert [(v.condition, v.pair) for v in report.violations] == [
            ("f-decomposition", 0), ("g-decomposition", 0)
        ]

    @pytest.mark.parametrize("budget, violations", [(16, []), (15, [("budget", 1)]), (4, [("budget", 0)])])
    def test_reports_expansion_over_budget(self, monkeypatch, budget, violations):
        # The four obligations of this proof expand 5, 5, 3 and 3 symbols.
        monkeypatch.setattr(certificate, "EXPAND_BUDGET", budget)
        report = check_proof(proof_for("fib_three_letter.txt"))
        assert [(v.condition, v.pair) for v in report.violations] == violations
        if violations:
            assert report.violations[0].detail == f"decompositions expand more than {budget} symbols"


def test_certificate_imports_nothing_of_morpheq_but_words():
    """The checker stays independent of the prover: its module imports only words."""
    tree = ast.parse(Path(certificate.__file__).read_text(encoding="utf-8"))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level:
            # Both "from .x import y" and "from . import x" import the module morpheq.x.
            names = [node.module] if node.module else [alias.name for alias in node.names]
            modules.update(f"morpheq.{name}" for name in names)
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module)
    assert {m for m in modules if m.split(".")[0] == "morpheq"} == {"morpheq.words"}


class TestRenderers:
    @pytest.mark.parametrize(
        "fixture", ["fib_three_letter", "even_fib", "odd_fib"]
    )
    def test_latex_matches_golden(self, fixture, golden_dir):
        proof = proof_for(f"{fixture}.txt")
        assert render_latex(proof) == (golden_dir / f"{fixture}.tex").read_text()

    @pytest.mark.parametrize(
        "fixture", ["fib_three_letter", "even_fib", "odd_fib"]
    )
    def test_text_matches_golden(self, fixture, golden_dir):
        proof = proof_for(f"{fixture}.txt")
        assert render_text(proof) == (golden_dir / f"{fixture}.text").read_text()

    def test_rendering_is_deterministic(self):
        a = render_latex(proof_for("double_scale.txt"))
        b = render_latex(proof_for("double_scale.txt"))
        assert a == b

    def test_refuses_unchecked_proof(self):
        proof = proof_for("fib_three_letter.txt")
        broken = replace(proof, p=1)
        with pytest.raises(ValueError, match="refusing to render"):
            render_text(broken)
        with pytest.raises(ValueError, match="refusing to render"):
            render_latex(broken)

    def test_scaling_announcement_only_when_scaled(self):
        unscaled = proof_for("pure_pair.txt")
        assert (unscaled.p, unscaled.q) == (1, 1)
        text = render_text(unscaled)
        assert "Replace" not in text
        scaled = render_text(proof_for("double_scale.txt"))
        assert "Replace f by f^2" in scaled
        assert "Replace g by g^3" in scaled

    def test_single_property_wording(self):
        from morpheq.certificate import EqualityProblem
        from morpheq.prover import prove_general as pg
        from morpheq.words import Coding, Morphism

        f = Morphism.from_strings("00")
        proof = pg(EqualityProblem(f, Coding.identity(1), f, Coding.identity(1)))
        text = render_text(proof)
        assert "the following 1 property simultaneously" in text
        assert "(0) τ(f^n(0)) = ρ(g^n(0))" in text
