"""Parsing and serialization of problem, representation, and proof files."""

import pytest

from morpheq.certificate import ProofMode
from morpheq.formats import (
    ParseError,
    parse_problem,
    parse_proof,
    parse_rep,
    serialize_problem,
    serialize_proof,
)
from morpheq.prover import prove_general
from morpheq.words import Coding, Morphism

from conftest import read_fixture

ALL_FIXTURES = [
    "fib_three_letter.txt",
    "fib_coded_triple.txt",
    "pure_pair.txt",
    "double_scale.txt",
    "growth_mismatch.txt",
    "linear_growth.txt",
    "even_fib.txt",
    "odd_fib.txt",
]

FIB_SIDE = "2\n01\n0\n01\n"


class TestParseProblem:
    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_fixtures_parse(self, name):
        problem = parse_problem(read_fixture(name))
        assert problem.f.alphabet_size >= 1
        assert problem.g.alphabet_size >= 1
        assert problem.tau.source_size == problem.f.alphabet_size
        assert problem.rho.source_size == problem.g.alphabet_size
        assert problem.tau.target_size == problem.rho.target_size

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_serialize_reproduces_fixture_bytes(self, name):
        text = read_fixture(name)
        assert serialize_problem(parse_problem(text)) == text

    def test_target_alphabet_spans_both_codings(self):
        problem = parse_problem("1\n00\n0\n1\n00\n2\n")
        assert problem.tau.target_size == 3
        assert problem.rho.target_size == 3

    def test_tolerates_trailing_whitespace_and_newlines(self):
        text = "2 \n01\t\n0\n01  \n" + FIB_SIDE + "\n\n"
        problem = parse_problem(text)
        assert problem.f == Morphism.from_strings("01", "0")

    def test_rejects_non_numeric_count(self):
        with pytest.raises(ParseError, match="line 1: alphabet size must be a number"):
            parse_problem("two\n01\n0\n01\n" + FIB_SIDE)

    def test_rejects_oversized_alphabet(self):
        err = None
        with pytest.raises(ParseError, match="must be 1..10") as err:
            parse_problem("11\n" + "0\n" * 11 + "0" * 11 + "\n" + FIB_SIDE)
        assert err.value.line == 1

    def test_rejects_non_digit_image(self):
        with pytest.raises(ParseError, match=r"line 2: image f\(0\) must be a digit string"):
            parse_problem("2\n0a\n0\n01\n" + FIB_SIDE)

    # str.isdigit takes the Arabic-Indic one (read as 1) and the superscript
    # two (int() then failed with no line number).
    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("\u0662\n01\n0\n01\n" + FIB_SIDE, 1, "alphabet size must be a number"),
            ("2\n0\u0661\n0\n01\n" + FIB_SIDE, 2, r"image f\(0\) must be a digit string"),
            ("2\n0\u00b2\n0\n01\n" + FIB_SIDE, 2, r"image f\(0\) must be a digit string"),
            ("2\n01\n0\n0\u0661\n" + FIB_SIDE, 4, "coding must be a digit string"),
        ],
        ids=["alphabet-size", "image-arabic-indic", "image-superscript", "coding"],
    )
    def test_rejects_non_ascii_digits(self, text, line, message):
        with pytest.raises(ParseError, match=f"line {line}: {message}"):
            parse_problem(text)

    def test_rejects_image_symbol_outside_alphabet(self):
        with pytest.raises(ParseError, match=r"line 2: image f\(0\) uses symbol 2"):
            parse_problem("2\n021\n0\n01\n" + FIB_SIDE)

    def test_rejects_wrong_coding_length(self):
        with pytest.raises(ParseError, match="line 4: coding must have exactly 2 digits, got 3"):
            parse_problem("2\n01\n0\n011\n" + FIB_SIDE)

    def test_reports_truncation_with_line_number(self):
        # With no trailing newline the input ends before the coding line.
        for end in ("\n", ""):
            with pytest.raises(ParseError, match="missing coding line for g") as err:
                parse_problem("2\n01\n0\n01\n3\n021\n102\n02" + end)
            assert err.value.line == 9

    def test_distinguishes_blank_line_from_truncation(self):
        with pytest.raises(ParseError, match=r"line 3: blank line where image f\(1\)"):
            parse_problem("2\n01\n\n0\n01\n" + FIB_SIDE)

    def test_rejects_extra_content(self):
        with pytest.raises(ParseError, match="unexpected extra content") as err:
            parse_problem(read_fixture("fib_three_letter.txt") + "junk\n")
        assert err.value.line == 10

    def test_parse_error_carries_line(self):
        with pytest.raises(ParseError) as err:
            parse_problem("nope\n")
        assert err.value.line == 1
        assert str(err.value).startswith("line 1:")


class TestParseRep:
    def test_single_side(self):
        f, coding = parse_rep(FIB_SIDE)
        assert f == Morphism.from_strings("01", "0")
        assert coding == Coding((0, 1), 2)

    def test_target_size_from_coding_digits(self):
        _, coding = parse_rep("2\n01\n0\n00\n")
        assert coding.target_size == 1

    def test_rejects_second_side(self):
        with pytest.raises(ParseError, match="unexpected extra content"):
            parse_rep(FIB_SIDE + FIB_SIDE)


class TestProofFiles:
    def proof(self, name="fib_three_letter.txt"):
        return prove_general(parse_problem(read_fixture(name)))

    @pytest.mark.parametrize(
        "name", ["fib_three_letter.txt", "double_scale.txt", "even_fib.txt", "odd_fib.txt"]
    )
    def test_round_trip(self, name):
        proof = self.proof(name)
        assert parse_proof(serialize_proof(proof)) == proof

    @pytest.mark.parametrize("fixture", ["fib_three_letter", "even_fib", "odd_fib"])
    def test_serialization_matches_golden(self, fixture, golden_dir):
        proof = self.proof(f"{fixture}.txt")
        assert serialize_proof(proof) == (golden_dir / f"{fixture}.proof").read_text()

    def test_mode_survives_round_trip(self):
        proof = self.proof()
        assert parse_proof(serialize_proof(proof)).mode is ProofMode.GENERAL

    def test_rejects_malformed_exponent_line(self):
        proof_text = serialize_proof(self.proof())
        lines = proof_text.split("\n")
        header_at = 9  # index of the "p q mode" line for a 2-letter vs 3-letter problem
        assert lines[header_at].endswith("general")

        bad = lines.copy()
        bad[header_at] = "1 general"
        with pytest.raises(ParseError, match="expected 'p q mode'"):
            parse_proof("\n".join(bad))

        bad = lines.copy()
        bad[header_at] = "x 1 general"
        with pytest.raises(ParseError, match="exponents must be numbers"):
            parse_proof("\n".join(bad))

        bad = lines.copy()
        bad[header_at] = "0 1 general"
        with pytest.raises(ParseError, match="exponents must be at least 1"):
            parse_proof("\n".join(bad))

        bad = lines.copy()
        bad[header_at] = "1 1 fancy"
        with pytest.raises(ParseError, match="unknown proof mode 'fancy'"):
            parse_proof("\n".join(bad))

    def test_rejects_bad_pair_count(self):
        lines = serialize_proof(self.proof()).split("\n")
        lines[10] = "0"
        with pytest.raises(ParseError, match="pair count must be a positive number"):
            parse_proof("\n".join(lines))

    def test_rejects_out_of_range_index_word(self):
        lines = serialize_proof(self.proof()).split("\n")
        lines[13] = "0 9"
        with pytest.raises(ParseError, match="refers outside") as err:
            parse_proof("\n".join(lines))
        assert err.value.line == 14

    def test_rejects_non_numeric_index_word(self):
        lines = serialize_proof(self.proof()).split("\n")
        lines[13] = "0 a"
        with pytest.raises(ParseError, match="space-separated numbers"):
            parse_proof("\n".join(lines))

    @pytest.mark.parametrize(
        "at, text, message",
        [
            (9, "\u0661 1 general", "exponents must be numbers"),
            (9, "1 \u00b2 general", "exponents must be numbers"),
            (10, "\u0662", "pair count must be a positive number"),
            (13, "+0 1 0", "index word must be space-separated numbers"),
            (13, "0 \u0661", "index word must be space-separated numbers"),
            (13, "0_1", "index word must be space-separated numbers"),
        ],
        ids=["exponent-p", "exponent-q", "pair-count", "index-sign", "index-arabic-indic",
             "index-underscore"],
    )
    def test_rejects_non_ascii_digit_numbers(self, at, text, message):
        lines = serialize_proof(self.proof()).split("\n")
        lines[at] = text
        with pytest.raises(ParseError, match=message) as err:
            parse_proof("\n".join(lines))
        assert err.value.line == at + 1

    LONG = "1" * 5000  # past the 4300 digits int() converts by default

    @pytest.mark.parametrize(
        "at, text",
        [(0, LONG), (9, f"{LONG} 1 general"), (10, LONG), (13, f"0 {LONG}")],
        ids=["alphabet-size", "exponent", "pair-count", "index-word"],
    )
    def test_rejects_numbers_too_long_to_read(self, at, text):
        lines = serialize_proof(self.proof()).split("\n")
        lines[at] = text
        with pytest.raises(ParseError, match="number too long to read") as err:
            parse_proof("\n".join(lines))
        assert err.value.line == at + 1

    def test_rejects_pair_word_outside_alphabet(self):
        lines = serialize_proof(self.proof()).split("\n")
        lines[11] = "09"
        with pytest.raises(ParseError, match=r"word u_0 uses symbol 9"):
            parse_proof("\n".join(lines))
