"""End-to-end command line behavior, including exit codes and exact output."""

import collections
import hashlib
import json
import shutil
import subprocess
import tracemalloc
from time import perf_counter

import pytest

from morpheq.catalog import builtin_prefix, fib_rep, spir_rep
from morpheq.cli import MAX_PREFIX, main
from morpheq.prover import MAX_PAIR_LEN
from morpheq.repsearch import MAX_ALPHABET, MAX_IMAGE_LEN, FoundRep, SearchSpec, matches, search
from morpheq.subseq import MAX_COUNT
from morpheq.words import CHUNK, Coding, Morphism, format_word

import cli_digests
from conftest import FIB_CERTIFICATE_P34, FIXTURES, UNIFORM_256_512, run_limited


def fixture_path(name: str) -> str:
    return str(FIXTURES / name)


class TestProve:
    def test_text_output_matches_golden(self, capsys, golden_dir):
        assert main(["prove", fixture_path("fib_three_letter.txt")]) == 0
        out = capsys.readouterr().out
        assert out == (golden_dir / "fib_three_letter.text").read_text()

    def test_latex_output_matches_golden(self, capsys, golden_dir):
        code = main(
            ["prove", fixture_path("even_fib.txt"), "--format", "latex"]
        )
        assert code == 0
        assert capsys.readouterr().out == (golden_dir / "even_fib.tex").read_text()

    def test_output_and_save_proof_files(self, capsys, tmp_path, golden_dir):
        rendered = tmp_path / "proof.txt"
        certificate = tmp_path / "proof.cert"
        code = main(
            [
                "prove",
                fixture_path("fib_three_letter.txt"),
                "--output",
                str(rendered),
                "--save-proof",
                str(certificate),
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        assert rendered.read_text() == (golden_dir / "fib_three_letter.text").read_text()
        assert certificate.read_text() == (golden_dir / "fib_three_letter.proof").read_text()

    def test_gives_up_on_growth_rate_mismatch(self, capsys):
        assert main(["prove", fixture_path("growth_mismatch.txt")]) == 1
        out = capsys.readouterr().out
        assert out.startswith("gave up: eigenvalue-mismatch:")

    def test_basic_mode(self, capsys):
        assert main(["prove", fixture_path("fib_coded_triple.txt"), "--basic"]) == 0
        assert "induction" in capsys.readouterr().out

    def test_tolerance_flag(self, capsys):
        # At the default tolerance this pair passes the growth-rate gate and
        # fails later; tightening the tolerance moves the failure earlier.
        path = fixture_path("linear_growth.txt")
        assert main(["prove", path]) == 1
        assert "no-initial-safe-pair" in capsys.readouterr().out
        assert main(["prove", path, "--tol", "0.001"]) == 1
        out = capsys.readouterr().out
        assert "gave up: eigenvalue-mismatch" in out
        assert "within 0.001" in out

    def test_max_pair_len_flag(self, capsys):
        code = main(
            ["prove", fixture_path("fib_three_letter.txt"), "--max-pair-len", "1"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "no-initial-safe-pair" in out
        assert "up to length 1" in out

    def test_malformed_file_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("two\n01\n0\n01\n")
        assert main(["prove", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error: line 1:")

    def test_number_too_long_to_read_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "long.txt"
        bad.write_text("1" * 5000 + "\n01\n0\n01\n")
        assert main(["prove", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error: line 1: number too long to read")

    def test_missing_file_exits_2(self, capsys, tmp_path):
        assert main(["prove", str(tmp_path / "absent.txt")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_scaled_morphisms_over_budget_exit_2(self, capsys, tmp_path):
        problem = tmp_path / "uniform.txt"
        problem.write_text(UNIFORM_256_512)
        start = perf_counter()
        assert main(["prove", str(problem)]) == 2
        assert perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: power 9 of the morphism needs more than 1048576 image symbols\n"

    def test_builds_each_scaled_power_once_per_proof(self, capsys, monkeypatch):
        built = []
        power = Morphism.power

        def counting_power(self, k):
            built.append(k)
            return power(self, k)

        monkeypatch.setattr(Morphism, "power", counting_power)
        assert main(["prove", fixture_path("fib_three_letter.txt")]) == 0
        # f^2 and g^1 for the prover, then once more for the Proof, whose
        # powers the checker and the renderer share.
        assert built == [2, 1, 2, 1]

    def test_max_pair_len_is_bounded(self, capsys):
        path = fixture_path("linear_growth.txt")
        start = perf_counter()
        assert main(["prove", path, "--max-pair-len", str(MAX_PAIR_LEN + 1)]) == 2
        assert capsys.readouterr().err == (
            f"error: max_pair_len is {MAX_PAIR_LEN + 1}; it must be between 1 and {MAX_PAIR_LEN}\n"
        )
        assert main(["prove", path, "--max-pair-len", str(MAX_PAIR_LEN)]) == 1
        assert perf_counter() - start < 1
        assert capsys.readouterr().out == (
            f"gave up: no-initial-safe-pair: no safe prefix pair up to length {MAX_PAIR_LEN}\n"
        )

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_tolerance_must_be_finite(self, capsys, tol):
        assert main(["prove", fixture_path("fib_three_letter.txt"), "--tol", tol]) == 2
        assert capsys.readouterr().err == "error: tolerance must be finite\n"

    @pytest.mark.parametrize("g, options, out", [
        (("0" + "1" * 9999, "1" * 10000), ["--basic"], "decomposition-stuck"),
        (("0" + "1" * 19998, "1" * 9999), ["--max-pair-len", "10000"], "pair-budget-exceeded"),
    ], ids=["basic", "general"])
    def test_gives_up_past_the_expansion_budget(self, tmp_path, g, options, out):
        # f = 0 -> 0 1^9999, 1 -> 1^10000, coded 01.  Against f itself, the
        # basic table's first pair has an f-image of about 10^8 symbols;
        # against this g, the first safe prefix pair is 10^4 symbols long, so
        # its images have about 10^8 as well.  The child's address space is
        # capped so that expanding either fails fast.
        problem = tmp_path / "long.txt"
        problem.write_text("2\n0" + "1" * 9999 + "\n" + "1" * 10000 + "\n01\n" + f"2\n{g[0]}\n{g[1]}\n01\n")
        result, seconds, _ = run_limited(["-m", "morpheq.cli", "prove", str(problem), *options], 1 << 30)
        assert (result.returncode, result.stderr) == (1, "")
        assert result.stdout == f"gave up: {out}: pairs expand more than {1 << 22} symbols\n"
        assert seconds < 1

    def test_long_images_prove_in_time_linear_in_the_file(self, tmp_path):
        # f = g = 0 -> 0 1^99999, 1 -> 1^100000, coded 01: a 400 KB file.  At
        # the largest --max-pair-len, the table's two pairs decompose at
        # 2 * 10^5 cuts of one symbol each; reading max_pair_len symbols at
        # every cut took over a minute.
        side = "2\n0" + "1" * 99999 + "\n" + "1" * 100000 + "\n01\n"
        problem = tmp_path / "long.txt"
        problem.write_text(side * 2)
        result, seconds, _ = run_limited(
            ["-m", "morpheq.cli", "prove", str(problem), "--max-pair-len", str(MAX_PAIR_LEN)], 1 << 30
        )
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout.endswith("Induction step proved, hence claim proved.\n")
        assert seconds < 8


class TestCheck:
    def test_accepts_generated_certificate(self, capsys, golden_dir):
        assert main(["check", str(golden_dir / "fib_three_letter.proof")]) == 0
        out = capsys.readouterr().out
        assert out == "proof OK: 2 pairs, exponents (2, 1), general mode\n"

    def test_rejects_tampered_certificate(self, capsys, tmp_path, golden_dir):
        lines = (golden_dir / "fib_three_letter.proof").read_text().split("\n")
        lines[9] = "3 1 general"
        tampered = tmp_path / "tampered.proof"
        tampered.write_text("\n".join(lines))
        assert main(["check", str(tampered)]) == 1
        out = capsys.readouterr().out
        assert "violation: f-decomposition on pair 0" in out

    def test_rejects_powers_over_budget(self, capsys, tmp_path):
        cert = tmp_path / "fib34.proof"
        cert.write_text(FIB_CERTIFICATE_P34)
        start = perf_counter()
        assert main(["check", str(cert)]) == 1
        assert perf_counter() - start < 1
        assert capsys.readouterr().out == (
            "violation: budget on pair 0: "
            "power 34 of the morphism needs more than 1048576 image symbols\n"
        )

    def test_rejects_long_images_by_length_before_expanding(self, tmp_path):
        # Thue-Morse on both sides at (18, 18) and one pair of 20,000 zeros:
        # f^18 of the pair's word has 20,000 * 2^18 symbols.  The child's
        # address space is capped so that expanding it fails fast.
        cert = tmp_path / "long.proof"
        cert.write_text("2\n01\n10\n01\n" * 2 + "18 18 general\n1\n" + ("0" * 20000 + "\n") * 2 + "0\n")
        result, seconds, _ = run_limited(["-m", "morpheq.cli", "check", str(cert)], 1 << 30)
        assert (result.returncode, result.stderr) == (1, "")
        assert result.stdout == (
            "violation: f-decomposition on pair 0: f-image does not match the index word\n"
            "violation: g-decomposition on pair 0: g-image does not match the index word\n"
        )
        assert seconds < 1


class TestVerifyPrefix:
    def test_equal_prefixes(self, capsys):
        code = main(
            ["verify-prefix", fixture_path("fib_three_letter.txt"), "--n", "1000"]
        )
        assert code == 0
        assert capsys.readouterr().out == "equal on the first 1000 symbols\n"

    def test_reports_first_mismatch(self, capsys, tmp_path):
        unequal = tmp_path / "unequal.txt"
        unequal.write_text("2\n01\n0\n01\n2\n01\n1\n01\n")
        assert main(["verify-prefix", str(unequal), "--n", "10"]) == 1
        assert capsys.readouterr().out == "first mismatch at position 2: 0 != 1\n"

    def test_reports_mismatch_past_the_first_chunk(self, capsys, tmp_path):
        # 0 (1^p 2)^oo coded 001 against 0111... coded 00: first 1 at p + 1
        p = CHUNK + 9
        unequal = tmp_path / "late.txt"
        unequal.write_text(f"3\n0{'1' * p}2\n1\n2\n001\n2\n01\n1\n00\n")
        assert main(["verify-prefix", str(unequal), "--n", str(2 * CHUNK)]) == 1
        assert capsys.readouterr().out == f"first mismatch at position {p + 1}: 1 != 0\n"

    def test_empty_and_negative_prefix(self, capsys):
        path = fixture_path("fib_three_letter.txt")
        assert main(["verify-prefix", path, "--n", "0"]) == 0
        assert capsys.readouterr().out == "equal on the first 0 symbols\n"
        assert main(["verify-prefix", path, "--n", "-1"]) == 2
        assert capsys.readouterr().err == "error: prefix length must be non-negative\n"

    def test_prefix_length_is_bounded(self, capsys):
        # the file does not exist: the bound is checked before anything is read
        code = main(["verify-prefix", "no-such-file.txt", "--n", str(MAX_PREFIX + 1)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(MAX_PREFIX) in err
        with pytest.raises(SystemExit):
            main(["verify-prefix", "--help"])
        assert f"at most {MAX_PREFIX}" in " ".join(capsys.readouterr().out.split())

    def test_agreeing_sequences_the_prover_cannot_handle(self, capsys):
        # Both sides are 0111...; the growth rates differ, so the prover
        # gives up even though prefix comparison keeps succeeding.
        path = fixture_path("growth_mismatch.txt")
        assert main(["verify-prefix", path, "--n", "500"]) == 0
        capsys.readouterr()
        assert main(["prove", path]) == 1


class TestSubseq:
    def test_builtin_even(self, capsys):
        assert main(["subseq", "--builtin", "fib", "--op", "even", "--n", "16"]) == 0
        assert capsys.readouterr().out == "0011001100010001\n"

    def test_builtin_odd(self, capsys):
        assert main(["subseq", "--builtin", "fib", "--op", "odd", "--n", "10"]) == 0
        assert capsys.readouterr().out == "1000100011\n"

    def test_encode_blocks(self, capsys):
        assert main(["subseq", "--encode-blocks", fixture_path("fib_rep.txt")]) == 0
        assert capsys.readouterr().out == (
            "upscale 3\n"
            "blocks 01 00 10\n"
            "3\n"
            "0122\n"
            "01220\n"
            "0120\n"
            "001\n"
            "100\n"
        )

    def test_encode_blocks_without_odd_power(self, capsys):
        code = main(["subseq", "--encode-blocks", fixture_path("thue_morse_rep.txt")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "no power up to 12 makes every image length odd\n"

    def test_encode_blocks_over_budget_exits_2(self, capsys, tmp_path):
        # f^2 is the first power with odd image lengths, and f^2(1) = 1^(1025^2).
        rep = tmp_path / "rep.txt"
        rep.write_text("2\n01\n" + "1" * 1025 + "\n01\n")
        assert main(["subseq", "--encode-blocks", str(rep)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: power 2 of the morphism needs more than")

    @pytest.mark.parametrize("n", [0, 1, 16, 1000])
    @pytest.mark.parametrize("op", ["even", "odd"])
    @pytest.mark.parametrize("builtin", ["fib", "even-fib", "odd-fib", "spir"])
    def test_builtin_is_a_slice_of_the_expansion(self, capsys, builtin, op, n):
        # 4n symbols of the defining sequence cover 2n of every builtin.
        base = {"fib": fib_rep, "even-fib": fib_rep, "odd-fib": fib_rep, "spir": spir_rep}
        expanded = base[builtin]().prefix(4 * n)
        if builtin == "even-fib":
            expanded = expanded[0::2]
        elif builtin == "odd-fib":
            expanded = expanded[1::2]
        picked = expanded[0::2] if op == "even" else expanded[1::2]
        assert main(["subseq", "--builtin", builtin, "--op", op, "--n", str(n)]) == 0
        assert capsys.readouterr().out == format_word(picked[:n]) + "\n"

    def test_count_is_bounded(self, capsys):
        start = perf_counter()
        code = main(["subseq", "--builtin", "odd-fib", "--op", "odd", "--n", str(MAX_COUNT + 1)])
        assert perf_counter() - start < 1
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: count is {MAX_COUNT + 1}; it must be between 0 and {MAX_COUNT}\n"
        )

    def test_encode_blocks_past_the_rep_alphabet_prints_nothing(self, capsys):
        # The block encoding of 0 -> 03011, 1 -> 11303, 2 -> 133, 3 -> 320
        # has 11 symbols, one more than a representation file holds.
        code = main(["subseq", "--encode-blocks", fixture_path("eleven_blocks_rep.txt")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "11 block symbols, over the limit of 10\n"

    def test_builtin_requires_op(self):
        with pytest.raises(SystemExit) as exc:
            main(["subseq", "--builtin", "fib"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("option", [["--op", "odd"], ["--n", "5"], ["--n", "32"]])
    def test_encode_blocks_refuses_builtin_options(self, capsys, option):
        with pytest.raises(SystemExit) as exc:
            main(["subseq", "--encode-blocks", fixture_path("fib_rep.txt"), *option])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("error: --encode-blocks takes neither --op nor --n\n")

    def test_builtin_count_defaults_to_32(self, capsys):
        assert main(["subseq", "--builtin", "fib", "--op", "even"]) == 0
        assert capsys.readouterr().out == format_word(fib_rep().prefix(64)[0::2]) + "\n"


# Builtin target, result count, sha256 of stdout, --jobs and --alphabet.
PINNED_SEARCHES = [
    ("even-fib", 7, "9c712bf318adfa67da4288ac769c2c6d7413194315eddf9869022d282d6fceb6", 1, 5),
    ("odd-fib", 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 1, 5),
    ("spir", 166, "62cb3ba3b76191bd8a4a712b0f678103956c397abec82955d04c10e6af7ded5a", 1, 5),
    ("fib", 21174, "19cb3bc3c41120ed51118094b3fbe896bcff443fcfd4c6b3d3a6a5c2e5cbd584", 1, 5),
    ("fib", 21174, "19cb3bc3c41120ed51118094b3fbe896bcff443fcfd4c6b3d3a6a5c2e5cbd584", 2, 5),
    # The guard edge: the largest alphabet the search admits.
    ("even-fib", 654, "818acfc2ea5d310a88d7a76f8f0c400c8e34f2e06a079bfaea7bade4d37555cd", 1, 6),
]


def pinned_search_id(builtin, count, sha256, jobs, alphabet):
    """builtin-count-sha256, then -jobsN when N is above 1 and -alphabetA when A is not 5."""
    return (
        f"{builtin}-{count}-{sha256}"
        + (f"-jobs{jobs}" if jobs > 1 else "")
        + (f"-alphabet{alphabet}" if alphabet != 5 else "")
    )


def counted(init, name, built):
    """init, counting each call in built[name]."""
    def counting(self, *args, **kwargs):
        built[name] += 1
        init(self, *args, **kwargs)
    return counting


class TestSearch:
    EXPECTED_OUT = "complexity 3\n2\n01\n0\n01\n"

    def test_builtin_target(self, capsys):
        code = main(
            ["search", "--target", "fib", "--alphabet", "2", "--maxlen", "2", "--prefix", "30"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out == self.EXPECTED_OUT
        assert captured.err == "found 1 representations\n"

    def test_digit_file_target(self, capsys, tmp_path):
        from morpheq.catalog import builtin_prefix

        target = tmp_path / "fib.digits"
        target.write_text(format_word(builtin_prefix("fib", 30)) + "\n")
        code = main(
            [
                "search",
                "--target",
                str(target),
                "--alphabet",
                "2",
                "--maxlen",
                "2",
                "--prefix",
                "30",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == self.EXPECTED_OUT

    def test_digit_file_target_builds_only_the_searched_prefix(self, capsys, tmp_path):
        # 2 * 10^6 digits: as one word the file would take about 16 MB.
        argv = ["search", "--alphabet", "2", "--maxlen", "2", "--prefix", "20", "--target"]
        short, long = tmp_path / "short.digits", tmp_path / "long.digits"
        short.write_text("01" * 10 + "\n")
        long.write_text("01" * 10**6 + "\n")
        assert main(argv + [str(short)]) == 0
        expected = capsys.readouterr()
        tracemalloc.start()
        try:
            assert main(argv + [str(long)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr() == expected
        assert peak < 6 * 10**6

    @pytest.mark.parametrize(
        "builtin, count, sha256, jobs, alphabet",
        [pytest.param(*pin, id=pinned_search_id(*pin)) for pin in PINNED_SEARCHES],
    )
    def test_result_lists_are_pinned(self, capsys, builtin, count, sha256, jobs, alphabet):
        """Printed result lists at image length 3, prefix 60."""
        code = main(
            ["search", "--target", builtin, "--alphabet", str(alphabet), "--maxlen", "3",
             "--prefix", "60", "--jobs", str(jobs)]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert hashlib.sha256(captured.out.encode()).hexdigest() == sha256
        assert captured.err == f"found {count} representations\n"

    @pytest.mark.parametrize(
        "builtin, count, sha256, jobs, alphabet",
        [pytest.param(*pin, id=pinned_search_id(*pin)) for pin in PINNED_SEARCHES],
    )
    def test_search_returns_foundreps_of_the_sorted_matches(self, builtin, count, sha256, jobs, alphabet):
        spec = SearchSpec(builtin_prefix(builtin, 60), alphabet, 3, 60, jobs)
        target_size = max(spec.target) + 1
        expected = [
            FoundRep(Morphism(images), Coding(table, target_size), size) for size, images, table in matches(spec)
        ]
        found = search(spec)
        assert len(found) == count and found == expected
        keys = [(r.complexity, r.morphism.images, r.coding.table) for r in found]
        assert keys == sorted(keys)

    def test_prints_results_without_a_morphism_or_foundrep_each(self, monkeypatch, capsys):
        """At most one Morphism per distinct image word, no FoundRep, and no
        Coding but the builtin's identity coding."""
        built = collections.Counter()
        for cls in (Morphism, FoundRep, Coding):
            monkeypatch.setattr(cls, "__init__", counted(cls.__init__, cls.__name__, built))
        code = main(["search", "--target", "fib", "--alphabet", "5", "--maxlen", "3", "--prefix", "60"])
        assert code == 0
        blocks = capsys.readouterr().out.split("\n\n")
        words = {word for block in blocks for word in block.split("\n")[2:7]}
        assert (len(blocks), len(words)) == (21174, 127)
        assert built["FoundRep"] == 0 and built["Morphism"] <= len(words)
        assert built["Coding"] <= 1

    def test_rejects_non_digit_target_file(self, capsys, tmp_path):
        target = tmp_path / "junk.digits"
        target.write_text("0a1\n")
        code = main(
            ["search", "--target", str(target), "--alphabet", "2", "--maxlen", "2", "--prefix", "2"]
        )
        assert code == 2
        assert "digits only" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["", " \n\t\n"])
    def test_empty_target_file_is_too_short(self, capsys, tmp_path, text):
        target = tmp_path / "empty.digits"
        target.write_text(text)
        code = main(
            ["search", "--target", str(target), "--alphabet", "2", "--maxlen", "2", "--prefix", "2"]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: target word is shorter than the requested prefix\n"

    def test_builtin_prefix_is_bounded(self, capsys):
        start = perf_counter()
        code = main(
            ["search", "--target", "spir", "--alphabet", "3", "--maxlen", "2",
             "--prefix", str(MAX_COUNT + 1)]
        )
        assert perf_counter() - start < 1
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: count is {MAX_COUNT + 1}; it must be between 0 and {MAX_COUNT}\n"
        )

    def test_guard_violations_exit_2(self, capsys):
        code = main(
            ["search", "--target", "fib", "--alphabet", "7", "--maxlen", "2", "--prefix", "10"]
        )
        assert code == 2
        assert "error: alphabet size 7 exceeds the guard 6" in capsys.readouterr().err


FIB_THREE = fixture_path("fib_three_letter.txt")
SEARCH_FIB = ["search", "--target", "fib"]

# Every int and float argument: the command line before it, its option, the
# limit its --help must name (None for --jobs, which has none) and the values
# fed to it.  --jobs gets small values only, so no worker pool starts.
NUMERIC_ARGUMENTS = [
    (["verify-prefix", FIB_THREE], "--n", str(MAX_PREFIX), [-1, 0, MAX_PREFIX + 1, 10**18]),
    (["subseq", "--builtin", "odd-fib", "--op", "odd"], "--n", str(MAX_COUNT),
     [-1, 0, MAX_COUNT + 1, 10**18]),
    (SEARCH_FIB + ["--maxlen", "2", "--prefix", "10"], "--alphabet", str(MAX_ALPHABET),
     [-1, 0, MAX_ALPHABET + 1, 10**18]),
    (SEARCH_FIB + ["--alphabet", "2", "--prefix", "10"], "--maxlen", str(MAX_IMAGE_LEN),
     [-1, 0, MAX_IMAGE_LEN + 1, 10**18]),
    (SEARCH_FIB + ["--alphabet", "2", "--maxlen", "2"], "--prefix", str(MAX_COUNT),
     [-1, 0, MAX_COUNT + 1, 10**18]),
    (SEARCH_FIB + ["--alphabet", "2", "--maxlen", "2", "--prefix", "10"], "--jobs", None, [-1, 0, 1]),
    (["prove", fixture_path("linear_growth.txt")], "--max-pair-len", str(MAX_PAIR_LEN),
     [-1, 0, MAX_PAIR_LEN + 1, 10**18]),
    (["prove", FIB_THREE], "--tol", "finite and positive", [-1, 0, "nan", "inf", 10**18]),
]


class TestNumericArguments:
    @pytest.mark.parametrize(
        "argv, option, value",
        [
            pytest.param(argv, option, value, id=f"{argv[0]} {option} {value}")
            for argv, option, _, values in NUMERIC_ARGUMENTS
            for value in values
        ],
    )
    def test_every_value_ends_in_a_documented_exit(self, capsys, argv, option, value):
        start = perf_counter()
        try:
            code = main(argv + [option, str(value)])
        except SystemExit as exc:
            code = exc.code
        assert perf_counter() - start < 1
        assert code in (0, 1, 2)
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, option, limit",
        [(argv[0], option, limit) for argv, option, limit, _ in NUMERIC_ARGUMENTS if limit],
    )
    def test_help_names_each_limit(self, capsys, command, option, limit):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        options = text[text.index("options:"):]
        assert limit in options.split(f" {option} ", 1)[1].split(" --", 1)[0]


# Each command that reads an input file, given the file's path.
FILE_COMMANDS = {
    "prove": lambda path: ["prove", path],
    "check": lambda path: ["check", path],
    "verify-prefix": lambda path: ["verify-prefix", path],
    "subseq --encode-blocks": lambda path: ["subseq", "--encode-blocks", path],
    "search --target": lambda path: [
        "search", "--target", path, "--alphabet", "2", "--maxlen", "2", "--prefix", "2"
    ],
}


class TestInputFiles:
    @pytest.mark.parametrize("command", FILE_COMMANDS)
    def test_non_ascii_byte_is_reported_with_file_and_line(self, capsys, tmp_path, command):
        # An Arabic-Indic one (bytes d9 a1) among the digits of line 3
        path = tmp_path / "input.txt"
        path.write_bytes("2\n01\n0\u0661\n01\n".encode())
        assert main(FILE_COMMANDS[command](str(path))) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: line 3: byte 0xd9 is not ASCII\n"

    def test_line_count_follows_universal_newlines(self, capsys, tmp_path):
        path = tmp_path / "input.txt"
        path.write_bytes(b"2\r\n01\r0\n\xff\n")
        assert main(["prove", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: line 4: byte 0xff is not ASCII\n"


def test_outputs_match_the_recorded_digests():
    """Every command of cli_digests writes what it wrote when recorded."""
    start = perf_counter()
    assert cli_digests.digests() == json.loads(cli_digests.RECORD.read_text())
    assert perf_counter() - start < 5


class TestConsoleScript:
    def test_installed_entry_point(self, golden_dir):
        exe = shutil.which("morpheq")
        assert exe is not None, "console script not installed"
        result = subprocess.run(
            [exe, "prove", fixture_path("fib_three_letter.txt"), "--format", "latex"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout == (golden_dir / "fib_three_letter.tex").read_text()
