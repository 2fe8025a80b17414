"""Arithmetic subsequences, odd-length powers, and block encodings."""

from time import perf_counter

import pytest

from morpheq.catalog import (
    BUILTIN_NAMES,
    builtin_prefix,
    even_fib_rep,
    fib_rep,
    odd_fib_rep,
    spir_rep,
)
from morpheq.subseq import (
    MAX_COUNT,
    BlockEncodingError,
    arith_prefix,
    block_encode,
    odd_length_power,
)
from morpheq.words import CHUNK, MAX_PREFIX, Coding, Morphism, MorphicRep, format_word, parse_word

from conftest import run_limited

FIB = Morphism.from_strings("01", "0")

# Frozen by evaluating the defining fixed points directly.
FIB_20 = "01001010010010100101"
EVEN_FIB_35 = "00110011000100010001100110001000100"
ODD_FIB_10 = "1000100011"
SPIR_15 = "110100100010000"


class TestArithPrefix:
    def test_even_fib_frozen(self):
        assert format_word(arith_prefix(fib_rep(), 0, 2, 35)) == EVEN_FIB_35

    def test_odd_fib_frozen(self):
        assert format_word(arith_prefix(fib_rep(), 1, 2, 10)) == ODD_FIB_10

    def test_general_step_matches_pointwise_reads(self):
        rep = spir_rep()
        got = arith_prefix(rep, 2, 3, 50)
        whole = rep.prefix(2 + 3 * 49 + 1)
        assert got == tuple(whole[2 + 3 * i] for i in range(50))

    def test_even_and_odd_interleave_to_original(self):
        rep = fib_rep()
        even = arith_prefix(rep, 0, 2, 30)
        odd = arith_prefix(rep, 1, 2, 30)
        merged = [s for pair in zip(even, odd) for s in pair]
        assert tuple(merged) == rep.prefix(60)

    def test_zero_count(self):
        assert arith_prefix(fib_rep(), 0, 2, 0) == ()

    @pytest.mark.parametrize("start", [0, 5])
    @pytest.mark.parametrize("step", [1, 7, CHUNK - 1, CHUNK + 1])
    def test_steps_across_coded_pieces(self, start, step):
        """Steps shorter and longer than the pieces the coded stream is read in."""
        rep = spir_rep()
        count = 4 * CHUNK // step
        assert arith_prefix(rep, start, step, count) == rep.prefix(start + step * count)[start::step]

    def test_keeps_only_the_selected_symbols(self):
        """10^6 symbols at step 100 read 10^8 coded symbols.  A child process
        with 512 MiB of address space selects them, where a tuple of all the
        symbols read would not fit."""
        code = (
            "import hashlib\n"
            "from morpheq.catalog import fib_rep\n"
            "from morpheq.subseq import arith_prefix\n"
            "print(hashlib.sha256(bytes(arith_prefix(fib_rep(), 0, 100, 10**6))).hexdigest())\n"
        )
        result, _, _ = run_limited(["-c", code], 1 << 29)
        assert (result.returncode, result.stderr) == (0, "")
        # Recorded from the tuple of all 10^8 symbols, sliced.
        assert result.stdout == "feec176e20fef92381e1ab42021b98c97106bf9eb4c26f7d39c8bd8781968276\n"

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            arith_prefix(fib_rep(), -1, 2, 5)
        with pytest.raises(ValueError):
            arith_prefix(fib_rep(), 0, 0, 5)
        with pytest.raises(ValueError):
            arith_prefix(fib_rep(), 0, 2, -2)

    def test_count_is_bounded_before_expanding(self):
        start = perf_counter()
        for count in (MAX_COUNT + 1, 10**18):
            with pytest.raises(ValueError, match=f"between 0 and {MAX_COUNT}"):
                arith_prefix(fib_rep(), 1, 2, count)
        assert perf_counter() - start < 1
        assert len(arith_prefix(fib_rep(), 0, 1, MAX_COUNT)) == MAX_COUNT

    def test_positions_read_are_bounded_before_expanding(self):
        start = perf_counter()
        for first, step, count in ((0, 10**12, 10), (1, MAX_PREFIX // 10, 10)):
            with pytest.raises(ValueError, match=f"at most {MAX_PREFIX} symbols"):
                arith_prefix(fib_rep(), first, step, count)
        assert perf_counter() - start < 1


class TestOddLengthPower:
    def test_fib_needs_cube(self):
        assert odd_length_power(FIB) == 3

    def test_already_odd(self):
        assert odd_length_power(Morphism.from_strings("010", "1")) == 1

    def test_uniform_even_never_works(self):
        assert odd_length_power(Morphism.from_strings("01", "10")) is None

    def test_three_letter_fib_morphism(self):
        g = Morphism.from_strings("02", "021", "102")
        assert odd_length_power(g) == 3
        assert all(len(im) % 2 == 1 for im in (g ** 3).images)


class TestBlockEncode:
    def test_fib_cube_blocks(self):
        g, first, second = block_encode(FIB ** 3)
        assert g.images == (
            parse_word("0122"),
            parse_word("01220"),
            parse_word("0120"),
        )
        assert first.table == (0, 0, 1)
        assert second.table == (1, 0, 0)

    def test_rejects_even_length_image(self):
        with pytest.raises(BlockEncodingError, match="odd length"):
            block_encode(FIB)

    def test_rejects_non_prolongable(self):
        with pytest.raises(BlockEncodingError, match="prolongable"):
            block_encode(Morphism.from_strings("1", "0"))

    def test_unary_degenerate_case(self):
        g, first, second = block_encode(Morphism.from_strings("000"))
        assert g.images == (parse_word("000"),)
        assert first.table == (0,)
        assert second.table == (0,)

    def test_projections_recover_pure_subsequences(self):
        g, first, second = block_encode(FIB ** 3)
        assert MorphicRep(g, first).prefix(500) == arith_prefix(fib_rep(), 0, 2, 500)
        assert MorphicRep(g, second).prefix(500) == arith_prefix(fib_rep(), 1, 2, 500)

    def test_projections_compose_with_outer_coding(self):
        # A coded sequence: the Fibonacci word written over three letters.
        base = Morphism.from_strings("02", "021", "102")
        tau = Coding.from_string("001")
        rep = MorphicRep(base, tau)
        assert rep.prefix(40) == fib_rep().prefix(40)

        k = odd_length_power(base)
        g, first, second = block_encode(base ** k)
        through_first = Coding(tuple(tau.table[s] for s in first.table), 2)
        through_second = Coding(tuple(tau.table[s] for s in second.table), 2)
        assert MorphicRep(g, through_first).prefix(300) == arith_prefix(rep, 0, 2, 300)
        assert MorphicRep(g, through_second).prefix(300) == arith_prefix(rep, 1, 2, 300)


class TestCatalog:
    def test_fib_prefix(self):
        assert format_word(builtin_prefix("fib", 20)) == FIB_20

    def test_spir_prefix(self):
        assert format_word(builtin_prefix("spir", 15)) == SPIR_15

    def test_spir_ones_positions(self):
        n = 10**5
        word = builtin_prefix("spir", n)
        ones = [i for i, s in enumerate(word) if s == 1]
        expected = [k * (k + 1) // 2 for k in range(450)]
        assert ones == [p for p in expected if p < n]

    def test_even_fib_builtin_matches_subsequence(self):
        assert builtin_prefix("even-fib", 200) == fib_rep().prefix(400)[0::2]

    def test_odd_fib_builtin_matches_subsequence(self):
        assert builtin_prefix("odd-fib", 200) == fib_rep().prefix(400)[1::2]

    def test_catalog_reps_generate_their_sequences(self):
        assert even_fib_rep().prefix(1000) == arith_prefix(fib_rep(), 0, 2, 1000)
        assert odd_fib_rep().prefix(1000) == arith_prefix(fib_rep(), 1, 2, 1000)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown builtin"):
            builtin_prefix("tribonacci", 5)
        assert "fib" in BUILTIN_NAMES
