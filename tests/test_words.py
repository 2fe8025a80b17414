"""Words, morphisms, codings, fixed points."""

import functools
import tracemalloc
from time import perf_counter

import pytest

from morpheq import words
from morpheq.catalog import even_fib_rep
from morpheq.words import (
    ALPHABET_LIMIT,
    CHUNK,
    MAX_PREFIX,
    POWER_BYTES,
    POWER_LIMIT,
    READ_SHARE,
    AlphabetError,
    Coding,
    FixedPoint,
    Morphism,
    MorphicRep,
    NotProlongableError,
    PowerLimitError,
    first_mismatch,
    format_word,
    parse_word,
    prune_unreachable,
)

FIB = Morphism.from_strings("01", "0")
SPIR = Morphism.from_strings("01", "21", "2")
# SPIR with symbols 0 and 2 swapped: prolongable at 2, not at 0.
SPIR_AT_2 = Morphism.from_strings("0", "01", "21")


def test_parse_word_round_trip():
    assert parse_word("0210") == (0, 2, 1, 0)
    assert format_word((0, 2, 1, 0)) == "0210"
    assert parse_word("") == ()


def test_parse_word_rejects_non_digits():
    with pytest.raises(ValueError):
        parse_word("0a1")
    with pytest.raises(ValueError):
        parse_word(["01", "0"])
    # str.isdigit takes these; an Arabic-Indic one was read as 1
    with pytest.raises(ValueError, match="not a digit string"):
        parse_word("0\u0661")
    with pytest.raises(ValueError, match="not a digit string"):
        parse_word("0\u00b2")


def test_format_word_rejects_wide_symbols():
    with pytest.raises(ValueError):
        format_word((0, 12))


def test_apply_concatenates_images():
    assert FIB.apply((0, 1, 0, 0, 1)) == parse_word("01001010")
    assert FIB.apply(()) == ()
    assert SPIR.apply((0, 1, 2, 1)) == parse_word("0121221")


def test_apply_rejects_out_of_range_symbol():
    with pytest.raises(AlphabetError):
        FIB.apply((0, 2))


def test_images_must_be_nonempty_and_in_range():
    with pytest.raises(ValueError):
        Morphism(((), (0,)))
    with pytest.raises(AlphabetError):
        Morphism(((0, 1), (2,)))
    with pytest.raises(ValueError):
        Morphism(())


def test_power():
    assert (FIB ** 2).images == (parse_word("010"), parse_word("01"))
    assert (FIB ** 3).images == (parse_word("01001"), parse_word("010"))
    assert FIB.power(1) == FIB
    with pytest.raises(ValueError):
        FIB.power(0)


def test_power_is_refused_before_expanding():
    start = perf_counter()
    for k in (34, 10**18):
        with pytest.raises(PowerLimitError):
            FIB.power(k)
    # The images of f^2..f^k are counted, not those of f^k alone:
    # 4 + 8 + ... + 2^19 is within the limit, and 2^20 more is not.
    unary = Morphism.from_strings("00")
    assert len(unary.power(19).images[0]) == POWER_LIMIT // 2
    with pytest.raises(PowerLimitError):
        unary.power(20)
    assert perf_counter() - start < 1


def test_power_lengths_follow_the_powers():
    lengths = FIB.power_lengths()
    assert [next(lengths) for _ in range(5)] == [(2, 1), (3, 2), (5, 3), (8, 5), (13, 8)]


def test_fixed_point_prefix():
    assert FixedPoint(FIB).prefix(8) == parse_word("01001010")
    assert FixedPoint(FIB).prefix(1) == (0,)
    assert FixedPoint(SPIR).prefix(16) == parse_word("0121221222122221")


def test_fixed_point_requires_prolongable():
    with pytest.raises(NotProlongableError, match="image of 0 must start with 0"):
        FixedPoint(SPIR_AT_2)
    with pytest.raises(NotProlongableError):
        FixedPoint(Morphism.from_strings("0"))
    with pytest.raises(NotProlongableError):
        FixedPoint(Morphism.from_strings("10", "11"))


def test_fixed_point_factor():
    s = FixedPoint(FIB)
    assert s.factor(0, 2) == (0, 1)
    assert s.factor(3, 8) == parse_word("01010")
    assert s.factor(5, 5) == ()
    with pytest.raises(ValueError):
        s.factor(4, 2)


def test_fixed_point_extension_is_stable():
    s = FixedPoint(FIB)
    short = s.prefix(10)
    long = s.prefix(500)
    assert long[:10] == short


def test_coding_application():
    tau = Coding.from_string("011")
    assert tau.apply(parse_word("2101001")) == parse_word("1101001")
    assert Coding.identity(3).apply((0, 2, 1)) == (0, 2, 1)
    rho = Coding.from_string("001")
    assert rho.apply(parse_word("02102")) == parse_word("01001")


def test_coding_validation():
    with pytest.raises(AlphabetError):
        Coding((0, 2), 2)
    with pytest.raises(ValueError):
        Coding((), 1)
    with pytest.raises(ValueError, match="target alphabet must be non-empty"):
        Coding((0,), 0)
    with pytest.raises(AlphabetError):
        Coding.from_string("01").apply((2,))
    with pytest.raises(ValueError, match="coding needs at least one symbol"):
        Coding.from_string("")


def test_morphic_rep_prefix_applies_coding():
    rep = MorphicRep(SPIR, Coding.from_string("110"))
    assert format_word(rep.prefix(16)) == "1101001000100001"
    pure = MorphicRep.pure(FIB)
    assert pure.prefix(8) == parse_word("01001010")


def test_morphic_rep_validation():
    with pytest.raises(AlphabetError):
        MorphicRep(FIB, Coding.from_string("011"))
    with pytest.raises(NotProlongableError, match="image of 0 must start with 0"):
        MorphicRep(SPIR_AT_2, Coding.from_string("011"))
    with pytest.raises(NotProlongableError):
        MorphicRep(Morphism.from_strings("0", "0"), Coding.identity(2))


def test_prune_unreachable_keeps_reachable_alphabet():
    f = Morphism.from_strings("01", "0", "2")
    tau = Coding.identity(3)
    pruned, coding, start = prune_unreachable(f, tau, 0)
    assert pruned == FIB
    assert coding.table == (0, 1)
    assert start == 0


def test_prune_unreachable_is_identity_when_all_occur():
    tau = Coding.from_string("011")
    pruned, coding, start = prune_unreachable(SPIR_AT_2, tau, 2)
    assert pruned == SPIR_AT_2
    assert coding == tau
    assert start == 2


@pytest.mark.parametrize(
    "coding, start, message",
    [
        (Coding.identity(3), 0, "coding and morphism disagree on alphabet size"),
        (Coding.identity(2), 2, "symbol 2 outside alphabet"),
    ],
    ids=["coding-size", "start-symbol"],
)
def test_prune_unreachable_refuses_inputs_that_disagree(coding, start, message):
    with pytest.raises(AlphabetError, match=message):
        prune_unreachable(FIB, coding, start)


def test_prune_renumbers_and_preserves_sequence():
    # symbol 1 is skipped entirely; 0 and 3 survive and are renumbered
    f = Morphism(((0, 3), (1, 1), (2,), (0,)))
    tau = Coding((0, 1, 1, 1), 2)
    pruned, coding, start = prune_unreachable(f, tau, 0)
    assert pruned.alphabet_size == 2
    assert start == 0
    before = tau.apply(FixedPoint(f).prefix(200))
    after = coding.apply(FixedPoint(pruned).prefix(200))
    assert before == after


def naive_fixed_point(f, n):
    out = list(f.images[0])
    i = 1
    while len(out) < n:
        out.extend(f.images[out[i]])
        i += 1
    return out[:n]


CHUNK_LENGTHS = (CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7)
# 0 -> 02, 1 -> 0^200, 2 -> 2: symbol 1 never occurs in the fixed point 0222...
UNREACHABLE_LONG = Morphism.from_strings("02", "0" * 200, "2")
# Fibonacci, the even-Fibonacci representation, and five morphisms with
# length-1 images whose buffers run only slowly ahead of their consumers:
# spir's and that of 0 -> 01, 1 -> 12, 2 -> 2, whose 2s come in ever longer
# runs, grow quadratically, and 0 -> 02, 1 -> 2, 2 -> 1 linearly, with the
# eventually periodic fixed point 0212121..., as do UNREACHABLE_LONG's and
# that of 0 -> 01 and the 3-cycle 1 -> 2 -> 3 -> 1, 0123123..., which no
# power f^(2^j) maps to itself symbol by symbol.
EXPANDED = {
    "fib": FIB,
    "even-fib": even_fib_rep().morphism,
    "spir": SPIR,
    "polynomial": Morphism.from_strings("01", "12", "2"),
    "periodic-tail": Morphism.from_strings("02", "2", "1"),
    "periodic-cycle": Morphism.from_strings("01", "2", "3", "1"),
    "unreachable-long": UNREACHABLE_LONG,
}


@pytest.mark.parametrize("n", CHUNK_LENGTHS)
@pytest.mark.parametrize("name", sorted(EXPANDED))
def test_fixed_point_across_chunk_boundaries(name, n):
    f = EXPANDED[name]
    expected = naive_fixed_point(f, n)
    assert FixedPoint(f).prefix(n) == tuple(expected)
    assert FixedPoint(f).at(n - 1) == expected[n - 1]
    assert FixedPoint(f).factor(CHUNK - 3, n) == tuple(expected[CHUNK - 3:])
    grown = FixedPoint(f)
    assert [grown.at(i) for i in range(CHUNK - 2, n)] == expected[CHUNK - 2:]


@pytest.mark.parametrize("name", sorted(EXPANDED))
def test_fixed_point_walk_symbol_by_symbol(name):
    f = EXPANDED[name]
    n = 4 * POWER_BYTES
    expected = naive_fixed_point(f, n)
    walked = FixedPoint(f)
    assert [walked.at(i) for i in range(n)] == expected
    assert walked.prefix(POWER_BYTES + 1) == tuple(expected[:POWER_BYTES + 1])


@pytest.fixture
def repowers(monkeypatch):
    """Re-powers of FixedPoints after construction, each as the length of
    the buffer it starts over and of the image of 0 under the old power.
    Each is checked to read the same prefix after it as before."""
    seen = []
    restart = FixedPoint._restart

    def checked(self, budget):
        if not hasattr(self, "_buf"):
            return restart(self, budget)
        held = tuple(self._buf)
        seen.append((len(held), len(self._images[0])))
        restart(self, budget)
        assert self.prefix(len(held)) == held

    monkeypatch.setattr(FixedPoint, "_restart", checked)
    return seen


# Past the last re-power of every EXPANDED morphism when read CHUNK by
# CHUNK: even-fib's, at about ten CHUNKs.
REPOWERED_READ = 11 * CHUNK


def read_by_chunks(f):
    """f's fixed point read CHUNK by CHUNK to REPOWERED_READ, and the
    buffer's length after each read."""
    fp = FixedPoint(f)
    lengths = [len(fp)]
    read = []
    for k in range(0, REPOWERED_READ, CHUNK):
        read.extend(fp.factor(k, k + CHUNK))
        lengths.append(len(fp))
    return tuple(read), lengths


@pytest.mark.parametrize("name", sorted(EXPANDED))
def test_growing_reads_across_re_powers(name, repowers):
    f = EXPANDED[name]
    read, lengths = read_by_chunks(f)
    assert read == tuple(naive_fixed_point(f, REPOWERED_READ))
    assert lengths == sorted(lengths)
    # At least one re-power started over a buffer of at least CHUNK symbols.
    assert max(held for held, _ in repowers) >= CHUNK


@pytest.mark.parametrize("name", sorted(EXPANDED))
def test_re_powers_expand_again_at_most_twice_the_read(name, repowers):
    # Each square about doubles the read that calls for the next one, so
    # the buffers a growing read starts over total at most twice the read.
    read_by_chunks(EXPANDED[name])
    assert sum(held for held, _ in repowers) <= 2 * REPOWERED_READ


@pytest.mark.parametrize("name", sorted(EXPANDED))
def test_reads_up_to_the_first_size_class_keep_the_first_power(name, repowers):
    f = EXPANDED[name]
    FixedPoint(f).prefix(READ_SHARE * POWER_BYTES)
    assert repowers == []


def test_power_ignores_images_never_read():
    # The long image of the unreachable symbol 1 does not count against
    # POWER_BYTES, so the buffer starts as f^128(0) = 0 2^128, the longest
    # such power whose read images 0 2^k and 2 total at most 256 bytes.
    assert len(FixedPoint(UNREACHABLE_LONG)) == 129


def test_long_images_are_not_squared():
    # 0 -> 0 1^3000, 1 -> 1^3000: f^2 would take 9 MB, and f is kept unsquared
    n = 3000
    f = Morphism(((0,) + (1,) * n, (1,) * n))
    tracemalloc.start()
    try:
        fp = FixedPoint(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(fp) == n + 1
    assert peak < 1 << 20


def test_re_powering_long_images_stays_within_the_cap(repowers):
    # 0 -> 0 1^100, 1 -> 1^100: f^2 takes 20101 bytes, and f^4 would take
    # about 2 * 10^8, which lengths-first squaring never builds.
    f = Morphism(((0,) + (1,) * 100, (1,) * 100))
    n = 1 << 21
    fp = FixedPoint(f)
    tracemalloc.start()
    try:
        fp.extend_to(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(repowers) == 1
    assert fp.factor(n - 3, n) == (1, 1, 1)
    assert peak < 2 * n


def marker_rep(p, marked):
    """0 followed by (1^(p-1) 2)^oo, coding 2 to 1 if marked, everything else to 0."""
    f = Morphism(((0,) + (1,) * (p - 1) + (2,), (1,), (2,)))
    return MorphicRep(f, Coding((0, 0, 1 if marked else 0), 2))


@functools.lru_cache(maxsize=2)
def naive_prefix(f, n):
    return tuple(naive_fixed_point(f, n))


def plain_mismatch(left, right, n):
    """first_mismatch by comparing naively expanded prefixes, coded symbol by symbol."""
    a = left.coding.apply(naive_prefix(left.morphism, n))
    b = right.coding.apply(naive_prefix(right.morphism, n))
    for i in range(n):
        if a[i] != b[i]:
            return i, a[i], b[i]
    return None


ZEROS = MorphicRep(Morphism(((0, 1), (1,))), Coding((0, 0), 2))
MISMATCHES = {
    "position 0": (MorphicRep(FIB, Coding((1, 0), 2)), ZEROS, 0),
    "inside the first chunk": (marker_rep(1000, True), ZEROS, 1000),
    "at a chunk boundary": (marker_rep(CHUNK, True), marker_rep(CHUNK, False), CHUNK),
    "at the last position of a chunk": (marker_rep(2 * CHUNK - 1, True), ZEROS, 2 * CHUNK - 1),
    "in the last partial chunk": (marker_rep(3 * CHUNK + 3, True), ZEROS, 3 * CHUNK + 3),
    "nowhere": (marker_rep(3 * CHUNK + 7, True), ZEROS, None),
}


@pytest.mark.parametrize("case", list(MISMATCHES))
def test_first_mismatch_agrees_with_tuple_comparison(case):
    left, right, position = MISMATCHES[case]
    n = 3 * CHUNK + 7
    found = first_mismatch(left, right, n)
    assert found == plain_mismatch(left, right, n)
    if position is None:
        assert found is None
        assert first_mismatch(right, left, n) is None
    else:
        pos, a, b = found
        assert pos == position
        assert first_mismatch(right, left, n) == (pos, b, a)


def defect_rep(depth):
    """Fibonacci through f^5, coded, but for a defect far out.

    Symbols 2, ..., depth + 1 are copies of 1: f^5(0) ends in 2, each copy's
    image holds the next copy where f^5(1) has its last 1, and the last
    copy's image ends in 1 instead of 0.  Each copy first occurs about
    |f^5| times further out than the one before.
    """
    zero, one = (FIB ** 5).images
    images = [zero[:-1] + (2,), one]
    for copy in range(2, depth + 1):
        images.append(one[:6] + (copy + 1,) + one[7:])
    images.append(one[:-1] + (1,))
    return MorphicRep(Morphism(images), Coding((0,) + (1,) * (depth + 1), 2))


def test_first_mismatch_past_a_re_power(repowers):
    # Doubling reads pass lengths that call for a larger power long before
    # the mismatch, but both powers are sized for n up front: every
    # re-power starts over a buffer that holds only the image of 0.
    left, right = defect_rep(5), MorphicRep.pure(FIB)
    n = 40 * CHUNK
    found = first_mismatch(left, right, n)
    assert found == plain_mismatch(left, right, n)
    assert found[0] > 4 * CHUNK
    assert repowers and all(held == first for held, first in repowers)
    assert first_mismatch(right, left, n) == (found[0], found[2], found[1])


@pytest.mark.parametrize("n", CHUNK_LENGTHS + (4 * CHUNK + 5,))
@pytest.mark.parametrize("name", sorted(EXPANDED))
def test_first_mismatch_of_expanded_fixed_points(name, n, repowers):
    # Each fixed point under a 2-symbol coding, against its square (the same
    # sequence, cut into other pieces) and against itself with the coding
    # of one symbol flipped, which differs first where that symbol occurs.
    f = EXPANDED[name]
    coding = Coding(tuple(s % 2 for s in range(f.alphabet_size)), 2)
    rep = MorphicRep(f, coding)
    others = [MorphicRep(f ** 2, coding)]
    for s in range(f.alphabet_size):
        flipped = tuple(c ^ (t == s) for t, c in enumerate(coding.table))
        others.append(MorphicRep(f, Coding(flipped, 2)))
    for other in others:
        found = plain_mismatch(rep, other, n)
        assert first_mismatch(rep, other, n) == found
        assert first_mismatch(other, rep, n) == (found and (found[0], found[2], found[1]))
    assert rep.prefix(n) == coding.apply(naive_prefix(f, n))
    # Every re-power is the one that sizes a side for n, before it reads.
    assert all(held == first for held, first in repowers)


def test_first_mismatch_of_exponential_growth_holds_little():
    # A side holds about n / L raw symbols, for images of average length L,
    # and pieces of at most CHUNK bytes: far less than a buffer of n bytes.
    n = 10**7
    left, right = MorphicRep.pure(FIB), MorphicRep.pure(FIB ** 2)
    tracemalloc.start()
    try:
        assert first_mismatch(left, right, n) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 21


def test_first_mismatch_of_empty_and_negative_prefixes():
    assert first_mismatch(MorphicRep.pure(FIB), ZEROS, 0) is None
    with pytest.raises(ValueError):
        first_mismatch(MorphicRep.pure(FIB), ZEROS, -1)


# Each reader asked for its first n symbols, through FixedPoint.extend_to or
# first_mismatch's own check.
PREFIX_READERS = {
    "FixedPoint.prefix": lambda n: FixedPoint(FIB).prefix(n),
    "FixedPoint.factor": lambda n: FixedPoint(FIB).factor(n - 1, n),
    "FixedPoint.at": lambda n: FixedPoint(FIB).at(n - 1),
    "MorphicRep.prefix": lambda n: MorphicRep.pure(FIB).prefix(n),
    "first_mismatch": lambda n: first_mismatch(MorphicRep.pure(FIB), ZEROS, n),
}


@pytest.mark.parametrize(
    "read, message",
    [
        (lambda: FixedPoint(FIB).prefix(-1), "prefix length must be non-negative"),
        (lambda: FixedPoint(FIB).factor(-1, 0), r"invalid range \[-1, 0\)"),
        (lambda: FixedPoint(FIB).at(-1), "position must be non-negative"),
        (lambda: MorphicRep.pure(FIB).prefix(-1), "prefix length must be non-negative"),
    ],
    ids=["FixedPoint.prefix", "FixedPoint.factor", "FixedPoint.at", "MorphicRep.prefix"],
)
def test_readers_refuse_negative_positions(read, message):
    with pytest.raises(ValueError, match=message):
        read()


@pytest.mark.parametrize("n", [MAX_PREFIX + 1, 10**18])
@pytest.mark.parametrize("reader", PREFIX_READERS)
def test_readers_refuse_more_than_max_prefix_before_expanding(reader, n):
    start = perf_counter()
    with pytest.raises(ValueError, match=f"at most {MAX_PREFIX} symbols"):
        PREFIX_READERS[reader](n)
    assert perf_counter() - start < 1


@pytest.mark.parametrize("reader", PREFIX_READERS)
def test_readers_take_exactly_max_prefix(reader, monkeypatch):
    monkeypatch.setattr(words, "MAX_PREFIX", 1000)
    PREFIX_READERS[reader](1000)
    with pytest.raises(ValueError, match="at most 1000 symbols"):
        PREFIX_READERS[reader](1001)


def test_byte_buffers_limit_the_alphabet():
    # 0 -> 0 (n-1), every other symbol to itself: n symbols, the last one recurring
    def wide(n):
        return Morphism(((0, n - 1),) + tuple((i,) for i in range(1, n)))

    edge = wide(ALPHABET_LIMIT)
    n = 2 * POWER_BYTES
    assert FixedPoint(edge).prefix(n) == (0,) + (255,) * (n - 1)
    reverse = Coding(tuple(reversed(range(ALPHABET_LIMIT))), ALPHABET_LIMIT)
    assert MorphicRep(edge, reverse).prefix(3) == (255, 0, 0)
    too_wide = wide(ALPHABET_LIMIT + 1)
    with pytest.raises(AlphabetError, match="at most 256"):
        FixedPoint(too_wide)
    with pytest.raises(AlphabetError, match="at most 256"):
        MorphicRep(too_wide, Coding.identity(ALPHABET_LIMIT + 1))
    with pytest.raises(AlphabetError, match="at most 256"):
        MorphicRep(FIB, Coding((0, 300), 301))


@pytest.mark.parametrize("name", sorted(EXPANDED))
def test_first_occurrences_match_a_scan(name):
    f = EXPANDED[name]
    prefix = naive_fixed_point(f, 3 * CHUNK)
    expected = {}
    for i, s in enumerate(prefix):
        expected.setdefault(s, i)
    found = FixedPoint(f).first_occurrences(3 * CHUNK)
    assert list(found.items()) == list(expected.items())


def test_first_occurrences():
    assert FixedPoint(FIB).first_occurrences(10) == {0: 0, 1: 1}
    assert FixedPoint(FIB).first_occurrences(1) == {0: 0}
    assert FixedPoint(FIB).first_occurrences(0) == {}
    even_fib = FixedPoint(even_fib_rep().morphism)
    assert list(even_fib.first_occurrences(100).items()) == [(0, 0), (1, 1), (2, 2), (3, 3), (4, 6)]
    # 2 first occurs past the first CHUNK symbols.
    late = Morphism(((0,) + (1,) * CHUNK + (2,), (1,), (2,)))
    assert FixedPoint(late).first_occurrences(CHUNK + 1) == {0: 0, 1: 1}
    assert FixedPoint(late).first_occurrences(CHUNK + 2) == {0: 0, 1: 1, 2: CHUNK + 1}


def test_first_occurrences_stop_after_the_last_symbol():
    # 2 never occurs in the fixed point at 0, so no limit is ever reached.
    s = FixedPoint(Morphism.from_strings("01", "0", "2"))
    assert s.first_occurrences(10**9) == {0: 0, 1: 1}
    assert len(s) < 1000
