"""Words, morphisms, codings, and lazily expanded morphic sequences.

Symbols are plain ints 0..n-1 and words are tuples of symbols.  A morphism
maps each symbol to a non-empty word over the same alphabet; a coding maps
each symbol to a single symbol of a target alphabet.  Every fixed point
here starts at symbol 0: a morphism f prolongable at 0 (f(0) starts with 0
and is longer than one symbol) has a unique infinite fixed point f^oo(0),
exposed here as FixedPoint: a buffer that grows by applying f to the part
of the sequence already known.

FixedPoint and MorphicRep keep expanded sequences as bytes, one byte per
symbol, so both need alphabets of at most 256 symbols (ALPHABET_LIMIT): the
morphism's alphabet, and the coding's target alphabet.  Larger ones raise
AlphabetError.  Their public results are still words (tuples of ints).

FixedPoint expands with a power f^(2^j) sized to the read.  It starts with
the largest whose images, counting only symbols it reads, total at most
POWER_BYTES; a read of n symbols squares it further while they total at
most n // READ_SHARE bytes and never more than CHUNK, so reads of up to
READ_SHARE * POWER_BYTES symbols keep the first power.  Each square's size
is told from the image lengths before it is built, and a new power starts
the buffer over at its image of 0.  A step over symbols
whose images all have length 1, as in an eventually periodic tail, is one
bytes.translate, run on up to the next symbol with a longer image.

MorphicRep.pieces, and through it MorphicRep.prefix and first_mismatch,
read a coded prefix as a stream of pieces: with F the power in use, the coding of the fixed point is
tau F(x_0) tau F(x_1) ..., joined from F's images coded once by the same
steps that grow the buffer.  The buffer then holds only the symbols x_j
being coded: about n / L of them for images of average length L, so the
fixed points of exponential growth hold little.  Those of polynomial or
periodic growth still hold about n, and their pieces are translated in
place from the buffer.

Morphism.power_lengths gives |f^k(a)| as the sum of |f^(k-1)(s)| over the
symbols s of f(a), without expanding; Morphism.power uses it to refuse
powers over POWER_LIMIT with PowerLimitError.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice

Word = tuple[int, ...]

# Largest alphabet a byte buffer can hold.
ALPHABET_LIMIT = 256
# Most bytes one extension step of a FixedPoint appends (or one image, if
# longer), most bytes its images take in all, and the longest piece of a
# coded stream: larger chunks build larger transient lists of image
# references for little gain.
CHUNK = 1 << 16
# A FixedPoint starts out expanding with the power f^(2^j) of largest j
# whose images, counting only symbols the expansion reads, take at most this
# many bytes in all: each consumed symbol then appends a long image, so far
# fewer symbols pass through Python code.  Steps also append up to this many
# bytes when fewer are asked for, so that symbol-by-symbol reads are served
# in batches.
POWER_BYTES = 1 << 8
# A read of n symbols may square that power while its images take at most
# n // READ_SHARE bytes (and CHUNK) in all.
READ_SHARE = 64
# Most symbols Morphism.power writes, summed over the images of f^2, ..., f^k
# it builds on the way to f^k.
POWER_LIMIT = 1 << 20
# Most symbols certificate.check_proof expands in all, at about 24 bytes each
# while their obligation is checked: near 100 MB and 2 s (2 vCPU).  The
# general prover builds no table past it, and the basic one gives up where the
# checker would pass it; prove writes at most 29,046 in basic mode and 750 in
# general mode on the fixtures and the decide corpus, seeds 1-3.
EXPAND_BUDGET = 1 << 22
# Longest prefix a FixedPoint expands to and first_mismatch compares.
# Expansion keeps one byte per symbol it holds, so this bounds the memory of
# every reader: at the limit, the two sides of verify-prefix take about
# 210 MB for fixed points of polynomial or periodic growth, which hold about
# n symbols, and under 1 MB for exponential ones, which hold about n / L.
MAX_PREFIX = 10**8


class AlphabetError(ValueError):
    """A symbol lies outside the alphabet an operation expects."""


class NotProlongableError(ValueError):
    """The morphism has no infinite fixed point at symbol 0."""


class PowerLimitError(ValueError):
    """A power of a morphism would have more image symbols than POWER_LIMIT."""


def _check_byte_alphabet(size: int, what: str) -> None:
    if size > ALPHABET_LIMIT:
        raise AlphabetError(
            f"{what} has {size} symbols; expanded sequences hold at most {ALPHABET_LIMIT}"
        )


def _check_expandable(morphism: Morphism) -> None:
    _check_byte_alphabet(morphism.alphabet_size, "morphism alphabet")
    if not morphism.is_prolongable():
        raise NotProlongableError("image of 0 must start with 0 and have length >= 2")


def _check_read(n: int) -> None:
    if n > MAX_PREFIX:
        raise ValueError(f"{n} symbols asked for; at most {MAX_PREFIX} symbols can be expanded")


def is_digits(text: str) -> bool:
    """Whether text is a non-empty string of ASCII digits; str.isdigit takes others too."""
    return text.isascii() and text.isdigit()


def parse_word(text: str) -> Word:
    """Turn a digit string like '0210' into a word; '' is the empty word."""
    if not isinstance(text, str) or (text and not is_digits(text)):
        raise ValueError(f"not a digit string: {text!r}")
    return tuple(int(c) for c in text)


def format_word(w: Word) -> str:
    """Render a word as a digit string; requires symbols below 10."""
    if any(s > 9 for s in w):
        raise ValueError("word has symbols beyond digit range")
    return "".join(str(s) for s in w)


@dataclass(frozen=True)
class Morphism:
    """Map from symbols to non-empty words, extended to words pointwise."""

    images: tuple[Word, ...]

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(tuple(im) for im in self.images))
        n = len(self.images)
        if n == 0:
            raise ValueError("morphism needs at least one symbol")
        for a, image in enumerate(self.images):
            if len(image) == 0:
                raise ValueError(f"image of {a} is empty")
            for s in image:
                if not 0 <= s < n:
                    raise AlphabetError(f"image of {a} uses symbol {s} outside 0..{n - 1}")

    @classmethod
    def from_strings(cls, *images: str) -> Morphism:
        return cls(tuple(parse_word(im) for im in images))

    @property
    def alphabet_size(self) -> int:
        return len(self.images)

    def apply(self, w: Word) -> Word:
        out: list[int] = []
        for s in w:
            if not 0 <= s < len(self.images):
                raise AlphabetError(f"symbol {s} outside alphabet of size {len(self.images)}")
            out.extend(self.images[s])
        return tuple(out)

    def power_lengths(self) -> Iterator[tuple[int, ...]]:
        """Image lengths of f, f^2, f^3, ... without expanding any image."""
        lengths = self.image_lengths()
        while True:
            yield lengths
            lengths = tuple(sum(lengths[s] for s in im) for im in self.images)

    def power(self, k: int) -> Morphism:
        """The k-fold composition, computed image by image.

        Raises PowerLimitError, before expanding anything, when the images of
        f^2, ..., f^k hold more than POWER_LIMIT symbols in all.
        """
        if k < 1:
            raise ValueError("exponent must be at least 1")
        total = 0
        for _, lengths in zip(range(k - 1), islice(self.power_lengths(), 1, None)):
            total += sum(lengths)
            if total > POWER_LIMIT:
                raise PowerLimitError(
                    f"power {k} of the morphism needs more than {POWER_LIMIT} image symbols"
                )
        images = self.images
        for _ in range(k - 1):
            images = tuple(self.apply(im) for im in images)
        return Morphism(images)

    def __pow__(self, k: int) -> Morphism:
        return self.power(k)

    def is_prolongable(self) -> bool:
        """Whether the image of 0 starts with 0 and has at least two symbols."""
        im = self.images[0]
        return im[0] == 0 and len(im) >= 2

    def image_lengths(self) -> tuple[int, ...]:
        return tuple(len(im) for im in self.images)


@dataclass(frozen=True)
class Coding:
    """Symbol-to-symbol map into a target alphabet, extended pointwise."""

    table: tuple[int, ...]
    target_size: int

    def __post_init__(self):
        object.__setattr__(self, "table", tuple(self.table))
        if len(self.table) == 0:
            raise ValueError("coding needs at least one symbol")
        if self.target_size < 1:
            raise ValueError("target alphabet must be non-empty")
        for a, s in enumerate(self.table):
            if not 0 <= s < self.target_size:
                raise AlphabetError(f"coding of {a} is {s}, outside target 0..{self.target_size - 1}")

    @classmethod
    def identity(cls, n: int) -> Coding:
        return cls(tuple(range(n)), n)

    @classmethod
    def from_string(cls, text: str) -> Coding:
        """The coding whose table is the digit string, onto one past its largest digit."""
        table = parse_word(text)
        return cls(table, max(table, default=-1) + 1)

    @property
    def source_size(self) -> int:
        return len(self.table)

    def apply(self, w: Word) -> Word:
        table = self.table
        n = len(table)
        for s in w:
            if not 0 <= s < n:
                raise AlphabetError(f"symbol {s} outside alphabet of size {n}")
        return tuple(table[s] for s in w)


def _closure(f: Morphism, symbols) -> set[int]:
    """The symbols occurring in f^k(w) for some k >= 0, w any of the given symbols."""
    reached = set(symbols)
    frontier = list(reached)
    while frontier:
        for s in f.images[frontier.pop()]:
            if s not in reached:
                reached.add(s)
                frontier.append(s)
    return reached


def _power_images(images: tuple[bytes, ...], budget: int) -> tuple[tuple[bytes, ...], int]:
    """The images squared while the squares total at most budget bytes, and
    the total of the next square.

    Images of symbols never read are empty and stay so.  A square's total is
    told by the lengths and symbol counts before it is joined, so no square
    past budget is built.
    """
    while True:
        joined = b"".join(images)
        size = sum(len(im) * joined.count(s) for s, im in enumerate(images) if im)
        if size > budget:
            return images, size
        images = tuple(b"".join([images[s] for s in im]) for im in images)


class FixedPoint:
    """Prefix of the infinite fixed point f^oo(0), extended on demand.

    The buffer is grown by the standard trick: the fixed point equals
    f(s_0) f(s_1) f(s_2) ... over its own symbols s_i, so appending the
    images of the next not-yet-consumed buffer symbols extends the known
    prefix.  Prolongability guarantees the consumer never catches up.
    The buffer is a bytearray.  f^oo(a) is also the fixed point of every
    power of f, so the expansion uses a power sized to the read (see the
    module docstring).  A new power starts the buffer over, so a read
    past a re-power expands again what the buffer held.  extend_to and the
    coded stream refuse to read past MAX_PREFIX symbols, which bounds every
    read.
    """

    def __init__(self, morphism: Morphism):
        _check_expandable(morphism)
        # Only symbols after position 0 are ever consumed.
        self._consumed = _closure(morphism, morphism.images[0][1:])
        self._symbols = self._consumed | {0}
        self._images = tuple(
            bytes(im) if s in self._symbols else b"" for s, im in enumerate(morphism.images)
        )
        self._restart(POWER_BYTES)

    def _restart(self, budget: int) -> None:
        """Square the images within budget and start the buffer over at the
        image of 0 under the power they reach."""
        images, self._square_size = _power_images(self._images, budget)
        self._images = images
        self._longest = max(len(images[s]) for s in self._consumed)
        self._long = tuple(s for s in self._consumed if len(images[s]) > 1)
        # The images of length 1 as a bytes.translate table, if any is read.
        self._short = None
        if len(self._long) < len(self._consumed):
            short = bytes(im[0] if len(im) == 1 else 0 for im in images)
            self._short = short.ljust(ALPHABET_LIMIT, b"\0")
        self._buf = bytearray(images[0])
        self._next = 1

    def _size_for(self, n: int) -> None:
        """Square the power if a read of n symbols has room for the next square."""
        budget = min(n // READ_SHARE, CHUNK)
        if self._square_size <= budget:
            self._restart(budget)

    def __len__(self) -> int:
        return len(self._buf)

    def extend_to(self, n: int) -> None:
        if len(self._buf) >= n:
            return
        _check_read(n)
        self._size_for(n)
        buf = self._buf
        while len(buf) < n:
            self._next, piece = self._step(self._next, n - len(buf), self._images, self._short)
            buf += piece

    def _step(
        self, start: int, remaining: int, images: tuple[bytes, ...], short: bytes | None
    ) -> tuple[int, bytes]:
        """The images of the buffer's symbols from start on, joined, and the
        position after the last of those symbols.

        images and short are the power's images and the translate table of
        its images of length 1, both raw or both coded.  A step joins at most
        min(remaining, CHUNK) bytes (at least POWER_BYTES) or one image, and
        ends after its last symbol with a longer image.  Every symbol gives
        at least one byte, so a buffer extended by its own steps is never
        caught up.  A run of symbols with images of length 1 is one
        translate by short, run on to the next symbol with a longer image.
        """
        buf, long = self._buf, self._long
        want = min(max(remaining, POWER_BYTES), CHUNK)
        stop = min(len(buf), start + max(1, want // self._longest))
        chunk = buf[start:stop]
        if short is not None:
            last = max([chunk.rfind(s) for s in long], default=-1)
            if last < 0:
                ends = [buf.find(s, stop, start + want) for s in long]
                stop = min([len(buf), start + want] + [i for i in ends if i >= 0])
                return stop, buf[start:stop].translate(short)
            stop = start + last + 1
            chunk = chunk[:last + 1]
        return stop, b"".join([images[s] for s in chunk])

    def _coded(self, table: bytes, n: int) -> Iterator[bytes]:
        """The first n symbols under the translate table, in pieces of at
        most CHUNK bytes or one image (see the module docstring).

        Positions the buffer holds are translated in place; past them,
        pieces are joined from the power's images coded once, by the steps
        that grow the buffer.  The buffer is doubled, never past n so that
        the power stays, when the steps reach its end, and when the coded
        symbols reach its end and n, at the rate so far (done / start per
        image), would need more than it holds.
        """
        _check_read(n)
        self._size_for(n)
        images = tuple(im.translate(table) for im in self._images)
        short = self._short and self._short.translate(table)
        # Coded symbols done, and the buffer symbols they are the images of,
        # which is known while the buffer holds no more than done symbols.
        done = start = 0
        buf = self._buf
        while done < n:
            if done < len(buf):
                stop = min(len(buf), n, done + CHUNK)
                yield buf[done:stop].translate(table)
                done, start = stop, self._next
            elif start == len(buf) or (done == len(buf) and n * start > done * done):
                self.extend_to(min(n, 2 * len(buf)))
            else:
                start, piece = self._step(start, n - done, images, short)
                if len(piece) > n - done:
                    piece = piece[:n - done]
                yield piece
                done += len(piece)

    def prefix(self, n: int) -> Word:
        if n < 0:
            raise ValueError("prefix length must be non-negative")
        return self.factor(0, n)

    def at(self, i: int) -> int:
        if i < 0:
            raise ValueError("position must be non-negative")
        self.extend_to(i + 1)
        return self._buf[i]

    def factor(self, k: int, m: int) -> Word:
        """The factor at positions k..m-1 of the fixed point."""
        if not 0 <= k <= m:
            raise ValueError(f"invalid range [{k}, {m})")
        self.extend_to(m)
        return tuple(self._buf[k:m])

    def first_occurrences(self, limit: int) -> dict[int, int]:
        """First position below limit of each symbol found there, in order of position.

        The prefix grows in doubling steps, so expansion stops soon after the
        last symbol of the fixed point is seen, however far off limit is.
        """
        found: dict[int, int] = {}
        size = 0
        while len(found) < len(self._symbols) and size < limit:
            end = min(limit, max(2 * size, POWER_BYTES))
            self.extend_to(end)
            for s in self._symbols - found.keys():
                i = self._buf.find(s, size, end)
                if i >= 0:
                    found[s] = i
            size = end
        return dict(sorted(found.items(), key=lambda item: item[1]))


@dataclass(frozen=True)
class MorphicRep:
    """A coded morphic sequence: coding applied to the fixed point of a morphism."""

    morphism: Morphism
    coding: Coding

    def __post_init__(self):
        _check_expandable(self.morphism)
        _check_byte_alphabet(self.coding.target_size, "coding target alphabet")
        if self.coding.source_size != self.morphism.alphabet_size:
            raise AlphabetError(
                f"coding covers {self.coding.source_size} symbols, "
                f"morphism has {self.morphism.alphabet_size}"
            )

    @classmethod
    def pure(cls, morphism: Morphism) -> MorphicRep:
        return cls(morphism, Coding.identity(morphism.alphabet_size))

    def fixed_point(self) -> FixedPoint:
        return FixedPoint(self.morphism)

    def _table(self) -> bytes:
        """The coding as a bytes.translate table."""
        table = self.coding.table
        return bytes(table) + bytes(ALPHABET_LIMIT - len(table))

    def pieces(self, n: int) -> Iterator[bytes]:
        """The first n symbols of the coded sequence, as consecutive pieces of bytes."""
        return self.fixed_point()._coded(self._table(), n)

    def prefix(self, n: int) -> Word:
        """First n symbols of the coded sequence."""
        if n < 0:
            raise ValueError("prefix length must be non-negative")
        return tuple(b"".join(self.pieces(n)))


def first_mismatch(left: MorphicRep, right: MorphicRep, n: int) -> tuple[int, int, int] | None:
    """First position below n where two coded sequences differ, or None.

    Returns the position and the two coded symbols there.  Each side is
    read as the coded pieces of FixedPoint._coded, joined from pre-coded
    images of its power (sized for n before the first piece) where its
    growth lets the buffer stay short, and the two streams are compared at
    running offsets into their current pieces, without copying them.
    Unequal sequences stop at the first piece pair that differs.
    """
    if n < 0:
        raise ValueError("prefix length must be non-negative")
    left_pieces = left.pieces(n)
    right_pieces = right.pieces(n)
    # The current piece of each side, the offset compared up to in each, and
    # the position of those offsets in the sequences.  b is a memoryview, so
    # a.startswith compares against a slice of it without copying.
    a, b = b"", memoryview(b"")
    i = j = pos = 0
    while pos < n:
        if i == len(a):
            a, i = next(left_pieces), 0
        if j == len(b):
            b, j = memoryview(next(right_pieces)), 0
        m = min(len(a) - i, len(b) - j)
        if not a.startswith(b[j:j + m], i):
            k = _first_difference(a[i:i + m], bytes(b[j:j + m]))
            return pos + k, a[i + k], b[j + k]
        i, j, pos = i + m, j + m, pos + m
    return None


def _first_difference(a: bytes, b: bytes) -> int:
    """First index where a and b, unequal and of one length, differ, by halving."""
    lo, hi = 0, len(a)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if a[lo:mid] == b[lo:mid]:
            lo = mid
        else:
            hi = mid
    return lo


def prune_unreachable(f: Morphism, coding: Coding, a: int) -> tuple[Morphism, Coding, int]:
    """Restrict f and its coding to the symbols reachable from a.

    Reachable means: occurring in some f^k(a), k >= 0.  Kept symbols are
    renumbered in increasing order of their old indices, so pruning a
    morphism whose symbols are all reachable is the identity.
    """
    if coding.source_size != f.alphabet_size:
        raise AlphabetError("coding and morphism disagree on alphabet size")
    if not 0 <= a < f.alphabet_size:
        raise AlphabetError(f"symbol {a} outside alphabet")
    kept = sorted(_closure(f, (a,)))
    return (*rename_symbols(f, coding, kept), kept.index(a))


def rename_symbols(f: Morphism, coding: Coding, order: list[int]) -> tuple[Morphism, Coding]:
    """f and its coding on the symbols of order (closed under f), order[i] renamed i."""
    new = {old: i for i, old in enumerate(order)}
    images = tuple(tuple(new[s] for s in f.images[old]) for old in order)
    table = tuple(coding.table[old] for old in order)
    return Morphism(images), Coding(table, coding.target_size)
