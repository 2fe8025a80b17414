"""Arithmetic subsequences of morphic sequences and length-2 block encodings.

arith_prefix is the one routine that selects positions from a coded
sequence: the builtin targets and the command line go through it.  It
refuses more than MAX_COUNT symbols before expanding anything, and
positions past words.MAX_PREFIX are refused by FixedPoint, also before
expanding.

The even and odd subsequences of a pure morphic sequence are again morphic:
upscale the morphism until every image has odd length, cut its fixed point
into blocks of two symbols, and read the images blockwise.  Projecting each
block to its first or second symbol then codes the block sequence onto the
even- or odd-indexed subsequence respectively.
"""

from __future__ import annotations

from .words import Coding, Morphism, MorphicRep, Word


class BlockEncodingError(ValueError):
    """The morphism does not meet the odd-image-length requirement."""


# Most symbols arith_prefix returns; callers format them one at a time.
MAX_COUNT = 10**6
MAX_ODD_POWER = 12


def arith_prefix(rep: MorphicRep, start: int, step: int, count: int) -> Word:
    """First count symbols of the subsequence at positions start, start+step, ..."""
    if start < 0 or step < 1:
        raise ValueError("need start >= 0 and step >= 1")
    if not 0 <= count <= MAX_COUNT:
        raise ValueError(f"count is {count}; it must be between 0 and {MAX_COUNT}")
    # Each coded piece is sliced from the next position wanted, so only the
    # selected symbols are kept.
    out = bytearray()
    pos = 0
    for piece in rep.pieces(start + step * count):
        out += piece[start + step * len(out) - pos :: step]
        pos += len(piece)
    return tuple(out)


def odd_length_power(f: Morphism) -> int | None:
    """Smallest k <= MAX_ODD_POWER with every |f^k(a)| odd, or None.

    The lengths come from Morphism.power_lengths, so no image is expanded.
    """
    for k, lengths in zip(range(1, MAX_ODD_POWER + 1), f.power_lengths()):
        if all(x % 2 for x in lengths):
            return k
    return None


def block_encode(f: Morphism) -> tuple[Morphism, Coding, Coding]:
    """Rewrite the fixed point of f over length-2 blocks.

    Requires every image of f to have odd length and f to be prolongable
    at 0.  Returns the block morphism g plus the two codings projecting a
    block to its first and second symbol; blocks are numbered in order of
    first appearance, so the fixed point of g starts at block 0.
    """
    if any(len(im) % 2 == 0 for im in f.images):
        raise BlockEncodingError("every image must have odd length")
    if not f.is_prolongable():
        raise BlockEncodingError("morphism must be prolongable at 0")

    blocks: list[tuple[int, int]] = [(f.images[0][0], f.images[0][1])]
    index: dict[tuple[int, int], int] = {blocks[0]: 0}
    images: list[tuple[int, ...]] = [()]

    i = 0
    while i < len(blocks):
        x, y = blocks[i]
        expanded = f.images[x] + f.images[y]
        chunks = [
            (expanded[2 * j], expanded[2 * j + 1]) for j in range(len(expanded) // 2)
        ]
        image: list[int] = []
        for chunk in chunks:
            j = index.get(chunk)
            if j is None:
                j = len(blocks)
                index[chunk] = j
                blocks.append(chunk)
                images.append(())
            image.append(j)
        images[i] = tuple(image)
        i += 1

    g = Morphism(tuple(images))
    first = Coding(tuple(b[0] for b in blocks), f.alphabet_size)
    second = Coding(tuple(b[1] for b in blocks), f.alphabet_size)
    return g, first, second
