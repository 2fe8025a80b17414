"""Arithmetic subsequences of morphic sequences and length-2 block encodings.

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


def arith_prefix(rep: MorphicRep, start: int, step: int, count: int) -> Word:
    """First count symbols of the subsequence at positions start, start+step, ..."""
    if start < 0 or step < 1 or count < 0:
        raise ValueError("need start >= 0, step >= 1, count >= 0")
    if count == 0:
        return ()
    needed = start + step * (count - 1) + 1
    return rep.prefix(needed)[start::step][:count]


def even_prefix(rep: MorphicRep, count: int) -> Word:
    return arith_prefix(rep, 0, 2, count)


def odd_prefix(rep: MorphicRep, count: int) -> Word:
    return arith_prefix(rep, 1, 2, count)


def odd_length_power(f: Morphism, max_k: int = 12) -> int | None:
    """Smallest k <= max_k with every |f^k(a)| odd, or None.

    The lengths come from Morphism.power_lengths, so no image is expanded.
    """
    for k, lengths in zip(range(1, max_k + 1), f.power_lengths()):
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
    if not f.is_prolongable(0):
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
