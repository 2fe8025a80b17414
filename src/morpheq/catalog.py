"""Named example representations and builtin target prefixes.

A small gallery of classic sequences used by the command line and the test
suite: the Fibonacci word, the spiral-count sequence (1101001000100001...,
ones separated by growing runs of zeros), and the minimal known coded
representations of the even- and odd-indexed subsequences of the Fibonacci
word.  Builtin targets select positions through subseq.arith_prefix;
even-fib and odd-fib come from the Fibonacci word, not from those two reps.
"""

from __future__ import annotations

from .subseq import arith_prefix
from .words import Coding, Morphism, MorphicRep, Word


def fib_rep() -> MorphicRep:
    """The Fibonacci word 0100101001001... as a pure morphic sequence."""
    return MorphicRep.pure(Morphism.from_strings("01", "0"))


def spir_rep() -> MorphicRep:
    """1101001000100001...: ones exactly at the triangular numbers k(k+1)/2."""
    return MorphicRep(Morphism.from_strings("01", "21", "2"), Coding.from_string("110"))


def even_fib_rep() -> MorphicRep:
    """Minimal known representation of the even-indexed Fibonacci subsequence."""
    return MorphicRep(
        Morphism.from_strings("01", "2", "31", "04", "0"),
        Coding.from_string("00111"),
    )


def odd_fib_rep() -> MorphicRep:
    """Minimal known representation of the odd-indexed Fibonacci subsequence."""
    return MorphicRep(
        Morphism.from_strings("01", "51", "30", "4", "3", "2"),
        Coding.from_string("101010"),
    )


# name -> (representation, first position, step)
BUILTINS = {
    "fib": (fib_rep, 0, 1),
    "even-fib": (fib_rep, 0, 2),
    "odd-fib": (fib_rep, 1, 2),
    "spir": (spir_rep, 0, 1),
}
BUILTIN_NAMES = tuple(BUILTINS)


def builtin_prefix(name: str, count: int) -> Word:
    """First count symbols of a named builtin sequence."""
    if name not in BUILTINS:
        raise ValueError(f"unknown builtin {name!r}; expected one of {', '.join(BUILTIN_NAMES)}")
    rep, start, step = BUILTINS[name]
    return arith_prefix(rep(), start, step, count)
