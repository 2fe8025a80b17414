"""Line-oriented text formats for problems and proofs.

A problem file names two coded representations, digits only, alphabets of
at most ten symbols:

    n_f
    f(0) .. f(n_f - 1)      one image per line
    tau                     n_f digits, coding of f's symbols
    n_g
    g(0) .. g(n_g - 1)
    rho                     n_g digits

The output alphabet is inferred as one past the largest coded digit on
either coding line.  Trailing whitespace and trailing newlines are
tolerated; anything else is rejected with the offending line number.

A proof file is a problem block followed by the certificate: a line with
the exponents and the proof mode, the pair count, then per pair the words
u_i and v_i as digit strings and the index word w_i as space-separated
numbers (pair indices can exceed one digit, words cannot).  Digits are
ASCII 0-9 only, checked by words.is_digits: the other digits str.isdigit
takes, such as superscripts, are rejected with their line number.
"""

from __future__ import annotations

from .certificate import EqualityProblem, Proof, ProofMode, SafePairTable
from .words import Coding, Morphism, Word, format_word, is_digits, parse_word


class ParseError(ValueError):
    """Malformed input file; line is 1-based."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


MAX_CODEC_ALPHABET = 10


def _number(digits: str, lineno: int) -> int:
    try:
        return int(digits)
    except ValueError:
        raise ParseError(lineno, f"number too long to read ({len(digits)} digits)") from None


class _Cursor:
    def __init__(self, text: str):
        self.lines = text.split("\n")
        self.pos = 0

    def next(self, expected: str) -> str:
        if self.pos >= len(self.lines):
            raise ParseError(self.pos + 1, f"missing {expected}")
        raw = self.lines[self.pos].rstrip()
        self.pos += 1
        if not raw:
            if any(line.strip() for line in self.lines[self.pos :]):
                raise ParseError(self.pos, f"blank line where {expected} was expected")
            raise ParseError(self.pos, f"missing {expected}")
        return raw

    def expect_end(self) -> None:
        while self.pos < len(self.lines):
            if self.lines[self.pos].strip():
                raise ParseError(self.pos + 1, "unexpected extra content")
            self.pos += 1


def _parse_count(cursor: _Cursor, what: str) -> int:
    line = cursor.next(f"{what} alphabet size")
    lineno = cursor.pos
    if not is_digits(line):
        raise ParseError(lineno, f"alphabet size must be a number, got {line!r}")
    n = _number(line, lineno)
    if not 1 <= n <= MAX_CODEC_ALPHABET:
        raise ParseError(lineno, f"alphabet size must be 1..{MAX_CODEC_ALPHABET}, got {n}")
    return n


def _parse_digit_word(cursor: _Cursor, what: str, alphabet: int) -> Word:
    line = cursor.next(what)
    lineno = cursor.pos
    if not is_digits(line):
        raise ParseError(lineno, f"{what} must be a digit string, got {line!r}")
    w = parse_word(line)
    for s in w:
        if s >= alphabet:
            raise ParseError(lineno, f"{what} uses symbol {s}, alphabet has {alphabet}")
    return w


def _parse_side(cursor: _Cursor, name: str) -> tuple[Morphism, tuple[int, ...]]:
    n = _parse_count(cursor, name)
    images = tuple(
        _parse_digit_word(cursor, f"image {name}({a})", n) for a in range(n)
    )
    coding_line = cursor.next(f"coding line for {name}")
    lineno = cursor.pos
    if not is_digits(coding_line):
        raise ParseError(lineno, f"coding must be a digit string, got {coding_line!r}")
    if len(coding_line) != n:
        raise ParseError(
            lineno, f"coding must have exactly {n} digits, got {len(coding_line)}"
        )
    return Morphism(images), parse_word(coding_line)


def _problem_from_cursor(cursor: _Cursor) -> EqualityProblem:
    f, tau_table = _parse_side(cursor, "f")
    g, rho_table = _parse_side(cursor, "g")
    target = max(max(tau_table), max(rho_table)) + 1
    return EqualityProblem(
        f, Coding(tau_table, target), g, Coding(rho_table, target)
    )


def parse_problem(text: str) -> EqualityProblem:
    cursor = _Cursor(text)
    problem = _problem_from_cursor(cursor)
    cursor.expect_end()
    return problem


def parse_rep(text: str) -> tuple[Morphism, Coding]:
    """Parse one representation: alphabet size, images, coding line."""
    cursor = _Cursor(text)
    f, table = _parse_side(cursor, "f")
    cursor.expect_end()
    return f, Coding(table, max(table) + 1)


def serialize_rep(images: tuple[Word, ...], table: Word, fmt=format_word) -> str:
    """The lines parse_rep reads, each word formatted by fmt: alphabet size, images, coding."""
    lines = [str(len(images)), *map(fmt, images), fmt(table)]
    return "\n".join(lines) + "\n"


def serialize_problem(problem: EqualityProblem) -> str:
    f, g = problem.f.images, problem.g.images
    return serialize_rep(f, problem.tau.table) + serialize_rep(g, problem.rho.table)


def parse_proof(text: str) -> Proof:
    cursor = _Cursor(text)
    problem = _problem_from_cursor(cursor)

    header = cursor.next("exponents line")
    lineno = cursor.pos
    parts = header.split()
    if len(parts) != 3:
        raise ParseError(lineno, "expected 'p q mode'")
    if not (is_digits(parts[0]) and is_digits(parts[1])):
        raise ParseError(lineno, "exponents must be numbers")
    p, q = _number(parts[0], lineno), _number(parts[1], lineno)
    if p < 1 or q < 1:
        raise ParseError(lineno, "exponents must be at least 1")
    try:
        mode = ProofMode(parts[2])
    except ValueError:
        raise ParseError(lineno, f"unknown proof mode {parts[2]!r}") from None

    count_line = cursor.next("pair count")
    lineno = cursor.pos
    if not is_digits(count_line) or (count := _number(count_line, lineno)) < 1:
        raise ParseError(lineno, "pair count must be a positive number")

    pairs = []
    decomps = []
    for i in range(count):
        u = _parse_digit_word(cursor, f"word u_{i}", problem.f.alphabet_size)
        v = _parse_digit_word(cursor, f"word v_{i}", problem.g.alphabet_size)
        w_line = cursor.next(f"index word w_{i}")
        lineno = cursor.pos
        tokens = w_line.split()
        if not all(map(is_digits, tokens)):
            raise ParseError(lineno, "index word must be space-separated numbers")
        w = tuple(_number(t, lineno) for t in tokens)
        if any(j >= count for j in w):
            raise ParseError(lineno, f"index word refers outside the {count} pairs")
        pairs.append((u, v))
        decomps.append(w)
    cursor.expect_end()
    return Proof(problem, p, q, SafePairTable(tuple(pairs), tuple(decomps)), mode)


def serialize_proof(proof: Proof) -> str:
    out = serialize_problem(proof.problem)
    out += f"{proof.p} {proof.q} {proof.mode.value}\n"
    out += f"{len(proof.table)}\n"
    for (u, v), w in zip(proof.table.pairs, proof.table.decompositions):
        out += format_word(u) + "\n"
        out += format_word(v) + "\n"
        out += " ".join(str(j) for j in w) + "\n"
    return out
