"""Equality certificates and their independent checker.

A certificate claims tau(f^oo(0)) = rho(g^oo(0)) for an EqualityProblem.
It is a table of safe pairs (u_i, v_i): equal-length words whose images
under the two (already power-equalized) morphisms f^p, g^q also have equal
length.  If the coded words tau(u_i) and rho(v_i) agree, both images
decompose into table entries along a shared index word w_i, and u_0, v_0
start the two fixed points, then the claim follows by induction on n from
the claims tau(f^n(u_i)) = rho(g^n(v_i)).

check_proof re-derives everything it needs (the scaled morphisms f^p, g^q
included) from the proof's stored base problem, so it accepts or rejects a
certificate on its own authority; the prover is never consulted.  What it
cannot evaluate is a violation, not an exception: a pair symbol outside its
side's alphabet is an "alphabet" violation, and exponents whose powers would
pass words.POWER_LIMIT, or decompositions that would expand more than
words.EXPAND_BUDGET symbols, are a "budget" violation.  Each decomposition
is compared by lengths before it is expanded.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

from .words import EXPAND_BUDGET, AlphabetError, Coding, Morphism, NotProlongableError, PowerLimitError, Word


class ProofMode(enum.Enum):
    GENERAL = "general"
    BASIC = "basic"


@dataclass(frozen=True)
class EqualityProblem:
    """Are tau(f^oo(0)) and rho(g^oo(0)) the same sequence?"""

    f: Morphism
    tau: Coding
    g: Morphism
    rho: Coding

    def __post_init__(self):
        if self.tau.source_size != self.f.alphabet_size:
            raise ValueError("tau does not cover f's alphabet")
        if self.rho.source_size != self.g.alphabet_size:
            raise ValueError("rho does not cover g's alphabet")
        for name, m in (("f", self.f), ("g", self.g)):
            if not m.is_prolongable():
                raise NotProlongableError(
                    f"{name}(0) must start with 0 and have length >= 2"
                )


@dataclass(frozen=True)
class SafePairTable:
    """Safe pairs plus, per pair, the index word decomposing both images."""

    pairs: tuple[tuple[Word, Word], ...]
    decompositions: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "pairs", tuple((tuple(u), tuple(v)) for u, v in self.pairs)
        )
        object.__setattr__(
            self, "decompositions", tuple(tuple(w) for w in self.decompositions)
        )
        if len(self.pairs) == 0:
            raise ValueError("table needs at least one pair")
        if len(self.pairs) != len(self.decompositions):
            raise ValueError("each pair needs exactly one decomposition")

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class Proof:
    """A checkable equality certificate for problem, at exponents (p, q).

    The table speaks about f^p and g^q; those are computed from the stored
    problem on first use and never serialized, so they cannot drift out of sync.
    """

    problem: EqualityProblem
    p: int
    q: int
    table: SafePairTable
    mode: ProofMode = ProofMode.GENERAL

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise ValueError("exponents must be at least 1")

    @cached_property
    def scaled_f(self) -> Morphism:
        return self.problem.f.power(self.p)

    @cached_property
    def scaled_g(self) -> Morphism:
        if (self.problem.g, self.q) == (self.problem.f, self.p):
            return self.scaled_f
        return self.problem.g.power(self.q)


@dataclass(frozen=True)
class Violation:
    condition: str
    pair: int
    detail: str


@dataclass(frozen=True)
class CheckReport:
    ok: bool
    violations: tuple[Violation, ...]


def check_proof(proof: Proof) -> CheckReport:
    """Verify every induction-proof obligation of the table; report all failures."""
    problem = proof.problem
    pairs = proof.table.pairs
    violations: list[Violation] = []

    for i, (u, v) in enumerate(pairs):
        if len(u) == 0 or len(v) == 0:
            violations.append(Violation("nonempty", i, "empty word in pair"))

    # A pair with a symbol outside its side's alphabet gets no further checks.
    valid = []
    for i, (u, v) in enumerate(pairs):
        try:
            coded = problem.tau.apply(u), problem.rho.apply(v)
        except AlphabetError as err:
            violations.append(Violation("alphabet", i, str(err)))
            continue
        if coded[0] != coded[1]:
            violations.append(
                Violation("coding-eq", i, "coded words of the pair differ")
            )
        valid.append(i)

    violations.extend(_decomposition_violations(proof, valid))

    u0, v0 = pairs[0]
    if not (len(u0) > 0 and u0[0] == 0 and len(v0) > 0 and v0[0] == 0):
        violations.append(
            Violation("start-symbol", 0, "first pair does not start both fixed points")
        )

    return CheckReport(len(violations) == 0, tuple(violations))


def _decomposition_violations(proof: Proof, valid: list[int]):
    """The decomposition violations of the pairs in valid, in order."""
    try:
        sides = (("f", proof.scaled_f), ("g", proof.scaled_g))
    except PowerLimitError as err:
        # No decomposition can be checked without the powers.
        yield Violation("budget", 0, str(err))
        return
    pairs, expanded = proof.table.pairs, 0
    for i in valid:
        w = proof.table.decompositions[i]
        if any(not 0 <= j < len(pairs) for j in w):
            yield Violation("f-decomposition", i, "decomposition index out of range")
            continue
        for k, (name, m) in enumerate(sides):
            lengths = m.image_lengths()
            size = sum(lengths[s] for s in pairs[i][k])
            if size == sum(len(pairs[j][k]) for j in w):
                expanded += size
                if expanded > EXPAND_BUDGET:
                    yield Violation("budget", i, f"decompositions expand more than {EXPAND_BUDGET} symbols")
                    return
                if m.apply(pairs[i][k]) == tuple(s for j in w for s in pairs[j][k]):
                    continue
            yield Violation(f"{name}-decomposition", i, f"{name}-image does not match the index word")
