"""Constructing simultaneous-induction proofs that two coded fixed points agree.

morpheq.certificate defines the certificate, a safe-pair table, and when it holds.

Two constructions are provided.  The general one greedily closes the table:
scan f(u_i) against g(v_i) left to right, at each cut take the smallest safe
pair, reuse or append it, and record its index; there is no backtracking, and
the first coding violation aborts the attempt.  The basic one tries the fixed
shape v_i = w_i = g(i) with u_i cut out of f's fixed point at the position
where symbol i first occurs in g's fixed point.  The general one gives up
as pair-budget-exceeded before its table makes check_proof expand more than
words.EXPAND_BUDGET symbols.  The basic one gives up where check_proof
rejects its table, at the lowest pair rejected: as coding-mismatch if the
coded words differ, otherwise as decomposition-stuck.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import accumulate
from typing import ClassVar

from .certificate import EqualityProblem, Proof, ProofMode, SafePairTable, check_proof
from .scaling import DEFAULT_TOLERANCE, equalize
from .words import EXPAND_BUDGET, POWER_BYTES, Coding, FixedPoint, Morphism, Word, format_word, prune_unreachable


class FailureStage(enum.Enum):
    EIGENVALUE_MISMATCH = "eigenvalue-mismatch"
    NO_INITIAL_SAFE_PAIR = "no-initial-safe-pair"
    DECOMPOSITION_STUCK = "decomposition-stuck"
    CODING_MISMATCH = "coding-mismatch"
    PAIR_BUDGET_EXCEEDED = "pair-budget-exceeded"


class ProveFailure(Exception):
    """A proof attempt gave up; stage says where, detail says why."""

    def __init__(self, stage: FailureStage, detail: str):
        super().__init__(f"{stage.value}: {detail}")
        self.stage = stage
        self.detail = detail


# Longest safe pair the prover considers.  Looking for one reads up to this
# many symbols of each fixed point, so it bounds that time and memory.
MAX_PAIR_LEN = 10**5
# Most pairs a general table may hold.
MAX_PAIRS = 64
# The basic mode looks for the first occurrence of each symbol of g within
# this many symbols of g's fixed point, and cuts its pairs out of at most
# PREFIX_BUDGET symbols of f's.
HORIZON = 10**5
PREFIX_BUDGET = 10**6


def _check_pair_len(max_len: int) -> None:
    if not 1 <= max_len <= MAX_PAIR_LEN:
        raise ValueError(f"max_pair_len is {max_len}; it must be between 1 and {MAX_PAIR_LEN}")


@dataclass(frozen=True)
class ProverConfig:
    max_pair_len: int = 10
    tol: float = DEFAULT_TOLERANCE
    # Power-method steps of the growth-rate estimates.
    eigen_iterations: ClassVar[int] = 8

    def __post_init__(self):
        _check_pair_len(self.max_pair_len)


def _show(w: Word) -> str:
    try:
        return format_word(w)
    except ValueError:
        return ",".join(str(s) for s in w)


def _smallest_safe_cut(
    fw: Word, gw: Word, flen_of: tuple[int, ...], glen_of: tuple[int, ...], start: int, end: int
) -> int | None:
    """Smallest m whose m-symbol prefixes u, v of fw[start:end], gw[start:end] have |f(u)| = |g(v)|, or None."""
    flen = glen = 0
    for i in range(start, min(end, len(fw), len(gw))):
        flen += flen_of[fw[i]]
        glen += glen_of[gw[i]]
        if flen == glen:
            return i + 1 - start
    return None


def find_initial_safe_pair(
    f: Morphism, g: Morphism, max_len: int = 10
) -> tuple[Word, Word]:
    """Smallest equal-length prefixes of the two fixed points forming a safe pair.

    Reads prefixes of each fixed point that double from POWER_BYTES symbols
    up to max_len, and stops at the first that holds a safe cut; max_len
    must lie in 1..MAX_PAIR_LEN, as in ProverConfig.
    """
    _check_pair_len(max_len)
    fp, gp = FixedPoint(f), FixedPoint(g)
    size = 0
    while size < max_len:
        size = min(max_len, max(2 * size, POWER_BYTES))
        fw, gw = fp.prefix(size), gp.prefix(size)
        cut = _smallest_safe_cut(fw, gw, f.image_lengths(), g.image_lengths(), 0, size)
        if cut is not None:
            return fw[:cut], gw[:cut]
    raise ProveFailure(FailureStage.NO_INITIAL_SAFE_PAIR, f"no safe prefix pair up to length {max_len}")


def derive_table(
    f: Morphism,
    tau: Coding,
    g: Morphism,
    rho: Coding,
    config: ProverConfig = ProverConfig(),
) -> SafePairTable:
    """Close the safe-pair table starting from the smallest safe prefix pair.

    f and g must already be scaled to a common growth rate; the closure
    fails as decomposition-stuck otherwise, because the image lengths of
    candidate cuts drift apart.
    """
    flen_of = f.image_lengths()
    glen_of = g.image_lengths()

    pairs: list[tuple[Word, Word]] = []
    index: dict[tuple[Word, Word], int] = {}
    decompositions: list[tuple[int, ...]] = []

    def intern(u: Word, v: Word) -> int:
        key = (u, v)
        known = index.get(key)
        if known is not None:
            return known
        if len(pairs) >= MAX_PAIRS:
            raise ProveFailure(
                FailureStage.PAIR_BUDGET_EXCEEDED,
                f"more than {MAX_PAIRS} safe pairs needed",
            )
        if tau.apply(u) != rho.apply(v):
            raise ProveFailure(
                FailureStage.CODING_MISMATCH,
                f"coded words differ on pair ({_show(u)}, {_show(v)})",
            )
        index[key] = len(pairs)
        pairs.append(key)
        return index[key]

    intern(*find_initial_safe_pair(f, g, config.max_pair_len))
    i = expanded = 0
    while i < len(pairs):
        u, v = pairs[i]
        # What check_proof expands for this pair: |f(u)| + |g(v)|.
        expanded += sum(flen_of[s] for s in u) + sum(glen_of[s] for s in v)
        if expanded > EXPAND_BUDGET:
            raise ProveFailure(
                FailureStage.PAIR_BUDGET_EXCEEDED,
                f"pairs expand more than {EXPAND_BUDGET} symbols",
            )
        fu = f.apply(u)
        gv = g.apply(v)
        w: list[int] = []
        pos = 0
        total = len(fu)
        while pos < total:
            cut = _smallest_safe_cut(fu, gv, flen_of, glen_of, pos, pos + config.max_pair_len)
            if cut is None:
                raise ProveFailure(
                    FailureStage.DECOMPOSITION_STUCK,
                    f"no safe pair at offset {pos} while decomposing pair {i}",
                )
            w.append(intern(fu[pos : pos + cut], gv[pos : pos + cut]))
            pos += cut
        decompositions.append(tuple(w))
        i += 1
    return SafePairTable(tuple(pairs), tuple(decompositions))


def _scaled(problem: EqualityProblem, config: ProverConfig) -> tuple[EqualityProblem, int, int]:
    """The problem pruned to the symbols reachable from 0, and the exponents
    (p, q) that bring its growth rates together."""
    f, tau, _ = prune_unreachable(problem.f, problem.tau, 0)
    g, rho, _ = prune_unreachable(problem.g, problem.rho, 0)
    scaling = equalize(f, g, config.tol, config.eigen_iterations)
    if scaling is None:
        raise ProveFailure(
            FailureStage.EIGENVALUE_MISMATCH,
            f"no exponent pair brings the growth rates within {config.tol}",
        )
    return EqualityProblem(f, tau, g, rho), scaling.p, scaling.q


def prove_general(
    problem: EqualityProblem, config: ProverConfig = ProverConfig()
) -> Proof:
    """Prune, equalize growth rates, then close the safe-pair table."""
    norm, p, q = _scaled(problem, config)
    table = derive_table(
        norm.f.power(p), norm.tau, norm.g.power(q), norm.rho, config
    )
    return Proof(norm, p, q, table, ProofMode.GENERAL)


def prove_basic(
    problem: EqualityProblem, config: ProverConfig = ProverConfig()
) -> Proof:
    """Try the fixed table shape v_i = w_i = g(i), one pair per symbol of g.

    u_i is the factor of f's fixed point spanning the same positions that
    g(i) spans in g's fixed point right after the first occurrence of i.
    """
    norm, p, q = _scaled(problem, config)
    fp = norm.f.power(p)
    gq = norm.g.power(q)
    n = gq.alphabet_size

    seq_g = FixedPoint(gq)
    first = seq_g.first_occurrences(HORIZON)
    if len(first) < n:
        missing = min(set(range(n)) - set(first))
        raise ProveFailure(
            FailureStage.DECOMPOSITION_STUCK,
            f"symbol {missing} does not occur in the first {HORIZON} "
            "symbols of g's fixed point",
        )
    # g(i) starts where the images of the symbols before the first i end.
    glen = gq.image_lengths()
    ends = list(accumulate((glen[s] for s in seq_g.prefix(max(first.values()))), initial=0))

    seq_f = FixedPoint(fp)
    us: list[Word] = []
    for i in range(n):
        v = gq.images[i]
        start = ends[first[i]]
        end = start + len(v)
        if end > PREFIX_BUDGET:
            raise ProveFailure(
                FailureStage.DECOMPOSITION_STUCK,
                f"pair for symbol {i} needs more than {PREFIX_BUDGET} "
                "symbols of f's fixed point",
            )
        us.append(seq_f.factor(start, end))

    table = SafePairTable(tuple(zip(us, gq.images)), gq.images)
    proof = Proof(norm, p, q, table, ProofMode.BASIC)
    violations = check_proof(proof).violations
    if not violations:
        return proof
    # Give up at the lowest pair the checker rejects, for its first reason.
    i = min(bad.pair for bad in violations)
    condition = next(bad.condition for bad in violations if bad.pair == i)
    u, v = table.pairs[i]
    if condition == "coding-eq":
        raise ProveFailure(
            FailureStage.CODING_MISMATCH,
            f"coded words differ on pair ({_show(u)}, {_show(v)}) for symbol {i}",
        )
    if condition == "budget":
        detail = f"pairs expand more than {EXPAND_BUDGET} symbols"
    else:
        detail = f"f-image of {_show(u)} does not decompose along g({i}) = {_show(v)}"
    raise ProveFailure(FailureStage.DECOMPOSITION_STUCK, detail)
