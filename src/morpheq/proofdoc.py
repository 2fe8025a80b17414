"""Independent checking and rendering of safe-pair induction proofs.

check_proof re-derives everything it needs (the scaled morphisms f^p, g^q
included) from the proof's stored base problem, so it accepts or rejects a
certificate on its own authority; the prover is never consulted.  What it
cannot evaluate is a violation, not an exception: a pair symbol outside its
side's alphabet is an "alphabet" violation, and exponents whose powers would
pass words.POWER_LIMIT, or decompositions that would expand more than
words.EXPAND_BUDGET symbols, are a "budget" violation.  Each decomposition
is compared by lengths before it is expanded.  Renderers refuse proofs that
do not pass the checker and otherwise emit a fixed, deterministic document:
scaling announcements, the claim, the numbered simultaneous properties, the
n=0 basis, one induction-step block per pair, and a closing line, with one
blank line between blocks.  Text and LaTeX come from one template, and a
notation table holds every difference between them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .prover import Proof
from .words import EXPAND_BUDGET, AlphabetError, PowerLimitError, format_word


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


@dataclass(frozen=True)
class _Notation:
    """Every difference between the text and LaTeX renderings."""

    tau: str
    rho: str
    next: str  # exponent n+1
    inf: str  # exponent of the fixed point
    lead: str  # before a block of prose
    math: str  # around a formula
    open_eq: str  # ends an equation that goes on in the next block


_TEXT = _Notation("τ", "ρ", "^(n+1)", "^∞", "", "", " =")
_LATEX = _Notation("\\tau", "\\rho", "^{n+1}", "^\\infty", "\\noindent ", "$", " = $")


def _render(proof: Proof, t: _Notation) -> str:
    violations = check_proof(proof).violations
    if violations:
        raise ValueError(
            f"refusing to render: proof fails checking "
            f"({violations[0].condition} on pair {violations[0].pair})"
        )
    pairs = proof.table.pairs

    def math(s: str) -> str:
        return f"{t.math}{s}{t.math}"

    def tf(power: str, w: str) -> str:
        return f"{t.tau}(f{power}({w}))"

    def rg(power: str, w: str) -> str:
        return f"{t.rho}(g{power}({w}))"

    blocks: list[str] = []
    for name, k, m in (("f", proof.p, proof.scaled_f), ("g", proof.q, proof.scaled_g)):
        if k > 1:
            images = ", ".join(f"{name}({a}) = {format_word(im)}" for a, im in enumerate(m.images))
            blocks.append(f"{t.lead}Replace {math(name)} by {math(f'{name}^{k}')}:\n{math(images)}.")

    claim = f"{tf(t.inf, '0')} = {rg(t.inf, '0')}"
    blocks.append(f"{t.lead}Claim to be proved: {math(claim)}.")

    noun = "property" if len(pairs) == 1 else "properties"
    blocks.append(
        f"{t.lead}We will prove the following {len(pairs)} {noun} "
        f"simultaneously by induction on {math('n')}."
    )

    for i, (u, v) in enumerate(pairs):
        prop = f"{tf('^n', format_word(u))} = {rg('^n', format_word(v))}"
        blocks.append(f"({i}) {math(prop)}.")

    blocks.append(f"{t.lead}Then our claim follows from (0).")

    blocks.append(f"{t.lead}Basis {math('n=0')} of induction:")
    for u, v in pairs:
        coded = format_word(proof.problem.tau.apply(u))
        basis = f"{tf('^0', format_word(u))} = {coded} = {rg('^0', format_word(v))}"
        blocks.append(f"{math(basis)}.")
    blocks.append(f"{t.lead}Basis of induction proved.")

    for i, ((u, v), w) in enumerate(zip(pairs, proof.table.decompositions)):
        blocks.append(f"{t.lead}Induction step part ({i}):")
        fu = format_word(proof.scaled_f.apply(u))
        gv = format_word(proof.scaled_g.apply(v))
        uw = format_word(u)
        vw = format_word(v)
        opening = f"{tf(t.next, uw)} = {tf('^n', f'f({uw})')} = {tf('^n', fu)}"
        blocks.append(f"{t.math}{opening}{t.open_eq}")
        lhs = " ".join(tf("^n", format_word(pairs[j][0])) for j in w)
        blocks.append(f"{t.math}{lhs} ={t.math} (by induction hypothesis)")
        rhs = " ".join(rg("^n", format_word(pairs[j][1])) for j in w)
        blocks.append(f"{t.math}{rhs}{t.open_eq}")
        closing = f"{rg('^n', gv)} = {rg('^n', f'g({vw})')} = {rg(t.next, vw)}."
        blocks.append(math(closing))

    blocks.append(f"{t.lead}Induction step proved, hence claim proved.")
    return "\n\n".join(blocks) + "\n"


def render_text(proof: Proof) -> str:
    """Plain-text proof document; requires the proof to pass check_proof."""
    return _render(proof, _TEXT)


def render_latex(proof: Proof) -> str:
    """LaTeX body fragment of the proof; requires the proof to pass check_proof."""
    return _render(proof, _LATEX)
