"""Rendering of checked safe-pair induction proofs.

Renderers refuse proofs that do not pass certificate.check_proof and
otherwise emit a fixed, deterministic document: scaling announcements, the
claim, the numbered simultaneous properties, the n=0 basis, one
induction-step block per pair, and a closing line, with one blank line
between blocks.  Text and LaTeX come from one template, and a notation
table holds every difference between them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .certificate import Proof, check_proof
from .words import format_word


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

    words = [(format_word(u), format_word(v)) for u, v in pairs]
    # Each pair's two sides at n, built once for every index word that names the pair.
    terms = [(tf("^n", uw), rg("^n", vw)) for uw, vw in words]
    for i, term in enumerate(terms):
        blocks.append(f"({i}) {math(' = '.join(term))}.")

    blocks.append(f"{t.lead}Then our claim follows from (0).")

    blocks.append(f"{t.lead}Basis {math('n=0')} of induction:")
    for (u, _), (uw, vw) in zip(pairs, words):
        coded = format_word(proof.problem.tau.apply(u))
        basis = f"{tf('^0', uw)} = {coded} = {rg('^0', vw)}"
        blocks.append(f"{math(basis)}.")
    blocks.append(f"{t.lead}Basis of induction proved.")

    for i, ((u, v), (uw, vw), w) in enumerate(zip(pairs, words, proof.table.decompositions)):
        blocks.append(f"{t.lead}Induction step part ({i}):")
        fu = format_word(proof.scaled_f.apply(u))
        gv = format_word(proof.scaled_g.apply(v))
        opening = f"{tf(t.next, uw)} = {tf('^n', f'f({uw})')} = {tf('^n', fu)}"
        blocks.append(f"{t.math}{opening}{t.open_eq}")
        lhs = " ".join(terms[j][0] for j in w)
        blocks.append(f"{t.math}{lhs} ={t.math} (by induction hypothesis)")
        rhs = " ".join(terms[j][1] for j in w)
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
