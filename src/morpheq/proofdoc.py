"""Independent checking and rendering of safe-pair induction proofs.

check_proof re-derives everything it needs (the scaled morphisms f^p, g^q
included) from the proof's stored base problem, so it accepts or rejects a
certificate on its own authority; the prover is never consulted.  What it
cannot evaluate is a violation, not an exception: a pair symbol outside its
side's alphabet is an "alphabet" violation, and exponents whose powers would
pass words.POWER_LIMIT, or decompositions that would expand more than
EXPAND_BUDGET symbols, are a "budget" violation.  Each decomposition is
compared by lengths before it is expanded.  Renderers refuse proofs that do
not pass the checker and otherwise emit a fixed, deterministic document:
scaling announcements, the claim, the numbered simultaneous properties, the
n=0 basis, one induction-step block per pair, and a closing line, with one
blank line between blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .prover import Proof
from .words import AlphabetError, Morphism, PowerLimitError, format_word


# Most symbols check_proof expands in all, at about 24 bytes each while their
# obligation is checked: near 100 MB and 2 s (2 vCPU).  prove writes at most
# 29,046 in basic mode and 750 in general mode over the benchmark's decide
# corpus, seeds 1-3, and every fixture.
EXPAND_BUDGET = 1 << 22


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


def _images_text(name: str, m: Morphism) -> str:
    return ", ".join(f"{name}({a}) = {format_word(im)}" for a, im in enumerate(m.images))


def _require_checked(proof: Proof) -> None:
    report = check_proof(proof)
    if not report.ok:
        first = report.violations[0]
        raise ValueError(
            f"refusing to render: proof fails checking "
            f"({first.condition} on pair {first.pair})"
        )


def _blocks(proof: Proof, latex: bool) -> list[str]:
    fp = proof.scaled_f
    gq = proof.scaled_g
    tau = proof.problem.tau
    pairs = proof.table.pairs
    decomps = proof.table.decompositions

    if latex:
        t, r = "\\tau", "\\rho"
        n_now, n_zero, n_next, inf = "^n", "^0", "^{n+1}", "^\\infty"
        lead = "\\noindent "
    else:
        t, r = "τ", "ρ"
        n_now, n_zero, n_next, inf = "^n", "^0", "^(n+1)", "^∞"
        lead = ""

    def math(s: str) -> str:
        return f"${s}$" if latex else s

    def tf(power: str, w: str) -> str:
        return f"{t}(f{power}({w}))"

    def rg(power: str, w: str) -> str:
        return f"{r}(g{power}({w}))"

    def replace_block(name: str, k: int, m: Morphism) -> str:
        images = _images_text(name, m)
        if latex:
            return f"{lead}Replace ${name}$ by ${name}^{k}$:\n${images}$."
        return f"Replace {name} by {name}^{k}:\n{images}."

    blocks: list[str] = []
    if proof.p > 1:
        blocks.append(replace_block("f", proof.p, fp))
    if proof.q > 1:
        blocks.append(replace_block("g", proof.q, gq))

    claim = f"{tf(inf, '0')} = {rg(inf, '0')}"
    blocks.append(f"{lead}Claim to be proved: {math(claim)}.")

    noun = "property" if len(pairs) == 1 else "properties"
    induction_on = math("n")
    blocks.append(
        f"{lead}We will prove the following {len(pairs)} {noun} "
        f"simultaneously by induction on {induction_on}."
    )

    for i, (u, v) in enumerate(pairs):
        prop = f"{tf(n_now, format_word(u))} = {rg(n_now, format_word(v))}"
        blocks.append(f"({i}) {math(prop)}.")

    blocks.append(f"{lead}Then our claim follows from (0).")

    blocks.append(f"{lead}Basis {math('n=0')} of induction:")
    for u, v in pairs:
        coded = format_word(tau.apply(u))
        basis = f"{tf(n_zero, format_word(u))} = {coded} = {rg(n_zero, format_word(v))}"
        blocks.append(f"{math(basis)}.")
    blocks.append(f"{lead}Basis of induction proved.")

    for i, ((u, v), w) in enumerate(zip(pairs, decomps)):
        blocks.append(f"{lead}Induction step part ({i}):")
        fu = format_word(fp.apply(u))
        gv = format_word(gq.apply(v))
        uw = format_word(u)
        vw = format_word(v)
        opening = f"{tf(n_next, uw)} = {tf(n_now, f'f({uw})')} = {tf(n_now, fu)}"
        blocks.append(f"${opening} = $" if latex else f"{opening} =")
        lhs = " ".join(tf(n_now, format_word(pairs[j][0])) for j in w)
        hyp = "(by induction hypothesis)"
        blocks.append(f"${lhs} =$ {hyp}" if latex else f"{lhs} = {hyp}")
        rhs = " ".join(rg(n_now, format_word(pairs[j][1])) for j in w)
        blocks.append(f"${rhs} = $" if latex else f"{rhs} =")
        closing = f"{rg(n_now, gv)} = {rg(n_now, f'g({vw})')} = {rg(n_next, vw)}."
        blocks.append(math(closing))

    blocks.append(f"{lead}Induction step proved, hence claim proved.")
    return blocks


def render_text(proof: Proof) -> str:
    """Plain-text proof document; requires the proof to pass check_proof."""
    _require_checked(proof)
    return "\n\n".join(_blocks(proof, latex=False)) + "\n"


def render_latex(proof: Proof) -> str:
    """LaTeX body fragment of the proof; requires the proof to pass check_proof."""
    _require_checked(proof)
    return "\n\n".join(_blocks(proof, latex=True)) + "\n"
