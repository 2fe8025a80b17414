"""Randomized invariants: five suites of at least 200 cases each.

The suites cover the word algebra, the incidence-matrix arithmetic and the
choice of exponents (against a 30-digit decimal reference), the proof
checker (differentially against an independent reimplementation of its
obligations), prover soundness and its safe-cut scan, and the
block-encoding construction.  Alphabets stay at four symbols or fewer and
images at three symbols or fewer; derandomization keeps every run identical.
"""

from dataclasses import replace
from decimal import Decimal, localcontext
from itertools import islice

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from morpheq.certificate import EqualityProblem, Proof, SafePairTable, check_proof
from morpheq.formats import parse_problem
from morpheq.prover import ProveFailure, _smallest_safe_cut, prove_basic, prove_general
from morpheq.repsearch import canonical_form
from morpheq.scaling import CANDIDATE_EXPONENTS, DEFAULT_TOLERANCE, equalize
from morpheq.spectral import estimate_eigenvalue, incidence_matrix
from morpheq.subseq import arith_prefix, block_encode
from morpheq.words import Coding, FixedPoint, Morphism, MorphicRep

from conftest import read_fixture

SUITE = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def word_lists(n: int, min_size=0, max_size=6):
    return st.lists(st.integers(0, n - 1), min_size=min_size, max_size=max_size).map(tuple)


@st.composite
def morphisms(draw, max_n=4, max_len=3):
    n = draw(st.integers(1, max_n))
    images = tuple(
        draw(word_lists(n, min_size=1, max_size=max_len)) for _ in range(n)
    )
    return Morphism(images)


@st.composite
def prolongable_morphisms(draw, max_n=4):
    n = draw(st.integers(1, max_n))
    head = (0,) + draw(word_lists(n, min_size=1, max_size=2))
    rest = tuple(draw(word_lists(n, min_size=1, max_size=3)) for _ in range(n - 1))
    return Morphism((head,) + rest)


@st.composite
def morphism_and_words(draw):
    f = draw(morphisms())
    n = f.alphabet_size
    return f, draw(word_lists(n)), draw(word_lists(n))


class TestWordsCore:
    @SUITE
    @given(morphism_and_words())
    def test_morphisms_are_homomorphisms(self, fuv):
        f, u, v = fuv
        assert f.apply(u + v) == f.apply(u) + f.apply(v)

    @SUITE
    @given(morphism_and_words(), st.integers(1, 2), st.integers(1, 2))
    def test_powers_compose(self, fuv, j, k):
        f, u, _ = fuv
        assert (f ** (j + k)).apply(u) == (f ** j).apply((f ** k).apply(u))

    @SUITE
    @given(prolongable_morphisms(), st.integers(0, 200), st.integers(0, 200))
    def test_prefixes_are_stable(self, f, a, b):
        n, m = min(a, b), max(a, b)
        assert FixedPoint(f).prefix(m)[:n] == FixedPoint(f).prefix(n)

    @SUITE
    @given(prolongable_morphisms(), st.integers(1, 120))
    def test_fixed_point_equation(self, f, n):
        w = FixedPoint(f).prefix(n)
        image = f.apply(w)
        assert image == FixedPoint(f).prefix(len(image))

    @SUITE
    @given(morphism_and_words(), st.data())
    def test_codings_preserve_length_and_concatenation(self, fuv, data):
        f, u, v = fuv
        table = tuple(
            data.draw(st.integers(0, 2)) for _ in range(f.alphabet_size)
        )
        coding = Coding(table, 3)
        assert len(coding.apply(u)) == len(u)
        assert coding.apply(u + v) == coding.apply(u) + coding.apply(v)


def reference_gaps(f: Morphism, g: Morphism) -> list[tuple[tuple[int, int], Decimal]]:
    """Every candidate pair, smallest first, with its 30-digit decimal log-space gap."""
    pairs = sorted(
        ((p, q) for p in CANDIDATE_EXPONENTS for q in CANDIDATE_EXPONENTS),
        key=lambda pq: (max(pq), pq[0] + pq[1], pq[0]),
    )
    with localcontext() as ctx:
        ctx.prec = 30
        log_f, log_g = (
            (Decimal(est.length_next) / Decimal(est.length_now)).ln()
            for est in (estimate_eigenvalue(f, 0, 8), estimate_eigenvalue(g, 0, 8))
        )
        return [((p, q), abs(p * log_f - q * log_g)) for p, q in pairs]


class TestSpectral:
    @SUITE
    @given(morphisms(), st.integers(1, 4))
    def test_incidence_matrix_is_multiplicative(self, f, k):
        single = incidence_matrix(f)
        n = f.alphabet_size
        powered = single
        for _ in range(k - 1):
            powered = tuple(
                tuple(sum(powered[i][m] * single[m][j] for m in range(n)) for j in range(n))
                for i in range(n)
            )
        assert incidence_matrix(f ** k) == powered

    @SUITE
    @given(morphisms(), st.integers(1, 4))
    def test_power_lengths_match_the_powers(self, f, k):
        lengths = next(islice(f.power_lengths(), k - 1, None))
        assert lengths == tuple(map(len, f.power(k).images))

    @SUITE
    @given(morphisms(), morphisms())
    def test_equalize_matches_the_decimal_reference(self, f, g):
        gaps = reference_gaps(f, g)
        tol = Decimal(str(DEFAULT_TOLERANCE))
        assume(all(abs(gap - tol) > Decimal("1e-9") for _, gap in gaps))
        expected = next(((pq, gap) for pq, gap in gaps if gap < tol), None)
        result = equalize(f, g)
        if expected is None:
            assert result is None
        else:
            assert (result.p, result.q) == expected[0]
            assert abs(result.achieved_gap - float(expected[1])) < 1e-12


def reference_verdict(proof: Proof) -> bool:
    """The checker's obligations, recomputed from scratch."""
    problem = proof.problem
    fp = problem.f ** proof.p
    gq = problem.g ** proof.q
    pairs = proof.table.pairs
    decomps = proof.table.decompositions
    count = len(pairs)

    ok = all(len(u) > 0 and len(v) > 0 for u, v in pairs)
    ok = ok and all(
        tuple(problem.tau.table[s] for s in u) == tuple(problem.rho.table[s] for s in v)
        for u, v in pairs
    )
    for (u, v), w in zip(pairs, decomps):
        if any(j < 0 or j >= count for j in w):
            ok = False
            continue
        if fp.apply(u) != tuple(s for j in w for s in pairs[j][0]):
            ok = False
        if gq.apply(v) != tuple(s for j in w for s in pairs[j][1]):
            ok = False
    u0, v0 = pairs[0]
    return ok and len(u0) > 0 and len(v0) > 0 and u0[0] == 0 and v0[0] == 0


class TestCheckerDifferential:
    BASES = [
        prove_general(parse_problem(read_fixture(name)))
        for name in ("fib_three_letter.txt", "even_fib.txt", "pure_pair.txt")
    ]
    KINDS = (
        "p", "q",
        "u-sym", "v-sym", "u-drop", "v-drop", "u-append", "v-append",
        "w-sym", "w-drop", "w-append", "w-wild",
    )

    @staticmethod
    def mutate(proof: Proof, kind: str, data) -> Proof:
        if kind in ("p", "q"):
            old = getattr(proof, kind)
            new = data.draw(st.integers(1, 4).filter(lambda x: x != old))
            return replace(proof, **{kind: new})

        pairs = list(proof.table.pairs)
        decomps = list(proof.table.decompositions)
        i = data.draw(st.integers(0, len(pairs) - 1))
        n_f = proof.problem.f.alphabet_size
        n_g = proof.problem.g.alphabet_size

        if kind.startswith(("u-", "v-")):
            side = 0 if kind[0] == "u" else 1
            alphabet = n_f if side == 0 else n_g
            word = pairs[i][side]
            if kind.endswith("sym") and word:
                at = data.draw(st.integers(0, len(word) - 1))
                new = data.draw(
                    st.integers(0, alphabet - 1).filter(lambda s: s != word[at])
                )
                word = word[:at] + (new,) + word[at + 1 :]
            elif kind.endswith("drop"):
                word = word[:-1]
            else:
                word = word + (data.draw(st.integers(0, alphabet - 1)),)
            pair = list(pairs[i])
            pair[side] = word
            pairs[i] = tuple(pair)
        else:
            w = decomps[i]
            if kind == "w-sym" and len(pairs) > 1 and w:
                at = data.draw(st.integers(0, len(w) - 1))
                new = data.draw(
                    st.integers(0, len(pairs) - 1).filter(lambda j: j != w[at])
                )
                w = w[:at] + (new,) + w[at + 1 :]
            elif kind == "w-drop":
                w = w[:-1]
            elif kind == "w-append":
                w = w + (data.draw(st.integers(0, len(pairs) - 1)),)
            else:
                at = data.draw(st.integers(0, len(w) - 1)) if w else 0
                w = w[:at] + (len(pairs) + data.draw(st.integers(0, 2)),) + w[at + 1 :]
            decomps[i] = w

        return replace(
            proof, table=SafePairTable(tuple(pairs), tuple(decomps))
        )

    @SUITE
    @given(st.data())
    def test_verdict_matches_independent_recheck(self, data):
        base = data.draw(st.sampled_from(self.BASES))
        kind = data.draw(st.sampled_from(self.KINDS))
        mutated = self.mutate(base, kind, data)
        assert check_proof(mutated).ok == reference_verdict(mutated)
        if mutated != base:
            untouched = check_proof(base)
            assert untouched.ok

    @SUITE
    @given(st.data())
    def test_semantic_mutations_are_rejected(self, data):
        # Exponent and decomposition-shape changes always break a minimal
        # correct table; symbol tweaks are covered differentially above.
        base = data.draw(st.sampled_from(self.BASES))
        kind = data.draw(st.sampled_from(("p", "q", "w-drop", "w-wild", "u-drop", "v-drop")))
        mutated = self.mutate(base, kind, data)
        assert not check_proof(mutated).ok


@st.composite
def equality_instances(draw):
    f = draw(prolongable_morphisms(max_n=3))
    n = f.alphabet_size
    tau = Coding(tuple(draw(st.integers(0, 1)) for _ in range(n)), 2)
    if draw(st.booleans()):
        # a pair that is equal by construction: rename the symbols of a power
        k = draw(st.integers(1, 2))
        pi = [0] + list(draw(st.permutations(list(range(1, n)))))
        fk = f ** k
        images: list[tuple[int, ...]] = [()] * n
        table = [0] * n
        for a in range(n):
            images[pi[a]] = tuple(pi[s] for s in fk.images[a])
            table[pi[a]] = tau.table[a]
        g = Morphism(tuple(images))
        rho = Coding(tuple(table), 2)
    else:
        g = draw(prolongable_morphisms(max_n=3))
        rho = Coding(tuple(draw(st.integers(0, 1)) for _ in range(g.alphabet_size)), 2)
    return EqualityProblem(f, tau, g, rho)


@st.composite
def safe_cut_scans(draw):
    """Two words over alphabets of up to three symbols, image lengths for
    each, and a window that may start past both words."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    flen_of = tuple(draw(st.lists(st.integers(1, 3), min_size=m, max_size=m)))
    glen_of = tuple(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    fw = draw(word_lists(m, max_size=12))
    gw = draw(word_lists(n, max_size=len(fw)) if draw(st.booleans()) else word_lists(n, max_size=12))
    start = draw(st.integers(0, max(len(fw), len(gw)) + 2))
    end = draw(st.integers(start, start + 14))
    return fw, gw, flen_of, glen_of, start, end


def naive_safe_cut(fw, gw, flen_of, glen_of, start, end):
    u, v = fw[start:end], gw[start:end]
    for m in range(1, min(len(u), len(v)) + 1):
        if sum(flen_of[s] for s in u[:m]) == sum(glen_of[s] for s in v[:m]):
            return m
    return None


class TestProverSoundness:
    @SUITE
    @given(equality_instances())
    def test_every_success_is_checkable_and_true(self, problem):
        try:
            proof = prove_general(problem)
        except ProveFailure:
            return
        assert check_proof(proof).ok
        left = MorphicRep(problem.f, problem.tau).prefix(10**4)
        right = MorphicRep(problem.g, problem.rho).prefix(10**4)
        assert left == right

    @SUITE
    @given(equality_instances())
    def test_every_basic_success_is_checkable_and_true(self, problem):
        try:
            proof = prove_basic(problem)
        except ProveFailure:
            return
        assert check_proof(proof).ok
        left = MorphicRep(problem.f, problem.tau).prefix(10**4)
        right = MorphicRep(problem.g, problem.rho).prefix(10**4)
        assert left == right

    @SUITE
    @given(safe_cut_scans())
    def test_scan_matches_the_sliced_reference(self, scan):
        assert _smallest_safe_cut(*scan) == naive_safe_cut(*scan)


@st.composite
def odd_image_instances(draw):
    n = draw(st.integers(2, 4))
    images = [(0,) + tuple(draw(st.integers(0, n - 1)) for _ in range(2))]
    for _ in range(n - 1):
        length = draw(st.sampled_from((1, 3)))
        images.append(tuple(draw(st.integers(0, n - 1)) for _ in range(length)))
    tau = Coding(tuple(draw(st.integers(0, 2)) for _ in range(n)), 3)
    return Morphism(tuple(images)), tau


class TestBlockEncoding:
    @SUITE
    @given(odd_image_instances())
    def test_blocks_agree_with_striding(self, instance):
        f, tau = instance
        rep = MorphicRep(f, tau)
        g, first, second = block_encode(f)
        through_first = Coding(tuple(tau.table[s] for s in first.table), 3)
        through_second = Coding(tuple(tau.table[s] for s in second.table), 3)
        assert MorphicRep(g, through_first).prefix(10**4) == arith_prefix(rep, 0, 2, 10**4)
        assert MorphicRep(g, through_second).prefix(10**4) == arith_prefix(rep, 1, 2, 10**4)

    @SUITE
    @given(odd_image_instances())
    def test_block_morphism_is_canonically_numbered(self, instance):
        f, _ = instance
        g, first, second = block_encode(f)
        identity = Coding.identity(g.alphabet_size)
        canon_f, canon_tau = canonical_form(g, identity)
        assert canon_f == g
        assert canon_tau == identity
