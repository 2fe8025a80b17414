"""Seeded problem generator with answers known by construction.

Every equal problem is built from a random base representation (f, tau) by
a transformation that provably keeps the coded fixed point:

  rename  permute the symbols of f other than 0
  power   f against f^2 or f^3 with the same coding
  block2  the sliding 2-block presentation: symbol (a, b) stands for the
          factor ab, and is coded by tau(a)
  subseq  the even-indexed subsequence, block-encoded once from f^k and
          once from f^3k, k the smallest power with odd image lengths

An unequal problem is an equal one with one coding digit changed.  The
sequences then first differ where the changed symbol first occurs, which
the oracle finds and confirms.

Only problems whose alphabets fit the digit-only file format (at most ten
symbols per side) are kept.  Powers are capped so that f^3k stays small.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from pathlib import Path

import oracle
from oracle import Images, Rep

KINDS = ("rename", "power", "block2", "subseq")
MAX_ALPHABET = 10
MAX_SUBSEQ_POWER = 2
MAX_SUBSEQ_IMAGE = 60
MISMATCH_HORIZON = 10_000
FIXTURES = Path(__file__).resolve().parent / "fixtures"
PROVING_FIXTURES = (
    "fib_three_letter",
    "even_fib",
    "odd_fib",
    "double_scale",
    "pure_pair",
    "fib_coded_triple",
)


@dataclass(frozen=True)
class Problem:
    name: str
    kind: str
    left: Rep
    right: Rep
    equal: bool
    mismatch: tuple[int, int, int] | None = None
    base: Rep | None = None
    power: int = 0
    latex: bool = False

    def text(self) -> str:
        return oracle.format_problem(self.left, self.right)


def random_base(rng: random.Random) -> Rep:
    """A morphism over 2-4 symbols, images of 1-3 symbols, all reachable from 0."""
    while True:
        n = rng.randint(2, 4)
        images = [(0,) + tuple(rng.randrange(n) for _ in range(rng.randint(1, 2)))]
        for _ in range(1, n):
            images.append(tuple(rng.randrange(n) for _ in range(rng.randint(1, 3))))
        images = tuple(images)
        coding = tuple(rng.randrange(2) for _ in range(n))
        if len(set(coding)) == 2 and oracle.reachable(images) == set(range(n)):
            return images, coding


def compose(f: Images, g: Images) -> Images:
    """Images of f after g: a -> f(g(a))."""
    return tuple(tuple(s for x in im for s in f[x]) for im in g)


def power(f: Images, k: int) -> Images:
    out = f
    for _ in range(k - 1):
        out = compose(f, out)
    return out


def rename(rep: Rep, rng: random.Random) -> Rep:
    images, coding = rep
    rest = list(range(1, len(images)))
    rng.shuffle(rest)
    perm = [0] + rest
    new_images = [()] * len(images)
    new_coding = [0] * len(images)
    for a, im in enumerate(images):
        new_images[perm[a]] = tuple(perm[s] for s in im)
        new_coding[perm[a]] = coding[a]
    return tuple(new_images), tuple(new_coding)


def two_blocks(rep: Rep) -> Rep:
    """Sliding 2-block presentation, blocks numbered by first discovery."""
    f, tau = rep
    blocks = [(0, f[0][1])]
    index = {blocks[0]: 0}
    images = []
    i = 0
    while i < len(blocks):
        a, b = blocks[i]
        word = f[a] + (f[b][0],)
        image = []
        for j in range(len(f[a])):
            block = (word[j], word[j + 1])
            if block not in index:
                index[block] = len(blocks)
                blocks.append(block)
            image.append(index[block])
        images.append(tuple(image))
        i += 1
    return tuple(images), tuple(tau[a] for a, _ in blocks)


def odd_power(f: Images) -> int | None:
    """Smallest k <= MAX_SUBSEQ_POWER with every |f^k(a)| odd."""
    for k in range(1, MAX_SUBSEQ_POWER + 1):
        if all(len(im) % 2 for im in power(f, k)):
            return k
    return None


def block_encode(f: Images) -> tuple[Images, list[tuple[int, int]]]:
    """Length-2 blocks of the fixed point of f (odd image lengths), numbered
    in order of first appearance while closing the block images."""
    blocks = [(f[0][0], f[0][1])]
    index = {blocks[0]: 0}
    images = []
    i = 0
    while i < len(blocks):
        x, y = blocks[i]
        word = f[x] + f[y]
        image = []
        for j in range(0, len(word), 2):
            block = (word[j], word[j + 1])
            if block not in index:
                index[block] = len(blocks)
                blocks.append(block)
            image.append(index[block])
        images.append(tuple(image))
        i += 1
    return tuple(images), blocks


def even_subsequence(rep: Rep, k: int) -> Rep:
    f, tau = rep
    images, blocks = block_encode(power(f, k))
    return images, tuple(tau[a] for a, _ in blocks)


def fits(*reps: Rep) -> bool:
    return all(len(images) <= MAX_ALPHABET for images, _ in reps)


def equal_problem(name: str, kind: str, rng: random.Random) -> Problem:
    """Draw base representations until the construction of kind fits."""
    while True:
        base = random_base(rng)
        k = 0
        if kind == "rename":
            left, right = base, rename(base, rng)
        elif kind == "power":
            left, right = base, (power(base[0], rng.choice((2, 3))), base[1])
        elif kind == "block2":
            left, right = base, two_blocks(base)
        else:
            k = odd_power(base[0])
            if k is None or max(map(len, power(base[0], 3 * k))) > MAX_SUBSEQ_IMAGE:
                continue
            left, right = even_subsequence(base, k), even_subsequence(base, 3 * k)
        if not fits(left, right):
            continue
        if rng.random() < 0.5:
            left, right = right, left
        return Problem(name, kind, left, right, True, base=base, power=k)


def flipped(problem: Problem, rng: random.Random) -> Problem:
    """Change the coding digit of one symbol that occurs early on one side."""
    sides = [problem.left, problem.right]
    side = rng.randrange(2)
    images, coding = sides[side]
    symbols = list(range(len(images)))
    rng.shuffle(symbols)
    for s in symbols:
        pos = oracle.first_occurrence(images, s, MISMATCH_HORIZON)
        if pos is not None:
            break
    else:
        raise AssertionError("symbol 0 always occurs")
    digits = max(max(problem.left[1]), max(problem.right[1]), 1) + 1
    new = list(coding)
    new[s] = rng.choice([d for d in range(digits) if d != coding[s]])
    sides[side] = (images, tuple(new))
    mismatch = oracle.first_mismatch(sides[0], sides[1], pos + 1)
    if mismatch is None or mismatch[0] != pos:
        raise AssertionError(f"flip of symbol {s} did not surface at {pos}")
    return Problem(
        problem.name, problem.kind, sides[0], sides[1], False, mismatch,
        problem.base, problem.power,
    )


def decide_corpus(seed: int, count: int, latex_share: float) -> list[Problem]:
    """count problems, alternately equal and unequal, kinds drawn by the seed."""
    rng = random.Random(f"decide:{seed}")
    problems = []
    for i in range(count):
        kind = rng.choice(KINDS)
        problem = equal_problem(f"p{i:04d}-{kind}", kind, rng)
        if i % 2:
            problem = flipped(problem, rng)
        problems.append(replace(problem, latex=rng.random() < latex_share))
    return problems


def fixture_problem(name: str) -> Problem:
    left, right = oracle.parse_problem((FIXTURES / f"{name}.txt").read_text())
    return Problem(name, "fixture", left, right, True)


def expand_problems(seed: int, generated: int) -> list[Problem]:
    """The proving fixtures plus generated equal problems, one kind each in turn."""
    rng = random.Random(f"expand:{seed}")
    problems = [fixture_problem(name) for name in PROVING_FIXTURES]
    for i in range(generated):
        kind = KINDS[i % len(KINDS)]
        problems.append(equal_problem(f"g{i}-{kind}", kind, rng))
    return problems


def aperiodic_looking(word: list[int], longest: int = 12) -> bool:
    """At least k+1 distinct factors of every length k up to longest.

    Eventually periodic words fall below this bound (Morse-Hedlund); they
    have so many representations that an exhaustive search of them runs
    for minutes and gigabytes (1000... at alphabet 5 and prefix 60 did).
    """
    return all(len({tuple(word[i:i + k]) for i in range(len(word) - k + 1)}) > k
               for k in range(1, longest + 1))


def search_target(seed: int, length: int) -> tuple[Rep, list[int]]:
    """A coded prefix of a base representation drawn as in decide_corpus,
    redrawn until the prefix looks aperiodic."""
    rng = random.Random(f"search:{seed}")
    while True:
        rep = random_base(rng)
        target = oracle.coded_prefix(rep, length)
        if aperiodic_looking(target):
            return rep, target
