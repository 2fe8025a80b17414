"""Reference expander for checking morpheq's answers.

Deliberately shares no code with morpheq: problems are parsed from their
text form here, fixed points are grown by a plain list loop, and every
verdict the benchmark checks (equality on a prefix, the first mismatch,
whether a search result reproduces its target) is recomputed here.

A representation is a pair (images, coding): images[a] is the tuple of
symbols f(a), coding[a] the output digit of symbol a.
"""

from __future__ import annotations

Images = tuple[tuple[int, ...], ...]
Rep = tuple[Images, tuple[int, ...]]


def parse_problem(text: str) -> tuple[Rep, Rep]:
    """Both sides of a problem file, in the two-block digit format."""
    lines = [line.strip() for line in text.strip().splitlines()]
    sides = []
    pos = 0
    for _ in range(2):
        n = int(lines[pos])
        images = tuple(tuple(int(c) for c in lines[pos + 1 + a]) for a in range(n))
        coding = tuple(int(c) for c in lines[pos + 1 + n])
        sides.append((images, coding))
        pos += n + 2
    if pos != len(lines):
        raise ValueError("trailing lines after the second representation")
    return sides[0], sides[1]


def format_rep(rep: Rep) -> str:
    images, coding = rep
    lines = [str(len(images))]
    lines.extend("".join(map(str, im)) for im in images)
    lines.append("".join(map(str, coding)))
    return "\n".join(lines) + "\n"


def format_problem(left: Rep, right: Rep) -> str:
    return format_rep(left) + format_rep(right)


def fixed_point(images: Images, n: int, start: int = 0) -> list[int]:
    """First n symbols of the fixed point of images at start."""
    if images[start][0] != start or len(images[start]) < 2:
        raise ValueError(f"not prolongable at {start}")
    seq = list(images[start])
    i = 1
    while len(seq) < n:
        seq.extend(images[seq[i]])
        i += 1
    del seq[n:]
    return seq


def coded_prefix(rep: Rep, n: int, start: int = 0) -> list[int]:
    images, coding = rep
    return [coding[s] for s in fixed_point(images, n, start)]


def first_mismatch(left: Rep, right: Rep, n: int) -> tuple[int, int, int] | None:
    """(position, left digit, right digit) of the first difference below n."""
    a = coded_prefix(left, n)
    b = coded_prefix(right, n)
    for i in range(n):
        if a[i] != b[i]:
            return i, a[i], b[i]
    return None


def first_occurrence(images: Images, symbol: int, budget: int) -> int | None:
    """Position of symbol in the fixed point at 0, if it occurs below budget."""
    seq = list(images[0])
    i = 1
    scanned = 0
    while scanned < budget:
        end = min(len(seq), budget)
        for p in range(scanned, end):
            if seq[p] == symbol:
                return p
        scanned = end
        seq.extend(images[seq[i]])
        i += 1
    return None


def reachable(images: Images, start: int = 0) -> set[int]:
    seen = {start}
    todo = [start]
    while todo:
        for s in images[todo.pop()]:
            if s not in seen:
                seen.add(s)
                todo.append(s)
    return seen


def reproduces(rep: Rep, target: list[int] | tuple[int, ...]) -> bool:
    """Whether the coded fixed point at 0 starts with target."""
    images, _ = rep
    if images[0][0] != 0 or len(images[0]) < 2:
        return False
    return coded_prefix(rep, len(target)) == list(target)
