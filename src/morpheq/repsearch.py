"""Exhaustive search for small coded morphic representations of a target word.

A candidate is a morphism f prolongable at 0 (f(0) starts with 0 and has at
least two symbols, all images between one and max_image_len symbols) plus a
coding, such that the coded fixed point reproduces the first prefix_len
symbols of the target.  The search walks a tree of partial assignments:

  * the fixed-point buffer is grown by consuming its own symbols in order;
  * hitting a symbol without an image branches over the candidate images
    that fit the target where they land (below);
  * every buffered position below prefix_len is matched against the target,
    which forces the coding of each symbol at its first occurrence and
    abandons the branch at the first mismatch;
  * new symbols may only be introduced in increasing order, so each result
    is the canonical member of its renaming class.

Rejection before descent: at a branch point every buffered symbol is
matched, so a new image lands on the next max_image_len target symbols, cut
at prefix_len.  Images are generated already fitted, one symbol at a time:
a prefix is dropped at its first symbol whose coding is known, or was forced
earlier in the same image, and is not the target symbol it lands on.  The
fitted images depend only on the largest symbol seen, the coding so far and
those target symbols, so a searcher caches them under that key.  One
searcher serves a whole in-process search() call, or a whole pool worker
process: the pool initializer builds it, so its cache lasts across all the
tasks that worker runs and ends with the pool.

Landing check: the length k of the new image alone fixes where the
buffered symbols after the branch point land, up to the next other symbol
without an image.  Each symbol with an image appends its coded image there,
and each later copy of the branching symbol appends the new image again,
which codes the target window it first lands on.  So once per length a
branch point matches those known images and those extra landings against
the target, below prefix_len, and drops every image of a length that fails
before walking any.  The walk would reject each of them before its next
symbol without an image, so no result is lost.

Shared dead ends: sibling images, those of one length that force the same
codings at a branch point, code the same target window below the prefix,
and later copies of an image land past the first, where only such codes are
compared.  So positions, comparisons and symbols read agree for all siblings
until the walk reads a symbol of the first one's own image.  When a
sibling's walk stops at a branch point where no length lands, without
reading that far in the walk or the failing landing scans, the branch skips
the later siblings: each would stop there too.

Task split: the walk from each image of 0 to its first branch point has no
choices, so the search splits there into one task per image that passes
both checks; tasks that introduce more symbols tend to be larger and are
listed first.  The search walks tasks in process, smallest first, until the
walk has visited POOL_NODES nodes, then runs the tasks left over a process
pool, largest first, with at most one worker per job, per task left and per
CPU.  With one job, one CPU or one task left there is no pool, and a walk
that ends below POOL_NODES never starts one: a small search is over before a
pool would have started.

A result is reported only when every image was consumed while deriving the
prefix, i.e. when the match leaves no free choice open.  The walk records it
as a (complexity, images, coding table) tuple, complexity being the total
image length.  matches() only sorts those in tuple order.  search() builds a
FoundRep from each record, in their order, whose Morphism and Coding check
it once.  No record can fail them.  _fitting draws each symbol from 0..n-1,
group k - 1 holds images of k >= 1 symbols and roots hold at least 2.  _walk
records a match only when every image is set; a symbol gets its image only
at ptr, and at each branch point ptr < len(buf) < N, so each symbol first
occurs below the prefix, where _fitting gave it the target symbol it lands
on.  So every table entry is a target symbol, which SearchSpec checked.
"""

from __future__ import annotations

import concurrent.futures
import functools
import itertools
import os
from collections.abc import Iterator
from dataclasses import dataclass

from .words import ALPHABET_LIMIT, AlphabetError, Coding, FixedPoint, Morphism, Word, rename_symbols

MAX_ALPHABET = 6
MAX_IMAGE_LEN = 3
CANONICAL_PREFIX = 10**4
# Walk nodes a search with more than one job visits in process before it
# starts a pool.  With w workers the rest W of a walk costs W in process and
# C + W/w over a pool, so at w = 2 the pool pays from W = 2C on.  At
# C = 16.5 ms of pool start, warm-up and shutdown and c = 4.4 us per node
# (2 vCPU), 2C/c is about 7500 nodes, rounded to a power of two.
POOL_NODES = 8192


class SearchTooLargeError(ValueError):
    """The requested search exceeds the supported parameter guards."""


@dataclass(frozen=True)
class SearchSpec:
    target: Word
    alphabet_size: int
    max_image_len: int
    prefix_len: int
    jobs: int = 1

    def __post_init__(self):
        object.__setattr__(self, "target", tuple(self.target))
        for i, x in enumerate(self.target):
            if not (isinstance(x, int) and 0 <= x < ALPHABET_LIMIT):
                raise ValueError(
                    f"target symbol {x!r} at position {i} is not an int"
                    f" in 0..{ALPHABET_LIMIT - 1}"
                )
        for name in ("alphabet_size", "max_image_len", "prefix_len", "jobs"):
            value = getattr(self, name)
            if not isinstance(value, int):
                raise ValueError(f"{name} must be an int, not {value!r}")
        if self.alphabet_size < 1 or self.max_image_len < 1:
            raise ValueError("alphabet size and image length must be positive")
        if self.alphabet_size > MAX_ALPHABET:
            raise SearchTooLargeError(
                f"alphabet size {self.alphabet_size} exceeds the guard {MAX_ALPHABET}"
            )
        if self.max_image_len > MAX_IMAGE_LEN:
            raise SearchTooLargeError(
                f"image length {self.max_image_len} exceeds the guard {MAX_IMAGE_LEN}"
            )
        if self.prefix_len < 1:
            raise ValueError("prefix length must be positive")
        if self.prefix_len > len(self.target):
            raise ValueError("target word is shorter than the requested prefix")
        if self.jobs < 1:
            raise ValueError("job count must be positive")


@dataclass(frozen=True)
class FoundRep:
    morphism: Morphism
    coding: Coding
    complexity: int


# A candidate image that fits the target where it lands: the image, the
# codings it forces on the symbols it introduces, and the largest symbol seen
# once it is placed.
_Fit = tuple[Word, tuple[tuple[int, int], ...], int]

# One subtree of the search: an image of 0 and the image chosen at the first
# branch point below it.
_Task = tuple[_Fit, _Fit]

# A match: complexity, images, coding table.
Match = tuple[int, tuple[Word, ...], tuple[int, ...]]


class _Searcher:
    """Depth-first walk over partial assignments for one target.

    Holds the viable-image cache, so an instance lives for one in-process
    search() call or one pool worker process, and never outlives the pool.
    """

    def __init__(self, target: Word, n: int, max_len: int):
        self.target = target
        self.n = n
        self.max_len = max_len
        self.N = len(target)
        self.images: list[Word | None] = [None] * n
        self.coding: list[int | None] = [None] * n
        self.buf: list[int] = []
        self.ptr = 0
        self.max_seen = 0
        self.results: list[Match] = []
        self.nodes = 0  # _walk calls, over tasks() and every run()
        self.reach = 0  # furthest buffer index the last _choices() read
        self._viable: dict[tuple, list[list[_Fit]]] = {}

    def tasks(self) -> list[_Task]:
        """One task per viable image at the first branch point below each root.

        A root whose walk ends before any branch point records its result, if
        it has one, here.
        """
        out: list[_Task] = []
        for root in self._roots():
            if self._start(root):
                out.extend((root, fit) for fit in self._choices())
        # Every symbol seen but without an image is a branch point below, so
        # tasks whose first image leaves a larger symbol seen tend to be
        # larger: list them first.
        out.sort(key=lambda task: task[1][2], reverse=True)
        return out

    def run(self, task: _Task) -> list[Match]:
        """Search the subtree of one task; returns the results found in it."""
        root, first = task
        self.results = []
        if self._start(root):
            self._branch([first])
        return self.results

    def _roots(self) -> list[_Fit]:
        """Images of 0 that fit: they start with 0 and have at least two symbols."""
        groups = self._fitting(-1, self.target[: self.max_len])
        return [fit for group in groups[1:] for fit in group]

    def _start(self, root: _Fit) -> bool:
        """Place an image of 0 and walk on; True when stopped at a branch point."""
        image, fresh, seen = root
        self.images = [image] + [None] * (self.n - 1)
        self.coding = [None] * self.n
        for x, c in fresh:
            self.coding[x] = c
        self.buf = list(image)
        self.ptr = 1
        self.max_seen = seen
        return self._walk()

    def _fitting(self, seen: int, window: Word) -> list[list[_Fit]]:
        """The canonical images that code the window they land on, by length.

        Images grow one symbol at a time, and a prefix is dropped at its first
        symbol that miscodes the window: a symbol up to seen must have its
        coding, one introduced earlier in the image the code it took there,
        and a new symbol, one above the running maximum, takes the target
        symbol it lands on.  Past the window any symbol fits.  Group k - 1
        holds the images of length k in lexicographic order.
        """
        coding = self.coding
        level: list[_Fit] = [((), (), seen)]
        groups = []
        for i in range(self.max_len):
            want = window[i] if i < len(window) else None
            grown = []
            for image, fresh, top in level:
                for x in range(min(top + 1, self.n - 1) + 1):
                    if want is None:
                        grown.append((image + (x,), fresh, max(top, x)))
                    elif x > top:
                        grown.append((image + (x,), fresh + ((x, want),), x))
                    elif (coding[x] if x <= seen else fresh[x - seen - 1][1]) == want:
                        grown.append((image + (x,), fresh, top))
            groups.append(grown)
            level = grown
        return groups

    def _choices(self) -> list[_Fit]:
        """The fitting images for the symbol at ptr whose length passes _lands.

        They are cached under the coding so far, which also fixes max_seen,
        and the target window they land on.  Sets reach to the furthest
        buffer index a failing _lands scan read, or to len(buf) once a
        length passes.
        """
        pos = len(self.buf)
        reads = [self._lands(k) for k in range(1, self.max_len + 1)]
        self.reach = max(reads)
        if self.reach < pos:
            return []
        lengths = [k for k, read in enumerate(reads, 1) if read == pos]
        window = self.target[pos : pos + self.max_len]
        key = (tuple(self.coding), window)
        groups = self._viable.get(key)
        if groups is None:
            groups = self._viable[key] = self._fitting(self.max_seen, window)
        return [fit for k in lengths for fit in groups[k - 1]]

    def _lands(self, k: int) -> int:
        """Where an image of length k for the symbol s at ptr fails the tail.

        The buffered symbols after ptr, up to the next symbol other than s
        without an image, append at offsets that only k fixes: a known image
        appends its coded image, another s a copy of the new image.  The new
        image codes the target window it first lands on, so each copy must
        meet that window again.  Only positions below the prefix count, as in
        the walk.  Returns the buffer index of the first symbol whose landing
        fails, or len(buf) when none fails.
        """
        buf = self.buf
        coding = self.coding
        target = self.target
        images = self.images
        N = self.N
        s = buf[self.ptr]
        size = len(buf)
        pos = size + k
        for i in range(self.ptr + 1, size):
            if pos >= N:
                break
            x = buf[i]
            if x == s:
                m = min(k, N - pos)
                if target[pos : pos + m] != target[size : size + m]:
                    return i
                pos += k
                continue
            image = images[x]
            if image is None:
                break
            for y in image:
                if coding[y] != target[pos]:
                    return i
                pos += 1
                if pos == N:
                    break
        return size

    def _walk(self) -> bool:
        """Consume symbols whose image is chosen, matching what they append.

        Every buffered symbol below the prefix is already matched on entry.
        Returns True at a symbol without an image; False after a mismatch or
        once the prefix is full, recording a result if every image is chosen.
        """
        self.nodes += 1
        buf = self.buf
        coding = self.coding
        target = self.target
        images = self.images
        N = self.N
        ptr = self.ptr
        size = len(buf)
        while size < N:
            image = images[buf[ptr]]
            if image is None:
                self.ptr = ptr
                return True
            for x in image:
                if coding[x] != target[size]:
                    return False
                size += 1
                if size == N:
                    break
            buf.extend(image)
            ptr += 1
        if None not in images:
            self.results.append((sum(map(len, images)), tuple(images), tuple(coding)))  # type: ignore[arg-type]
        return False

    def _branch(self, fits: list[_Fit]) -> None:
        """Give the symbol at ptr each fitting image in turn and search below,
        skipping the siblings of an image whose walk met a shared dead end."""
        buf = self.buf
        coding = self.coding
        images = self.images
        s = buf[self.ptr]
        ptr = self.ptr
        size = len(buf)
        seen = self.max_seen
        dead = set()
        for image, fresh, top in fits:
            key = (len(image), fresh)
            if key in dead:
                continue
            images[s] = image
            buf.extend(image)
            for x, c in fresh:
                coding[x] = c
            self.ptr = ptr + 1
            self.max_seen = top
            if self._walk():
                choices = self._choices()
                if choices:
                    self._branch(choices)
                elif self.reach < size:
                    dead.add(key)
            del buf[size:]
            for x, _ in fresh:
                coding[x] = None
        images[s] = None
        self.ptr = ptr
        self.max_seen = seen


# The searcher of a pool worker process, built once by _start_worker.
_worker: _Searcher | None = None


def _start_worker(target: Word, n: int, max_len: int) -> None:
    global _worker
    _worker = _Searcher(target, n, max_len)


def _search_task(task: _Task) -> list[Match]:
    return _worker.run(task)  # type: ignore[union-attr]


def _chunks(spec: SearchSpec) -> Iterator[list[Match]]:
    """The matches of the search, one list per task, in the order they are found."""
    target = spec.target[: spec.prefix_len]
    shape = (target, spec.alphabet_size, spec.max_image_len)
    searcher = _Searcher(*shape)
    tasks = searcher.tasks()
    yield searcher.results  # from roots whose walk had no branch point
    workers = min(spec.jobs, os.cpu_count() or 1)
    while tasks and (min(workers, len(tasks)) <= 1 or searcher.nodes < POOL_NODES):
        yield searcher.run(tasks.pop())
    if tasks:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(workers, len(tasks)), initializer=_start_worker, initargs=shape
        ) as pool:
            yield from pool.map(_search_task, tasks)


def matches(spec: SearchSpec) -> list[Match]:
    """All matches of the target prefix, exhaustively, sorted, as plain records."""
    return sorted(itertools.chain.from_iterable(_chunks(spec)))


def search(spec: SearchSpec) -> list[FoundRep]:
    """All representations matching the target prefix, exhaustively, in the order of matches."""
    coding = functools.cache(lambda table: Coding(table, max(spec.target[: spec.prefix_len]) + 1))
    return [FoundRep(Morphism(images), coding(table), size) for size, images, table in matches(spec)]


def canonical_form(f: Morphism, coding: Coding) -> tuple[Morphism, Coding]:
    """Rename symbols by first appearance in the fixed point at 0.

    Every symbol must occur within CANONICAL_PREFIX symbols of the fixed
    point; unreachable symbols make the renaming undefined.
    """
    if coding.source_size != f.alphabet_size:
        raise AlphabetError("coding and morphism disagree on alphabet size")
    order = list(FixedPoint(f).first_occurrences(CANONICAL_PREFIX))
    if len(order) < f.alphabet_size:
        raise ValueError(f"not all symbols occur in the first {CANONICAL_PREFIX} symbols")
    return rename_symbols(f, coding, order)
