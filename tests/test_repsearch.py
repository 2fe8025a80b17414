"""Exhaustive representation search: exact small censuses and guards."""

import dataclasses
import functools
import itertools
import re

import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

from morpheq import repsearch
from morpheq.catalog import builtin_prefix, even_fib_rep, fib_rep
from morpheq.repsearch import (
    FoundRep,
    SearchSpec,
    SearchTooLargeError,
    canonical_form,
    matches,
    search,
)
from morpheq.words import AlphabetError, Coding, FixedPoint, Morphism, MorphicRep

DEFAULT_POOL_NODES = repsearch.POOL_NODES


def images_of(rep: FoundRep) -> tuple[str, ...]:
    return tuple("".join(map(str, im)) for im in rep.morphism.images)


class TestSearch:
    def test_constant_zero_target(self):
        res = search(
            SearchSpec(target=(0,) * 10, alphabet_size=1, max_image_len=3, prefix_len=10)
        )
        assert [(images_of(r), r.coding.table, r.complexity) for r in res] == [
            (("00",), (0,), 2),
            (("000",), (0,), 3),
        ]

    def test_fib_binary_short_images(self):
        fib30 = fib_rep().prefix(30)
        res = search(
            SearchSpec(target=fib30, alphabet_size=2, max_image_len=2, prefix_len=30)
        )
        assert len(res) == 1
        assert images_of(res[0]) == ("01", "0")
        assert res[0].coding.table == (0, 1)
        assert res[0].complexity == 3

    def test_fib_binary_finds_the_square_too(self):
        fib30 = fib_rep().prefix(30)
        res = search(
            SearchSpec(target=fib30, alphabet_size=2, max_image_len=3, prefix_len=30)
        )
        assert [images_of(r) for r in res] == [("01", "0"), ("010", "01")]
        square = Morphism.from_strings("01", "0") ** 2
        assert res[1].morphism == square

    def test_even_fib_has_no_four_letter_rep(self):
        target = builtin_prefix("even-fib", 35)
        res = search(
            SearchSpec(target=target, alphabet_size=4, max_image_len=3, prefix_len=35)
        )
        assert res == []

    def test_results_are_sound_and_sorted(self):
        target = fib_rep().prefix(40)
        res = search(
            SearchSpec(target=target, alphabet_size=3, max_image_len=3, prefix_len=40)
        )
        assert res
        for rep in res:
            assert rep.morphism.images[0][0] == 0
            assert len(rep.morphism.images[0]) >= 2
            assert rep.complexity == sum(map(len, rep.morphism.images))
            regenerated = MorphicRep(rep.morphism, rep.coding).prefix(40)
            assert regenerated == tuple(target)
        keys = [(r.complexity, r.morphism.images, r.coding.table) for r in res]
        assert keys == sorted(keys)

    @pytest.mark.usefixtures("force_pool")
    def test_parallel_jobs_agree(self):
        target = fib_rep().prefix(25)
        spec1 = SearchSpec(target=target, alphabet_size=2, max_image_len=3, prefix_len=25)
        spec2 = SearchSpec(
            target=target, alphabet_size=2, max_image_len=3, prefix_len=25, jobs=2
        )
        assert search(spec1) == search(spec2)

    @pytest.mark.parametrize(
        "jobs, cpus, workers",
        [(100000, 4, 4), (3, 4, 3), (100000, 10**6, "tasks"), (2, None, 0), (100000, 1, 0)],
    )
    @pytest.mark.usefixtures("force_pool")
    def test_worker_count_is_capped(self, monkeypatch, jobs, cpus, workers):
        """min(jobs, tasks, CPUs) workers; none when that is one. Starts no process."""
        started = []
        monkeypatch.setattr(repsearch.concurrent.futures, "ProcessPoolExecutor", recording_pool(started))
        monkeypatch.setattr(repsearch, "_worker", None)
        monkeypatch.setattr(repsearch.os, "cpu_count", lambda: cpus)
        target = fib_rep().prefix(30)
        spec = SearchSpec(target=target, alphabet_size=3, max_image_len=3, prefix_len=30, jobs=jobs)
        tasks = len(repsearch._Searcher(target, 3, 3).tasks())
        assert 4 < tasks < 10**5
        assert search(spec) == search(dataclasses.replace(spec, jobs=1))
        expected = tasks if workers == "tasks" else workers
        assert started == ([expected] if expected else [])

    @pytest.mark.usefixtures("force_pool")
    def test_each_worker_builds_one_searcher(self, monkeypatch):
        """One searcher in the parent and one per worker, however many tasks."""
        built = []

        class CountingSearcher(repsearch._Searcher):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        started = []
        monkeypatch.setattr(repsearch.concurrent.futures, "ProcessPoolExecutor", recording_pool(started))
        monkeypatch.setattr(repsearch, "_worker", None)
        monkeypatch.setattr(repsearch.os, "cpu_count", lambda: 4)
        monkeypatch.setattr(repsearch, "_Searcher", CountingSearcher)
        target = fib_rep().prefix(30)
        spec = SearchSpec(target=target, alphabet_size=3, max_image_len=3, prefix_len=30, jobs=2)
        tasks = len(repsearch._Searcher(target, 3, 3).tasks())
        built.clear()
        res = search(spec)
        assert started == [2] and tasks > 2
        assert len(built) == 1 + 1
        assert res == search(dataclasses.replace(spec, jobs=1))

    def test_symbols_past_the_prefix_do_not_change_the_results(self):
        fib12 = fib_rep().prefix(12)
        spec = SearchSpec(target=fib12, alphabet_size=3, max_image_len=2, prefix_len=12)
        res = search(spec)
        assert res and {r.coding.target_size for r in res} == {2}
        assert search(dataclasses.replace(spec, target=fib12 + (7,))) == res

    @pytest.mark.usefixtures("force_pool")
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_equal_coding_tables_share_one_coding(self, jobs):
        target = fib_rep().prefix(40)
        res = search(
            SearchSpec(target=target, alphabet_size=4, max_image_len=3, prefix_len=40, jobs=jobs)
        )
        by_table = {}
        for rep in res:
            by_table.setdefault(rep.coding.table, set()).add(id(rep.coding))
        assert len(res) > len(by_table) > 1
        assert all(len(ids) == 1 for ids in by_table.values())


# One match: fib as 0 -> 01, 1 -> 0, coded by the identity.
ONE_MATCH = SearchSpec(target=fib_rep().prefix(30), alphabet_size=2, max_image_len=2, prefix_len=30)


class TestMatches:
    def test_records_are_sorted_and_agree_with_search(self):
        spec = SearchSpec(target=fib_rep().prefix(40), alphabet_size=3, max_image_len=3, prefix_len=40)
        records = matches(spec)
        assert len(records) > 1 and records == sorted(records)
        assert [(r.complexity, r.morphism.images, r.coding.table) for r in search(spec)] == records
        assert matches(ONE_MATCH) == [(3, ((0, 1), (0,)), (0, 1))]

    @pytest.mark.parametrize(
        "corrupt, build",
        [
            pytest.param(lambda size, images, table: (size, (images[0], (2,)), table),
                         lambda: Morphism(((0, 1), (2,))), id="symbol-outside-the-alphabet"),
            pytest.param(lambda size, images, table: (size, (images[0], ()), table),
                         lambda: Morphism(((0, 1), ())), id="empty-image"),
            pytest.param(lambda size, images, table: (size, images, (0, 2)),
                         lambda: Coding((0, 2), 2), id="coding-outside-the-target"),
        ],
    )
    def test_a_corrupt_record_raises_what_its_constructor_raises(self, monkeypatch, corrupt, build):
        """matches() only sorts; search() checks each record in the Morphism and Coding it builds."""
        walk = repsearch._Searcher._walk

        def corrupting_walk(searcher):
            found = len(searcher.results)
            more = walk(searcher)
            if len(searcher.results) > found:
                searcher.results[-1] = corrupt(*searcher.results[-1])
            return more

        with pytest.raises(ValueError) as built:
            build()
        monkeypatch.setattr(repsearch._Searcher, "_walk", corrupting_walk)
        with pytest.raises(ValueError) as gathered:
            search(ONE_MATCH)
        assert (type(gathered.value), str(gathered.value)) == (type(built.value), str(built.value))


def full_walk(target, n, max_len):
    """A searcher that has walked tasks() and then every task."""
    searcher = repsearch._Searcher(target, n, max_len)
    for task in searcher.tasks():
        searcher.run(task)
    return searcher


def results_at_each_pool_nodes(spec):
    """The results of spec at two jobs with POOL_NODES 0, its default and 10**9."""
    out = []
    for threshold in (0, DEFAULT_POOL_NODES, 10**9):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(repsearch, "POOL_NODES", threshold)
            out.append(search(dataclasses.replace(spec, jobs=2)))
    return out


class TestPoolRule:
    """Tasks run in process, smallest first, until the walk has visited
    POOL_NODES nodes; the tasks left then go to one pool."""

    @pytest.fixture
    def started(self, monkeypatch):
        """max_workers of every pool search starts, on a host of 4 CPUs."""
        started = []
        monkeypatch.setattr(repsearch.concurrent.futures, "ProcessPoolExecutor", recording_pool(started))
        monkeypatch.setattr(repsearch, "_worker", None)
        monkeypatch.setattr(repsearch.os, "cpu_count", lambda: 4)
        return started

    def test_a_walk_below_pool_nodes_starts_no_pool(self, started):
        target = fib_rep().prefix(30)
        spec = SearchSpec(target=target, alphabet_size=4, max_image_len=3, prefix_len=30, jobs=2)
        assert len(repsearch._Searcher(target, 4, 3).tasks()) > 2
        assert full_walk(target, 4, 3).nodes < DEFAULT_POOL_NODES
        assert search(spec) == search(dataclasses.replace(spec, jobs=1))
        assert started == []

    @pytest.mark.parametrize("left, jobs, workers", [(2, 100, 2), (10, 3, 3), (10, 100, 4), (1, 100, 0)])
    def test_the_tasks_left_at_pool_nodes_go_to_one_pool(self, monkeypatch, started, left, jobs, workers):
        """min(jobs, tasks left, CPUs) workers; none for a last task."""
        target = fib_rep().prefix(30)
        searcher = repsearch._Searcher(target, 4, 3)
        tasks = searcher.tasks()
        while len(tasks) > left:
            searcher.run(tasks.pop())
        # Every run walks at least one node, so the walk reaches this count
        # just as `left` tasks remain.
        monkeypatch.setattr(repsearch, "POOL_NODES", searcher.nodes)
        spec = SearchSpec(target=target, alphabet_size=4, max_image_len=3, prefix_len=30, jobs=jobs)
        assert search(spec) == search(dataclasses.replace(spec, jobs=1))
        assert started == ([workers] if workers else [])

    # fib at alphabet 5 walks past the default, so there it splits the walk.
    @pytest.mark.parametrize("name, n", [("even-fib", 4), ("odd-fib", 4), ("spir", 4), ("fib", 4), ("fib", 5)])
    def test_results_do_not_depend_on_pool_nodes(self, name, n):
        spec = SearchSpec(target=builtin_prefix(name, 40), alphabet_size=n, max_image_len=3, prefix_len=40)
        inline = search(spec)
        assert results_at_each_pool_nodes(spec) == [inline] * 3

    # Every example starts a pool, and shrinking a failure would start
    # thousands, so a failing example is reported as generated.
    @settings(max_examples=6, deadline=None, phases=(Phase.explicit, Phase.generate))
    @given(
        images=st.tuples(
            st.lists(st.integers(0, 2), min_size=1, max_size=2),
            st.lists(st.integers(0, 2), min_size=1, max_size=3),
            st.lists(st.integers(0, 2), min_size=1, max_size=3),
        ),
        prefix_len=st.integers(8, 24),
    )
    def test_ternary_results_do_not_depend_on_pool_nodes(self, images, prefix_len):
        f = Morphism(((0, *images[0]), tuple(images[1]), tuple(images[2])))
        spec = SearchSpec(FixedPoint(f).prefix(prefix_len), 3, 3, prefix_len)
        assert results_at_each_pool_nodes(spec) == [search(spec)] * 3

    @pytest.mark.parametrize(
        "name, nodes", [("even-fib", 1854), ("odd-fib", 3056), ("spir", 1570), ("fib", 34711)]
    )
    def test_walk_node_counts_are_pinned(self, name, nodes):
        """At alphabet 5, image length 3 and prefix 60: pruning that changes
        shows here even when the result lists still agree."""
        assert full_walk(builtin_prefix(name, 60), 5, 3).nodes == nodes

    def test_shared_dead_ends_cut_the_walk_at_the_guard_edge(self):
        """even-fib at alphabet 6 walked 199,632 nodes before dead ends were
        shared between sibling images."""
        assert full_walk(builtin_prefix("even-fib", 60), 6, 3).nodes <= 30_000


def recording_pool(started):
    """Stand-in for ProcessPoolExecutor that runs as one worker in process.

    Records max_workers in started and calls the initializer once, as a
    single worker process would before its first task.
    """

    class RecordingPool:
        def __init__(self, max_workers, initializer, initargs):
            started.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    return RecordingPool


@functools.cache
def walked_prefixes(n, max_len, prefix_len):
    """(images, prefix) for every morphism over n symbols that a search may report.

    Grows the fixed point at 0 by consuming its own symbols until it holds
    prefix_len symbols, trying every image of up to max_len symbols for each
    symbol as it is first consumed; every symbol must be consumed on the
    way, and symbols must first appear in increasing order.  Nothing here
    depends on the target, so the list is built once for each shape.
    """
    words = [w for k in range(1, max_len + 1) for w in itertools.product(range(n), repeat=k)]
    out = []

    def grow(images, buf, ptr):
        while len(buf) < prefix_len:
            x = buf[ptr]
            if images[x] is None:
                for image in words:
                    grow(images[:x] + (image,) + images[x + 1 :], buf + image, ptr + 1)
                return
            buf += images[x]
            ptr += 1
        prefix = buf[:prefix_len]
        if None not in images and list(dict.fromkeys(prefix)) == list(range(n)):
            out.append((images, prefix))

    for root in words:
        if root[0] == 0 and len(root) > 1:
            grow((root,) + (None,) * (n - 1), root, 1)
    return out


def brute_force(target, n, max_len, prefix_len):
    """Every (images, coding) pair over n symbols that search should report:
    coding each symbol by the target at its first occurrence must reproduce
    the prefix."""
    found = set()
    for images, prefix in walked_prefixes(n, max_len, prefix_len):
        table = tuple(target[prefix.index(s)] for s in range(n))
        if all(table[s] == t for s, t in zip(prefix, target)):
            found.add((images, table))
    return found


def agrees_with_brute_force(target, n, max_len, prefix_len, jobs=(1, 2)):
    """search at each job count reports exactly the brute-force set; its size."""
    spec = SearchSpec(target=target, alphabet_size=n, max_image_len=max_len, prefix_len=prefix_len)
    expected = brute_force(target, n, max_len, prefix_len)
    for count in jobs:
        res = search(dataclasses.replace(spec, jobs=count))
        assert {(r.morphism.images, r.coding.table) for r in res} == expected
        assert len(res) == len(expected)
    return len(expected)


class TestAgainstBruteForce:
    @pytest.mark.parametrize("name, prefix_len", [("fib", 8), ("fib", 24), ("even-fib", 8)])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.usefixtures("force_pool")
    def test_builtin_prefixes(self, name, prefix_len, n):
        agrees_with_brute_force(builtin_prefix(name, prefix_len), n, 2, prefix_len)

    @pytest.mark.parametrize("name, prefix_len", [("fib", 30), ("even-fib", 10)])
    @pytest.mark.usefixtures("force_pool")
    def test_images_of_three_symbols(self, name, prefix_len):
        assert agrees_with_brute_force(builtin_prefix(name, prefix_len), 3, 3, prefix_len) > 0

    @settings(max_examples=8, deadline=None)
    @given(
        target=st.lists(st.integers(0, 1), min_size=2, max_size=16).map(tuple),
        n=st.integers(1, 3),
        data=st.data(),
    )
    def test_binary_targets(self, target, n, data):
        prefix_len = data.draw(st.integers(1, len(target)))
        agrees_with_brute_force(target, n, 2, prefix_len, jobs=(1,))

    # Ternary targets with images of up to three symbols: the symbol at a
    # branch point recurs in the buffered tail, and the images it may take
    # bring new symbols in at those extra landings.
    @pytest.mark.usefixtures("force_pool")
    def test_ternary_fixed_point(self):
        # 0 -> 001, 1 -> 02, 2 -> 2
        target = (0, 0, 1, 0, 0, 1, 0, 2, 0, 0, 1, 0, 0, 1, 0, 2, 0, 0, 1, 2)
        assert agrees_with_brute_force(target, 3, 3, 20) == 13

    @settings(max_examples=12, deadline=None)
    @given(
        images=st.tuples(
            st.lists(st.integers(0, 2), min_size=1, max_size=2),
            st.lists(st.integers(0, 2), min_size=1, max_size=3),
            st.lists(st.integers(0, 2), min_size=1, max_size=3),
        ),
        prefix_len=st.integers(8, 24),
    )
    def test_ternary_fixed_points(self, images, prefix_len):
        f = Morphism(((0, *images[0]), tuple(images[1]), tuple(images[2])))
        target = FixedPoint(f).prefix(prefix_len)
        agrees_with_brute_force(target, 3, 3, prefix_len, jobs=(1,))

    # Binary codings of fixed points over five symbols, searched with images
    # of up to two symbols.  Sibling images, of one length and forcing the
    # same codings, then code one target window with different symbols, so
    # a dead end that one of them meets is shared with the rest (see the
    # repsearch docstring).  Each prefix ends inside an image of the fixed
    # point it is cut from.
    @settings(max_examples=6, deadline=None)
    @given(
        root=st.integers(0, 4),
        images=st.lists(st.lists(st.integers(0, 4), min_size=1, max_size=2), min_size=4, max_size=4),
        coding=st.lists(st.integers(0, 1), min_size=5, max_size=5),
        prefix_len=st.sampled_from([10, 11]),
    )
    @example(root=2, images=[[4], [0, 4], [4], [2]], coding=[1, 1, 0, 1, 1], prefix_len=10)
    @example(root=2, images=[[4, 3], [4, 0], [1, 3], [1, 2]], coding=[1, 0, 1, 0, 0], prefix_len=11)
    def test_coded_fixed_points_of_five_symbols(self, root, images, coding, prefix_len):
        f = Morphism(((0, root), *map(tuple, images)))
        prefix = FixedPoint(f).prefix(prefix_len)
        # The fixed point is f(x_0) f(x_1) ... over its own symbols x_i.
        assume(prefix_len not in set(itertools.accumulate(len(f.images[x]) for x in prefix)))
        target = tuple(coding[x] for x in prefix)
        agrees_with_brute_force(target, 5, 2, prefix_len, jobs=(1,))

    # The examples above run in process, so that a wrong search fails them
    # fast; these run the same kind of target over a pool.
    @pytest.mark.parametrize("images", [("01", "12", "2"), ("02", "21", "10"), ("012", "2", "11")])
    @pytest.mark.usefixtures("force_pool")
    def test_ternary_fixed_points_in_a_pool(self, images):
        target = FixedPoint(Morphism.from_strings(*images)).prefix(20)
        assert agrees_with_brute_force(target, 3, 3, 20, jobs=(2,)) > 0


def enumerate_then_filter(seen, n, max_len, coding, window):
    """The fits _fitting should give, in its order: every canonical image,
    shortest first then lexicographic, kept when its symbols code the window."""
    images, level = [], [((), seen)]
    for _ in range(max_len):
        level = [(w + (x,), max(m, x)) for w, m in level for x in range(min(m + 1, n - 1) + 1)]
        images.extend(w for w, _ in level)
    out = []
    for image in images:
        codes = {}
        for x, want in zip(image, window):
            have = coding[x] if x <= seen else codes.setdefault(x, want)
            if have != want:
                break
        else:
            out.append((image, tuple(codes.items()), max(seen, *image)))
    return out


class TestFitting:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("max_len", [1, 2, 3])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_matches_enumerate_then_filter(self, n, max_len, data):
        """Same fits in the same order, for every seen and window length."""
        coding = data.draw(st.lists(st.none() | st.integers(0, 2), min_size=n, max_size=n))
        target = tuple(data.draw(st.lists(st.integers(0, 2), min_size=max_len, max_size=max_len)))
        searcher = repsearch._Searcher(target, n, max_len)
        searcher.coding = coding
        for seen in range(-1, n):
            for size in range(max_len + 1):
                groups = searcher._fitting(seen, target[:size])
                for k, group in enumerate(groups, 1):
                    assert all(len(image) == k for image, _, _ in group)
                fits = [fit for group in groups for fit in group]
                assert fits == enumerate_then_filter(seen, n, max_len, coding, target[:size])


class TestGuards:
    def test_alphabet_guard(self):
        with pytest.raises(SearchTooLargeError, match="alphabet size 7"):
            SearchSpec(target=(0,) * 5, alphabet_size=7, max_image_len=2, prefix_len=5)

    def test_image_length_guard(self):
        with pytest.raises(SearchTooLargeError, match="image length 4"):
            SearchSpec(target=(0,) * 5, alphabet_size=2, max_image_len=4, prefix_len=5)

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValueError):
            SearchSpec(target=(0,) * 5, alphabet_size=0, max_image_len=2, prefix_len=5)
        with pytest.raises(ValueError):
            SearchSpec(target=(0,) * 5, alphabet_size=2, max_image_len=0, prefix_len=5)
        with pytest.raises(ValueError):
            SearchSpec(target=(0,) * 5, alphabet_size=2, max_image_len=2, prefix_len=0)
        with pytest.raises(ValueError):
            SearchSpec(
                target=(0,) * 5, alphabet_size=2, max_image_len=2, prefix_len=5, jobs=0
            )

    @pytest.mark.parametrize(
        "target, message",
        [
            ((0, -1, 0, 1), "target symbol -1 at position 1"),
            ((0, 1, 2.5), "target symbol 2.5 at position 2"),
            ((0, "1"), "target symbol '1' at position 1"),
            ((0, 256), "target symbol 256 at position 1"),
        ],
    )
    def test_rejects_bad_target_symbols(self, target, message):
        with pytest.raises(ValueError, match=message):
            SearchSpec(target=target, alphabet_size=2, max_image_len=2, prefix_len=1)

    @pytest.mark.parametrize("field", ["alphabet_size", "max_image_len", "prefix_len", "jobs"])
    @pytest.mark.parametrize("value", [2.5, 2.0, "2", None])
    def test_rejects_sizes_that_are_not_ints(self, field, value):
        sizes = {"alphabet_size": 2, "max_image_len": 2, "prefix_len": 5, "jobs": 2, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be an int, not {re.escape(repr(value))}$"):
            SearchSpec(target=(0,) * 5, **sizes)

    def test_prefix_longer_than_target(self):
        with pytest.raises(ValueError, match="shorter than"):
            SearchSpec(target=(0, 1, 0), alphabet_size=2, max_image_len=2, prefix_len=9)


class TestCanonicalForm:
    def test_fixes_a_permuted_catalog_rep(self):
        base = even_fib_rep()
        # swap symbols 3 and 4
        pi = (0, 1, 2, 4, 3)
        images = [None] * 5
        for a in range(5):
            images[pi[a]] = tuple(pi[s] for s in base.morphism.images[a])
        table = [0] * 5
        for a in range(5):
            table[pi[a]] = base.coding.table[a]
        scrambled_f = Morphism(tuple(images))
        scrambled_tau = Coding(tuple(table), 2)
        assert scrambled_f != base.morphism

        f, tau = canonical_form(scrambled_f, scrambled_tau)
        assert f == base.morphism
        assert tau == base.coding

    def test_canonical_rep_is_a_fixed_point_of_renaming(self):
        base = even_fib_rep()
        f, tau = canonical_form(base.morphism, base.coding)
        assert (f, tau) == (base.morphism, base.coding)

    @pytest.mark.parametrize("size", [1, 3])
    def test_rejects_a_coding_of_another_alphabet(self, size):
        with pytest.raises(AlphabetError, match="coding and morphism disagree on alphabet size"):
            canonical_form(fib_rep().morphism, Coding.identity(size))

    def test_rejects_unreachable_symbol(self):
        f = Morphism.from_strings("01", "0", "2")
        with pytest.raises(ValueError, match="not all symbols occur"):
            canonical_form(f, Coding.identity(3))
