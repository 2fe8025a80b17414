"""Record the reference digests of the search workload's result lists.

    python3 bench/record_digests.py [--commit <id>]

Runs each builtin search of the search workload once, checks every result
with the oracle against a target prefix the oracle computes itself, and
writes the digest of each sorted result list to search_digests.json.

It then records the pool the seeded target is drawn from: the targets
generate.search_target gives for draws 0, 1, 2, ... whose search, run in
a child process, ends within SEEDED_BUDGET_S seconds, until SEEDED_POOL
are kept.  Exhaustive search has no time or memory budget of its own, and
some aperiodic-looking targets run for minutes (draw 70 did not end in
75 s), which a benchmark run cannot afford.  Each kept target's results
are checked with the oracle and its digest recorded with it.

Run it only on a commit whose search results are trusted; the benchmark
counts any later difference as a failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from time import perf_counter

import generate
import oracle
from run import ROOT, WORK, fresh_dir, import_morpheq
from workloads import (
    DIGESTS, SEARCH_ARGS, SEARCH_BUILTINS, SEARCH_JOBS, SEARCH_PREFIX, call_cli, digest,
    parse_results, well_formed, write,
)

FIB = (((0, 1), (0,)), (0, 1))
SPIRAL = (((0,), (0, 1), (2, 1)), (0, 1, 1))
SEEDED_POOL = 32
SEEDED_BUDGET_S = 5.0
CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); from morpheq.cli import main; "
         "sys.exit(main(sys.argv[2:]))")


def builtin_target(name: str, n: int) -> list[int]:
    if name == "fib":
        return oracle.coded_prefix(FIB, n)
    if name == "even-fib":
        return oracle.coded_prefix(FIB, 2 * n)[0::2]
    if name == "odd-fib":
        return oracle.coded_prefix(FIB, 2 * n)[1::2]
    return oracle.coded_prefix(SPIRAL, n, start=2)


def checked(name: str, code, out: str, target: list[int]):
    """The parsed results, or None after printing why they are wrong."""
    results = parse_results(out) if code == 0 else []
    bad = [r for r in results if not oracle.reproduces(r[1:], target)]
    problem = well_formed(results)
    if code != 0 or bad or problem:
        print(f"{name}: exit {code}, {len(bad)} results fail the oracle, {problem}")
        return None
    return results


def search_within_budget(path) -> tuple[int, str, float] | None:
    """(exit code, stdout, seconds) of the search CLI in a child, or None past the budget."""
    argv = ["search", "--target", str(path), *SEARCH_ARGS, "--jobs", str(SEARCH_JOBS)]
    start = perf_counter()
    child = subprocess.Popen([sys.executable, "-c", CHILD, str(ROOT / "src"), *argv],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                             start_new_session=True)
    try:
        out, _ = child.communicate(timeout=SEEDED_BUDGET_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        return None
    return child.returncode, out, perf_counter() - start


def seeded_pool() -> list[dict] | None:
    workdir = fresh_dir(WORK / "record")
    try:
        return draw_pool(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def draw_pool(workdir) -> list[dict] | None:
    pool = []
    draw = 0
    while len(pool) < SEEDED_POOL:
        _, target = generate.search_target(draw, SEARCH_PREFIX)
        word = "".join(map(str, target))
        path = workdir / f"target-{draw}.txt"
        write(path, word + "\n")
        done = search_within_budget(path)
        if done is None:
            print(f"draw {draw}: over {SEEDED_BUDGET_S:g} s, left out")
        else:
            code, out, seconds = done
            results = checked(f"draw {draw}", code, out, target)
            if results is None:
                return None
            pool.append({"draw": draw, "target": word, "sha256": digest(results),
                         "results": len(results)})
            print(f"draw {draw}: {len(results)} results checked in {seconds:.2f} s")
        draw += 1
    return pool


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--commit", default="unknown", help="commit the digests come from")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    m = import_morpheq()
    digests = {}
    for name in SEARCH_BUILTINS:
        code, out, _, seconds = call_cli(m, ["search", "--target", name, *SEARCH_ARGS])
        results = checked(name, code, out, builtin_target(name, SEARCH_PREFIX))
        if results is None:
            return 1
        digests[name] = {"sha256": digest(results), "results": len(results)}
        print(f"{name}: {len(results)} results checked in {seconds:.2f} s")
    pool = seeded_pool()
    if pool is None:
        return 1
    DIGESTS.write_text(json.dumps(
        {"args": SEARCH_ARGS, "commit": args.commit, "digests": digests,
         "seeded_budget_s": SEEDED_BUDGET_S, "seeded": pool}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
