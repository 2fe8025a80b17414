"""morpheq benchmark: end-to-end CLI timings and a traced per-layer run.

    python3 bench/run.py --workload expand --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --seed 1          # every workload, each in its own process

Workloads (see workloads.py):
  expand  verify-prefix --n 2000000 on known-equal problems; fixed-point
          expansion and coding in morpheq.words take nearly all the time.
  decide  prove, check and verify-prefix on 1500 small seeded problems; the
          time goes to prover, scaling, spectral, proofdoc and formats.
  search  search --alphabet 5 --maxlen 3 --prefix 60 --jobs 2 on the
          builtins and a seeded target; all the time goes to repsearch.

With --trace 0 the run sets up its inputs once untimed and then several
times timed (set-up is the import of morpheq plus generating and writing
the inputs), then repeats passes over the inputs until --seconds have gone
by.  Times are those of the CLI calls; the benchmark's own checks are not
timed.

With --trace 1 the run replays the operations of all three workloads, so
that every per-layer metric is measured on the workload it belongs to
whichever --workload is named; each workload gets a third of --seconds and
at least one pass.  Spans go to bench/.work/trace-<workload>-<seed>.json;
besides the per-layer metrics, the report gives each layer's self time per
pass as self_s.<workload>.<layer>, and the tracing overhead as the traced
replay's wall time minus the CLI calls' wall time.

Every answer is checked; the last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.  Exit status is 0 when the
run finished (check "correct"), 2 when it could not start.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import spans
from workloads import DECIDE_COUNT, EXPAND_N, WORKLOADS, Tally, peak_rss_mb

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
MODULES = ("cli", "formats", "words", "prover", "scaling", "spectral",
           "proofdoc", "subseq", "repsearch", "catalog")
SETUP_REPEATS = 7
# Address-space cap for the run and its search workers, so that a runaway
# search fails as an erroring operation instead of exhausting the machine.
MEMORY_LIMIT = 2 << 30
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
STAGES = ("eigenvalue-mismatch", "no-initial-safe-pair", "decomposition-stuck",
          "coding-mismatch", "pair-budget-exceeded")
KINDS = ("rename", "power", "block2", "subseq")

# The metrics every run reports, as listed in BENCHMARK.json.
END_TO_END = {"setup_s": "s", "wall_s": "s", "latency_p50_ms": "ms", "peak_rss_mb": "MB"}
PER_LAYER = {
    "words.expand_ns_per_symbol": "ns",
    "words.coding_ns_per_symbol": "ns",
    "cli.compare_ns_per_symbol": "ns",
    "cli.argparse_us": "us",
    "words.prune_us": "us",
    "words.power_us": "us",
    "words.scaled_image_symbols": "count",
    "spectral.estimate_us": "us",
    "scaling.equalize_us": "us",
    "prover.derive_table_us": "us",
    "prover.table_pairs": "count",
    "prover.proved": "count",
    **{f"prover.gave_up.{stage}": "count" for stage in STAGES},
    **{f"prover.decided_share.{kind}": "share" for kind in KINDS},
    "proofdoc.check_us": "us",
    "proofdoc.render_text_us": "us",
    "proofdoc.render_latex_us": "us",
    "proofdoc.violations": "count",
    "formats.parse_problem_us": "us",
    "formats.parse_proof_us": "us",
    "formats.serialize_proof_us": "us",
    "formats.certificate_bytes": "bytes",
    "subseq.odd_length_power_us": "us",
    "subseq.block_encode_us": "us",
    "repsearch.search_s": "s",
    "repsearch.results": "count",
    "repsearch.results_per_s": "1/s",
    "repsearch.jobs2_speedup": "x",
    "catalog.builtin_prefix_us": "us",
    **{f"cli.residual_ms.{w}": "ms" for w in ("expand", "decide", "search")},
    **{f"trace.overhead_s.{w}": "s" for w in ("expand", "decide", "search")},
}


def keep_heap() -> None:
    """Make glibc keep freed memory in the heap instead of returning it.

    By default glibc maps large blocks separately, unmaps them on free and
    raises its threshold for that as it goes, so the peak resident set of
    expand depended on the order of earlier allocations (87 or 100 MB by
    seed), and memory handed back to the kernel had to be faulted in again
    by the next call.  A fixed threshold at its maximum, 32 MiB, and no
    trimming keep every block in the heap.  Other C libraries are left as
    they are.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(M_MMAP_THRESHOLD, 32 << 20)
    mallopt(M_TRIM_THRESHOLD, (1 << 31) - 1)


def import_morpheq() -> SimpleNamespace:
    """Import morpheq afresh, so that each set-up pays for the import."""
    for name in [n for n in sys.modules if n == "morpheq" or n.startswith("morpheq.")]:
        del sys.modules[name]
    importlib.import_module("morpheq")
    return SimpleNamespace(**{n: importlib.import_module(f"morpheq.{n}") for n in MODULES})


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value): the highest percentile with at least 10 samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99.9, 99, 95, 90, 75, 50):
        rank = math.ceil(p / 100 * n)
        if rank >= 1 and n - rank >= 10:
            return p, ordered[rank - 1]
    return None


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_untraced(workload, seed: int, seconds: float, workdir: Path):
    """Set up once untimed, then several times timed, then time passes.

    The untimed set-up compiles morpheq's bytecode and creates the input
    files; the timed ones import morpheq afresh and regenerate and rewrite
    the same files (see workloads.write).  Passes stop at the one that
    ends nearest to --seconds, so that on average a run measures that long.
    """
    inputs_dir = fresh_dir(workdir / "inputs")
    workload.prepare(seed, inputs_dir)
    setups = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        m = import_morpheq()
        inputs = workload.prepare(seed, inputs_dir)
        setups.append(perf_counter() - start)

    tally = Tally()
    walls = []
    deadline = perf_counter() + seconds
    while True:
        start = perf_counter()
        first = len(tally.calls)
        workload.cli_pass(m, inputs, tally)
        walls.append(sum(c.seconds for c in tally.calls[first:] if c.timed))
        now = perf_counter()
        if now + (now - start) / 2 >= deadline:
            break
    workload.after_timing(m, inputs, tally)

    wall = statistics.median(walls)
    latencies = [c.seconds * 1e3 for c in tally.calls if c.timed]
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "wall_s": (wall, "s", len(walls)),
        "latency_p50_ms": (statistics.median(latencies), "ms", len(latencies)),
        "peak_rss_mb": (tally.peak_rss_mb or peak_rss_mb(), "MB", 1),
    }
    report = dict(metrics)
    high = tail(latencies)
    if high:
        report[f"latency_tail_ms (p{high[0]:g})"] = (high[1], "ms", len(latencies))
    report["fail_share"] = (len(tally.failures) / max(tally.attempted, 1), "share", tally.attempted)
    if workload.name == "expand":
        report["symbols_per_s"] = (2 * EXPAND_N * len(inputs) / wall, "1/s", len(walls))
    elif workload.name == "decide":
        report["problems_per_s"] = (DECIDE_COUNT / wall, "1/s", len(walls))
        equal = sum(workload.equal.values())
        report["decided_share"] = (sum(workload.proved.values()) / equal, "share", equal)
    else:
        seeded = [c.seconds for c in tally.calls if not c.timed]
        report["seeded_search_s"] = (statistics.median(seeded), "s", len(seeded))
    return tally, metrics, report


def cli_split(rec, calls, passes: int):
    """(residual ms per CLI call, traced minus untraced wall s per pass)."""
    roots = {i for i, s in enumerate(rec.spans)
             if s[spans.PARENT] is None and s[spans.NAME].startswith("cli.")}
    layer_ns = sum(s[spans.END] - s[spans.START] for s in rec.spans
                   if s[spans.PARENT] in roots and not s[spans.NAME].startswith("cli."))
    traced_ns = sum(rec.spans[i][spans.END] - rec.spans[i][spans.START] for i in roots)
    cli_s = sum(c.seconds for c in calls)
    return (cli_s - layer_ns / 1e9) / len(calls) * 1e3, (traced_ns / 1e9 - cli_s) / passes


def layer_metrics(workload, rec, tally, passes: int) -> dict:
    """Per-layer metrics of one workload's traced passes."""
    name = workload.name
    keep = None
    if name == "search":
        keep = lambda s: s[spans.OP] not in workload.seeded_ops  # noqa: E731
    totals = spans.by_name(rec.spans, keep)

    def per_call(span, scale, unit):
        n, ns = totals.get(span, (0, 0))
        return (ns / n / scale if n else 0.0, unit, n)

    def per_pass(count, unit="count"):
        return (rec.counts.get(count, 0) / passes, unit, passes)

    residual, overhead = cli_split(rec, tally.calls, passes)
    out = {f"cli.residual_ms.{name}": (residual, "ms", len(tally.calls)),
           f"trace.overhead_s.{name}": (overhead, "s", passes)}
    layers: dict[str, list[int]] = {}
    for span, (n, ns) in spans.by_name(rec.spans).items():
        entry = layers.setdefault(span.split(".")[0], [0, 0])
        entry[0] += n
        entry[1] += ns
    for layer, (n, ns) in sorted(layers.items()):
        out[f"self_s.{name}.{layer}"] = (ns / 1e9 / passes, "s", n)
    if name == "expand":
        symbols = rec.counts["words.symbols"]
        for metric, span, count in (
            ("words.expand_ns_per_symbol", "words.expand", symbols),
            ("words.coding_ns_per_symbol", "words.coding", symbols),
            ("cli.compare_ns_per_symbol", "cli.compare", rec.counts["cli.compared_symbols"]),
        ):
            out[metric] = (totals[span][1] / count, "ns", totals[span][0])
    elif name == "decide":
        for span in ("words.prune", "words.power", "spectral.estimate", "scaling.equalize",
                     "prover.derive_table", "proofdoc.check", "proofdoc.render_text",
                     "proofdoc.render_latex", "formats.parse_problem", "formats.parse_proof",
                     "formats.serialize_proof", "subseq.odd_length_power",
                     "subseq.block_encode", "cli.argparse"):
            out[f"{span}_us"] = per_call(span, 1e3, "us")
        for count in ("words.scaled_image_symbols", "prover.table_pairs", "prover.proved",
                      "proofdoc.violations"):
            out[count] = per_pass(count)
        out["formats.certificate_bytes"] = per_pass("formats.certificate_bytes", "bytes")
        for stage in STAGES:
            out[f"prover.gave_up.{stage}"] = per_pass(f"prover.gave_up.{stage}")
        for kind in KINDS:
            equal = workload.equal.get(kind, 0)
            share = workload.proved.get(kind, 0) / equal if equal else 0.0
            out[f"prover.decided_share.{kind}"] = (share, "share", equal)
    else:
        jobs1 = totals["probe.repsearch.jobs1"]
        jobs2 = totals["repsearch.search"]
        out["repsearch.search_s"] = (jobs1[1] / 1e9 / passes, "s", jobs1[0])
        out["repsearch.results"] = per_pass("repsearch.results")
        out["repsearch.results_per_s"] = (rec.counts["repsearch.results"] / (jobs1[1] / 1e9),
                                          "1/s", jobs1[0])
        out["repsearch.jobs2_speedup"] = (jobs1[1] / jobs2[1], "x", jobs2[0])
        out["catalog.builtin_prefix_us"] = per_call("catalog.builtin_prefix", 1e3, "us")
    return out


def run_traced(seed: int, seconds: float, workdir: Path):
    tally = Tally()
    report = {}
    for name, cls in WORKLOADS.items():
        workload = cls()
        m = import_morpheq()
        inputs = workload.prepare(seed, fresh_dir(workdir / name))
        rec = spans.Recorder()
        own = Tally()
        passes = 0
        deadline = perf_counter() + seconds / len(WORKLOADS)
        while True:
            workload.traced_pass(m, inputs, own, rec)
            passes += 1
            if perf_counter() >= deadline:
                break
        report.update(layer_metrics(workload, rec, own, passes))
        rec.write(WORK / f"trace-{name}-{seed}.json")
        tally.attempted += own.attempted
        tally.failures.extend(own.failures)
    return tally, {k: report[k] for k in PER_LAYER}, report


def run_one(args) -> int:
    if not (ROOT / "src" / "morpheq").is_dir():
        print(f"error: no morpheq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard == resource.RLIM_INFINITY or hard > MEMORY_LIMIT:
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, hard))
    keep_heap()
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            tally, metrics, report = run_traced(args.seed, args.seconds, workdir)
        else:
            workload = WORKLOADS[args.workload]()
            tally, metrics, report = run_untraced(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit, samples) in report.items():
        print(f"{args.workload:7} {name:40} {value:16.6f} {unit:6} samples={samples}")
    for failure in tally.failures[:20]:
        print(f"FAIL {failure}")
    print(json.dumps({
        "correct": not tally.failures and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; exit 1 if any of them failed."""
    names = ["expand"] if args.trace else list(WORKLOADS)
    status = 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = done.stdout.splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
        if result is None or not result["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("expand", "decide", "search"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
