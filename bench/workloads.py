"""The three workloads: their inputs, the CLI pass, and the traced replay.

A CLI pass calls morpheq.cli.main in-process on generated files, captures
stdout and stderr, and checks every answer against the construction or the
oracle.  A traced pass makes the same CLI calls and, after each one, replays
the operation through the public functions of the modules the command uses,
with a span around every call, then checks that the replay produced the
same answer.  Nothing under src/ is instrumented: the two nested calls worth
separating (growth-rate estimates inside equalize, the checker run inside
the renderers) are observed by wrapping the module attribute that the
calling module looks up.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import resource
import traceback
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import generate
from spans import Recorder

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "search_digests.json"

EXPAND_N = 2_000_000
EXPAND_GENERATED = 2
DECIDE_COUNT = 1500
DECIDE_LATEX_SHARE = 0.2
DECIDE_VERIFY_N = 10_000
SEARCH_BUILTINS = ("fib", "even-fib", "odd-fib", "spir")
SEARCH_ALPHABET = 5
SEARCH_MAXLEN = 3
SEARCH_PREFIX = 60
SEARCH_JOBS = 2
SEARCH_ARGS = [
    "--alphabet", str(SEARCH_ALPHABET),
    "--maxlen", str(SEARCH_MAXLEN),
    "--prefix", str(SEARCH_PREFIX),
]
CLOSING = {
    False: "Induction step proved, hence claim proved.\n",
    True: "\\noindent Induction step proved, hence claim proved.\n",
}


@dataclass
class Call:
    """One CLI call as the benchmark saw it; untimed calls stay out of wall_s."""

    seconds: float
    timed: bool = True


@dataclass
class Tally:
    """Verdicts and call timings of one run.

    peak_rss_mb is read before the first untimed call, so that memory the
    untimed calls take stays out of it as their time stays out of wall_s.
    """

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    calls: list[Call] = field(default_factory=list)
    peak_rss_mb: float | None = None

    def verdict(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{what}: {detail}"[:500])
        return ok


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest finished child, in MiB."""
    kb = max(resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kb / 1024


def call_cli(m, argv: list[str]) -> tuple[object, str, str, float]:
    """Run morpheq.cli.main(argv); return (exit code, stdout, stderr, seconds)."""
    out = io.StringIO()
    err = io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = m.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        code = "raised " + traceback.format_exc(limit=3)
    return code, out.getvalue(), err.getvalue(), perf_counter() - start


def read(path: Path) -> str:
    with open(path, encoding="ascii") as handle:
        return handle.read()


def write(path: Path, text: str) -> None:
    """Write text to path, rewriting an existing file in place.

    Truncating or deleting first would free the file's block.  On a file
    system that discards freed blocks at each journal commit (ext4 mounted
    with discard), creating files after others were deleted takes up to
    ten times longer, so set-up times would follow other disk activity.
    """
    data = text.encode("ascii")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o644)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def verify_message(n: int, mismatch: tuple[int, int, int] | None) -> tuple[int, str]:
    if mismatch is None:
        return 0, f"equal on the first {n} symbols\n"
    pos, a, b = mismatch
    return 1, f"first mismatch at position {pos}: {a} != {b}\n"


@contextmanager
def wrapped(module, name: str, rec: Recorder, span: str, after=None):
    """Record a span around every call the module makes through module.name."""
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        with rec.span(span):
            result = original(*args, **kwargs)
        if after is not None:
            after(result)
        return result

    setattr(module, name, wrapper)
    try:
        yield
    finally:
        setattr(module, name, original)


def replay_verify_prefix(m, rec: Recorder, argv: list[str], path: Path, n: int) -> str:
    """verify-prefix through MorphicRep, FixedPoint and Coding."""
    with rec.span("cli.verify-prefix"):
        with rec.span("cli.argparse"):
            m.cli.build_parser().parse_args(argv)
        text = read(path)
        with rec.span("formats.parse_problem"):
            problem = m.formats.parse_problem(text)
        coded = []
        for morphism, coding in ((problem.f, problem.tau), (problem.g, problem.rho)):
            rep = m.words.MorphicRep(morphism, coding)
            with rec.span("words.expand"):
                raw = rep.fixed_point().prefix(n)
            with rec.span("words.coding"):
                coded.append(rep.coding.apply(raw))
        rec.count("words.symbols", 2 * n)
        with rec.span("cli.compare"):
            left, right = coded
            mismatch = None
            if left != right:
                pos = next(i for i in range(n) if left[i] != right[i])
                mismatch = (pos, left[pos], right[pos])
        rec.count("cli.compared_symbols", n)
    return verify_message(n, mismatch)[1]


class Workload:
    name = ""

    def prepare(self, seed: int, workdir: Path):
        raise NotImplementedError

    def cli_pass(self, m, inputs, tally: Tally) -> None:
        raise NotImplementedError

    def after_timing(self, m, inputs, tally: Tally) -> None:
        """Untimed calls that a run makes once, after its timed passes."""

    def traced_pass(self, m, inputs, tally: Tally, rec: Recorder) -> None:
        raise NotImplementedError


class Expand(Workload):
    """verify-prefix --n 2000000 on known-equal problems."""

    name = "expand"

    def prepare(self, seed, workdir):
        items = []
        for problem in generate.expand_problems(seed, EXPAND_GENERATED):
            path = workdir / f"{problem.name}.txt"
            write(path, problem.text())
            items.append(path)
        return items

    def argv(self, path):
        return ["verify-prefix", str(path), "--n", str(EXPAND_N)]

    def check(self, tally, path, code, out):
        expected = verify_message(EXPAND_N, None)
        tally.verdict(f"verify-prefix {path.name}", (code, out) == expected,
                      f"got {code!r} {out!r}")

    def cli_pass(self, m, items, tally):
        for path in items:
            code, out, _, seconds = call_cli(m, self.argv(path))
            tally.calls.append(Call(seconds))
            self.check(tally, path, code, out)

    def traced_pass(self, m, items, tally, rec):
        for path in items:
            argv = self.argv(path)
            code, out, _, seconds = call_cli(m, argv)
            tally.calls.append(Call(seconds))
            self.check(tally, path, code, out)
            rec.new_op()
            replayed = replay_verify_prefix(m, rec, argv, path, EXPAND_N)
            tally.verdict(f"replay verify-prefix {path.name}", replayed == out,
                          f"replay printed {replayed!r}")


@dataclass
class DecideItem:
    problem: generate.Problem
    path: Path
    cert: Path
    replay_cert: Path


class Decide(Workload):
    """prove, check, and verify-prefix on a seeded corpus of small problems."""

    name = "decide"

    def __init__(self):
        self.proved: dict[str, int] = {}
        self.equal: dict[str, int] = {}

    def prepare(self, seed, workdir):
        items = []
        for problem in generate.decide_corpus(seed, DECIDE_COUNT, DECIDE_LATEX_SHARE):
            path = workdir / f"{problem.name}.txt"
            write(path, problem.text())
            items.append(DecideItem(problem, path, workdir / f"{problem.name}.cert",
                                    workdir / f"{problem.name}.replay.cert"))
        return items

    def prove_argv(self, item):
        argv = ["prove", str(item.path), "--save-proof", str(item.cert)]
        return argv + ["--format", "latex"] if item.problem.latex else argv

    def run_item(self, m, item, tally):
        """The CLI calls of one problem; returns (prove exit code, stdout, stage)."""
        problem = item.problem
        name = problem.name
        code, out, _, seconds = call_cli(m, self.prove_argv(item))
        tally.calls.append(Call(seconds))
        stage = None
        if code == 0:
            why = "rendering incomplete" if problem.equal else "proved an unequal problem"
            tally.verdict(f"prove {name}",
                          problem.equal and out.endswith(CLOSING[problem.latex]), why)
            code2, out2, _, seconds = call_cli(m, ["check", str(item.cert)])
            tally.calls.append(Call(seconds))
            tally.verdict(f"check {name}", code2 == 0 and out2.startswith("proof OK:"),
                          f"got {code2!r} {out2!r}")
        else:
            stage = out[len("gave up: "):].split(":", 1)[0] if out.startswith("gave up: ") else None
            valid = {s.value for s in m.prover.FailureStage}
            tally.verdict(f"prove {name}", code == 1 and stage in valid,
                          f"got {code!r} {out[:200]!r}")
            argv = ["verify-prefix", str(item.path), "--n", str(DECIDE_VERIFY_N)]
            code3, out3, _, seconds = call_cli(m, argv)
            tally.calls.append(Call(seconds))
            expected = verify_message(DECIDE_VERIFY_N, problem.mismatch)
            tally.verdict(f"verify-prefix {name}", (code3, out3) == expected,
                          f"expected {expected!r}, got {code3!r} {out3!r}")
        if problem.equal:
            self.equal[problem.kind] = self.equal.get(problem.kind, 0) + 1
            self.proved[problem.kind] = self.proved.get(problem.kind, 0) + (code == 0)
        return code, out, stage

    def cli_pass(self, m, items, tally):
        for item in items:
            self.run_item(m, item, tally)

    def replay_prove(self, m, rec, item):
        """prove_general step by step; returns (proof, rendering, None) or (None, None, stage)."""
        config = m.prover.ProverConfig()
        with rec.span("cli.prove"):
            with rec.span("cli.argparse"):
                m.cli.build_parser().parse_args(self.prove_argv(item))
            text = read(item.path)
            with rec.span("formats.parse_problem"):
                problem = m.formats.parse_problem(text)
            with rec.span("words.prune"):
                f, tau, _ = m.words.prune_unreachable(problem.f, problem.tau, 0)
                g, rho, _ = m.words.prune_unreachable(problem.g, problem.rho, 0)
            norm = m.prover.EqualityProblem(f, tau, g, rho)
            try:
                with rec.span("scaling.equalize"):
                    scaling = m.scaling.equalize(f, g, config.tol, config.eigen_iterations)
                if scaling is None:
                    rec.count("prover.gave_up.eigenvalue-mismatch")
                    return None, None, "eigenvalue-mismatch"
                with rec.span("words.power"):
                    fp = f.power(scaling.p)
                    gq = g.power(scaling.q)
                rec.count("words.scaled_image_symbols",
                          sum(map(len, fp.images)) + sum(map(len, gq.images)))
                with rec.span("prover.derive_table"):
                    table = m.prover.derive_table(fp, tau, gq, rho, config)
            except m.prover.ProveFailure as failure:
                rec.count(f"prover.gave_up.{failure.stage.value}")
                return None, None, failure.stage.value
            proof = m.prover.Proof(norm, scaling.p, scaling.q, table, m.prover.ProofMode.GENERAL)
            rec.count("prover.proved")
            rec.count("prover.table_pairs", len(table))
            latex = item.problem.latex
            with rec.span("proofdoc.render_latex" if latex else "proofdoc.render_text"):
                rendered = (m.proofdoc.render_latex if latex else m.proofdoc.render_text)(proof)
            with rec.span("formats.serialize_proof"):
                certificate = m.formats.serialize_proof(proof)
            rec.count("formats.certificate_bytes", len(certificate))
            write(item.replay_cert, certificate)
        return proof, rendered, None

    def replay_check(self, m, rec, item):
        with rec.span("cli.check"):
            with rec.span("cli.argparse"):
                m.cli.build_parser().parse_args(["check", str(item.cert)])
            text = read(item.cert)
            with rec.span("formats.parse_proof"):
                proof = m.formats.parse_proof(text)
            return m.proofdoc.check_proof(proof).ok

    def replay_subseq(self, m, rec, item, tally):
        """odd_length_power and block_encode on the base of a subseq problem."""
        images, _ = item.problem.base
        with rec.span("probe.subseq"):
            f = m.words.Morphism(images)
            with rec.span("subseq.odd_length_power"):
                k = m.subseq.odd_length_power(f)
            encoded = []
            for e in (k, 3 * k):
                fe = f.power(e)
                with rec.span("subseq.block_encode"):
                    encoded.append(m.subseq.block_encode(fe))
        for e, (g, first, second) in zip((k, 3 * k), encoded):
            expected, blocks = generate.block_encode(generate.power(images, e))
            ok = (g.images == expected and list(zip(first.table, second.table)) == blocks)
            tally.verdict(f"replay subseq {item.problem.name} power {e}", ok,
                          "block encoding differs from the reference")
        tally.verdict(f"replay subseq {item.problem.name}", k == item.problem.power,
                      f"odd_length_power gave {k}, expected {item.problem.power}")

    def traced_pass(self, m, items, tally, rec):
        for item in items:
            self.traced_item(m, item, tally, rec)

    @contextmanager
    def nested_spans(self, m, rec):
        """Spans for the estimates equalize makes and the check the renderers make."""
        def count_violations(report):
            rec.count("proofdoc.violations", len(report.violations))

        with wrapped(m.scaling, "estimate_eigenvalue", rec, "spectral.estimate"), \
                wrapped(m.proofdoc, "check_proof", rec, "proofdoc.check", count_violations):
            yield

    def traced_item(self, m, item, tally, rec):
        name = item.problem.name
        code, out, stage = self.run_item(m, item, tally)
        rec.new_op()
        with self.nested_spans(m, rec):
            proof, rendered, replay_stage = self.replay_prove(m, rec, item)
        problem = m.formats.parse_problem(read(item.path))
        try:
            reference = m.prover.prove_general(problem)
        except m.prover.ProveFailure as failure:
            reference = failure.stage.value
        if proof is None:
            tally.verdict(f"replay prove {name}", replay_stage == stage == reference,
                          f"replay gave up at {replay_stage}, CLI at {stage}, "
                          f"prove_general {reference!r}")
        else:
            same_cert = read(item.replay_cert) == read(item.cert)
            ok = proof == reference and rendered == out and same_cert
            tally.verdict(f"replay prove {name}", ok,
                          "replayed table, rendering or certificate differs from prove_general")
            rec.new_op()
            with self.nested_spans(m, rec):
                accepted = self.replay_check(m, rec, item)
            tally.verdict(f"replay check {name}", accepted,
                          "checker rejected the replayed certificate")
        if proof is None:
            argv = ["verify-prefix", str(item.path), "--n", str(DECIDE_VERIFY_N)]
            rec.new_op()
            replayed = replay_verify_prefix(m, rec, argv, item.path, DECIDE_VERIFY_N)
            expected = verify_message(DECIDE_VERIFY_N, item.problem.mismatch)[1]
            tally.verdict(f"replay verify-prefix {name}", replayed == expected,
                          f"replay printed {replayed!r}")
        if item.problem.kind == "subseq":
            rec.new_op()
            self.replay_subseq(m, rec, item, tally)


def parse_results(out: str) -> list[tuple[int, tuple, tuple]]:
    """(complexity, images, coding) of each result block search printed."""
    results = []
    for block in out.strip().split("\n\n") if out.strip() else []:
        lines = block.split("\n")
        n = int(lines[1])
        images = tuple(tuple(int(c) for c in line) for line in lines[2:2 + n])
        coding = tuple(int(c) for c in lines[2 + n])
        results.append((int(lines[0].split()[1]), images, coding))
    return results


def digest(results) -> str:
    lines = []
    for complexity, images, coding in sorted(results):
        words = " ".join("".join(map(str, im)) for im in images)
        lines.append(f"{complexity}|{words}|{''.join(map(str, coding))}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def well_formed(results) -> str | None:
    """Why the printed result list is malformed, or None."""
    keys = [(c, images, coding) for c, images, coding in results]
    if keys != sorted(keys) or len(set(keys)) != len(keys):
        return "results not sorted by complexity, images and coding, or repeated"
    for complexity, images, _ in results:
        if complexity != sum(map(len, images)):
            return f"complexity {complexity} is not the total image length"
        if len(images) > SEARCH_ALPHABET or max(map(len, images)) > SEARCH_MAXLEN:
            return "result exceeds the requested alphabet or image length"
    return None


@dataclass
class SearchInputs:
    targets: list[str]
    seeded: str
    references: dict[str, str]


class Search(Workload):
    """search --alphabet 5 --maxlen 3 --prefix 60 --jobs 2 on builtins and a seeded target.

    A pass searches the builtins.  The seed draws the seeded target from
    the pool recorded in search_digests.json (see record_digests.py).  It
    is searched and checked once, after the timed passes, and left out of
    the timed calls and the memory peak, because its search time varies
    tenfold from target to target and its result list from none to tens of
    thousands of representations; a traced pass replays it with the
    builtins.
    """

    name = "search"

    def __init__(self):
        self.seeded_ops: set[int] = set()

    def prepare(self, seed, workdir):
        recorded = json.loads(DIGESTS.read_text())
        if recorded["args"] != SEARCH_ARGS:
            raise ValueError(f"{DIGESTS.name} was recorded for {recorded['args']}")
        references = {name: recorded["digests"][name]["sha256"] for name in SEARCH_BUILTINS}
        seeded = random.Random(f"search:{seed}").choice(recorded["seeded"])
        path = workdir / "target.txt"
        write(path, seeded["target"] + "\n")
        references[str(path)] = seeded["sha256"]
        return SearchInputs(list(SEARCH_BUILTINS), str(path), references)

    def argv(self, target, jobs=SEARCH_JOBS):
        return ["search", "--target", target, *SEARCH_ARGS, "--jobs", str(jobs)]

    def run_target(self, m, inputs, target, tally):
        seeded = target == inputs.seeded
        if seeded and tally.peak_rss_mb is None:
            tally.peak_rss_mb = peak_rss_mb()
        code, out, err, seconds = call_cli(m, self.argv(target))
        tally.calls.append(Call(seconds, timed=not seeded))
        label = "seeded target" if seeded else target
        results = parse_results(out) if code == 0 else []
        problem = None if code == 0 else f"exit {code!r}: {err[-300:]!r}"
        if problem is None and err != f"found {len(results)} representations\n":
            problem = f"stderr {err!r} disagrees with {len(results)} printed results"
        problem = problem or well_formed(results)
        if problem is None:
            found = digest(results)
            expected = inputs.references[target]
            if found != expected:
                problem = f"result digest {found[:12]} differs from the reference {expected[:12]}"
        tally.verdict(f"search {label}", problem is None, problem or "")
        return out, results

    def cli_pass(self, m, inputs, tally):
        for target in inputs.targets:
            self.run_target(m, inputs, target, tally)

    def after_timing(self, m, inputs, tally):
        self.run_target(m, inputs, inputs.seeded, tally)

    def traced_pass(self, m, inputs, tally, rec):
        for target in inputs.targets + [inputs.seeded]:
            out, _ = self.run_target(m, inputs, target, tally)
            label = "seeded target" if target == inputs.seeded else target
            op = rec.new_op()
            if target == inputs.seeded:
                self.seeded_ops.add(op)
            replayed, word, results = self.replay_search(m, rec, target)
            if target != inputs.seeded:
                rec.count("repsearch.results", len(results))
            tally.verdict(f"replay search {label}", replayed == out,
                          "replayed search printed another result list")
            with rec.span("probe.repsearch.jobs1"):
                single = m.repsearch.search(self.spec(m, word, jobs=1))
            tally.verdict(f"search --jobs 1 {label}", single == results,
                          "jobs 1 and jobs 2 disagree")

    def spec(self, m, target, jobs):
        return m.repsearch.SearchSpec(
            target=target, alphabet_size=SEARCH_ALPHABET, max_image_len=SEARCH_MAXLEN,
            prefix_len=SEARCH_PREFIX, jobs=jobs,
        )

    def replay_search(self, m, rec, target):
        """search through catalog and repsearch; returns (stdout, target word, results)."""
        with rec.span("cli.search"):
            with rec.span("cli.argparse"):
                m.cli.build_parser().parse_args(self.argv(target))
            if target in SEARCH_BUILTINS:
                with rec.span("catalog.builtin_prefix"):
                    word = m.catalog.builtin_prefix(target, SEARCH_PREFIX)
            else:
                word = tuple(int(c) for c in "".join(read(Path(target)).split()))
            with rec.span("repsearch.search"):
                results = m.repsearch.search(self.spec(m, word, SEARCH_JOBS))
            blocks = []
            for rep in results:
                lines = [f"complexity {rep.complexity}", str(rep.morphism.alphabet_size)]
                lines.extend(m.words.format_word(im) for im in rep.morphism.images)
                lines.append(m.words.format_word(rep.coding.table))
                blocks.append("\n".join(lines))
            out = "\n\n".join(blocks) + "\n" if blocks else ""
        return out, word, results


WORKLOADS = {w.name: w for w in (Expand, Decide, Search)}
