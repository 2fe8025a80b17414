"""The sha256 of stdout and of stderr, and the exit code, of fixed CLI commands.

Each command runs in process through morpheq.cli.main, from the fixtures
directory, so the paths it names, and any it prints, are relative.  A
command that names SAVED writes a file there instead, in a temporary
directory, and its record adds the sha256 of that file (None if it wrote
none).  test_cli.py compares a fresh run against the recorded file, which
pins every byte each command writes.  To record it again, from the
repository root:

    PYTHONPATH=src python tests/cli_digests.py
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

FIXTURES = Path(__file__).parent / "fixtures"
RECORD = FIXTURES / "golden" / "cli_digests.json"

PROBLEMS = sorted(path.name for path in FIXTURES.glob("*.txt"))
CERTIFICATES = sorted(f"golden/{path.name}" for path in (FIXTURES / "golden").glob("*.proof"))
# Certificates that check rejects. Between them they reach every violation
# condition a parsed certificate can, with several conditions in one pair
# and violations in several pairs, so the order of the lines is pinned.
TAMPERED = sorted(path.name for path in FIXTURES.glob("tampered_*.proof"))
REPS = ["fib_rep.txt", "thue_morse_rep.txt", "eleven_blocks_rep.txt"]
BUILTINS = ["fib", "even-fib", "odd-fib", "spir"]
SAVED = "saved.proof"

COMMANDS = [
    *(["prove", name] for name in PROBLEMS),
    *(["prove", name, "--format", "latex"] for name in PROBLEMS),
    *(["prove", name, "--basic"] for name in PROBLEMS),
    *(["prove", name, "--basic", "--format", "latex"] for name in PROBLEMS),
    # Both ends of the safe-prefix read.
    *(["prove", name, "--max-pair-len", n] for name in PROBLEMS for n in ("1", "100000")),
    *(["prove", name, "--save-proof", SAVED] for name in PROBLEMS),
    *(["check", name] for name in CERTIFICATES),
    *(["check", name] for name in TAMPERED),
    *(["verify-prefix", name, "--n", n] for name in PROBLEMS for n in ("1", "1000", "100000")),
    *(["subseq", "--builtin", b, "--op", op, "--n", "100"] for b in BUILTINS for op in ("even", "odd")),
    *(["subseq", "--encode-blocks", name] for name in REPS),
    *(["search", "--target", b, "--alphabet", "3", "--maxlen", "2", "--prefix", "30"] for b in BUILTINS),
    ["search", "--target", "even-fib", "--alphabet", "5", "--maxlen", "3", "--prefix", "60"],
    ["search", "--target", "spir", "--alphabet", "5", "--maxlen", "3", "--prefix", "60"],
    # The edge of the search guards.
    *(["search", "--target", b, "--alphabet", "6", "--maxlen", "3", "--prefix", "60"]
      for b in ("even-fib", "spir")),
    # 21174 results; at two jobs the pool runs.
    *(["search", "--target", "fib", "--alphabet", "5", "--maxlen", "3", "--prefix", "60", "--jobs", j]
      for j in ("1", "2")),
    # fib_rep.txt read as a target is the digits 201001.
    ["search", "--target", "fib_rep.txt", "--alphabet", "3", "--maxlen", "2", "--prefix", "6"],
    ["search", "--target", "fib_rep.txt", "--alphabet", "3", "--maxlen", "2", "--prefix", "7"],
]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv: list[str], saved: Path) -> dict[str, object]:
    """Digests of one command's stdout and stderr, its exit code and, if it
    names SAVED, the file it writes at saved instead; run from the current
    directory."""
    from morpheq.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main([str(saved) if arg == SAVED else arg for arg in argv])
        except SystemExit as exc:
            code = exc.code
    record = {
        "stdout": sha256(out.getvalue().encode()),
        "stderr": sha256(err.getvalue().encode()),
        "exit": code,
    }
    if SAVED in argv:
        record["saved"] = sha256(saved.read_bytes()) if saved.exists() else None
        saved.unlink(missing_ok=True)
    return record


def digests() -> dict[str, dict[str, object]]:
    """Every command's digests, keyed by its space-joined arguments."""
    cwd = os.getcwd()
    os.chdir(FIXTURES)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            return {" ".join(argv): run(argv, Path(tmp) / SAVED) for argv in COMMANDS}
    finally:
        os.chdir(cwd)


if __name__ == "__main__":
    RECORD.write_text(json.dumps(digests(), indent=1) + "\n")
    print(f"recorded {len(COMMANDS)} commands in {RECORD}", file=sys.stderr)
