"""Command-line interface.

Commands:
    prove          build an induction proof for a problem file
    check          re-verify a serialized proof
    verify-prefix  compare coded prefixes of both sides of a problem
    subseq         print even/odd subsequence prefixes or a block encoding
    search         enumerate small representations matching a target prefix

Exit codes: 0 on success, 1 when the requested fact does not hold (proof
attempt gave up, certificate rejected, prefixes differ), 2 on bad input.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import catalog
from .certificate import check_proof
from .formats import (
    MAX_CODEC_ALPHABET, parse_problem, parse_proof, parse_rep, serialize_proof, serialize_rep
)
from .proofdoc import render_latex, render_text
from .prover import MAX_PAIR_LEN, ProveFailure, ProverConfig, prove_basic, prove_general
from .repsearch import MAX_ALPHABET, MAX_IMAGE_LEN, POOL_NODES, SearchSpec, matches
from .subseq import MAX_COUNT, MAX_ODD_POWER, arith_prefix, block_encode, odd_length_power
from .words import MAX_PREFIX, MorphicRep, first_mismatch, format_word, is_digits, parse_word


def _read(path: str) -> str:
    """The text of an input file, with universal newlines; a byte outside
    ASCII raises ValueError naming the file and its line."""
    with open(path, "rb") as handle:
        data = handle.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as err:
        line = data.count(b"\n", 0, err.start) + 1
        byte = data[err.start]
        raise ValueError(f"{path}: line {line}: byte 0x{byte:02x} is not ASCII") from None


def _cmd_prove(args) -> int:
    config = ProverConfig(tol=args.tol, max_pair_len=args.max_pair_len)
    problem = parse_problem(_read(args.file))
    prove = prove_basic if args.basic else prove_general
    try:
        proof = prove(problem, config)
    except ProveFailure as failure:
        print(f"gave up: {failure.stage.value}: {failure.detail}")
        return 1
    rendered = render_latex(proof) if args.format == "latex" else render_text(proof)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered)
    else:
        sys.stdout.write(rendered)
    if args.save_proof:
        with open(args.save_proof, "w", encoding="ascii") as handle:
            handle.write(serialize_proof(proof))
    return 0


def _cmd_check(args) -> int:
    proof = parse_proof(_read(args.file))
    report = check_proof(proof)
    if report.ok:
        print(
            f"proof OK: {len(proof.table)} pairs, exponents ({proof.p}, {proof.q}), "
            f"{proof.mode.value} mode"
        )
        return 0
    for violation in report.violations:
        print(f"violation: {violation.condition} on pair {violation.pair}: {violation.detail}")
    return 1


def _cmd_verify_prefix(args) -> int:
    n = args.n
    if n > MAX_PREFIX:
        raise ValueError(f"--n is {n}; at most {MAX_PREFIX} symbols can be compared")
    problem = parse_problem(_read(args.file))
    left = MorphicRep(problem.f, problem.tau)
    right = MorphicRep(problem.g, problem.rho)
    mismatch = first_mismatch(left, right, n)
    if mismatch is None:
        print(f"equal on the first {n} symbols")
        return 0
    pos, a, b = mismatch
    print(f"first mismatch at position {pos}: {a} != {b}")
    return 1


def _cmd_subseq(args) -> int:
    if args.encode_blocks:
        f, coding = parse_rep(_read(args.encode_blocks))
        k = odd_length_power(f)
        if k is None:
            print(f"no power up to {MAX_ODD_POWER} makes every image length odd", file=sys.stderr)
            return 1
        g, first, second = block_encode(f.power(k))
        if g.alphabet_size > MAX_CODEC_ALPHABET:
            print(f"{g.alphabet_size} block symbols, over the limit of {MAX_CODEC_ALPHABET}", file=sys.stderr)
            return 1
        blocks = [
            format_word((first.table[b], second.table[b]))
            for b in range(g.alphabet_size)
        ]
        print(f"upscale {k}")
        print(f"blocks {' '.join(blocks)}")
        sys.stdout.write(serialize_rep(g.images, coding.apply(first.table)))
        print(format_word(coding.apply(second.table)))
        return 0
    rep, start, step = catalog.BUILTINS[args.builtin]
    parity = 0 if args.op == "even" else 1
    count = 32 if args.n is None else args.n
    print(format_word(arith_prefix(rep(), start + step * parity, 2 * step, count)))
    return 0


def _cmd_search(args) -> int:
    if args.target in catalog.BUILTIN_NAMES:
        target = catalog.builtin_prefix(args.target, args.prefix)
    else:
        text = "".join(_read(args.target).split())
        if not is_digits(text):
            print("target file must contain digits only", file=sys.stderr)
            return 2
        target = parse_word(text[: args.prefix])
    spec = SearchSpec(
        target=target,
        alphabet_size=args.alphabet,
        max_image_len=args.maxlen,
        prefix_len=args.prefix,
        jobs=args.jobs,
    )
    results = matches(spec)
    print(f"found {len(results)} representations", file=sys.stderr)
    # Results share a few hundred distinct words at most; format each once.
    fmt = functools.cache(format_word)
    sys.stdout.write("\n".join(
        f"complexity {size}\n" + serialize_rep(images, table, fmt) for size, images, table in results
    ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morpheq",
        description="Prove equality of coded morphic sequences by simultaneous induction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    prove = sub.add_parser("prove", help="prove a problem file and print the proof")
    prove.add_argument("file", help="problem file")
    prove.add_argument("--basic", action="store_true", help="use the fixed per-symbol table shape")
    prove.add_argument("--format", choices=("text", "latex"), default="text")
    prove.add_argument(
        "--tol", type=float, default=ProverConfig.tol, help="growth-rate gap tolerance, finite and positive"
    )
    prove.add_argument(
        "--max-pair-len",
        type=int,
        default=ProverConfig.max_pair_len,
        help=f"longest safe pair considered, 1 to {MAX_PAIR_LEN}",
    )
    prove.add_argument("--output", help="write the rendered proof here instead of stdout")
    prove.add_argument("--save-proof", help="also write the machine-checkable certificate here")
    prove.set_defaults(func=_cmd_prove)

    check = sub.add_parser("check", help="verify a serialized proof file")
    check.add_argument("file", help="proof file")
    check.set_defaults(func=_cmd_check)

    verify = sub.add_parser("verify-prefix", help="compare coded prefixes of both sides")
    verify.add_argument("file", help="problem file")
    verify.add_argument(
        "--n", type=int, default=10000, help=f"prefix length to compare, at most {MAX_PREFIX}"
    )
    verify.set_defaults(func=_cmd_verify_prefix)

    subseq = sub.add_parser("subseq", help="subsequence prefixes and block encodings")
    group = subseq.add_mutually_exclusive_group(required=True)
    group.add_argument("--builtin", choices=catalog.BUILTIN_NAMES)
    group.add_argument("--encode-blocks", metavar="FILE", help="representation file to block-encode")
    subseq.add_argument("--op", choices=("even", "odd"), help="which subsequence of the builtin")
    subseq.add_argument("--n", type=int, default=None, help=f"how many symbols to print, at most {MAX_COUNT}")
    subseq.set_defaults(func=_cmd_subseq)

    searchp = sub.add_parser("search", help="enumerate representations matching a target prefix")
    searchp.add_argument("--target", required=True, help="digit file or builtin name")
    searchp.add_argument("--alphabet", type=int, required=True, help=f"alphabet size, at most {MAX_ALPHABET}")
    searchp.add_argument(
        "--maxlen", type=int, required=True, help=f"maximum image length, at most {MAX_IMAGE_LEN}"
    )
    searchp.add_argument(
        "--prefix",
        type=int,
        required=True,
        help=f"symbols of the target to match, at most {MAX_COUNT} of a builtin",
    )
    searchp.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=f"worker processes, started once the walk has visited {POOL_NODES} nodes",
    )
    searchp.set_defaults(func=_cmd_search)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "subseq" and args.builtin and not args.op:
        parser.error("--builtin requires --op")
    if args.command == "subseq" and args.encode_blocks and (args.op or args.n is not None):
        parser.error("--encode-blocks takes neither --op nor --n")
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
