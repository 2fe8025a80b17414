"""Commands at the edge of their budgets, each in a child process with 1 GiB
of address space.

Every run must exit with its documented code, 0, 1 or 2, print no traceback,
and stay within a wall time and a peak resident set linear in its input: a
start-up allowance plus an allowance per byte of the input file, per symbol
of verify-prefix --n, or, for a problem whose scaled powers reach toward
words.POWER_LIMIT, per symbol of that limit.  README's "What each command
costs" states the same bounds and the figures measured.
"""

import pytest

from morpheq.prover import MAX_PAIR_LEN
from morpheq.words import MAX_PREFIX, POWER_LIMIT

from conftest import FIXTURES, UNIFORM_256_512, run_limited

# Allowances as (seconds, MiB): at start-up, then per unit of input.
START = (1.0, 64)
PER_BYTE = (5e-6, 100 / 2**20)
PER_PREFIX_SYMBOL = (20e-9, 3 / 2**20)
PER_POWER_SYMBOL = (10e-6, 400 / 2**20)

# a -> a (a+1) ... (a+9999) mod 10 on both sides: a 200 KB problem file.
CYCLIC_SIDE = (
    "10\n" + "".join("".join(str((a + k) % 10) for k in range(10000)) + "\n" for a in range(10)) + "0123456789\n"
)
# f = g = 0 -> 0 1^99999, 1 -> 1^100000, coded 01: a 400 KB problem file.
LONG_SIDE = "2\n0" + "1" * 99999 + "\n" + "1" * 100000 + "\n01\n"
# 0 -> 0^100 against 0 -> 0^1000, scaled by (3, 2): the images of f^2 and f^3
# hold 1,010,000 symbols, just under POWER_LIMIT.
UNDER_POWER_LIMIT = "1\n" + "0" * 100 + "\n0\n1\n" + "0" * 1000 + "\n0\n"
LINEAR = FIXTURES / "linear_growth.txt"


def run(args: list[str], exit_code: int, units: int, per_unit: tuple[float, float]):
    """Run morpheq on args; units counts the input in per_unit's terms."""
    result, seconds, mib = run_limited(["-m", "morpheq.cli", *map(str, args)], 1 << 30)
    assert result.returncode == exit_code
    assert "Traceback" not in result.stderr
    assert seconds < START[0] + units * per_unit[0]
    assert mib < START[1] + units * per_unit[1]
    return result


def write(path, text: str):
    path.write_text(text)
    return path


class TestProve:
    @pytest.mark.parametrize("options, exit_code", [([], 0), (["--basic"], 1)], ids=["general", "basic"])
    def test_cyclic_images(self, tmp_path, options, exit_code):
        problem = write(tmp_path / "cyclic.txt", CYCLIC_SIDE * 2)
        run(["prove", problem, *options], exit_code, problem.stat().st_size, PER_BYTE)

    def test_cyclic_certificate_at_the_longest_pairs_checks(self, tmp_path):
        problem = write(tmp_path / "cyclic.txt", CYCLIC_SIDE * 2)
        cert = tmp_path / "cyclic.proof"
        options = ["--max-pair-len", MAX_PAIR_LEN, "--save-proof", cert]
        run(["prove", problem, *options], 0, problem.stat().st_size, PER_BYTE)
        run(["check", cert], 0, cert.stat().st_size, PER_BYTE)

    @pytest.mark.parametrize(
        "options", [["--max-pair-len", MAX_PAIR_LEN], ["--basic"]], ids=["longest-pairs", "basic"]
    )
    def test_linear_growth_gives_up(self, options):
        run(["prove", LINEAR, *options], 1, LINEAR.stat().st_size, PER_BYTE)

    @pytest.mark.parametrize(
        "text, exit_code", [(UNDER_POWER_LIMIT, 0), (UNIFORM_256_512, 2)], ids=["under", "over"]
    )
    def test_scaled_powers_at_the_power_limit(self, tmp_path, text, exit_code):
        result = run(["prove", write(tmp_path / "powers.txt", text)], exit_code, POWER_LIMIT, PER_POWER_SYMBOL)
        if exit_code == 2:
            assert result.stderr == (
                f"error: power 9 of the morphism needs more than {POWER_LIMIT} image symbols\n"
            )


class TestCheck:
    @pytest.mark.parametrize(
        "table",
        ["20000\n" + "0\n0\n0\n" * 20000, "1\n0\n0\n" + " ".join(["0"] * 10**5) + "\n"],
        ids=["many-pairs", "long-index-word"],
    )
    def test_wrong_tables_on_long_images(self, tmp_path, table):
        cert = write(tmp_path / "long.proof", LONG_SIDE * 2 + "1 1 general\n" + table)
        result = run(["check", cert], 1, cert.stat().st_size, PER_BYTE)
        assert result.stdout.startswith(
            "violation: f-decomposition on pair 0: f-image does not match the index word\n"
        )


class TestVerifyPrefix:
    @pytest.mark.parametrize("n, exit_code", [(MAX_PREFIX, 0), (MAX_PREFIX + 1, 2)], ids=["limit", "past"])
    def test_prefix_at_the_limit(self, n, exit_code):
        run(["verify-prefix", LINEAR, "--n", n], exit_code, n, PER_PREFIX_SYMBOL)
