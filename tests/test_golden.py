"""Byte-for-byte golden outputs of the command line.

tests/golden/corpus.json holds, for each command below, its argv, its
exit code and its exact stdout and stderr, in --json and in human form.
Record it again only when a change of output is intended:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import functools
import io
import json
import pathlib

import pytest

from bruhat_kit import cli
from test_cli import readme_commands

CORPUS = pathlib.Path(__file__).resolve().parent / "golden" / "corpus.json"
RANK10_ZETA = "6 9 4 8 7 3 5 1 2"
# u = 1 3 2 is shorter than w = 3 5 1 2 4: its chains swap values past u's stored images
PADDED_ZETA = "3 1 5 2 4"
RANK8_AFFINE = ["affine", "--k", "5", "--u", "[3,-1,0,7,8,4]", "--w", "[3,-6,-1,13,4,8]"]
ALL_RULES = "A,B1,B2,C1,C2,D,E1,E2,F,X1,X2,X3,X4,X5,X6"


def golden_commands() -> list[list[str]]:
    """The README lines (less the slow 1000-trial sweep) and a small ladder."""
    commands = [argv + ["--json"] for argv in readme_commands()
                if not (argv[0] == "relations" and "1000" in argv)]
    commands += [["relations", "--k", str(k), "--sweep", "25", "--seed", "1",
                  "--rules", ALL_RULES, "--json"] for k in range(2, 6)]
    commands += [["rbruhat", "--zeta", RANK10_ZETA, "--schur", "--json"],
                 ["embed", "--zeta", RANK10_ZETA, "--verify", "--json"],
                 ["kschur", "--k", "3", "--degree", "7", "--matrix", "--invert", "--json"]]
    commands += [RANK8_AFFINE + ["--json"], RANK8_AFFINE + ["--count-only", "--json"]]
    commands += [["kschur", "--k", str(k), "--degree", "9", "--matrix", "--invert", "--json"]
                 for k in range(3, 6)]
    commands += [["rbruhat", "--zeta", PADDED_ZETA, "--chains", "--schur", "--json"]]
    # both directions of the core bijection, and one rejection each way
    commands += [["core", "--k", k, *arg, "--json"] for k, arg in (
        ("5", ["--u", "[-6,8,3,-1,4,13]"]), ("5", ["--mu", "7,5,3,2,2,2,1"]),
        ("5", ["--u", "[8,-6,-2,9,13,-1]"]), ("2", ["--mu", "3,1"]),
        ("1", ["--mu", "2"]), ("2", ["--u", "[2,1,3]"]))]
    # v is the image of the first chain; the last zeta has r = n-1
    commands += [["embed", "--zeta", zeta, "--json"]
                 for zeta in ("3 7 1 6 2 5 4", "4 6 7 1 5 2 3", "2 3 4 5 6 7 1")]
    # weak K at rank 7 and 10, and from a start that is not 0-grassmannian
    commands += [["weak", "--k", k, "--u", u, "--w", w, "--json"] for k, u, w in (
        ("3", "[-1,0,5,6]", "[-8,-1,6,13]"), ("5", "[-1,0,3,7,4,8]", "[-6,7,8,-1,9,4]"),
        ("2", "[2,1,3]", "[2,3,1]"))]
    commands += [["embed", "--zeta", "6 7 1 2 3 8 5 4", "--verify", "--json"]]  # 1,320 chains
    # D, E1 and X1 stop on the draw budget here, short of 40 checked
    commands += [["relations", "--k", "4", "--sweep", "40", "--seed", "7", "--json"]]
    # rank 14: 982 terms in each basis, so cross-term sums in f_to_m and m_to_f show
    commands += [["weak", "--k", "4", "--u", "[1,2,3,4,5]", "--w", "[11,2,3,-1,0]", "--json"]]
    # human output, printed from the same record as --json
    human = [argv for argv in readme_commands() if not (argv[0] == "relations" and "1000" in argv)]
    human += [["rbruhat", "--zeta", PADDED_ZETA, "--chains", "--schur"],
              ["kschur", "--k", "3", "--degree", "7", "--matrix", "--invert"],
              ["relations", "--k", "3", "--sweep", "25", "--seed", "1", "--rules", ALL_RULES],
              ["core", "--k", "1", "--mu", "2"], ["core", "--k", "2", "--u", "[2,1,3]"]]
    # cap errors: the chain cap, and the vertex cap with the depth it stopped at
    capped = [["rbruhat", "--zeta", "3 6 2 5 4 1", "--cap", "7", "--json"]]
    capped += [argv + ["--cap", "14", "--json"] for argv in readme_commands()
               if argv[0] == "affine" and "--count-only" in argv]
    # the 240-path job over its path cap, a w that is not 0-grassmannian, w below u
    u41, w41 = "[-6,8,3,-1,4,13]", "[8,-6,-2,9,13,-1]"
    capped += [["affine", "--k", "5", "--u", u, "--w", w, *cap, "--json"] for u, w, cap in (
        (u41, w41, ["--cap", "100"]), (u41, "[2,1,3,4,5,6]", []), (w41, u41, []))]
    return commands + human + capped


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@functools.cache
def recorded() -> dict[tuple[str, ...], tuple[int, str, str]]:
    return {tuple(case["argv"]): (case["exit"], case["stdout"], case["stderr"])
            for case in json.loads(CORPUS.read_text())}


COMMANDS = golden_commands()


def test_corpus_covers_the_golden_commands():
    assert list(recorded()) == [tuple(argv) for argv in COMMANDS]


@pytest.mark.parametrize("argv", COMMANDS,
                         ids=[f"{i:02d}-{argv[0]}" for i, argv in enumerate(COMMANDS)])
def test_output_matches_corpus(argv):
    assert run_cli(argv) == recorded()[tuple(argv)]


def record() -> None:
    corpus = []
    for argv in COMMANDS:
        code, stdout, stderr = run_cli(argv)
        corpus.append({"argv": argv, "exit": code, "stdout": stdout, "stderr": stderr})
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n")
    print(f"{len(corpus)} outputs recorded in {CORPUS}")


if __name__ == "__main__":
    record()
