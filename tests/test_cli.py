import dataclasses
import json
import pathlib
import shlex

import pytest

from bruhat_kit import affinegraph, affineperm, cli, combinat, embedding, kschur


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_rbruhat_human(capsys):
    code, out, _ = run(capsys, "rbruhat", "--zeta", "3 6 2 5 4 1", "--schur")
    assert code == 0
    assert "chains: 8" in out
    assert "S[3,1] + S[2,2] + S[2,1,1]" in out


def test_rbruhat_chain_listing(capsys):
    code, out, _ = run(capsys, "rbruhat", "--zeta", "3 6 2 5 4 1", "--chains")
    assert code == 0
    assert "t(2,6) t(4,5) t(1,2) t(2,3)" in out
    assert "u23 u12 u45 u26" in out


def test_affine_human(capsys):
    code, out, _ = run(capsys, "affine", "--k", "5",
                       "--u", "[-6,8,3,-1,4,13]", "--w", "[8,-6,-2,9,13,-1]")
    assert code == 0
    assert "paths: 240" in out
    assert "9S[4] + 30S[3,1] + 21S[2,2] + 30S[2,1,1] + 9S[1,1,1,1]" in out


def test_affine_count_only_and_threads(capsys):
    code, out, _ = run(capsys, "affine", "--k", "5", "--u", "[-6,8,3,-1,4,13]",
                       "--w", "[8,-6,-2,9,13,-1]", "--count-only")
    assert code == 0 and "paths: 240" in out and "K_F" not in out
    # there is no worker pool, so there is no --threads either
    with pytest.raises(SystemExit) as exc:
        cli.main(["affine", "--k", "5", "--u", "[-6,8,3,-1,4,13]",
                  "--w", "[8,-6,-2,9,13,-1]", "--threads", "2"])
    assert exc.value.code == 2


def test_weak_human(capsys):
    code, out, _ = run(capsys, "weak", "--k", "2", "--u", "[0,2,4]",
                       "--w", "[-3,4,5]")
    assert code == 0
    assert "K_M = M[2,1] + M[1,2] + M[1,1,1]" in out
    assert "K_F = F[2,1] + F[1,2] - F[1,1,1]" in out
    assert "K_S = S[2,1] - S[1,1,1]" in out


def test_core_both_directions(capsys):
    code, out, _ = run(capsys, "core", "--k", "4", "--u", "[2,3,6,0,4]")
    assert code == 0 and "5-core: (4,1,1)" in out
    code, out, _ = run(capsys, "core", "--k", "4", "--mu", "4,1,1")
    assert code == 0 and "window: [2,3,6,0,4]" in out


def test_empty_core_prints_one_pair_of_parentheses(capsys):
    code, out, _ = run(capsys, "core", "--k", "1", "--u", "[1,2]")
    assert code == 0 and out == "2-core: ()\n"


def test_embed_verify(capsys):
    code, out, _ = run(capsys, "embed", "--zeta", "3 6 2 5 4 1", "--verify")
    assert code == 0
    assert "k = 5" in out and "s = 3" in out
    assert "u = [-6,8,3,-1,4,13]" in out
    assert "v = [8,-6,-2,9,13,-1]" in out
    assert "all_nonzero: True" in out and "K_domination: True" in out


def test_rbruhat_lists_the_single_chain_of_a_1200_cycle(capsys):
    zeta = " ".join(map(str, [*range(2, 1201), 1]))  # one chain of rank 1,199
    code, out, _ = run(capsys, "rbruhat", "--zeta", zeta, "--chains", "--json")
    assert code == 0
    assert json.loads(out)["chain_count"] == 1


def test_json_round_trip(capsys):
    code, out, _ = run(capsys, "affine", "--k", "5", "--u", "[-6,8,3,-1,4,13]",
                       "--w", "[8,-6,-2,9,13,-1]", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "bruhat-kit/1"
    assert payload["path_count"] == 240
    assert json.dumps(payload, sort_keys=True) == out.strip()
    top = payload["K_F"]["terms"][0]
    assert top == {"index": [4], "coeff": 9}


def test_relations_seeded_reproducible(capsys):
    args = ["relations", "--k", "3", "--sweep", "20", "--seed", "11"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2 and "ok: True" in out1


def test_exit_code_parse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["affine", "--k", "not-an-int", "--u", "[1,2]", "--w", "[1,2]"])
    assert exc.value.code == 2


MINIMAL_JOBS = {
    "rbruhat": ["rbruhat", "--zeta", "3 6 2 5 4 1"],
    "affine": ["affine", "--k", "5", "--u", "[-6,8,3,-1,4,13]", "--w", "[8,-6,-2,9,13,-1]"],
    "weak": ["weak", "--k", "2", "--u", "[0,2,4]", "--w", "[-3,4,5]"],
    "kschur": ["kschur", "--k", "2", "--degree", "3"],
    "core": ["core", "--k", "4", "--mu", "4,1,1"],
    "embed": ["embed", "--zeta", "3 6 2 5 4 1"],
    "relations": ["relations", "--k", "2", "--sweep", "1", "--rules", "C1"],
}
CAP_VERBS = ("rbruhat", "affine", "embed")


@pytest.mark.parametrize("verb", sorted(MINIMAL_JOBS))
def test_flag_contract(capsys, verb):
    # --json on every verb, --cap where something is enumerated, --seed on
    # the one randomized verb, and nothing else
    parser = cli.build_parser()
    assert parser.parse_args(MINIMAL_JOBS[verb] + ["--json"]).json
    wanted = {"--cap": verb in CAP_VERBS, "--seed": verb == "relations", "--threads": False}
    for flag, accepted in wanted.items():
        argv = MINIMAL_JOBS[verb] + [flag, "5"]
        if accepted:
            assert getattr(parser.parse_args(argv), flag[2:]) == 5
        else:
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2, argv
            assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err


def readme_commands():
    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("bruhat-kit ")]


def test_readme_commands_parse_and_run(capsys):
    commands = readme_commands()
    assert len(commands) >= 9
    for argv in commands:
        cli.build_parser().parse_args(argv)
        if argv[0] == "relations" and "1000" in argv:
            continue  # parses; the full sweep is too slow for a unit test
        assert run(capsys, *argv)[0] == 0, argv


@pytest.mark.parametrize("argv", [
    ["relations", "--k", "0"],
    ["relations", "--k", "-1", "--sweep", "5"],
    ["relations", "--k", "2", "--sweep", "0"],
    ["relations", "--k", "2", "--sweep", "-3"],
    ["relations", "--k", "2", "--rules", ","],
    MINIMAL_JOBS["rbruhat"] + ["--cap", "-1"],
    MINIMAL_JOBS["affine"] + ["--cap", "-1"],
    MINIMAL_JOBS["affine"] + ["--count-only", "--cap", "-1"],
    MINIMAL_JOBS["embed"] + ["--verify", "--cap", "-1"],
])
def test_empty_sweeps_and_negative_caps_exit_3(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == "" and err.startswith("error: ")


def test_relations_at_k1_skip_the_rules_that_need_k2(capsys):
    # E1/E2 need a < b < c < d with c - a <= k, so at k = 1 they check
    # nothing, as A does; C1 and D still run
    code, out, err = run(capsys, "relations", "--k", "1", "--sweep", "5",
                         "--rules", "A,E1,E2,C1,D")
    assert code == 0 and err == ""
    assert "A: checked 0" in out and "E1: checked 0" in out and "E2: checked 0" in out
    assert "C1: checked 5" in out and "D: checked 5" in out


def test_relations_rule_below_its_minimum_k_checks_nothing_and_passes(capsys):
    # A needs four distinct residues, so k >= 3; the run still exits 0
    code, out, err = run(capsys, "relations", "--k", "2", "--rules", "A")
    assert (code, err) == (0, "")
    assert out == "A: checked 0, nonzero 0, failures 0\nok: True\n"


@pytest.mark.parametrize("argv", [
    ["kschur", "--k", "0", "--degree", "2"],
    ["core", "--k", "0", "--u", "[1]"],
])
def test_k_below_1_exits_3_naming_k(capsys, argv):
    # the window (1,) does have length k+1, so k itself must be what is blamed
    assert run(capsys, *argv) == (3, "", "error: k must be at least 1, got 0\n")


def test_negative_kschur_degree_exits_3_naming_the_degree(capsys):
    assert run(capsys, "kschur", "--k", "3", "--degree", "-1") == \
        (3, "", "error: degree must be nonnegative, got -1\n")


def test_exit_code_precondition(capsys):
    code, _, err = run(capsys, "affine", "--k", "2", "--u", "[1,4,3]",
                       "--w", "[1,2,3]")
    assert code == 3 and "error" in err


def test_exit_code_cap(capsys):
    code, _, err = run(capsys, "affine", "--k", "5", "--u", "[-6,8,3,-1,4,13]",
                       "--w", "[8,-6,-2,9,13,-1]", "--cap", "10")
    assert code == 4 and "cap" in err


def test_failed_embedding_verification_exits_5(capsys, monkeypatch):
    verify = embedding.verify_embedding
    monkeypatch.setattr(embedding, "verify_embedding", lambda data, cap: dataclasses.replace(
        verify(data, cap=cap), dominated=False, failures=["forced"]))
    code, out, err = run(capsys, "embed", "--zeta", "3 6 2 5 4 1", "--verify")
    assert code == 5 and "K_domination: False" in out
    assert err == "error: embedding verification failed: ['forced']\n"


def test_failed_relation_sweep_exits_5(capsys, monkeypatch):
    sweep = affinegraph.sweep_relation

    def failing_c1(tag, k, trials, rng):
        result = sweep(tag, k, trials, rng)
        if tag == "C1":
            result.failures.append("forced")
        return result

    monkeypatch.setattr(affinegraph, "sweep_relation", failing_c1)
    code, out, err = run(capsys, "relations", "--k", "2", "--sweep", "5", "--rules", "B2,C1")
    assert code == 5 and out.endswith("C1: checked 5, nonzero 5, failures 1\nok: False\n")
    assert err == "error: relations failed: C1\n"


def test_kschur_verb(capsys):
    code, out, _ = run(capsys, "kschur", "--k", "2", "--degree", "3", "--invert")
    assert code == 0
    assert "S^(2)[2,4,0] = h[2,1]" in out
    assert "S^(2)[4,0,2] = -h[2,1] + h[1,1,1]" in out


@pytest.mark.parametrize("argv, passing_cap", [
    (["rbruhat", "--zeta", "3 6 2 5 4 1"], 8),
    (["affine", "--k", "5", "--u", "[-6,8,3,-1,4,13]", "--w", "[8,-6,-2,9,13,-1]"], 240),
    (["affine", "--k", "5", "--u", "[-6,8,3,-1,4,13]", "--w", "[8,-6,-2,9,13,-1]",
      "--count-only"], 15),
])
def test_cap_contract(capsys, argv, passing_cap):
    # rbruhat: 8 chains.  affine: the forward sweep expands 15 vertices, so
    # --count-only binds there, while the full job's 240 paths bind first.
    code, _, err = run(capsys, *argv, "--cap", str(passing_cap - 1))
    assert code == 4 and "cap" in err
    code, _, _ = run(capsys, *argv, "--cap", str(passing_cap))
    assert code == 0


@pytest.mark.parametrize("cap, code, err", [
    (7, 4, "error: chain cap 7 exceeded\n"),
    (8, 4, "error: interval vertex cap 8 exceeded at depth 2 of rank 4\n"),
    (15, 0, ""),
])
def test_embed_verify_caps_the_finite_chains_before_the_affine_sweep(capsys, cap, code, err):
    # 8 finite chains; the affine sweep of the embedded interval expands 15 vertices
    got = run(capsys, "embed", "--zeta", "3 6 2 5 4 1", "--verify", "--cap", str(cap))
    assert (got[0], got[2]) == (code, err)


def test_affine_job_validates_only_the_two_parsed_windows(capsys, monkeypatch):
    validated = []
    init = affineperm.AffinePermutation.__init__

    def counting_init(self, *args, **kwargs):
        validated.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(affineperm.AffinePermutation, "__init__", counting_init)
    code, out, _ = run(capsys, "affine", "--k", "5", "--u", "[-6,8,3,-1,4,13]",
                       "--w", "[8,-6,-2,9,13,-1]")
    assert code == 0 and "paths: 240" in out
    assert len(validated) == 2


def test_successive_calls_share_one_parser_and_print_as_fresh_ones(capsys):
    jobs = [["weak", "--k", "2", "--u", "[0,2,4]", "--w", "[-3,4,5]"],
            ["rbruhat", "--zeta", "3 6 2 5 4 1", "--schur", "--json"],
            ["kschur", "--k", "2", "--degree", "3", "--invert"],
            ["core", "--k", "3", "--mu", "4,1,1"],
            ["weak", "--k", "2", "--u", "[0,2,4]", "--w", "[-3,4,5]", "--json"]]
    in_a_row = [run(capsys, *argv) for argv in jobs]
    assert cli.build_parser() is cli.build_parser()
    for argv, result in zip(jobs, in_a_row):
        cli.build_parser.cache_clear()
        assert run(capsys, *argv) == result


@pytest.mark.parametrize("argv", [
    ["weak", "--k", "2", "--u", "[0,2,4]", "--w", "[-3,4,5]"],
    ["rbruhat", "--zeta", "3 6 2 5 4 1", "--schur"],
])
def test_schur_expansions_list_no_rearrangements(capsys, monkeypatch, argv):
    def refuse(lam):
        raise AssertionError(f"listed the rearrangements of {lam}")

    monkeypatch.setattr(combinat, "distinct_rearrangements", refuse)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "K_S = " in out


def test_kschur_invert_builds_the_matrix_once(capsys, monkeypatch):
    builds = []
    real = kschur.k_matrix

    def counting(k, degree):
        builds.append((k, degree))
        return real(k, degree)

    monkeypatch.setattr(kschur, "k_matrix", counting)
    code, out, _ = run(capsys, "kschur", "--k", "3", "--degree", "5", "--matrix", "--invert")
    assert code == 0 and out.count("S^(3)") == 5
    assert builds == [(3, 5)]
