import json

import pytest

from bruhat_kit import affineperm, cli, combinat, kschur


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
    _, out1, _ = run(capsys, "affine", "--k", "5", "--u", "[-6,8,3,-1,4,13]",
                     "--w", "[8,-6,-2,9,13,-1]", "--threads", "1")
    _, out4, _ = run(capsys, "affine", "--k", "5", "--u", "[-6,8,3,-1,4,13]",
                     "--w", "[8,-6,-2,9,13,-1]", "--threads", "4")
    assert out1 == out4
    code, out, _ = run(capsys, "affine", "--k", "5", "--u", "[-6,8,3,-1,4,13]",
                       "--w", "[8,-6,-2,9,13,-1]", "--count-only")
    assert code == 0 and "paths: 240" in out and "K_F" not in out


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


def test_embed_verify(capsys):
    code, out, _ = run(capsys, "embed", "--zeta", "3 6 2 5 4 1", "--verify")
    assert code == 0
    assert "k = 5" in out and "s = 3" in out
    assert "u = [-6,8,3,-1,4,13]" in out
    assert "v = [8,-6,-2,9,13,-1]" in out
    assert "all_nonzero: True" in out and "K_domination: True" in out


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


def test_exit_code_precondition(capsys):
    code, _, err = run(capsys, "affine", "--k", "2", "--u", "[1,4,3]",
                       "--w", "[1,2,3]")
    assert code == 3 and "error" in err


def test_exit_code_cap(capsys):
    code, _, err = run(capsys, "affine", "--k", "5", "--u", "[-6,8,3,-1,4,13]",
                       "--w", "[8,-6,-2,9,13,-1]", "--cap", "10")
    assert code == 4 and "cap" in err


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

    def counting(k, degree, threads=1):
        builds.append((k, degree))
        return real(k, degree)

    monkeypatch.setattr(kschur, "k_matrix", counting)
    code, out, _ = run(capsys, "kschur", "--k", "3", "--degree", "5", "--matrix", "--invert")
    assert code == 0 and out.count("S^(3)") == 5
    assert builds == [(3, 5)]
