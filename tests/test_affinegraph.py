import hashlib
import random
import re
from collections import Counter
from functools import lru_cache

import pytest

from bruhat_kit import affinegraph, affineperm, kschur, qsym
from bruhat_kit.affineperm import AffinePermutation
from bruhat_kit.errors import BadPair, CapExceeded, PatternMismatch
from bruhat_kit.interval import HasseDAG
from oracles import (dual_pieri_windows, grassmannian_windows, times_t, window_at,
                     zero_bruhat_edges)

U41 = affineperm.parse_window("[-6,8,3,-1,4,13]")
W41 = affineperm.parse_window("[8,-6,-2,9,13,-1]")


def test_is_bruhat_cover():
    assert affinegraph.is_bruhat_cover(U41, 1, 2)
    assert affinegraph.is_bruhat_cover(U41, 4, 5)
    assert not affinegraph.is_bruhat_cover(U41, 2, 3)
    with pytest.raises(BadPair):
        affinegraph.is_bruhat_cover(U41, 1, 8)  # gap k+2
    with pytest.raises(BadPair):
        affinegraph.is_bruhat_cover(U41, 2, 1)


def test_apply_t_known_values():
    assert affinegraph.apply_t(U41, 1, 2).window == (8, -6, 3, -1, 4, 13)
    assert affinegraph.apply_t(U41, -11, -10) is None
    assert affinegraph.apply_t(U41, -1, 3).window == (-6, 8, -2, -1, 9, 13)


def brute_representatives(u, a, b, span=12):
    n = u.k + 1
    out = []
    for m in range(-span, span + 1):
        am, bm = a + m * n, b + m * n
        if u(am) <= 0 < u(bm) and affinegraph.is_bruhat_cover(u, am, bm):
            out.append(bm)
    return out


def test_edge_representatives():
    reps = affinegraph.edge_representatives(U41, 1, 2)
    assert [e.label for e in reps] == [-4, 2, 8] == brute_representatives(U41, 1, 2)
    # the class is found from any representative pair
    shifted = affinegraph.edge_representatives(U41, -5, -4)
    assert [(e.a, e.b) for e in shifted] == [(e.a, e.b) for e in reps]
    # identity has no valid shift in the (1, 2) class
    ident = AffinePermutation.identity(5)
    assert affinegraph.edge_representatives(ident, 1, 2) == []
    assert brute_representatives(ident, 1, 2) == []


def test_out_edges_bottom_fan():
    fan = Counter()
    for e in affinegraph.out_edges(U41):
        fan[e.target.window] += 1
    assert fan[(8, -6, 3, -1, 4, 13)] == 3
    assert fan[(-6, 8, 3, -1, 13, 4)] == 2
    assert fan[(-6, 8, -2, -1, 9, 13)] == 1
    assert fan[(-6, 8, 3, 4, -1, 13)] == 1
    labels = {e.target.window: [] for e in affinegraph.out_edges(U41)}
    for e in affinegraph.out_edges(U41):
        labels[e.target.window].append(e.label)
    assert sorted(labels[(-6, 8, 3, -1, 13, 4)]) == [-6, 0]
    assert labels[(-6, 8, -2, -1, 9, 13)] == [3]
    assert labels[(-6, 8, 3, 4, -1, 13)] == [5]


def test_out_edges_identity():
    for k in (1, 2, 3):
        ident = AffinePermutation.identity(k)
        edges = affinegraph.out_edges(ident)
        assert edges
        for e in edges:
            assert affineperm.length_affine(e.target) == 1


def test_grassmannian_closure_exhaustive():
    for k in range(1, 5):
        layer = {AffinePermutation.identity(k)}
        seen = set(layer)
        for _ in range(6):
            layer = {v for u in layer for _, v in kschur.weak_covers(u)}
            seen |= layer
        for u in seen:
            for e in affinegraph.out_edges(u):
                assert affineperm.is_grassmannian(e.target)
                assert affineperm.length_affine(e.target) == \
                    affineperm.length_affine(u) + 1


def test_paths_example_counts():
    ps = affinegraph.paths(U41, W41)
    assert len(ps) == 240
    rank = affineperm.length_affine(W41) - affineperm.length_affine(U41)
    assert rank == 4
    for p in ps[:10] + ps[-10:]:
        assert len(p.edges) == rank and p.end() == W41
    assert affinegraph.path_count(U41, W41) == 240


def test_paths_trivial_and_parallel():
    assert len(affinegraph.paths(U41, U41)) == 1
    target = affinegraph.apply_t(U41, 1, 2)
    assert len(affinegraph.paths(U41, target)) == 3  # three parallel edges


def test_paths_cap():
    with pytest.raises(CapExceeded):
        affinegraph.paths(U41, W41, cap=10)
    # the sweep expands 15 vertices, 1 + 4 + 6 + 4 over depths 0..3 of rank 4,
    # and a vertex-cap error says how deep it got
    with pytest.raises(CapExceeded, match="vertex cap 6 exceeded at depth 2 of rank 4"):
        affinegraph.path_count(U41, W41, cap=6)
    with pytest.raises(CapExceeded, match="vertex cap 14 exceeded at depth 3 of rank 4"):
        affinegraph.path_count(U41, W41, cap=14)


def test_rank8_reference_expands_each_vertex_below_w_once(monkeypatch):
    u = AffinePermutation((3, -1, 0, 7, 8, 4))
    w = AffinePermutation((3, -6, -1, 13, 4, 8))
    expanded = []
    classes = affinegraph._classes  # the DAG's step adapter reads each vertex through it

    def counting_classes(x):
        expanded.append(x)
        return classes(x)

    monkeypatch.setattr(affinegraph, "_classes", counting_classes)
    dag = affinegraph.interval_dag(u, w)
    assert dag.count() == 23898
    assert sum(len(layer) for layer in dag.layers) == 89
    assert len(expanded) == len(set(expanded)) <= 88


def test_k_function_affine_example():
    kf = affinegraph.k_function_affine(U41, W41)
    assert kf.terms == {(1, 1, 1, 1): 9, (1, 1, 2): 30, (1, 2, 1): 51,
                        (1, 3): 30, (2, 1, 1): 30, (2, 2): 51, (3, 1): 30, (4,): 9}
    assert kf.terms == brute_k_terms(brute_paths(U41, W41, 4))
    assert qsym.schur_expand(kf).terms == {(4,): 9, (3, 1): 30, (2, 2): 21,
                                           (2, 1, 1): 30, (1, 1, 1, 1): 9}
    assert affinegraph.k_function_affine(U41, U41).terms == {(): 1}


def test_k_function_symmetric_and_rank3_balance():
    rng = random.Random(101)
    for _ in range(12):
        k = rng.choice([2, 3, 4])
        u = kschur.random_grassmannian(k, rng.randint(0, 5), rng)
        w = u
        for _ in range(3):
            edges = affinegraph.out_edges(w)
            w = rng.choice(edges).target
        kf = affinegraph.k_function_affine(u, w)
        assert qsym.is_symmetric(kf)
        assert kf.coeff((2, 1)) == kf.coeff((1, 2))


def test_dual_pieri():
    for k in (1, 2, 3):
        ident = AffinePermutation.identity(k)
        singles = affinegraph.dual_pieri(ident, 1)
        expect = sorted((e.target for e in affinegraph.out_edges(ident)),
                        key=lambda x: x.window)
        assert [x.window for x in singles] == [x.window for x in expect]
    ends = affinegraph.dual_pieri(U41, 4)
    count_w = sum(1 for x in ends if x == W41)
    assert count_w == 9  # the increasing chains give the top F coefficient
    for x in affinegraph.dual_pieri(U41, 2):
        assert affineperm.length_affine(x) == affineperm.length_affine(U41) + 2


def test_dual_pieri_matches_the_path_recursion_on_plain_windows():
    cases = 0
    for k in range(1, 5):
        for layer in grassmannian_windows(k, 4):
            for window in layer:
                u = AffinePermutation(window, k)
                for m in range(1, k + 2):
                    got = [x.window for x in affinegraph.dual_pieri(u, m)]
                    assert got == dual_pieri_windows(window, m), (window, m)
                    cases += 1
    assert cases == 141


def brute_paths(u, w, budget):
    # forward enumeration with no reachability pruning
    out = []

    def dfs(x, depth, acc):
        if depth == budget:
            if x == w:
                out.append(tuple(acc))
            return
        for e in affinegraph.out_edges(x):
            acc.append((e.a, e.b))
            dfs(e.target, depth + 1, acc)
            acc.pop()

    dfs(u, 0, [])
    return sorted(out)


def brute_k_terms(step_words):
    # F-basis terms: one F per path, indexed by the runs between label descents
    terms = Counter()
    for word in step_words:
        runs = []
        for i, (_, b) in enumerate(word):
            if i == 0 or word[i - 1][1] > b:
                runs.append(0)
            runs[-1] += 1
        terms[tuple(runs)] += 1
    return dict(terms)


def test_paths_against_bruteforce():
    rng = random.Random(31337)
    for _ in range(20):
        k = rng.choice([1, 2, 3])
        u = kschur.random_grassmannian(k, rng.randint(0, 3), rng)
        w = u
        for _ in range(rng.randint(1, 3)):
            w = rng.choice(affinegraph.out_edges(w)).target
        budget = affineperm.length_affine(w) - affineperm.length_affine(u)
        expect = brute_paths(u, w, budget)
        assert [p.steps for p in affinegraph.paths(u, w)] == expect
        assert affinegraph.path_count(u, w) == len(expect)
        assert affinegraph.k_function_affine(u, w).terms == brute_k_terms(expect)


def test_check_relation_c2_witness():
    u = AffinePermutation((0, 2, 4))
    rep = affinegraph.check_relation("C2", u, (1, 2, 3))
    assert rep.holds and rep.lhs is not None
    assert rep.lhs.window == (2, 4, 0)


def test_check_relation_f_zero():
    rng = random.Random(5)
    for _ in range(40):
        k = rng.choice([2, 3, 4])
        u = kschur.random_grassmannian(k, rng.randint(0, 6), rng)
        letters = affinegraph.sample_letters("F", k, rng)
        rep = affinegraph.check_relation("F", u, letters)
        assert rep.holds


def test_check_relation_pattern_mismatch():
    with pytest.raises(PatternMismatch):
        affinegraph.check_relation("A", U41, ((1, 2), (7, 8)))  # shared residues
    with pytest.raises(PatternMismatch):
        affinegraph.check_relation("D", U41, (1, 2, 3, 4))  # residues unmatched
    u = AffinePermutation.identity(3)
    with pytest.raises(PatternMismatch):
        # X6 requires u(a) <= 0, which fails for the identity at a=1
        affinegraph.check_relation("X6", u, (1, 2, 4, 6))
    # and the same letters pass once conditions are not enforced
    rep = affinegraph.check_relation("X6", u, (1, 2, 4, 6),
                                     require_u_conditions=False)
    assert rep.tag == "X6"


def test_sweeps_small():
    rng = random.Random(77)
    for tag in affinegraph.ALL_RULES:
        for k in (2, 3):
            res = affinegraph.sweep_relation(tag, k, 60, rng)
            assert res.ok, (tag, k, res.failures[:1])


def test_every_rule_sweeps_at_small_k():
    # a rule checks something exactly when its pattern fits at k; E1 and E2
    # need a < b < c < d with c - a <= k, so they start at k = 2
    rng = random.Random(5)
    for k in (1, 2, 3):
        for tag in affinegraph.ALL_RULES:
            res = affinegraph.sweep_relation(tag, k, 5, rng)
            assert res.ok, (tag, k)
            assert res.checked == (5 if affinegraph.rule_sampleable(tag, k) else 0), (tag, k)
    assert not affinegraph.rule_sampleable("E1", 1) and affinegraph.rule_sampleable("E1", 2)


def test_passing_sweep_builds_no_report(monkeypatch):
    def no_report(*_):
        raise AssertionError("report work in a passing sweep")

    monkeypatch.setattr(affinegraph, "check_relation", no_report)
    monkeypatch.setattr(AffinePermutation, "text", no_report)
    rng = random.Random(3)
    for k in range(2, 6):
        for tag in affinegraph.ALL_RULES:
            assert affinegraph.sweep_relation(tag, k, 25, rng).ok, (tag, k)


def test_sampled_letters_fit_their_pattern():
    # sweeps evaluate every draw without catching PatternMismatch
    rng = random.Random(11)
    for k in range(1, 7):
        for tag in affinegraph.ALL_RULES:
            if affinegraph.rule_sampleable(tag, k):
                for _ in range(2000):
                    affinegraph._relation_words(tag, k, affinegraph.sample_letters(tag, k, rng))


# SHA-256 prefixes of repr([(200 sample_letters draws, next getrandbits(32))
# for k = 2..6]), each k from random.Random(1000 * k + rule index)
SAMPLER_STREAMS = {
    "A": "9eebbafa02b02d5f",
    "B1": "0ac58ede44b7a52c",
    "B2": "1876141283198564",
    "C1": "6fea14ee2ed6a645",
    "C2": "970e0f91840c02ff",
    "D": "a8b1d7130e5783a6",
    "E1": "9ed00cc757a5d132",
    "E2": "238dae4791cf2f01",
    "F": "eab7a9db8561b030",
    "X1": "3ccf2da7aad5ef72",
    "X2": "f21a7068d6fe286d",
    "X3": "b30756af560f98f5",
    "X4": "196264825ee319aa",
    "X5": "a251b2ce7a6a90f4",
    "X6": "ea0b6eb5d8d51657",
}


def test_sampler_streams_are_pinned():
    # the golden relations records cannot see a reordered draw in a rule
    # whose sweep checks nothing, such as D at k = 4 and 5
    for i, tag in enumerate(affinegraph.ALL_RULES):
        streams = []
        for k in range(2, 7):
            rng = random.Random(1000 * k + i)
            draws = [affinegraph.sample_letters(tag, k, rng) for _ in range(200)]
            streams.append((draws, rng.getrandbits(32)))
        assert hashlib.sha256(repr(streams).encode()).hexdigest()[:16] == SAMPLER_STREAMS[tag], tag


def test_sweeps_end_on_the_pinned_generator_state():
    # a sweep draws its letters without sample_letters, so its stream is
    # pinned too, for every rule at k = 2..5 (D at k = 4 and 5 checks nothing)
    got = []
    for i, tag in enumerate(affinegraph.ALL_RULES):
        for k in range(2, 6):
            rng = random.Random(100 * k + i)
            res = affinegraph.sweep_relation(tag, k, 2, rng)
            got.append((tag, k, res.checked, res.nonzero, len(res.failures), rng.getrandbits(32)))
    assert hashlib.sha256(repr(got).encode()).hexdigest()[:16] == "9a40ef2fd24e38ed"


def test_sweep_reports_a_failing_draw(monkeypatch):
    # with every word acting as the identity, B1's zero claim fails at each draw
    monkeypatch.setattr(affinegraph, "apply_word", lambda u, word: u)
    res = affinegraph.sweep_relation("B1", 3, 4, random.Random(2))
    assert not res.ok
    rep = res.failures[0]
    assert isinstance(rep, affinegraph.VerificationReport)
    assert rep.tag == "B1" and not rep.holds and rep.lhs == rep.u


def test_x_counterexamples_exist():
    rng = random.Random(13)
    for tag in affinegraph.X_RULES:
        witness = affinegraph.find_x_counterexample(tag, 4, rng)
        assert witness is not None, tag
        assert not witness.holds


@lru_cache(maxsize=None)
def grassmannian_box():
    # (length, u) for every 0-grassmannian of length <= 6, by k = 1..4
    return {k: [(d, u) for d in range(7) for u in kschur.grassmannians_of_length(k, d)]
            for k in range(1, 5)}


def test_out_edges_match_the_definition_on_a_box():
    for box in grassmannian_box().values():
        for _, u in box:
            got = sorted((e.a, e.b, e.target.window) for e in affinegraph.out_edges(u))
            assert got == sorted(zero_bruhat_edges(u.window)), u


def test_apply_t_matches_the_window_oracle_on_a_box():
    # every pair in a word of sampled letters starts in [-4(k+1), 4(k+1)]:
    # the samplers draw a in [-(k+1), k+1] and stay within 3(k+1) of it
    steps = covers = 0
    for k, box in grassmannian_box().items():
        n = k + 1
        for _, u in box:
            w = u.window
            for a in range(-4 * n, 4 * n + 1):
                for b in range(a + 1, a + n):
                    lo, hi = window_at(w, a), window_at(w, b)
                    cover = lo <= 0 < hi and not any(lo < window_at(w, i) < hi
                                                     for i in range(a + 1, b))
                    got = affinegraph.apply_t(u, a, b)
                    expect = times_t(w, a, b) if cover else None
                    assert (got.window if got else None) == expect, (w, a, b)
                    steps += 1
                    covers += cover
                for b in (a, a + n):
                    with pytest.raises(BadPair):
                        affinegraph.apply_t(u, a, b)
    assert (steps, covers) == (7624, 276)


def test_a_rejected_step_builds_nothing(monkeypatch):
    def build(*_):
        raise AssertionError("a rejected step built a permutation")

    # U41 = [-6,8,3,-1,4,13]: the sign test fails at u(2) = 8 > 0 and at
    # u(-10) = -4 <= 0 (a Bruhat cover), the cover test at u(4) < u(5) < u(6)
    cases = [(2, 3), (-11, -10), (4, 6)]
    assert [affinegraph.is_bruhat_cover(U41, a, b) for a, b in cases] == [False, True, False]
    monkeypatch.setattr(AffinePermutation, "right_transpose", build)
    monkeypatch.setattr(AffinePermutation, "__init__", build)
    assert [affinegraph.apply_t(U41, a, b) for a, b in cases] == [None, None, None]


def test_interval_dag_exhaustive_against_bruteforce():
    pairs = related = empty = equal = 0
    for box in grassmannian_box().values():
        for du, u in box:
            for dw, w in box:
                if du > dw:
                    continue
                expect = brute_paths(u, w, dw - du)
                dag = affinegraph.interval_dag(u, w)
                assert [tuple((e.a, e.b) for e in walk) for walk in dag.walks()] == expect
                assert dag.count() == len(expect)
                assert dag.k_function().terms == brute_k_terms(expect)
                # vertices are windows; the validating constructor checks each one
                assert all(affineperm.is_grassmannian(AffinePermutation(x, u.k))
                           for layer in dag.layers for x in layer)
                pairs += 1
                related += bool(expect)
                empty += not expect
                equal += u == w
    assert (pairs, related, empty, equal) == (938, 547, 391, 73)


def test_dag_steps_are_the_out_edges_below_w_on_a_box(monkeypatch):
    # every step list the adapter hands HasseDAG, before pruning, against out_edges
    recorded = []

    class RecordingDAG(HasseDAG):
        def __init__(self, start, end, rank, out_steps):
            def recording(x, depth):
                steps = out_steps(x, depth)
                recorded.append((x, steps))
                return steps
            super().__init__(start, end, rank, out_steps and recording)

    monkeypatch.setattr(affinegraph, "HasseDAG", RecordingDAG)
    vertices = dropped = 0
    for box in grassmannian_box().values():
        for du, u in box:
            for dw, w in box:
                if du > dw:
                    continue
                top = affineperm.to_core(w).partition
                recorded.clear()
                affinegraph.interval_dag(u, w)
                for x, steps in recorded:
                    edges = sorted(affinegraph.out_edges(AffinePermutation(x, u.k)))
                    expect = [e for e in edges
                              if affinegraph._fits(affineperm.to_core(e.target).partition, top)]
                    assert [e for e, _, _ in steps] == expect, (x, w)
                    assert all(e.b == label and e.target.window == y for e, label, y in steps)
                    vertices += 1
                    dropped += len(edges) - len(expect)
    assert (vertices, dropped) == (1944, 2855)


@pytest.mark.parametrize("tag, letters", [
    ("B1", ((1, 2), (3, 4))),   # neither a<c<b<d nor b=c
    ("B2", ((1, 2), (3, 4))),   # no matching residues
    ("C1", (1, 2, 3)),          # d-a is not k+1
    ("C2", (1, 2, 6)),          # d-a is not below k+1
    ("E1", (1, 3, 2, 4)),       # not increasing
    ("E2", (1, 3, 2, 4)),
    ("F", (1, 2, 6)),           # c-a is not below k+1
    ("X1", (1, 2, 3, 4)),       # d is not a mod k+1
    ("X2", (1, 2, 3, 4)),
    ("X3", (1, 2, 3, 4)),       # c is not b mod k+1
    ("X4", (1, 2, 3, 4)),
    ("X5", (1, 2, 3, 4)),       # d is not b mod k+1
    ("X6", (1, 2, 3, 4)),
])
def test_relation_words_reject_letters_off_the_pattern(tag, letters):
    pattern = rf"^{tag}: need .* " + re.escape(f"(letters {letters})") + "$"
    with pytest.raises(PatternMismatch, match=pattern):
        affinegraph._relation_words(tag, 3, letters)


@pytest.mark.parametrize("tag, letters, shape", [
    ("A", (1, 2, 3), "((a, b), (c, d))"),
    ("B2", (1, 2), "((a, b), (c, d))"),        # the letters are not pairs
    ("C1", ((1, 2), (3, 4)), "(a, b, d)"),
    ("F", (1, 2, 3, 4), "(a, b, c)"),
    ("D", ((1, 2), (3, 4)), "(a, b, c, d)"),
    ("X1", (1, 2, 3), "(a, b, c, d)"),
])
def test_check_relation_names_the_shape_of_malformed_letters(tag, letters, shape):
    expect = f"{tag}: need letters {shape} (letters {letters})"
    with pytest.raises(PatternMismatch, match="^" + re.escape(expect) + "$"):
        affinegraph.check_relation(tag, U41, letters)


def test_relation_words_reject_an_unknown_tag():
    with pytest.raises(PatternMismatch, match="unknown relation tag 'Z'"):
        affinegraph._relation_words("Z", 3, (1, 2, 3, 4))
