import itertools
import random
from collections import Counter

import pytest

from bruhat_kit import affineperm, combinat, kschur, qsym
from bruhat_kit.affineperm import AffinePermutation, length_affine
from bruhat_kit.errors import MOutOfRange, NotGrassmannian, NotUnitriangular
from oracles import compositions, grassmannian_windows, schur_in_h, weak_step


def test_weak_covers_examples():
    ident = AffinePermutation.identity(2)
    assert [(i, v.window) for i, v in kschur.weak_covers(ident)] == [(0, (0, 2, 4))]

    u = AffinePermutation((0, 2, 4))
    covers = dict(kschur.weak_covers(u))
    assert covers[1].window == (2, 0, 4)

    u = AffinePermutation((2, 4, 0))
    covers = dict(kschur.weak_covers(u))
    assert covers[0].window == (-3, 4, 5)


def test_weak_cover_restriction_to_grassmannians():
    # id*s_1 raises length but leaves the grassmannian set, so it is not a cover
    ident = AffinePermutation.identity(2)
    assert all(i == 0 for i, _ in kschur.weak_covers(ident))
    with pytest.raises(NotGrassmannian):
        kschur.weak_covers(AffinePermutation((2, 1, 3)))


def test_is_cyclically_increasing():
    assert kschur.is_cyclically_increasing((1, 2), 2)
    assert kschur.is_cyclically_increasing((2, 0), 2)
    assert not kschur.is_cyclically_increasing((0, 1, 2), 2)  # m must be <= k
    assert not kschur.is_cyclically_increasing((0, 2), 2)
    assert not kschur.is_cyclically_increasing((1, 1), 3)
    assert not kschur.is_cyclically_increasing((), 3)
    assert kschur.is_cyclically_increasing((3,), 3)


def test_cyclic_order_realizes_the_predicate():
    for k in (2, 3, 4):
        import itertools
        for m in range(1, k + 1):
            for hours in itertools.combinations(range(k + 1), m):
                seq = kschur.cyclic_order(hours, k)
                assert kschur.is_cyclically_increasing(seq, k)
                # and it is the only ordering that works
                others = [p for p in itertools.permutations(hours)
                          if kschur.is_cyclically_increasing(p, k)]
                assert others == [seq]


def clockwise_from_smallest_missing_hour(labels, k):
    """Distinct hours in 0..k, at most k of them, that increase strictly once
    each is relabeled by its clockwise distance from the smallest absent hour."""
    labels = tuple(labels)
    if not 1 <= len(labels) <= k or len(set(labels)) != len(labels):
        return False
    if any(not 0 <= x <= k for x in labels):
        return False
    j0 = min(set(range(k + 1)) - set(labels))
    mapped = [(x - j0) % (k + 1) for x in labels]
    return all(mapped[i] < mapped[i + 1] for i in range(len(mapped) - 1))


def test_is_cyclically_increasing_matches_the_clockwise_definition_exhaustively():
    tuples = 0
    for k in range(1, 5):
        for m in range(k + 2):
            for labels in itertools.product(range(-1, k + 2), repeat=m):
                tuples += 1
                assert kschur.is_cyclically_increasing(labels, k) == \
                    clockwise_from_smallest_missing_hour(labels, k), (labels, k)
    assert tuples == 21340


def test_pieri_kschur_single_h():
    # h_m is the k-Schur function of one grassmannian: the Pieri set from
    # the identity is a single point with the stated window
    for k in (2, 3, 4):
        for m in range(1, k + 1):
            ends = kschur.pieri_kschur(AffinePermutation.identity(k), m)
            expect = list(range(2, m + 1)) + [0] + list(range(m + 1, k + 1)) + [k + 2]
            assert [x.window for x in ends] == [tuple(expect)]


def test_pieri_out_of_range():
    with pytest.raises(MOutOfRange):
        kschur.pieri_kschur(AffinePermutation.identity(2), 3)


def test_pieri_endpoints_lengths():
    rng = random.Random(4)
    for _ in range(15):
        k = rng.choice([2, 3, 4])
        u = kschur.random_grassmannian(k, rng.randint(0, 6), rng)
        m = rng.randint(1, k)
        for v in kschur.pieri_kschur(u, m):
            assert affineperm.is_grassmannian(v)
            assert affineperm.length_affine(v) == affineperm.length_affine(u) + m


def test_k_matrix_degree_one():
    km = kschur.k_matrix(2, 1)
    assert km.rows == [(1,)]
    assert km.columns[0].window == (0, 2, 4)
    assert km.entry((1,), km.columns[0]) == 1


def test_k_matrix_unitriangular():
    for k in (2, 3, 4):
        for degree in range(1, 6):
            assert kschur.k_matrix(k, degree).is_unitriangular()


def test_k_matrix_classical_limit():
    for degree in range(1, 6):
        for k in (degree, 5):
            km = kschur.k_matrix(k, degree)
            for lam in km.rows:
                for mu, u_mu in zip(km.rows, km.columns):
                    assert km.entry(lam, u_mu) == combinat.kostka(mu, lam)


def test_kschur_in_h():
    ident = AffinePermutation.identity(3)
    _, v = kschur.weak_covers(ident)[0]
    assert kschur.kschur_in_h(v).terms == {(1,): 1}

    km = kschur.k_matrix(2, 2)
    u2 = km.columns[km.rows.index((2,))]
    assert kschur.kschur_in_h(u2).terms == {(2,): 1}

    # classical limit: s_21 = h_21 - h_3
    km = kschur.k_matrix(5, 3)
    u21 = km.columns[km.rows.index((2, 1))]
    assert kschur.kschur_in_h(u21).terms == {(2, 1): 1, (3,): -1}


def test_kschur_in_h_reproduces_h_products():
    # substituting the h expansions back into the Pieri matrix is the identity
    for k, degree in [(2, 3), (2, 4), (3, 4)]:
        km = kschur.k_matrix(k, degree)
        for lam, u in zip(km.rows, km.columns):
            recomposed: dict = {}
            for mu, c in kschur.kschur_in_h(u).terms.items():
                for nu, u_nu in zip(km.rows, km.columns):
                    recomposed[nu] = recomposed.get(nu, 0) + c * km.entry(mu, u_nu)
            assert {nu for nu, c in recomposed.items() if c} == {lam}
            assert recomposed[lam] == 1


def test_k_function_weak_example():
    u = AffinePermutation((0, 2, 4))
    w = AffinePermutation((-3, 4, 5))
    km = kschur.k_function_weak(u, w)
    assert km.terms == {(1, 1, 1): 1, (2, 1): 1, (1, 2): 1}
    assert qsym.m_to_f(km).terms == {(1, 2): 1, (2, 1): 1, (1, 1, 1): -1}
    assert qsym.schur_expand(km).terms == {(2, 1): 1, (1, 1, 1): -1}
    assert kschur.k_function_weak(u, u).terms == {(): 1}


def test_k_function_weak_symmetric_on_samples():
    rng = random.Random(8)
    for _ in range(10):
        k = rng.choice([2, 3])
        u = kschur.random_grassmannian(k, rng.randint(0, 4), rng)
        w = u
        for _ in range(rng.randint(1, 3)):
            covers = kschur.weak_covers(w)
            w = rng.choice(covers)[1]
        assert qsym.is_symmetric(kschur.k_function_weak(u, w))


def weak_k_by_compositions(u, w):
    """The weak K function replayed from u once per composition, with no pruning."""
    n = length_affine(w) - length_affine(u)
    if n <= 0:  # the empty chain lies in the weak order only at a 0-grassmannian
        return {(): 1} if u == w and affineperm.is_grassmannian(u) else {}
    terms = {}
    for alpha in compositions(n):
        if max(alpha) > u.k:
            continue
        state = {u: 1}
        for part in alpha:
            nxt = {}
            for x, c in state.items():
                for hours in itertools.combinations(range(u.k + 1), part):
                    y = x
                    for i in kschur.cyclic_order(hours, u.k):
                        if y is None or not y(i) < y(i + 1):
                            y = None
                            break
                        y = y.right_multiply_s(i)
                        y = y if affineperm.is_grassmannian(y) else None
                    if y is not None:
                        nxt[y] = nxt.get(y, 0) + c
            state = nxt
        if state.get(w):
            terms[alpha] = state[w]
    return terms


def weak_order_points(k, top):
    """Every affine permutation of length <= top, grassmannian or not."""
    layer = {AffinePermutation.identity(k)}
    found = set(layer)
    for _ in range(top):
        layer = {x.right_multiply_s(i) for x in layer for i in range(k + 1) if x(i) < x(i + 1)}
        found |= layer
    return sorted(found, key=lambda x: x.window)


def test_k_function_weak_matches_the_per_composition_loop():
    # grassmannians of length <= 5 and every point of length <= 3 at k = 2..4
    pairs = nonzero = 0
    for k in (2, 3, 4):
        grass = [u for d in range(6) for u in kschur.grassmannians_of_length(k, d)]
        points = set(weak_order_points(k, 3)) | set(grass)
        for u in points:
            for w in points:
                if length_affine(u) <= length_affine(w):
                    expected = weak_k_by_compositions(u, w)
                    assert kschur.k_function_weak(u, w).terms == expected, (u, w)
                    pairs += 1
                    nonzero += u != w and bool(expected)
    assert (pairs, nonzero) == (4645, 188)


def test_k_function_weak_looks_up_each_run_once(monkeypatch):
    # (x, 1) twice: once to build the DAG and once in the DP
    u = AffinePermutation.identity(3)
    tops = kschur.grassmannians_of_length(3, 8)
    expected = [weak_k_by_compositions(u, w) for w in tops]
    calls = Counter()
    original = kschur._segment_counts

    def counting(x, m):
        calls[x, m] += 1
        return original(x, m)

    monkeypatch.setattr(kschur, "_segment_counts", counting)
    for w, want in zip(tops, expected):
        calls.clear()
        assert kschur.k_function_weak(u, w).terms == want, w
        assert all(c <= (2 if m == 1 else 1) for (_, m), c in calls.items()), w
    assert len(tops) == 10 and all(expected)


def test_k_function_weak_walks_a_rank_1200_chain_without_recursion():
    w = kschur.grassmannians_of_length(1, 1200)[0]
    assert kschur.k_function_weak(AffinePermutation.identity(1), w).terms == {(1,) * 1200: 1}


def test_weak_k_from_a_non_grassmannian_start_is_empty():
    # weak_covers raises NotGrassmannian on u; the weak K steps without it
    u = AffinePermutation((2, 1, 3))
    assert not affineperm.is_grassmannian(u)
    for w in (AffinePermutation((2, 3, 1)), u):
        assert kschur.k_function_weak(u, w).terms == {}


def test_invert_k_matrix_matches_kschur_in_h():
    for k in (2, 3, 4):
        for degree in range(6):
            km = kschur.k_matrix(k, degree)
            assert km.rows == combinat.partitions_of(degree, max_part=k)
            inverse = kschur.invert_k_matrix(km)
            assert list(inverse) == km.rows
            for lam, u in zip(km.rows, km.columns):
                assert inverse[lam] == kschur.kschur_in_h(u)
    assert kschur.kschur_in_h(AffinePermutation.identity(3)).terms == {(): 1}
    # for k >= degree the k-Schur function is the Schur function: Jacobi-Trudi
    rows = 0
    for degree in range(8):
        for k in (degree, degree + 1):
            if k >= 1:
                inverse = kschur.invert_k_matrix(kschur.k_matrix(k, degree))
                for lam in combinat.partitions_of(degree):
                    assert inverse[lam].terms == schur_in_h(lam), (k, lam)
                    rows += 1
    assert rows == 89


def test_grassmannians_of_length_matches_kbounded_count():
    for k in (2, 3, 4):
        for d in range(0, 6):
            us = kschur.grassmannians_of_length(k, d)
            assert len(us) == len(combinat.partitions_of(d, max_part=k))
            assert len({kschur.kbounded_of(u) for u in us}) == len(us)


def test_kschur_in_h_rejects_a_broken_matrix(monkeypatch):
    real = kschur.k_matrix

    def broken(k, degree):
        km = real(k, degree)
        return kschur.KMatrix(k, degree, km.rows, km.columns, {})

    monkeypatch.setattr(kschur, "k_matrix", broken)
    with pytest.raises(NotUnitriangular):
        kschur.kschur_in_h(AffinePermutation((2, 4, 0)))


def pieri_by_hours(window, m):
    """Sorted endpoints of the weak chains that read m hours in cyclic order."""
    k = len(window) - 1
    ends = []
    for hours in itertools.combinations(range(k + 1), m):
        cut = min(set(range(k + 1)) - set(hours))
        x = window
        for i in [h for h in hours if h > cut] + [h for h in hours if h < cut]:
            x = weak_step(x, i)
            if x is None:
                break
        if x is not None:
            ends.append(x)
    return sorted(ends)


def test_pieri_kschur_matches_an_enumeration_by_hours():
    for k in (2, 3, 4):
        for d, layer in enumerate(grassmannian_windows(k, 5)):
            assert len(layer) == len(combinat.partitions_of(d, max_part=k))
            for window in layer:
                u = AffinePermutation(window)
                for m in range(1, k + 1):
                    got = [v.window for v in kschur.pieri_kschur(u, m)]
                    assert got == pieri_by_hours(window, m), (window, m)


def test_k_matrix_entries_match_an_h_action_by_hours():
    for k in (2, 3, 4):
        layers = grassmannian_windows(k, 6)
        for d in range(7):
            km = kschur.k_matrix(k, d)
            assert sorted(km.rows) == sorted(combinat.partitions_of(d, max_part=k))
            assert {u.window for u in km.columns} == layers[d]
            for lam in km.rows:
                state = {tuple(range(1, k + 2)): 1}
                for part in lam:
                    nxt = {}
                    for x, c in state.items():
                        for y in pieri_by_hours(x, part):
                            nxt[y] = nxt.get(y, 0) + c
                    state = nxt
                got = {u.window: km.entry(lam, u) for u in km.columns if km.entry(lam, u)}
                assert got == state, (k, d, lam)


def weak_cover_list(window):
    """The weak covers (i, u*s_i) of a grassmannian window, by ascending i."""
    return [(i, y) for i in range(len(window)) if (y := weak_step(window, i)) is not None]


def test_weak_walks_replay_the_cover_list_in_ascending_i():
    # the reference walk: each step is rng.choice over the covers by ascending i
    def replay(k, length, rng):
        window = tuple(range(1, k + 2))
        for _ in range(length):
            window = rng.choice(weak_cover_list(window))[1]
        return window

    for k in range(1, 6):
        for length in range(10):
            for seed in range(50):
                ours, theirs = random.Random(seed), random.Random(seed)
                u = kschur.random_grassmannian(k, length, ours)
                assert u.window == replay(k, length, theirs), (k, length, seed)
                assert ours.getstate() == theirs.getstate()
        for d, layer in enumerate(grassmannian_windows(k, 6)):
            us = kschur.grassmannians_of_length(k, d)
            assert [u.window for u in us] == sorted(layer)
            for u in us:
                assert [(i, v.window) for i, v in kschur.weak_covers(u)] == weak_cover_list(u.window)


def test_invert_k_matrix_is_a_left_inverse_of_the_matrix():
    # s_u = sum_lam c_lam h_lam and h_lam = sum_v M[lam, v] s_v, so for the row
    # mu of column u, sum_lam c_lam M[lam, v] is 1 at v = u and 0 elsewhere
    for k, top in ((2, 9), (3, 9), (4, 8), (5, 8)):
        for degree in range(top + 1):
            km = kschur.k_matrix(k, degree)
            inverse = kschur.invert_k_matrix(km)
            for mu, u in zip(km.rows, km.columns):
                assert [sum(c * km.entry(lam, v) for lam, c in inverse[mu].terms.items())
                        for v in km.columns] == [int(v == u) for v in km.columns]
