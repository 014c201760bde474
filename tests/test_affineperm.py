import itertools
import random

import pytest

from bruhat_kit import affinegraph, affineperm, kschur
from bruhat_kit.affineperm import AffinePermutation, CorePartition
from bruhat_kit.errors import BadPair, KMismatch, NotACore, NotGrassmannian
from oracles import (core_of_window, grassmannian_window, grassmannian_windows, hook_lengths,
                     kbounded_rows, partitions, times_s)


def test_window_validation():
    with pytest.raises(ValueError):
        AffinePermutation((1, 4, 3))  # 1 = 4 mod 3
    with pytest.raises(ValueError):
        AffinePermutation((0, 2, 5))  # wrong sum
    u = affineperm.parse_window("[-6,8,3,-1,4,13]")
    assert u.k == 5 and sum(u.window) == 21


def test_eval_and_position():
    u = affineperm.parse_window("[-6,8,3,-1,4,13]")
    assert u(7) == 0
    assert u(-1) == -2
    ident = AffinePermutation.identity(4)
    for i in range(-9, 10):
        assert ident(i) == i
    for v in range(-8, 9):
        assert u(u.position(v)) == v


def brute_length(u):
    # u(j) >= min(window) + j - (k+1), so no j >= max - min + k+1 has u(j) < u(i)
    n = u.k + 1
    span = max(u.window) - min(u.window) + n
    total = 0
    for i in range(1, n + 1):
        for j in range(i + 1, i + span):
            if u(i) > u(j):
                total += 1
    return total


def test_length_affine():
    assert affineperm.length_affine(AffinePermutation.identity(3)) == 0
    assert affineperm.length_affine(AffinePermutation((0, 2, 4))) == 1
    u = AffinePermutation((2, 3, 6, 0, 4))
    assert affineperm.length_affine(u) == 5 == brute_length(u)
    w = affineperm.parse_window("[8,-6,-2,9,13,-1]")
    assert affineperm.length_affine(w) == brute_length(w)
    # a seeded box: permute 1..k+1, then shift each entry by c(k+1), c in -3..3, sum c = 0
    rng = random.Random(0)
    for k in range(1, 7):
        n = k + 1
        for _ in range(200):
            shifts = [rng.randint(-3, 3) for _ in range(k)]
            if abs(sum(shifts)) > 3:
                continue
            shifts.append(-sum(shifts))
            window = [v + c * n for v, c in zip(rng.sample(range(1, n + 1), n), shifts)]
            u = AffinePermutation(window)
            assert affineperm.length_affine(u) == brute_length(u), window


def test_is_grassmannian():
    assert affineperm.is_grassmannian(AffinePermutation((2, 3, 6, 0, 4)))
    assert affineperm.is_grassmannian(AffinePermutation.identity(2))
    assert not affineperm.is_grassmannian(AffinePermutation((2, 1, 3)))


def test_core_bijection_worked_example():
    u = AffinePermutation((2, 3, 6, 0, 4))
    core = affineperm.to_core(u)
    assert core.partition == (4, 1, 1) and core.modulus == 5
    assert affineperm.from_core(core, 4) == u
    assert affineperm.kbounded_from_core(core) == (3, 1, 1)


def test_core_bijection_small_cases():
    for k in range(1, 5):
        ident = AffinePermutation.identity(k)
        assert affineperm.to_core(ident).partition == ()
        assert affineperm.from_core(CorePartition((), k + 1), k) == ident
    u = AffinePermutation((0, 2, 4))
    assert affineperm.to_core(u).partition == (1,)
    assert affineperm.from_core(CorePartition((1,), 3), 2) == u


def test_not_a_core():
    with pytest.raises(NotACore):
        CorePartition((2,), 2)  # hook of length 2
    with pytest.raises(NotACore):
        affineperm.from_core(CorePartition((2,), 4), 2)  # modulus mismatch


def test_cores_and_kbounded_rows_match_the_hook_oracle():
    # every partition of size <= 14 against every modulus 2..8, hooks counted cell by cell
    cores = 0
    for size in range(15):
        for lam in partitions(size):
            hooks = {h for row in hook_lengths(lam) for h in row}
            for n in range(2, 9):
                if n in hooks:
                    with pytest.raises(NotACore):
                        CorePartition(lam, n)
                    continue
                core = CorePartition(lam, n)
                rows = affineperm.kbounded_from_core(core)
                assert rows == kbounded_rows(lam, n - 1), (lam, n)
                u = affineperm.from_core(core, n - 1)
                assert affineperm.is_grassmannian(u), (lam, n)
                assert affineperm.to_core(u) == core
                assert affineperm.length_affine(u) == sum(rows)
                cores += 1
    assert cores == 767


def test_to_core_requires_grassmannian():
    with pytest.raises(NotGrassmannian):
        affineperm.to_core(AffinePermutation((2, 1, 3)))


def test_round_trip_all_small_grassmannians():
    for k in range(1, 5):
        layer = {AffinePermutation.identity(k)}
        for ell in range(1, 9):
            layer = {v for u in layer for _, v in kschur.weak_covers(u)}
            for u in layer:
                core = affineperm.to_core(u)
                assert affineperm.from_core(core, k) == u
                assert sum(affineperm.kbounded_from_core(core)) == ell
                assert affineperm.length_affine(u) == ell


def test_core_bijection_matches_a_plain_window_walk():
    # every 0-grassmannian of length <= 9 at k = 1..5, grown and read by tests/oracles.py
    counts = []
    for k in range(1, 6):
        layers = grassmannian_windows(k, 9)
        counts.append(sum(map(len, layers)))
        for window in set().union(*layers):
            core = core_of_window(window)
            assert affineperm.to_core(AffinePermutation(window)).partition == core, window
            assert affineperm.from_core(CorePartition(core, k + 1), k).window == window, core
    assert counts == [10, 30, 53, 71, 83]  # k-bounded partitions of size <= 9


def test_is_grassmannian_matches_the_increasing_positions_of_1_to_k_plus_1():
    # every window within 6 simple reflections of the identity, grassmannian or not
    counts = []
    for k in range(1, 5):
        ball = {tuple(range(1, k + 2))}
        for _ in range(6):
            ball |= {times_s(x, i) for x in ball for i in range(k + 1)}
        grassmannian = 0
        for window in ball:
            u = AffinePermutation(window)
            expected = grassmannian_window(window)
            assert affineperm.is_grassmannian(u) == expected, window
            grassmannian += expected
            if not expected:
                with pytest.raises(NotGrassmannian):
                    affineperm.to_core(u)
        counts.append((len(ball), grassmannian))
    assert counts == [(13, 7), (64, 16), (195, 23), (456, 27)]


def test_multiply():
    u = affineperm.parse_window("[-6,8,3,-1,4,13]")
    ident = AffinePermutation.identity(5)
    assert u * ident == u and ident * u == u
    s0 = AffinePermutation.generator(2, 0)
    assert s0.window == (0, 2, 4)
    assert s0 * s0 == AffinePermutation.identity(2)
    s1 = AffinePermutation.generator(2, 1)
    s2 = AffinePermutation.generator(2, 2)
    assert s1 * s2 * s1 == s2 * s1 * s2


def test_presentation_relations_small_k():
    for k in range(2, 6):
        gens = [AffinePermutation.generator(k, i) for i in range(k + 1)]
        ident = AffinePermutation.identity(k)
        n = k + 1
        for i in range(n):
            assert gens[i] * gens[i] == ident
            nxt = (i + 1) % n
            assert gens[i] * gens[nxt] * gens[i] == gens[nxt] * gens[i] * gens[nxt]
            for j in range(n):
                if (i - j) % n not in (1, n - 1):
                    assert gens[i] * gens[j] == gens[j] * gens[i]


def test_right_multiply_s_agrees_with_multiply():
    u = affineperm.parse_window("[-6,8,3,-1,4,13]")
    for i in range(6):
        assert u.right_multiply_s(i) == u * AffinePermutation.generator(5, i)


def periodic_transposition(k, a, b):
    """t(a,b) built from its own window: position p goes to p + (b - a) when
    p = a mod k+1, to p - (b - a) when p = b mod k+1, and stays otherwise."""
    n = k + 1
    window = [p + (b - a) if (p - a) % n == 0 else p - (b - a) if (p - b) % n == 0 else p
              for p in range(1, n + 1)]
    return AffinePermutation(window, k)


def test_right_transpose_agrees_with_multiply():
    checked = 0
    for k in range(1, 5):
        n = k + 1
        for d in range(7):
            for u in kschur.grassmannians_of_length(k, d):
                for a0 in range(1, n + 1):
                    for gap in range(1, k + 1):
                        for shift in range(-2, 3):
                            a = a0 + shift * n
                            got = u.right_transpose(a, a + gap)
                            assert got == u * periodic_transposition(k, a, a + gap)
                            checked += 1
    assert checked == 4630
    u = affineperm.parse_window("[-6,8,3,-1,4,13]")
    with pytest.raises(BadPair):
        u.right_transpose(2, 8)


def test_trusted_constructor_builds_what_validation_builds():
    def same_as_validated(t):
        v = AffinePermutation(t.window, t.k)
        assert type(t.window) is tuple and all(type(x) is int for x in t.window)
        assert (t.window, t.k, hash(t)) == (v.window, v.k, hash(v))
        assert t == v

    checked = 0
    for k in range(1, 5):
        for d in range(7):
            for u in kschur.grassmannians_of_length(k, d):
                for e in affinegraph.out_edges(u):
                    same_as_validated(e.target)
                    checked += 1
                for i in range(-(k + 1), 2 * (k + 1)):
                    same_as_validated(u.right_multiply_s(i))
                    checked += 1
    assert checked > 1000


def test_k_mismatch():
    u, w = AffinePermutation.identity(2), kschur.grassmannians_of_length(3, 2)[0]
    for mismatched in (AffinePermutation.__mul__, kschur.k_function_weak,
                       affinegraph.interval_dag):
        with pytest.raises(KMismatch):
            mismatched(u, w)


def test_text_round_trip():
    u = affineperm.parse_window("[-6,8,3,-1,4,13]")
    assert affineperm.parse_window(u.text()) == u
    assert affineperm.parse_window("0 2 4", 2).window == (0, 2, 4)
