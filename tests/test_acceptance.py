"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import time

from bruhat_kit import (affinegraph, affineperm, combinat, embedding, kschur,
                        qsym, rbruhat)
from bruhat_kit.affineperm import AffinePermutation, CorePartition
from bruhat_kit.rbruhat import FinitePermutation as P
from oracles import compositions, ssyt_count_bruteforce


def _ok(n, msg):
    print(f"\nACCEPTANCE {n} PASS: {msg}")


EXPECTED_WORDS = {
    "u23 u12 u45 u26", "u23 u12 u26 u45", "u23 u45 u12 u26", "u45 u23 u12 u26",
    "u45 u13 u36 u23", "u13 u45 u36 u23", "u13 u36 u45 u23", "u13 u36 u23 u45",
}


def test_criterion_1_schubert_interval():
    t0 = time.perf_counter()
    u, w, r = rbruhat.interval_from_zeta(P((3, 6, 2, 5, 4, 1)))
    assert (r, u.images, w.images) == (3, (1, 4, 2, 6, 3, 5), (3, 5, 6, 1, 2, 4))
    chains = rbruhat.all_chains(u, w, r)
    assert len(chains) == 8
    assert {c.render_word() for c in chains} == EXPECTED_WORDS
    kf = rbruhat.k_function_r(u, w, r)
    assert kf.terms == {(1, 3): 1, (1, 2, 1): 2, (2, 2): 2, (1, 1, 2): 1,
                        (3, 1): 1, (2, 1, 1): 1}
    assert qsym.schur_expand(kf).terms == {(3, 1): 1, (2, 2): 1, (2, 1, 1): 1}
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _ok(1, f"Schubert interval: 8 chains, K and Schur exact ({elapsed:.3f}s < 1s)")


def test_criterion_2_affine_interval():
    t0 = time.perf_counter()
    u = affineperm.parse_window("[-6,8,3,-1,4,13]", 5)
    w = affineperm.parse_window("[8,-6,-2,9,13,-1]", 5)
    ps = affinegraph.paths(u, w)
    assert len(ps) == 240
    kf = affinegraph.k_function_affine(u, w)
    assert kf.terms == {(1, 1, 1, 1): 9, (1, 1, 2): 30, (1, 2, 1): 51,
                        (1, 3): 30, (2, 1, 1): 30, (2, 2): 51, (3, 1): 30,
                        (4,): 9}
    assert qsym.schur_expand(kf).terms == {(4,): 9, (3, 1): 30, (2, 2): 21,
                                           (2, 1, 1): 30, (1, 1, 1, 1): 9}
    reps = affinegraph.edge_representatives(u, 1, 2)
    assert [e.label for e in reps] == [-4, 2, 8]
    assert affinegraph.apply_t(u, -11, -10) is None
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _ok(2, f"affine interval: 240 paths, K exact, parallel edges "
           f"{{-4,2,8}}, zero operator checked ({elapsed:.3f}s < 10s)")


def test_criterion_3_weak_order_function():
    u = AffinePermutation((0, 2, 4))
    w = AffinePermutation((-3, 4, 5))
    km = kschur.k_function_weak(u, w)
    assert km.terms == {(1, 1, 1): 1, (2, 1): 1, (1, 2): 1}
    assert qsym.m_to_f(km).terms == {(1, 2): 1, (2, 1): 1, (1, 1, 1): -1}
    schur = qsym.schur_expand(km)
    assert schur.terms == {(2, 1): 1, (1, 1, 1): -1}
    assert schur.coeff((1, 1, 1)) == -1
    _ok(3, "weak-order K: M, F and Schur forms exact, negative coefficient kept")


def test_criterion_4_core_bijection():
    u = AffinePermutation((2, 3, 6, 0, 4))
    core = affineperm.to_core(u)
    assert core.partition == (4, 1, 1)
    assert affineperm.from_core(CorePartition((4, 1, 1), 5), 4) == u
    total = 0
    for k in range(1, 5):
        layer = {AffinePermutation.identity(k)}
        for _ in range(9):
            for v in layer:
                assert affineperm.from_core(affineperm.to_core(v), k) == v
            total += len(layer)
            layer = {x for v in layer for _, x in kschur.weak_covers(v)}
    _ok(4, f"core bijection exact both ways; round trip on {total} "
           f"grassmannians with l <= 8, k <= 4")


def test_criterion_5_embedding():
    t0 = time.perf_counter()
    x = P((1, 4, 2, 6, 3, 5))
    y = P((3, 5, 6, 1, 2, 4))
    e = embedding.build_embedding(x, y, 3)
    assert (e.k, e.s) == (5, 3)
    assert e.u_prime_window == (-7, -2, 7, -6, 8, 3)
    assert e.u.window == (-6, 8, 3, -1, 4, 13)
    report = embedding.verify_embedding(e)
    assert report.ok and report.chains_total == 8
    assert report.k_affine.dominates(report.k_schubert)

    rng = random.Random(20240809)
    done = 0
    while done < 100:
        perm = list(range(1, 7))
        rng.shuffle(perm)
        zeta = P(perm)
        if not zeta.images:
            continue
        xs, ys, rs = rbruhat.interval_from_zeta(zeta)
        if rbruhat.length(ys) - rbruhat.length(xs) > 5:
            continue
        data = embedding.build_embedding(xs, ys, rs)
        rep = embedding.verify_embedding(data)
        assert rep.mapped_nonzero == rep.chains_total, perm
        assert rep.ok, (perm, rep.failures)
        done += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _ok(5, f"embedding: exact on the worked example; 100/100 sampled "
           f"intervals map all chains nonzero with domination ({elapsed:.1f}s < 60s)")


def test_criterion_6_relation_suite():
    rng = random.Random(1234)
    per_rule = 1000
    for tag in affinegraph.ALL_RULES:
        ks = [k for k in (2, 3, 4, 5) if affinegraph.rule_sampleable(tag, k)]
        checked = 0
        # walk k from the top so sparse patterns contribute what they can,
        # then let small k fill the rest of the quota
        for k in reversed(ks):
            want = min(200, per_rule - checked) if k > min(ks) else per_rule - checked
            if want <= 0:
                break
            res = affinegraph.sweep_relation(tag, k, want, rng)
            assert res.ok, (tag, k, res.failures[:1])
            checked += res.checked
        assert checked >= per_rule, (tag, checked)

    for tag in affinegraph.X_RULES:
        witness = affinegraph.find_x_counterexample(tag, 4, rng)
        assert witness is not None and not witness.holds, tag

    done = 0
    while done < 30:
        perm = list(range(1, 7))
        rng.shuffle(perm)
        zeta = P(perm)
        if not zeta.images:
            continue
        u, w, r = rbruhat.interval_from_zeta(zeta)
        if rbruhat.length(w) - rbruhat.length(u) > 5:
            continue
        chains = rbruhat.all_chains(u, w, r)
        assert rbruhat.rewrite_closure(chains[0].steps) == {c.steps for c in chains}
        done += 1
    _ok(6, "relations: >=1000 seeded trials per rule pass; per-rule X "
           "counterexamples found; rewrite graphs connected on 30 intervals")


def test_criterion_7_symmetry_and_rank3_balance():
    rng = random.Random(555)
    tested = 0
    for _ in range(60):
        perm = list(range(1, 7))
        rng.shuffle(perm)
        zeta = P(perm)
        if not zeta.images:
            continue
        u, w, r = rbruhat.interval_from_zeta(zeta)
        if rbruhat.length(w) - rbruhat.length(u) > 5:
            continue
        assert qsym.is_symmetric(rbruhat.k_function_r(u, w, r))
        tested += 1
    balance = 0
    for _ in range(25):
        k = rng.choice([2, 3, 4])
        u = kschur.random_grassmannian(k, rng.randint(0, 5), rng)
        w = u
        for _ in range(3):
            w = rng.choice(affinegraph.out_edges(w)).target
        kf = affinegraph.k_function_affine(u, w)
        assert qsym.is_symmetric(kf)
        assert kf.coeff((2, 1)) == kf.coeff((1, 2))
        balance += 1
    _ok(7, f"symmetry holds on {tested} finite and {balance} affine intervals; "
           f"rank-3 F balance exact")


def test_criterion_8_basis_machinery():
    for n in range(0, 7):
        for alpha in compositions(n):
            m = qsym.QuasiSymFn(qsym.M, {alpha: 1})
            assert qsym.f_to_m(qsym.m_to_f(m)).terms == m.terms
            f = qsym.QuasiSymFn(qsym.F, {alpha: 1})
            assert qsym.m_to_f(qsym.f_to_m(f)).terms == f.terms

    rng = random.Random(7)
    for _ in range(10):
        n = rng.randint(1, 5)
        terms = {lam: rng.randint(-5, 5) for lam in combinat.partitions_of(n)}
        f = qsym.SymFn("s", terms)
        assert qsym.schur_expand(qsym.schur_to_m(f)).terms == f.terms

    assert combinat.kostka((2, 1), (1, 1, 1)) == 2 == \
        ssyt_count_bruteforce((2, 1), (1, 1, 1))

    for degree in range(1, 6):
        for k in (degree, 5):
            km = kschur.k_matrix(k, degree)
            for lam in km.rows:
                for mu, u_mu in zip(km.rows, km.columns):
                    assert km.entry(lam, u_mu) == combinat.kostka(mu, lam)
    _ok(8, "basis machinery: M/F round trip to weight 6, Schur expansion "
           "round trip, Kostka oracle, classical K-matrix limit to degree 5")
