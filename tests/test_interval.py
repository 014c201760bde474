"""The Hasse-DAG interval engine, checked by code that shares nothing with it."""

import itertools
from collections import Counter
from functools import cache

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bruhat_kit import affinegraph, cli, qsym, rbruhat
from bruhat_kit.interval import HasseDAG
from bruhat_kit.rbruhat import FinitePermutation as P

README_240 = ["affine", "--k", "5", "--u", "[-6,8,3,-1,4,13]",
              "--w", "[8,-6,-2,9,13,-1]"]


def test_cover_rule_matches_the_length_rule_exhaustively():
    pairs = 0
    for n in range(2, 7):
        for images in itertools.permutations(range(1, n + 1)):
            x = P(images)
            for i, j in itertools.combinations(range(n), 2):
                a, b = images[i], images[j]
                if a > b:
                    continue
                pairs += 1
                by_length = rbruhat.length(rbruhat.swap_values(x, a, b)) == \
                    rbruhat.length(x) + 1
                assert rbruhat.is_cover(x, a, b) == by_length, (images, a, b)
    assert pairs == 6082


def test_affine_job_expands_each_vertex_once(monkeypatch, capsys):
    seen = Counter()
    original = affinegraph._classes  # the DAG's step adapter reads each vertex through it

    def counting(x):
        seen[x] += 1
        return original(x)

    monkeypatch.setattr(affinegraph, "_classes", counting)
    assert cli.main(README_240) == 0
    assert "paths: 240" in capsys.readouterr().out
    assert seen and max(seen.values()) == 1


def padded(x, n):
    """x(1), ..., x(n) as a list."""
    return list(x.images) + list(range(len(x.images) + 1, n + 1))


def brute_label_sequences(u, w, r):
    """Label sequences of the saturated r-Bruhat chains from u to w: every swap
    of values a < b across r is tried and kept when it raises the length by one."""
    n = max(len(u.images), len(w.images), r + 1)
    top = rbruhat.length(w)

    @cache
    def suffixes(x):
        lx = rbruhat.length(x)
        if lx == top:
            return [()] if x == w else []
        found = []
        for a, b in itertools.combinations(range(1, n + 1), 2):
            if x.position(a) <= r < x.position(b):
                y = P([b if v == a else a if v == b else v for v in padded(x, n)])
                if rbruhat.length(y) == lx + 1:
                    found += [(b,) + rest for rest in suffixes(y)]
        return found

    return suffixes(u)


def test_every_interval_of_s6_agrees_with_brute_force():
    intervals = 0
    for images in itertools.permutations(range(1, 7)):
        zeta = P(images)
        if not zeta.images:
            continue
        intervals += 1
        u, w, r = rbruhat.interval_from_zeta(zeta)
        labels = brute_label_sequences(u, w, r)
        dag = rbruhat.interval_dag(u, w, r)
        assert dag.count() == len(labels), images
        kf = qsym.f_sum(labels)
        assert rbruhat.k_function_r(u, w, r).terms == kf.terms == dag.k_function().terms, images
    assert intervals == 719


def test_walks_list_chains_in_recursive_order():
    def listed(dag, x, acc):
        if len(acc) == dag.rank:
            return [tuple(acc)]
        return [c for step, _, y in dag.succ[x] for c in listed(dag, y, acc + [step])]

    for images in itertools.permutations(range(1, 6)):
        zeta = P(images)
        if zeta.images:
            dag = rbruhat.interval_dag(*rbruhat.interval_from_zeta(zeta))
            assert dag.walks() == listed(dag, dag.start, []), images
    dag = rbruhat.interval_dag(P((2, 1)), P((2, 1)), 1)
    assert dag.walks() == [()] and dag.k_function().terms == {(): 1}


def test_k_function_breaks_only_at_strict_descents():
    # a path 0 -> 3 with two parallel steps per rank; labels (2, 2, 1) or (2, 3, 1)
    labels = {0: (2, 2), 1: (2, 3), 2: (1, 1)}
    dag = HasseDAG(0, 3, 3, lambda x, _: [((x, i), b, x + 1) for i, b in enumerate(labels[x])])
    assert dag.walks()[:2] == [((0, 0), (1, 0), (2, 0)), ((0, 0), (1, 0), (2, 1))]
    assert dag.count() == len(dag.walks()) == 8
    assert dag.k_function().terms == {(2, 1): 8}


def test_swap_values_matches_the_validating_constructor():
    for images in itertools.permutations(range(1, 6)):
        x = P(images)
        for a, b in itertools.permutations(range(1, 8), 2):
            im = padded(x, 7)
            pa, pb = im.index(a), im.index(b)
            im[pa], im[pb] = b, a
            assert rbruhat.swap_values(x, a, b).images == P(im).images, (images, a, b)


zetas = st.integers(5, 8).flatmap(lambda n: st.permutations(range(1, n + 1)))


@settings(max_examples=100, deadline=None)
@given(zetas)
def test_dag_count_k_and_symmetry_agree_with_brute_force(images):
    zeta = P(images)
    assume(zeta.images)
    u, w, r = rbruhat.interval_from_zeta(zeta)
    count = rbruhat.interval_dag(u, w, r).count()
    assert count == len(rbruhat.all_chains(u, w, r)) == len(brute_label_sequences(u, w, r))
    kf = rbruhat.k_function_r(u, w, r)
    assert sum(kf.terms.values()) == count
    assert qsym.is_symmetric(kf)
