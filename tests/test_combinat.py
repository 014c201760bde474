import itertools

import pytest

from bruhat_kit import combinat
from bruhat_kit.errors import EmptyChain
from oracles import (compositions, partitions, refines_by_blocks, ssyt_count_bruteforce,
                     weakly_increasing_runs)


def test_refines_examples():
    assert combinat.refines((1, 2, 1), (3, 1))
    assert combinat.refines((2, 2), (2, 2))
    assert not combinat.refines((1, 3), (3, 1))
    assert not combinat.refines((2, 1), (2, 2))  # unequal weights


@pytest.mark.parametrize("n", range(1, 7))
def test_refines_is_a_partial_order(n):
    comps = compositions(n)
    for a in comps:
        assert combinat.refines(a, a)
    for a, b in itertools.permutations(comps, 2):
        if combinat.refines(a, b) and combinat.refines(b, a):
            assert a == b
    if n <= 5:
        for a, b, c in itertools.product(comps, repeat=3):
            if combinat.refines(a, b) and combinat.refines(b, c):
                assert combinat.refines(a, c)


def test_refinement_enumeration_matches_predicate():
    # both against the block-sum definition, on all pairs for n <= 8
    for n in range(9):
        comps = compositions(n)
        for beta in comps:
            expect = [a for a in comps if refines_by_blocks(a, beta)]
            assert sorted(combinat.refinements(beta)) == sorted(expect)
            assert len(combinat.refinements(beta)) == 2 ** (n - len(beta))
            for alpha in comps:
                assert combinat.refines(alpha, beta) == refines_by_blocks(alpha, beta)


def test_descent_sets_round_trip_exhaustively():
    for n in range(11):
        comps = compositions(n)
        masks = [combinat.descent_set(c) for c in comps]
        assert sorted(masks) == list(range(0, 2 ** n, 2))  # every subset of bits 1..n-1
        for c, m in zip(comps, masks):
            assert combinat.from_descent_set(m, n) == c
            assert m == sum(1 << sum(c[:i]) for i in range(1, len(c)))


def test_descent_composition_matches_runs_exhaustively():
    for length in range(1, 7):
        for labels in itertools.product(range(3), repeat=length):
            assert combinat.descent_composition(labels) == weakly_increasing_runs(labels)


def test_descent_composition():
    assert combinat.descent_composition((1, 2, 0)) == (2, 1)
    assert combinat.descent_composition((1, 2, 3)) == (3,)
    assert combinat.descent_composition((3, 2, 1)) == (1, 1, 1)
    assert combinat.descent_composition((6, 5, 2, 3)) == (1, 1, 2)
    with pytest.raises(EmptyChain):
        combinat.descent_composition(())


def test_descent_composition_weight():
    import random
    rng = random.Random(1)
    for _ in range(50):
        labels = [rng.randint(-5, 9) for _ in range(rng.randint(1, 10))]
        assert sum(combinat.descent_composition(labels)) == len(labels)


def test_kostka_examples():
    assert combinat.kostka((2, 1), (1, 1, 1)) == 2
    assert combinat.kostka((2, 2), (2, 1, 1)) == 1
    for n in range(1, 7):
        assert combinat.kostka((n,), (n,)) == 1
    assert combinat.kostka((2, 1), (3,)) == 0
    assert combinat.kostka((2,), (1, 1, 1)) == 0  # unequal weights


@pytest.mark.parametrize("n", range(1, 7))
def test_kostka_against_bruteforce_ssyt(n):
    parts = combinat.partitions_of(n)
    for lam in parts:
        for mu in parts:
            for content in combinat.distinct_rearrangements(mu):
                assert combinat.kostka(lam, content) == \
                    ssyt_count_bruteforce(lam, content), (lam, content)


def test_kostka_triangularity():
    for n in range(1, 7):
        for lam in combinat.partitions_of(n):
            assert combinat.kostka(lam, lam) == 1
            for mu in combinat.partitions_of(n):
                if combinat.kostka(lam, mu):
                    assert combinat.dominates(lam, mu)


def test_kostka_content_permutation_invariance():
    for n in range(1, 7):
        for lam in combinat.partitions_of(n):
            for mu in combinat.partitions_of(n):
                base = combinat.kostka(lam, mu)
                for content in combinat.distinct_rearrangements(mu):
                    assert combinat.kostka(lam, content) == base


def test_partitions_of():
    assert combinat.partitions_of(3) == [(3,), (2, 1), (1, 1, 1)]
    assert combinat.partitions_of(0) == [()]
    assert combinat.partitions_of(4, 2) == [(2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert combinat.partitions_of(1500, 1) == [(1,) * 1500]  # no recursion per part
    for n in range(7):
        ps = combinat.partitions_of(n)
        assert ps == sorted(ps, reverse=True)
        assert len(set(ps)) == len(ps)


def test_partitions_of_matches_the_recursive_oracle():
    for n in range(21):
        assert combinat.partitions_of(n) == list(partitions(n))
        for max_part in range(1, n + 1):
            assert combinat.partitions_of(n, max_part) == list(partitions(n, max_part))


def test_conjugate_involution():
    for n in range(7):
        for lam in combinat.partitions_of(n):
            assert combinat.conjugate(combinat.conjugate(lam)) == lam


def test_distinct_rearrangements_match_permutations():
    for n in range(9):
        for lam in combinat.partitions_of(n):
            listed = set(itertools.permutations(lam))
            assert combinat.distinct_rearrangements(lam) == listed, lam
            assert combinat.rearrangement_count(lam) == len(listed), lam


def test_as_partition_strips_trailing_zeros_and_rejects_bad_parts():
    assert combinat.as_partition([3, 1, 1, 0, 0]) == (3, 1, 1)
    assert combinat.as_partition(iter([0])) == ()
    with pytest.raises(ValueError, match=r"must be positive: \(2, -1\)"):
        combinat.as_partition((2, -1))
    with pytest.raises(ValueError, match=r"must be positive: \(0, 1\)"):
        combinat.as_partition((0, 1))
    with pytest.raises(ValueError, match=r"must weakly decrease: \(1, 2\)"):
        combinat.as_partition((1, 2))


def test_as_composition_keeps_the_order_and_rejects_a_zero_part():
    assert combinat.as_composition(iter([1, 3, 2])) == (1, 3, 2)
    with pytest.raises(ValueError, match=r"composition parts must be positive: \(1, 0, 2\)"):
        combinat.as_composition((1, 0, 2))
    assert combinat.as_composition([]) == ()
    for bad, message in (((2, -3), "composition parts must be positive: (2, -3)"),
                         (("1", "x"), "invalid literal for int() with base 10: 'x'")):
        with pytest.raises(ValueError) as caught:
            combinat.as_composition(bad)
        assert str(caught.value) == message


def test_descent_mask_matches_its_definition_exhaustively():
    sequences = 0
    for length in range(7):
        for labels in itertools.product(range(4), repeat=length):
            expect = sum(1 << i for i in range(1, length) if labels[i - 1] > labels[i])
            assert combinat.descent_mask(labels) == expect, labels
            sequences += 1
    assert sequences == (4**7 - 1) // 3
