import itertools
import random

import pytest

from bruhat_kit import combinat, qsym, rbruhat
from bruhat_kit.errors import CapExceeded, EmptyInterval, IdentityInput
from bruhat_kit.rbruhat import FinitePermutation as P
from oracles import greedy_first_chain


def brute_inversions(images):
    return sum(1 for i in range(len(images)) for j in range(i + 1, len(images))
               if images[i] > images[j])


def test_length():
    assert rbruhat.length(P.identity()) == 0
    assert rbruhat.length(P((1, 4, 2, 6, 3, 5))) == 4 == brute_inversions((1, 4, 2, 6, 3, 5))
    assert rbruhat.length(P((3, 5, 6, 1, 2, 4))) == 8 == brute_inversions((3, 5, 6, 1, 2, 4))


def test_permutation_canonical_trim_and_compose():
    assert P((2, 1, 3, 4)).images == (2, 1)
    assert P((1, 2)).images == ()
    u = P((1, 4, 2, 6, 3, 5))
    assert (u * u.inverse()).images == ()
    assert u(7) == 7 and u.position(7) == 7


def test_apply_u_cover_edges():
    u = P((1, 4, 2, 6, 3, 5))
    assert rbruhat.apply_u(u, 2, 6, 3).images == (1, 4, 6, 2, 3, 5)
    assert rbruhat.apply_u(u, 4, 5, 3).images == (1, 5, 2, 6, 3, 4)
    assert rbruhat.apply_u(u, 1, 3, 3) is None


def test_interval_from_zeta():
    u, w, r = rbruhat.interval_from_zeta(P((3, 6, 2, 5, 4, 1)))
    assert (u.images, w.images, r) == ((1, 4, 2, 6, 3, 5), (3, 5, 6, 1, 2, 4), 3)
    assert (w * u.inverse()).images == (3, 6, 2, 5, 4, 1)

    u, w, r = rbruhat.interval_from_zeta(P((2, 1)))
    assert (u.images, w.images, r) == ((), (2, 1), 1)

    u, w, r = rbruhat.interval_from_zeta(P((3, 1, 2)))
    assert (u.images, w.images, r) == ((), (3, 1, 2), 1)

    with pytest.raises(IdentityInput):
        rbruhat.interval_from_zeta(P.identity())


def test_first_chain():
    u, w, r = rbruhat.interval_from_zeta(P((3, 6, 2, 5, 4, 1)))
    fc = rbruhat.first_chain(u, w, r)
    assert fc.steps == ((2, 6), (4, 5), (1, 2), (2, 3))
    assert fc.render_word() == "u23 u12 u45 u26"
    assert fc.end() == w

    assert rbruhat.first_chain(P.identity(), P((2, 1)), 1).steps == ((1, 2),)
    assert rbruhat.first_chain(P((1, 4, 2, 6, 3, 5)),
                               P((1, 5, 2, 6, 3, 4)), 3).steps == ((4, 5),)


def test_first_chain_empty_interval():
    # u above w entrywise on the left block: no chain
    with pytest.raises(EmptyInterval):
        rbruhat.first_chain(P((2, 1)), P((1, 3, 2)), 1)


def test_first_chain_raises_exactly_on_the_empty_intervals_of_s5():
    # each triple of S3 and S4 is a triple of S5 with the same interval
    perms = [P(p) for p in itertools.permutations(range(1, 6))]
    for u, w in itertools.product(perms, repeat=2):
        for r in range(1, 5):
            dag = rbruhat.interval_dag(u, w, r)
            if dag.count() == 0:
                with pytest.raises(EmptyInterval):
                    rbruhat.first_chain(u, w, r)
            else:
                assert rbruhat.first_chain(u, w, r).steps in dag.walks(), (u, w, r)


def test_first_chain_matches_the_greedy_oracle_on_every_zeta_of_s6():
    for images in itertools.permutations(range(1, 7)):
        zeta = P(images)
        if not zeta.images:
            continue
        u, w, r = rbruhat.interval_from_zeta(zeta)
        padded = [tuple(x(i) for i in range(1, 7)) for x in (u, w)]
        assert rbruhat.first_chain(u, w, r).steps == greedy_first_chain(*padded, r), images


KNOWN_WORDS_RIGHT_TO_LEFT = [
    "u23 u12 u45 u26", "u23 u12 u26 u45", "u23 u45 u12 u26", "u45 u23 u12 u26",
    "u45 u13 u36 u23", "u13 u45 u36 u23", "u13 u36 u45 u23", "u13 u36 u23 u45",
]


def test_all_chains_example():
    u, w, r = rbruhat.interval_from_zeta(P((3, 6, 2, 5, 4, 1)))
    chains = rbruhat.all_chains(u, w, r)
    assert len(chains) == 8
    assert {c.render_word() for c in chains} == set(KNOWN_WORDS_RIGHT_TO_LEFT)
    for c in chains:
        assert len(c.steps) == rbruhat.length(w) - rbruhat.length(u)
        assert c.end() == w
    assert rbruhat.first_chain(u, w, r).steps in {c.steps for c in chains}


def test_all_chains_trivial():
    u = P((1, 4, 2, 6, 3, 5))
    assert [c.steps for c in rbruhat.all_chains(u, u, 3)] == [()]
    assert len(rbruhat.all_chains(P.identity(), P((2, 1)), 1)) == 1


def test_all_chains_cap():
    u, w, r = rbruhat.interval_from_zeta(P((3, 6, 2, 5, 4, 1)))
    with pytest.raises(CapExceeded):
        rbruhat.all_chains(u, w, r, cap=3)


def test_k_function_r_example():
    u, w, r = rbruhat.interval_from_zeta(P((3, 6, 2, 5, 4, 1)))
    kf = rbruhat.k_function_r(u, w, r)
    assert kf.terms == {(1, 3): 1, (1, 2, 1): 2, (2, 2): 2,
                        (1, 1, 2): 1, (3, 1): 1, (2, 1, 1): 1}
    assert qsym.schur_expand(kf).terms == {(3, 1): 1, (2, 2): 1, (2, 1, 1): 1}
    assert rbruhat.k_function_r(u, u, r).terms == {(): 1}


def _random_interval(rng, n=6, max_rank=4):
    while True:
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        zeta = P(perm)
        if not zeta.images:
            continue
        u, w, r = rbruhat.interval_from_zeta(zeta)
        if rbruhat.length(w) - rbruhat.length(u) <= max_rank:
            return u, w, r


def test_k_function_symmetric_on_samples():
    rng = random.Random(17)
    for _ in range(20):
        u, w, r = _random_interval(rng)
        assert qsym.is_symmetric(rbruhat.k_function_r(u, w, r))


def test_rewrite_r3():
    word = ((2, 6), (4, 5), (1, 2), (2, 3))
    assert rbruhat.rewrite_schubert(word, "R3", 0) == ((4, 5), (2, 6), (1, 2), (2, 3))
    assert rbruhat.rewrite_schubert(((1, 2), (2, 3)), "R3", 0) is None
    assert rbruhat.rewrite_schubert(((1, 2), (3, 4)), "R3", 0) == ((3, 4), (1, 2))
    # interleaved pairs never commute by R3
    assert rbruhat.rewrite_schubert(((1, 3), (2, 4)), "R3", 0) is None


def test_rewrite_r1_both_directions():
    # letters a=1 b=2 c=3 d=4, words in application order
    lhs = ((1, 3), (3, 4), (2, 3))
    rhs = ((2, 3), (1, 2), (2, 4))
    assert rbruhat.rewrite_schubert(lhs, "R1", 0) == rhs
    assert rbruhat.rewrite_schubert(rhs, "R1", 0) == lhs
    assert rbruhat.rewrite_schubert(lhs, "R2", 0) is None


def test_rewrite_r2_both_directions():
    # operator u_ac u_cd u_bc = u_bc u_ab u_bd with a=1 b=2 c=3 d=4
    lhs = ((2, 3), (3, 4), (1, 3))
    rhs = ((2, 4), (1, 2), (2, 3))
    assert rbruhat.rewrite_schubert(lhs, "R2", 0) == rhs
    assert rbruhat.rewrite_schubert(rhs, "R2", 0) == lhs


def test_rewrites_preserve_the_chain_set():
    rng = random.Random(23)
    for _ in range(15):
        u, w, r = _random_interval(rng, max_rank=4)
        words = {c.steps for c in rbruhat.all_chains(u, w, r)}
        for word in words:
            for nxt in rbruhat.rewrite_neighbours(word):
                assert nxt in words, (u.images, w.images, r, word, nxt)


def test_rewrite_connectivity_on_samples():
    rng = random.Random(29)
    for _ in range(15):
        u, w, r = _random_interval(rng, max_rank=4)
        chains = rbruhat.all_chains(u, w, r)
        words = {c.steps for c in chains}
        assert rbruhat.rewrite_closure(chains[0].steps) == words


def test_is_zero_word():
    assert rbruhat.is_zero_word(((1, 3), (2, 4)))
    assert rbruhat.is_zero_word(((2, 4), (1, 3)))
    assert rbruhat.is_zero_word(((1, 2), (2, 3), (1, 2)))
    assert rbruhat.is_zero_word(((2, 3), (1, 2), (2, 3)))
    assert not rbruhat.is_zero_word(((2, 6), (4, 5)))
    assert rbruhat.is_zero_word(((1, 2), (1, 2)))


def test_no_chain_matches_zero_word():
    rng = random.Random(31)
    for _ in range(10):
        u, w, r = _random_interval(rng)
        for c in rbruhat.all_chains(u, w, r):
            assert not rbruhat.is_zero_word(c.steps)


def test_rewrites_connect_every_chain_set_of_s6():
    # a box proof of what the two sampled tests above check: the rewrite closure of
    # the first chain is the whole chain set, and no chain is a zero word.  S6 holds
    # S5 as the zetas that fix 6, which trim to the same interval.
    intervals = chains_seen = 0
    for images in itertools.permutations(range(1, 7)):
        zeta = P(images)
        if not zeta.images:
            continue
        u, w, r = rbruhat.interval_from_zeta(zeta)
        chains = rbruhat.all_chains(u, w, r)
        words = {c.steps for c in chains}
        assert rbruhat.rewrite_closure(chains[0].steps) == words, images
        assert not any(rbruhat.is_zero_word(word) for word in words), images
        intervals += 1
        chains_seen += len(words)
    assert (intervals, chains_seen) == (719, 5025)


def test_interval_isomorphism_small():
    zeta = P((1, 3, 2))
    u0, w0, r0 = rbruhat.interval_from_zeta(zeta)
    rank = rbruhat.length(w0) - rbruhat.length(u0)
    ref = sorted(combinat.descent_composition(c.labels)
                 for c in rbruhat.all_chains(u0, w0, r0))
    found = 0
    for ximg in itertools.permutations(range(1, 5)):
        x = P(ximg)
        y = zeta * x
        if rbruhat.length(y) - rbruhat.length(x) != rank:
            continue
        for rp in range(1, 4):
            cs = rbruhat.all_chains(x, y, rp)
            if cs:
                got = sorted(combinat.descent_composition(c.labels) for c in cs)
                assert got == ref
                found += 1
    assert found > 1
