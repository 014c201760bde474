"""The finite K function against Schubert polynomials by divided differences.

Bergeron-Sottile: the S_w-coefficient of S_u * s_lam(x_1..x_r) is the
s_lam-coefficient of the Schur expansion of K_{[u, w]_r}.  The left side
comes from tests/oracles.py, which imports nothing from bruhat_kit.
"""

import itertools

from bruhat_kit import qsym, rbruhat
from bruhat_kit.rbruhat import FinitePermutation as P
from oracles import inversions, schubert_polynomial, schubert_times_schur


def padded(x, n):
    return tuple(x.images) + tuple(range(len(x.images) + 1, n + 1))


def schur_terms_of_k(u, w, r):
    return qsym.schur_expand(rbruhat.interval_dag(u, w, r).k_function()).terms


def test_oracle_schubert_polynomials_of_s3():
    x1, x2 = (1, 0, 0), (0, 1, 0)
    assert schubert_polynomial((1, 2, 3), 3) == {(0, 0, 0): 1}
    assert schubert_polynomial((2, 1, 3), 3) == {x1: 1}
    assert schubert_polynomial((1, 3, 2), 3) == {x1: 1, x2: 1}
    assert schubert_polynomial((2, 3, 1), 3) == {(1, 1, 0): 1}
    assert schubert_polynomial((3, 1, 2), 3) == {(2, 0, 0): 1}
    assert schubert_polynomial((3, 2, 1), 3) == {(2, 1, 0): 1}


def test_every_triple_of_s4_matches_schubert_times_schur():
    cases = nonempty = 0
    for u in itertools.permutations(range(1, 5)):
        for w in itertools.permutations(range(1, 5)):
            if inversions(w) <= inversions(u):
                continue
            for r in range(1, 4):
                cases += 1
                terms = schur_terms_of_k(P(u), P(w), r)
                nonempty += bool(terms)
                assert terms == schubert_times_schur(u, w, r), (u, w, r)
    assert (cases, nonempty) == (705, 179)


def test_every_zeta_of_s6_matches_schubert_times_schur():
    cases = 0
    for images in itertools.permutations(range(1, 7)):
        zeta = P(images)
        if not zeta.images:
            continue
        cases += 1
        u, w, r = rbruhat.interval_from_zeta(zeta)
        assert schur_terms_of_k(u, w, r) == \
            schubert_times_schur(padded(u, 6), padded(w, 6), r), images
    assert cases == 719
