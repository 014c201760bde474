"""Both K functions against oracles that share no code with the strong orders.

Bergeron-Sottile: the S_w-coefficient of S_u * s_lam(x_1..x_r) is the
s_lam-coefficient of the Schur expansion of K_{[u, w]_r}.  The left side
comes from tests/oracles.py, which imports nothing from bruhat_kit.

Lam-Lapointe-Morse-Shimozono: the s_lam-coefficient of the affine K_{[u, w]}
is the Hall pairing <s_lam * dF_u, s^(k)_w> of a dual k-Schur and a k-Schur
function.  Both come from the weak order side (kschur), and the product and
pairing from tests/oracles.py; nothing on that side touches affinegraph.
"""

import itertools

from bruhat_kit import affinegraph, kschur, qsym, rbruhat
from bruhat_kit.affineperm import AffinePermutation
from bruhat_kit.rbruhat import FinitePermutation as P
from oracles import (hall_pairing_with_h, inversions, multiply, partitions,
                     quasisymmetric_polynomial, schubert_polynomial, schubert_times_schur,
                     schur_polynomial)


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


def test_affine_k_matches_the_dual_kschur_pairing_on_every_pair_to_length_6():
    # dF_u = k_function_weak(id, u) and s^(k)_w = kschur_in_h(w); empty intervals pair to 0
    found = []
    for k in range(2, 5):
        by_length = [kschur.grassmannians_of_length(k, d) for d in range(7)]
        pairs = nonempty = 0
        for lw in range(1, 7):
            kschur_h = {w: kschur.kschur_in_h(w).terms for w in by_length[lw]}
            for lu in range(lw):
                for u in by_length[lu]:
                    dual = quasisymmetric_polynomial(
                        kschur.k_function_weak(AffinePermutation.identity(k), u).terms, lw)
                    products = {lam: multiply(schur_polynomial(lam, lw, lw), dual)
                                for lam in partitions(lw - lu)}
                    for w in by_length[lw]:
                        pairs += 1
                        terms = qsym.schur_expand(affinegraph.k_function_affine(u, w)).terms
                        nonempty += bool(terms)
                        for lam, product in products.items():
                            assert terms.get(lam, 0) == \
                                hall_pairing_with_h(product, kschur_h[w], lw), (u, w, lam)
        found.append((pairs, nonempty))
    assert found == [(106, 94), (212, 162), (286, 197)]  # (pairs, nonempty intervals) per k
