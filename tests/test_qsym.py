import itertools
import random
import time

import pytest

from bruhat_kit import combinat, qsym
from bruhat_kit.errors import NotSymmetric
from oracles import compositions, refines_by_blocks

M, F = qsym.M, qsym.F


def test_m_to_f_three_term_example():
    q = qsym.QuasiSymFn(M, {(1, 1, 1): 1, (2, 1): 1, (1, 2): 1})
    assert qsym.m_to_f(q).terms == {(1, 2): 1, (2, 1): 1, (1, 1, 1): -1}


def test_m_to_f_degree_one():
    assert qsym.m_to_f(qsym.QuasiSymFn(M, {(1,): 1})).terms == {(1,): 1}


def test_f_to_m_examples():
    assert qsym.f_to_m(qsym.QuasiSymFn(F, {(2, 1): 1})).terms == \
        {(2, 1): 1, (1, 1, 1): 1}
    assert qsym.f_to_m(qsym.QuasiSymFn(F, {(3,): 1})).terms == \
        {(3,): 1, (2, 1): 1, (1, 2): 1, (1, 1, 1): 1}


def test_f_to_m_of_8_chain_sum_has_finest_coefficient_8():
    q = qsym.QuasiSymFn(F, {(1, 3): 1, (1, 2, 1): 2, (2, 2): 2,
                            (1, 1, 2): 1, (3, 1): 1, (2, 1, 1): 1})
    assert qsym.f_to_m(q).coeff((1, 1, 1, 1)) == 8


@pytest.mark.parametrize("n", range(0, 7))
def test_round_trip_identity_on_basis_elements(n):
    for alpha in compositions(n):
        m = qsym.QuasiSymFn(M, {alpha: 1})
        assert qsym.f_to_m(qsym.m_to_f(m)).terms == m.terms
        f = qsym.QuasiSymFn(F, {alpha: 1})
        assert qsym.m_to_f(qsym.f_to_m(f)).terms == f.terms


def block_sum(terms: dict, sign: int) -> dict:
    """Term by term: each c*B_beta puts sign^(parts added) * c on each refinement of beta."""
    out = {}
    for beta, c in terms.items():
        for a in compositions(sum(beta)):
            if refines_by_blocks(a, beta):
                out[a] = out.get(a, 0) + sign ** (len(a) - len(beta)) * c
    return {a: c for a, c in out.items() if c}


def test_basis_changes_match_block_sums_on_basis_elements():
    # every basis element of weight up to 8, then seeded combinations across
    # weights 0..9, where refinements of different terms meet and some cancel;
    # the first combination is the zero function
    comps = [a for n in range(10) for a in compositions(n)]
    rng = random.Random(18)
    inputs = [{beta: 1} for beta in comps if sum(beta) < 9]
    inputs += [{rng.choice(comps): rng.randint(-3, 3) for _ in range(size)}
               for size in [0] + [rng.randint(1, 12) for _ in range(40)]]
    for terms in inputs:
        assert qsym.f_to_m(qsym.QuasiSymFn(F, terms)).terms == block_sum(terms, 1)
        assert qsym.m_to_f(qsym.QuasiSymFn(M, terms)).terms == block_sum(terms, -1)
    with pytest.raises(ValueError):
        qsym.f_to_m(qsym.QuasiSymFn(M, {(1,): 1}))
    with pytest.raises(ValueError):
        qsym.m_to_f(qsym.QuasiSymFn(F, {(1,): 1}))


def test_round_trip_on_random_combinations():
    rng = random.Random(3)
    comps = [a for n in range(5) for a in compositions(n)]
    for _ in range(25):
        terms = {rng.choice(comps): rng.randint(-9, 9) for _ in range(6)}
        q = qsym.QuasiSymFn(M, terms)
        assert qsym.f_to_m(qsym.m_to_f(q)) == q
        assert qsym.m_to_f(q) == q  # equality is basis independent


def test_m11_round_trip():
    q = qsym.QuasiSymFn(M, {(1, 1): 1})
    assert qsym.f_to_m(qsym.m_to_f(q)).terms == {(1, 1): 1}


def test_is_symmetric():
    assert qsym.is_symmetric(
        qsym.QuasiSymFn(M, {(1, 1, 1): 1, (2, 1): 1, (1, 2): 1}))
    assert not qsym.is_symmetric(qsym.QuasiSymFn(M, {(2, 1): 1}))
    assert qsym.is_symmetric(qsym.QuasiSymFn(M, {}))
    assert qsym.is_symmetric(qsym.QuasiSymFn(F, {(): 3}))


def listed_is_symmetric(q):
    """Symmetry by listing every rearrangement of every part multiset."""
    mq = qsym.to_m(q)
    seen = {}
    for alpha, c in mq.terms.items():
        lam = tuple(sorted(alpha, reverse=True))
        if seen.setdefault(lam, c) != c:
            return False
    return all(mq.terms.get(alpha, 0) == c for lam, c in seen.items()
               for alpha in set(itertools.permutations(lam)))


def test_is_symmetric_agrees_with_listing_every_rearrangement():
    # full classes, classes with one member missing, classes with one
    # coefficient changed; alone and beside a full class of another degree
    cases = 0
    for n in range(1, 7):
        for lam in combinat.partitions_of(n):
            full = {alpha: 2 for alpha in set(itertools.permutations(lam))}
            variants = [full]
            for alpha in full:
                variants.append({b: c for b, c in full.items() if b != alpha})
                variants.append({**full, alpha: 3})
            for terms in variants:
                for extra in ({}, {(1,): 5}, {(): 1}):
                    q = qsym.QuasiSymFn(M, {**terms, **extra})
                    assert qsym.is_symmetric(q) == listed_is_symmetric(q), (lam, terms)
                    cases += 1
    assert cases == 3 * sum(1 + 2 * len(set(itertools.permutations(lam)))
                            for n in range(1, 7) for lam in combinat.partitions_of(n))


def test_equality_within_and_across_bases():
    q = qsym.QuasiSymFn(F, {(2, 1): 1, (1, 2): 1, (1, 1, 1): -1})
    mq = qsym.f_to_m(q)
    assert q == mq and hash(q) == hash(mq)
    assert q == qsym.QuasiSymFn(F, dict(q.terms))
    assert q != qsym.QuasiSymFn(F, {(2, 1): 1})
    assert q != qsym.QuasiSymFn(F, {**q.terms, (1, 1, 1): 1})
    assert mq != qsym.QuasiSymFn(M, {**mq.terms, (2, 1): 7})


def test_schur_expand_of_e12_is_not_factorial():
    start = time.perf_counter()
    e12 = qsym.schur_to_m(qsym.SymFn("s", {(1,) * 12: 1}))
    assert qsym.schur_expand(e12).terms == {(1,) * 12: 1}
    assert time.perf_counter() - start < 1.0


def test_schur_expand_known_expansions():
    ex44 = qsym.QuasiSymFn(F, {(1, 1, 1, 1): 9, (1, 1, 2): 30, (1, 2, 1): 51,
                               (1, 3): 30, (2, 1, 1): 30, (2, 2): 51,
                               (3, 1): 30, (4,): 9})
    assert qsym.schur_expand(ex44).terms == {
        (4,): 9, (3, 1): 30, (2, 2): 21, (2, 1, 1): 30, (1, 1, 1, 1): 9}

    ex34 = qsym.QuasiSymFn(M, {(1, 1, 1): 1, (2, 1): 1, (1, 2): 1})
    assert qsym.schur_expand(ex34).terms == {(2, 1): 1, (1, 1, 1): -1}

    ex22 = qsym.QuasiSymFn(F, {(1, 3): 1, (1, 2, 1): 2, (2, 2): 2,
                               (1, 1, 2): 1, (3, 1): 1, (2, 1, 1): 1})
    assert qsym.schur_expand(ex22).terms == {(3, 1): 1, (2, 2): 1, (2, 1, 1): 1}


def test_schur_expand_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        qsym.schur_expand(qsym.QuasiSymFn(F, {(1, 2): 1}))


def test_schur_expand_reexpansion_round_trip():
    rng = random.Random(11)
    for _ in range(15):
        n = rng.randint(1, 5)
        terms = {lam: rng.randint(-4, 4) for lam in combinat.partitions_of(n)}
        f = qsym.SymFn("s", terms)
        as_m = qsym.schur_to_m(f)
        assert qsym.is_symmetric(as_m)
        assert qsym.schur_expand(as_m).terms == f.terms


def test_h_expand_to_schur():
    assert qsym.h_expand_to_schur((1,)).terms == {(1,): 1}
    assert qsym.h_expand_to_schur((2, 1)).terms == {(3,): 1, (2, 1): 1}
    assert qsym.h_expand_to_schur((1, 1, 1)).terms == \
        {(3,): 1, (2, 1): 2, (1, 1, 1): 1}


def test_chain_counting_definition():
    # the M coefficient counts the chains whose descents are refined by alpha
    rng = random.Random(9)
    for _ in range(20):
        seqs = [[rng.randint(0, 6) for _ in range(rng.randint(1, 6))]
                for _ in range(rng.randint(1, 8))]
        n = len(seqs[0])
        seqs = [s for s in seqs if len(s) == n]
        descents = [combinat.descent_composition(s) for s in seqs]
        total = qsym.QuasiSymFn(F, {})
        for d in descents:
            total = total + qsym.QuasiSymFn(F, {d: 1})
        as_m = qsym.f_to_m(total)
        for alpha in compositions(n):
            want = sum(1 for d in descents if combinat.refines(alpha, d))
            assert as_m.coeff(alpha) == want


def test_json_form_sorted_decreasing_lex():
    q = qsym.QuasiSymFn(F, {(1, 2, 1): 51, (4,): 9, (2, 2): 51})
    out = q.to_json()
    assert out["basis"] == "F"
    assert [t["index"] for t in out["terms"]] == [[4], [2, 2], [1, 2, 1]]


def test_indices_that_canonicalize_alike_add_their_coefficients():
    assert qsym.SymFn("s", {(2, 1): 1, (2, 1, 0): 2}).terms == {(2, 1): 3}
    assert qsym.SymFn("s", {(2, 1): 1, (2, 1, 0): -1}).terms == {}
    assert qsym.SymFn("h", {(): 1, (0,): 2, (0, 0): -1}).terms == {(): 2}


def test_unknown_basis_is_rejected():
    with pytest.raises(ValueError, match="unknown symmetric basis 'F'"):
        qsym.SymFn("F", {(1,): 1})
    with pytest.raises(ValueError, match="unknown quasisymmetric basis 's'"):
        qsym.QuasiSymFn("s", {(1,): 1})
