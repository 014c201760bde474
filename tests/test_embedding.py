import itertools
import random

from bruhat_kit import affinegraph, affineperm, embedding, interval, qsym, rbruhat
from bruhat_kit.rbruhat import FinitePermutation as P


def test_section5_example():
    x = P((1, 4, 2, 6, 3, 5))
    y = P((3, 5, 6, 1, 2, 4))
    e = embedding.build_embedding(x, y, 3)
    assert e.k == 5 and e.s == 3
    assert e.u_prime_window == (-7, -2, 7, -6, 8, 3)
    assert e.u.window == (-6, 8, 3, -1, 4, 13)
    assert e.v.window == (8, -6, -2, 9, 13, -1)


def test_section5_chain_images():
    x = P((1, 4, 2, 6, 3, 5))
    y = P((3, 5, 6, 1, 2, 4))
    e = embedding.build_embedding(x, y, 3)
    first = rbruhat.first_chain(x, y, 3)
    img = embedding.map_chain(first, e)
    assert img is not None
    assert img.steps[0] == (2 - 3, 6 - 3)
    chains = rbruhat.all_chains(x, y, 3)
    images = [embedding.map_chain(c, e) for c in chains]
    assert all(p is not None for p in images)
    assert len({p.steps for p in images}) == len(chains)
    assert {p.end() for p in images} == {e.v}


def test_section5_verification_report():
    x = P((1, 4, 2, 6, 3, 5))
    y = P((3, 5, 6, 1, 2, 4))
    e = embedding.build_embedding(x, y, 3)
    report = embedding.verify_embedding(e)
    assert report.ok
    assert report.chains_total == report.mapped_nonzero == 8
    assert report.k_affine.dominates(report.k_schubert)
    # strict domination in at least one coefficient here (240 vs 8 chains)
    assert not report.k_schubert.dominates(report.k_affine)


def test_window_pattern_matches_x_inverse():
    x = P((1, 4, 2, 6, 3, 5))
    y = P((3, 5, 6, 1, 2, 4))
    e = embedding.build_embedding(x, y, 3)
    n1 = e.k + 1
    segment = [e.u(i - e.s) for i in range(1, n1 + 1)]
    assert tuple(segment) == e.u_prime_window
    xinv = [x.inverse()(i) for i in range(1, n1 + 1)]
    ranks = lambda seq: [sorted(seq).index(v) for v in seq]
    assert ranks(segment) == ranks(xinv)
    # the r smallest entries of the segment are the nonpositive ones
    r = 3
    assert sorted(segment)[:r] == sorted(v for v in segment if v <= 0)


def test_rank_one_and_degenerate_blocks():
    x, y, r = rbruhat.interval_from_zeta(P((2, 1)))
    e = embedding.build_embedding(x, y, r)
    assert affineperm.is_grassmannian(e.u)
    report = embedding.verify_embedding(e)
    assert report.ok and report.chains_total == 1

    # no descent before or after r in x = identity blocks
    x, y, r = rbruhat.interval_from_zeta(P((3, 1, 2)))
    report = embedding.verify_embedding(embedding.build_embedding(x, y, r))
    assert report.ok


def test_identity_interval():
    x = P((2, 1))
    e = embedding.build_embedding(x, x, 1)
    assert e.u == e.v
    assert embedding.verify_embedding(e).ok


def test_randomized_sweep_with_domination():
    rng = random.Random(99)
    done = 0
    while done < 25:
        perm = list(range(1, 7))
        rng.shuffle(perm)
        zeta = P(perm)
        if not zeta.images:
            continue
        x, y, r = rbruhat.interval_from_zeta(zeta)
        if rbruhat.length(y) - rbruhat.length(x) > 5:
            continue
        e = embedding.build_embedding(x, y, r)
        report = embedding.verify_embedding(e)
        assert report.ok, (perm, report.failures)
        done += 1


def nonidentity_zetas(n):
    for images in itertools.permutations(range(1, n + 1)):
        zeta = P(images)
        if zeta.images:
            yield zeta


def test_embedded_affine_k_dominates_the_finite_k_in_schur_functions():
    for n, equal_expected, cases_expected in ((4, 19, 23), (5, 67, 119), (6, 232, 719)):
        cases = equal = 0
        for zeta in nonidentity_zetas(n):
            x, y, r = rbruhat.interval_from_zeta(zeta)
            e = embedding.build_embedding(x, y, r)
            finite = qsym.schur_expand(rbruhat.interval_dag(x, y, r).k_function()).terms
            affine = qsym.schur_expand(affinegraph.interval_dag(e.u, e.v).k_function()).terms
            assert all(affine.get(lam, 0) >= c for lam, c in finite.items()), zeta.images
            cases += 1
            equal += affine == finite
        assert (equal, cases) == (equal_expected, cases_expected), n


def chain_by_chain_report(e):
    """(chains, nonzero images, common endpoint, K terms, domination) from
    every chain of the source interval, listed and mapped one by one."""
    x, y, r = e.source_interval
    chains = rbruhat.all_chains(x, y, r)
    images = [embedding.map_chain(c, e) for c in chains]
    ends = {p.end() for p in images if p is not None}
    common = len(ends) == 1 and (not chains or ends == {e.v})
    k_schub = rbruhat.k_function_r(x, y, r)
    k_aff = affinegraph.interval_dag(e.u, e.v).k_function()
    return (len(chains), sum(p is not None for p in images), common,
            k_schub.terms, k_aff.dominates(k_schub))


def test_verify_builds_the_finite_dag_once_and_matches_chain_by_chain(monkeypatch):
    embeddings = [embedding.build_embedding(*rbruhat.interval_from_zeta(zeta))
                  for zeta in nonidentity_zetas(6)]
    expected = [chain_by_chain_report(e) for e in embeddings]
    builds = []
    original = rbruhat.interval_dag

    def counting(*args):
        builds.append(args)
        return original(*args)

    def forbidden(*args, **kwargs):
        raise AssertionError("verify_embedding lists the interval a second time")

    monkeypatch.setattr(rbruhat, "interval_dag", counting)
    monkeypatch.setattr(rbruhat, "all_chains", forbidden)
    monkeypatch.setattr(rbruhat, "k_function_r", forbidden)
    monkeypatch.setattr(interval.HasseDAG, "walks", forbidden)
    monkeypatch.setattr(embedding, "map_chain", forbidden)
    for e, want in zip(embeddings, expected):
        builds.clear()
        report = embedding.verify_embedding(e)
        assert builds == [e.source_interval]
        got = (report.chains_total, report.mapped_nonzero, report.common_endpoint,
               report.k_schubert.terms, report.dominated)
        assert got == want, e.source_interval
    assert len(embeddings) == 719


def affine_steps(e):
    """(image, a, b) for every affine step taken by the images of the chains."""
    x, y, r = e.source_interval
    steps = set()
    for chain in rbruhat.all_chains(x, y, r):
        path = embedding.map_chain(chain, e)
        for cur, edge in zip((path.start,) + tuple(d.target for d in path.edges), path.edges):
            steps.add((cur, edge.a, edge.b))
    return sorted(steps, key=lambda t: (t[0].window, t[1], t[2]))


def test_verify_matches_chain_by_chain_with_one_affine_step_broken(monkeypatch):
    # the Section 5 interval (8 chains) and a rank-one interval, whose one chain dies
    intervals = [(P((1, 4, 2, 6, 3, 5)), P((3, 5, 6, 1, 2, 4)), 3),
                 rbruhat.interval_from_zeta(P((2, 1)))]
    original = affinegraph.apply_t
    cases, survivors = 0, set()
    for e in (embedding.build_embedding(*xyr) for xyr in intervals):
        for chosen in affine_steps(e):
            def zero_at_chosen(u, a, b):
                return None if (u, a, b) == chosen else original(u, a, b)

            monkeypatch.setattr(affinegraph, "apply_t", zero_at_chosen)
            report = embedding.verify_embedding(e)
            got = (report.chains_total, report.mapped_nonzero, report.common_endpoint)
            assert got == chain_by_chain_report(e)[:3], chosen
            assert not report.ok and report.failures[0][0] == "zero image"
            survivors.add(report.mapped_nonzero)

            # a wrong nonzero image on that step must fail the check as well
            def stay_at_chosen(u, a, b):
                return u if (u, a, b) == chosen else original(u, a, b)

            monkeypatch.setattr(affinegraph, "apply_t", stay_at_chosen)
            assert not embedding.verify_embedding(e).ok, chosen
            monkeypatch.setattr(affinegraph, "apply_t", original)
            cases += 1
    assert (cases, survivors) == (19, {0, 5, 6, 7})
