"""Command-line front door.

One verb per computation: finite intervals, affine intervals, the weak
order, k-Schur matrices, the core bijection, embeddings and relation
sweeps.  Each verb computes one record.  --json prints it under the
versioned schema; human output is printed from the same record, in the
index notation of the underlying functions (F[1,2,1], S[2,1], windows as
[-6,8,...]).  main is the one place that prints.

Exit codes: 0 ok, 2 argument parse error, 3 precondition violation,
4 enumeration cap exceeded, 5 verification failed (embed --verify,
relations).
"""

import argparse
import json
import random
import sys
from functools import cache

from . import affinegraph, affineperm, combinat, embedding, interval, kschur, qsym, rbruhat
from .errors import BruhatKitError, CapExceeded, VerificationFailed

SCHEMA = "bruhat-kit/1"


def _seq(xs, brackets: str = "[]") -> str:
    return brackets[0] + ",".join(str(x) for x in xs) + brackets[1]


def _fmt(fn: dict) -> str:
    """A function's to_json() form as text, 2F[2,1] - F[1,1,1]; basis s prints as S."""
    letter = "S" if fn["basis"] == "s" else fn["basis"]
    text = ""
    for term in fn["terms"]:
        c = term["coeff"]
        body = ("" if abs(c) == 1 else str(abs(c))) + letter + _seq(term["index"])
        if text:
            text += (" + " if c > 0 else " - ") + body
        else:
            text = ("-" if c < 0 else "") + body
    return text or "0"


def _parse_partition(text: str) -> tuple:
    body = text.strip().lstrip("([").rstrip(")]")
    if not body:
        return ()
    return combinat.as_partition(int(p) for p in body.replace(",", " ").split())


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing does not change it."""
    top = argparse.ArgumentParser(prog="bruhat-kit", description=__doc__)
    sub = top.add_subparsers(dest="verb", required=True)

    def verb(name: str, summary: str, cap: bool = False) -> argparse.ArgumentParser:
        """A verb's parser with --json, and with --cap when it enumerates; it sets
        run, which computes the verb's record, and show, which formats it as text."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=globals()[f"_run_{name}"], show=globals()[f"_show_{name}"])
        p.add_argument("--json", action="store_true", help="emit structured output")
        if cap:
            p.add_argument("--cap", type=int, default=interval.DEFAULT_CAP,
                           help="enumeration cap (default 10^6)")
        return p

    p = verb("rbruhat", "interval and chain function from zeta", cap=True)
    p.add_argument("--zeta", required=True, help='one-line permutation, e.g. "3 6 2 5 4 1"')
    p.add_argument("--chains", action="store_true", help="list every chain")
    p.add_argument("--schur", action="store_true", help="also print the Schur expansion")

    p = verb("affine", "affine 0-Bruhat interval", cap=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--u", required=True, help='window, e.g. "[-6,8,3,-1,4,13]"')
    p.add_argument("--w", required=True)
    p.add_argument("--count-only", action="store_true", help="path count only")

    p = verb("weak", "weak-order interval function")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--u", required=True)
    p.add_argument("--w", required=True)

    p = verb("kschur", "Pieri matrix and its inversion")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--matrix", action="store_true", help="print the matrix")
    p.add_argument("--invert", action="store_true", help="print all h-expansions")

    p = verb("core", "window <-> core bijection")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--u", help="window to send to its core")
    p.add_argument("--mu", help='core partition, e.g. "4,1,1"')

    p = verb("embed", "affine embedding of a finite interval", cap=True)
    p.add_argument("--zeta", required=True)
    p.add_argument("--verify", action="store_true", help="map all chains and compare K")

    p = verb("relations", "randomized relation sweeps")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--sweep", type=int, default=1000, help="trials per rule")
    p.add_argument("--rules", default=",".join(affinegraph.ALL_RULES),
                   help="comma list of rule tags; A needs k >= 3 and B1, C2, E1, E2, F, "
                        "X1-X6 need k >= 2: below that a rule reports checked 0 and "
                        "does not fail the run")
    p.add_argument("--seed", type=int, default=0, help="seed of the sweeps")
    return top


def _run_rbruhat(args):
    zeta = rbruhat.parse_permutation(args.zeta)
    u, w, r = rbruhat.interval_from_zeta(zeta)
    chains = rbruhat.all_chains(u, w, r, cap=args.cap)
    kf = rbruhat.k_function_r(u, w, r, cap=args.cap)
    record = {"verb": "rbruhat", "r": r, "u": list(u.images), "w": list(w.images),
              "chain_count": len(chains), "K_F": kf.to_json()}
    if args.chains:
        record["chains"] = [list(c.steps) for c in chains]
    if args.schur:
        record["K_schur"] = qsym.schur_expand(kf).to_json()
    return record, None


def _show_rbruhat(rec, args):
    u = rbruhat.FinitePermutation(rec["u"])
    lines = [f"r = {rec['r']}", f"u = {u.one_line()}",
             f"w = {rbruhat.FinitePermutation(rec['w']).one_line()}",
             f"chains: {rec['chain_count']}", f"K_F = {_fmt(rec['K_F'])}"]
    if args.chains:
        lines.append("chain list:")
        for steps in rec["chains"]:
            chain = rbruhat.SchubertChain(u, tuple(steps))
            lines.append(f"  {chain.render_steps()}  |  {chain.render_word()}")
    if args.schur:
        lines.append(f"K_S = {_fmt(rec['K_schur'])}")
    return lines


def _run_affine(args):
    u = affineperm.parse_window(args.u, args.k)
    w = affineperm.parse_window(args.w, args.k)
    record = {"verb": "affine", "rank": affineperm.length_affine(w) - affineperm.length_affine(u)}
    if args.count_only:
        record["path_count"] = affinegraph.path_count(u, w, cap=args.cap)
    else:
        found = affinegraph.paths(u, w, cap=args.cap)
        kf = qsym.f_sum(p.labels for p in found)
        record.update(path_count=len(found), K_F=kf.to_json(),
                      K_schur=qsym.schur_expand(kf).to_json())
    return record, None


def _show_affine(rec, args):
    lines = [f"rank = {rec['rank']}", f"paths: {rec['path_count']}"]
    if not args.count_only:
        lines += [f"K_F = {_fmt(rec['K_F'])}", f"K_S = {_fmt(rec['K_schur'])}"]
    return lines


def _run_weak(args):
    u = affineperm.parse_window(args.u, args.k)
    w = affineperm.parse_window(args.w, args.k)
    km = kschur.k_function_weak(u, w)
    return {"verb": "weak", "K_M": km.to_json(), "K_F": qsym.m_to_f(km).to_json(),
            "K_schur": qsym.schur_expand(km).to_json()}, None


def _show_weak(rec, args):
    return [f"K_M = {_fmt(rec['K_M'])}", f"K_F = {_fmt(rec['K_F'])}",
            f"K_S = {_fmt(rec['K_schur'])}"]


def _run_kschur(args):
    km = kschur.k_matrix(args.k, args.degree)
    record = {"verb": "kschur", "k": args.k, "degree": args.degree}
    if args.matrix or not args.invert:
        record["rows"] = [list(lam) for lam in km.rows]
        record["columns"] = [u.text() for u in km.columns]
        record["matrix"] = [[km.entry(lam, u) for u in km.columns] for lam in km.rows]
    if args.invert:
        inverse = kschur.invert_k_matrix(km)
        record["inverted"] = [{"window": u.text(), "h_expansion": inverse[lam].to_json()}
                              for lam, u in zip(km.rows, km.columns)]
    return record, None


def _show_kschur(rec, args):
    lines = []
    if "matrix" in rec:
        lines += ["rows: h index, columns: 0-grassmannian windows",
                  "            " + "  ".join(rec["columns"])]
        lines += [f"{'h' + _seq(lam):<12}" + "  ".join(str(c) for c in row)
                  for lam, row in zip(rec["rows"], rec["matrix"])]
    return lines + [f"S^({rec['k']}){inv['window']} = {_fmt(inv['h_expansion'])}"
                    for inv in rec.get("inverted", ())]


def _run_core(args):
    if (args.u is None) == (args.mu is None):
        raise BruhatKitError("pass exactly one of --u or --mu")
    if args.u is not None:
        u = affineperm.parse_window(args.u, args.k)
        core = affineperm.to_core(u)
    else:
        core = affineperm.CorePartition(_parse_partition(args.mu), args.k + 1)
        u = affineperm.from_core(core, args.k)
    return {"verb": "core", "window": u.text(), "core": list(core.partition)}, None


def _show_core(rec, args):
    if args.u is not None:
        return [f"{args.k + 1}-core: {_seq(rec['core'], '()')}"]
    return [f"window: {rec['window']}"]


def _run_embed(args):
    zeta = rbruhat.parse_permutation(args.zeta)
    x, y, r = rbruhat.interval_from_zeta(zeta)
    data = embedding.build_embedding(x, y, r)
    record = {"verb": "embed", "k": data.k, "s": data.s,
              "u": data.u.text(), "v": data.v.text(),
              "u_prime": list(data.u_prime_window)}
    if not args.verify:
        return record, None
    report = embedding.verify_embedding(data, cap=args.cap)
    record.update(chains_mapped=report.chains_total,
                  all_nonzero=report.mapped_nonzero == report.chains_total,
                  K_domination=report.dominated)
    if report.ok:
        return record, None
    return record, VerificationFailed(f"embedding verification failed: {report.failures}")


def _show_embed(rec, args):
    lines = [f"k = {rec['k']}", f"s = {rec['s']}", f"u' = {_seq(rec['u_prime'])}",
             f"u = {rec['u']}", f"v = {rec['v']}"]
    if args.verify:
        lines += [f"chains_mapped: {rec['chains_mapped']}",
                  f"all_nonzero: {rec['all_nonzero']}",
                  f"K_domination: {rec['K_domination']}"]
    return lines


def _run_relations(args):
    rng = random.Random(args.seed)
    tags = [t.strip() for t in args.rules.split(",") if t.strip()]
    if args.k < 1:
        raise BruhatKitError(f"relations need k >= 1, got {args.k}")
    if args.sweep < 1:
        raise BruhatKitError(f"--sweep must be at least 1, got {args.sweep}")
    if not tags:
        raise BruhatKitError(f"--rules {args.rules!r} names no rule")
    for tag in tags:
        if tag not in affinegraph.ALL_RULES:
            raise BruhatKitError(f"unknown rule tag {tag!r}")
    results = []
    for tag in tags:
        res = affinegraph.sweep_relation(tag, args.k, args.sweep, rng)
        results.append({"rule": tag, "checked": res.checked,
                        "nonzero": res.nonzero, "failures": len(res.failures)})
    failed = [r["rule"] for r in results if r["failures"]]
    record = {"verb": "relations", "k": args.k, "seed": args.seed,
              "trials": args.sweep, "results": results, "ok": not failed}
    if not failed:
        return record, None
    return record, VerificationFailed(f"relations failed: {', '.join(failed)}")


def _show_relations(rec, args):
    return [f"{r['rule']}: checked {r['checked']}, nonzero {r['nonzero']}, "
            f"failures {r['failures']}" for r in rec["results"]] + [f"ok: {rec['ok']}"]


def main(argv=None) -> int:
    """Run one verb and print its record: as JSON under --json, else as text.

    A failed verification still prints its record, then exits 5.
    """
    args = build_parser().parse_args(argv)
    try:
        if "cap" in args and args.cap < 0:
            raise BruhatKitError(f"--cap must be nonnegative, got {args.cap}")
        record, failure = args.run(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (BruhatKitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if args.json:
        print(json.dumps({"schema": SCHEMA, **record}, sort_keys=True))
    else:
        for line in args.show(record, args):
            print(line)
    if failure is not None:
        print(f"error: {failure}", file=sys.stderr)
        return 5
    return 0


if __name__ == "__main__":
    sys.exit(main())
