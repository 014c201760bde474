"""Command-line front door.

One verb per computation: finite intervals, affine intervals, the weak
order, k-Schur matrices, the core bijection, embeddings and relation
sweeps.  Human output mirrors the index notation of the underlying
functions (F[1,2,1], S[2,1], windows as [-6,8,...]); --json emits the
versioned structured schema instead.

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


def _fmt_terms(letter: str, terms: dict) -> str:
    if not terms:
        return "0"
    bits = []
    for idx, c in sorted(terms.items(), reverse=True):
        body = f"{letter}[" + ",".join(str(x) for x in idx) + "]"
        if bits:
            sign = " + " if c > 0 else " - "
            mag = abs(c)
            bits.append(sign + (body if mag == 1 else f"{mag}{body}"))
        else:
            if c == 1:
                bits.append(body)
            elif c == -1:
                bits.append("-" + body)
            else:
                bits.append(f"{c}{body}")
    return "".join(bits)


def fmt_qsym(q: qsym.QuasiSymFn) -> str:
    return _fmt_terms(q.basis, q.terms)


def fmt_sym(f: qsym.SymFn) -> str:
    return _fmt_terms(f.basis.upper() if f.basis == "s" else f.basis, f.terms)


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


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
        """A verb's parser with --json, and with --cap when it enumerates."""
        p = sub.add_parser(name, help=summary)
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


def _emit(args, payload: dict, human_lines) -> None:
    if args.json:
        print(_dump_json({"schema": SCHEMA, **payload}))
    else:
        for line in human_lines:
            print(line)


def _run_rbruhat(args) -> int:
    zeta = rbruhat.parse_permutation(args.zeta)
    u, w, r = rbruhat.interval_from_zeta(zeta)
    chains = rbruhat.all_chains(u, w, r, cap=args.cap)
    kf = rbruhat.k_function_r(u, w, r, cap=args.cap)
    count = len(chains)
    lines = [f"r = {r}",
             f"u = {u.one_line()}",
             f"w = {w.one_line()}",
             f"chains: {count}",
             f"K_F = {fmt_qsym(kf)}"]
    payload = {"verb": "rbruhat", "r": r, "u": list(u.images), "w": list(w.images),
               "chain_count": count, "K_F": kf.to_json()}
    if args.chains:
        rendered = [f"{c.render_steps()}  |  {c.render_word()}" for c in chains]
        lines += ["chain list:"] + ["  " + s for s in rendered]
        payload["chains"] = [list(c.steps) for c in chains]
    if args.schur:
        ks = qsym.schur_expand(kf)
        lines.append(f"K_S = {fmt_sym(ks)}")
        payload["K_schur"] = ks.to_json()
    _emit(args, payload, lines)
    return 0


def _run_affine(args) -> int:
    u = affineperm.parse_window(args.u, args.k)
    w = affineperm.parse_window(args.w, args.k)
    rank = affineperm.length_affine(w) - affineperm.length_affine(u)
    if args.count_only:
        count = affinegraph.path_count(u, w, cap=args.cap)
    else:
        found = affinegraph.paths(u, w, cap=args.cap)
        count = len(found)
    lines = [f"rank = {rank}", f"paths: {count}"]
    payload = {"verb": "affine", "rank": rank, "path_count": count}
    if not args.count_only:
        kf = qsym.f_sum(p.labels for p in found)
        ks = qsym.schur_expand(kf)
        lines += [f"K_F = {fmt_qsym(kf)}", f"K_S = {fmt_sym(ks)}"]
        payload["K_F"] = kf.to_json()
        payload["K_schur"] = ks.to_json()
    _emit(args, payload, lines)
    return 0


def _run_weak(args) -> int:
    u = affineperm.parse_window(args.u, args.k)
    w = affineperm.parse_window(args.w, args.k)
    km = kschur.k_function_weak(u, w)
    kf = qsym.m_to_f(km)
    ks = qsym.schur_expand(km)
    lines = [f"K_M = {fmt_qsym(km)}",
             f"K_F = {fmt_qsym(kf)}",
             f"K_S = {fmt_sym(ks)}"]
    payload = {"verb": "weak", "K_M": km.to_json(), "K_F": kf.to_json(),
               "K_schur": ks.to_json()}
    _emit(args, payload, lines)
    return 0


def _run_kschur(args) -> int:
    km = kschur.k_matrix(args.k, args.degree)
    lines = []
    payload = {"verb": "kschur", "k": args.k, "degree": args.degree}
    if args.matrix or not args.invert:
        lines.append("rows: h index, columns: 0-grassmannian windows")
        header = "            " + "  ".join(u.text() for u in km.columns)
        lines.append(header)
        matrix = []
        for lam in km.rows:
            row = [km.entry(lam, u) for u in km.columns]
            matrix.append(row)
            label = "h[" + ",".join(str(x) for x in lam) + "]"
            lines.append(f"{label:<12}" + "  ".join(str(c) for c in row))
        payload["rows"] = [list(lam) for lam in km.rows]
        payload["columns"] = [u.text() for u in km.columns]
        payload["matrix"] = matrix
    if args.invert:
        inv = []
        inverse = kschur.invert_k_matrix(km)
        for lam, u in zip(km.rows, km.columns):
            hexp = inverse[lam]
            lines.append(f"S^({args.k}){u.text()} = {fmt_sym(hexp)}")
            inv.append({"window": u.text(), "h_expansion": hexp.to_json()})
        payload["inverted"] = inv
    _emit(args, payload, lines)
    return 0


def _run_core(args) -> int:
    if (args.u is None) == (args.mu is None):
        raise BruhatKitError("pass exactly one of --u or --mu")
    if args.u is not None:
        u = affineperm.parse_window(args.u, args.k)
        core = affineperm.to_core(u)
        lines = [f"{args.k + 1}-core: {core.text()}"]
    else:
        mu = _parse_partition(args.mu)
        core = affineperm.CorePartition(mu, args.k + 1)
        u = affineperm.from_core(core, args.k)
        lines = [f"window: {u.text()}"]
    payload = {"verb": "core", "window": u.text(), "core": list(core.partition)}
    _emit(args, payload, lines)
    return 0


def _run_embed(args) -> int:
    zeta = rbruhat.parse_permutation(args.zeta)
    x, y, r = rbruhat.interval_from_zeta(zeta)
    data = embedding.build_embedding(x, y, r)
    u_prime = "[" + ",".join(str(x) for x in data.u_prime_window) + "]"
    lines = [f"k = {data.k}", f"s = {data.s}", f"u' = {u_prime}",
             f"u = {data.u.text()}", f"v = {data.v.text()}"]
    payload = {"verb": "embed", "k": data.k, "s": data.s,
               "u": data.u.text(), "v": data.v.text(),
               "u_prime": list(data.u_prime_window)}
    if args.verify:
        report = embedding.verify_embedding(data, cap=args.cap)
        lines += [f"chains_mapped: {report.chains_total}",
                  f"all_nonzero: {report.mapped_nonzero == report.chains_total}",
                  f"K_domination: {report.dominated}"]
        payload.update({"chains_mapped": report.chains_total,
                        "all_nonzero": report.mapped_nonzero == report.chains_total,
                        "K_domination": report.dominated})
        if not report.ok:
            _emit(args, payload, lines)
            raise VerificationFailed(f"embedding verification failed: {report.failures}")
    _emit(args, payload, lines)
    return 0


def _run_relations(args) -> int:
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
    lines = []
    results = []
    ok = True
    for tag in tags:
        res = affinegraph.sweep_relation(tag, args.k, args.sweep, rng)
        ok = ok and res.ok
        lines.append(f"{tag}: checked {res.checked}, nonzero {res.nonzero}, "
                     f"failures {len(res.failures)}")
        results.append({"rule": tag, "checked": res.checked,
                        "nonzero": res.nonzero, "failures": len(res.failures)})
    payload = {"verb": "relations", "k": args.k, "seed": args.seed,
               "trials": args.sweep, "results": results, "ok": ok}
    _emit(args, payload, lines + [f"ok: {ok}"])
    if not ok:
        failed = ", ".join(r["rule"] for r in results if r["failures"])
        raise VerificationFailed(f"relations failed: {failed}")
    return 0


_RUNNERS = {
    "rbruhat": _run_rbruhat,
    "affine": _run_affine,
    "weak": _run_weak,
    "kschur": _run_kschur,
    "core": _run_core,
    "embed": _run_embed,
    "relations": _run_relations,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "cap" in args and args.cap < 0:
            raise BruhatKitError(f"--cap must be nonnegative, got {args.cap}")
        return _RUNNERS[args.verb](args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except VerificationFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except (BruhatKitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
