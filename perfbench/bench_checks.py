"""Output checks for benchmark jobs, sharing no code with bruhat_kit.

`check(job, text)` parses one job's `--json` output and returns a list of
problems; an empty list means the output passed.  The checks use only the
payload, the job's own expectations from bench_inputs, and arithmetic
written here:

- the output is canonical JSON: re-serializing it reproduces it;
- for a chain function K with Schur expansion sum c_lam s_lam, the sum of
  c_lam * f^lam (f^lam by the hook-length formula) is the coefficient of
  x1...xn, which is also the sum of the F coefficients, which is the
  number of chains or paths;
- finite Schur coefficients are nonnegative;
- the k-Schur matrix is unitriangular and the inverted columns invert it;
- embeddings map every chain and dominate; relation sweeps report ok.
"""

import json
from math import factorial

import bench_inputs as bi


def hook_length_count(lam) -> int:
    """Standard Young tableaux of shape lam: n! over the product of hooks."""
    lam = list(lam)
    conj = [sum(1 for row in lam if row > c) for c in range(lam[0])] if lam else []
    hooks = 1
    for r, row in enumerate(lam):
        for c in range(row):
            hooks *= (row - c - 1) + (conj[c] - r - 1) + 1
    return factorial(sum(lam)) // hooks


def _terms(fn: dict, basis: str, problems: list) -> dict:
    if fn.get("basis") != basis:
        problems.append(f"expected basis {basis}, got {fn.get('basis')!r}")
    return {tuple(t["index"]): t["coeff"] for t in fn.get("terms", [])}


def _schur_sum(payload: dict, f_sum: int, problems: list, positive: bool) -> None:
    schur = _terms(payload["K_schur"], "s", problems)
    total = sum(c * hook_length_count(lam) for lam, c in schur.items())
    if total != f_sum:
        problems.append(f"sum c_lam f^lam = {total}, sum of F coefficients = {f_sum}")
    if positive and any(c < 0 for c in schur.values()):
        problems.append("negative Schur coefficient")


def _option(argv, name):
    return argv[argv.index(name) + 1]


def _check_rbruhat(job, p, problems):
    zeta = tuple(int(x) for x in _option(job["argv"], "--zeta").split())
    u, w, r = bi.interval_from_zeta(zeta)
    if (p["r"], tuple(p["u"]), tuple(p["w"])) != (r, _drop_fixed_tail(u), _drop_fixed_tail(w)):
        problems.append("interval (u, w, r) differs from zeta's")
    if p["chain_count"] != job["count"]:
        problems.append(f"chain_count {p['chain_count']}, expected {job['count']}")
    f_sum = sum(_terms(p["K_F"], "F", problems).values())
    if f_sum != p["chain_count"]:
        problems.append(f"sum of F coefficients {f_sum} != chain_count {p['chain_count']}")
    _schur_sum(p, f_sum, problems, positive=True)
    if "--chains" in job["argv"]:
        chains = [tuple(map(tuple, c)) for c in p["chains"]]
        if len(chains) != p["chain_count"] or len(set(chains)) != len(chains):
            problems.append("chain list length or distinctness is wrong")
        for steps in chains:
            if not _is_chain(u, w, r, steps):
                problems.append(f"not an r-Bruhat chain: {steps}")
                break


def _drop_fixed_tail(p):
    """The one-line form the package prints: trailing fixed points removed."""
    n = len(p)
    while n and p[n - 1] == n:
        n -= 1
    return tuple(p[:n])


def _is_chain(u, w, r, steps) -> bool:
    """Each step swaps values a < b across r with nothing between them in between."""
    x = list(u)
    for a, b in steps:
        if not (a < b and a in x and b in x):
            return False
        i, j = x.index(a), x.index(b)
        if not (i < r <= j) or any(a < x[m] < b for m in range(i + 1, j)):
            return False
        x[i], x[j] = b, a
    return tuple(x) == tuple(w)


def _check_affine(job, p, problems):
    u = tuple(int(x) for x in _option(job["argv"], "--u").strip("[]").split(","))
    w = tuple(int(x) for x in _option(job["argv"], "--w").strip("[]").split(","))
    if p["rank"] != bi.affine_length(w) - bi.affine_length(u):
        problems.append(f"rank {p['rank']} differs from the length difference")
    if p["path_count"] != job["count"]:
        problems.append(f"path_count {p['path_count']}, expected {job['count']}")
    if "--count-only" in job["argv"]:
        if "K_F" in p or "K_schur" in p:
            problems.append("count-only output carries K")
        return
    f_sum = sum(_terms(p["K_F"], "F", problems).values())
    if f_sum != p["path_count"]:
        problems.append(f"sum of F coefficients {f_sum} != path_count {p['path_count']}")
    _schur_sum(p, f_sum, problems, positive=False)


def _check_weak(job, p, problems):
    f_sum = sum(_terms(p["K_F"], "F", problems).values())
    m_terms = _terms(p["K_M"], "M", problems)
    rank = max((sum(i) for i in m_terms), default=0)
    if f_sum != job["count"] or m_terms.get((1,) * rank, 0) != job["count"]:
        problems.append(f"F sum {f_sum} / M[1^n] {m_terms.get((1,) * rank, 0)}, "
                        f"expected {job['count']} weak chains")
    _schur_sum(p, f_sum, problems, positive=False)


def _kbounded_partitions(n: int, k: int, top: int | None = None) -> list:
    """Partitions of n with parts <= k, in decreasing lex order."""
    top = min(k if top is None else top, n)
    if n == 0:
        return [()]
    return [(first,) + rest for first in range(top, 0, -1)
            for rest in _kbounded_partitions(n - first, k, first)]


def _check_kschur(job, p, problems):
    rows = [tuple(r) for r in p["rows"]]
    if rows != _kbounded_partitions(job["degree"], job["k"]):
        problems.append("rows are not the k-bounded partitions in decreasing lex order")
    m = p["matrix"]
    size = len(rows)
    if len(m) != size or any(len(row) != size for row in m) or len(p["columns"]) != size:
        problems.append("matrix is not square")
        return
    for i in range(size):
        if m[i][i] != 1 or any(m[i][j] for j in range(i + 1, size)):
            problems.append(f"matrix is not unitriangular at row {i}")
            return
    inv = p["inverted"]
    if [e["window"] for e in inv] != p["columns"]:
        problems.append("inverted columns do not match the matrix columns")
        return
    expansions = [_terms(e["h_expansion"], "h", problems) for e in inv]
    # h_lam = sum_j K(lam, col_j) s_col_j and s_col_j = sum_mu c_j(mu) h_mu
    for i, lam in enumerate(rows):
        for mu in rows:
            total = sum(m[i][j] * expansions[j].get(mu, 0) for j in range(size))
            if total != (1 if mu == lam else 0):
                problems.append(f"matrix times inverse is not the identity at {lam}, {mu}")
                return


def _check_embed(job, p, problems):
    if p["all_nonzero"] is not True or p["K_domination"] is not True:
        problems.append("embedding verification failed")
    if p["chains_mapped"] != job["count"]:
        problems.append(f"chains_mapped {p['chains_mapped']}, expected {job['count']}")


def _check_relations(job, p, problems):
    if p["ok"] is not True:
        problems.append("relations report ok false")
    rules = _option(job["argv"], "--rules").split(",")
    trials = int(_option(job["argv"], "--sweep"))
    if [r["rule"] for r in p["results"]] != rules:
        problems.append("relations results do not list the requested rules")
    for r in p["results"]:
        if r["failures"] or not 0 <= r["nonzero"] <= r["checked"] <= trials:
            problems.append(f"inconsistent sweep result {r}")


_CHECKS = {"rbruhat": _check_rbruhat, "affine": _check_affine, "weak": _check_weak,
           "kschur": _check_kschur, "embed": _check_embed, "relations": _check_relations}


def check(job: dict, text: str) -> list[str]:
    """Problems found in one job's --json output (empty when it passes)."""
    try:
        payload = json.loads(text)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    problems = []
    if json.dumps(payload, sort_keys=True) != text.rstrip("\n"):
        problems.append("output is not canonical JSON")
    verb = job["argv"][0]
    if payload.get("schema") != "bruhat-kit/1" or payload.get("verb") != verb:
        problems.append("wrong schema or verb")
        return problems
    try:
        _CHECKS[verb](job, payload, problems)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        problems.append(f"malformed payload: {exc!r}")
    return problems
