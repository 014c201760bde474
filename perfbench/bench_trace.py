"""Per-layer tracing of bruhat_kit from outside the package.

`Tracer.install()` rebinds public functions of the package to wrappers
defined here, in every bruhat_kit namespace that holds them, so names
imported by value (such as `length_affine` in affinegraph and kschur) are
traced too.  `uninstall()` puts the originals back.  Nothing under src/
changes.

- Span functions record one span per call: name, start, end, parent span
  and job id.  A span's self time is its duration minus the time its
  child spans cover.
- Counted functions are hot primitives: they get a call counter and no
  span, so their time stays in the caller's self time.
- The lru caches (kostka, is_grassmannian, to_core, _segment_counts) are
  not wrapped; their statistics come from cache_info().
"""

import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, function, record the length of the result as items)
SPANNED = (
    ("cli", "main", False),
    ("rbruhat", "all_chains", True),
    ("rbruhat", "k_function_r", False),
    ("affinegraph", "path_count", False),
    ("affinegraph", "paths", True),
    ("affinegraph", "k_function_affine", False),
    ("affinegraph", "out_edges", True),
    ("affinegraph", "sweep_relation", False),
    ("affinegraph", "check_relation", False),
    ("kschur", "k_matrix", False),
    ("kschur", "kschur_in_h", False),
    ("kschur", "k_function_weak", False),
    ("kschur", "random_grassmannian", False),
    ("qsym", "schur_expand", False),
    ("qsym", "is_symmetric", False),
    ("qsym", "f_to_m", False),
    ("qsym", "m_to_f", False),
    ("combinat", "distinct_rearrangements", True),
    ("embedding", "build_embedding", False),
    ("embedding", "verify_embedding", False),
)
COUNTED = (
    ("rbruhat", "length", False),
    ("rbruhat", "swap_values", False),
    ("affinegraph", "apply_t", False),
    ("affinegraph", "sample_letters", False),
    ("affineperm", "length_affine", False),
    ("kschur", "pieri_kschur", False),
    ("kschur", "weak_covers", False),
    ("combinat", "descent_composition", False),
    ("combinat", "refinements", True),
    ("embedding", "map_chain", False),
)
CACHED = (
    ("combinat", "kostka"),
    ("affineperm", "is_grassmannian"),
    ("affineperm", "to_core"),
    ("kschur", "_segment_counts"),
)
# calls of the first function made while the second one is running
WITHIN = {"qsym.f_to_m": "qsym.schur_expand",
          "affinegraph.check_relation": "affinegraph.sweep_relation"}


def _metric(unit, better):
    return {"unit": unit, "better": better}


def _per_layer_spec() -> dict:
    """Every per-layer metric the traced run reports, in report order."""
    spec = {"cli.main.self_s": _metric("s", "lower")}
    wanted = {
        "rbruhat.all_chains": ("calls", "self_s", "items", "per_job"),
        "rbruhat.k_function_r": ("calls", "self_s"),
        "rbruhat.length": ("calls",),
        "rbruhat.swap_values": ("calls",),
        "affinegraph.path_count": ("calls", "self_s"),
        "affinegraph.paths": ("calls", "self_s", "items", "per_job"),
        "affinegraph.k_function_affine": ("calls", "self_s"),
        "affinegraph.out_edges": ("calls", "self_s", "items", "per_job"),
        "affinegraph.sweep_relation": ("calls", "self_s", "accept_ratio"),
        "affinegraph.check_relation": ("calls", "self_s", "raised"),
        "affinegraph.apply_t": ("calls",),
        "affinegraph.sample_letters": ("calls",),
        "affineperm.AffinePermutation": ("calls",),
        "affineperm.length_affine": ("calls",),
        "affineperm.is_grassmannian": ("hits", "misses", "size"),
        "affineperm.to_core": ("hits", "misses", "size"),
        "kschur.k_matrix": ("calls", "self_s", "per_job"),
        "kschur.kschur_in_h": ("calls", "self_s"),
        "kschur.k_function_weak": ("calls", "self_s"),
        "kschur.pieri_kschur": ("calls",),
        "kschur.weak_covers": ("calls",),
        "kschur.random_grassmannian": ("calls", "self_s"),
        "kschur._segment_counts": ("hits", "misses", "size"),
        "qsym.schur_expand": ("calls", "self_s"),
        "qsym.is_symmetric": ("calls", "self_s"),
        "qsym.f_to_m": ("calls", "self_s", "per_schur_expand"),
        "qsym.m_to_f": ("calls", "self_s"),
        "combinat.distinct_rearrangements": ("calls", "self_s", "items"),
        "combinat.kostka": ("hits", "misses", "size"),
        "combinat.refinements": ("items",),
        "combinat.descent_composition": ("calls",),
        "embedding.build_embedding": ("calls", "self_s"),
        "embedding.verify_embedding": ("calls", "self_s"),
        "embedding.map_chain": ("calls",),
    }
    kinds = {"calls": ("count", "lower"), "self_s": ("s", "lower"),
             "items": ("count", "lower"), "per_job": ("calls/job", "lower"),
             "raised": ("count", "lower"), "hits": ("count", "higher"),
             "misses": ("count", "lower"), "size": ("count", "lower"),
             "accept_ratio": ("1", "higher"), "per_schur_expand": ("calls/call", "lower")}
    for name, suffixes in wanted.items():
        for suffix in suffixes:
            spec[f"{name}.{suffix}"] = _metric(*kinds[suffix])
    spec["trace.overhead_ratio"] = _metric("1", "higher")
    return spec


PER_LAYER = _per_layer_spec()


def package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "bruhat_kit" or name.startswith("bruhat_kit."))]


class Tracer:
    """Spans and counters for one traced pass; install, run jobs, uninstall."""

    def __init__(self):
        self.job = None
        self.spans = []          # (span id, parent id, job, name, start, end)
        self._stack = []         # [span id, time covered by children]
        self._next_id = 0
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.items = Counter()
        self.raised = Counter()
        self.jobs_reached = defaultdict(set)
        self.within = Counter()
        self._active = Counter()
        self.sweep_checked = 0
        self._undo = []

    def _enter(self, name):
        self.calls[name] += 1
        self.jobs_reached[name].add(self.job)
        outer = WITHIN.get(name)
        if outer is not None and self._active[outer]:
            self.within[name] += 1

    def _spanned(self, name, fn, items):
        def wrapper(*args, **kwargs):
            self._enter(name)
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [sid, 0.0]
            self._stack.append(frame)
            self._active[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.raised[name] += 1
                raise
            finally:
                end = perf_counter()
                self._active[name] -= 1
                self._stack.pop()
                self.self_s[name] += (end - start) - frame[1]
                if self._stack:
                    self._stack[-1][1] += end - start
                self.spans.append((sid, parent, self.job, name, start, end))
            if items:
                self.items[name] += len(result)
            if name == "affinegraph.sweep_relation":
                self.sweep_checked += result.checked
            return result
        return wrapper

    def _counted(self, name, fn, items):
        def wrapper(*args, **kwargs):
            self._enter(name)
            result = fn(*args, **kwargs)
            if items:
                self.items[name] += len(result)
            return result
        return wrapper

    def install(self) -> None:
        modules = package_modules()
        by_name = {m.__name__: m for m in modules}
        for specs, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for mod, fn_name, items in specs:
                original = getattr(by_name[f"bruhat_kit.{mod}"], fn_name)
                wrapper = make(f"{mod}.{fn_name}", original, items)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._undo.append((m, attr, original))
                            setattr(m, attr, wrapper)
        cls = by_name["bruhat_kit.affineperm"].AffinePermutation
        self._undo.append((cls, "__init__", cls.__init__))
        cls.__init__ = self._counted("affineperm.AffinePermutation", cls.__init__, False)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def metrics(self, overhead_ratio: float) -> dict:
        """Every PER_LAYER metric, as {name: {"value", "unit"}}."""
        modules = {m.__name__: m for m in package_modules()}
        values = {}
        for mod, fn_name in CACHED:
            info = getattr(modules[f"bruhat_kit.{mod}"], fn_name).cache_info()
            name = f"{mod}.{fn_name}"
            values.update({f"{name}.hits": info.hits, f"{name}.misses": info.misses,
                           f"{name}.size": info.currsize})
        for metric in PER_LAYER:
            name, _, kind = metric.rpartition(".")
            if metric in values:
                continue
            if kind == "calls":
                values[metric] = self.calls[name]
            elif kind == "self_s":
                values[metric] = self.self_s[name]
            elif kind == "items":
                values[metric] = self.items[name]
            elif kind == "raised":
                values[metric] = self.raised[name]
            elif kind == "per_job":
                values[metric] = _ratio(self.calls[name], len(self.jobs_reached[name]))
            elif kind == "per_schur_expand":
                values[metric] = _ratio(self.within[name], self.calls["qsym.schur_expand"])
            elif kind == "accept_ratio":
                values[metric] = _ratio(self.sweep_checked,
                                        self.within["affinegraph.check_relation"])
        values["trace.overhead_ratio"] = overhead_ratio
        return {m: {"value": values[m], "unit": PER_LAYER[m]["unit"]} for m in PER_LAYER}

    def job_breakdown(self, job) -> list[tuple[str, int, float, float]]:
        """(function, calls, total seconds, self seconds) of one job, by self time."""
        covered = defaultdict(float)
        for sid, parent, j, name, start, end in self.spans:
            if j == job and parent is not None:
                covered[parent] += end - start
        calls, total, self_s = Counter(), defaultdict(float), defaultdict(float)
        for sid, parent, j, name, start, end in self.spans:
            if j == job:
                calls[name] += 1
                total[name] += end - start
                self_s[name] += (end - start) - covered[sid]
        return sorted(((n, calls[n], total[n], self_s[n]) for n in calls), key=lambda t: -t[3])


def _ratio(num, den) -> float:
    return num / den if den else 0.0
