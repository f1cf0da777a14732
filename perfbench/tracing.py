"""Span tracing from outside the program.

Tracer.install() replaces each public function named in SPANS, in every
loaded deflab module namespace that holds it (and on its class for methods),
with a wrapper that records a span: its self time (duration minus the
durations of the spans it encloses) and a call count.  Counters are read
from arguments and results after the span has ended; the time they take is
kept apart as the benchmark's own overhead, so it is charged to no layer.
uninstall() puts the original functions back.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter


def _rows_cols(matrix):
    return len(matrix) * (len(matrix[0]) if matrix else 0)


def _count_subgroups(tracer, args, result):
    records = result[0] if isinstance(result, tuple) else result
    tracer.counts["lowindex.subgroups"] += len(records)
    if tracer.active["modcert.rank_drop_certificate"]:
        tracer.counts["lowindex_calls_in_certs"] += 1


def _count_cosets(tracer, args, result):
    tracer.counts["coset.cosets"] += result.index


def _count_order(tracer, args, result):
    tracer.counts["quotient.order"] += result.order


def _count_chain(tracer, args, result):
    for b in result.boundaries:
        tracer.counts["chain.cells"] += _rows_cols(b)
        tracer.counts["chain.nonzeros"] += sum(1 for row in b for x in row if x)


def _count_snf(tracer, args, result):
    tracer.counts["linalg.snf_cells"] += _rows_cols(args[0])


def _count_rank_mod_p(tracer, args, result):
    tracer.counts["linalg.rank_mod_p_cells"] += _rows_cols(args[0])


def _count_tietze(tracer, args, result):
    before = args[0]
    tracer.counts["tietze.generators_removed"] += before.num_generators - result.num_generators
    tracer.counts["tietze.relators_removed"] += before.num_relators - result.num_relators


def _count_relator_letters(tracer, args, result):
    tracer.counts["schreier.relator_letters"] += sum(len(r) for r in result.presentation.relators)


def _count_rows(tracer, args, result):
    tracer.counts["stability.rows"] += len(result.rows)


# (module, qualified name, counter or None); the layers are deflab's modules
SPANS = [
    ("cli", "main", None),
    ("presentation", "parse_presentation", None),
    ("tietze", "tietze_simplify", _count_tietze),
    ("lowindex", "low_index_subgroups", _count_subgroups),
    ("coset", "schreier_transversal", _count_cosets),
    ("coset", "todd_coxeter", None),
    ("quotient", "FiniteGroup.from_permutations", _count_order),
    ("quotient", "core_record", None),
    ("schreier", "rewrite_subgroup_presentation", _count_relator_letters),
    ("groupring", "fox_derivative", None),
    ("chain", "push_to_quotient", None),
    ("chain", "presentation_chain_complex", _count_chain),
    ("linalg", "cokernel_invariants", None),
    ("linalg", "smith_normal_form", _count_snf),
    ("linalg", "SNFResult.verify", None),
    ("linalg", "rank_mod_p", _count_rank_mod_p),
    ("linalg", "rank_over_Q", None),
    ("intervals", "deficiency_interval", None),
    ("stability", "stability_report", _count_rows),
    ("modcert", "separating_subgroup", None),
    ("modcert", "rank_drop_certificate", None),
    ("modp", "bar_cohomology_dims", None),
    ("modp", "dual_complex_dims", None),
]

COUNTS = [
    "lowindex.subgroups",
    "coset.cosets",
    "quotient.order",
    "chain.cells",
    "chain.nonzeros",
    "linalg.snf_cells",
    "linalg.rank_mod_p_cells",
    "tietze.generators_removed",
    "tietze.relators_removed",
    "schreier.relator_letters",
    "stability.rows",
]

BENCH_SPAN = "bench.job"


def span_names():
    return [f"{module}.{qualname}" for module, qualname, _ in SPANS]


class Tracer:
    def __init__(self):
        self._patches = []
        self.reset()

    def reset(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.inclusive_s = defaultdict(float)
        self.active = defaultdict(int)
        self.counts = defaultdict(int)
        self.count_s = 0.0
        self._stack = []

    def call(self, name, fn, args, kwargs=None, count=None):
        """Run fn(*args, **kwargs) as a span called name."""
        frame = [0.0]  # time covered by child spans
        self._stack.append(frame)
        self.active[name] += 1
        start = perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            dur = perf_counter() - start
            self._stack.pop()
            self.active[name] -= 1
            self.self_s[name] += dur - frame[0]
            self.calls[name] += 1
            if not self.active[name]:
                self.inclusive_s[name] += dur
            if self._stack:
                self._stack[-1][0] += dur
        if count is not None:
            c0 = perf_counter()
            count(self, args, result)
            spent = perf_counter() - c0
            self.count_s += spent
            if self._stack:
                self._stack[-1][0] += spent
        return result

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)

        return wrapper

    def install(self):
        homes = {module: importlib.import_module(f"deflab.{module}") for module, _, _ in SPANS}
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "deflab" or key.startswith("deflab."))]
        for module, qualname, count in SPANS:
            name = f"{module}.{qualname}"
            home = homes[module]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(name, raw.__func__, count))
                else:
                    new = self._wrap(name, raw, count)
                self._patches.append((cls, attr, raw))
                setattr(cls, attr, new)
                continue
            orig = getattr(home, qualname)
            new = self._wrap(name, orig, count)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._patches.append((m, attr, orig))
                        setattr(m, attr, new)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []

    def snapshot(self):
        """Per-layer metrics of everything traced since the last reset."""
        out = {}
        for name in span_names():
            out[f"{name}.self_s"] = self.self_s[name]
            out[f"{name}.calls"] = self.calls[name]
        for name in COUNTS:
            out[name] = self.counts[name]
        snf = self.inclusive_s["linalg.smith_normal_form"]
        out["linalg.verify_share"] = self.self_s["linalg.SNFResult.verify"] / snf if snf else 0.0
        certs = self.calls["modcert.rank_drop_certificate"]
        out["modcert.lowindex_per_cert"] = self.counts["lowindex_calls_in_certs"] / certs if certs else 0.0
        out["bench.self_s"] = self.self_s[BENCH_SPAN] + self.count_s
        out["trace.accounted_s"] = sum(self.self_s.values()) + self.count_s
        return out
