"""Per-layer tracing from outside the program.

Each public name of a layer is wrapped where its callers look it up: a
function is replaced in every ffrace module that has imported it by name, a
method on its class.  A span wrapper records (name, start, end, parent) in
memory; a count wrapper only counts, for names called millions of times.
Self time of a span is its duration minus the durations of its direct child
spans.  Nothing here changes what the wrapped code computes.
"""

import functools
import sys
import time
from collections import Counter, defaultdict

# (module, name, metric stem) of functions recorded as spans.
SPAN_FUNCTIONS = [
    ("ffrace.sieve", "irreducible_indices", "sieve.irreducible_indices"),
    ("ffrace.sieve", "sieve_count", "sieve.sieve_count"),
    ("ffrace.characters", "unit_group", "characters.unit_group"),
    ("ffrace.lfunc", "l_polynomial", "lfunc.l_polynomial"),
    ("ffrace.lfunc", "find_conjugate_relations",
     "lfunc.find_conjugate_relations"),
    ("ffrace.gl2", "stabilizer_search", "gl2.stabilizer_search"),
    ("ffrace.gl2", "certify_ties", "gl2.certify_ties"),
    ("ffrace.gl2", "verify_certificate_empirically", "gl2.verify"),
    ("ffrace.report", "emit_table", "report.emit_table"),
    ("ffrace.report", "detect_tie_patterns", "report.detect_tie_patterns"),
    ("ffrace.report", "check_cumulative_ties", "report.check_cumulative_ties"),
    ("ffrace.cli", "main", "cli.main"),
]
# (module, class, method, metric stem) recorded as spans.
SPAN_METHODS = [
    ("ffrace.explicit", "ExplicitCounter", "__init__",
     "explicit.counter_init"),
    ("ffrace.explicit", "ExplicitCounter", "raw_zsum", "explicit.raw_zsum"),
    ("ffrace.explicit", "ExplicitCounter", "count", "explicit.count"),
    ("ffrace.lfunc", "LPolynomial", "power_sum", "lfunc.power_sum"),
]
# (module, class or None, name, counter) that are only counted.
COUNTED = [
    ("ffrace.polyring", "Poly", "__mul__", "polyring.mul_calls"),
    ("ffrace.polyring", "Poly", "__mod__", "polyring.mod_calls"),
    ("ffrace.cyclo", "CycloNum", "__mul__", "cyclo.mul_calls"),
    ("ffrace.cyclo", "CycloNum", "__rmul__", "cyclo.mul_calls"),
    ("ffrace.cyclo", "CycloNum", "__add__", "cyclo.add_calls"),
    ("ffrace.cyclo", "CycloNum", "__radd__", "cyclo.add_calls"),
    ("ffrace.cyclo", "CycloNum", "from_zeta_powers",
     "cyclo.from_zeta_powers_calls"),
    ("ffrace.gl2", None, "slash_action", "gl2.slash_action_calls"),
]
# Span stems whose call counts are reported, under these names.
CALL_COUNTS = {
    "sieve.sieve_count": "sieve.sieve_count_calls",
    "characters.unit_group": "characters.unit_group_calls",
    "lfunc.l_polynomial": "lfunc.l_polynomial_calls",
    "explicit.count": "explicit.count_calls",
    "gl2.certify_ties": "gl2.certify_ties_calls",
    "cli.main": "cli.commands",
}


def _distinct_key(stem, args):
    """Key of the cached object a call builds, for the calls whose result the
    program caches for the life of the process: the number of distinct keys
    is the number of builds."""
    if stem == "characters.unit_group":
        return (args[0].field, args[0].coeffs)
    if stem == "lfunc.l_polynomial":
        return (args[0].field, args[0].coeffs, args[1].exps)
    if stem == "explicit.raw_zsum":
        return (id(args[0]), args[1])
    return None


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []          # [stem, start, end, parent index]
        self.stack = []
        self.counts = Counter()
        self.distinct = defaultdict(set)
        self.active = True
        self._restore = []

    # --- wrappers ----------------------------------------------------------
    def _span(self, stem, fn):
        spans, stack, distinct = self.spans, self.stack, self.distinct

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            key = _distinct_key(stem, args)
            if key is not None:
                distinct[stem].add(key)
            rec = [stem, self.clock(), None,
                   stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(len(spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = self.clock()
                stack.pop()
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch_everywhere(self, module, name, make):
        original = getattr(sys.modules[module], name)
        wrapped = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "ffrace":
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
                    self._restore.append((mod, attr, original))
        return original

    def _patch_method(self, module, cls_name, name, make):
        cls = getattr(sys.modules[module], cls_name)
        raw = cls.__dict__[name]
        if isinstance(raw, classmethod):
            wrapped = classmethod(make(raw.__func__))
        else:
            wrapped = make(raw)
        setattr(cls, name, wrapped)
        self._restore.append((cls, name, raw))

    def install(self):
        import ffrace.cli  # noqa: F401  (every layer is imported by the CLI)
        self.irreducible_indices = sys.modules["ffrace.sieve"] \
            .irreducible_indices
        self.enumerations0 = self.irreducible_indices.cache_info().misses
        for module, name, stem in SPAN_FUNCTIONS:
            self._patch_everywhere(module, name,
                                   lambda fn, s=stem: self._span(s, fn))
        for module, cls, name, stem in SPAN_METHODS:
            self._patch_method(module, cls, name,
                               lambda fn, s=stem: self._span(s, fn))
        for module, cls, name, counter in COUNTED:
            make = (lambda fn, c=counter: self._counted(c, fn))
            if cls is None:
                self._patch_everywhere(module, name, make)
            else:
                self._patch_method(module, cls, name, make)
        return self

    def stop(self):
        """Stop recording (the benchmark's checks run afterwards) and take the
        wrappers out again."""
        self.active = False
        self.enumerations = (self.irreducible_indices.cache_info().misses
                             - self.enumerations0)
        for target, name, original in reversed(self._restore):
            setattr(target, name, original)
        self._restore.clear()

    # --- metrics -----------------------------------------------------------
    def metrics(self):
        """Per-layer metrics: self time per span stem (s), exact counts."""
        child_time = [0.0] * len(self.spans)
        for stem, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s = defaultdict(float)
        calls = Counter()
        for i, (stem, start, end, _parent) in enumerate(self.spans):
            self_s[stem] += (end - start) - child_time[i]
            calls[stem] += 1
        out = {}
        stems = [s for _m, _n, s in SPAN_FUNCTIONS] + \
            [s for _m, _c, _n, s in SPAN_METHODS]
        for stem in stems:
            out[stem + "_s"] = (self_s[stem], "s")
        for stem, name in CALL_COUNTS.items():
            out[name] = (calls[stem], "count")
        for _m, _c, _n, counter in COUNTED:
            out[counter] = (self.counts[counter], "count")
        out["sieve.enumerations"] = (self.enumerations, "count")
        out["characters.unit_group_builds"] = (
            len(self.distinct["characters.unit_group"]), "count")
        out["lfunc.l_polynomial_distinct"] = (
            len(self.distinct["lfunc.l_polynomial"]), "count")
        out["explicit.raw_zsum_builds"] = (
            len(self.distinct["explicit.raw_zsum"]), "count")
        return out
