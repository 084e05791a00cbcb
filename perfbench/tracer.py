"""Spans and counters recorded from outside qpsurf, by patching its boundaries.

``Tracer.install`` wraps each layer boundary named in ``SPANS`` and
``LEAVES``.  Module-level functions are replaced in every qpsurf module that
holds them, so the names that ``from .x import f`` copied into other modules
are caught too; methods are replaced on their class.

A span records name, parent, start and end, and is kept in memory until the
run ends.  Leaves are the hot calls (10^5 to 10^6 per run): they are not
stored one by one but aggregated as count plus time under their parent span.
Every call, span or leaf, also feeds a per-name total:

* ``calls`` and ``s`` (inclusive seconds) count only calls not nested in a
  call of the same name, so ``apply`` on a potential, which applies itself
  to the underlying element, is one call and its time is not counted twice;
* ``self_s`` is inclusive time minus the time covered by child calls.
"""

import time

# (module, attribute, method or None, metric name)
SPANS = [
    ("endo", "REndomorphism", "apply", "endo.apply"),
    ("endo", "compose", None, "endo.compose"),
    ("endo", "compose_all", None, "endo.compose_all"),
    ("endo", "limit_compose", None, "endo.limit_compose"),
    ("path_algebra", "Potential", "__init__", "path_algebra.potential_init"),
    ("path_algebra", "TruncatedElement", "__mul__", "path_algebra.mul"),
    ("path_algebra", "cyclic_derivative", None, "path_algebra.cyclic_derivative"),
    ("qp_mutation", "premutate", None, "qp_mutation.premutate"),
    ("qp_mutation", "reduce", None, "qp_mutation.reduce"),
    ("qp_mutation", "verify_flip_compatibility", None, "qp_mutation.verify_flip_compatibility"),
    ("normalize", "absorb_g_powers", None, "normalize.absorb_g_powers"),
    ("normalize", "absorb_cycle", None, "normalize.absorb_cycle"),
    ("normalize", "zeta_step", None, "normalize.zeta_step"),
    ("normalize", "g_normal_form", None, "normalize.g_normal_form"),
    ("normalize", "lengthen", None, "normalize.lengthen"),
    ("normalize", "split", None, "normalize.split"),
    ("surface", "classify_cycle", None, "surface.classify_cycle"),
    ("surface", "check_conditions", None, "surface.check_conditions"),
    ("surface", "build_quiver", None, "surface.build_quiver"),
    ("jacobian", "quotient_dimension", None, "jacobian.quotient_dimension"),
    ("cli", "run_command", None, "cli.run_command"),
    ("cli", "run_recheck", None, "cli.run_recheck"),
]

LEAVES = [
    ("path_algebra", "canonicalize_rotation", None, "path_algebra.canonicalize_rotation"),
    ("jacobian", "_PathIndex", "pid", "jacobian.pid"),
    ("jacobian", "_PathIndex", "unrank", "jacobian.unrank"),
    ("jacobian", "_Kills", "killed_pid", "jacobian.killed_pid"),
    ("jacobian", "_reduce_against", None, "jacobian.reduce_against"),
]

COUNTS = [
    "endo.apply.terms_in",
    "endo.apply.terms_out",
    "endo.apply.rule_terms",
    "endo.limit_compose.factors",
    "normalize.reverify.calls",
    "jacobian.rows",
    "jacobian.pivots",
    "jacobian.kill_rules",
    "cli.report_bytes",
]


class Tracer:
    """In-memory spans, per-name totals and counters for one traced run."""

    def __init__(self):
        self.origin = time.perf_counter()
        # Each frame: [time covered by children, index of the enclosing span record].
        self.stack = [[0.0, -1]]
        self.spans = []  # [name, parent, start, end, self, {leaf: [calls, s]}]
        self.stats = {}  # name -> [calls, s, self_s]
        self.active = {}  # name -> number of open calls
        self.counts = dict.fromkeys(COUNTS, 0)
        self._undo = []
        self._own = {}

    def _wrap(self, fn, name, leaf):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, spans, active, clock = self.stack, self.spans, self.active, time.perf_counter
        active[name] = 0

        def wrapper(*args, **kwargs):
            outer = active[name] == 0
            active[name] += 1
            parent = stack[-1]
            if leaf:
                frame = [0.0, parent[1]]
            else:
                frame = [0.0, len(spans)]
                spans.append([name, parent[1], 0.0, 0.0, 0.0, {}])
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                active[name] -= 1
                parent[0] += dur
                own = dur - frame[0]
                stats[2] += own
                if outer:
                    stats[0] += 1
                    stats[1] += dur
                if leaf:
                    if frame[1] >= 0:
                        agg = spans[frame[1]][5].setdefault(name, [0, 0.0])
                        agg[0] += 1
                        agg[1] += dur
                else:
                    rec = spans[frame[1]]
                    rec[2] = t0 - self.origin
                    rec[3] = rec[2] + dur
                    rec[4] = own

        return wrapper

    def timed(self, name, fn):
        """Run ``fn()`` inside a span the benchmark opens around its own code."""
        wrapper = self._own.get(name)
        if wrapper is None:
            wrapper = self._own[name] = self._wrap(_call, name, leaf=False)
        return wrapper(fn)

    def count(self, key, n):
        self.counts[key] += n

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, package):
        """Patch every boundary in ``SPANS`` and ``LEAVES`` under ``package``."""
        modules = [
            getattr(package, m)
            for m in ("path_algebra", "endo", "surface", "normalize", "qp_mutation", "jacobian", "cli")
        ]
        modules.append(package)
        wrappers = {}
        for table, leaf in ((SPANS, False), (LEAVES, True)):
            for mod_name, attr, method, name in table:
                owner = getattr(getattr(package, mod_name), attr)
                if method is not None:
                    fn = getattr(owner, method)
                    self._replace(owner, method, self._wrap(self._extra(name, fn), name, leaf))
                else:
                    wrappers[owner] = self._wrap(self._extra(name, owner), name, leaf)
        # Every module binding that is one of the wrapped functions, aliases included.
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if callable(value) and value in wrappers:
                    self._replace(mod, attr, wrappers[value])
        self._patch_counters(package)

    def _extra(self, name, fn):
        """Add the counters measured at this boundary, if any, around ``fn``."""
        counts = self.counts
        if name == "endo.apply":
            active = self.active

            def apply(endo, x):
                out = fn(endo, x)
                if active["endo.apply"] == 1:
                    counts["endo.apply.terms_in"] += len(x.terms)
                    counts["endo.apply.terms_out"] += len(out.terms)
                    counts["endo.apply.rule_terms"] += sum(len(img.terms) for img in endo.rules.values())
                return out

            return apply
        if name == "endo.limit_compose":

            def limit_compose(factors, *args, **kwargs):
                def counted():
                    for phi in factors:
                        counts["endo.limit_compose.factors"] += 1
                        yield phi

                return fn(counted(), *args, **kwargs)

            return limit_compose
        return fn

    def _patch_counters(self, package):
        counts = self.counts
        normalize, jacobian = package.normalize, package.jacobian
        equivalent = normalize.is_cyclically_equivalent

        def is_cyclically_equivalent(a, b):
            counts["normalize.reverify.calls"] += 1
            return equivalent(a, b)

        self._replace(normalize, "is_cyclically_equivalent", is_cyclically_equivalent)

        install = jacobian._install

        def _install(pivots, row, kills=None):
            lead = install(pivots, row, kills)
            counts["jacobian.rows"] += 1
            if lead is not None:
                counts["jacobian.pivots"] += 1
            return lead

        self._replace(jacobian, "_install", _install)

        add = jacobian._Kills.add

        def kills_add(kills, word, min_length):
            counts["jacobian.kill_rules"] += 1
            return add(kills, word, min_length)

        self._replace(jacobian._Kills, "add", kills_add)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def totals(self):
        """Flat per-name totals (``.calls``, ``.s``, ``.self_s``) plus every counter."""
        out = {}
        for name, (calls, s, self_s) in self.stats.items():
            out[name + ".calls"] = calls
            out[name + ".s"] = s
            out[name + ".self_s"] = self_s
        out.update(self.counts)
        return out

    def snapshot(self):
        """Calls per boundary plus the counters: the part of the trace that repeats exactly.

        ``cli.report_bytes`` is left out: a report stores its own timings,
        whose printed length varies by a few bytes from run to run.
        """
        out = {name + ".calls": st[0] for name, st in self.stats.items()}
        out.update(self.counts)
        del out["cli.report_bytes"]
        return out


def _call(fn):
    return fn()
