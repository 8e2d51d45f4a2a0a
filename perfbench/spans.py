"""Span recording around the program's public layer boundaries.

The benchmark times layers from outside: :class:`Tracer` replaces each
public function named in :data:`LAYERS` by a wrapper that records a
span ``(name, start, end, parent, run id)`` in memory, in every loaded
``repro`` module (and module-level registry dict) that holds the
function by name, and on the classes that own the named methods.
:meth:`Tracer.uninstall` puts the originals back, so untraced passes run
the unmodified program.

Only boundaries called at most about 10**4 times per pass are wrapped;
BDD work is read from ``BddManager.stats()`` counters instead of spans:
every manager built while the tracer is installed is read once, when it
is freed or when the pass ends, whichever comes first.  No manager is
kept alive by the tracer, so garbage collection sees the same heap as
in an untraced pass.
A layer's self time is its spans' durations minus the parts covered by
their child spans.
"""

import functools
import gc
import importlib
import sys
import time
import weakref

#: (span name, module, attribute path) of every wrapped boundary.  An
#: attribute path ``Class.method`` wraps a method on its class; a bare
#: name wraps a function wherever the ``repro`` modules hold it.
LAYERS = [
    ("session", "repro.api.session", "Session.solve"),
    ("session", "repro.api.session", "Session.solve_many"),
    ("brel", "repro.core.brel", "BrelSolver.solve"),
    ("quick", "repro.core.quick", "quick_solve"),
    ("minimize", "repro.core.minimize", "minimize_with_cover"),
    ("minimize", "repro.core.minimize", "minimize_memoised"),
    ("minimize", "repro.core.minimize", "solve_misf"),
    ("minimize.eliminate", "repro.core.minimize",
     "eliminate_nonessential_variables"),
    ("isop", "repro.bdd.isop", "isop"),
    ("split", "repro.core.split", "select_split"),
    ("split", "repro.core.split", "select_split_from_conflicts"),
    ("cost", "repro.core.cost", "bdd_size_cost"),
    ("cost", "repro.core.cost", "bdd_size_squared_cost"),
    ("cost", "repro.core.cost", "shared_bdd_size_cost"),
    ("cost", "repro.core.cost", "cube_count_cost"),
    ("cost", "repro.core.cost", "literal_count_cost"),
    ("memo.signature", "repro.core.relation", "BooleanRelation.signature"),
    ("memo.signature", "repro.core.isf", "Isf.signature"),
    ("memo.instantiate", "repro.core.memo", "instantiate_solution"),
    ("memo.instantiate", "repro.core.memo", "instantiate_var_cover"),
    ("relio", "repro.core.relio", "parse_relation"),
    ("relio", "repro.core.relio", "write_relation"),
    ("window", "repro.resynth.window", "enumerate_cuts"),
    ("window", "repro.resynth.window", "extract_window"),
    ("cutflex", "repro.decompose.cutflex", "cut_flexibility_relation"),
    ("cutflex", "repro.decompose.cutflex", "realize_functions"),
    ("simulate", "repro.network.simulate", "combinational_signature"),
    ("simulate", "repro.network.simulate", "exhaustive_signature"),
    ("service.fingerprint", "repro.service.app",
     "SolveService.request_fingerprint"),
    ("service.flush", "repro.service.app", "SolveService.flush"),
    ("diskcache.get", "repro.service.diskcache", "DiskCache.get_report"),
    ("diskcache.put", "repro.service.diskcache", "DiskCache.put_report"),
    ("diskcache.merge", "repro.service.diskcache",
     "DiskCache.merge_memo_entries"),
]

#: Modules imported before wrapping, so every by-name import is found.
_IMPORT_FIRST = ["repro", "repro.resynth.pipeline", "repro.service",
                 "repro.decompose.cutflex", "repro.network.simulate"]


class Tracer:
    """Records spans and layer counters while installed."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent, run id)
        self.run_id = None
        self._stack = []
        self._patches = []       # (holder, key, original, is_dict)
        self.reset()

    # -- recording -----------------------------------------------------
    def span(self, name, fn, observe=None):
        """``fn`` wrapped to record one span per call."""
        spans, stack, clock = self.spans, self._stack, time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run_id)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def op(self, name, run_id, fn, *args, **kwargs):
        """Call ``fn`` as one top-level operation with its own run id."""
        self.run_id = run_id
        return self.span(name, fn)(*args, **kwargs)

    def _forget(self, mgr):
        """``mgr`` is being freed: read it once, forget its isop keys.

        Keys use ``id(mgr)``, which a later manager may reuse, so they
        must not outlive the manager.
        """
        self._isop_seen.pop(id(mgr), None)
        if self._unread.pop(id(mgr), None) is not None:
            stats = mgr.stats()
            self.bdd[0] += stats["cache_hits"]
            self.bdd[1] += stats["cache_misses"]
            self.bdd[2] = max(self.bdd[2], stats["peak_nodes"])

    def _observe_isop(self, args, result):
        mgr, lower, upper = args[:3]
        seen = self._isop_seen.setdefault(id(mgr), set())
        if (lower, upper) in seen:
            self.isop_repeats += 1
        else:
            seen.add((lower, upper))

    def _observe_solve(self, args, result):
        self.explored += result.stats.relations_explored

    # -- installation --------------------------------------------------
    def install(self):
        """Wrap every boundary in :data:`LAYERS`."""
        for module in _IMPORT_FIRST:
            importlib.import_module(module)
        observers = {"isop": self._observe_isop,
                     "brel": self._observe_solve}
        for name, module_name, path in LAYERS:
            module = sys.modules[module_name]
            observe = observers.get(name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                self._patch_method(cls, attr, self.span(
                    name, cls.__dict__[attr], observe))
            else:
                original = getattr(module, path)
                self._patch_function(original,
                                     self.span(name, original, observe))
        manager_cls = sys.modules["repro.bdd.manager"].BddManager
        init = manager_cls.__init__
        unread, forget = self._unread, self._forget

        @functools.wraps(init)
        def init_and_track(mgr, *args, **kwargs):
            init(mgr, *args, **kwargs)
            unread[id(mgr)] = weakref.ref(mgr)

        def read_when_freed(mgr):
            forget(mgr)

        self._patch_method(manager_cls, "__init__", init_and_track)
        self._patch_method(manager_cls, "__del__", read_when_freed)

    def _patch_method(self, cls, attr, wrapper):
        self._patches.append((cls, attr, cls.__dict__.get(attr), False))
        setattr(cls, attr, wrapper)

    def _patch_function(self, original, wrapper):
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original, False))
                    setattr(module, key, wrapper)
                elif isinstance(value, dict) and not key.startswith("__"):
                    for entry, held in list(value.items()):
                        if held is original:
                            self._patches.append((value, entry, original,
                                                  True))
                            value[entry] = wrapper

    def uninstall(self):
        """Restore every original; spans and counters are kept.

        Managers still alive are read now, before their ``__del__`` hook
        goes away; the collection first frees the unreachable ones.
        """
        gc.collect()
        for ref in list(self._unread.values()):
            mgr = ref()
            if mgr is not None:
                self._forget(mgr)
        for holder, key, original, is_dict in reversed(self._patches):
            if is_dict:
                holder[key] = original
            elif original is None:
                delattr(holder, key)
            else:
                setattr(holder, key, original)
        self._patches = []

    def reset(self):
        """Drop recorded spans and counters (between passes)."""
        self.spans = []
        self._stack = []
        self.explored = 0
        self.isop_repeats = 0
        self._isop_seen = {}     # id(manager) -> {(lower, upper)}
        self._unread = {}        # id(manager) -> weakref, built here
        self.bdd = [0, 0, 0]     # cache hits, cache misses, peak nodes

    # -- summaries -----------------------------------------------------
    def layer_totals(self):
        """``{name: [calls, self seconds]}`` over the recorded spans.

        ``calls`` counts outermost entries only: a span whose parent is a
        span of the same name (a layer re-entering itself) adds its self
        time but no call.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        totals = {}
        for index, (name, start, end, parent, _) in enumerate(spans):
            entry = totals.setdefault(name, [0, 0.0])
            if parent < 0 or spans[parent][0] != name:
                entry[0] += 1
            entry[1] += (end - start) - child[index]
        return totals
