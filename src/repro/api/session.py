"""The session layer: named relations, cached solving, batch execution.

A :class:`Session` is the stateful front door of the package.  It

* owns reusable :class:`~repro.bdd.BddManager` instances (one per
  relation shape) so relations ingested through it share BDD nodes —
  the Section 7.1 sharing benefit, extended across relations;
* accepts relations from every ingestion path the package has (output
  sets, PLA-dialect files/strings, truth tables, Boolean equation
  systems, bundled benchmarks) and registers them under names a
  :class:`~repro.api.SolveRequest` can refer to;
* runs single solves (:meth:`Session.solve`) and batches
  (:meth:`Session.solve_many`) with a shared result cache, the latter
  serial or process-parallel through :class:`~repro.core.jobs.JobRun`,
  with per-job failures captured as failed :class:`SolveReport`\\ s
  rather than raised.

Process jobs are made *self-contained* before dispatch: the relation is
snapshotted to PLA text and the request travels as its dict form, so a
job needs nothing from the parent process beyond importable code.
(Custom registry entries reach workers through the default ``fork``
start method on POSIX; under ``spawn`` they must be registered at import
time of a module the workers import.)
"""

from __future__ import annotations

import functools
import json
from typing import (Any, Dict, Generator, Iterable, List, Mapping, Optional,
                    Sequence, Tuple, Union)

from ..bdd.manager import BddManager
from ..core.brel import BrelSolver
from ..core.explore import CancelToken, Improvement, Observer
from ..core.jobs import (MAX_SNAPSHOT_INPUTS, JobContext, JobRun,
                         check_executor)
from ..core.memo import DEFAULT_MEMO_CAPACITY, MemoStore
from ..core.relation import BooleanRelation
from ..core.relio import parse_relation, peek_shape, write_relation
from .report import SolveReport
from .request import (RelationSpec, SolveRequest, build_relation,
                      normalize_relation_spec, relation_spec_to_jsonable,
                      truth_tables_to_output_sets)

#: What solve()/solve_many() accept as the thing to solve.
RelationLike = Union[BooleanRelation, RelationSpec]

#: Node count past which a session garbage-collects a manager between
#: solves (None disables auto-trimming).
DEFAULT_AUTO_TRIM_NODES = 500_000


def _solve_job(payload: Dict[str, Any], ctx: JobContext) -> SolveReport:
    """Solve one batch job (the session's job function).

    Never raises: any failure — malformed request, unparsable relation,
    solver error — comes back as a failed report so one bad job cannot
    poison a batch.  A serial job's ``payload["resolve"]`` returns its
    live relation as the job starts; otherwise the job parses
    ``payload["pla"]`` into a fresh manager and returns a data-only
    report, since BDD handles must not cross a process boundary.
    ``payload["memo"]`` says whether the job uses the executor's memo
    store (the session's own on serial, a seeded per-worker copy in a
    process); its hit/miss counters travel back in the report's stats.
    """
    label = payload.get("label")
    request_dict = payload.get("request")
    try:
        request = SolveRequest.from_dict(request_dict)
        resolve = payload.get("resolve")
        relation = (resolve() if resolve is not None
                    else parse_relation(payload["pla"]))
        result = BrelSolver(request.to_options(),
                            memo=ctx.memo if payload.get("memo") else None
                            ).solve(relation, cancel=ctx.cancel)
        report = SolveReport.from_result(relation, result,
                                         request=request_dict, label=label)
        if resolve is None:
            # Materialise the PLA text while the solution is live, then
            # ship the data-only report.
            report.solution_pla()
            report.solution = None
        return report
    except Exception as exc:  # noqa: BLE001 — isolation is the contract
        return SolveReport.from_error(exc, request=request_dict,
                                      label=label)


class Session:
    """A workspace of named relations with cached, batchable solving.

    Memory management: registered relations are *pinned* in their BDD
    manager, so :meth:`trim` (explicit) and the automatic between-solve
    trim (``auto_trim_nodes``) can garbage-collect everything else —
    solver scratch, dead intermediate relations — while keeping every
    registered relation valid.  A trim invalidates live
    :class:`~repro.core.Solution` handles returned by earlier solves
    (their data renderings — SOP, PLA, cost — are unaffected); cached
    reports keep serving data and re-solve lazily when a live handle is
    requested again.
    """

    def __init__(self, max_workers: Optional[int] = None,
                 max_snapshot_inputs: int = MAX_SNAPSHOT_INPUTS,
                 auto_trim_nodes: Optional[int] = DEFAULT_AUTO_TRIM_NODES,
                 memo_enabled: bool = True,
                 memo_capacity: Optional[int] = DEFAULT_MEMO_CAPACITY
                 ) -> None:
        self._relations: Dict[str, BooleanRelation] = {}
        self._managers: Dict[Tuple[int, int], BddManager] = {}
        self._cache: Dict[Tuple[Any, ...], SolveReport] = {}
        self.cache_hits = 0
        self.default_max_workers = max_workers
        self.max_snapshot_inputs = max_snapshot_inputs
        self.auto_trim_nodes = auto_trim_nodes
        self.trims = 0
        #: The session-wide subproblem memo, shared by every solve and
        #: relation (templates are manager-independent).  ``memo_enabled``
        #: is the default for requests whose ``memo`` field is ``None``;
        #: an explicit ``memo=True``/``False`` on a request wins.
        self.memo = MemoStore(capacity=memo_capacity)
        self.memo_enabled = memo_enabled

    # ------------------------------------------------------------------
    # Managers
    # ------------------------------------------------------------------
    def manager_for(self, num_inputs: int, num_outputs: int) -> BddManager:
        """The session's shared manager for a relation shape."""
        key = (num_inputs, num_outputs)
        if key not in self._managers:
            self._managers[key] = BddManager(
                ["x%d" % i for i in range(num_inputs)]
                + ["y%d" % j for j in range(num_outputs)])
        return self._managers[key]

    def _session_managers(self) -> List[BddManager]:
        """Every manager this session owns or has adopted, deduplicated."""
        managers: List[BddManager] = []
        seen = set()
        for mgr in self._managers.values():
            if id(mgr) not in seen:
                seen.add(id(mgr))
                managers.append(mgr)
        for relation in self._relations.values():
            if id(relation.mgr) not in seen:
                seen.add(id(relation.mgr))
                managers.append(relation.mgr)
        return managers

    def engine_stats(self) -> Dict[str, Dict[str, Any]]:
        """Per-manager :meth:`BddManager.stats` snapshots.

        Shape-owned managers key as ``"shape:IxO"``.  Managers adopted
        through registered relations (equation systems, benchmarks) key
        as ``"adopted:N"``, numbered by sorted relation name; the labels
        are positional and recomputed per call, so they can shift when
        relations are added or removed — treat each call's result as a
        self-contained snapshot.  The subproblem memo's counters appear
        under the ``"memo"`` key (see :meth:`memo_stats`).
        """
        out: Dict[str, Dict[str, Any]] = {}
        seen = set()
        for (ni, no), mgr in sorted(self._managers.items()):
            out["shape:%dx%d" % (ni, no)] = mgr.stats()
            seen.add(id(mgr))
        adopted = 0
        for name in sorted(self._relations):
            mgr = self._relations[name].mgr
            if id(mgr) not in seen:
                seen.add(id(mgr))
                out["adopted:%d" % adopted] = mgr.stats()
                adopted += 1
        out["memo"] = self.memo.stats()
        return out

    # ------------------------------------------------------------------
    # Subproblem memoisation
    # ------------------------------------------------------------------
    def enable_memo(self) -> None:
        """Restore the default: solves use the session memo store."""
        self.memo_enabled = True

    def disable_memo(self) -> None:
        """Stop consulting the memo store (entries are kept).

        Per-request ``memo=True`` still opts back in.  The report cache
        keys on the effective memo decision, so reports solved while
        the store was on are not served to post-toggle solves (whose
        memo_* stats must read zero) and vice versa.  Disable the store
        when solving relations through a *custom registered cost
        function* that is sensitive to variable identities beyond their
        order — the store recognises subproblems up to order-preserving
        renamings, so such a cost could price a cross-renaming hit
        differently than a fresh solve (the built-in costs and
        minimisers are all renaming-invariant).
        """
        self.memo_enabled = False

    def clear_memo(self) -> None:
        """Drop every memoised subproblem (counters are kept)."""
        self.memo.clear()

    def memo_stats(self) -> Dict[str, Any]:
        """Hit/miss/eviction counters and size of the session memo."""
        return self.memo.stats()

    def _memo_for(self, request: SolveRequest) -> Optional[MemoStore]:
        """The store a request's solve should use (or ``None``)."""
        use = (request.memo if request.memo is not None
               else self.memo_enabled)
        return self.memo if use else None

    # ------------------------------------------------------------------
    # Memory management
    # ------------------------------------------------------------------
    def trim(self) -> Dict[str, Dict[str, Any]]:
        """Reclaim engine memory now: GC every manager, drop op caches.

        Registered relations survive (they are pinned and remapped);
        everything unreachable — solver scratch, deregistered relations —
        is collected.  Live solutions handed out by earlier solves become
        invalid; their reports' data fields stay correct.  The memo
        store is evicted down to half capacity (its templates are
        manager-independent, so the engine GC itself never invalidates
        them — trimming it just returns memory).  Returns
        :meth:`engine_stats` after the collection.
        """
        for mgr in self._session_managers():
            self._trim_manager(mgr)
        self.memo.trim()
        return self.engine_stats()

    def _strip_solution(self, report: SolveReport) -> None:
        """Drop a report's live solution, keeping its data useful.

        The PLA rendering is materialised first — but only for narrow
        relations: ``write_relation`` enumerates all ``2^inputs`` input
        vertices, the exact blow-up ``max_snapshot_inputs`` exists to
        avoid.  Wide reports keep their SOP/cost data and re-solve
        lazily when a rendering or live handle is needed again.
        """
        if (report.num_inputs is not None
                and report.num_inputs <= self.max_snapshot_inputs):
            report.solution_pla()
        report.solution = None

    def _trim_manager(self, mgr: BddManager,
                      keep: Optional[BooleanRelation] = None,
                      extra_reports: Iterable[SolveReport] = (),
                      extra_payloads: Iterable[Dict[str, Any]] = ()
                      ) -> Optional[BooleanRelation]:
        """GC one manager, remapping this session's state through it.

        ``keep`` is an extra relation to protect (the one about to be
        solved); the remapped copy is returned.  Cached reports (and any
        ``extra_reports``, e.g. a batch's finished jobs) lose their live
        solutions (data is materialised first), identity-keyed cache
        entries of this manager are dropped — their key objects would
        hold stale node ids — and relations referenced by
        ``extra_payloads`` (a batch's pending jobs) are kept live and
        remapped in place.
        """
        stale_keys = []
        for key, report in self._cache.items():
            if isinstance(key[0], BooleanRelation) and key[0].mgr is mgr:
                # Doomed entry: no point materialising its renderings.
                stale_keys.append(key)
            elif (report.solution is not None
                    and report.solution.mgr is mgr):
                self._strip_solution(report)
        for key in stale_keys:
            del self._cache[key]
        for report in extra_reports:
            if (report.solution is not None
                    and report.solution.mgr is mgr):
                self._strip_solution(report)
        payload_relations = [
            (payload, payload["relation"]) for payload in extra_payloads
            if isinstance(payload.get("relation"), BooleanRelation)
            and payload["relation"].mgr is mgr]
        mgr.clear_caches()
        extra = [keep.node] if keep is not None else []
        extra.extend(relation.node for _, relation in payload_relations)
        mapping = mgr.collect(extra_roots=extra)
        for name, relation in list(self._relations.items()):
            if relation.mgr is mgr:
                self._relations[name] = relation.with_node(
                    mapping[relation.node])
        for payload, relation in payload_relations:
            payload["relation"] = relation.with_node(mapping[relation.node])
        self.trims += 1
        if keep is not None:
            return keep.with_node(mapping[keep.node])
        return None

    def _maybe_trim(self, resolved: BooleanRelation) -> BooleanRelation:
        """Auto-trim the solved relation's manager when it grew too big."""
        limit = self.auto_trim_nodes
        if limit is None or resolved.mgr.num_nodes <= limit:
            return resolved
        return self._trim_manager(resolved.mgr, keep=resolved)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def add_relation(self, name: str, relation: BooleanRelation, *,
                     overwrite: bool = False) -> BooleanRelation:
        """Register an existing relation under ``name``.

        The relation's BDD root is pinned in its manager so session trims
        (:meth:`trim` / ``auto_trim_nodes``) never collect it.
        """
        previous = self._relations.get(name)
        if previous is not None and not overwrite:
            raise ValueError("relation %r is already registered "
                             "(pass overwrite=True to replace)" % name)
        relation.mgr.pin(relation.node)
        if previous is not None:
            previous.mgr.unpin(previous.node)
        self._relations[name] = relation
        return relation

    def remove_relation(self, name: str) -> None:
        """Deregister ``name``; its nodes become collectable on trim."""
        relation = self._relations.pop(name, None)
        if relation is None:
            raise KeyError("no relation named %r in this session" % name)
        relation.mgr.unpin(relation.node)

    def add_output_sets(self, name: str, rows: Sequence[Iterable[int]],
                        num_inputs: int, num_outputs: int,
                        **kwargs: Any) -> BooleanRelation:
        """Ingest the paper's tabular notation (Example 4.2 style)."""
        relation = BooleanRelation.from_output_sets(
            rows, num_inputs, num_outputs,
            mgr=self.manager_for(num_inputs, num_outputs))
        return self.add_relation(name, relation, **kwargs)

    def add_truth_tables(self, name: str, tables: Sequence[int],
                         num_inputs: int, **kwargs: Any) -> BooleanRelation:
        """Ingest one truth-table bitmask per completely specified output.

        See :func:`~repro.api.request.truth_tables_to_output_sets` for
        the encoding.  The result is a functional relation (no
        flexibility); useful as a degenerate case and for decomposition
        targets.
        """
        rows = truth_tables_to_output_sets(tables, num_inputs)
        return self.add_output_sets(name, rows, num_inputs, len(tables),
                                    **kwargs)

    def add_pla(self, name: str, text: str, **kwargs: Any) -> BooleanRelation:
        """Ingest a PLA-dialect relation string (:mod:`repro.core.relio`)."""
        num_inputs, num_outputs = peek_shape(text)
        mgr = self.manager_for(num_inputs, num_outputs)
        return self.add_relation(name, parse_relation(text, mgr=mgr),
                                 **kwargs)

    def add_pla_file(self, name: str, path: str,
                     **kwargs: Any) -> BooleanRelation:
        """Ingest a PLA-dialect relation file."""
        with open(path, "r", encoding="ascii") as handle:
            return self.add_pla(name, handle.read(), **kwargs)

    def add_system(self, name: str, system: Any,
                   independents: Optional[Sequence[str]] = None,
                   dependents: Optional[Sequence[str]] = None,
                   **kwargs: Any) -> BooleanRelation:
        """Ingest a Boolean equation system (paper Section 8).

        ``system`` is either a :class:`repro.equations.BooleanSystem` or a
        sequence of equation strings (then ``independents`` and
        ``dependents`` are required).  The system's own manager is kept —
        its variables carry the user's names.
        """
        from ..equations.system import BooleanSystem
        if not isinstance(system, BooleanSystem):
            if independents is None or dependents is None:
                raise ValueError("equation strings need independents= "
                                 "and dependents=")
            system = BooleanSystem.parse(list(system), list(independents),
                                         list(dependents))
        if not system.is_consistent():
            raise ValueError("the Boolean system is inconsistent")
        return self.add_relation(name, system.to_relation(), **kwargs)

    def add_benchmark(self, name: str,
                      instance: Optional[str] = None,
                      **kwargs: Any) -> BooleanRelation:
        """Ingest a bundled :mod:`repro.benchdata` suite instance."""
        from ..benchdata import instance_by_name
        relation = instance_by_name(instance or name).build()
        return self.add_relation(name, relation, **kwargs)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def relation(self, name: str) -> BooleanRelation:
        """Look up a registered relation."""
        try:
            return self._relations[name]
        except KeyError:
            raise KeyError("no relation named %r in this session "
                           "(registered: %s)"
                           % (name, ", ".join(sorted(self._relations))
                              or "none")) from None

    def relation_names(self) -> List[str]:
        return sorted(self._relations)

    def __contains__(self, name: object) -> bool:
        return name in self._relations

    def resolve_relation(self, source: RelationLike) -> BooleanRelation:
        """Materialise any accepted relation source."""
        if isinstance(source, BooleanRelation):
            return source
        if isinstance(source, str):
            return self.relation(source)
        if isinstance(source, Mapping) and source.get("kind") == "name":
            return self.relation(source["name"])
        return build_relation(source)

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def _options_key(self, request: SolveRequest) -> Tuple[Any, ...]:
        # Every request field that can alter a report's content MUST
        # join this tuple — the schema-evolution regression test
        # (tests/api/test_session_memo.py::TestCacheKeySchemaGuard)
        # enumerates the dataclass fields to catch omissions.
        # record_trace is keyed because it changes the report's content
        # (the trace field).  Tri-states key by their *effective*
        # decision: memo resolves against the session toggle, so
        # memo=True and memo=None share a slot while the session
        # default is on, and flipping disable_memo()/enable_memo()
        # stops earlier reports (whose memo_* stats reflect the other
        # setting) from being served; decompose=None (auto) and True
        # shard identically, while False reports lack the partition
        # breakdown.  The portfolio racer line-up keys by its
        # *resolved* canonical JSON, so None and an explicitly
        # spelled-out default line-up share a slot.  Execution details
        # that never change a result are NOT keyed: portfolio_executor
        # (serial and process give identical answers).
        if request.strategy == "portfolio":
            from ..core.portfolio import racers_cache_key
            racers = racers_cache_key(request.portfolio_racers)
        else:
            racers = None
        return (request.cost, request.minimizer,
                request.strategy,
                request.max_explored, request.fifo_capacity,
                request.quick_on_subrelations, request.symmetry_pruning,
                request.symmetry_max_depth, request.time_limit_seconds,
                request.record_trace, self._memo_for(request) is not None,
                request.decompose is not False, racers)

    def _cache_key(self, pla: str, request: SolveRequest
                   ) -> Tuple[Any, ...]:
        """Snapshot-based key for batch jobs (shareable across managers)."""
        return (pla,) + self._options_key(request)

    def _live_key(self, relation: BooleanRelation,
                  request: SolveRequest) -> Tuple[Any, ...]:
        """Identity-based key for interactive solves.

        Keying on the relation object (manager identity + node) avoids
        the exponential ``write_relation`` enumeration on every call and
        guarantees a cached live ``Solution`` belongs to the caller's
        manager.  The relation in the key keeps its manager alive, so
        ids cannot be recycled while the entry exists.
        """
        return (relation,) + self._options_key(request)

    def _spec_key(self, spec: Mapping[str, Any],
                  request: SolveRequest) -> Tuple[Any, ...]:
        """Content-based key for self-contained relation specs.

        The canonical spec JSON identifies the relation without building
        it, so repeated spec solves hit the cache instead of minting a
        fresh manager per call.
        """
        return ("spec", json.dumps(relation_spec_to_jsonable(dict(spec)),
                                   sort_keys=True)) \
            + self._options_key(request)

    @staticmethod
    def _portable_solution(report: SolveReport,
                           relation: Optional[BooleanRelation]):
        """A cached live solution is only valid in its own manager.

        Snapshot-keyed cache entries can be shared between same-content
        relations living in *different* managers; handing such a caller
        the foreign solution's node ids would crash or silently lie, so
        the live handle travels only when the managers match (the data
        fields — sop, pla, cost — are manager-independent).  When the
        handle cannot travel, the PLA text is materialised (once, onto
        the cached entry) so the served copy still carries a
        realisable function vector for consumers like the resynthesis
        pipeline that re-instantiate the solution from text.
        """
        if (report.solution is not None and relation is not None
                and report.solution.mgr is relation.mgr):
            return report.solution
        if report.solution is not None and report.pla is None:
            report.solution_pla()
        return None

    def clear_cache(self) -> None:
        self._cache.clear()
        self.cache_hits = 0

    @staticmethod
    def _cached_copy(report: SolveReport, **changes: Any) -> SolveReport:
        """A cache-served copy of ``report`` with honest per-job stats.

        Serving from the cache does no memoisation work, so the copy's
        ``memo_*`` deltas read zero — each report attributes exactly
        the store traffic *its own* solve caused, and summing the
        deltas across a batch (or a service's request log) matches the
        session store's counters instead of double-counting every
        deduplicated job.
        """
        copy = report.copy(cached=True, **changes)
        for field in ("memo_hits", "memo_misses", "memo_stores"):
            if field in copy.stats:
                copy.stats[field] = 0
        return copy

    # ------------------------------------------------------------------
    # External cache tiers (the service layer's hooks)
    # ------------------------------------------------------------------
    def options_key(self, request: SolveRequest) -> Tuple[Any, ...]:
        """The request's result-affecting option values, as a tuple.

        Every field that can change a report's content is present (the
        schema-evolution guard in the test suite enforces it), and all
        values are JSON-safe primitives — external cache tiers key
        their slots on this tuple plus a canonical relation rendering.
        Tri-states are resolved to their *effective* decision against
        this session's defaults, exactly like the in-RAM report cache.
        """
        return self._options_key(request)

    def peek_cached(self, request: Optional[SolveRequest] = None,
                    relation: Optional[RelationLike] = None
                    ) -> Optional[SolveReport]:
        """Probe the in-RAM report cache without ever solving.

        Returns the cached report for this request (a defensive copy,
        ``cached=True``) or ``None`` on a miss.  Unlike :meth:`solve`,
        a data-only entry — one produced by a pool worker or adopted
        from an external tier via :meth:`store_report` — *is* served:
        callers of this hook (the service layer) want the report data,
        not a live :class:`~repro.core.Solution` handle.  Input
        validation matches :meth:`solve`: unknown names and unreadable
        files raise here.
        """
        request = request or SolveRequest()
        _, _, key, _ = self._prepare_solve(request, relation)
        cached = self._cache.get(key)
        if cached is None:
            return None
        self.cache_hits += 1
        return self._cached_copy(cached, label=request.label,
                                 request=request.to_dict())

    def store_report(self, request: SolveRequest, report: SolveReport,
                     relation: Optional[RelationLike] = None) -> None:
        """Adopt an externally produced report into the in-RAM cache.

        The service layer promotes disk-tier hits through this hook so
        the *next* identical request is served from RAM.  The entry is
        stored data-only (any live solution handle is dropped — it
        belongs to a foreign manager) under exactly the key
        :meth:`solve` would compute, and the usual cache hygiene
        applies: failed and cancelled reports are never stored.
        """
        if not report.ok or report.stopped == "cancelled":
            return
        _, _, key, _ = self._prepare_solve(request, relation)
        self._cache[key] = report.copy(solution=None)

    def _prepare_solve(self, request: SolveRequest,
                       relation: Optional[RelationLike]
                       ) -> Tuple[Optional[BooleanRelation],
                                  Optional[Dict[str, Any]],
                                  Tuple[Any, ...], bool]:
        """Resolve the relation source into ``(resolved, spec, key,
        from_registry)`` without materialising spec-built relations.

        The cache key is picked *before* materialising anything: session
        names and caller objects key by identity; self-contained specs
        key by content (file specs become inline PLA text so on-disk
        edits invalidate), which lets repeated spec solves hit the
        cache instead of minting a fresh manager per call.
        """
        if relation is None:
            if request.relation is None:
                raise ValueError("no relation: pass relation= or set "
                                 "request.relation")
            relation = request.relation
        resolved: Optional[BooleanRelation] = None
        spec: Optional[Dict[str, Any]] = None
        from_registry = False
        if isinstance(relation, BooleanRelation):
            resolved = relation
            key = self._live_key(resolved, request)
        else:
            spec = normalize_relation_spec(relation)
            if spec["kind"] == "name":
                resolved = self.relation(spec["name"])
                from_registry = True
                key = self._live_key(resolved, request)
            else:
                if spec["kind"] == "file":
                    with open(spec["path"], "r",
                              encoding="ascii") as handle:
                        spec = {"kind": "pla", "text": handle.read()}
                key = self._spec_key(spec, request)
        return resolved, spec, key, from_registry

    def _materialize(self, resolved: Optional[BooleanRelation],
                     spec: Optional[Dict[str, Any]],
                     key: Tuple[Any, ...], from_registry: bool,
                     request: SolveRequest
                     ) -> Tuple[BooleanRelation, Tuple[Any, ...]]:
        """Build (or trim around) the relation a solve will run on."""
        if resolved is None:
            # Spec-built relations get a fresh manager per call; there is
            # nothing from earlier solves to reclaim in it.
            resolved = build_relation(spec)
        elif from_registry:
            # Auto-trim only fires for registry-resolved relations: the
            # session can remap those safely.  Trimming around a
            # caller-owned handle would leave the caller's object holding
            # stale node ids and silently corrupt its next use.
            trimmed = self._maybe_trim(resolved)
            if trimmed is not resolved:
                # The trim remapped node ids; re-key on the fresh object.
                resolved = trimmed
                key = self._live_key(resolved, request)
        return resolved, key

    def solve(self, request: Optional[SolveRequest] = None,
              relation: Optional[RelationLike] = None, *,
              cancel: Optional[CancelToken] = None,
              observer: Optional[Observer] = None) -> SolveReport:
        """Run one solve and return its report.

        The relation comes from the explicit ``relation`` argument or,
        failing that, the request's ``relation`` spec.  Unlike
        :meth:`solve_many` this raises on failure — single solves are
        interactive.

        ``cancel`` stops an in-flight search cooperatively (the report
        then carries the best-so-far solution with
        ``stopped="cancelled"``); ``observer`` receives every
        :class:`~repro.core.SolveEvent` of a fresh run (cache hits
        emit no events).
        """
        request = request or SolveRequest()
        resolved, spec, key, from_registry = \
            self._prepare_solve(request, relation)
        cached = self._cache.get(key)
        # A worker-produced cache entry has its solution stripped; this
        # path promises a live solution, so re-solve (and upgrade the
        # cache entry) rather than serve it.
        if cached is not None and cached.solution is not None:
            self.cache_hits += 1
            return self._cached_copy(cached, label=request.label,
                                     request=request.to_dict())
        resolved, key = self._materialize(resolved, spec, key,
                                          from_registry, request)
        result = BrelSolver(request.to_options(),
                            memo=self._memo_for(request)).solve(
            resolved, cancel=cancel, observer=observer)
        report = SolveReport.from_result(resolved, result,
                                         request=request.to_dict(),
                                         label=request.label)
        # A cancelled solve is a partial result of *this call's* token,
        # which is not part of the cache key — caching it would serve
        # the truncated answer to future uncancelled calls.
        if report.stopped != "cancelled":
            self._cache[key] = report.copy()
        return report

    def solve_iter(self, request: Optional[SolveRequest] = None,
                   relation: Optional[RelationLike] = None, *,
                   cancel: Optional[CancelToken] = None,
                   observer: Optional[Observer] = None
                   ) -> Generator[Improvement, None, SolveReport]:
        """Anytime solve: yield each strictly improving solution.

        A generator over :class:`~repro.core.Improvement`\\ s — the
        first is QuickSolver's initial incumbent, every later one
        strictly beats its predecessor.  The generator's *return value*
        (``report = yield from session.solve_iter(...)``, or
        ``StopIteration.value`` when driving it by hand) is the final
        :class:`SolveReport`, which lands in the session cache exactly
        like a :meth:`solve` result.  Cancelling mid-iteration (via
        ``cancel``) or exceeding the request's ``time_limit_seconds``
        ends the stream early; the report still carries the best
        solution found so far.

        A cache hit with a live solution yields that single solution
        and returns the cached report immediately.

        Input validation is eager, matching :meth:`solve`: unknown
        relation names and unreadable files raise *here*, not at the
        first ``next()`` — only the search itself runs lazily.
        """
        request = request or SolveRequest()
        resolved, spec, key, from_registry = \
            self._prepare_solve(request, relation)
        return self._solve_iter(request, resolved, spec, key,
                                from_registry, cancel, observer)

    def _solve_iter(self, request: SolveRequest,
                    resolved: Optional[BooleanRelation],
                    spec: Optional[Dict[str, Any]],
                    key: Tuple[Any, ...], from_registry: bool,
                    cancel: Optional[CancelToken],
                    observer: Optional[Observer]
                    ) -> Generator[Improvement, None, SolveReport]:
        """The lazy half of :meth:`solve_iter` (inputs already vetted)."""
        cached = self._cache.get(key)
        if cached is not None and cached.solution is not None:
            self.cache_hits += 1
            report = self._cached_copy(cached, label=request.label,
                                       request=request.to_dict())
            yield Improvement(report.solution, report.cost, 0.0, 0)
            return report
        resolved, key = self._materialize(resolved, spec, key,
                                          from_registry, request)
        solver = BrelSolver(request.to_options(),
                            memo=self._memo_for(request))
        result = yield from solver.iter_solve(resolved, cancel=cancel,
                                              observer=observer)
        report = SolveReport.from_result(resolved, result,
                                         request=request.to_dict(),
                                         label=request.label)
        # Same rule as solve(): never cache a cancelled partial result.
        if result.stopped != "cancelled":
            self._cache[key] = report.copy()
        return report

    def solve_many(self, requests: Sequence[SolveRequest],
                   max_workers: Optional[int] = None,
                   executor: str = "process",
                   cancel: Optional[CancelToken] = None
                   ) -> List[SolveReport]:
        """Solve a batch of requests; one report per request, in order.

        * Failures (bad relation names, malformed inputs, solver errors)
          are captured in the corresponding report, never raised.
        * ``cancel`` reaches every job on either executor: in-flight
          searches stop cooperatively and report their best-so-far
          solution (``stopped="cancelled"``), and jobs not yet started
          come back as failed ``cancelled before start`` reports.
        * Identical jobs — same relation (snapshot content for the
          process executor; object identity for serial jobs naming a session
          relation, spec content for self-contained serial specs), same
          options — are solved once *per batch* and the shared report
          fanned back out, with per-job memo attribution kept honest
          (only the job that ran carries the memo deltas).  The session
          cache additionally persists across calls.
        * ``executor`` selects ``"process"`` (default; true parallelism
          across cores, data-only reports) or ``"serial"`` (in-process,
          no snapshots); see :mod:`repro.core.jobs`.
        * The process executor snapshots each relation to PLA text, an
          enumeration of all ``2^inputs`` input vertices; relations wider
          than ``max_snapshot_inputs`` raise ``ValueError`` up front
          (use ``executor="serial"`` for those).

        Batch reports are data-first: ``report.solution`` is attached
        only opportunistically (fresh serial runs whose manager matches)
        and may be ``None`` on cache hits.  Use :meth:`solve` when a
        live ``Solution`` is required.

        Memoisation: serial jobs share the session's live
        :class:`~repro.core.memo.MemoStore` directly; worker processes
        are seeded once with the parent store's most recent entries
        (templates are manager-independent) and their hit/miss counters
        are merged back into the session's store afterwards.  Entries a
        worker learns stay in the worker — only the counters return.
        """
        check_executor(executor)
        reports: List[Optional[SolveReport]] = [None] * len(requests)
        pending: Dict[Tuple[Any, ...], List[int]] = {}
        payloads: Dict[Tuple[Any, ...], Dict[str, Any]] = {}
        resolved_by_index: List[Optional[BooleanRelation]] = \
            [None] * len(requests)

        for index, request in enumerate(requests):
            label = request.label or "job-%d" % index
            try:
                if request.relation is None:
                    raise ValueError("request has no relation source")
                resolved = self.resolve_relation(request.relation)
            except Exception as exc:  # noqa: BLE001 — capture per job
                reports[index] = SolveReport.from_error(
                    exc, request=request.to_dict(), label=label)
                continue
            if (executor == "process"
                    and len(resolved.inputs) > self.max_snapshot_inputs):
                # Not a per-job data failure but an API misuse: the pool
                # transport would enumerate 2^inputs PLA rows and appear
                # to hang, so refuse the whole batch loudly.
                raise ValueError(
                    "relation for job %r has %d inputs; executor=%r "
                    "snapshots each relation to PLA text, which "
                    "enumerates 2^inputs input vertices and is capped at "
                    "max_snapshot_inputs=%d — pass executor='serial' "
                    "(or raise Session(max_snapshot_inputs=...)) for "
                    "wide relations"
                    % (label, len(resolved.inputs), executor,
                       self.max_snapshot_inputs))
            try:
                # The PLA snapshot (an exponential enumeration) is the
                # transport to worker processes; serial jobs solve the
                # live object and key by identity, skipping it entirely.
                pla = (write_relation(resolved) if executor == "process"
                       else None)
            except Exception as exc:  # noqa: BLE001 — capture per job
                reports[index] = SolveReport.from_error(
                    exc, request=request.to_dict(), label=label)
                continue
            resolved_by_index[index] = resolved
            source_spec = request.relation
            if pla is not None:
                key = self._cache_key(pla, request)
            elif (isinstance(source_spec, Mapping)
                    and source_spec.get("kind") != "name"):
                # Serial jobs with self-contained specs key by spec
                # *content*, mirroring _prepare_solve (file specs become
                # inline PLA text so on-disk edits invalidate).  Keying
                # these on the resolved object would dispatch duplicate
                # jobs: each materialisation mints a fresh manager, so
                # identical specs never collide by identity.
                try:
                    content_spec = dict(source_spec)
                    if content_spec["kind"] == "file":
                        with open(content_spec["path"], "r",
                                  encoding="ascii") as handle:
                            content_spec = {"kind": "pla",
                                            "text": handle.read()}
                    key = self._spec_key(content_spec, request)
                except Exception as exc:  # noqa: BLE001 — per job
                    reports[index] = SolveReport.from_error(
                        exc, request=request.to_dict(), label=label)
                    continue
            else:
                key = self._live_key(resolved, request)
            cached = self._cache.get(key)
            if cached is not None:
                self.cache_hits += 1
                reports[index] = self._cached_copy(
                    cached, label=label, request=request.to_dict(),
                    solution=self._portable_solution(cached, resolved))
                continue
            if key not in pending:
                payload = payloads[key] = {
                    "request": request.to_dict(), "label": label,
                    "memo": self._memo_for(request) is not None}
                if pla is not None:
                    # Workers get only the picklable PLA snapshot.
                    payload["pla"] = pla
                else:
                    # Serial jobs solve the live object.  The registry
                    # name (when the job referenced one) lets them
                    # re-resolve and auto-trim safely.
                    source = request.relation
                    if (isinstance(source, Mapping)
                            and source.get("kind") == "name"):
                        source = source["name"]
                    payload["relation"] = resolved
                    payload["registry_name"] = (
                        source if isinstance(source, str) else None)
            pending.setdefault(key, []).append(index)

        if pending:
            batch = [payloads[key] for key in pending]
            fresh: List[Optional[SolveReport]] = [None] * len(batch)
            if executor == "serial":
                for payload in batch:
                    payload["resolve"] = functools.partial(
                        self._live_relation, payload, batch, fresh)
            self._solve_jobs(batch, executor, max_workers, cancel, fresh)
            for key, report in zip(list(pending), fresh):
                # Cancelled in-flight jobs report ok with a best-so-far
                # solution; like solve(), that partial answer must not
                # be served to future uncancelled calls.
                if report.ok and report.stopped != "cancelled":
                    self._cache[key] = report.copy()
                first, *rest = pending[key]
                reports[first] = report.copy(
                    label=requests[first].label or "job-%d" % first,
                    request=requests[first].to_dict())
                for index in rest:
                    # Failures are never cached, so only successful
                    # shared results count (and read) as cache hits —
                    # and only those are _cached_copy'd, zeroing the
                    # memo deltas the job did not itself cause.
                    shared_label = requests[index].label or \
                        "job-%d" % index
                    shared_solution = self._portable_solution(
                        report, resolved_by_index[index])
                    if report.ok:
                        self.cache_hits += 1
                        reports[index] = self._cached_copy(
                            report, label=shared_label,
                            request=requests[index].to_dict(),
                            solution=shared_solution)
                    else:
                        reports[index] = report.copy(
                            label=shared_label,
                            request=requests[index].to_dict(),
                            cached=False, solution=shared_solution)
        # Every index was filled above: failure, cache hit, or fresh run.
        return [report for report in reports if report is not None]

    # ------------------------------------------------------------------
    def _solve_jobs(self, payloads: List[Dict[str, Any]], executor: str,
                    max_workers: Optional[int],
                    cancel: Optional[CancelToken],
                    reports: Optional[List[Optional[SolveReport]]] = None
                    ) -> List[SolveReport]:
        """Run :func:`_solve_job` payloads; one report each, in order.

        ``reports`` (one slot per payload) fills as jobs finish, so a
        serial job starting later can see the reports before it.  A
        worker process's memo counters merge into the session store;
        serial jobs (fallbacks included) solve against the live store,
        whose counters already count them.  Only the counters travel
        back — worker-learned entries die with the worker.
        """
        if reports is None:
            reports = [None] * len(payloads)
        with JobRun(_solve_job, payloads, executor,
                    max_workers=(max_workers if max_workers is not None
                                 else self.default_max_workers),
                    cancel=cancel,
                    memo=(self.memo if any(p["memo"] for p in payloads)
                          else None)) as run:
            for index, end in run:
                payload = payloads[index]
                if end.error is not None:
                    reports[index] = SolveReport.from_error(
                        RuntimeError(end.error),
                        request=payload["request"], label=payload["label"])
                    continue
                report = reports[index] = end.value
                if run.executor == "process" and report.ok:
                    self.memo.absorb_counters(
                        hits=int(report.stats.get("memo_hits", 0)),
                        misses=int(report.stats.get("memo_misses", 0)),
                        stores=int(report.stats.get("memo_stores", 0)))
        return reports

    def _live_relation(self, payload: Dict[str, Any],
                       batch: List[Dict[str, Any]],
                       reports: List[Optional[SolveReport]]
                       ) -> BooleanRelation:
        """A serial batch job's relation, resolved as the job starts.

        A registry relation is re-read, so an earlier trim in this batch
        cannot leave the job holding stale node ids, and its manager is
        trimmed first when it grew past ``auto_trim_nodes`` (remapping
        the batch's pending relations and stripping its finished
        reports' live solutions).
        """
        name = payload["registry_name"]
        if name is not None and name in self._relations:
            relation = payload["relation"] = self._relations[name]
            limit = self.auto_trim_nodes
            if limit is not None and relation.mgr.num_nodes > limit:
                payload["relation"] = self._trim_manager(
                    relation.mgr, keep=relation,
                    extra_reports=[r for r in reports if r is not None],
                    extra_payloads=batch)
        return payload["relation"]
