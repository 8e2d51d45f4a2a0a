"""Portfolio racing: competing strategies with shared incumbent bounds.

Which exploration order wins the paper's branch-and-bound (bfs vs dfs
vs best-first vs beam) varies wildly per relation.  Instead of guessing,
``strategy="portfolio"`` races N configured *racers* — each a full
strategy loop with its own :class:`~repro.core.BrelOptions` deltas — on
the same relation and keeps whichever finishes best:

* every racer prunes against the **shared incumbent**: a
  :class:`BoundChannel` carries strictly-improving costs across racers,
  so the moment any racer improves, every other racer's bound tightens
  (frontier nodes whose bound cannot beat the shared incumbent are
  dropped with a ``shared-bound`` prune);
* the instant one racer *proves optimality* — it exhausted its frontier
  without ever truncating it — all losers are cancelled through the
  run's shared cancel flag (:meth:`repro.core.jobs.JobRun.stop`);
* the merged event stream stays anytime: one opening ``portfolio``
  event, the root quick solution, a ``new-best`` for every *globally*
  improving incumbent (re-stamped with the cumulative explored count
  across racers), one ``racer-done`` per racer, and a closing ``done``
  — so ``iter_solve`` and SSE streaming work unchanged.

Executors (``portfolio_executor``, run by :class:`repro.core.jobs.JobRun`):

``"serial"`` (default)
    round-robin interleave of the racers, one solver event each per
    turn, on the caller's thread and manager — deterministic, no
    snapshots, works at any relation width;
``"process"``
    one worker process per racer, each re-parsing a PLA snapshot of the
    relation (capped at :data:`repro.core.jobs.MAX_SNAPSHOT_INPUTS`
    inputs — wider races fall back to serial); the bound channel is a
    shared-memory value and improvements travel back as solution PLA
    text, re-instantiated in the caller's manager.  Requires the cost
    function and minimiser to be registered by name (else: serial).

The racer failure contract is uniform: a racer that errors (or whose
process dies) is recorded on the summary and the race continues with
the rest; only a race with *no* surviving racer raises.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Dict, Generator, List, Mapping,
                    Optional, Tuple)

from . import jobs
from .explore import CancelToken, Improvement, SolveEvent, \
    get_strategy_factory
from .partition import (block_functions_from_pla, merge_block_stats,
                        solve_counters, stamp_solve_stats)
from .quick import quick_solve
from .relation import BooleanRelation
from .relio import parse_relation, write_relation
from .solution import Solution, SolverStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .brel import BrelOptions, BrelResult, BrelSolver

#: The default racer line-up: one of each shipped frontier discipline.
DEFAULT_RACERS: Tuple[str, ...] = ("bfs", "dfs", "best-first", "beam")

#: Option fields a racer spec may override relative to the base options.
RACER_DELTA_FIELDS: Tuple[str, ...] = (
    "max_explored", "fifo_capacity", "quick_on_subrelations",
    "symmetry_pruning", "symmetry_max_depth")


# ----------------------------------------------------------------------
# The cross-racer bound channel
# ----------------------------------------------------------------------
class BoundChannel:
    """Strictly-improving incumbent costs shared across racers.

    Racers (or the driver on their behalf) :meth:`publish` every local
    improvement; only strictly better costs are accepted.  The solver
    loop reads :attr:`cost` once per dequeued subrelation and prunes
    candidates and frontier nodes that cannot beat it — the cross-racer
    twin of the Fig. 6 line-6 bound.  Racers on the serial executor
    share one channel on one thread; racer processes share a
    :class:`~repro.core.jobs.SharedBound` instead.
    """

    __slots__ = ("_cost",)

    def __init__(self, cost: float = float("inf")) -> None:
        self._cost = cost

    @property
    def cost(self) -> float:
        """The best cost any racer has published so far."""
        return self._cost

    def publish(self, cost: float) -> bool:
        """Offer an incumbent cost; ``True`` if it strictly improved."""
        if cost < self._cost:
            self._cost = cost
            return True
        return False

    def __repr__(self) -> str:
        return "BoundChannel(cost=%r)" % self._cost


# ----------------------------------------------------------------------
# Racer specs and option plumbing
# ----------------------------------------------------------------------
def normalize_racers(racers: Any) -> Tuple[Dict[str, Any], ...]:
    """Canonicalise a ``portfolio_racers`` value into racer spec dicts.

    Accepts ``None`` (the default line-up of :data:`DEFAULT_RACERS`), a
    comma-separated string (the CLI form), or a sequence whose entries
    are strategy names or mappings ``{"strategy": ..., "name": ...,
    <option deltas>}`` with deltas drawn from
    :data:`RACER_DELTA_FIELDS`.  Names default to the strategy and are
    deduplicated with ``#2``-style suffixes, so two racers may share a
    strategy with different knobs.  Raises ``ValueError`` on unknown
    strategies, nested portfolios, or unknown delta fields.
    """
    if racers is None:
        entries: List[Any] = list(DEFAULT_RACERS)
    elif isinstance(racers, str):
        entries = [part.strip() for part in racers.split(",")
                   if part.strip()]
    elif isinstance(racers, Mapping):
        raise ValueError("portfolio_racers must be a list of racer "
                         "specs (or a comma-separated string), not a "
                         "single mapping — wrap it in a list")
    else:
        entries = list(racers)
    if not entries:
        raise ValueError("a portfolio needs at least one racer "
                         "(portfolio_racers=None races the default "
                         "line-up: %s)" % ", ".join(DEFAULT_RACERS))
    specs: List[Dict[str, Any]] = []
    names: set = set()
    for entry in entries:
        if isinstance(entry, str):
            raw: Dict[str, Any] = {"strategy": entry.strip()}
        elif isinstance(entry, Mapping):
            raw = dict(entry)
        else:
            raise ValueError(
                "racer spec must be a strategy name or a mapping, "
                "got %r" % type(entry).__name__)
        strategy = raw.pop("strategy", None)
        if not strategy:
            raise ValueError("racer spec %r has no 'strategy'" % (entry,))
        if strategy == "portfolio":
            raise ValueError("a portfolio cannot race itself: racer "
                             "strategies must name a concrete frontier "
                             "(bfs, dfs, best-first, beam, ...)")
        try:
            get_strategy_factory(strategy)
        except KeyError as exc:
            raise ValueError(str(exc).strip('"')) from None
        name = raw.pop("name", None) or strategy
        unknown = set(raw) - set(RACER_DELTA_FIELDS)
        if unknown:
            raise ValueError(
                "unknown racer option(s) %s for racer %r (a racer "
                "spec may override: %s)"
                % (", ".join(sorted(map(repr, unknown))), name,
                   ", ".join(RACER_DELTA_FIELDS)))
        base_name, suffix = name, 2
        while name in names:
            name = "%s#%d" % (base_name, suffix)
            suffix += 1
        names.add(name)
        spec: Dict[str, Any] = {"name": name, "strategy": strategy}
        for field in RACER_DELTA_FIELDS:
            if field in raw:
                spec[field] = raw[field]
        specs.append(spec)
    return tuple(specs)


def build_racer_options(base: "BrelOptions", spec: Mapping[str, Any]
                        ) -> "BrelOptions":
    """One racer's :class:`BrelOptions`: the base knobs plus its deltas.

    Racers never re-decompose (the portfolio already runs below the
    sharding layer), never record their own trace (the driver's merged
    trace is the record), and leave the memo tri-state at ``None`` —
    the driver wires each racer's store explicitly.
    """
    from .brel import BrelOptions
    return BrelOptions(
        cost_function=base.cost_function,
        minimizer=base.minimizer,
        strategy=spec["strategy"],
        max_explored=spec.get("max_explored", base.max_explored),
        fifo_capacity=spec.get("fifo_capacity", base.fifo_capacity),
        quick_on_subrelations=spec.get("quick_on_subrelations",
                                       base.quick_on_subrelations),
        symmetry_pruning=spec.get("symmetry_pruning",
                                  base.symmetry_pruning),
        symmetry_max_depth=spec.get("symmetry_max_depth",
                                    base.symmetry_max_depth),
        time_limit_seconds=base.time_limit_seconds,
        record_trace=False,
        memo=None,
        decompose=False)


def validate_portfolio_options(options: "BrelOptions"
                               ) -> Tuple[Dict[str, Any], ...]:
    """Eager construction-time validation of the portfolio knobs.

    Called from ``BrelOptions.__post_init__`` so a bad racer line-up
    (unknown strategy, ``beam`` with ``fifo_capacity=0``, a nested
    portfolio, a bogus executor) fails where batch manifests are
    loaded, not mid-race.  Returns the normalised racer specs.
    """
    specs = normalize_racers(options.portfolio_racers)
    if options.portfolio_executor is not None:
        jobs.check_executor(options.portfolio_executor,
                            "portfolio_executor (or None = 'serial')")
    for spec in specs:
        # Construct each racer's options so every strategy-specific
        # combination check runs now (e.g. the beam width rule).
        build_racer_options(options, spec)
    return specs


def racers_cache_key(racers: Any) -> str:
    """Canonical JSON of the *effective* racer line-up, for cache keys.

    ``None`` and an explicitly spelled-out default line-up normalise to
    the same string, so they share a cache slot (the same tri-state
    resolution discipline the session applies to ``memo``/``decompose``).
    """
    import json
    return json.dumps(normalize_racers(racers), sort_keys=True)


# ----------------------------------------------------------------------
# Racer bookkeeping
# ----------------------------------------------------------------------
@dataclass
class _RacerOutcome:
    """Driver-side record of one racer's leg of the race."""

    name: str
    strategy: str
    cost: Optional[float] = None
    explored: int = 0
    contributed: int = 0
    runtime_seconds: float = 0.0
    stopped: Optional[str] = None
    stats: Optional[SolverStats] = None
    error: Optional[str] = None
    winner: bool = False

    @property
    def proved_optimal(self) -> bool:
        """Exhausted without ever truncating the frontier: a sound
        branch-and-bound completion, so nothing can beat the shared
        incumbent — cancelling the other racers loses no solutions."""
        return (self.error is None and self.stopped == "exhausted"
                and self.stats.frontier_overflow == 0)

    def summary_row(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "strategy": self.strategy,
            "cost": self.cost,
            "explored": self.explored,
            "improvements_contributed": self.contributed,
            "runtime_seconds": self.runtime_seconds,
            "stopped": self.stopped,
            "proved_optimal": self.proved_optimal,
            "error": self.error,
            "winner": self.winner,
        }


def _solution_pla_text(relation: BooleanRelation,
                       solution: Solution) -> str:
    """Render a solution as functional-relation PLA text (the portable
    form improvements take across racer manager boundaries)."""
    functional = BooleanRelation.from_functions(
        solution.mgr, relation.inputs, relation.outputs,
        list(solution.functions))
    return write_relation(functional)


# ----------------------------------------------------------------------
# The racer job
# ----------------------------------------------------------------------
def _racer_job(payload: Dict[str, Any], ctx: jobs.JobContext):
    """One racer: a full strategy loop against the shared bound.

    A serial racer solves the caller's live ``payload["relation"]``
    with its live ``payload["options"]`` and yields live solutions.  A
    racer process parses ``payload["pla"]``, rebuilds its options from
    ``payload["request"]`` (registry names), and yields solution PLA
    text, since BDD handles must not cross the process boundary.  Every
    solver event is one step (``None`` unless it is an improvement that
    won the shared bound); the job returns ``(cost, stopped, stats)``.
    """
    from .brel import BrelSolver
    live = "relation" in payload
    if live:
        relation, options = payload["relation"], payload["options"]
    else:
        relation = parse_relation(payload["pla"])
        options = payload["request"].to_options()
    solver = BrelSolver(options, memo=ctx.memo, bound=ctx.bound)
    events = solver.iter_events(relation, cancel=ctx.cancel)
    while True:
        try:
            ev = next(events)
        except StopIteration as stop:
            result = stop.value
            return result.solution.cost, result.stopped, result.stats
        if (ev.kind == "new-best" and ev.solution is not None
                and ctx.bound.publish(ev.solution.cost)):
            solution = (ev.solution if live
                        else _solution_pla_text(relation, ev.solution))
            yield "improve", solution, ev.depth, ev.explored
        else:
            yield None


def _instantiate_solution(relation: BooleanRelation, solution_pla: str,
                          options: "BrelOptions") -> Solution:
    """Re-instantiate a racer's solution PLA in the caller's manager.

    Costs are recomputed in the destination manager; the built-in cost
    functions are manager-invariant (same reduced structure, same
    numbers), so this matches the racer's published cost.
    """
    functions = block_functions_from_pla(
        relation.mgr, solution_pla, relation.inputs, relation.outputs)
    return Solution(relation.mgr, functions,
                    options.cost_function(relation.mgr, functions))


# ----------------------------------------------------------------------
# The race driver
# ----------------------------------------------------------------------
def race_portfolio(solver: "BrelSolver", relation: BooleanRelation,
                   cancel: Optional[CancelToken]
                   ) -> Generator[SolveEvent, None, "BrelResult"]:
    """Race the configured racers on ``relation``; the merged stream.

    The generator behind ``strategy="portfolio"`` solves (see module
    docstring for the stream shape).  The returned
    :class:`~repro.core.BrelResult` carries the per-racer attribution
    on ``result.portfolio``.
    """
    from .brel import BrelResult
    options = solver.options
    specs = list(normalize_racers(options.portfolio_racers))
    requested = options.portfolio_executor or "serial"
    executor = requested
    note: Optional[str] = None
    racer_options = [build_racer_options(options, spec) for spec in specs]
    if executor == "process":
        from ..api.request import SolveRequest
        try:
            # Registry names are how a racer process gets the callables.
            requests = [SolveRequest.from_options(racer)
                        for racer in racer_options]
        except ValueError:
            note = ("serial fallback: process racers need the cost "
                    "function and minimizer registered by name")
            executor = "serial"
        if len(relation.inputs) > jobs.MAX_SNAPSHOT_INPUTS:
            note = ("serial fallback: %d inputs exceed the %d-input PLA "
                    "snapshot guard" % (len(relation.inputs),
                                        jobs.MAX_SNAPSHOT_INPUTS))
            executor = "serial"

    start = time.perf_counter()
    deadline = (start + options.time_limit_seconds
                if options.time_limit_seconds is not None else None)
    memo = solver.memo
    before = solve_counters(relation.mgr, memo)
    trace: Optional[List[SolveEvent]] = \
        [] if options.record_trace else None
    improvements: List[Improvement] = []
    outcomes = [_RacerOutcome(spec["name"], spec["strategy"])
                for spec in specs]

    # Root incumbent before any racer starts: guarantees a compatible
    # solution exists however early the race is cancelled, and seeds
    # the bound channel so every racer prunes from the first dequeue.
    best = quick_solve(relation, options.minimizer,
                       options.cost_function, memo=memo)
    best_racer: Optional[int] = None
    channel = BoundChannel(best.cost)

    def event(kind: str, **kw: object) -> SolveEvent:
        ev = SolveEvent(kind,
                        explored=sum(o.explored for o in outcomes),
                        best_cost=best.cost,
                        elapsed_seconds=time.perf_counter() - start,
                        **kw)  # type: ignore[arg-type]
        if trace is not None:
            trace.append(ev)
        return ev

    if executor == "process":
        pla = write_relation(relation)
        payloads = [{"pla": pla, "request": request}
                    for request in requests]
    else:
        payloads = [{"relation": relation, "options": racer}
                    for racer in racer_options]
    # Racers all run at once: one worker each.
    run = jobs.JobRun(_racer_job, payloads, executor,
                      max_workers=len(specs), cancel=cancel,
                      deadline=deadline, bound=channel, memo=memo)
    executor, note = run.executor, run.note or note
    racer_start = time.perf_counter()
    with run:
        yield event("portfolio", detail="%d racers: %s; executor=%s%s" % (
            len(specs), " | ".join(o.name for o in outcomes), executor,
            " (%s)" % note if note else ""))
        yield event("quick-solution", cost=best.cost, depth=0)
        improvements.append(Improvement(best, best.cost,
                                        time.perf_counter() - start, 0))
        yield event("new-best", cost=best.cost, solution=best, depth=0)

        announced = False
        for index, message in run:
            if run.stopped is not None and not announced:
                announced = True
                yield event(run.stopped)
            outcome = outcomes[index]
            if not isinstance(message, jobs.Done):
                _, solution, depth, explored = message
                outcome.explored = explored
                outcome.contributed += 1
                if not isinstance(solution, Solution):
                    solution = _instantiate_solution(relation, solution,
                                                     options)
                if solution.cost < best.cost:
                    best = solution
                    best_racer = index
                    improvements.append(Improvement(
                        best, best.cost, time.perf_counter() - start,
                        sum(o.explored for o in outcomes)))
                    yield event("new-best", cost=best.cost,
                                solution=best, depth=depth,
                                detail=outcome.name)
                continue
            outcome.runtime_seconds = time.perf_counter() - racer_start
            if message.error == jobs.NOT_STARTED:
                outcome.stopped = "cancelled"
            elif message.error is not None:
                outcome.error = message.error
            else:
                outcome.cost, outcome.stopped, outcome.stats = \
                    message.value
                outcome.explored = outcome.stats.relations_explored
                if memo is not None and run.executor == "process":
                    memo.absorb_counters(
                        hits=outcome.stats.memo_hits,
                        misses=outcome.stats.memo_misses,
                        stores=outcome.stats.memo_stores)
                if run.stopped is None and outcome.proved_optimal:
                    run.stop()
            yield event("racer-done", cost=outcome.cost,
                        detail="%s: %s%s" % (
                            outcome.name,
                            outcome.stopped if outcome.error is None
                            else "error (%s)" % outcome.error,
                            " (proved optimal)"
                            if outcome.proved_optimal else ""))

    failures = [o for o in outcomes if o.error is not None]
    if len(failures) == len(outcomes):
        raise RuntimeError(
            "every portfolio racer failed: %s"
            % "; ".join("%s: %s" % (o.name, o.error) for o in failures))

    # Winner attribution: the racer whose published improvement stands
    # as the final incumbent; when no racer beat the root quick
    # solution, the first racer that proved optimality (it certified
    # the incumbent), else the best-cost finisher.
    winner = best_racer
    if winner is None:
        winner = next((i for i, o in enumerate(outcomes)
                       if o.proved_optimal), None)
    if winner is None:
        finishers = [(o.cost, i) for i, o in enumerate(outcomes)
                     if o.cost is not None]
        winner = min(finishers)[1] if finishers else None
    if winner is not None:
        outcomes[winner].winner = True

    stopped = run.stopped
    if stopped is None:
        stopped = (outcomes[winner].stopped or "exhausted"
                   if winner is not None else "exhausted")

    stats = merge_block_stats([o.stats for o in outcomes
                               if o.stats is not None])
    stats.quick_solutions += 1  # the root incumbent above
    stamp_solve_stats(stats, start, relation.mgr, memo, before)

    summary = {
        "executor": executor,
        "requested_executor": requested,
        "note": note,
        "winner": outcomes[winner].name if winner is not None else None,
        "racers": [o.summary_row() for o in outcomes],
    }
    yield event("done", cost=best.cost)
    return BrelResult(best, stats, improvements=improvements,
                      events=trace, stopped=stopped,
                      portfolio=summary)
