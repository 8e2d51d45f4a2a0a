"""The three benchmark workloads, driven through the public API only.

* ``table2``  -- the 18-relation Table 2 suite in its published order,
  one ``Session.solve`` per relation, default options and
  ``max_explored=200``; each pass uses a fresh ``Session``.  The suite
  is fixed data, so the seed changes nothing here.
* ``resynth`` -- ``resynthesize`` over the 22 bundled circuits in their
  bundled order in one ``Session`` per pass, one resynthesis pass each
  with window 8 and ``max_explored=8`` on the serial executor; the seed
  draws the equivalence-check vectors of circuits too wide to check
  exhaustively.
* ``service`` -- one closed-loop client sends a Zipf-skewed stream of
  solve requests, alternating between two ``SolveService`` workers
  that share one ``DiskCache`` directory.  Each pass replays the same
  stream against fresh workers over an empty directory; the seed
  draws the order of the repeat requests.

``table2`` and ``resynth`` keep their order fixed because the pass's
shared memo makes each operation's work depend on what was solved
before it: a permuted order moved single instances by up to 2x and the
18- and 22-operation percentiles by 15% from seed to seed.

A pass returns a :class:`PassResult`.  Every answer is checked by
:mod:`checks`; only the API call itself is inside an operation's time,
which is CPU time.
"""

import random
import shutil
import tempfile

from repro import Session, SolveRequest
from repro.benchdata import CIRCUITS, SUITE
from repro.core.relio import write_relation
from repro.network.blif import write_blif
from repro.resynth import ResynthRequest, resynthesize
from repro.service import DiskCache, SolveService

import checks
from speed import measure

#: The baseline Table 2 configuration's exploration budget.
TABLE2_MAX_EXPLORED = 200

#: The service catalogue: small suite relations x cost x strategy x
#: budget.  Every key is requested at least once per pass.
SERVICE_RELATIONS = ("int1", "int2", "int3", "int4", "she1", "she2",
                     "c17b", "c17i")
SERVICE_COSTS = ("size", "cubes")
SERVICE_STRATEGIES = ("bfs", "best-first")
SERVICE_BUDGETS = (10, 30)
#: Requests per catalogue key (one first sighting, then repeats), and
#: the Zipf exponent of key popularity among repeats.
SERVICE_STEP = 5
SERVICE_ZIPF = 1.0

LAYER_KEYS = ("memo.hits", "memo.misses", "resynth.relations_mined",
              "resynth.rewrites_accepted", "service.ram_hits",
              "service.disk_hits", "service.engine_solves",
              "service.flushes", "diskcache.memo_entries")


class PassResult:
    """What one pass over a workload's fixed inputs produced."""

    def __init__(self):
        self.ops = []         # (row key, CPU seconds, probes) per API call
        self.rows = {}        # row key -> quality columns
        self.attempted = 0
        self.failed = 0
        self.problems = []    # one line per failed answer
        self.total_cost = 0.0
        self.literals_after = 0
        self.layers = dict.fromkeys(LAYER_KEYS, 0)
        self.tiers = {}       # service request index -> tier
        self.cache_hits = 0   # report-cache hits of the pass's session

    def fail(self, key, why):
        self.failed += 1
        self.problems.append("%s: %s" % (key, why))


def _call(result, key, tracer, name, run_id, fn, *args, **kwargs):
    """One API call, measured into ``result.ops``; a span of its own
    when tracing."""
    if tracer is not None:
        args = (name, run_id, fn) + args
        fn = tracer.op
    return measure(result.ops, key, fn, *args, **kwargs)


def _memo_layers(result, sessions):
    hits = sum(s.memo_stats()["hits"] for s in sessions)
    misses = sum(s.memo_stats()["misses"] for s in sessions)
    result.layers["memo.hits"] = hits
    result.layers["memo.misses"] = misses


class Table2:
    name = "table2"

    def __init__(self, seed):
        self.instances = []
        for instance in SUITE:
            pla = write_relation(instance.build())
            self.instances.append(
                (instance.name, pla, checks.parse_relation_pla(pla)))

    def warm_up(self):
        session = Session()
        smallest = sorted(self.instances, key=lambda i: len(i[1]))[:4]
        for _, pla, _ in smallest:
            session.solve(SolveRequest(relation={"kind": "pla",
                                                 "text": pla},
                                       max_explored=TABLE2_MAX_EXPLORED))

    def run_pass(self, tracer=None, pass_index=0):
        result = PassResult()
        session = Session()
        for position, (name, pla, shape) in enumerate(self.instances):
            request = SolveRequest(relation={"kind": "pla", "text": pla},
                                   max_explored=TABLE2_MAX_EXPLORED,
                                   label=name)
            report = _call(result, name, tracer, "op.table2",
                           "%d:%d" % (pass_index, position),
                           session.solve, request)
            result.attempted += 1
            if not report.ok:
                result.fail(name, "solve failed: %s" % report.error)
                continue
            try:
                satisfied = checks.sop_satisfies(report.sop or "", *shape)
            except ValueError as exc:
                result.fail(name, "unreadable SOP: %s" % exc)
                continue
            if not satisfied:
                result.fail(name, "SOP violates the relation")
            literals = checks.sop_literals(report.sop)
            result.total_cost += report.cost
            result.literals_after += literals
            result.rows[name] = {"cost": report.cost, "literals": literals,
                                 "explored": report.stats.get(
                                     "relations_explored", 0)}
        result.cache_hits = session.cache_hits
        if session.cache_hits:
            result.problems.append("a fresh session hit its report cache")
        _memo_layers(result, [session])
        return result


class Resynth:
    name = "resynth"

    def __init__(self, seed):
        self.circuits = []
        for spec in CIRCUITS:
            blif = write_blif(spec.build())
            reference = checks.Blif(blif)
            vectors = checks.circuit_vectors(reference.leaves(), seed,
                                             spec.name)
            self.circuits.append((spec.name, blif, reference, vectors))

    @staticmethod
    def _request(name, blif):
        return ResynthRequest(circuit={"kind": "blif", "text": blif},
                              passes=1, window=8, max_explored=8,
                              executor="serial", label=name)

    def warm_up(self):
        session = Session()
        for name, blif, _, _ in sorted(self.circuits,
                                       key=lambda c: len(c[1]))[:2]:
            resynthesize(self._request(name, blif), session=session)

    def run_pass(self, tracer=None, pass_index=0):
        result = PassResult()
        session = Session()
        for position, (name, blif, reference, vectors) in enumerate(
                self.circuits):
            report = _call(result, name, tracer, "op.resynth",
                           "%d:%d" % (pass_index, position),
                           resynthesize, self._request(name, blif),
                           session=session)
            result.attempted += 1
            if not report.ok:
                result.fail(name, "resynthesis failed: %s" % report.error)
                continue
            try:
                same = checks.equivalent(reference, report.blif, vectors)
            except (ValueError, KeyError) as exc:
                result.fail(name, "unreadable netlist: %s" % exc)
                continue
            if not same:
                result.fail(name, "rewritten netlist is not equivalent")
            result.literals_after += report.literals_after
            result.total_cost += report.gates_after
            result.layers["resynth.relations_mined"] += \
                report.relations_mined
            result.layers["resynth.rewrites_accepted"] += \
                report.rewrites_accepted
            result.rows[name] = {"literals_before": report.literals_before,
                                 "literals_after": report.literals_after,
                                 "gates_after": report.gates_after,
                                 "mined": report.relations_mined}
        _memo_layers(result, [session])
        return result


class Service:
    name = "service"

    def __init__(self, seed, scratch):
        self.scratch = scratch
        self.relations = {}
        for name in SERVICE_RELATIONS:
            pla = write_relation(next(i for i in SUITE
                                      if i.name == name).build())
            self.relations[name] = checks.parse_relation_pla(pla)
        keys = [(relation, cost, strategy, budget)
                for relation in SERVICE_RELATIONS
                for cost in SERVICE_COSTS
                for strategy in SERVICE_STRATEGIES
                for budget in SERVICE_BUDGETS]
        # Keys are first requested in one fixed order, every
        # SERVICE_STEP-th request, so workers alternate on first
        # sightings and every seed does the same engine solves and memo
        # flushes.  A key's popularity rank is its first-sighting order,
        # giving Zipf-skewed repeat counts that are the same for every
        # seed; the seed draws the order of the repeats.
        first_sightings = list(keys)
        random.Random(0).shuffle(first_sightings)
        repeats = len(keys) * (SERVICE_STEP - 1)
        weights = [1.0 / (rank + 1) ** SERVICE_ZIPF
                   for rank in range(len(keys))]
        counts = [int(w * repeats / sum(weights)) for w in weights]
        for rank in range(repeats - sum(counts)):
            counts[rank] += 1
        rng = random.Random(seed)
        stream, remaining = [], {}
        for key, count in zip(first_sightings, counts):
            stream.append(key)
            remaining[key] = count
            for _ in range(SERVICE_STEP - 1):
                seen = [k for k, left in remaining.items() if left]
                pick = rng.choices(seen, [remaining[k] for k in seen])[0]
                remaining[pick] -= 1
                stream.append(pick)
        self.stream = stream

    @staticmethod
    def payload(key):
        relation, cost, strategy, budget = key
        return {"relation": {"kind": "bench", "name": relation},
                "cost": cost, "strategy": strategy,
                "max_explored": budget}

    def start_workers(self):
        """Two workers over one fresh cache directory (memo seeded)."""
        directory = tempfile.mkdtemp(prefix="cache-", dir=self.scratch)
        workers = [SolveService(disk=DiskCache(directory))
                   for _ in range(2)]
        return directory, workers

    def warm_up(self):
        directory, workers = self.start_workers()
        try:
            for index, key in enumerate(self.stream[:40]):
                workers[index % 2].solve(self.payload(key))
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def run_pass(self, tracer=None, pass_index=0):
        result = PassResult()
        directory, workers = self.start_workers()
        try:
            self._replay(result, workers, tracer, pass_index)
            result.layers["diskcache.memo_entries"] = \
                DiskCache(directory).memo_entry_count()
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        _memo_layers(result, [worker.session for worker in workers])
        for worker in workers:
            result.layers["service.ram_hits"] += worker.tier_hits["ram"]
            result.layers["service.disk_hits"] += worker.tier_hits["disk"]
            result.layers["service.engine_solves"] += \
                worker.tier_hits["engine"]
            result.layers["service.flushes"] += worker.flushes
        return result

    def _replay(self, result, workers, tracer, pass_index):
        answers = {}
        for index, key in enumerate(self.stream):
            label = "%s/%s/%s/%d" % key
            report, tier = _call(
                result, index, tracer, "op.service",
                "%d:%d" % (pass_index, index),
                workers[index % 2].solve, self.payload(key))
            result.tiers[index] = tier
            result.attempted += 1
            if not report["ok"]:
                result.fail(label, "solve failed: %s" % report["error"])
                continue
            answer = (report["cost"], report["sop"])
            if tier == "engine":
                try:
                    satisfied = checks.sop_satisfies(
                        report["sop"] or "", *self.relations[key[0]])
                except ValueError as exc:
                    result.fail(label, "unreadable SOP: %s" % exc)
                    continue
                if not satisfied:
                    result.fail(label, "SOP violates the relation")
                if key in answers:
                    if answers[key] != answer:
                        result.fail(label, "engine replies differ")
                    continue
                answers[key] = answer
                result.total_cost += report["cost"]
                result.literals_after += checks.sop_literals(report["sop"])
            elif answers.get(key) != answer:
                result.fail(label, "%s reply differs from the engine reply"
                            % tier)


def make(name, seed, scratch):
    """The workload called ``name``, with its inputs built from ``seed``."""
    if name == "table2":
        return Table2(seed)
    if name == "resynth":
        return Resynth(seed)
    if name == "service":
        return Service(seed, scratch)
    raise ValueError("unknown workload %r" % name)

