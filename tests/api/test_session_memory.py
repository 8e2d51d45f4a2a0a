"""Session-level memory management: pinning, trims, bounded engines.

Regression suite for the seed bug where a long-lived :class:`Session`
never cleared or bounded its managers' unique/computed tables, leaking
memory across batch workloads.
"""

from __future__ import annotations

import pytest

from repro.api import Session, SolveRequest
from repro.benchdata.brgen import random_relation
from repro.core.relation import BooleanRelation

FIG1_ROWS = [{0b01}, {0b01}, {0b00, 0b11}, {0b10, 0b11}]


def make_session(**kwargs):
    session = Session(**kwargs)
    session.add_output_sets("fig1", FIG1_ROWS, 2, 2)
    return session


class TestPinningAndTrim:
    def test_registered_relations_are_pinned(self):
        session = make_session()
        relation = session.relation("fig1")
        assert relation.mgr.pin_count(relation.node) == 1

    def test_overwrite_moves_the_pin(self):
        session = make_session()
        old = session.relation("fig1")
        replacement = old.with_node(old.mgr.not_(old.node))
        session.add_relation("fig1", replacement, overwrite=True)
        assert old.mgr.pin_count(old.node) == 0
        assert old.mgr.pin_count(replacement.node) == 1

    def test_remove_relation_unpins(self):
        session = make_session()
        relation = session.relation("fig1")
        session.remove_relation("fig1")
        assert relation.mgr.pin_count(relation.node) == 0
        with pytest.raises(KeyError):
            session.remove_relation("fig1")

    def test_trim_preserves_registered_relations(self):
        session = make_session()
        before = [sorted(outs) for _, outs in
                  session.relation("fig1").rows()]
        report = session.solve(SolveRequest(relation="fig1"))
        assert report.ok
        stats = session.trim()
        assert session.trims >= 1
        assert any(entry["gc_runs"] >= 1 for entry in stats.values())
        after = [sorted(outs) for _, outs in
                 session.relation("fig1").rows()]
        assert before == after
        # Solving again still works and agrees.
        again = session.solve(SolveRequest(relation="fig1"))
        assert again.ok and again.cost == report.cost

    def test_trim_strips_live_solutions_but_keeps_data(self):
        session = make_session()
        report = session.solve(SolveRequest(relation="fig1"))
        pla_before = report.solution_pla()
        session.trim()
        fresh = session.solve(SolveRequest(relation="fig1"))
        assert fresh.ok
        assert fresh.solution is not None  # re-solved, live again
        assert fresh.solution_pla() == pla_before


class TestBoundedEngineAcrossSolves:
    def test_node_and_cache_counts_stay_bounded(self):
        """100 solves on one relation must not grow the engine unboundedly."""
        session = make_session(auto_trim_nodes=4000)
        relation = session.relation("fig1")
        mgr = relation.mgr
        mgr.set_cache_limit(4096)
        peaks = []
        for round_number in range(100):
            session.clear_cache()  # force genuine re-solves
            report = session.solve(SolveRequest(relation="fig1"))
            assert report.ok
            stats = mgr.stats()
            assert stats["cache_entries"] <= 4096
            peaks.append(stats["nodes"])
        # The node store is trimmed whenever it crosses the threshold, so
        # it can never run away across a long session.
        assert max(peaks) <= 4000 + 3000, \
            "node store grew unboundedly: %d" % max(peaks)

    def test_auto_trim_fires_and_relation_survives(self):
        session = make_session(auto_trim_nodes=1)  # trim before every solve
        for _ in range(5):
            session.clear_cache()
            report = session.solve(SolveRequest(relation="fig1"))
            assert report.ok and report.compatible
        assert session.trims >= 5

    def test_caller_owned_relation_never_auto_trimmed(self):
        """Regression: auto-trim must not remap under a caller's handle.

        Solving a live, unregistered relation repeatedly with an
        aggressive trim threshold has to keep returning the same answer —
        the session may not collect a manager it cannot safely remap for
        the caller.
        """
        session = Session(auto_trim_nodes=1)
        relation = random_relation(3, 3, seed=33)
        first = session.solve(SolveRequest(), relation=relation)
        assert first.ok
        for _ in range(3):
            session.clear_cache()
            again = session.solve(SolveRequest(), relation=relation)
            assert again.ok
            assert again.cost == first.cost
            assert again.sop == first.sop
        assert session.trims == 0

    def test_serial_batch_respects_auto_trim(self):
        """Regression: solve_many(serial) must also bound engine memory."""
        session = make_session(auto_trim_nodes=1)
        requests = [SolveRequest(relation="fig1", cost=cost, label=cost)
                    for cost in ("size", "size2", "cubes", "literals")]
        reports = session.solve_many(requests, executor="serial")
        assert all(report.ok for report in reports)
        assert session.trims >= 1
        # The relation survived every mid-batch collection.
        final = session.solve(SolveRequest(relation="fig1"))
        assert final.ok and final.compatible

    def test_strip_solution_skips_exponential_pla_for_wide_reports(self):
        """Regression: trimming must not enumerate 2^inputs PLA rows."""
        session = Session(max_snapshot_inputs=2)
        session.add_relation("wide4", random_relation(4, 2, seed=11))
        report = session.solve(SolveRequest(relation="wide4"))
        assert report.ok and report.solution is not None
        session._strip_solution(report)
        # Wider than max_snapshot_inputs: the PLA stays unmaterialised.
        assert report.solution is None and report.pla is None

    def test_strip_solution_materialises_narrow_pla(self):
        session = Session()  # default threshold: 4 inputs is narrow
        session.add_relation("narrow", random_relation(4, 2, seed=11))
        report = session.solve(SolveRequest(relation="narrow"))
        assert report.solution is not None
        session._strip_solution(report)
        assert report.solution is None and report.pla is not None

    def test_engine_stats_exposes_managers(self):
        session = make_session()
        stats = session.engine_stats()
        assert "shape:2x2" in stats
        assert stats["shape:2x2"]["num_vars"] == 4


class TestSnapshotGuard:
    def test_wide_relation_rejected_for_pool_executors(self):
        session = Session(max_snapshot_inputs=3)
        relation = random_relation(4, 2, seed=9)
        session.add_relation("wide", relation)
        requests = [SolveRequest(relation="wide")]
        with pytest.raises(ValueError) as excinfo:
            session.solve_many(requests, executor="process")
        message = str(excinfo.value)
        assert "serial" in message
        assert "max_snapshot_inputs" in message

    def test_wide_relation_allowed_serially(self):
        session = Session(max_snapshot_inputs=3)
        session.add_relation("wide", random_relation(4, 2, seed=9))
        reports = session.solve_many([SolveRequest(relation="wide")],
                                     executor="serial")
        assert len(reports) == 1 and reports[0].ok

    def test_default_threshold_guards_functional_wide_relation(self):
        session = Session()
        mgr = session.manager_for(17, 1)
        inputs = list(range(17))
        relation = BooleanRelation.from_functions(
            mgr, inputs, [17], [mgr.var(0)])
        session.add_relation("huge", relation)
        with pytest.raises(ValueError):
            session.solve_many([SolveRequest(relation="huge")],
                               executor="process")

    def test_narrow_relations_still_parallelise(self):
        session = make_session()
        reports = session.solve_many(
            [SolveRequest(relation="fig1", cost=cost, label=cost)
             for cost in ("size", "cubes")],
            executor="process", max_workers=2)
        assert all(report.ok for report in reports)
