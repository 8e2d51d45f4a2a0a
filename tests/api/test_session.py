"""Session: ingestion, cached solving, batch ordering and isolation."""

import pytest

from repro.api import Session, SolveRequest
from repro.core import BooleanRelation
from repro.core.relio import write_relation
from repro.equations import BooleanSystem

FIG1_ROWS = [{0b01}, {0b01}, {0b00, 0b11}, {0b10, 0b11}]


@pytest.fixture
def session():
    s = Session()
    s.add_output_sets("fig1", FIG1_ROWS, 2, 2)
    return s


class TestIngestion:
    def test_output_sets(self, session):
        relation = session.relation("fig1")
        assert relation.output_set(2) == {0b00, 0b11}

    def test_pla_round_trip(self, session):
        text = write_relation(session.relation("fig1"))
        relation = session.add_pla("fig1-pla", text)
        assert [outs for _, outs in relation.rows()] \
            == [outs for _, outs in session.relation("fig1").rows()]

    def test_pla_file(self, session, tmp_path):
        path = tmp_path / "r.pla"
        path.write_text(write_relation(session.relation("fig1")))
        relation = session.add_pla_file("from-file", str(path))
        assert "from-file" in session
        assert relation.pair_count() == 6

    def test_truth_tables(self):
        session = Session()
        relation = session.add_truth_tables("xor", [0b0110], 2)
        assert relation.is_function()
        assert relation.output_set(0b01) == {1}
        assert relation.output_set(0b11) == {0}

    def test_equation_system(self):
        session = Session()
        system = BooleanSystem.parse(["x*y = 0", "x + y = a"],
                                     independents=["a"],
                                     dependents=["x", "y"])
        session.add_system("sys", system)
        report = session.solve(SolveRequest(relation="sys"))
        assert report.ok and report.compatible

    def test_equation_strings(self):
        session = Session()
        session.add_system("sys", ["x = a"], independents=["a"],
                           dependents=["x"])
        assert session.relation("sys").is_function()

    def test_benchmark(self):
        session = Session()
        relation = session.add_benchmark("int1")
        assert len(relation.inputs) == 4

    def test_shared_manager_per_shape(self, session):
        session.add_output_sets("other", FIG1_ROWS, 2, 2)
        assert session.relation("other").mgr \
            is session.relation("fig1").mgr

    def test_duplicate_name_rejected(self, session):
        with pytest.raises(ValueError, match="already registered"):
            session.add_output_sets("fig1", FIG1_ROWS, 2, 2)
        session.add_output_sets("fig1", FIG1_ROWS, 2, 2, overwrite=True)

    def test_unknown_name(self, session):
        with pytest.raises(KeyError, match="no relation named"):
            session.relation("nope")


class TestSolve:
    def test_solve_by_name(self, session):
        report = session.solve(SolveRequest(relation="fig1"))
        assert report.ok and report.compatible
        relation = session.relation("fig1")
        assert relation.is_compatible(report.solution.functions)

    def test_solve_explicit_relation(self, session):
        relation = BooleanRelation.from_output_sets(FIG1_ROWS, 2, 2)
        report = session.solve(SolveRequest(), relation=relation)
        assert report.ok and report.compatible

    def test_solve_requires_some_relation(self, session):
        with pytest.raises(ValueError, match="no relation"):
            session.solve(SolveRequest())

    def test_solve_raises_on_failure(self, session):
        with pytest.raises(KeyError):
            session.solve(SolveRequest(relation="missing"))

    def test_spec_solves_share_cache_entries(self, session, tmp_path):
        text = write_relation(session.relation("fig1"))
        spec = {"kind": "pla", "text": text}
        first = session.solve(SolveRequest(relation=spec))
        second = session.solve(SolveRequest(relation=spec))
        assert not first.cached and second.cached
        assert session.cache_hits == 1
        assert second.solution is not None  # self-contained live handle
        # File specs key on content, so on-disk edits invalidate.
        path = tmp_path / "r.pla"
        path.write_text(text)
        file_spec = {"kind": "file", "path": str(path)}
        assert session.solve(SolveRequest(relation=file_spec)).cached
        path.write_text(write_relation(
            BooleanRelation.from_output_sets([{0, 1}] * 4, 2, 1)))
        assert not session.solve(SolveRequest(relation=file_spec)).cached

    def test_cache_hit_on_identical_request(self, session):
        first = session.solve(SolveRequest(relation="fig1"))
        assert not first.cached and session.cache_hits == 0
        second = session.solve(SolveRequest(relation="fig1"))
        assert second.cached and session.cache_hits == 1
        assert second.cost == first.cost
        # A different objective is a different cache entry.
        third = session.solve(SolveRequest(relation="fig1", cost="cubes"))
        assert not third.cached and session.cache_hits == 1
        session.clear_cache()
        assert session.cache_hits == 0


class TestSolveMany:
    def test_ordering_matches_requests(self, session):
        requests = [SolveRequest(relation="fig1", cost=c, label=c)
                    for c in ("size", "size2", "cubes", "literals")]
        reports = session.solve_many(requests, executor="serial")
        assert [r.label for r in reports] == ["size", "size2", "cubes",
                                              "literals"]
        assert all(r.ok and r.compatible for r in reports)

    def test_failure_isolation(self, session):
        requests = [
            SolveRequest(relation="fig1", label="good"),
            SolveRequest(relation="missing", label="bad-name"),
            SolveRequest(relation={"kind": "pla", "text": "garbage"},
                         label="bad-pla"),
            SolveRequest(relation="fig1", cost="cubes", label="good2"),
        ]
        reports = session.solve_many(requests, executor="serial")
        assert [r.ok for r in reports] == [True, False, False, True]
        assert "no relation named" in reports[1].error
        assert reports[2].error is not None
        assert [r.label for r in reports] \
            == ["good", "bad-name", "bad-pla", "good2"]

    def test_not_well_defined_is_captured(self):
        session = Session()
        session.add_output_sets("partial", [{1}, set(), {0}, {1}], 2, 1)
        reports = session.solve_many(
            [SolveRequest(relation="partial", label="nwd")],
            executor="serial")
        assert not reports[0].ok
        assert "well defined" in reports[0].error

    def test_duplicate_jobs_solved_once(self, session):
        requests = [SolveRequest(relation="fig1", label="a"),
                    SolveRequest(relation="fig1", label="b")]
        reports = session.solve_many(requests, executor="serial")
        assert reports[0].ok and reports[1].ok
        assert not reports[0].cached and reports[1].cached
        assert session.cache_hits == 1

    def test_cache_shared_across_calls(self, session):
        session.solve_many([SolveRequest(relation="fig1")],
                           executor="serial")
        reports = session.solve_many([SolveRequest(relation="fig1")],
                                     executor="serial")
        assert reports[0].cached

    def test_process_pool_two_workers(self, session):
        requests = [SolveRequest(relation="fig1", cost=c, label=c)
                    for c in ("size", "size2", "cubes")]
        requests.append(SolveRequest(relation="missing", label="bad"))
        reports = session.solve_many(requests, max_workers=2,
                                     executor="process")
        assert [r.label for r in reports] == ["size", "size2", "cubes",
                                              "bad"]
        assert [r.ok for r in reports] == [True, True, True, False]
        # Worker reports are data-only; solutions stay in-process.
        assert all(r.solution is None for r in reports if r.ok)
        assert all(r.sop for r in reports if r.ok)

    def test_serial_executor_keeps_solutions(self, session):
        reports = session.solve_many(
            [SolveRequest(relation="fig1", label="t")],
            executor="serial")
        assert reports[0].ok
        # In-process execution keeps live Solution handles valid.
        relation = session.relation("fig1")
        assert relation.is_compatible(reports[0].solution.functions)

    def test_caller_mutation_cannot_corrupt_cache(self, session):
        first = session.solve(SolveRequest(relation="fig1"))
        first.solution = None
        first.bdd_sizes.append(999)
        second = session.solve(SolveRequest(relation="fig1"))
        assert second.cached
        assert second.solution is not None
        assert 999 not in second.bdd_sizes

    def test_solve_after_process_batch_still_has_solution(self, session):
        requests = [SolveRequest(relation="fig1", cost=c)
                    for c in ("size", "size2")]
        session.solve_many(requests, max_workers=2, executor="process")
        # The cached batch report has no live solution; Session.solve
        # must honour its live-solution contract by re-solving.
        report = session.solve(SolveRequest(relation="fig1"))
        assert report.solution is not None
        relation = session.relation("fig1")
        assert relation.is_compatible(report.solution.functions)

    @pytest.mark.parametrize("executor", ("carrier-pigeon", "thread"))
    def test_bad_executor_rejected(self, session, executor):
        with pytest.raises(ValueError,
                           match="executor.*'serial', 'process'"):
            session.solve_many([], executor=executor)

    def test_empty_batch(self, session):
        assert session.solve_many([]) == []

    def test_cached_solution_never_crosses_managers(self, session):
        # Same content, different manager: the snapshot-keyed cache may
        # share *data*, but a live Solution must stay with its manager.
        other = BooleanRelation.from_output_sets(FIG1_ROWS, 2, 2)
        session.add_relation("fig1-other-mgr", other)
        assert other.mgr is not session.relation("fig1").mgr
        reports = session.solve_many(
            [SolveRequest(relation="fig1", label="a"),
             SolveRequest(relation="fig1-other-mgr", label="b")],
            executor="serial")
        assert all(r.ok for r in reports)
        for report, relation in zip(reports,
                                    [session.relation("fig1"), other]):
            if report.solution is not None:
                assert report.solution.mgr is relation.mgr
                assert relation.is_compatible(report.solution.functions)

    def test_interactive_solve_distinct_managers(self, session):
        other = BooleanRelation.from_output_sets(FIG1_ROWS, 2, 2)
        session.add_relation("fig1-other-mgr", other)
        first = session.solve(SolveRequest(relation="fig1"))
        second = session.solve(SolveRequest(relation="fig1-other-mgr"))
        # Identity-keyed cache: never a hit across managers.
        assert not second.cached
        assert other.is_compatible(second.solution.functions)
        assert session.relation("fig1").is_compatible(
            first.solution.functions)

    def test_self_contained_specs_without_session_names(self):
        session = Session()
        rows = [[1], [1], [0, 3], [2, 3]]
        spec = {"kind": "output_sets", "rows": rows,
                "num_inputs": 2, "num_outputs": 2}
        reports = session.solve_many(
            [SolveRequest(relation=spec, label="inline")],
            executor="serial")
        assert reports[0].ok and reports[0].compatible


class TestServiceCacheHooks:
    """peek_cached / store_report / options_key — the service layer's
    window into the session report cache."""

    def test_peek_miss_then_hit(self, session):
        request = SolveRequest(relation="fig1")
        assert session.peek_cached(request) is None
        report = session.solve(request)
        peeked = session.peek_cached(request)
        assert peeked is not None and peeked.cached is True
        assert peeked.sop == report.sop and peeked.cost == report.cost

    def test_peek_does_not_run_the_engine(self, session):
        before = session.memo_stats()
        assert session.peek_cached(SolveRequest(relation="fig1")) is None
        assert session.memo_stats() == before

    def test_peek_serves_data_only_entries(self, session):
        """Unlike solve(), which re-solves when the cached entry lost
        its live solution handle, the service path serves the data-only
        report: wire clients never touch Solution objects."""
        request = SolveRequest(relation="fig1")
        report = session.solve(request)
        session.store_report(request, report)  # stores solution=None
        session.clear_cache()
        session.store_report(request, report)
        peeked = session.peek_cached(request)
        assert peeked is not None
        assert peeked.solution is None
        resolved = session.solve(request)
        assert resolved.cached is False  # solve() still re-solves

    def test_peek_relabels_to_the_caller(self, session):
        session.solve(SolveRequest(relation="fig1", label="first"))
        peeked = session.peek_cached(
            SolveRequest(relation="fig1", label="second"))
        assert peeked.label == "second"
        assert peeked.request["label"] == "second"

    def test_store_report_round_trip_from_wire(self, session):
        """A report that travelled through JSON (the disk tier) can be
        injected and served to identical future requests."""
        import json
        from repro.api import SolveReport
        request = SolveRequest(relation="fig1")
        report = session.solve(request)
        wire = SolveReport.from_dict(json.loads(report.to_json()))
        other = Session()
        other.add_output_sets("fig1", FIG1_ROWS, 2, 2)
        other.store_report(request, wire)
        served = other.peek_cached(request)
        assert served is not None
        assert served.sop == report.sop and served.cost == report.cost

    def test_store_report_refuses_bad_reports(self, session):
        from repro.api import SolveReport
        request = SolveRequest(relation="fig1")
        failed = SolveReport.from_error(ValueError("nope"))
        session.store_report(request, failed)
        assert session.peek_cached(request) is None
        cancelled = session.solve(request).copy(stopped="cancelled")
        session.clear_cache()
        session.store_report(request, cancelled)
        assert session.peek_cached(request) is None

    def test_options_key_is_json_safe_and_label_free(self, session):
        import json
        a = session.options_key(SolveRequest(relation="fig1",
                                             label="x"))
        b = session.options_key(SolveRequest(relation="fig1",
                                             label="y"))
        assert a == b
        json.dumps(list(a))
        c = session.options_key(SolveRequest(relation="fig1",
                                             cost="cubes"))
        assert a != c


class TestPerJobMemoAttribution:
    """Cache-served reports must not repeat the original job's memo
    deltas: summing per-job stats across a batch has to agree with the
    session store's own counters."""

    def test_cached_copy_zeroes_memo_deltas(self, session):
        first = session.solve(SolveRequest(relation="fig1"))
        assert first.stats["memo_stores"] > 0
        again = session.solve(SolveRequest(relation="fig1"))
        assert again.cached is True
        for field in ("memo_hits", "memo_misses", "memo_stores"):
            assert again.stats[field] == 0

    def test_batch_deltas_sum_to_store_counters(self, session):
        requests = [SolveRequest(relation="fig1", label="a"),
                    SolveRequest(relation="fig1", label="b"),
                    SolveRequest(relation="fig1", label="c")]
        reports = session.solve_many(requests, executor="process")
        assert [r.ok for r in reports] == [True] * 3
        stats = session.memo_stats()
        assert sum(r.stats["memo_hits"] for r in reports) \
            == stats["hits"]
        assert sum(r.stats["memo_misses"] for r in reports) \
            == stats["misses"]

    def test_serial_batch_duplicates_report_zero_memo_work(self, session):
        session.solve(SolveRequest(relation="fig1"))
        hits_before = session.memo_stats()["hits"]
        misses_before = session.memo_stats()["misses"]
        reports = session.solve_many(
            [SolveRequest(relation="fig1", label="dup-%d" % i)
             for i in range(3)], executor="serial")
        assert all(r.cached for r in reports)
        delta_hits = session.memo_stats()["hits"] - hits_before
        delta_misses = session.memo_stats()["misses"] - misses_before
        assert sum(r.stats["memo_hits"] for r in reports) == delta_hits
        assert sum(r.stats["memo_misses"] for r in reports) \
            == delta_misses
