"""Session-level output-block decomposition: solve, cache, reports."""

import json

import pytest

from repro.api import Session, SolveRequest, SolveReport
from repro.benchdata.brgen import block_structured_relation


@pytest.fixture
def session():
    s = Session()
    s.add_relation("blocky",
                   block_structured_relation([(4, 2), (4, 2)], seed=3))
    s.add_relation("mono",
                   block_structured_relation([(4, 2)], seed=3))
    return s


BLOCK_REQUEST = SolveRequest(relation="blocky", max_explored=200,
                             label="blocky")


class TestRequestField:
    def test_decompose_round_trips_through_json(self):
        for value in (None, True, False):
            request = SolveRequest(relation="blocky", decompose=value)
            again = SolveRequest.from_json(request.to_json())
            assert again == request
            assert again.decompose is value

    def test_decompose_reaches_options(self):
        assert SolveRequest(decompose=False).to_options().decompose \
            is False
        assert SolveRequest().to_options().decompose is None

    def test_legacy_dicts_without_decompose_still_load(self):
        data = SolveRequest(relation="blocky").to_dict()
        del data["decompose"]
        assert SolveRequest.from_dict(data).decompose is None


class TestSessionSolveSharded:
    def test_serial_solve_reports_partition(self, session):
        report = session.solve(BLOCK_REQUEST)
        assert report.partition is not None
        assert report.partition["num_blocks"] == 2
        assert report.compatible
        assert report.stats["relations_explored"] == sum(
            block["stats"]["relations_explored"]
            for block in report.partition["blocks"])

    def test_monolithic_relation_has_no_partition(self, session):
        report = session.solve(SolveRequest(relation="mono"))
        assert report.partition is None

    def test_forced_off_suppresses_partition(self, session):
        report = session.solve(
            BLOCK_REQUEST.replace(decompose=False))
        assert report.partition is None
        assert report.compatible

    #: (block shapes, seed); the first two partition into a block with
    #: no inputs at all (its outputs ignore every input).
    SHAPED_CASES = [([(1, 1), (1, 1)], 1), ([(1, 2), (2, 1)], 7),
                    ([(2, 2), (3, 1)], 4), ([(3, 2), (2, 2)], 9)]

    @pytest.mark.parametrize("shapes,seed", SHAPED_CASES)
    def test_sharded_solve_on_assorted_shapes(self, shapes, seed):
        session = Session()
        relation = block_structured_relation(shapes, seed=seed)
        session.add_relation("shaped", relation)
        report = session.solve(SolveRequest(relation="shaped",
                                            max_explored=50))
        assert report.ok and report.partition is not None
        assert report.partition["num_blocks"] >= 2
        assert relation.is_compatible(report.solution.functions)
        assert report.cost == sum(block["cost"]
                                  for block in report.partition["blocks"])

    def test_auto_and_forced_on_share_a_cache_slot(self, session):
        first = session.solve(BLOCK_REQUEST)
        hits_before = session.cache_hits
        again = session.solve(BLOCK_REQUEST.replace(decompose=True))
        assert session.cache_hits == hits_before + 1
        assert again.cached and again.cost == first.cost

    def test_forced_off_gets_its_own_cache_slot(self, session):
        session.solve(BLOCK_REQUEST)
        hits_before = session.cache_hits
        off = session.solve(BLOCK_REQUEST.replace(decompose=False))
        assert session.cache_hits == hits_before
        assert not off.cached
        assert off.partition is None

    def test_record_trace_keeps_the_sharded_trace(self, session):
        # A cache hit under a record_trace key must serve the trace too.
        report = session.solve(BLOCK_REQUEST.replace(record_trace=True))
        assert report.trace is not None
        assert report.trace[0]["kind"] == "partition"
        assert report.trace[-1]["kind"] == "done"
        again = session.solve(BLOCK_REQUEST.replace(record_trace=True))
        assert again.cached
        assert again.trace == report.trace

    def test_observer_sees_the_sharded_event_stream(self, session):
        events = []
        report = session.solve(BLOCK_REQUEST, observer=events.append)
        assert report.partition is not None
        kinds = [event.kind for event in events]
        assert kinds[0] == "partition" and kinds[-1] == "done"
        assert events[-1].cost == report.cost

    def test_precancelled_sharded_solve_honours_the_token(self, session):
        from repro.api import CancelToken
        cancel = CancelToken()
        cancel.cancel()
        report = session.solve(BLOCK_REQUEST, cancel=cancel)
        assert report.stopped == "cancelled"
        assert report.compatible
        assert [block["stopped"]
                for block in report.partition["blocks"]] == \
            ["skipped", "skipped"]
        # Cancelled partial results never enter the cache.
        fresh = session.solve(BLOCK_REQUEST)
        assert not fresh.cached

    def test_sharded_trajectory_ends_at_the_report_cost(self, session):
        report = session.solve(BLOCK_REQUEST)
        costs = [imp["cost"] for imp in report.improvements]
        explored = [imp["explored"] for imp in report.improvements]
        assert costs and costs[-1] == report.cost
        # Whole-relation incumbents: strictly improving, and the
        # cumulative explored count never runs backwards across blocks.
        assert costs == sorted(set(costs), reverse=True)
        assert explored == sorted(explored)
        again = session.solve(BLOCK_REQUEST)
        assert again.cached
        assert again.improvements == report.improvements

    def test_solve_iter_streams_the_sharded_improvements(self, session):
        stream = session.solve_iter(BLOCK_REQUEST)
        yielded = []
        while True:
            try:
                yielded.append(next(stream))
            except StopIteration as stop:
                report = stop.value
                break
        assert report.partition is not None
        assert report.partition["num_blocks"] == 2
        assert [imp.cost for imp in yielded] == \
            [imp["cost"] for imp in report.improvements]
        assert yielded[-1].cost == report.cost
        assert report.compatible

    def test_time_limited_sharded_solve_shares_one_deadline(self,
                                                            session):
        events = []
        report = session.solve(
            BLOCK_REQUEST.replace(time_limit_seconds=0.0),
            observer=events.append)
        assert report.stopped == "timeout"
        assert report.compatible
        assert report.partition is not None
        assert report.partition["num_blocks"] == 2
        assert [event.kind for event in events].count("timeout") == 1

    def test_not_well_defined_multi_output_relation_raises(self):
        from repro.core import BooleanRelation, NotWellDefinedError
        session = Session()
        session.add_relation(
            "partial",
            BooleanRelation.from_output_sets([set(), set()], 1, 2))
        with pytest.raises(NotWellDefinedError):
            session.solve(SolveRequest(relation="partial"))

    def test_blocks_use_session_memo(self, session):
        assert session.memo_stats()["stores"] == 0
        report = session.solve(BLOCK_REQUEST)
        stats = session.memo_stats()
        assert stats["stores"] > 0
        assert stats["stores"] == report.stats["memo_stores"]
        assert sum(block["stats"]["memo_stores"]
                   for block in report.partition["blocks"]) > 0


class TestReportSchema:
    def test_partition_survives_json_round_trip(self, session):
        report = session.solve(BLOCK_REQUEST)
        again = SolveReport.from_json(report.to_json())
        assert again.partition == report.partition
        assert again.schema_version == report.schema_version

    def test_copy_does_not_share_partition_dict(self, session):
        report = session.solve(BLOCK_REQUEST)
        clone = report.copy()
        clone.partition["blocks"][0]["cost"] = -1
        assert report.partition["blocks"][0]["cost"] != -1

    def test_summary_mentions_blocks(self, session):
        report = session.solve(BLOCK_REQUEST)
        assert "[2 blocks]" in report.summary()


class TestSolveManySharded:
    def test_batch_workers_shard_in_solver(self, session):
        requests = [BLOCK_REQUEST,
                    SolveRequest(relation="mono", label="mono")]
        reports = session.solve_many(requests, executor="serial")
        assert all(report.ok for report in reports)
        assert reports[0].partition is not None
        assert reports[1].partition is None

    def test_batch_process_reports_carry_partition(self, session):
        reports = session.solve_many([BLOCK_REQUEST],
                                     executor="process")
        assert reports[0].ok
        assert reports[0].partition is not None
        assert reports[0].partition["num_blocks"] == 2
        # Data-only report: the partition travelled across the process
        # boundary as JSON-ready data.
        json.dumps(reports[0].partition)