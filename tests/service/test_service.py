"""Tests for the transport-independent service core (SolveService)."""

import pytest

from repro.api import REPORT_SCHEMA_VERSION, SolveReport, SolveRequest
from repro.resynth import ResynthRequest
from repro.service import (DiskCache, ServiceError, SolveService,
                           fingerprint_payload)

VTX = {"relation": {"kind": "bench", "name": "vtx"}, "max_explored": 60}


class TestTieredSolve:
    def test_first_engine_then_ram(self, fig1_request):
        service = SolveService()
        first, tier1 = service.solve(dict(fig1_request))
        second, tier2 = service.solve(dict(fig1_request))
        assert (tier1, tier2) == ("engine", "ram")
        assert first["ok"] and second["ok"]
        assert second["cached"] is True
        # Report-equal where it matters: same answer, same cost.
        assert second["sop"] == first["sop"]
        assert second["cost"] == first["cost"]
        assert service.tier_hits == {"ram": 1, "disk": 0, "engine": 1}

    def test_ram_hit_does_no_memo_work(self, fig1_request):
        service = SolveService()
        service.solve(dict(fig1_request))
        before = service.session.memo_stats()
        report, tier = service.solve(dict(fig1_request))
        assert tier == "ram"
        assert service.session.memo_stats() == before
        assert report["stats"]["memo_hits"] == 0
        assert report["stats"]["memo_misses"] == 0

    def test_disk_tier_survives_worker_death(self, fig1_request,
                                             cache_dir):
        worker1 = SolveService(disk=DiskCache(cache_dir))
        _, tier1 = worker1.solve(dict(fig1_request))
        assert tier1 == "engine"
        # A different process lifetime: fresh session, same directory.
        worker2 = SolveService(disk=DiskCache(cache_dir))
        report, tier2 = worker2.solve(dict(fig1_request))
        assert tier2 == "disk"
        assert report["ok"] and report["cached"]
        # Promotion: the *next* identical request is a RAM hit.
        _, tier3 = worker2.solve(dict(fig1_request))
        assert tier3 == "ram"
        assert worker2.tier_hits["engine"] == 0

    def test_label_does_not_split_the_cache(self, fig1_request):
        service = SolveService()
        service.solve(dict(fig1_request, label="alpha"))
        report, tier = service.solve(dict(fig1_request, label="beta"))
        assert tier == "ram"
        assert report["label"] == "beta"

    def test_options_split_the_cache(self, fig1_request):
        service = SolveService()
        service.solve(dict(fig1_request))
        _, tier = service.solve(dict(fig1_request, cost="cubes"))
        assert tier == "engine"

    def test_fingerprint_stable_across_services(self, fig1_request,
                                                cache_dir):
        a = SolveService(disk=DiskCache(cache_dir))
        b = SolveService(disk=DiskCache(cache_dir))
        request = SolveRequest.from_dict(fig1_request)
        assert a.request_fingerprint(request) \
            == b.request_fingerprint(request)

    def test_file_specs_fingerprint_on_content(self, fig1_pla,
                                               tmp_path):
        path = tmp_path / "r.pla"
        path.write_text(fig1_pla)
        service = SolveService()
        by_file = service.request_fingerprint(SolveRequest(
            relation={"kind": "file", "path": str(path)}))
        by_text = service.request_fingerprint(SolveRequest(
            relation={"kind": "pla", "text": fig1_pla}))
        assert by_file == by_text


class TestValidation:
    def test_non_object_body(self):
        with pytest.raises(ServiceError):
            SolveService().solve([1, 2, 3])

    def test_unknown_option_value(self, fig1_request):
        with pytest.raises(ServiceError, match="invalid solve request"):
            SolveService().solve(dict(fig1_request, cost="no-such"))

    def test_missing_relation(self):
        with pytest.raises(ServiceError):
            SolveService().solve({"cost": "size"})

    def test_error_counted(self, fig1_request):
        service = SolveService()
        with pytest.raises(ServiceError):
            service.solve(dict(fig1_request, strategy="bogus"))
        assert service.request_counts["errors"] == 1

    #: The retired ``mode`` alias and truth-table engine knobs, named
    #: by their former CLI flags, each with a value the old schema
    #: accepted.  The wire key is the flag name in snake case.
    REMOVED = {"--mode": "dfs", "--backend": "auto", "--table-width": 8,
               "--route-subproblems": True, "--table-kernel": "int"}

    @pytest.mark.parametrize("kind", ["solve", "resynth"])
    @pytest.mark.parametrize("flag", sorted(REMOVED))
    def test_removed_keys_are_rejected(self, fig1_request, kind, flag):
        key = flag[2:].replace("-", "_")
        if kind == "solve":
            data = dict(fig1_request)
            parse, serve = SolveRequest.from_dict, SolveService().solve
        else:
            data = {"circuit": "s27", "passes": 1}
            parse, serve = ResynthRequest.from_dict, SolveService().resynth
        data[key] = self.REMOVED[flag]
        with pytest.raises(ValueError, match=key):
            parse(data)
        with pytest.raises(ServiceError, match=key) as info:
            serve(data)
        assert info.value.status == 400


class TestStream:
    def test_stream_shape(self):
        service = SolveService()
        frames = list(service.solve_stream(dict(VTX)))
        kinds = [name for name, _ in frames]
        assert kinds[-1] == "report"
        assert kinds.count("report") == 1
        assert "improvement" in kinds
        report = frames[-1][1]
        assert report["ok"] and not report["cached"]
        improvements = [payload for name, payload in frames
                        if name == "improvement"]
        costs = [imp["cost"] for imp in improvements]
        assert costs == sorted(costs, reverse=True)
        assert all(set(imp) >= {"cost", "elapsed_seconds", "explored",
                                "sop"} for imp in improvements)
        events = [payload for name, payload in frames if name == "event"]
        assert all("kind" in event and "elapsed_seconds" in event
                   for event in events)

    def test_stream_result_lands_in_ram_tier(self, fig1_request):
        service = SolveService()
        frames = list(service.solve_stream(dict(fig1_request)))
        assert frames[-1][0] == "report"
        _, tier = service.solve(dict(fig1_request))
        assert tier == "ram"

    def test_closing_mid_stream_cancels(self):
        service = SolveService()
        stream = service.solve_stream(dict(
            VTX, strategy="best-first", max_explored=None,
            fifo_capacity=None))
        # Take one frame, then hang up like a disconnecting client.
        next(stream)
        stream.close()
        assert service.request_counts["stream_cancelled"] == 1
        # The cancelled partial never entered any cache tier.
        _, tier = service.solve(dict(
            VTX, strategy="best-first", max_explored=None,
            fifo_capacity=None))
        assert tier == "engine"

    def test_stream_validation_error(self):
        service = SolveService()
        with pytest.raises(ServiceError):
            list(service.solve_stream({"relation": "unregistered"}))


class TestBatch:
    def test_mixed_tiers_and_order(self, fig1_request):
        service = SolveService()
        service.solve(dict(fig1_request))
        result = service.batch({"jobs": [dict(fig1_request),
                                         dict(VTX),
                                         dict(fig1_request)]})
        assert result["ok"]
        assert result["tiers"] == ["ram", "engine", "ram"]
        labels = [report["label"] for report in result["reports"]]
        # Unlabelled jobs are numbered by their position in *this*
        # batch, not by their slot in the engine sub-batch.
        assert labels == ["fig1", "job-1", "fig1"]

    def test_list_body_and_defaults(self, fig1_request):
        service = SolveService()
        result = service.batch([dict(fig1_request)])
        assert result["ok"] and result["tiers"] == ["engine"]
        result = service.batch({"defaults": {"cost": "cubes"},
                                "jobs": [dict(fig1_request)]})
        assert result["reports"][0]["request"]["cost"] == "cubes"

    def test_fresh_batch_reports_reach_disk(self, fig1_request,
                                            cache_dir):
        service = SolveService(disk=DiskCache(cache_dir))
        service.batch({"jobs": [dict(fig1_request)]})
        cold = SolveService(disk=DiskCache(cache_dir))
        _, tier = cold.solve(dict(fig1_request))
        assert tier == "disk"

    def test_bad_executor_rejected(self, fig1_request):
        with pytest.raises(ServiceError, match="executor"):
            SolveService().batch({"jobs": [dict(fig1_request)],
                                  "executor": "gpu"})
        with pytest.raises(ServiceError, match="'serial', 'process'"):
            SolveService().batch({"jobs": [dict(fig1_request)],
                                  "executor": "thread"})
        with pytest.raises(ServiceError, match="workers"):
            SolveService().batch({"jobs": [dict(fig1_request)],
                                  "workers": 0})

    def test_failing_job_does_not_sink_batch(self, fig1_request):
        service = SolveService()
        result = service.batch({"jobs": [
            dict(fig1_request),
            {"relation": "never-registered"}]})
        assert not result["ok"]
        assert result["reports"][0]["ok"] is True
        assert result["reports"][1]["ok"] is False


class TestMemoFlushing:
    def test_boot_seeds_from_disk(self, fig1_request, cache_dir):
        warm = SolveService(disk=DiskCache(cache_dir))
        warm.solve(dict(fig1_request))
        flushed = warm.flush()
        assert flushed > 0
        cold = SolveService(disk=DiskCache(cache_dir))
        assert cold.seeded_entries == flushed
        assert cold.session.memo_stats()["entries"] == flushed

    def test_flush_cadence(self, fig1_request, cache_dir):
        service = SolveService(disk=DiskCache(cache_dir), flush_every=2)
        service.solve(dict(fig1_request))
        assert service.flushes == 0
        service.solve(dict(fig1_request, cost="cubes"))
        assert service.flushes == 1

    def test_ram_hits_do_not_advance_cadence(self, fig1_request,
                                             cache_dir):
        service = SolveService(disk=DiskCache(cache_dir), flush_every=2)
        service.solve(dict(fig1_request))
        for _ in range(5):
            service.solve(dict(fig1_request))
        assert service.flushes == 0

    def test_flush_without_disk_is_a_noop(self, fig1_request):
        service = SolveService()
        service.solve(dict(fig1_request))
        assert service.flush() == 0

    def test_bad_flush_every_rejected(self):
        with pytest.raises(ValueError):
            SolveService(flush_every=0)


class TestStatsAndHealth:
    def test_healthz(self):
        health = SolveService().healthz()
        assert health["ok"] is True
        assert "version" in health and "uptime_seconds" in health

    def test_stats_attribution(self, fig1_request, cache_dir):
        service = SolveService(disk=DiskCache(cache_dir))
        service.solve(dict(fig1_request))
        service.solve(dict(fig1_request))
        stats = service.stats()
        assert stats["tiers"] == {"ram": 1, "disk": 0, "engine": 1}
        assert stats["requests"]["solve"] == 2
        assert stats["disk"]["report_stores"] == 1
        assert len(stats["recent"]) == 2
        fresh, cached = stats["recent"]
        assert fresh["tier"] == "engine" and cached["tier"] == "ram"
        # Per-request memo attribution: the engine request did real
        # memo work, the cache hit reports none of its own.
        assert fresh["memo_misses"] > 0
        assert cached["memo_hits"] == 0
        assert cached["memo_misses"] == 0

    def test_stats_without_disk(self, fig1_request):
        service = SolveService()
        service.solve(dict(fig1_request))
        assert service.stats()["disk"] is None


class TestWireRoundTrip:
    def test_disk_report_rebuilds_as_report(self, fig1_request,
                                            cache_dir):
        service = SolveService(disk=DiskCache(cache_dir))
        service.solve(dict(fig1_request))
        request = SolveRequest.from_dict(fig1_request)
        key = service.request_fingerprint(request)
        stored = service.disk.get_report(key)
        report = SolveReport.from_dict(stored)
        assert report.ok and report.sop

    def test_corrupt_disk_report_falls_through_to_engine(
            self, fig1_request, cache_dir):
        service = SolveService(disk=DiskCache(cache_dir))
        service.solve(dict(fig1_request))
        request = SolveRequest.from_dict(fig1_request)
        key = service.request_fingerprint(request)
        service.disk.put_report(key, {"not": "a report"})
        cold = SolveService(disk=DiskCache(cache_dir))
        report, tier = cold.solve(dict(fig1_request))
        assert tier == "engine" and report["ok"]

    def test_older_schema_report_is_a_disk_miss(self, fig1_request,
                                                cache_dir):
        # A stored report whose fields still parse but whose
        # schema_version is older follows the old rules: it must be a
        # disk miss, solved again by the engine and rewritten.
        service = SolveService(disk=DiskCache(cache_dir))
        service.solve(dict(fig1_request))
        request = SolveRequest.from_dict(fig1_request)
        key = service.request_fingerprint(request)
        stored = service.disk.get_report(key)
        stored["schema_version"] = REPORT_SCHEMA_VERSION - 1
        SolveReport.from_dict(stored)  # still parses
        service.disk.put_report(key, stored)
        cold = SolveService(disk=DiskCache(cache_dir))
        report, tier = cold.solve(dict(fig1_request))
        assert tier == "engine" and report["ok"]
        assert report["schema_version"] == REPORT_SCHEMA_VERSION
        assert cold.tier_hits == {"ram": 0, "disk": 0, "engine": 1}
        rewritten = cold.disk.get_report(key)
        assert rewritten["schema_version"] == REPORT_SCHEMA_VERSION
        _, tier = SolveService(disk=DiskCache(cache_dir)).solve(
            dict(fig1_request))
        assert tier == "disk"


class TestTimeLimitAdmission:
    """Server-side time-limit policy: reject the absurd, clamp the rest."""

    def test_cap_is_validated_at_construction(self):
        for bad in (0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                SolveService(max_time_limit=bad)

    def test_non_finite_time_limit_is_a_client_error(self, fig1_request):
        # Rejected even without a cap configured: NaN/inf pass the
        # request dataclass's range check but can never be honoured.
        service = SolveService()
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ServiceError, match="finite"):
                service.solve(dict(fig1_request,
                                   time_limit_seconds=bad))
        assert service.request_counts["errors"] == 2

    def test_uncapped_and_oversized_requests_clamp_to_the_cap(
            self, fig1_request):
        service = SolveService(max_time_limit=30.0)
        _, tier1 = service.solve(dict(fig1_request))
        # No limit and an over-cap limit both ran as the cap — the
        # clamp precedes the cache key, so they share one slot.
        _, tier2 = service.solve(dict(fig1_request,
                                      time_limit_seconds=1000.0))
        assert (tier1, tier2) == ("engine", "ram")

    def test_under_cap_limits_pass_through_unclamped(self, fig1_request):
        service = SolveService(max_time_limit=30.0)
        service.solve(dict(fig1_request, time_limit_seconds=5.0))
        # 5s was not rewritten to 30s: a 30s request is a distinct slot.
        _, tier = service.solve(dict(fig1_request,
                                     time_limit_seconds=30.0))
        assert tier == "engine"

    def test_stream_and_batch_apply_the_same_admission(self,
                                                       fig1_request):
        service = SolveService(max_time_limit=30.0)
        with pytest.raises(ServiceError):
            list(service.solve_stream(
                dict(fig1_request, time_limit_seconds=float("nan"))))
        with pytest.raises(ServiceError):
            service.batch([dict(fig1_request,
                                time_limit_seconds=float("inf"))])

    def test_stats_surface_the_cap(self):
        assert SolveService(max_time_limit=12.5).stats()[
            "max_time_limit"] == 12.5
        assert SolveService().stats()["max_time_limit"] is None
