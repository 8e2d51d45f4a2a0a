"""Portfolio racing through the service layer: race summaries in the
request log and /stats, and the SSE-disconnect cancellation path."""

import multiprocessing
import time

from repro.service import SolveService

PORTFOLIO_FIG1 = {"strategy": "portfolio",
                  "portfolio_executor": "serial"}


class TestPortfolioReports:
    def test_report_and_stats_carry_the_race(self, fig1_request):
        service = SolveService()
        report, tier = service.solve(dict(fig1_request,
                                          **PORTFOLIO_FIG1))
        assert tier == "engine"
        assert report["ok"]
        winner = report["portfolio"]["winner"]
        assert winner is not None
        stats = service.stats()
        assert stats["portfolio"]["races"] == 1
        assert stats["portfolio"]["wins"] == {winner: 1}
        recent = stats["recent"][-1]
        assert recent["portfolio_winner"] == winner
        assert recent["portfolio_executor"] == "serial"

    def test_non_portfolio_requests_not_counted(self, fig1_request):
        service = SolveService()
        service.solve(dict(fig1_request))
        stats = service.stats()
        assert stats["portfolio"] == {"races": 0, "wins": {}}
        assert "portfolio_winner" not in stats["recent"][-1]

    def test_ram_tier_preserves_the_summary(self, fig1_request):
        service = SolveService()
        first, _ = service.solve(dict(fig1_request, **PORTFOLIO_FIG1))
        second, tier = service.solve(dict(fig1_request,
                                          **PORTFOLIO_FIG1))
        assert tier == "ram"
        assert second["portfolio"] == first["portfolio"]

    def test_racer_lineup_splits_the_cache(self, fig1_request):
        service = SolveService()
        service.solve(dict(fig1_request, **PORTFOLIO_FIG1))
        _, tier = service.solve(dict(fig1_request, **PORTFOLIO_FIG1,
                                     portfolio_racers="bfs,dfs"))
        assert tier == "engine"


class TestPortfolioStream:
    def test_stream_reaches_the_report(self, fig1_request):
        service = SolveService()
        frames = list(service.solve_stream(dict(fig1_request,
                                                **PORTFOLIO_FIG1)))
        kinds = [name for name, _ in frames]
        assert kinds[-1] == "report"
        events = [payload for name, payload in frames
                  if name == "event"]
        assert any(event["kind"] == "portfolio" for event in events)
        assert any(event["kind"] == "racer-done" for event in events)
        assert frames[-1][1]["portfolio"]["winner"] is not None

    def test_disconnect_mid_race_stops_every_racer(self):
        """A client hanging up mid-portfolio-stream must trip every
        racer's token: the race winds down instead of orphaned racer
        processes burning CPU on a dead request."""
        service = SolveService()
        stream = service.solve_stream({
            "relation": {"kind": "bench", "name": "vtx"},
            "strategy": "portfolio",
            "portfolio_racers": [{"strategy": "best-first",
                                  "max_explored": None,
                                  "fifo_capacity": None}],
            "portfolio_executor": "process"})
        for _ in range(3):
            next(stream)
        stream.close()
        assert service.request_counts["stream_cancelled"] == 1
        deadline = time.monotonic() + 10.0
        racers = []
        while time.monotonic() < deadline:
            racers = multiprocessing.active_children()
            if not racers:
                break
            time.sleep(0.05)
        assert not racers, "racer processes survived the disconnect"
        # The cancelled partial never entered a cache tier.
        stats = service.stats()
        assert stats["portfolio"]["races"] == 0
