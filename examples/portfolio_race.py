#!/usr/bin/env python3
"""Portfolio racing: let the strategies fight it out per relation.

Which exploration order wins the paper's branch-and-bound is a
property of the *relation*, not of the solver: on one benchmark the
depth-first Fig. 6 recursion reaches the best cost, on the next the
best-first frontier does.  ``strategy="portfolio"`` stops guessing —
it races every configured strategy on the same relation, shares each
improving incumbent across the racers through a bound channel (so a
breakthrough by one racer immediately tightens everyone's pruning),
and cancels the losers the moment a racer exhausts its tree.

The demo races the default line-up on two Table 2 benchmarks chosen so
*different* racers win — ``int3`` falls to dfs, ``c17i`` to best-first
— and checks the portfolio matched the best single-strategy cost both
times, without knowing in advance which strategy that would be.

Run:  python examples/portfolio_race.py
"""

from repro import Session, SolveRequest

RACERS = ("bfs", "dfs", "best-first", "beam")


def race(session, bench):
    print("== %s ==" % bench)

    # First, every strategy on its own (the guessing game the
    # portfolio replaces).
    single_costs = {}
    for strategy in RACERS:
        report = session.solve(SolveRequest(
            relation={"kind": "bench", "name": bench},
            strategy=strategy))
        single_costs[strategy] = report.cost
        print("  %-10s alone -> cost %.0f" % (strategy, report.cost))

    # Now the race.  executor="serial" (the default) keeps the demo
    # deterministic; "process" runs one worker process per racer, which
    # pays off when racers are long enough to amortise the start-up.
    report = session.solve(SolveRequest(
        relation={"kind": "bench", "name": bench},
        strategy="portfolio", portfolio_executor="serial"))
    summary = report.portfolio
    print("  portfolio (%s executor) -> cost %.0f, won by %s"
          % (summary["executor"], report.cost, summary["winner"]))
    for racer in summary["racers"]:
        print("    %-10s cost=%-4s explored=%-3d contributed=%d %s%s"
              % (racer["name"],
                 "%.0f" % racer["cost"]
                 if racer["cost"] is not None else "-",
                 racer["explored"],
                 racer["improvements_contributed"],
                 racer["error"] or racer["stopped"],
                 "  *winner*" if racer["winner"] else ""))

    best_single = min(single_costs.values())
    assert report.cost <= best_single, \
        "the race should never lose to a racer it contains"
    print("  -> matched the best single strategy (%.0f) without "
          "picking it in advance\n" % best_single)
    return summary["winner"]


def main():
    session = Session()
    winners = [race(session, bench) for bench in ("int3", "c17i")]
    print("winners: %s — a different strategy each time, one request "
          "either way" % " vs ".join(winners))
    assert len(set(winners)) == 2, "expected two different winners"


if __name__ == "__main__":
    main()
