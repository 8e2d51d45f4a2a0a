"""Property test: the transparent knobs never change an answer.

Memoisation and the executors are execution details.  On any small
seeded relation, every combination of memo and block executor must
return a solution that is compatible with the relation, and all
combinations must agree on the cost and the SOP; so must a batch run
serially or on worker processes.  A portfolio race is only checked for
compatibility: process timing may shift which shared bound prunes what.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session, SolveRequest
from repro.benchdata.brgen import block_structured_relation, random_relation
from repro.core.jobs import EXECUTORS
from repro.core.relio import parse_relation, write_relation

#: (memo, block executor) combinations; ``memo=None`` is the session
#: default (memo on).
CONFIGS = [(memo, executor)
           for memo in (None, False)
           for executor in EXECUTORS]


@st.composite
def small_relations(draw):
    """Seeded brgen relations with at most 5 inputs and 5 outputs.

    Half the draws are block-structured, so the block executor has
    independent blocks to dispatch.
    """
    seed = draw(st.integers(0, 10_000))
    if draw(st.booleans()):
        return random_relation(draw(st.integers(1, 5)),
                               draw(st.integers(1, 5)), seed=seed)
    shapes = draw(st.lists(st.tuples(st.integers(1, 2),
                                     st.integers(1, 2)),
                           min_size=2, max_size=2))
    return block_structured_relation(shapes, seed=seed)


@settings(max_examples=20, deadline=None)
@given(relation=small_relations(), strategy=st.sampled_from(["bfs", "dfs"]))
def test_memo_and_block_executor_never_change_the_answer(relation,
                                                         strategy):
    pla = write_relation(relation)
    answers = set()
    for memo, executor in CONFIGS:
        # A fresh session and relation per combination: the report cache
        # does not key the executor, and memo must start cold.
        subject = parse_relation(pla)
        report = Session().solve(
            SolveRequest(strategy=strategy, memo=memo, max_explored=20),
            relation=subject, block_executor=executor)
        assert report.ok, (memo, executor, report.error)
        assert subject.is_compatible(report.solution.functions), \
            (memo, executor)
        answers.add((report.cost, report.sop))
    assert len(answers) == 1, answers


@settings(max_examples=8, deadline=None)
@given(relation=small_relations())
def test_batch_executor_never_changes_the_answer(relation):
    spec = {"kind": "pla", "text": write_relation(relation)}
    requests = [SolveRequest(relation=spec, strategy=strategy,
                             max_explored=20, label=strategy)
                for strategy in ("bfs", "dfs")]
    answers = {}
    for executor in EXECUTORS:
        reports = Session().solve_many(requests, executor=executor)
        assert all(report.ok for report in reports), executor
        answers[executor] = [(report.cost, report.sop)
                             for report in reports]
    assert answers["serial"] == answers["process"], answers


@settings(max_examples=8, deadline=None)
@given(relation=small_relations())
def test_portfolio_executor_answers_are_compatible(relation):
    pla = write_relation(relation)
    for executor in EXECUTORS:
        subject = parse_relation(pla)
        report = Session().solve(
            SolveRequest(strategy="portfolio", portfolio_racers="bfs,dfs",
                         max_explored=20, decompose=False,
                         portfolio_executor=executor),
            relation=subject)
        assert report.ok, (executor, report.error)
        assert report.portfolio["executor"] == executor
        assert subject.is_compatible(report.solution.functions), executor
