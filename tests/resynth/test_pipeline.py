"""End-to-end tests for the resynthesis pipeline."""

import pytest

from repro.api import Session
from repro.network.blif import parse_blif
from repro.network.simulate import exhaustive_signature
from repro.resynth import (ResynthRequest, load_circuit, resynthesize,
                           resynthesize_network)


def run(circuit="s27", **kwargs):
    kwargs.setdefault("passes", 1)
    kwargs.setdefault("max_explored", 8)
    return resynthesize(ResynthRequest(circuit=circuit, **kwargs))


class TestEndToEnd:
    def test_s27_equivalent_and_never_worse(self):
        report = run("s27", passes=2)
        assert report.ok
        assert report.equivalent is True
        assert report.literal_savings >= 0
        assert report.literals_after <= report.literals_before

    def test_rewritten_blif_parses_back_equivalent(self):
        report = run("s386")
        original = load_circuit("s386")
        rewritten = parse_blif(report.blif)
        assert exhaustive_signature(rewritten) == \
            exhaustive_signature(original)
        assert rewritten.literal_count() == report.literals_after

    def test_savings_actually_happen_somewhere(self):
        report = run("s298")
        assert report.rewrites_accepted > 0
        assert report.literal_savings > 0

    def test_input_network_is_not_mutated(self):
        network = load_circuit("s298")
        literals = network.literal_count()
        request = ResynthRequest(circuit="s298", passes=1,
                                 max_explored=8)
        net, report = resynthesize_network(network, request)
        assert network.literal_count() == literals
        assert net.literal_count() == report.literals_after

    def test_early_stop_when_a_pass_accepts_nothing(self):
        # s27 is already minimal under this flow: pass 0 accepts no
        # rewrite, so the remaining budgeted passes never run.
        report = run("s27", passes=5)
        assert report.ok and report.rewrites_accepted == 0
        assert len(report.passes) == 1

    def test_pass_records_account_for_every_candidate(self):
        report = run("s298")
        for record in report.passes:
            explained = (record["accepted"] + record["rejected_cost"]
                         + record["skipped_conflict"]
                         + record["rejected_cycle"]
                         + record["rejected_verify"]
                         + record["solver_failures"]
                         + record["unrealized"])
            assert explained == record["relations_mined"]
            assert record["relations_mined"] + record["windows_skipped"] \
                == record["candidates"]

    def test_max_nodes_caps_the_candidates(self):
        report = run("s298", max_nodes=5)
        assert report.passes[0]["candidates"] == 5


class TestExecutorsAndPolicies:
    def test_process_executor_matches_serial(self):
        serial = run("s27")
        pooled = run("s27", executor="process", workers=2)
        assert pooled.ok and pooled.equivalent is True
        assert pooled.literals_after == serial.literals_after

    def test_reconvergent_policy_runs_clean(self):
        report = run("s298", cut_policy="reconvergent", passes=1)
        assert report.ok and report.equivalent is True
        assert report.literal_savings >= 0


class TestVerification:
    def test_verify_none_skips_the_final_check(self):
        report = run("s27", verify="none")
        assert report.equivalent is None
        assert report.verify_method is None

    def test_verify_signature_mode(self):
        report = run("s27", verify="signature", verify_vectors=64)
        assert report.equivalent is True
        assert report.verify_method == "signature"
        assert report.verify_vectors <= 64

    def test_verify_auto_prefers_exhaustive_on_narrow_frames(self):
        report = run("s27", verify="auto")
        assert report.verify_method == "exhaustive"
        leaves = len(load_circuit("s27").combinational_inputs())
        assert report.verify_vectors == 1 << leaves


class TestMemoSharing:
    def test_shared_session_hits_across_circuits(self):
        session = Session()
        request = ResynthRequest(circuit="s298", passes=1,
                                 max_explored=8)
        first = resynthesize(request, session=session)
        second = resynthesize(request, session=session)
        assert first.ok and second.ok
        # Identical relations re-solved in the same session: the
        # report cache answers, so the memo counters stay quiet and the
        # results agree.
        assert second.literals_after == first.literals_after
        assert first.memo_hits > 0  # isomorphic windows within the run

    def test_memo_hit_rate_is_reported(self):
        report = run("s298")
        assert report.memo_hit_rate is not None
        assert 0.0 < report.memo_hit_rate <= 1.0
        assert report.memo_hits + report.memo_misses > 0


class TestFailureCapture:
    def test_unknown_bench_circuit_is_a_captured_failure(self):
        report = resynthesize(ResynthRequest(circuit="no-such-circuit",
                                             label="bad"))
        assert not report.ok
        assert report.label == "bad"
        assert report.error

    def test_malformed_blif_is_a_captured_failure(self):
        report = resynthesize(ResynthRequest(
            circuit={"kind": "blif", "text": ".model broken\n.names"}))
        assert not report.ok

    def test_missing_circuit_is_a_captured_failure(self):
        report = resynthesize(ResynthRequest())
        assert not report.ok
        assert "circuit" in report.error
