"""Self-checks of the benchmark itself.

Run from the repository root (takes about two minutes)::

    python3 perfbench/selfcheck.py

1. The answer checks reject wrong answers: a mutated SOP and a mutated
   netlist must fail them.
2. Exact counters repeat: two traced runs of each workload with the same
   seed report identical ``brel.explored``, ``isop.calls``,
   ``bdd.cache_misses``, ``memo.hits``, ``memo.misses``, ``total_cost``
   and ``literals_after``.
3. No timed ``table2`` pass is served from the report cache.
4. Without the program next to it, the benchmark exits non-zero and
   prints no result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
EXACT_LAYER = ("brel.explored", "isop.calls", "bdd.cache_misses",
               "memo.hits", "memo.misses")
EXACT_END_TO_END = ("total_cost", "literals_after")
SEED = 7

failures = []


def check(ok, what):
    print("%s  %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        failures.append(what)


def checks_reject_wrong_answers():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import checks
    from repro import Session, SolveRequest
    from repro.benchdata import CIRCUITS, instance_by_name
    from repro.core.relio import write_relation
    from repro.network.blif import write_blif

    pla = write_relation(instance_by_name("int3").build())
    shape = checks.parse_relation_pla(pla)
    report = Session().solve(SolveRequest(relation={"kind": "pla",
                                                    "text": pla}))
    check(checks.sop_satisfies(report.sop, *shape),
          "solver answer for int3 passes the SOP check")
    # f0 must be x0 (column i of a row is bit i of the input vertex).
    forced = checks.parse_relation_pla(
        ".i 2\n.o 1\n00 0\n10 1\n01 0\n11 1\n.e\n")
    check(checks.sop_satisfies("f0 = x0", *forced)
          and not any(checks.sop_satisfies(wrong, *forced)
                      for wrong in ("f0 = x1", "f0 = x0'", "f0 = 1",
                                    "f0 = 0", "f0 = x0x1")),
          "SOP check accepts x0 and rejects every other function")

    blif = write_blif(CIRCUITS[0].build())
    reference = checks.Blif(blif)
    vectors = checks.circuit_vectors(reference.leaves(), SEED, "s27")
    check(checks.equivalent(reference, blif, vectors),
          "BLIF check accepts the unchanged circuit")
    lines = blif.splitlines()
    row = next(i for i, line in enumerate(lines)
               if line.endswith(" 1") and not line.startswith("."))
    cube, value = lines[row].rsplit(" ", 1)
    lines[row] = "%s%s %s" % ("0" if cube[0] == "1" else "1", cube[1:],
                              value)
    check(not checks.equivalent(reference, "\n".join(lines), vectors),
          "BLIF check rejects a mutated cover row")


def run(workload, cwd=ROOT, script=None):
    script = script or os.path.join(HERE, "run.py")
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed",
         str(SEED), "--seconds", "1", "--trace", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def counters_repeat():
    for workload in ("table2", "resynth", "service"):
        seen = []
        for _ in range(2):
            done = run(workload)
            if done.returncode != 0:
                check(False, "%s run exits 0:\n%s" % (workload,
                                                      done.stderr))
                return
            last = json.loads(done.stdout.splitlines()[-1])
            with open(os.path.join(RESULTS, "%s-seed%d-trace1.json"
                                   % (workload, SEED))) as handle:
                saved = json.load(handle)
            check(last["correct"] and last["failed"] == 0,
                  "%s answers all correct" % workload)
            counters = {name: last["metrics"][name]["value"]
                        for name in EXACT_LAYER}
            counters.update((name, saved["end_to_end"][name])
                            for name in EXACT_END_TO_END)
            seen.append(counters)
            if workload == "table2":
                check(saved["report_cache_hits"] == 0,
                      "table2 passes never hit the report cache")
        check(seen[0] == seen[1], "%s exact counters repeat: %s"
              % (workload, seen[0]))


def fails_without_program():
    os.makedirs(RESULTS, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=RESULTS)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("results",
                                                      "__pycache__"))
        done = run("table2", cwd=bare,
                   script=os.path.join(bare, "perfbench", "run.py"))
        check(done.returncode != 0 and '"correct"' not in done.stdout,
              "without src/ the benchmark exits %d and prints no result"
              % done.returncode)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    checks_reject_wrong_answers()
    fails_without_program()
    counters_repeat()
    print("%d failed" % len(failures))
    sys.exit(1 if failures else 0)
