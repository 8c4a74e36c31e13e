"""Self-tests of the benchmark (not part of the package's test suite):

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run         # noqa: E402
import tracing     # noqa: E402
import workloads   # noqa: E402

qmwrt = run.import_qmwrt()


def test_install_patches_every_binding():
    from qmwrt import cyclotomic, harness, seifert, wrt

    originals = (wrt.tau_seifert_closed, seifert.invariants,
                 cyclotomic.CycloNumber.__mul__)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # imported by value elsewhere, and re-exported by the package
        assert harness.tau_seifert_closed is wrt.tau_seifert_closed
        assert qmwrt.tau_seifert_closed is wrt.tau_seifert_closed
        assert wrt.tau_seifert_closed.__wrapped__ is originals[0]
        assert wrt.invariants is seifert.invariants
        assert seifert.invariants.__wrapped__ is originals[1]
        number = cyclotomic.CycloNumber
        assert number.__rmul__ is number.__mul__
        assert number.__mul__.__wrapped__ is originals[2]
        assert number.__radd__ is number.__add__
    finally:
        tracer.uninstall()
    assert (wrt.tau_seifert_closed, seifert.invariants,
            cyclotomic.CycloNumber.__mul__) == originals
    assert harness.tau_seifert_closed is originals[0]


def test_spans_nest_and_self_times_add_up():
    from qmwrt.number_theory import RootContext
    from qmwrt import seifert, wrt

    tracer = tracing.Tracer()
    tracer.install()
    try:
        d = seifert.brieskorn((2, 3, 5))
        wrt.tau_seifert_closed(d, RootContext(7, 1))
        2 * wrt.seifert_gauss_sum(30, RootContext(7, 1))   # __rmul__
    finally:
        tracer.uninstall()
    spans = tracer.spans
    roots = [s for s in spans if s[1] == -1]
    assert [s[2] for s in roots] == ["seifert.brieskorn", "wrt.tau_seifert_closed",
                                     "wrt.seifert_gauss_sum", "cyclotomic.mul"]
    stats = tracer.layer_stats()
    total_self = sum(st["self_s"] for st in stats.values())
    assert math.isclose(total_self, sum(s[5] - s[4] for s in roots), rel_tol=1e-9)
    assert stats["cyclotomic.mul"]["term_pairs"] > 0
    assert stats["seifert.invariants"]["calls"] >= 1


def test_traced_passes_repeat_counts():
    jobs = [job for job in workloads.build("qhs_exact", 2)
            if job.manifold == "lens:7"]
    assert {job.kind for job in jobs} == {"wrt", "oracle", "verify"}
    cli = sys.modules["qmwrt.cli"]
    caches = run.package_caches(qmwrt)
    tracer = tracing.Tracer()
    signatures = []
    for _ in range(2):
        tracer.install()
        try:
            results = run.run_pass(cli, jobs, caches, tracer)
        finally:
            tracer.uninstall()
        assert [rc for rc, *_ in results] == [0, 0, 0]
        signatures.append(tracing.counts_signature(tracer.layer_stats()))
        tracer.reset()
    assert signatures[0] == signatures[1]
    assert signatures[0]["cyclotomic.mul"]["calls"] > 0


def _traced_run(seed: int) -> dict:
    out = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload",
                          "numeric_sweep", "--seed", str(seed), "--seconds", "1",
                          "--trace", "1"],
                         capture_output=True, text=True, timeout=170, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_two_traced_runs_give_identical_counts():
    first, second = _traced_run(5), _traced_run(5)
    assert first["correct"] and second["correct"]
    counts = [name for name, m in first["metrics"].items() if m["unit"] == "count"]
    assert "false_theta.eichler_limit_complex.calls" in counts
    assert {n: first["metrics"][n] for n in counts} == \
        {n: second["metrics"][n] for n in counts}


def test_seed_fixes_the_inputs_and_every_band_is_valid():
    from qmwrt.number_theory import normalize_s

    for name in workloads.WORKLOADS:
        assert workloads.build(name, 7) == workloads.build(name, 7)
    assert any(workloads.build(name, 1) != workloads.build(name, 2)
               for name in workloads.WORKLOADS)
    for spec in workloads.IHS + workloads.QHS:
        for r in spec.rs:
            for s in spec.ss:
                assert normalize_s(s, r) == s, (spec, r, s)
