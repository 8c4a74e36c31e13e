import argparse
import ast
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qmwrt import cli, false_theta, gauss_sums, harness, seifert, wrt
from qmwrt.cli import UsageError, main, parse_args
from qmwrt.cyclotomic import CycloNumber
from qmwrt.number_theory import RootContext
from qmwrt.seifert import parse_manifold


def invoke(capsys, args):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Runs qmwrt.cli.main on each JSON-encoded argv in a fresh interpreter and
# reports the exit codes, the stdout and which costly modules loaded: numpy
# and the thread pool are imported only where needed, and dataclasses and
# inspect (which dataclasses imports) never by qmwrt itself.
FRESH_RUN = """\
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import qmwrt, qmwrt.cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    codes = [qmwrt.cli.main(json.loads(a)) for a in sys.argv[2:]]
print(json.dumps({"codes": codes, "out": out.getvalue(), "loaded":
                  [m for m in ("numpy", "concurrent.futures", "dataclasses", "inspect")
                   if m in sys.modules]}))
"""


def run_fresh(*argvs):
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-I", "-c", FRESH_RUN, str(src),
                           *map(json.dumps, argvs)],
                          capture_output=True, text=True, check=True, timeout=120)
    return json.loads(proc.stdout)


def test_exact_wrt_loads_neither_numpy_nor_a_thread_pool(capsys):
    argvs = [["wrt", "--manifold", m, "--r", "31", "--s", "1", "--exact", "--json"]
             for m in ("brieskorn:2,3,7", "ex:2-3-3")]
    fresh = run_fresh(*argvs)
    in_process = [invoke(capsys, argv) for argv in argvs]
    assert fresh == {"codes": [0, 0], "out": "".join(out for _, out, _ in in_process),
                     "loaded": []}


def test_exact_verify_and_falsetheta_load_no_numpy(capsys):
    argvs = [["verify", "all", "--manifold", "brieskorn:2,3,7", "--r", "31", "--s", "1"],
             ["falsetheta", "--p", "2,3,7", "--a", "1,1,1", "--r", "31",
              "--exact", "--json"]]
    fresh = run_fresh(*argvs)
    in_process = [invoke(capsys, argv) for argv in argvs]
    assert fresh == {"codes": [0, 0], "out": "".join(out for _, out, _ in in_process),
                     "loaded": []}


def test_sweep_loads_numpy_and_prints_as_in_process(capsys):
    argv = ["sweep", "--manifold", "brieskorn:2,3,7", "--r-range", "101:301:100",
            "--jobs", "1"]
    code, out, _err = invoke(capsys, argv)
    # numpy imports inspect itself, but not dataclasses
    assert run_fresh(argv) == {"codes": [code], "out": out,
                               "loaded": ["numpy", "inspect"]}


def test_import_loads_every_module_the_tracer_looks_up():
    # bench/tracing.py reads sys.modules["qmwrt.<name>"] for each name in its
    # MODULES after `import qmwrt`; the names are read here without importing bench
    tree = ast.parse((Path(__file__).resolve().parents[1] / "bench" / "tracing.py")
                     .read_text())
    names = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [target.id for target in node.targets] == ["MODULES"])
    script = ("import json, sys\nsys.path.insert(0, sys.argv[1])\n"
              "import qmwrt, qmwrt.cli\n"
              "print(json.dumps([n for n in sys.argv[2:]\n"
              "                  if 'qmwrt.' + n not in sys.modules]))")
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-I", "-c", script, str(src), *names],
                          capture_output=True, text=True, check=True, timeout=120)
    assert json.loads(proc.stdout) == []


def test_parse_wrt_job():
    job = parse_args(["wrt", "--manifold", "brieskorn:2,3,7", "--r", "29",
                      "--s", "5", "--exact", "--json"])
    assert job.command == "wrt"
    assert job.manifold == "brieskorn:2,3,7"
    assert (job.r, job.s, job.exact, job.output) == (29, 5, True, "json")


def test_parse_verify_sweep_job():
    job = parse_args(["verify", "modularity", "--manifold", "brieskorn:2,3,7",
                      "--s", "5", "--r-range", "101:501:50", "--order", "3"])
    assert job.suite == "modularity"
    assert job.r_range == (101, 501, 50)
    assert job.order == 3


def test_parse_bounds_sweep_jobs():
    # parse_args alone: the rejected values must never reach a thread pool
    argv = ["sweep", "--manifold", "brieskorn:2,3,7", "--r-range", "101:100001:100"]
    assert parse_args(argv + ["--jobs", str(cli.JOBS_BOUND)]).jobs == cli.JOBS_BOUND
    for jobs in (cli.JOBS_BOUND + 1, 100000):
        with pytest.raises(UsageError, match="--jobs must be in 1..64"):
            parse_args(argv + ["--jobs", str(jobs)])


def test_parse_rejects_even_r():
    with pytest.raises(UsageError, match="odd"):
        parse_args(["wrt", "--manifold", "lens:3", "--r", "4"])


def test_even_r_exit_code(capsys):
    code, _out, err = invoke(capsys, ["wrt", "--manifold", "brieskorn:2,3,5",
                                      "--r", "4"])
    assert code == 2
    assert "odd" in err


def test_non_coprime_s_rejected(capsys):
    code, _out, err = invoke(capsys, ["wrt", "--manifold", "brieskorn:2,3,5",
                                      "--r", "9", "--s", "3"])
    assert code == 2


def test_wrt_json_roundtrip(capsys):
    args = ["wrt", "--manifold", "brieskorn:2,3,7", "--r", "7", "--s", "1",
            "--exact", "--json"]
    code, out, _err = invoke(capsys, args)
    assert code == 0
    data = json.loads(out)
    assert data["manifold"] == "brieskorn:2,3,7"
    assert data["ctx"] == {"r": 7, "s": 1}
    names = [row["name"] for row in data["results"]]
    assert names[:2] == ["tau", "W"]
    exact = data["results"][0]["exact"]
    assert set(exact) == {"conductor", "coeffs"}
    assert all(len(t) == 3 for t in exact["coeffs"])
    # the JobSpec-relevant fields survive re-parsing the payload
    job2 = parse_args(["wrt", "--manifold", data["manifold"],
                       "--r", str(data["ctx"]["r"]), "--s", str(data["ctx"]["s"]),
                       "--exact", "--json"])
    assert (job2.manifold, job2.r, job2.s) == ("brieskorn:2,3,7", 7, 1)


def test_gauss_json(capsys):
    code, out, _ = invoke(capsys, ["gauss", "--s", "1", "--r", "5", "--json"])
    assert code == 0
    data = json.loads(out)
    assert abs(data["brute_re"] - 5 ** 0.5) < 1e-10
    assert data["match"] is True
    assert data["closed"]["sqrt_radicand"] == 5


def test_gauss_allows_even_modulus(capsys):
    code, out, _ = invoke(capsys, ["gauss", "--s", "1", "--r", "4", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["match"] is True and data["closed"]["phase"] == "1+i"


def test_gauss_match_tolerates_the_brute_sums_rounding(capsys):
    # the brute sum's float error here is 2.5e-10: above a fixed 1e-10, far
    # below the sqrt(r) that separates distinct closed forms
    code, out, _ = invoke(capsys, ["gauss", "--s", "1", "--r", "2000005", "--json"])
    data = json.loads(out)
    assert code == 0 and data["match"] is True
    assert abs(data["brute_re"] - 2000005 ** 0.5) > 1e-10


def test_falsetheta_evaluates_at_the_given_s(capsys):
    from qmwrt.false_theta import eichler_limit, phi_basis

    f = phi_basis((2, 3, 5), (1, 1, 1))
    for extra, at in (([], Fraction(7, 9)), (["--tilde"], Fraction(-9, 7))):
        code, out, _ = invoke(capsys, ["falsetheta", "--p", "2,3,5", "--a", "1,1,1",
                                       "--r", "9", "--s", "7", "--json", *extra])
        data = json.loads(out)
        assert code == 0 and data["at"] == str(at) and data["ctx"] == {"r": 9, "s": 7}
        row = data["results"][0]
        want = eichler_limit(f, 30, at).eval_complex()
        assert abs(complex(row["re"], row["im"]) - want) < 1e-12
    for s in ("0", "3", "-6"):
        for extra in ([], ["--tilde"]):
            code, _out, err = invoke(capsys, ["falsetheta", "--p", "2,3,5", "--a", "1,1,1",
                                              "--r", "9", "--s", s, *extra])
            assert code == 2 and "coprime" in err, (s, extra)


def test_verify_pass_and_fields(capsys):
    code, out, _ = invoke(capsys, ["verify", "geometric", "--manifold",
                                   "brieskorn:2,3,5", "--r", "7", "--s", "5",
                                   "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["results"][0]["check"] == "geometric_relation"
    assert data["results"][0]["status"] == "pass"


def test_verify_all_brieskorn(capsys):
    code, out, _ = invoke(capsys, ["verify", "all", "--manifold",
                                   "brieskorn:2,3,5", "--r", "5", "--s", "1",
                                   "--json"])
    assert code == 0
    data = json.loads(out)
    checks = {row["check"]: row["status"] for row in data["results"]}
    assert checks["poincare_identity"] == "pass"
    assert checks["geometric_relation"] == "pass"


def test_exit_code_is_one_on_failure(capsys):
    # an impossible tolerance forces the modularity check to fail
    code, _out, err = invoke(capsys, [
        "verify", "modularity", "--manifold", "brieskorn:2,3,7", "--s", "1",
        "--r-range", "101:301:100", "--order", "2", "--slope-tol", "1e-9"])
    assert code == 1
    assert "modularity_slope" in err


def test_sweep_csv_format(capsys):
    code, out, _ = invoke(capsys, ["sweep", "--manifold", "brieskorn:2,3,7",
                                   "--r-range", "101:301:100", "--s", "1",
                                   "--order", "2", "--jobs", "2"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,s,quantity,re,im,exact"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(row[0]) for row in rows] == [101, 201, 301]  # ordered by r
    assert all(len(row[3]) >= 17 for row in rows)            # 17 significant digits


def test_sweep_rejects_bad_range(capsys):
    code, _out, err = invoke(capsys, ["sweep", "--manifold", "brieskorn:2,3,7",
                                      "--r-range", "100:200:50"])
    assert code == 2


def test_flatconn_and_falsetheta(capsys):
    code, out, _ = invoke(capsys, ["flatconn", "--manifold", "lens:3",
                                   "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["results"][0]["kind"] == "abelian"
    code, out, _ = invoke(capsys, ["falsetheta", "--basis", "psi", "--p", "6",
                                   "--a", "3", "--r", "7", "--s", "1",
                                   "--json", "--exact"])
    assert code == 0
    data = json.loads(out)
    assert data["results"][0]["name"] == "eichler_limit"
    assert "exact" in data["results"][0]


def test_wrt_lens_selector(capsys):
    code, out, _ = invoke(capsys, ["wrt", "--manifold", "lens:3", "--r", "5",
                                   "--json", "--exact"])
    assert code == 0
    data = json.loads(out)
    names = [row["name"] for row in data["results"]]
    assert names == ["W", "W_sector_0", "W_sector_1"]
    assert "exact" in data["results"][0]


def test_unknown_manifold_selector(capsys):
    code, _out, err = invoke(capsys, ["wrt", "--manifold", "mystery:1",
                                      "--r", "5"])
    assert code == 2


def test_output_file(tmp_path, capsys):
    out_file = tmp_path / "result.json"
    code, out, _ = invoke(capsys, ["gauss", "--s", "2", "--r", "7", "--json",
                                   "--out", str(out_file)])
    assert code == 0
    assert out == ""
    data = json.loads(out_file.read_text())
    assert data["match"] is True


@pytest.mark.parametrize("args", [
    ["verify", "identity", "--manifold", "brieskorn:2,3,5,7", "--r", "7"],
    ["flatconn", "--manifold", "brieskorn:2,3,5,7"],
    ["verify", "all", "--manifold", "brieskorn:2,3,5,7", "--r", "7"],
    ["verify", "all", "--manifold", "seifert:1;2/1,3/1,3/1", "--r", "7"],
    ["wrt", "--manifold", "brieskorn:2,3,5", "--r", "1"],
    ["verify", "modularity", "--manifold", "brieskorn:2,3,7",
     "--r-range", "101:99:2"],
    ["verify", "modularity", "--manifold", "brieskorn:2,3,7",
     "--r-range", "101:101:2"],
    ["sweep", "--manifold", "brieskorn:2,3,7", "--r-range", "101:99:2"],
    ["verify", "modularity", "--manifold", "brieskorn:2,3,7",
     "--r-range", "101:301:100", "--order", "-1"],
    ["sweep", "--manifold", "brieskorn:2,3,7", "--r-range", "101:301:100",
     "--order", "-2"],
    ["falsetheta", "--basis", "psi", "--p", "6", "--a", "1,2", "--r", "7"],
    ["falsetheta", "--basis", "psi", "--p", "6,7", "--a", "1", "--r", "7"],
    ["verify", "modularity", "--manifold", "brieskorn:2,3,7",
     "--r-range", "101:301:100", "--slope-tol", "-1"],
    ["verify", "modularity", "--manifold", "brieskorn:2,3,7",
     "--r-range", "101:301:100", "--slope-tol", "nan"],
    ["verify", "modularity", "--manifold", "brieskorn:2,3,7",
     "--r-range", "101:301:100", "--slope-tol", "inf"],
    ["sweep", "--manifold", "brieskorn:2,3,7", "--r-range", "101:301:100",
     "--jobs", "0"],
    ["sweep", "--manifold", "brieskorn:2,3,7", "--r-range", "101:301:100",
     "--jobs", "-3"],
    ["verify", "all", "--manifold", "ex:family:2", "--r", "5"],
    ["verify", "geometric", "--manifold", "brieskorn:2,5,7", "--r", "503",
     "--s", "3"],
    ["verify", "all", "--manifold", "ex:2-3-3", "--r", "13", "--s", "61"],
    ["verify", "modularity", "--manifold", "brieskorn:2,3,7",
     "--r-range", "2003:40000:4200", "--s", "7"],
    ["sweep", "--manifold", "brieskorn:2,3,7", "--r-range", "2003:40000:4200",
     "--s", "3", "--order", "3"],
    ["sweep", "--manifold", "brieskorn:2,3,7", "--r-range", "101:305:4",
     "--s", "5", "--jobs", "2"],
    ["wrt", "--manifold", "seifert:3;", "--r", "7", "--s", "1"],
    ["wrt", "--manifold", "seifert:-3;", "--r", "7", "--s", "1", "--exact"],
    # r = 1 is xi = 1, where there is no invariant
    ["wrt", "--manifold", "lens:7", "--r", "1"],
    ["verify", "all", "--manifold", "lens:7", "--r", "1"],
    ["verify", "decomposition", "--manifold", "lens:7", "--r", "1"],
    ["verify", "all", "--manifold", "brieskorn:2,3,5", "--r", "1"],
    ["sweep", "--manifold", "brieskorn:2,3,7", "--r-range", "1:201:100"],
    ["verify", "modularity", "--manifold", "brieskorn:2,3,7",
     "--r-range", "1:201:100"],
    # the lens geometric relation evaluates at xi~ = e(-r/s), so it needs r
    # coprime with p; its sector-sum identity needs p >= 3
    ["verify", "all", "--manifold", "lens:5", "--r", "5"],
    ["verify", "all", "--manifold", "lens:3", "--r", "9"],
    ["verify", "geometric", "--manifold", "lens:1", "--r", "7"],
    ["verify", "all", "--manifold", "lens:1", "--r", "7"],
    # outside the closed form's domain: H even, s' dividing H, s' sharing
    # a factor with a fiber order
    ["wrt", "--manifold", "seifert:0;4/1,6/1,5/1", "--r", "7"],
    ["wrt", "--manifold", "seifert:0;2/1,3/1,5/1,7/1", "--r", "9", "--s", "13"],
    ["verify", "decomposition", "--manifold", "ex:2-3-3", "--r", "7", "--s", "9"],
    ["verify", "all", "--manifold", "ex:2-3-3", "--r", "7", "--s", "9"],
    ["verify", "decomposition", "--manifold", "ex:family:2", "--r", "7",
     "--s", "5"],
    # the lens sectors at xi = e(s'/r) need s' coprime with p
    ["wrt", "--manifold", "lens:5", "--r", "7", "--s", "5"],
    ["verify", "decomposition", "--manifold", "lens:5", "--r", "7", "--s", "5"],
    ["verify", "all", "--manifold", "lens:5", "--r", "7", "--s", "5"],
    ["verify", "geometric", "--manifold", "lens:5", "--r", "7", "--s", "5"],
    # two S-image terms of sector 0 share CS_*, so P_* is not defined
    ["verify", "geometric", "--manifold", "ex:family:7", "--r", "11"],
    ["verify", "all", "--manifold", "ex:family:7", "--r", "11"],
    # a framed unknot alone is a lens space at H = 1 as at H > 1
    ["wrt", "--manifold", "seifert:1;", "--r", "5"],
    ["wrt", "--manifold", "seifert:-1;", "--r", "5"],
])
def test_bad_input_rejected_before_computing(capsys, monkeypatch, args):
    def no_products(*_args):
        raise AssertionError("field arithmetic ran on rejected input")
    monkeypatch.setattr(CycloNumber, "__mul__", no_products)
    monkeypatch.setattr(CycloNumber, "__rmul__", no_products)
    code, out, err = invoke(capsys, args)
    assert (code, out) == (2, "")
    assert err.startswith("usage error:")


@pytest.mark.parametrize("selector", ["brieskorn:2,3,35", "brieskorn:3,5,14"])
@pytest.mark.parametrize("r", [11, 13])
def test_brieskorn_with_two_rotations_at_the_geometric_cs_verifies(capsys, selector, r):
    # (1,1,1) and (1,1,6), or (1,1,1) and (13,1,1), share CS_* mod 1; the
    # geometric connection is (1,1,1) by its holonomy
    code, out, err = invoke(capsys, ["verify", "all", "--manifold", selector,
                                     "--r", str(r)])
    assert (code, err) == (0, "") and "[FAIL]" not in out


def test_flatconn_names_the_geometric_rotation(capsys):
    code, out, _err = invoke(capsys, ["flatconn", "--manifold", "brieskorn:2,3,35",
                                      "--json"])
    rows = json.loads(out)["results"]
    geometric = [row for row in rows if row["kind"] == "geometric"]
    assert code == 0 and len(rows) == 18
    assert geometric == [{"kind": "geometric", "rotation": [1, 1, 1],
                          "cs_lift": "-841/840", "cs": "839/840"}]


def test_family_with_a_mixed_class_off_cs_star_verifies(capsys):
    # a class of the S-image of ex:family:13 other than CS_* holds g_b that
    # are not all +-equal; it splits into several terms, and the geometric
    # relation reads only the one term at CS_*
    code, out, err = invoke(capsys, ["verify", "all", "--manifold", "ex:family:13",
                                     "--r", "11"])
    assert (code, err) == (0, "")
    assert out.splitlines()[-1].startswith("[pass] geometric_relation")


@pytest.mark.parametrize("selector, r", [("lens:1", 7), ("lens:5", 5)])
def test_lens_decomposition_takes_any_odd_p_and_r(capsys, selector, r):
    # only the geometric suite restricts p and r on a lens space
    code, out, _err = invoke(capsys, ["verify", "decomposition", "--manifold",
                                      selector, "--r", str(r)])
    assert code == 0 and out.startswith("[pass] lens_decomposition_vs_surgery")


def test_every_family_suite_has_a_runner_and_a_verify_choice():
    named = {suite for fam in harness.FAMILIES.values() for suite in fam.suites}
    assert named <= set(harness.RUNNERS) | {"modularity"}
    assert set(harness.SUITES) == set(harness.RUNNERS) | {"modularity"}
    for suite in [*harness.SUITES, "all"]:
        manifold = "ex:2-3-3" if suite == "decomposition" else "brieskorn:2,3,7"
        roots = ["--r-range", "101:301:100"] if suite == "modularity" else ["--r", "7"]
        assert parse_args(["verify", suite, "--manifold", manifold, *roots]).suite == suite
    with pytest.raises(UsageError, match="invalid arguments"):
        parse_args(["verify", "flatconn", "--manifold", "brieskorn:2,3,7", "--r", "7"])


@pytest.mark.parametrize("args", [
    ["gauss", "--s", "1", "--r", "5", "--json"],
    ["wrt", "--manifold", "brieskorn:2,3,7", "--r", "31"],
])
def test_unwritable_out_rejected_before_computing(tmp_path, capsys, monkeypatch, args):
    def no_products(*_args):
        raise AssertionError("field arithmetic ran on rejected input")
    monkeypatch.setattr(CycloNumber, "__mul__", no_products)
    monkeypatch.setattr(CycloNumber, "__rmul__", no_products)
    for out in (tmp_path, tmp_path / "missing" / "x.json"):
        code, stdout, err = invoke(capsys, [*args, "--out", str(out)])
        assert (code, stdout) == (2, "") and err.startswith("usage error: --out"), out


def test_failed_write_is_bad_input_not_a_failed_check(tmp_path, capsys):
    # a file name past the usual 255-byte limit fails only when it is written
    code, stdout, err = invoke(capsys, ["gauss", "--s", "1", "--r", "5",
                                        "--out", str(tmp_path / ("x" * 300))])
    assert (code, stdout) == (2, "") and err.startswith("error:")


@pytest.mark.parametrize("args", [
    ["sweep", "--manifold", "brieskorn:2,3,7",
     "--r-range", "38001:2147521649:2147483648", "--s", "1"],
    ["verify", "modularity", "--manifold", "brieskorn:2,3,7",
     "--r-range", "38001:2147521649:2147483648", "--s", "1"],
    ["verify", "identity", "--manifold", "brieskorn:2,3,7", "--r", "2147483649"],
    # r < 2^31, but s' = 4r - 3 of the limits at -r/s' is not
    ["sweep", "--manifold", "brieskorn:2,3,7",
     "--r-range", "536870917:536870917:2", "--s", "2147483665"],
    ["verify", "geometric", "--manifold", "brieskorn:2,3,7",
     "--r", "536870917", "--s", "-3"],
    ["falsetheta", "--p", "2,3,7", "--a", "1,1,1", "--r", "2147483649"],
    ["falsetheta", "--p", "2,3,7", "--a", "1,1,1", "--r", "7",
     "--s", "-2147483649", "--tilde"],
])
def test_denominators_past_the_bound_rejected_before_computing(capsys, monkeypatch,
                                                               args):
    def no_limits(*_args):
        raise AssertionError("computation ran on rejected input")
    for module, name in ((harness, "residual_scan"), (false_theta, "eichler_limit"),
                         (false_theta, "eichler_limit_complex")):
        monkeypatch.setattr(module, name, no_limits)
    code, out, err = invoke(capsys, args)
    assert (code, out) == (2, "")
    assert "2^31" in err


@pytest.mark.parametrize("args", [
    ["falsetheta", "--p", "2,3,7", "--a", "1,1,1", "--r", "7",
     "--s", "-2147483647", "--tilde"],
    ["falsetheta", "--p", "2,3,7", "--a", "1,1,1", "--r", "1000001"],
    ["falsetheta", "--basis", "psi", "--p", "6", "--a", "1", "--r", "4000001"],
    ["gauss", "--s", "1", "--r", "4000001"],
])
def test_exact_walk_past_the_bound_rejected_before_computing(capsys, monkeypatch,
                                                             args):
    def no_limits(*_args):
        raise AssertionError("computation ran on rejected input")
    for module, name in ((false_theta, "eichler_limit"),
                         (false_theta, "eichler_limit_complex"),
                         (gauss_sums, "gauss_brute")):
        monkeypatch.setattr(module, name, no_limits)
    code, out, err = invoke(capsys, args)
    assert (code, out) == (2, "")
    assert f"past the bound {cli.EXACT_WALK_BOUND}" in err


def test_exact_walk_at_the_bound_accepted():
    # phi walks about 4c terms, psi about c
    for argv in (["--p", "2,3,7", "--a", "1,1,1", "--r", "7", "--s", "-1000000",
                  "--tilde"],
                 ["--basis", "psi", "--p", "6", "--a", "1", "--r", "3999999"]):
        assert parse_args(["falsetheta", *argv]).command == "falsetheta"


def test_sweep_on_two_threads_prints_the_same_bytes(capsys):
    # c = 3001, 4001 are prime to 2P = 84; 1001, 2001, 5001, 8001 share 3 or 7
    # with it, so the rows read one or several residue-class tables
    argv = ["sweep", "--manifold", "brieskorn:2,3,7", "--r-range", "1001:9001:1000",
            "--s", "1", "--order", "2", "--json", "--jobs"]
    assert invoke(capsys, argv + ["2"]) == invoke(capsys, argv + ["1"])


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["gauss", "--s", "1", "--r", "5", "--json"]
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "qmwrt", *argv],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src)})
    code, out, _err = invoke(capsys, argv)
    assert code == 0 and (proc.returncode, proc.stdout) == (code, out)


def test_four_fiber_homology_sphere_is_valid(capsys):
    code, _out, _err = invoke(capsys, ["wrt", "--manifold", "brieskorn:2,3,5,7",
                                       "--r", "5"])
    assert code == 0


def test_internal_error_exit_code(capsys, monkeypatch):
    def inconsistent(*_args):
        raise ArithmeticError("division is not exact")
    monkeypatch.setattr(wrt, "tau_seifert_closed", inconsistent)
    code, _out, err = invoke(capsys, ["wrt", "--manifold", "brieskorn:2,3,5",
                                      "--r", "5"])
    assert code == 3
    assert err.startswith("internal error:")


def test_failed_norm_check_is_an_internal_error(capsys, monkeypatch):
    # a wrong Gauss sum breaks g conj(g) = 2r of the lens oracle's F(U), or
    # Gamma^2 = +-2r i of tau's normalization, which tau forms at odd
    # signature only (sigma = 3 for the 4-fiber sphere); neither may read as
    # bad input
    for name, args in (
            ("quadratic_sum", ["wrt", "--manifold", "seifert:0;2/1,3/1,5/1,7/1",
                               "--r", "9", "--exact"]),
            ("f_surgery_normalization", ["verify", "decomposition", "--manifold",
                                         "lens:7", "--r", "11"])):
        right = getattr(wrt, name)
        with monkeypatch.context() as patch:
            patch.setattr(wrt, name, lambda *a, right=right, **k: 2 * right(*a, **k))
            code, _out, err = invoke(capsys, args)
        assert code == 3, args
        assert err.startswith("internal error:") and "2r" in err


TOP_USAGE = "usage: qmwrt [-h] {wrt,falsetheta,flatconn,gauss,verify,sweep} ..."
WRT_USAGE = "usage: qmwrt wrt [-h] --manifold MANIFOLD --r R [--s S] [--exact] [--json]"
VERIFY_USAGE = "usage: qmwrt verify [-h] --manifold MANIFOLD [--r R] [--r-range R_RANGE]"


@pytest.mark.parametrize("argv, code, usage", [
    ("", 2, TOP_USAGE),
    ("--help", 0, TOP_USAGE),
    ("-h wrt", 0, TOP_USAGE),
    ("-x wrt", 2, WRT_USAGE),
    ("bogus", 2, TOP_USAGE),
    ("bogus wrt", 2, TOP_USAGE),
    ("wrt", 2, WRT_USAGE),
    ("wrt --help", 0, WRT_USAGE),
    ("verify --help", 0, VERIFY_USAGE),
    ("wrt --r 5", 2, WRT_USAGE),
])
def test_usage_texts_name_every_command(capsys, monkeypatch, argv, code, usage):
    # parse_args builds one command's parser when argv starts with it, and
    # all six otherwise; either way the texts are those of the full tree
    monkeypatch.setenv("COLUMNS", "80")
    try:
        got = main(argv.split())
    except SystemExit as exc:   # --help
        got = exc.code
    captured = capsys.readouterr()
    text = captured.out + captured.err
    assert (got, text.splitlines()[0]) == (code, usage)
    if usage == TOP_USAGE and code == 0:
        assert all(help_text in text for help_text in cli._COMMANDS.values())


def test_a_command_builds_only_its_own_parser(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    parse_args(["wrt", "--manifold", "brieskorn:2,3,7", "--r", "19", "--exact"])
    assert built == ["qmwrt", "qmwrt wrt"]


def test_a_wrt_job_forms_the_invariants_once(capsys, monkeypatch):
    # parse_args, the run and the closed form all read invariants(d): one
    # Dedekind sum per fiber, not one per reader
    sums = []
    right = seifert.dedekind_sum
    monkeypatch.setattr(seifert, "dedekind_sum",
                        lambda *args: sums.append(args) or right(*args))
    seifert.invariants.cache_clear()
    assert main(["wrt", "--manifold", "brieskorn:2,3,7", "--r", "19",
                 "--exact"]) == 0
    capsys.readouterr()
    assert len(sums) == 3


def test_integrality_with_even_fiber_order_not_first(capsys):
    code, out, _err = invoke(capsys, ["verify", "integrality", "--manifold",
                                      "brieskorn:3,4,5", "--r", "7", "--s", "5"])
    assert code == 0
    assert out.count("[pass] integrality") == 6


def test_replaced_s_is_named(capsys):
    code, _out, err = invoke(capsys, ["verify", "geometric", "--manifold",
                                      "brieskorn:2,5,7", "--r", "503",
                                      "--s", "3"])
    assert code == 2
    assert "s' = 1009" in err


def test_xi_only_commands_keep_any_s(capsys):
    # s = 3 is taken as s' = 17 at r = 7: xi = e(s'/r) = e(3/7) is the same
    # root, so commands that evaluate at xi alone accept it
    for args in (["wrt", "--manifold", "brieskorn:2,3,7", "--r", "7"],
                 ["verify", "identity", "--manifold", "brieskorn:2,3,7",
                  "--r", "7"]):
        code, _out, _err = invoke(capsys, args + ["--s", "3"])
        assert code == 0


JSON_COMMANDS = [
    ["wrt", "--manifold", "brieskorn:2,3,7", "--r", "11", "--s", "5", "--exact"],
    ["wrt", "--manifold", "ex:2-3-3", "--r", "11", "--s", "5", "--exact"],
    ["wrt", "--manifold", "lens:5", "--r", "11", "--exact"],
    ["falsetheta", "--basis", "phi", "--p", "2,3,7", "--a", "1,1,1",
     "--r", "29", "--s", "5", "--tilde", "--exact"],
    ["flatconn", "--manifold", "ex:family:3"],
    ["gauss", "--s", "2", "--r", "8"],
    ["verify", "all", "--manifold", "brieskorn:2,3,5", "--r", "7", "--s", "5"],
    ["verify", "modularity", "--manifold", "brieskorn:2,3,7", "--s", "1",
     "--r-range", "101:301:100", "--order", "2", "--slope-tol", "1e-9"],
    ["sweep", "--manifold", "brieskorn:2,3,7", "--r-range", "101:301:100",
     "--order", "2"],
    # a limit at the integer point 1/1 is defined, unlike an invariant at xi = 1
    ["falsetheta", "--p", "2,3,7", "--a", "1,1,1", "--r", "1"],
]


@pytest.mark.parametrize("args", JSON_COMMANDS)
def test_json_output_is_the_indent_2_dump_of_the_payload(capsys, monkeypatch,
                                                         args):
    payloads = []
    emit = cli._emit

    def recording(job, payload, exit_code):
        payloads.append(payload)
        return emit(job, payload, exit_code)

    monkeypatch.setattr(cli, "_emit", recording)
    code, out, _err = invoke(capsys, args + ["--json"])
    assert code == (1 if "--slope-tol" in args else 0)
    assert len(payloads) == 1
    assert out == json.dumps(payloads[0], indent=2) + "\n"


def _exact_values():
    d = parse_manifold("brieskorn:2,3,7")
    tau = wrt.tau_seifert_closed(d, RootContext(11, 5))
    return [
        CycloNumber.zero(7),
        CycloNumber.from_int_dict(12, {0: -3, 5: 2 ** 70 + 1, 7: 6}, den=4),
        CycloNumber.from_int_dict(5, {1: -(2 ** 65)}, den=3 ** 50),
        tau.exact,
        wrt.w_normalized(tau, 1, RootContext(11, 5)).exact,
    ]


def test_writer_equals_json_dumps_on_hand_built_payloads():
    rows = [cli._serialize_exact(x) for x in _exact_values()]
    payloads = [
        {"exact": rows[0]},
        {"results": [{"name": "tau", "exact": row} for row in rows]},
        [[rows[1]], {"deeper": {"still": [rows[2]]}}],
        {"a": {}, "b": [], "c": [[], {}, ()], "d": {"e": {"f": []}}},
        {"nan": float("nan"), "inf": [float("inf"), -float("inf")],
         "floats": [0.1, -0.0, 1e300, 5e-324], "flags": [True, False, None]},
        {"名前": "Σ(2,3,5) — ξ̃ ∞ \U0001d70f", "esc": "tab\t\"quote\"\\\n"},
        {1: "int", 2.5: "float", False: "bool", None: "none", -3: [2 ** 80]},
        "a string", 17, -2.5, None, [], {},
    ]
    for payload in payloads:
        assert cli._dumps(payload) == json.dumps(payload, indent=2)


def test_serialized_rows_are_coefficients_in_lowest_terms():
    for x in _exact_values():
        out = cli._serialize_exact(x)
        assert out["conductor"] == x.D
        assert [k for k, _n, _d in out["coeffs"]] == sorted(x.c)
        for k, num, den in out["coeffs"]:
            q = Fraction(x.c[k], x.den)
            assert (num, den) == (q.numerator, q.denominator)
            assert type(num) is int and type(den) is int
