"""Command line front end: compute invariants, run verification suites and
sweeps, emit JSON or CSV.

Subcommands:

  wrt         tau and W of a manifold at (r, s)
  falsetheta  Eichler limits of the periodic bases at s/r or -r/s
  flatconn    flat connection components with Chern-Simons data
  gauss       quadratic Gauss sum, closed form vs brute force
  verify      run one verification suite of the harness (harness.SUITES),
              or all of a manifold's but the modularity scan
  sweep       residual table over a range of r, as CSV

Manifold selectors (case-insensitive): brieskorn:p1,p2,...; lens:p;
seifert:b;p1/q1,...; ex:2-3-3; ex:neg-2-3-9; ex:family:p (the ex: prefix
is optional).

Exit codes: 0 all checks pass, 1 a check failed, 2 bad input (rejected
before any computation where the manifold, suite, r or --out is at fault)
or an --out that cannot be written, 3 an internal arithmetic error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from . import false_theta, gauss_sums, harness, seifert, wrt
from .cyclotomic import CycloNumber
from .number_theory import RootContext, normalize_s

__all__ = ["UsageError", "parse_args", "run", "main"]

USAGE_ERROR = 2
INTERNAL_ERROR = 3
# Longest exact walk of `falsetheta`, |support| c/2 terms at denominator c:
# phi at c = 10^6 took 3 s, 110 MB (5 s, 240 MB with --exact --json).
EXACT_WALK_BOUND = 4_000_000
# the value of each option that argv leaves out
DEFAULTS = {"manifold": None, "suite": None, "r": None, "r_range": None, "s": 1,
            "order": 2, "slope_tol": 0.5, "jobs": 1, "basis": "phi", "p": None,
            "a": None, "tilde": False, "exact": False, "json": False, "out": None}


class UsageError(Exception):
    pass


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _parse_range(text: str) -> tuple[int, int, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("range must be start:stop:step")
    start, stop, step = (int(x) for x in parts)
    if start < 3 or start % 2 == 0 or step % 2:
        raise ValueError("r-range must start odd and at 3 or more (r = 1 has no "
                         "invariant), with even step (r stays odd)")
    if step <= 0:
        raise ValueError("r-range step must be positive")
    return start, stop, step


_COMMANDS = {"wrt": "tau and W at a root of unity",
             "falsetheta": "Eichler limits of the bases",
             "flatconn": "flat connection components",
             "gauss": "quadratic Gauss sum closed form vs brute",
             "verify": "run verification checks",
             "sweep": "residual sweep over r, CSV output"}


def _add_arguments(command: str, sp: argparse.ArgumentParser) -> None:
    """Give the subcommand parser `sp` the arguments of `command`."""
    def add_ctx(s_help="numerator class; normalized to 1 mod 4 automatically"):
        sp.add_argument("--r", type=int, required=True, help="odd order of the root")
        sp.add_argument("--s", type=int, help=s_help)

    if command == "wrt":
        sp.add_argument("--manifold", required=True)
        add_ctx()
        sp.add_argument("--exact", action="store_true")
    elif command == "falsetheta":
        sp.add_argument("--basis", choices=["phi", "psi"])
        sp.add_argument("--p", required=True,
                        help="fiber triple p1,p2,p3 (phi) or the period half P (psi)")
        sp.add_argument("--a", required=True,
                        help="rotation triple a1,a2,a3 (phi) or label a (psi)")
        add_ctx(s_help="nonzero numerator coprime to r, used as given")
        sp.add_argument("--tilde", action="store_true",
                        help="evaluate at -r/s instead of s/r")
        sp.add_argument("--exact", action="store_true")
    elif command == "flatconn":
        sp.add_argument("--manifold", required=True)
    elif command == "gauss":
        sp.add_argument("--s", type=int, required=True)
        sp.add_argument("--r", type=int, required=True)
    elif command == "verify":
        sp.add_argument("suite", choices=[*harness.SUITES, "all"])
        sp.add_argument("--manifold", required=True)
        sp.add_argument("--r", type=int)
        sp.add_argument("--r-range")
        sp.add_argument("--s", type=int,
                        help="numerator class; geometric and modularity take "
                             "only s = 1 mod 4 below 4r")
        sp.add_argument("--order", type=int)
        sp.add_argument("--slope-tol", type=float)
    else:   # sweep
        sp.add_argument("--manifold", required=True)
        sp.add_argument("--r-range", required=True)
        sp.add_argument("--s", type=int, help="numerator class, 1 mod 4 and below 4r")
        sp.add_argument("--order", type=int)
        sp.add_argument("--jobs", type=int)
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--out")


def parse_args(argv: list[str]) -> argparse.Namespace:
    """The job argv names: every option of DEFAULTS, parsed and checked, plus
    command, output (text, json or csv), and as the command takes them
    r_values (--r-range as a range, stop included), model (the parsed
    --manifold), suites (those verify or sweep runs) and ctx (r and s')."""
    parser = argparse.ArgumentParser(
        prog="qmwrt",
        description="exact WRT invariants, false theta functions and "
                    "quantum modularity checks for Seifert fibered spaces")
    # argv that starts with a command needs only its parser (the metavar keeps
    # the usage line); other argv get all six, which --help and errors list.
    # Only the command argv names, as argparse reads it, gets its arguments.
    names = [argv[0]] if argv and argv[0] in _COMMANDS else list(_COMMANDS)
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar="{" + ",".join(_COMMANDS) + "}" if len(names) == 1 else None)
    parsers = {name: sub.add_parser(name, help=_COMMANDS[name],
                                    argument_default=argparse.SUPPRESS)
               for name in names}
    command = next((word for word in argv if word in parsers), None)
    if command:
        _add_arguments(command, parsers[command])

    try:
        job = argparse.Namespace(**{**DEFAULTS, **vars(parser.parse_args(argv))})
    except SystemExit as exc:
        if exc.code in (0, None):   # --help
            raise
        raise UsageError("invalid arguments") from exc

    job.output = "json" if job.json else "csv" if job.command == "sweep" else "text"
    if job.out and (os.path.isdir(job.out)
                    or not os.path.isdir(os.path.dirname(job.out) or ".")):
        raise UsageError(f"--out {job.out} is a directory or its parent is not")
    if job.command == "gauss":
        # gauss sums are defined for any positive modulus
        if job.r < 1:
            raise UsageError("r must be positive")
        return job
    if job.r is not None:
        low = 1 if job.command == "falsetheta" else 3   # r = 1, xi = 1: no invariant
        if job.r < low or job.r % 2 == 0:
            raise UsageError(f"r must be odd and at least {low}")
    if job.order < 0:
        raise UsageError(f"--order must be >= 0, got {job.order}")
    if not (math.isfinite(job.slope_tol) and job.slope_tol >= 0):
        raise UsageError(f"--slope-tol must be finite and >= 0, "
                         f"got {job.slope_tol}")
    if job.jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {job.jobs}")
    text, job.r_values = job.r_range, None
    if text:
        try:
            start, stop, step = job.r_range = _parse_range(text)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        job.r_values = range(start, stop + 1, step)
    if job.command == "verify":
        if job.suite == "modularity" and job.r_range is None:
            raise UsageError("verify modularity needs --r-range")
        if job.suite != "modularity" and job.r is None:
            raise UsageError(f"verify {job.suite} needs --r")
    if job.suite == "modularity" or job.command == "sweep":
        # a slope fit needs two values of r, a sweep one
        need, what = (2, "verify modularity") if job.command == "verify" \
            else (1, "sweep")
        if len(job.r_values) < need:
            raise UsageError(f"--r-range {text} holds {len(job.r_values)} "
                             f"value(s) of r; {what} needs {need} or more")
    try:
        if job.command == "falsetheta":
            _parse_falsetheta(job)
        elif job.command == "wrt":
            job.model = seifert.parse(job.manifold)
        else:
            suite = "modularity" if job.command == "sweep" else job.suite
            job.model, job.suites = harness.check_suites(
                job.manifold, suite, job.s, job.r, job.r_values)
        if job.command in ("wrt", "verify") and job.r is not None:
            job.ctx = RootContext(job.r, normalize_s(job.s, job.r))
        if job.command == "wrt" and job.model.data is not None:
            wrt.check_closed_form(job.model.data, job.ctx)
        elif job.command == "wrt" and math.gcd(job.ctx.s, job.model.params[0]) != 1:
            raise ValueError(f"evaluation parameter {job.ctx.s} must be coprime "
                             f"to p={job.model.params[0]}")
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return job


def _parse_falsetheta(job: argparse.Namespace) -> None:
    """Parse --p and --a; ValueError unless they, s and the Eichler
    denominator suit the basis and its exact walk."""
    job.p = _parse_int_tuple(job.p)
    job.a = _parse_int_tuple(job.a)
    size = 3 if job.basis == "phi" else 1
    if len(job.p) != size or len(job.a) != size:
        raise ValueError(f"the {job.basis} basis takes {size} value(s) "
                         f"in --p and in --a")
    if job.s == 0 or math.gcd(job.s, job.r) != 1:
        raise ValueError(f"s={job.s} must be nonzero and coprime to r={job.r}")
    c = abs(job.s) if job.tilde else job.r
    if c >= false_theta.DENOMINATOR_BOUND:
        raise ValueError(f"denominator {c} is past the Eichler-limit bound c < 2^31")
    if (walk := (8 if job.basis == "phi" else 2) * c // 2) > EXACT_WALK_BOUND:
        raise ValueError(f"denominator {c} needs an exact walk of about {walk} "
                         f"terms, past the bound {EXACT_WALK_BOUND}")


class _Rows(list):
    """Integer rows (k, numerator, denominator) of an exact value."""


def _serialize_exact(x: CycloNumber) -> dict:
    """The coefficient c_k/den of zeta_D^k in lowest terms, one row
    (k, c_k/g, den/g) with g = gcd(c_k, den) per exponent, ascending."""
    den = x.den
    rows = _Rows()
    for k, v in sorted(x.c.items()):
        g = math.gcd(v, den)
        rows.append((k, v // g, den // g))
    return {"conductor": x.D, "coeffs": rows}


def _dumps(obj, indent: str = "") -> str:
    """The text of json.dumps(obj, indent=2), byte for byte.

    `_Rows` are written with one format string per nesting depth; every
    other scalar and every key goes through the json module's encoder,
    with a number, boolean or None key taken as the string of its JSON
    text, as json does.
    """
    inner = indent + "  "
    if isinstance(obj, _Rows):
        if not obj:
            return "[]"
        item = inner + "  "
        row = f"{inner}[\n{item}%d,\n{item}%d,\n{item}%d\n{inner}]"
        return "[\n" + ",\n".join([row % r for r in obj]) + "\n" + indent + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{inner}{json.dumps(k if isinstance(k, str) else json.dumps(k))}: "
                 f"{_dumps(v, inner)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + indent + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [inner + _dumps(v, inner) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + indent + "]"
    return json.dumps(obj)


def _fmt(z: complex) -> dict:
    return {"re": float(f"{z.real:.17g}"), "im": float(f"{z.imag:.17g}")}


def _emit(job: argparse.Namespace, payload, exit_code: int) -> int:
    if isinstance(payload, str):
        text = payload
    else:
        text = _dumps(payload)
    if job.out:
        with open(job.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return exit_code


def _run_wrt(job: argparse.Namespace) -> int:
    ctx = job.ctx
    d = job.model.data
    if d is None:
        return _run_wrt_lens(job, ctx, job.model.params[0])
    inv = seifert.invariants(d)
    tau = wrt.tau_seifert_closed(d, ctx)
    w = wrt.w_normalized(tau, inv.H, ctx)
    results = [
        {"name": "tau", **_fmt(tau.numeric)},
        {"name": "W", **_fmt(w.numeric)},
        {"name": "invariants", "e": str(inv.e), "chi": str(inv.chi),
         "P": inv.P, "H": inv.H, "phi": str(inv.phi)},
    ]
    if job.exact:
        results[0]["exact"] = _serialize_exact(tau.exact)
        results[1]["exact"] = _serialize_exact(w.exact)
    payload = {"manifold": job.manifold, "ctx": {"r": ctx.r, "s": ctx.s},
               "results": results}
    if job.output == "json":
        return _emit(job, payload, 0)
    lines = [f"{job.manifold} at r={ctx.r} s={ctx.s}",
             f"  tau = {tau.numeric:.12g}",
             f"  W   = {w.numeric:.12g}",
             f"  e={inv.e} chi={inv.chi} P={inv.P} H={inv.H} phi={inv.phi}"]
    return _emit(job, "\n".join(lines), 0)


def _run_wrt_lens(job: argparse.Namespace, ctx: RootContext, p: int) -> int:
    w, sectors = wrt.wrt_lens(p, ctx)
    results = [{"name": "W", **_fmt(w.numeric)}]
    if job.exact:
        results[0]["exact"] = _serialize_exact(w.exact)
    results.extend({"name": f"W_sector_{a}", **_fmt(sec.eval_complex())}
                   for a, sec in enumerate(sectors))
    payload = {"manifold": job.manifold, "ctx": {"r": ctx.r, "s": ctx.s},
               "results": results}
    if job.output == "json":
        return _emit(job, payload, 0)
    lines = [f"L({p},1) at r={ctx.r} s={ctx.s}", f"  W = {w.numeric:.12g}"]
    lines += [f"  W^({a}) = {sec.eval_complex():.12g}"
              for a, sec in enumerate(sectors)]
    return _emit(job, "\n".join(lines), 0)


def _run_falsetheta(job: argparse.Namespace) -> int:
    # the Eichler limit needs no quarter-root convention: s is used as given
    alpha = Fraction(-job.r, job.s) if job.tilde else Fraction(job.s, job.r)
    if job.basis == "phi":
        f = false_theta.phi_basis(job.p, job.a)
        big_p = job.p[0] * job.p[1] * job.p[2]
    else:
        big_p = job.p[0]
        f = false_theta.psi_basis(big_p, job.a[0])
    val = false_theta.eichler_limit(f, big_p, alpha)
    num = val.eval_complex()
    payload = {"basis": job.basis, "p": list(job.p), "a": list(job.a),
               "ctx": {"r": job.r, "s": job.s}, "at": str(alpha),
               "results": [{"name": "eichler_limit", **_fmt(num),
                            **({"exact": _serialize_exact(val)} if job.exact else {})}]}
    if job.output == "json":
        return _emit(job, payload, 0)
    return _emit(job, f"limit at {alpha}: {num:.12g}", 0)


def _run_flatconn(job: argparse.Namespace) -> int:
    rows = [{"kind": c.kind,
             **({"label": c.label} if c.rotation is None
                else {"rotation": list(c.rotation)}),
             "cs_lift": str(c.cs_lift), "cs": str(c.cs)}
            for c in harness.family(job.model).connections(job.model)]
    payload = {"manifold": job.manifold, "results": rows}
    if job.output == "json":
        return _emit(job, payload, 0)
    lines = [f"flat connections of {job.manifold}:"]
    for row in rows:
        lines.append("  " + json.dumps(row))
    return _emit(job, "\n".join(lines), 0)


def _run_gauss(job: argparse.Namespace) -> int:
    brute = gauss_sums.gauss_brute(job.s, job.r)
    closed = gauss_sums.gauss_closed(job.s, job.r)
    bn = brute.eval_complex()
    # the float error of the brute sum grows with its weight sum |c_k|/den
    # (= r), measured at most 1.3e-16 per unit at r = 2,000,005 to 3,000,007;
    # distinct closed forms differ by a multiple of sqrt(r), far above 1e-12 r
    weight = sum(map(abs, brute.c.values())) / brute.den
    match = abs(bn - closed.numeric) <= 1e-12 * weight
    payload = {"s": job.s, "r": job.r,
               "closed": {"multiplier": closed.multiplier,
                          "jacobi": closed.jacobi, "phase": closed.phase,
                          "sqrt_radicand": closed.sqrt_radicand,
                          **_fmt(closed.numeric)},
               "brute_re": float(f"{bn.real:.17g}"),
               "brute_im": float(f"{bn.imag:.17g}"),
               "match": match}
    if job.output == "json":
        return _emit(job, payload, 0 if match else 1)
    return _emit(job, f"G({job.s}, {job.r}) = {bn:.12g}; closed form "
                      f"{closed.numeric:.12g}; match: {match}", 0 if match else 1)


def _run_verify(job: argparse.Namespace) -> int:
    if job.suite == "modularity":
        reports = [harness.modularity_report(job.model, job.s, job.r_values,
                                             job.order, job.slope_tol)]
    else:
        reports = [harness.RUNNERS[suite](job.model, job.ctx) for suite in job.suites]
    all_pass = all(rep.passed for rep in reports)
    merged = {"manifold": job.manifold,
              "ctx": reports[0].ctx,
              "results": [c.to_json() for rep in reports for c in rep.checks]}
    if job.output == "json":
        return _emit(job, merged, 0 if all_pass else 1)
    lines = []
    for rep in reports:
        for c in rep.checks:
            lines.append(f"[{'pass' if c.passed else 'FAIL'}] {c.name} "
                         f"{('- ' + c.detail) if c.detail else ''}")
    if not all_pass:
        failing = [c.name for rep in reports for c in rep.checks if not c.passed]
        print("failing checks: " + ", ".join(failing), file=sys.stderr)
    return _emit(job, "\n".join(lines), 0 if all_pass else 1)


def _run_sweep(job: argparse.Namespace) -> int:
    r_list = list(job.r_values)

    def scan(r_part: list[int]):
        return harness.residual_scan(job.model, job.s, r_part, job.order)[0]

    # one scan per worker, over every jobs-th r, so each scan reuses its
    # buffers over many r and the workers get a like share of large r
    parts = [r_list[i::job.jobs] for i in range(min(job.jobs, len(r_list)))]
    if len(parts) > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=len(parts)) as pool:
            rows = [row for part in pool.map(scan, parts) for row in part]
    else:
        rows = scan(r_list)
    rows.sort(key=lambda row: row[0])
    if job.output == "json":
        payload = {"manifold": job.manifold, "s": job.s, "order": job.order,
                   "results": [{"r": r, "abs_residual": float(f"{v:.17g}")}
                               for r, v in rows]}
        return _emit(job, payload, 0)
    lines = ["r,s,quantity,re,im,exact"]
    for r, v in rows:
        lines.append(f"{r},{job.s},abs_residual,{v:.17g},0,false")
    return _emit(job, "\n".join(lines), 0)


def run(job: argparse.Namespace) -> int:
    handlers = {"wrt": _run_wrt, "falsetheta": _run_falsetheta,
                "flatconn": _run_flatconn, "gauss": _run_gauss,
                "verify": _run_verify, "sweep": _run_sweep}
    return handlers[job.command](job)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        job = parse_args(argv)
        return run(job)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, OSError) as exc:   # OSError: the output was not written
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ArithmeticError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
