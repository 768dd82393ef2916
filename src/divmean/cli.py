"""Command-line front end.

stdout carries only the requested artifact (CSV, JSON, member streams,
verification rows); progress and error text go to stderr.  Exit codes:
0 success, 1 a verification row missed its bound, 2 usage or domain error.
"""

import argparse
import contextlib
import math
import sys
from fractions import Fraction

from . import constants, report, theta
from ._util import fmt15
from .errors import DivmeanError


def _fraction(text):
    """--t: an exact rational such as 2, 5/2 or 2.5."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def _finite_float(text):
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _int_list(text):
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of integers: {text!r}"
        ) from None


def _theta_rule(name, t):
    if name == "practical":
        return theta.ThetaRule.practical()
    if t is None:
        raise DivmeanError("dense rule needs --t")
    return theta.ThetaRule.dense(t)


def _emit(text, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_constants(args):
    if args.json:
        _emit(constants.document_to_json(constants.constants_document()) + "\n", args.out)
        return 0
    cert_g = constants.find_delta_via_g(args.v)
    cert_q = constants.find_delta_via_Q()
    cert_full = constants.root_certificate("delta")
    pair = constants.root_certificate("pair")
    minus1 = constants.root_certificate("minus_one")
    lines = [
        f"delta via g (V={fmt15(args.v)}) = {fmt15(cert_g.location.real)}",
        f"delta via transform = {fmt15(cert_q.location.real)}",
        f"delta refined (full grid) = {fmt15(cert_full.location.real)}",
        f"lambda0 via residue = {fmt15(cert_full.residue.real)}",
        f"lambda0 via integral = {fmt15(constants.lambda0_via_I(cert_full.location.real))}",
        f"lambda1 via residue = {fmt15(minus1.residue.real)}",
        f"lambda1 closed form = {fmt15(constants.lambda1_closed_form())}",
        "pair zero = {} + {}i".format(
            fmt15(pair.location.real), fmt15(pair.location.imag)
        ),
        "pair residue = {} + {}i".format(
            fmt15(pair.residue.real), fmt15(pair.residue.imag)
        ),
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_fn(args):
    _emit(report.tabulate_fn(args.kind, args.lo, args.hi, args.step), args.out)
    return 0


def _cmd_enumerate(args):
    # the counted walk (rough: checked arguments) first: a rejected request leaves --out untouched
    if args.kind == "rough":
        if args.y is None:
            raise DivmeanError("rough enumeration needs --y")
        blocks, what = theta.rough_member_blocks(args.x, args.y), "rough"  # sieved as written
    else:
        _, windows = theta.sorted_windows(_theta_rule(args.kind, args.t), args.x, by_theta=False)
        blocks, what = (w[1] for w in windows), "chain"  # each window written as it is sorted
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        count = sum(theta.write_lines(fh, members) for members in blocks)
    print(f"enumerated {count} {what} members", file=sys.stderr, flush=True)
    return 0


def _cmd_stats(args):
    if args.kind == "rough":
        if args.y is None:
            raise DivmeanError("rough stats need --y")
        st = theta.rough_stats(args.x, args.y)
    elif args.kind == "dense":
        if args.t is None:
            raise DivmeanError("dense stats need --t")
        st = theta.dense_stats(args.x, args.t)
    else:
        st = theta.practical_stats(args.x)
    harm = fmt15(st.harmonic) if st.harmonic is not None else ""
    _emit(
        f"x,count,tau_sum,harmonic\n{st.x},{st.count},{st.tau_sum},{harm}\n",
        args.out,
    )
    return 0


def _verdict(text, ok, args):
    """Write text and a PASS or FAIL line; exit code 0 on PASS, 1 on FAIL."""
    _emit(text + ("PASS" if ok else "FAIL") + "\n", args.out)
    return 0 if ok else 1


def _cmd_verify(args):
    if args.kind in ("rough", "dense"):
        if args.kind == "rough":
            rows = report.compare_rough(args.x, args.y)
        elif args.t is None:
            raise DivmeanError("dense verification needs --t")
        else:
            rows = report.compare_dense(args.x, args.t)
        text = report.rows_to_jsonl(rows) if args.json else report.rows_to_csv(rows)
        return _verdict(text, all(r.ok for r in rows), args)
    if args.json:
        raise DivmeanError(f"verify {args.kind} has no --json output")
    if args.kind == "practical":
        pairs = report.fit_nu_practical(args.xs)
        lines = ["x,ratio"]
        lines += [f"{x},{fmt15(r)}" for x, r in pairs]
        ratios = [r for _, r in pairs]
        ok = all(
            abs(b - a) / a < 0.10 for a, b in zip(ratios, ratios[1:])
        ) and all(r > 0 for r in ratios)
        return _verdict("\n".join(lines) + "\n", ok, args)
    if args.kind == "L":
        rule = _theta_rule(args.theta, args.t)
        ns = sorted({min(args.n, max(2, args.n // k)) for k in (100, 10, 1)})
        vals = report.L_partial_multi(rule, ns)
        lines = ["N,L_partial"] + [f"{n},{fmt15(v)}" for n, v in zip(ns, vals)]
        ok = all(b >= a for a, b in zip(vals, vals[1:])) and all(
            0.0 < v <= 1.0 for v in vals
        )
        return _verdict("\n".join(lines) + "\n", ok, args)
    if args.kind == "ctheta":
        rule = _theta_rule(args.theta, args.t)
        info = report.c_theta_breakdown(rule, args.n)
        bx = 10 * args.n if args.count_x is None else args.count_x
        (st,) = theta.chain_stats_multi(rule, [bx])
        target = st.count * math.log(bx) / bx
        gap = abs(info["value"] - target)
        lines = [
            f"c_partial({args.n}) = {fmt15(info['value'])}",
            f"count_scaled({bx}) = {fmt15(target)}",
            f"gap = {fmt15(gap)}",
            f"negative_terms = {info['negative_terms']}",
        ]
        return _verdict("\n".join(lines) + "\n", gap < 0.1, args)
    # funceq: exact integer identity between direct sums and chain splits
    rule = _theta_rule(args.theta, args.t)
    res = theta.verify_funceq(args.x, rule)
    keys = ("count_lhs", "count_rhs", "tau_lhs", "tau_rhs")
    return _verdict("".join(f"{k} = {res[k]}\n" for k in keys), res["exact"], args)


def _cmd_figures(args):
    _emit(report.emit_figure_data(args.kind, args.lo, args.hi, args.step), args.out)
    return 0


def _add_out(p):
    p.add_argument("--out", "-o", default=None, help="output file (default stdout)")


def _add_family(p):
    """kind, cutoff and family parameters shared by enumerate and stats."""
    p.add_argument("kind", choices=["rough", "dense", "practical"])
    p.add_argument("--x", type=int, required=True, help="upper cutoff")
    p.add_argument(
        "--y", type=_finite_float, default=None, help="roughness bound (rough)"
    )
    p.add_argument(
        "--t", type=_fraction, default=None, help="density ratio bound (dense)"
    )


def _parser():
    p = argparse.ArgumentParser(
        prog="divmean",
        description="Divisor-count means over rough, dense, and practical numbers.",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    pc = sub.add_parser("constants", help="root certificates and margins")
    pc.add_argument("--json", action="store_true", help="full JSON document")
    pc.add_argument(
        "--v",
        type=float,
        default=6.0,
        help="grid truncation for the g route in the text summary (default 6.0)",
    )
    _add_out(pc)
    pc.set_defaults(fn=_cmd_constants)

    pf = sub.add_parser("fn", help="tabulate a special function as CSV")
    pf.add_argument("kind", choices=["omega", "xi", "lambda"])
    pf.add_argument("--from", dest="lo", type=_finite_float, default=0.0, help="grid start (default 0)")
    pf.add_argument("--to", dest="hi", type=_finite_float, default=10.0, help="grid end (default 10)")
    pf.add_argument("--step", type=_finite_float, default=0.25, help="grid step (default 0.25)")
    _add_out(pf)
    pf.set_defaults(fn=_cmd_fn)

    pe = sub.add_parser("enumerate", help="stream sequence members, one per line")
    _add_family(pe)
    pe.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted and ignored; the walk runs on one thread",
    )
    _add_out(pe)
    pe.set_defaults(fn=_cmd_enumerate)

    ps = sub.add_parser("stats", help="count, tau sum, harmonic sum at a cutoff")
    _add_family(ps)
    _add_out(ps)
    ps.set_defaults(fn=_cmd_stats)

    pv = sub.add_parser("verify", help="estimate-vs-exact checks; FAIL exits 1")
    pv.add_argument(
        "kind", choices=["rough", "dense", "practical", "L", "ctheta", "funceq"]
    )
    pv.add_argument("--x", type=int, default=10**5, help="cutoff (default 100000)")
    pv.add_argument(
        "--y", type=_finite_float, default=100.0, help="roughness bound (default 100)"
    )
    pv.add_argument("--t", type=_fraction, default=None, help="density ratio bound")
    pv.add_argument(
        "--theta",
        choices=["dense", "practical"],
        default="practical",
        help="chain rule for L/ctheta/funceq (default practical)",
    )
    pv.add_argument("--n", type=int, default=10**5, help="series cutoff (default 100000)")
    pv.add_argument(
        "--xs",
        type=_int_list,
        default="100000,1000000",
        help="comma-separated cutoffs for the practical fit",
    )
    pv.add_argument(
        "--count-x",
        type=int,
        default=None,
        help="count cutoff for the ctheta cross-check (default 10*n)",
    )
    pv.add_argument("--json", action="store_true", help="JSON-lines rows (rough, dense)")
    _add_out(pv)
    pv.set_defaults(fn=_cmd_verify)

    pg = sub.add_parser("figures", help="figure-ready CSV data")
    pg.add_argument("kind", choices=["fig1", "fig2"])
    pg.add_argument("--from", dest="lo", type=_finite_float, default=None, help="grid start")
    pg.add_argument("--to", dest="hi", type=_finite_float, default=None, help="grid end")
    pg.add_argument("--step", type=_finite_float, default=None, help="grid step")
    _add_out(pg)
    pg.set_defaults(fn=_cmd_figures)

    return p


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:  # argparse has already printed its message
        return int(e.code or 0)
    try:
        return args.fn(args)
    except (DivmeanError, MemoryError) as e:  # numpy's failed allocations too
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    except OSError as e:  # an --out path that cannot be opened or written
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
