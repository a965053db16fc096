"""Command-line drivers: algcheck, algbuild, algcat, algblock.

Exit codes: 0 all checks pass, 1 at least one certified failure,
2 input/format error, 3 internal error (an unexpected exception; its
message goes to stderr).  Reports on stdout are byte-stable for fixed
inputs and flags; wall time goes to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
import traceback

from . import bialgebra as bi
from . import cybe
from . import fileio as fio
from . import lie
from . import matched as mt
from . import nslie as ns
from . import reynolds as rey
from . import rotabaxter as rb
from .catalog import catalog as catalog_lookup, entry_to_doc
from .certificates import Certificate, CheckFailed
from .exact import Mat, rat


CHECK_KINDS = (
    "jacobi", "reynolds", "reynolds-rep", "nslie", "ns-rep", "matched",
    "reynolds-matched", "manin", "coalgebra", "bialgebra", "reynolds-bialgebra",
    "rb", "quadratic-rb", "reynolds-on-qrb", "cybe", "reynolds-cybe",
    "relative-rb", "prelie", "reynolds-prelie",
)

BUILD_KINDS = (
    "induced", "descendent", "ns-from-reynolds", "semidirect", "double",
    "reynolds-double", "induced-matched", "drinfeld-double",
    "quasitriangular-double", "cobracket", "r-from-qrb", "thmfl", "rk",
    "canonical-r", "dual-from-r",
)


def _render_report(command: list[str], certs: list[Certificate], as_json: bool) -> tuple[str, int]:
    ok = all(c.ok for c in certs)
    if as_json:
        body = {
            "command": command,
            "checks": [c.to_json() for c in certs],
            "verdict": "pass" if ok else "fail",
        }
        text = json.dumps(body, indent=2) + "\n"
    else:
        lines = ["command: " + " ".join(command)]
        for c in certs:
            lines.append(c.render())
        lines.append("verdict: " + ("pass" if ok else "fail"))
        text = "\n".join(lines) + "\n"
    return text, 0 if ok else 1


def _operator_arg(args) -> Mat | None:
    path = args.op or args.reynolds
    if path is None:
        return None
    return fio.doc_to_operator(fio.read_doc(path))


def _tensor_arg(args, dim: int):
    if args.tensor is None:
        return None
    return fio.doc_to_tensor(fio.read_doc(args.tensor), dim)


def _required_op(doc: dict, args, context: str) -> Mat:
    op = _operator_arg(args)
    if op is not None:
        return op
    if "reynolds" in doc:
        return fio.doc_to_operator(doc["reynolds"])
    raise fio.InputError(f"{context}: needs an operator (--op FILE or embedded 'reynolds')")


def _required_tensor(doc: dict, args, dim: int, context: str):
    t = _tensor_arg(args, dim)
    if t is not None:
        return t
    if "r" in doc:
        return fio.doc_to_tensor(doc["r"], dim)
    raise fio.InputError(f"{context}: needs a tensor (--tensor FILE or embedded 'r')")


# ---------------------------------------------------------------------------
# check dispatch
# ---------------------------------------------------------------------------

def _run_check(kind: str, path: str, args) -> list[Certificate]:
    doc = fio.read_doc(path)
    if kind == "jacobi":
        return [lie.jacobi_check(fio.doc_to_algebra(doc))]
    if kind == "reynolds":
        L = fio.doc_to_algebra(doc)
        return [rey.is_reynolds(L, _required_op(doc, args, "reynolds check"))]
    if kind == "reynolds-rep":
        return [rey.is_reynolds_rep(fio.doc_to_reynolds_rep(doc))]
    if kind == "nslie":
        return [ns.is_nslie(fio.doc_to_ns(doc))]
    if kind == "ns-rep":
        return [ns.is_ns_rep(fio.doc_to_ns_rep(doc))]
    if kind == "matched":
        rmp = fio.doc_to_matched(doc, need_ops=False)
        mp = rmp.pair
        return [mt.is_matched_pair(mp.g, mp.h, mp.rho, mp.mu)]
    if kind == "reynolds-matched":
        return [mt.is_reynolds_matched_pair(fio.doc_to_matched(doc))]
    if kind == "manin":
        return [mt.is_manin_triple(*fio.doc_to_manin(doc))]
    if kind == "coalgebra":
        deltas, R = fio.doc_to_coalgebra(doc)
        certs = [bi.is_lie_coalgebra(deltas)]
        op = _operator_arg(args) or R
        if op is not None:
            certs.append(bi.is_reynolds_coalgebra(deltas, op))
        return certs
    if kind == "bialgebra":
        bialg, _ = fio.doc_to_bialgebra(doc)
        return [bi.is_lie_bialgebra(bialg.g, bialg.dual)]
    if kind == "reynolds-bialgebra":
        bialg, R = fio.doc_to_bialgebra(doc)
        op = _operator_arg(args) or R
        if op is None:
            raise fio.InputError("reynolds-bialgebra: needs an operator")
        return [bi.is_reynolds_bialgebra(bialg, op)]
    if kind == "rb":
        alg = fio.doc_to_rb(doc)
        return [rb.is_rota_baxter(alg.L, alg.B, alg.lam)]
    if kind == "quadratic-rb":
        qrb, _ = fio.doc_to_qrb(doc)
        return [rb.is_quadratic_rb(qrb.rb, qrb.S)]
    if kind == "reynolds-on-qrb":
        qrb, R = fio.doc_to_qrb(doc)
        op = _operator_arg(args) or R
        if op is None:
            raise fio.InputError("reynolds-on-qrb: needs an operator")
        return [rb.is_reynolds_on_qrb(qrb, op)]
    if kind == "cybe":
        L = fio.doc_to_algebra(doc)
        return [cybe.is_cybe_solution(L, _required_tensor(doc, args, L.dim, "cybe check"))]
    if kind == "reynolds-cybe":
        A = fio.doc_to_reynolds_algebra(doc, _operator_arg(args))
        r = _required_tensor(doc, args, A.L.dim, "reynolds-cybe check")
        return [cybe.is_cybe_solution_reynolds(A, r)]
    if kind == "relative-rb":
        return [cybe.is_relative_rb(fio.doc_to_relative_rb(doc))]
    if kind == "prelie":
        A, _ = fio.doc_to_prelie(doc)
        return [cybe.is_prelie(A)]
    if kind == "reynolds-prelie":
        A, R = fio.doc_to_prelie(doc)
        op = _operator_arg(args) or R
        if op is None:
            raise fio.InputError("reynolds-prelie: needs an operator")
        return [cybe.is_reynolds_prelie(A, op)]
    raise fio.InputError(f"unknown check kind: {kind!r}")


# ---------------------------------------------------------------------------
# build dispatch
# ---------------------------------------------------------------------------

def _gate(cert: Certificate) -> None:
    if not cert.ok:
        raise CheckFailed(cert)


def _run_build(kind: str, path: str, args) -> tuple[dict, list[Certificate]]:
    doc = fio.read_doc(path)
    if kind == "induced":
        A = fio.doc_to_reynolds_algebra(doc, _operator_arg(args))
        _gate(rey.is_reynolds(A.L, A.R))
        out = rey.induced_algebra(A)
        return fio.reynolds_algebra_to_doc(out), [
            lie.jacobi_check(out.L), rey.is_reynolds(out.L, out.R)]
    if kind == "descendent":
        alg = fio.doc_to_rb(doc)
        out = rb.descendent(alg)
        return fio.algebra_to_doc(out), [lie.jacobi_check(out)]
    if kind == "ns-from-reynolds":
        A = fio.doc_to_reynolds_algebra(doc, _operator_arg(args))
        _gate(rey.is_reynolds(A.L, A.R))
        out = ns.ns_from_reynolds(A)
        return fio.ns_to_doc(out), [ns.is_nslie(out)]
    if kind == "semidirect":
        rr = fio.doc_to_reynolds_rep(doc)
        _gate(rey.is_reynolds(rr.base.L, rr.base.R))
        out = rey.semidirect_reynolds(rr)
        return fio.reynolds_algebra_to_doc(out), [rey.is_reynolds(out.L, out.R)]
    if kind == "double":
        rmp = fio.doc_to_matched(doc, need_ops=False)
        out = mt.double(rmp.pair)
        return fio.algebra_to_doc(out), [lie.jacobi_check(out)]
    if kind == "reynolds-double":
        rmp = fio.doc_to_matched(doc)
        out = mt.reynolds_double(rmp)
        return fio.reynolds_algebra_to_doc(out), [rey.is_reynolds(out.L, out.R)]
    if kind == "induced-matched":
        rmp = fio.doc_to_matched(doc)
        imp = mt.induced_matched_pair(rmp)
        out = mt.ReynoldsMatchedPair(imp, rmp.Rg, rmp.Rh)
        return fio.matched_to_doc(out), [mt.is_reynolds_matched_pair(out)]
    if kind == "drinfeld-double":
        bialg, R = fio.doc_to_bialgebra(doc)
        op = _operator_arg(args) or R
        if op is None:
            raise fio.InputError("drinfeld-double: needs an operator")
        out = bi.drinfeld_double(bi.ReynoldsLieBialgebra.unchecked(bialg, op))
        return fio.reynolds_algebra_to_doc(out), [rey.is_reynolds(out.L, out.R)]
    if kind == "quasitriangular-double":
        bialg, R = fio.doc_to_bialgebra(doc)
        op = _operator_arg(args) or R
        if op is None:
            raise fio.InputError("quasitriangular-double: needs an operator")
        out = bi.double_quasitriangular(bi.ReynoldsLieBialgebra.unchecked(bialg, op))
        return (
            fio.bialgebra_to_doc(out.bialg, out.R),
            [bi.is_reynolds_bialgebra(out.bialg, out.R)],
        )
    if kind == "cobracket":
        L = fio.doc_to_algebra(doc)
        _gate(lie.jacobi_check(L))
        r = _required_tensor(doc, args, L.dim, "cobracket build")
        deltas = bi.coboundary_cobracket(L, r)
        return fio.coalgebra_to_doc(deltas), [bi.is_lie_coalgebra(deltas)]
    if kind == "r-from-qrb":
        qrb, _ = fio.doc_to_qrb(doc)
        r = rb.r_from_qrb(qrb)
        return fio.tensor_to_doc(r), [cybe.is_cybe_solution(qrb.rb.L, r)]
    if kind == "thmfl":
        qrb, R = fio.doc_to_qrb(doc)
        op = _operator_arg(args) or R
        if op is None:
            raise fio.InputError("thmfl: needs an operator")
        out = rb.thmFL_bialgebra(qrb, op)
        return (
            fio.bialgebra_to_doc(out.bialg, out.R),
            [bi.is_reynolds_bialgebra(out.bialg, out.R)],
        )
    if kind == "rk":
        rel = fio.doc_to_relative_rb(doc)
        ambient, r = cybe.rk_solution(rel)
        out = {"g": fio.reynolds_algebra_to_doc(ambient), "r": fio.tensor_to_doc(r)}
        return out, [cybe.is_cybe_solution_reynolds(ambient, r)]
    if kind == "canonical-r":
        A, R = fio.doc_to_prelie(doc)
        op = _operator_arg(args) or R
        if op is None:
            raise fio.InputError("canonical-r: needs an operator")
        ambient, r = cybe.canonical_r(cybe.ReynoldsPreLie.unchecked(A, op))
        out = {"g": fio.reynolds_algebra_to_doc(ambient), "r": fio.tensor_to_doc(r)}
        return out, [cybe.is_cybe_solution_reynolds(ambient, r)]
    if kind == "dual-from-r":
        L = fio.doc_to_algebra(doc)
        _gate(lie.jacobi_check(L))
        r = _required_tensor(doc, args, L.dim, "dual-from-r build")
        out = rb.dual_bracket_from_r(L, r)
        return fio.algebra_to_doc(out), [lie.jacobi_check(out)]
    raise fio.InputError(f"unknown build kind: {kind!r}")


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def _finish(command, certs, args, started) -> int:
    if args.first_only:
        trimmed = []
        for c in certs:
            trimmed.append(c)
            if not c.ok:
                break
        certs = trimmed
    text, code = _render_report(command, certs, args.json)
    sys.stdout.write(text)
    print(f"wall_ms={int((time.perf_counter() - started) * 1000)}", file=sys.stderr)
    return code


def _guarded(main):
    """Map an exception the command does not handle to exit code 3, never to 1."""
    @functools.wraps(main)
    def run(argv=None) -> int:
        try:
            return main(argv)
        except Exception as exc:
            print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return 3
    return run


def _flag_echo(args) -> list[str]:
    out = []
    if args.op:
        out += ["--op", args.op]
    if args.reynolds:
        out += ["--reynolds", args.reynolds]
    if args.tensor:
        out += ["--tensor", args.tensor]
    return out


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.add_argument("--first-only", action="store_true",
                   help="stop at the first failing certificate")
    ops = p.add_mutually_exclusive_group()
    ops.add_argument("--op", help="operator file (matrix document)")
    ops.add_argument("--reynolds", help="alias for --op")
    p.add_argument("--tensor", help="tensor file")


@_guarded
def main_check(argv=None) -> int:
    started = time.perf_counter()
    p = argparse.ArgumentParser(prog="algcheck",
                                description="run an axiom check and report certificates")
    p.add_argument("kind", choices=CHECK_KINDS)
    p.add_argument("file")
    _common_flags(p)
    args = p.parse_args(argv)
    command = ["algcheck", args.kind, args.file] + _flag_echo(args)
    try:
        certs = _run_check(args.kind, args.file, args)
    except CheckFailed as exc:
        return _finish(command, [exc.certificate], args, started)
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    return _finish(command, certs, args, started)


@_guarded
def main_build(argv=None) -> int:
    started = time.perf_counter()
    p = argparse.ArgumentParser(prog="algbuild",
                                description="run a construction, verify and write its output")
    p.add_argument("kind", choices=BUILD_KINDS)
    p.add_argument("file")
    p.add_argument("-o", "--out", required=True)
    _common_flags(p)
    args = p.parse_args(argv)
    command = ["algbuild", args.kind, args.file] + _flag_echo(args) + ["-o", args.out]
    try:
        doc, certs = _run_build(args.kind, args.file, args)
        fio.write_doc(args.out, doc, {"construction": args.kind, "sources": [args.file]})
    except CheckFailed as exc:
        return _finish(command, [exc.certificate], args, started)
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    return _finish(command, certs, args, started)


@_guarded
def main_cat(argv=None) -> int:
    started = time.perf_counter()
    p = argparse.ArgumentParser(prog="algcat",
                                description="emit a catalog entry and re-run its checks")
    p.add_argument("name")
    p.add_argument("-o", "--out")
    p.add_argument("--json", action="store_true")
    p.add_argument("--first-only", action="store_true")
    args = p.parse_args(argv)
    command = ["algcat", args.name]
    try:
        entry = catalog_lookup(args.name)
        if args.out:
            fio.write_doc(args.out, entry_to_doc(entry),
                          {"construction": "catalog", "sources": [args.name]})
            command += ["-o", args.out]
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    return _finish(command, list(entry.certificates), args, started)


@_guarded
def main_block(argv=None) -> int:
    started = time.perf_counter()
    p = argparse.ArgumentParser(prog="algblock",
                                description="check the two-index family on a finite window")
    p.add_argument("--q", required=True, help="rational parameter, e.g. 1/2")
    p.add_argument("--lo", type=int, required=True)
    p.add_argument("--hi", type=int, required=True)
    p.add_argument("--skip-singular", action="store_true",
                   help="drop window indices with m+i+1=0 instead of failing")
    p.add_argument("--json", action="store_true")
    p.add_argument("--first-only", action="store_true")
    args = p.parse_args(argv)
    command = ["algblock", "--q", args.q, "--lo", str(args.lo), "--hi", str(args.hi)]
    if args.skip_singular:
        command.append("--skip-singular")
    try:
        q = rat(args.q)
    except (ValueError, ZeroDivisionError):
        print(f"input error: bad rational {args.q!r}", file=sys.stderr)
        return 2
    try:
        cert = rey.block_window_check(q, args.lo, args.hi, skip_singular=args.skip_singular)
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    return _finish(command, [cert], args, started)


if __name__ == "__main__":
    sys.exit(main_check())
