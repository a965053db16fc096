"""Command-line drivers: algcheck, algbuild, algcat, algblock.

Exit codes: 0 all checks pass, 1 at least one certified failure,
2 input/format or usage error (returned, not raised), 3 internal error (an
unexpected exception; its message goes to stderr).  Reports on stdout are
byte-stable for fixed inputs and flags; wall time goes to stderr.

The four commands share one skeleton (`_command`) around a function that
returns the certificates to report.  Each check and build kind is one
registry entry, and every library name it runs resolves through the package's
lazy exports, so a process loads only the modules its kind uses.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import fileio as fio
from .catalog import catalog, entry_to_doc
from .certificates import Certificate, CheckFailed, require, verified
from .exact import Mat, rat

# the package: its lazy exports look each name up on its module at call time
ac = sys.modules[__package__]


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


def _op(args, embedded, context: str | None = None) -> Mat | None:
    """The operator a kind runs with: the --op (or --reynolds) file if given, else
    `embedded`, the document's own operator or None.  With a `context`, a missing
    operator is an input error."""
    path = args.op or args.reynolds
    if path is not None:
        return fio.doc_to_operator(fio.read_doc(path))
    if embedded is None and context is not None:
        raise fio.InputError(f"{context}: needs an operator (--op FILE or embedded 'reynolds')")
    return embedded


def _tensor(doc: dict, args, dim: int, context: str):
    """The --tensor file if given, else the document's embedded 'r'."""
    if args.tensor is not None:
        return fio.doc_to_tensor(fio.read_doc(args.tensor), dim)
    if "r" in doc:
        return fio.doc_to_tensor(doc["r"], dim)
    raise fio.InputError(f"{context}: needs a tensor (--tensor FILE or embedded 'r')")


def _with_op(loaded: tuple, args, kind: str) -> tuple:
    """A loader's (structure, embedded operator) with the operator replaced by --op if
    given; with neither, an input error naming `kind`."""
    x, R = loaded
    return x, _op(args, R, kind)


def _gated_reynolds(doc: dict, args):
    A = fio.doc_to_reynolds_algebra(doc, _op(args, None))
    require(A.gate())
    return A


def _gated_lie_and_tensor(doc: dict, args, context: str):
    L = fio.doc_to_algebra(doc)
    require(L.gate())
    return L, _tensor(doc, args, L.dim, context)


# ---------------------------------------------------------------------------
# check registry: kind -> run; run(doc, args) returns the certificates
# ---------------------------------------------------------------------------

def _coalgebra(doc: dict, args) -> list[Certificate]:
    deltas, R = fio.doc_to_coalgebra(doc)
    certs = [ac.is_lie_coalgebra(deltas)]
    op = _op(args, R)
    if op is not None:
        certs.append(ac.is_reynolds_coalgebra(deltas, op))
    return certs


def _reynolds_cybe(doc: dict, args) -> list[Certificate]:
    A = fio.doc_to_reynolds_algebra(doc, _op(args, None))
    return [ac.is_cybe_solution_reynolds(
        A, _tensor(doc, args, A.L.dim, "reynolds-cybe check"))]


def _cybe(doc: dict, args) -> list[Certificate]:
    L = fio.doc_to_algebra(doc)
    return [ac.is_cybe_solution(L, _tensor(doc, args, L.dim, "cybe check"))]


CHECKS = {
    "jacobi": lambda doc, args: [fio.doc_to_algebra(doc).gate()],
    "reynolds": lambda doc, args: [fio.doc_to_reynolds_algebra(doc, _op(args, None)).gate()],
    "reynolds-rep": lambda doc, args: [fio.doc_to_reynolds_rep(doc).gate()],
    "nslie": lambda doc, args: [fio.doc_to_ns(doc).gate()],
    "ns-rep": lambda doc, args: [fio.doc_to_ns_rep(doc).gate()],
    "matched": lambda doc, args: [fio.doc_to_matched(doc, need_ops=False).pair.gate()],
    "reynolds-matched": lambda doc, args: [fio.doc_to_matched(doc).gate()],
    "manin": lambda doc, args: [fio.doc_to_manin(doc).gate()],
    "coalgebra": _coalgebra,
    "bialgebra": lambda doc, args: [fio.doc_to_bialgebra(doc)[0].gate()],
    "reynolds-bialgebra": lambda doc, args: [ac.is_reynolds_bialgebra(
        *_with_op(fio.doc_to_bialgebra(doc), args, "reynolds-bialgebra"))],
    "rb": lambda doc, args: [fio.doc_to_rb(doc).gate()],
    "quadratic-rb": lambda doc, args: [fio.doc_to_qrb(doc)[0].gate()],
    "reynolds-on-qrb": lambda doc, args: [ac.is_reynolds_on_qrb(
        *_with_op(fio.doc_to_qrb(doc), args, "reynolds-on-qrb"))],
    "cybe": _cybe,
    "reynolds-cybe": _reynolds_cybe,
    "relative-rb": lambda doc, args: [fio.doc_to_relative_rb(doc).gate()],
    "prelie": lambda doc, args: [fio.doc_to_prelie(doc)[0].gate()],
    "reynolds-prelie": lambda doc, args: [ac.is_reynolds_prelie(
        *_with_op(fio.doc_to_prelie(doc), args, "reynolds-prelie"))],
}
CHECK_KINDS = tuple(CHECKS)


def _run_check(kind: str, path: str, args) -> list[Certificate]:
    return CHECKS[kind](fio.read_doc(path), args)


# ---------------------------------------------------------------------------
# build registry: kind -> (run, emit); run(doc, args) returns the
# construction, emit(output) its document and the certificates re-verifying it
# ---------------------------------------------------------------------------

def _semidirect(doc: dict, args):
    rr = fio.doc_to_reynolds_rep(doc)
    require(rr.base.gate())
    return ac.semidirect_reynolds(rr)


def _induced_matched(doc: dict, args):
    rmp = fio.doc_to_matched(doc)
    return ac.ReynoldsMatchedPair(ac.induced_matched_pair(rmp), rmp.Rg, rmp.Rh)


def _r_from_qrb(doc: dict, args):
    qrb, _ = fio.doc_to_qrb(doc)
    return qrb.rb.L, ac.r_from_qrb(qrb)


def _emit_algebra(L):
    return fio.algebra_to_doc(L), [L.gate()]


def _emit_reynolds(A):
    return fio.reynolds_algebra_to_doc(A), [A.gate()]


def _emit_bialgebra(rb):
    return fio.bialgebra_to_doc(rb.bialg, rb.R), [rb.gate()]


def _emit_solution(out):
    ambient, r = out
    doc = {"g": fio.reynolds_algebra_to_doc(ambient), "r": fio.tensor_to_doc(r)}
    return doc, [ac.is_cybe_solution_reynolds(ambient, r)]


BUILDS = {
    "induced": (lambda doc, args: ac.induced_algebra(_gated_reynolds(doc, args)),
                lambda A: (fio.reynolds_algebra_to_doc(A), [A.L.gate(), A.gate()])),
    "descendent": (lambda doc, args: ac.descendent(fio.doc_to_rb(doc)), _emit_algebra),
    "ns-from-reynolds": (lambda doc, args: ac.ns_from_reynolds(_gated_reynolds(doc, args)),
                         lambda out: (fio.ns_to_doc(out), [out.gate()])),
    "semidirect": (_semidirect, _emit_reynolds),
    "double": (lambda doc, args: ac.double(fio.doc_to_matched(doc, need_ops=False).pair),
               _emit_algebra),
    "reynolds-double": (lambda doc, args: ac.reynolds_double(fio.doc_to_matched(doc)),
                        _emit_reynolds),
    "induced-matched": (_induced_matched,
                        lambda out: (fio.matched_to_doc(out), [out.gate()])),
    "drinfeld-double": (lambda doc, args: ac.drinfeld_double(ac.ReynoldsLieBialgebra.unchecked(
        *_with_op(fio.doc_to_bialgebra(doc), args, "drinfeld-double"))), _emit_reynolds),
    "quasitriangular-double": (lambda doc, args: ac.double_quasitriangular(
        ac.ReynoldsLieBialgebra.unchecked(
            *_with_op(fio.doc_to_bialgebra(doc), args, "quasitriangular-double"))),
        _emit_bialgebra),
    "cobracket": (lambda doc, args: ac.coboundary_cobracket(
        *_gated_lie_and_tensor(doc, args, "cobracket build")),
        lambda deltas: (fio.coalgebra_to_doc(deltas), [ac.is_lie_coalgebra(deltas)])),
    "r-from-qrb": (_r_from_qrb,
                   lambda out: (fio.tensor_to_doc(out[1]), [ac.is_cybe_solution(*out)])),
    "thmfl": (lambda doc, args: ac.thmFL_bialgebra(
        *_with_op(fio.doc_to_qrb(doc), args, "thmfl")), _emit_bialgebra),
    "rk": (lambda doc, args: ac.rk_solution(fio.doc_to_relative_rb(doc)), _emit_solution),
    "canonical-r": (lambda doc, args: ac.canonical_r(ac.ReynoldsPreLie.unchecked(
        *_with_op(fio.doc_to_prelie(doc), args, "canonical-r"))), _emit_solution),
    "dual-from-r": (lambda doc, args: ac.dual_bracket_from_r(
        *_gated_lie_and_tensor(doc, args, "dual-from-r build")), _emit_algebra),
}
BUILD_KINDS = tuple(BUILDS)


@verified   # one scope: the emit's checks of what the construction verified are memo hits
def _run_build(kind: str, path: str, args) -> tuple[dict, list[Certificate]]:
    run, emit = BUILDS[kind]
    return emit(run(fio.read_doc(path), args))


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def _command(prog: str, description: str, flags, echo):
    """Make `run(args) -> certificates` the CLI entry point `(argv=None) -> int`.

    `flags(p)` declares the command's arguments and `echo(args)` is the command line
    its report repeats.  Every step around `run` is here, once: the timer, argument
    parsing (a usage error returns argparse's code, 2), a failed hypothesis
    (`CheckFailed`) reported as its certificate, any other `ValueError` reported as an
    input error (exit 2, nothing on stdout), `--first-only`, the rendering and the wall
    time on stderr.  Any other exception exits 3, never 1.
    """
    def wrap(run):
        @functools.wraps(run)
        def main(argv=None) -> int:
            started = time.perf_counter()
            try:
                p = argparse.ArgumentParser(prog=prog, description=description)
                flags(p)
                args = p.parse_args(argv)
                try:
                    certs = run(args)
                except CheckFailed as exc:
                    certs = [exc.certificate]
                except ValueError as exc:
                    print(f"input error: {exc}", file=sys.stderr)
                    return 2
                if args.first_only:   # up to and including the first failing certificate
                    certs = certs[:next((k + 1 for k, c in enumerate(certs) if not c.ok), None)]
                text, code = _render_report(echo(args), certs, args.json)
                sys.stdout.write(text)
                print(f"wall_ms={int((time.perf_counter() - started) * 1000)}", file=sys.stderr)
                return code
            except SystemExit as exc:
                return exc.code
            except Exception as exc:
                import traceback
                print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
                return 3
        return main
    return wrap


def _flag_echo(args) -> list[str]:
    out = []
    if args.op:
        out += ["--op", args.op]
    if args.reynolds:
        out += ["--reynolds", args.reynolds]
    if args.tensor:
        out += ["--tensor", args.tensor]
    return out


def _report_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.add_argument("--first-only", action="store_true",
                   help="stop at the first failing certificate")


def _document_flags(kinds: tuple[str, ...], out: bool = False):
    """algcheck's and algbuild's arguments: a kind, one input document, (-o,) report and
    operator/tensor flags."""
    def flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("kind", choices=kinds)
        p.add_argument("file")
        if out:
            p.add_argument("-o", "--out", required=True)
        _report_flags(p)
        ops = p.add_mutually_exclusive_group()
        ops.add_argument("--op", help="operator file (matrix document)")
        ops.add_argument("--reynolds", help="alias for --op")
        p.add_argument("--tensor", help="tensor file")
    return flags


@_command("algcheck", "run an axiom check and report certificates", _document_flags(CHECK_KINDS),
          lambda args: ["algcheck", args.kind, args.file] + _flag_echo(args))
def main_check(args) -> list[Certificate]:
    return _run_check(args.kind, args.file, args)


@_command("algbuild", "run a construction, verify and write its output",
          _document_flags(BUILD_KINDS, out=True),
          lambda args: ["algbuild", args.kind, args.file] + _flag_echo(args) + ["-o", args.out])
def main_build(args) -> list[Certificate]:
    doc, certs = _run_build(args.kind, args.file, args)
    fio.write_doc(args.out, doc, {"construction": args.kind, "sources": [args.file]})
    return certs


def _cat_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("name")
    p.add_argument("-o", "--out")
    _report_flags(p)


@_command("algcat", "emit a catalog entry and re-run its checks", _cat_flags,
          lambda args: ["algcat", args.name] + (["-o", args.out] if args.out else []))
@verified
def main_cat(args) -> list[Certificate]:
    entry = catalog(args.name)
    if args.out:
        fio.write_doc(args.out, entry_to_doc(entry),
                      {"construction": "catalog", "sources": [args.name]})
    return list(entry.certificates)


def _block_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q", required=True, help="rational parameter, e.g. 1/2")
    p.add_argument("--lo", type=int, required=True)
    p.add_argument("--hi", type=int, required=True)
    p.add_argument("--skip-singular", action="store_true",
                   help="drop window indices with m+i+1=0 instead of failing")
    _report_flags(p)


@_command("algblock", "check the two-index family on a finite window", _block_flags,
          lambda args: ["algblock", "--q", args.q, "--lo", str(args.lo), "--hi", str(args.hi)]
          + (["--skip-singular"] if args.skip_singular else []))
def main_block(args) -> list[Certificate]:
    try:
        q = rat(args.q)
    except (ValueError, ZeroDivisionError) as exc:
        raise fio.InputError(f"bad rational {args.q!r}") from exc
    return [ac.block_window_check(q, args.lo, args.hi, skip_singular=args.skip_singular)]


if __name__ == "__main__":
    sys.exit(main_check())
