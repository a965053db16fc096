"""The four workloads: seeded inputs, the fixed operation list, expected outcomes.

Every expected outcome comes from the construction in ``gen``: a verdict the
mathematics guarantees, or a ``where``/``violations``/residual derived from the
generated tables.  None is obtained by running the code under test, except
the CLI reports, which must be byte-identical to an in-process run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import random
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction as F
from typing import Callable

import algcert as ac
from algcert import cli, fileio

import gen

NEG1 = F(-1)


@dataclass
class Op:
    """One operation: a public-function call or one CLI process."""

    name: str
    rung: str
    run: Callable[[], object]
    check: Callable[[object], str | None]   # None when the outcome is the expected one
    command: "CliCommand | None" = None


# -- expected certificates -------------------------------------------------------------

def passes(cert) -> str | None:
    if cert.ok and cert.where is None and cert.violations == 0:
        return None
    return "expected PASS, got " + cert.render().splitlines()[0]


def fails(where, violations, residual):
    want = (False, tuple(where), violations, residual)

    def check(cert) -> str | None:
        got = (cert.ok, cert.where, cert.violations, cert.residual)
        return None if got == want else f"expected {want}, got {got}"

    return check


def interleave(chains: list[list[Op]], rng: random.Random) -> list[Op]:
    """Merge the chains in a seeded random order, keeping each chain's own order.

    Spreading every rung over the whole pass means each latency percentile and
    the top-rung sum sample the host's speed across the run, not in one burst.
    """
    chains = [list(reversed(c)) for c in chains if c]
    out = []
    while chains:
        k = rng.randrange(len(chains))
        out.append(chains[k].pop())
        if not chains[k]:
            chains.pop(k)
    return out


def lib(alg: gen.Algebra):
    L = ac.LieAlgebra.unchecked(alg.dim, alg.labels, alg.sc)
    return L, ac.Mat(alg.R), ac.BilinForm(ac.Mat(alg.S))


# -- checks-sparse and checks-dense -------------------------------------------------------
#
# Each check names the largest dimension it runs on: at this commit the dense
# evaluation paths make the cubic checks on dim 16 cost seconds to tens of
# seconds, and every run must fit the benchmark's time budget.

def _check_ops(alg: gen.Algebra, tag: str, limits: dict) -> list[Op]:
    L, R, S = lib(alg)
    d = alg.dim
    two = ac.Mat.identity(d).scale(2)
    ops = {
        "jacobi": (lambda: ac.jacobi_check(L), passes),
        "reynolds": (lambda: ac.is_reynolds(L, R), passes),
        "representation": (lambda: ac.is_representation(ac.adjoint_rep(L)), passes),
        "invariant_form": (lambda: ac.is_invariant_form(L, S), passes),
        "rota_baxter": (lambda: ac.is_rota_baxter(L, R, NEG1), passes),
        "nslie": (lambda: ac.is_nslie(ac.ns_from_reynolds(ac.ReynoldsLieAlgebra.unchecked(L, R))),
                  passes),
        # [2x,2y] - 2([2x,y]+[x,2y]-[2x,2y]) = 4[x,y]
        "reynolds_2id": (lambda: ac.is_reynolds(L, two),
                         fails(*gen.scaled_bracket_failure(alg.sc, F(4)))),
        # [2x,2y] - 2([2x,y]+[x,2y]-[x,y]) = -2[x,y]
        "rota_baxter_2id": (lambda: ac.is_rota_baxter(L, two, NEG1),
                            fails(*gen.scaled_bracket_failure(alg.sc, F(-2)))),
    }
    if "jacobi_broken" in limits and d <= limits["jacobi_broken"]:
        sc = gen.direct_sum(alg.sc, d, gen.BROKEN)
        Lb = ac.LieAlgebra.unchecked(d + 3, None, sc)
        res = gen.jacobiator(sc, d + 3, d, d + 1, d + 2)
        residual = tuple(((k,), c) for k, c in enumerate(res) if c != 0)
        ops["jacobi_broken"] = (lambda: ac.jacobi_check(Lb), fails((d, d + 1, d + 2), 1, residual))
    return [Op(f"{name} {alg.name}{tag}", alg.name, *ops[name])
            for name, top in limits.items() if d <= top]


SPARSE_PLAN = (("sl(2)", 3), ("gl(2)", 3), ("heisenberg(1)", 3), ("heisenberg(2)", 3),
               ("b(2)", 3), ("b(3)", 3), ("sl(3)", 1), ("heisenberg(3)", 1),
               ("heisenberg(4)", 1), ("b(4)", 1), ("gl(3)", 1), ("gl(4)", 1))
SPARSE_LIMITS = {"jacobi": 16, "reynolds": 16, "rota_baxter": 16, "representation": 10,
                 "invariant_form": 10, "nslie": 6}

DENSE_PLAN = (("sl(2)", 2), ("gl(2)", 2), ("heisenberg(1)", 2), ("heisenberg(2)", 2),
              ("b(2)", 2), ("b(3)", 1), ("sl(3)", 1), ("heisenberg(3)", 1),
              ("b(4)", 1), ("gl(3)", 1), ("gl(4)", 2))
DENSE_LIMITS = {"jacobi": 9, "reynolds": 16, "rota_baxter": 9, "representation": 9,
                "invariant_form": 9, "nslie": 4, "reynolds_2id": 10, "rota_baxter_2id": 9,
                "jacobi_broken": 9}


def checks_sparse(seed: int, workdir: str) -> list[Op]:
    rng = random.Random(f"checks-sparse:{seed}")
    ops = []
    for spec, copies in SPARSE_PLAN:
        base = gen.family(spec)
        for c in range(copies):
            alg = gen.change_basis(base, gen.monomial_change(base.dim, rng))
            ops += _check_ops(alg, f"#{c}", SPARSE_LIMITS)
    return interleave([[op] for op in ops], rng)


def checks_dense(seed: int, workdir: str) -> list[Op]:
    rng = random.Random(f"checks-dense:{seed}")
    ops = []
    for spec, copies in DENSE_PLAN:
        base = gen.family(spec)
        for c in range(copies):
            alg = gen.change_basis(base, gen.dense_change(base.dim, rng))
            ops += _check_ops(alg, f"#{c}", DENSE_LIMITS)
    return interleave([[op] for op in ops], rng)


# -- build-pipeline -------------------------------------------------------------------------

def equal(get, want, what: str):
    """Check that get(result) equals the value the construction predicts."""
    return lambda out: None if get(out) == want else f"{what} differs from the construction"


def _chain_ops(q: gen.QRB, use_r: bool, tag: str, steps: tuple[str, ...]) -> list[Op]:
    alg = q.alg
    n = alg.dim
    L, _, S = lib(alg)
    B = ac.Mat(q.B)
    R = B if use_r else ac.Mat.zeros(n, n)
    Rg = q.B if use_r else gen.zeros(n, n)
    qrb = ac.QuadraticRB.unchecked(ac.RotaBaxterAlg.unchecked(L, B, 0), S)
    A = ac.ReynoldsLieAlgebra.unchecked(L, R)
    state = {}
    label = f"{alg.name}{tag} R={'B' if use_r else '0'}"
    # what each construction must return, from the generated data alone
    with_r = dataclasses.replace(alg, R=Rg)
    double = (2 * n, ac.Mat([list(row) + [0] * n for row in Rg]
                            + [[0] * n + [-c for c in gen.column(Rg, i)] for i in range(n)]))
    kbar = {(n + i, a): q.B[a][i] for a in range(n) for i in range(n) if q.B[a][i] != 0}
    rk_r = {**kbar, **{(a, b): -c for (b, a), c in kbar.items()}}
    canon_r = {**{(i, n + i): F(1) for i in range(n)}, **{(n + i, i): F(-1) for i in range(n)}}
    solution = lambda out: (out[0].L.dim, out[1].entries)

    def keep(key, fn):
        def run():
            state[key] = out = fn()
            return out
        return run

    table = {
        "r_from_qrb": (lambda: ac.r_from_qrb(qrb), equal(lambda r: r.entries, q.r, "r")),
        "thmfl": (keep("bi", lambda: ac.thmFL_bialgebra(qrb, R)),
                  equal(lambda out: (out.bialg.g is L, out.R, out.bialg.dual.dim), (True, R, n),
                        "bialgebra")),
        "is_reynolds_bialgebra": (lambda: ac.is_reynolds_bialgebra(state["bi"].bialg, R), passes),
        "drinfeld_double": (lambda: ac.drinfeld_double(state["bi"]),
                            equal(lambda out: (out.L.dim, out.R), double, "double")),
        "double_quasitriangular": (lambda: ac.double_quasitriangular(state["bi"]),
                                   equal(lambda out: (out.bialg.g.dim, out.R), double, "double")),
        "induced": (lambda: ac.induced_algebra(A),
                    equal(lambda out: out.L.sc, gen.induced_table(with_r), "induced bracket")),
        "descendent": (lambda: ac.descendent(qrb.rb),
                       equal(lambda out: out.sc, gen.descendent_table(alg, q.B), "descendent")),
        "ns_from_reynolds": (lambda: ac.ns_from_reynolds(A),
                             equal(lambda out: (out.left, out.wedge), gen.ns_tables(with_r),
                                   "NS-Lie tables")),
        "relative_rb": (keep("rel", lambda: ac.RelativeRB(
            ac.ReynoldsRep(A, ac.adjoint_rep(L), R), B)), equal(lambda out: out.K, B, "K")),
        "rk": (lambda: ac.rk_solution(state["rel"]), equal(solution, (2 * n, rk_r), "r_K")),
        "canonical_r": (lambda: ac.canonical_r(ac.prelie_from_relrb(state["rel"])),
                        equal(solution, (2 * n, canon_r), "canonical r")),
    }
    return [Op(f"{step} {label}", alg.name, *table[step]) for step in steps]


CHAIN = ("r_from_qrb", "thmfl", "is_reynolds_bialgebra", "drinfeld_double",
         "double_quasitriangular", "induced", "descendent", "ns_from_reynolds", "relative_rb",
         "rk", "canonical_r")
# (family, conjugates, Reynolds choices, steps); the top rung runs the chain without
# the doubles and the r-matrix builders, which cost it tens of seconds at this commit
BUILD_PLAN = (
    ("sl(2)", 3, (True, False), CHAIN),
    ("gl(2)", 2, (True, False), tuple(s for s in CHAIN if s != "double_quasitriangular")),
    ("gl(3)", 1, (True,), ("r_from_qrb", "thmfl", "is_reynolds_bialgebra", "induced",
                           "descendent", "ns_from_reynolds")),
)


def build_pipeline(seed: int, workdir: str) -> list[Op]:
    rng = random.Random(f"build-pipeline:{seed}")
    sl2 = gen.family("sl(2)")
    chains = [_chain_ops(gen.qrb(sl2), True, " paper", CHAIN)]   # the paper's worked example
    for spec, copies, choices, steps in BUILD_PLAN:
        base = gen.family(spec)
        for c in range(copies):
            alg = gen.change_basis(base, gen.monomial_change(base.dim, rng))
            q = gen.qrb(alg)
            for use_r in choices:
                chains.append(_chain_ops(q, use_r, f"#{c}", steps))
    return interleave(chains, rng)


# -- cli-batch ------------------------------------------------------------------------------

MAINS = {"algcheck": "main_check", "algbuild": "main_build", "algcat": "main_cat"}


@dataclass
class CliResult:
    code: int
    out: bytes
    err: bytes
    wall_s: float
    inproc_ms: int | None = None      # the wall_ms the CLI reports on stderr
    file: bytes | None = None         # the document a build wrote


@dataclass
class CliCommand:
    prog: str
    args: list[str]
    code: int                         # expected exit code, from the construction
    marks: tuple[str, ...] = ()       # substrings the report must contain
    out_file: str | None = None
    seen: list = field(default_factory=list)   # CliResult of every run

    def argv(self, python: str) -> list[str]:
        fn = MAINS[self.prog]
        return [python, "-c", f"import sys; from algcert.cli import {fn}; sys.exit({fn}())",
                *self.args]


def _write(path: str, doc: dict) -> str:
    fileio.write_doc(path, doc)
    return path


def _cli_docs(vdir: str, rng: random.Random) -> tuple[dict[str, str], dict[str, gen.Algebra]]:
    """Write one variant's documents; returns their paths and the algebras behind them."""
    os.makedirs(vdir, exist_ok=True)
    p = lambda name: os.path.join(vdir, name)
    docs, algs = {}, {}
    for spec, key in (("sl(2)", "sl2"), ("gl(2)", "gl2"), ("gl(3)", "gl3")):
        base = gen.family(spec)
        algs[key] = alg = gen.change_basis(base, gen.monomial_change(base.dim, rng))
        L, R, S = lib(alg)
        q = gen.qrb(alg)
        B = ac.Mat(q.B)
        docs[key] = _write(p(f"{key}.json"), fileio.algebra_to_doc(L))
        docs[f"{key}_R"] = _write(p(f"{key}_R.json"), fileio.operator_to_doc(R))
        docs[f"{key}_rb"] = _write(p(f"{key}_rb.json"), {
            **fileio.algebra_to_doc(L), "rb": {"matrix": fileio.matrix_to_json(R), "lambda": "-1"}})
        docs[f"{key}_rb0"] = _write(p(f"{key}_rb0.json"), {
            **fileio.algebra_to_doc(L), "rb": {"matrix": fileio.matrix_to_json(B), "lambda": "0"}})
        docs[f"{key}_qrb"] = _write(p(f"{key}_qrb.json"), fileio.qrb_to_doc(
            ac.QuadraticRB.unchecked(ac.RotaBaxterAlg.unchecked(L, B, 0), S), B))
        docs[f"{key}_r"] = _write(p(f"{key}_r.json"), fileio.tensor_to_doc(
            ac.Tensor2(alg.dim, alg.dim, q.r)))
        two = ac.Mat.identity(alg.dim).scale(2)
        docs[f"{key}_2id"] = _write(p(f"{key}_2id.json"), fileio.operator_to_doc(two))
        docs[f"{key}_rb2id"] = _write(p(f"{key}_rb2id.json"), {
            **fileio.algebra_to_doc(L), "rb": {"matrix": fileio.matrix_to_json(two), "lambda": "-1"}})
    g2 = algs["gl2"]
    broken = gen.direct_sum(g2.sc, g2.dim, gen.BROKEN)
    docs["broken"] = _write(p("broken.json"), fileio.algebra_to_doc(
        ac.LieAlgebra.unchecked(g2.dim + 3, None, broken)))
    with open(p("bad.json"), "w", encoding="utf-8") as fh:
        fh.write('{"dim": 3, "brackets": [')
    docs["bad"] = p("bad.json")
    docs["nobrackets"] = _write(p("nobrackets.json"), {"dim": 3})
    docs["out"] = p("out.json")
    return docs, algs


def _cli_commands(d: dict, algs: dict) -> list[tuple[str, CliCommand]]:
    """(rung, command) pairs: passes (exit 0), certified failures (1), malformed input (2)."""
    where4, n4, _ = gen.scaled_bracket_failure(algs["gl3"].sc, F(4))
    where2, n2, _ = gen.scaled_bracket_failure(algs["gl2"].sc, F(-2))
    k = algs["gl2"].dim
    C = CliCommand
    return [
        ("sl(2)", C("algcat", ["sl2"], 0)),
        ("sl(2)", C("algcat", ["sl2.B"], 0)),
        ("sl(2)", C("algcat", ["sl2.r"], 0)),
        ("block", C("algcat", ["block(1/2,1,3)"], 0)),
        ("sl(2)", C("algcheck", ["jacobi", d["sl2"]], 0)),
        ("gl(2)", C("algcheck", ["jacobi", d["gl2"]], 0)),
        ("gl(3)", C("algcheck", ["jacobi", d["gl3"]], 0)),
        ("gl(2)", C("algcheck", ["reynolds", d["gl2"], "--op", d["gl2_R"]], 0)),
        ("gl(3)", C("algcheck", ["reynolds", d["gl3"], "--op", d["gl3_R"]], 0)),
        ("gl(3)", C("algcheck", ["rb", d["gl3_rb"]], 0)),
        ("gl(2)", C("algcheck", ["quadratic-rb", d["gl2_qrb"]], 0)),
        ("gl(2)", C("algcheck", ["reynolds-on-qrb", d["gl2_qrb"]], 0)),
        ("gl(2)", C("algcheck", ["cybe", d["gl2"], "--tensor", d["gl2_r"]], 0)),
        ("gl(2)", C("algbuild", ["r-from-qrb", d["gl2_qrb"], "-o", d["out"]], 0, out_file=d["out"])),
        ("sl(2)", C("algbuild", ["thmfl", d["sl2_qrb"], "-o", d["out"]], 0, out_file=d["out"])),
        ("gl(3)", C("algbuild", ["descendent", d["gl3_rb0"], "-o", d["out"]], 0, out_file=d["out"])),
        ("gl(3)", C("algbuild", ["induced", d["gl3"], "--op", d["gl3_R"], "-o", d["out"]], 0,
                    out_file=d["out"])),
        ("gl(2)", C("algbuild", ["ns-from-reynolds", d["gl2"], "--op", d["gl2_R"], "-o", d["out"]],
                    0, out_file=d["out"])),
        ("gl(2)", C("algcheck", ["jacobi", d["broken"]], 1,
                    (f"at {(k, k + 1, k + 2)}", "violations=1"))),
        ("gl(3)", C("algcheck", ["reynolds", d["gl3"], "--op", d["gl3_2id"]], 1,
                    (f"at {where4}", f"violations={n4}"))),
        ("gl(2)", C("algcheck", ["rb", d["gl2_rb2id"]], 1,
                    (f"at {where2}", f"violations={n2}"))),
        ("malformed", C("algcheck", ["jacobi", d["bad"]], 2)),
        ("malformed", C("algcheck", ["jacobi", d["nobrackets"]], 2)),
        ("malformed", C("algcheck", ["reynolds", d["gl2"]], 2)),
        ("malformed", C("algcat", ["nosuch(1)"], 2)),
    ]


CLI_VARIANTS = 4
WALL_MS = re.compile(rb"wall_ms=(\d+)")


def cli_batch(seed: int, workdir: str) -> list[Op]:
    rng = random.Random(f"cli-batch:{seed}")
    ops = []
    for v in range(CLI_VARIANTS):
        docs, algs = _cli_docs(os.path.join(workdir, f"cli-{seed}", f"v{v}"), rng)
        for rung, cmd in _cli_commands(docs, algs):
            ops.append(Op(f"{cmd.prog} {cmd.args[0]} v{v}", rung,
                          lambda cmd=cmd: run_cli(cmd), _cli_check(cmd), cmd))
    return interleave([[op] for op in ops], rng)


def run_cli(cmd: CliCommand, trace_to: tuple[str, int] | None = None) -> CliResult:
    """Run the command in a fresh interpreter; with trace_to=(file, op id), under the tracer."""
    if trace_to is None:
        argv = cmd.argv(sys.executable)
    else:
        tracer = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tracecli.py")
        argv = [sys.executable, tracer, trace_to[0], str(trace_to[1]), cmd.prog, *cmd.args]
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    t0 = time.perf_counter()
    p = subprocess.run(argv, env=env, capture_output=True, timeout=120)
    wall = time.perf_counter() - t0
    m = WALL_MS.search(p.stderr)
    res = CliResult(p.returncode, p.stdout, p.stderr, wall, int(m.group(1)) if m else None)
    if cmd.out_file and p.returncode == 0:
        with open(cmd.out_file, "rb") as fh:
            res.file = fh.read()
    cmd.seen.append(res)
    return res


def _cli_check(cmd: CliCommand):
    def check(res: CliResult) -> str | None:
        if res.code != cmd.code:
            return f"exit {res.code}, expected {cmd.code}: {res.err.decode(errors='replace')[-200:]}"
        text = res.out.decode()
        want = {0: "verdict: pass\n", 1: "verdict: fail\n", 2: ""}[cmd.code]
        if cmd.code == 2 and text:
            return "malformed input printed a report"
        if cmd.code != 2 and not text.endswith(want):
            return f"report does not end with {want!r}"
        missing = [m for m in cmd.marks if m not in text]
        return f"report lacks {missing}" if missing else None
    return check


def cli_reference(cmd: CliCommand) -> str | None:
    """Compare every recorded run with the same command run in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = getattr(cli, MAINS[cmd.prog])(list(cmd.args))
    ref = out.getvalue().encode()
    ref_file = None
    if cmd.out_file and code == 0:
        with open(cmd.out_file, "rb") as fh:
            ref_file = fh.read()
    for res in cmd.seen:
        if res.code != code or res.out != ref:
            return "stdout differs from the in-process report"
        if ref_file is not None and res.file != ref_file:
            return "written document differs from the in-process one"
    return None


WORKLOADS = {
    "checks-sparse": (checks_sparse, "gl(4)"),
    "checks-dense": (checks_dense, "gl(4)"),
    "build-pipeline": (build_pipeline, "gl(3)"),
    "cli-batch": (cli_batch, "gl(3)"),
}
