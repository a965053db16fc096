"""Self-test of the input generators.

Usage, from the root of an algcert checkout:
    python3 perfbench/selftest.py

For the smallest rungs of every family, in the natural basis and after a
monomial and a dense rational change of basis, the library's checks must give
the verdicts the construction promises.  For every rung up to dim 9 the
Jacobi identity and the Reynolds identity are also evaluated independently
with sympy, also for the operator B of the quadratic Rota-Baxter family.  The
generated sl(2) must be the paper's worked example, and BENCHMARK.json must
list exactly the workloads and metrics the benchmark prints.  Exit code 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import sys

sys.path.insert(0, os.path.abspath("src"))

import sympy  # noqa: E402

import algcert as ac  # noqa: E402
from algcert.catalog import sl2_b, sl2_r, sl2_s  # noqa: E402

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = ("sl(2)", "gl(2)", "heisenberg(1)", "heisenberg(2)", "b(2)", "b(3)")
UP_TO_9 = SMALL + ("sl(3)", "gl(3)", "heisenberg(3)", "heisenberg(4)")
LIMITS = {**workloads.DENSE_LIMITS, "nslie": 6}


def sympy_identities(alg: gen.Algebra) -> list[str]:
    """Jacobi (as ad[e_i,e_j] = [ad e_i, ad e_j]) and the Reynolds identity, in sympy."""
    n = alg.dim
    q = lambda c: sympy.Rational(c.numerator, c.denominator)
    coeff = {}
    for (i, j), comp in alg.sc.items():
        for k, c in comp.items():
            coeff[(i, j, k)] = q(c)
            coeff[(j, i, k)] = -q(c)
    ad = [sympy.Matrix(n, n, lambda k, j, i=i: coeff.get((i, j, k), 0)) for i in range(n)]
    R = sympy.Matrix(n, n, lambda i, j: q(alg.R[i][j]))

    def br(x, y):
        return sum((x[i] * ad[i] for i in range(n) if x[i] != 0), sympy.zeros(n, n)) * y

    problems = []
    for i in range(n):
        for j in range(i + 1, n):
            bij = [coeff.get((i, j, k), 0) for k in range(n)]
            ad_b = sum((bij[k] * ad[k] for k in range(n) if bij[k] != 0), sympy.zeros(n, n))
            if ad_b != ad[i] * ad[j] - ad[j] * ad[i]:
                problems.append(f"sympy: Jacobi fails for {alg.name} at ({i},{j})")
            x, y = R[:, i], R[:, j]
            ei, ej = sympy.eye(n)[:, i], sympy.eye(n)[:, j]
            res = br(x, y) - R * (br(x, ej) + br(ei, y) - br(x, y))
            if res != sympy.zeros(n, 1):
                problems.append(f"sympy: Reynolds fails for {alg.name} at ({i},{j})")
    return problems


def run_ops(ops) -> list[str]:
    problems = []
    for op in ops:
        try:
            problem = op.check(op.run())
        except Exception as exc:
            problem = f"raised {exc!r}"
        if problem:
            problems.append(f"{op.name}: {problem}")
    return problems


def main() -> int:
    rng = random.Random("selftest")
    problems = []
    for spec in UP_TO_9:
        base = gen.family(spec)
        variants = [("natural", base),
                    ("monomial", gen.change_basis(base, gen.monomial_change(base.dim, rng, (1, 2)))),
                    ("dense", gen.change_basis(base, gen.dense_change(base.dim, rng)))]
        for tag, alg in variants:
            problems += sympy_identities(alg)
            if spec in SMALL:
                problems += run_ops(workloads._check_ops(alg, f" {tag}", LIMITS))
        print(f"{spec}: checked {len(variants)} bases", flush=True)

    # the paper's worked example is the natural basis of the generated sl(2)
    sl2 = gen.family("sl(2)")
    q = gen.qrb(sl2)
    L, _, S = workloads.lib(sl2)
    same = (L.sc == ac.catalog("sl2").payload.sc and ac.Mat(q.B) == sl2_b()
            and S == sl2_s() and ac.Tensor2(3, 3, q.r) == sl2_r())
    if not same:
        problems.append("generated sl(2) differs from the paper's example")

    # the quadratic Rota-Baxter family certifies, with R = B and R = 0
    for spec in ("sl(2)", "gl(2)", "gl(3)"):
        base = gen.family(spec)
        for alg in (base, gen.change_basis(base, gen.dense_change(base.dim, rng))):
            q = gen.qrb(alg)
            problems += sympy_identities(dataclasses.replace(alg, R=q.B))
            L, _, S = workloads.lib(alg)
            B = ac.Mat(q.B)
            qrb = ac.QuadraticRB.unchecked(ac.RotaBaxterAlg.unchecked(L, B, 0), S)
            for R in (B, ac.Mat.zeros(alg.dim, alg.dim)):
                for cert in (ac.is_quadratic_rb(qrb.rb, qrb.S), ac.is_reynolds_on_qrb(qrb, R)):
                    if not cert.ok:
                        problems.append(f"{spec}: {cert.render().splitlines()[0]}")
        print(f"{spec}: quadratic Rota-Baxter family checked", flush=True)

    # BENCHMARK.json lists exactly the metrics the runs print
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    if ([(m["name"], m["unit"]) for m in spec["end_to_end"]] != list(run.END_TO_END)
            or [(m["name"], m["unit"]) for m in spec["per_layer"]] != list(tracing.PER_LAYER)
            or [w["name"] for w in spec["workloads"]] != list(run.NAMES)):
        problems.append("BENCHMARK.json does not match the metrics and workloads of run.py")

    for p in problems:
        print("PROBLEM", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problems")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
