"""Write a transcript of the CLI registry sweep and of the build pipeline, for byte identity.

Usage: ``python3 tests/transcript.py OUT``.  Run it in two checkouts and ``diff`` the two
OUT files: every line that differs is a run whose report, exit code or written document
changed.  pytest does not collect this file.

OUT gets one JSON line per in-process run:

* every check and build kind of `test_shell._every_kind` on its passing document and on
  each of its `test_shell._mutants`: plain, ``--json``, ``--first-only``, with a 2×2 and
  with the paper's ``--op``, and, for the tensor kinds, with a 5×5 ``--tensor`` in place of
  their own; a build writes with ``-o``;
* ``algcat`` on every catalog name and on padded, degenerate and malformed names: plain,
  ``--json`` and with ``-o``.

Each line holds the argv, with the temporary directory replaced by ``<TMP>``, the exit
code, stdout, stderr without its ``wall_ms=`` line and the document the run wrote, if any.
Then, for build-pipeline seeds 1–3 of ``perfbench/workloads.py``, one line per operation:
its name, the outcome of its check (None when it is the expected one) and a dump of what
it returned.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE, os.path.join(ROOT, "perfbench")]

from algcert.catalog import names, sl2, sl2_b, sl2_s  # noqa: E402
from algcert.certificates import Certificate, Checked  # noqa: E402
from algcert.cli import main_build, main_cat, main_check  # noqa: E402
from algcert import fileio as fio  # noqa: E402
from algcert.exact import Mat, Table, Tensor2, Tensor3  # noqa: E402
from algcert.lie import BilinForm  # noqa: E402
from algcert.reynolds import ReynoldsLieAlgebra  # noqa: E402
from algcert.rotabaxter import QuadraticRB, RotaBaxterAlg, thmFL_bialgebra  # noqa: E402
from test_shell import _FAMILY_INSTANCES, _every_kind, _mutants, write  # noqa: E402

CAT_NAMES = [" sl2 ", "abelian(0)", "abelian(2)", "block(1/2,1,3)", "block(2,1,2)",
             "block(1/2,-3,3,skip)", "trivial_matched(sl2,sl2)", "trivial_matched(sl2, sl2)",
             "trivial_matched(sl2,abelian(2))", "trivial_matched(abelian(2),sl2)",
             "trivial_matched(abelian(1), sl2.km_dual)", "trivial_matched(abelian(3),abelian(3))",
             "nosuch(1)", "block(1/0,1,2)", "trivial_matched(sl2.B,sl2)"]


class Sweep:
    def __init__(self, tmp: str, out):
        self.tmp, self.out = tmp, out

    def run(self, main, prog: str, argv: list[str], written: str | None = None) -> None:
        if written is not None and os.path.exists(written):
            os.remove(written)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        doc = None
        if written is not None and os.path.exists(written):
            with open(written, encoding="utf-8") as f:
                doc = f.read()
        err = "".join(line for line in stderr.getvalue().splitlines(keepends=True)
                      if not line.startswith("wall_ms="))
        self.line({"argv": [prog, *argv], "code": code, "stdout": stdout.getvalue(),
                   "stderr": err, "document": doc})

    def line(self, record: dict) -> None:
        self.out.write(json.dumps(record, ensure_ascii=False).replace(self.tmp, "<TMP>") + "\n")


def registry(sweep: Sweep, tmp: Path) -> None:
    b_op = sl2_b()
    L = sl2()
    sl2_reynolds, sl2_qrb = ReynoldsLieAlgebra(L, b_op), QuadraticRB(RotaBaxterAlg(L, b_op, 0),
                                                                     sl2_s())
    thmfl = thmFL_bialgebra(sl2_qrb, b_op)
    docs, checks, builds = _every_kind(tmp, L, b_op, sl2_reynolds, sl2_qrb, thmfl)
    paths = {name: [write(tmp, f"{name}.json", doc)]
             + [write(tmp, f"{name}-{k}.json", m) for k, m in enumerate(_mutants(doc))]
             for name, doc in docs.items()}
    op2 = ["--op", write(tmp, "op2.json", fio.operator_to_doc(Mat.identity(2)))]
    op_b = ["--op", write(tmp, "opB.json", fio.operator_to_doc(b_op))]
    t5 = ["--tensor", write(tmp, "t5.json", fio.tensor_to_doc(
        Tensor2(5, 5, {(3, 4): 1, (4, 3): -1})))]
    out = str(tmp / "out.json")
    for main, prog, table, tail in ((main_check, "algcheck", checks, []),
                                    (main_build, "algbuild", builds, ["-o", out])):
        for kind, (name, flags) in table.items():
            extras = [flags, flags + ["--json"], flags + ["--first-only"], flags + op2,
                      flags + op_b] + ([t5] if "--tensor" in flags else [])
            for path in paths[name]:
                for extra in extras:
                    sweep.run(main, prog, [kind, path, *extra, *tail], out if tail else None)
    listed = [_FAMILY_INSTANCES.get(name, name) for name in names()]
    for name in listed + CAT_NAMES:
        for extra in ([], ["--json"], ["-o", out]):
            sweep.run(main_cat, "algcat", [name, *extra], out)


def dump(x):
    """What a construction returned, as JSON: structures slot by slot, exact data by its
    integer entries and denominator."""
    if isinstance(x, Certificate):
        return x.to_json()
    if isinstance(x, Checked):
        return {type(x).__name__: {s: dump(getattr(x, s)) for s in type(x).__slots__}}
    if isinstance(x, (tuple, list)):
        return [dump(y) for y in x]
    if isinstance(x, Mat):
        return {"shape": [x.rows, x.cols], "den": x.den,
                "cols": [sorted(col.items()) for col in x.icols]}
    if isinstance(x, Table):
        return {"dim": x.dim, "skew": x.skew, "den": x.den,
                "entries": sorted([list(key), sorted(comp.items())]
                                  for key, comp in x.ientries.items())}
    if isinstance(x, (Tensor2, Tensor3)):
        return {"dims": list(x.dims), "den": x.den,
                "entries": sorted([list(key), c] for key, c in x.ientries.items())}
    if isinstance(x, BilinForm):
        return {"gram": dump(x.gram)}
    return repr(x)


def pipeline(sweep: Sweep, tmp: str) -> None:
    import workloads
    for seed in (1, 2, 3):
        for op in workloads.build_pipeline(seed, tmp):
            got = op.run()
            sweep.line({"pipeline": seed, "op": op.name, "check": op.check(got),
                        "dump": dump(got)})


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp, open(argv[0], "w", encoding="utf-8") as out:
        sweep = Sweep(tmp, out)
        registry(sweep, Path(tmp))
        pipeline(sweep, tmp)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
