"""Call tracing for the traced benchmark run.

Wrappers are installed from here around the public functions and methods of
each ``algcert`` module; the package itself is not edited.  Every call opens
a span (name, start, end, parent span, operation id) and bumps a count.

Spans of the outer layers (checks, constructions, certificates, file I/O,
catalog) are kept one by one.  The hot kernel and exact-arithmetic calls run
millions of times per pass, so they are rolled up in place per (parent span,
name) with their call count, total and self time; that keeps the trace in
memory bounded while self times stay exact.  A span's self time is its
duration minus the time its child spans cover.  Everything stays in memory
until ``write`` is called once at the end of the run.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from fractions import Fraction
from math import comb

import algcert

# (the package re-exports a function named `catalog`, so modules are imported by path)
MODULES = (algcert,) + tuple(importlib.import_module(f"algcert.{m}") for m in (
    "bialgebra", "catalog", "certificates", "cli", "cybe", "exact", "fileio", "lie",
    "matched", "nslie", "reynolds", "rotabaxter"))
(bialgebra, catalog, certificates, cli, cybe, exact, fileio, lie, matched, nslie, reynolds,
 rotabaxter) = MODULES[1:]


# Named checks: metric key -> (module, function, basis tuples visited from the arguments).
CHECKS = {
    "jacobi": (lie, "jacobi_check", lambda L: comb(L.dim, 3)),
    "reynolds": (reynolds, "is_reynolds", lambda L, R: comb(L.dim, 2)),
    "invariant_form": (lie, "is_invariant_form", lambda L, S: L.dim ** 3),
    "representation": (lie, "is_representation", lambda rep: comb(rep.algebra.dim, 2)),
    "nslie": (nslie, "is_nslie", lambda A: A.dim ** 3),
    "rota_baxter": (rotabaxter, "is_rota_baxter", lambda L, B, lam: comb(L.dim, 2)),
    "cocycle": (bialgebra, "cocycle_check", lambda g, deltas: comb(g.dim, 2)),
    "matched_pair": (matched, "is_matched_pair",
                     lambda g, h, rho, mu: g.dim * comb(h.dim, 2) + h.dim * comb(g.dim, 2)),
    "cybe": (cybe, "is_cybe_solution", lambda g, r: len(r.entries) ** 2),
}

# Composite and auxiliary checks: counted as check calls, timed under check.other.
OTHER_CHECKS = (
    (lie, "is_quadratic"), (reynolds, "compat_certificate"), (reynolds, "is_reynolds_rep"),
    (reynolds, "operator_form_compat"), (reynolds, "is_quadratic_reynolds"),
    (reynolds, "check_ssharp_intertwiner"), (reynolds, "block_window_check"),
    (nslie, "is_ns_rep"), (matched, "is_reynolds_matched_pair"), (matched, "is_manin_triple"),
    (bialgebra, "is_lie_coalgebra"), (bialgebra, "is_reynolds_coalgebra"),
    (bialgebra, "is_lie_bialgebra"), (bialgebra, "is_reynolds_bialgebra"),
    (bialgebra, "coboundary_conditions"), (bialgebra, "reynolds_coboundary_condition"),
    (rotabaxter, "is_quadratic_rb"), (rotabaxter, "is_reynolds_on_qrb"),
    (rotabaxter, "reynolds_descends"), (rotabaxter, "is_factorizable"),
    (rotabaxter, "minus_rstar_on_descendent"), (cybe, "ad_invariance_cert"),
    (cybe, "reynolds_tensor_condition"), (cybe, "is_cybe_solution_reynolds"),
    (cybe, "is_relative_rb"), (cybe, "is_prelie"), (cybe, "is_reynolds_prelie"),
)

BUILDS = {
    "thmfl": (rotabaxter, "thmFL_bialgebra"),
    "r_from_qrb": (rotabaxter, "r_from_qrb"),
    "drinfeld_double": (bialgebra, "drinfeld_double"),
    "double_quasitriangular": (bialgebra, "double_quasitriangular"),
    "induced": (reynolds, "induced_algebra"),
    "descendent": (rotabaxter, "descendent"),
    "ns_from_reynolds": (nslie, "ns_from_reynolds"),
    "rk": (cybe, "rk_solution"),
    "canonical_r": (cybe, "canonical_r"),
}

Mat, Tensor2, Tensor3 = exact.Mat, exact.Tensor2, exact.Tensor3
Certificate = certificates.Certificate

# Kernel-level targets: (owner, attribute, metric).  Owners are classes or modules.
KERNELS = (
    (Mat, "__matmul__", "exact.matmul"),
    (Mat, "apply", "exact.apply"),
    (exact, "mat_apply", "exact.apply"),
    (Mat, "det", "exact.det_inverse"),
    (Mat, "inverse", "exact.det_inverse"),
    (exact, "tensor2_map", "exact.tensor_map"),
    (exact, "tensor3_map", "exact.tensor_map"),
    *((exact, f, "exact.vec") for f in ("vec", "vzero", "vbasis", "vadd", "vsub", "vis_zero")),
    *((Mat, f, "exact.other") for f in (
        "__init__", "__add__", "__sub__", "__neg__", "__eq__", "scale", "transpose", "col",
        "is_zero", "is_symmetric", "submatrix", "zeros", "identity", "from_cols", "block_diag")),
    *((Tensor2, f, "exact.other") for f in (
        "__init__", "__add__", "__sub__", "__neg__", "scale", "items", "is_zero", "is_skew")),
    *((Tensor3, f, "exact.other") for f in ("__init__", "__add__", "items", "is_zero")),
    (exact, "flip", "exact.other"),
    (lie.LieAlgebra, "bracket", "lie.bracket"),
    (lie.LieAlgebra, "bracket_basis", "lie.bracket"),
    (lie, "bracket", "lie.bracket"),
    (lie.LieAlgebra, "ad", "lie.ad"),
    (lie.LieAlgebra, "ad_vec", "lie.ad"),
    (lie.Representation, "rho_vec", "lie.ad"),
    *((nslie.NSLieAlgebra, f, "nslie.product") for f in (
        "left_prod", "wedge_prod", "comm", "left_basis", "wedge_basis")),
    (cybe.PreLieAlgebra, "prod_vec", "cybe.prod_vec"),
    (cybe.PreLieAlgebra, "prod_basis", "cybe.prod_vec"),
)

SPANNED = (
    (cybe, "cybe_bracket", "cybe.cybe_bracket"),
    *((Certificate, f, "certificates") for f in ("passed", "failed", "combine", "render", "to_json")),
    *((certificates, f, "certificates") for f in (
        "residual_from_vec", "residual_from_mat", "residual_from_tensor")),
    (fileio, "read_doc", "fileio.read"),
    *((fileio, f, "fileio.read") for f in dir(fileio) if f.startswith("doc_to_")),
    (fileio, "write_doc", "fileio.write"),
    (fileio, "render_doc", "fileio.write"),
    *((fileio, f, "fileio.write") for f in dir(fileio) if f.endswith("_to_doc")),
    (catalog, "catalog", "catalog.lookup"),
)

CALL_LAYERS = ("exact.matmul", "exact.apply", "exact.det_inverse", "exact.tensor_map", "exact.vec",
               "lie.bracket", "lie.ad", "nslie.product", "cybe.prod_vec")
KERNEL_METRICS = ("lie.bracket", "lie.ad", "nslie.product", "cybe.prod_vec")

# Every per-layer metric the traced run reports: (name, unit).
PER_LAYER = (
    *((f"{m}.{s}", u) for m in CALL_LAYERS for s, u in (("calls", "count"), ("self_s", "s"))),
    ("exact.self_s", "s"),
    ("cybe.cybe_bracket.self_s", "s"),
    *((f"check.{k}.{s}", u) for k in CHECKS
      for s, u in (("calls", "count"), ("self_s", "s"), ("tuples", "count"))),
    ("check.kernel_calls_per_tuple", "ratio"),
    ("verify.check_calls", "count"),
    ("verify.repeat_ratio", "ratio"),
    *((f"build.{b}.{s}", u) for b in BUILDS for s, u in (("calls", "count"), ("self_s", "s"))),
    ("build.gate_share", "ratio"),
    ("certificates.calls", "count"),
    ("certificates.self_s", "s"),
    ("certificates.residual_entries", "count"),
    ("fileio.read.self_s", "s"),
    ("fileio.write.self_s", "s"),
    ("fileio.bytes", "B"),
    ("catalog.lookup.self_s", "s"),
    ("cli.import_ms", "ms"),
    ("cli.startup_ms", "ms"),
    ("cli.inproc_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
)


def content(x):
    """Canonical, hashable content of a check argument, for the repeat count."""
    if isinstance(x, (Fraction, int, str, bool, type(None))):
        return x
    if isinstance(x, (tuple, list)):
        return tuple(content(v) for v in x)
    if isinstance(x, dict):
        return tuple(sorted((content(k), content(v)) for k, v in x.items()))
    slots = getattr(type(x), "__slots__", None)
    if slots:
        return (type(x).__name__,) + tuple(content(getattr(x, s)) for s in slots)
    if hasattr(x, "__dict__"):
        return (type(x).__name__, content(vars(x)))
    return repr(x)


class Tracer:
    """Spans and counts for one process; install() wraps, uninstall() restores."""

    def __init__(self):
        self.op = None                 # operation id stamped on every span
        self.spans = []                # (sid, parent sid, op, name, start, end)
        self.rollup = {}               # (parent sid, metric) -> [calls, total_s, self_s]
        self.stats = {}                # metric -> [calls, self_s]
        self.counts = dict(tuples=0, kernel_in_checks=0, check_calls=0, repeats=0,
                           gate_s=0.0, build_s=0.0, residual_entries=0, bytes=0)
        self._frames = []              # open spans: [child_s]
        self._sids = []                # sids of the open full spans
        self._next = 0
        self._check_depth = 0          # open check spans of any kind
        self._named_depth = 0          # open spans of the CHECKS functions
        self._build_depth = 0
        self._seen = {}                # op -> set of (check, content) already verified
        self._saved = []

    # -- bookkeeping ---------------------------------------------------------

    def _close(self, metric, frame, dur):
        self._frames.pop()
        if self._frames:
            self._frames[-1][0] += dur
        st = self.stats.get(metric)
        if st is None:
            st = self.stats[metric] = [0, 0.0]
        st[0] += 1
        st[1] += dur - frame[0]

    def _kernel(self, fn, metric):
        clock, frames = time.perf_counter, self._frames
        counted = metric in KERNEL_METRICS

        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            if counted and self._named_depth:
                self.counts["kernel_in_checks"] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                self._close(metric, frame, dur)
                key = (self._sids[-1] if self._sids else None, metric)
                r = self.rollup.get(key)
                if r is None:
                    r = self.rollup[key] = [0, 0.0, 0.0]
                r[0] += 1
                r[1] += dur
                r[2] += dur - frame[0]

        return wrapper

    def _spanned(self, fn, name, metric, kind):
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            enter = self._enter_hook(name, kind, args, kwargs)
            sid = self._next
            self._next += 1
            parent = self._sids[-1] if self._sids else None
            frame = [0.0]
            self._frames.append(frame)
            self._sids.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._sids.pop()
                self._close(metric, frame, t1 - t0)
                self.spans.append((sid, parent, self.op, name, t0, t1))
                self._exit_hook(kind, enter, t1 - t0)
            if kind == "write" and args and isinstance(args[0], str) and os.path.exists(args[0]):
                self.counts["bytes"] += os.path.getsize(args[0])
            return out

        return wrapper

    def _enter_hook(self, name, kind, args, kwargs):
        if kind == "check" or kind.startswith("check:"):
            outer = self._check_depth == 0
            self._check_depth += 1
            seen = self._seen.setdefault(self.op, set())
            key = (name, content(args), content(kwargs))
            self.counts["check_calls"] += 1
            if key in seen:
                self.counts["repeats"] += 1
            seen.add(key)
            if kind.startswith("check:"):
                k = kind[6:]
                n = CHECKS[k][2](*args, **kwargs)
                self.counts[f"tuples.{k}"] = self.counts.get(f"tuples.{k}", 0) + n
                if self._named_depth == 0:
                    self.counts["tuples"] += n
                self._named_depth += 1
            return outer
        if kind == "build":
            self._build_depth += 1
            return self._build_depth == 1
        if kind == "failed":
            residual = kwargs.get("residual", args[2] if len(args) > 2 else ())
            self.counts["residual_entries"] += len(residual or ())
        if kind == "read" and args and isinstance(args[0], str) and os.path.exists(args[0]):
            self.counts["bytes"] += os.path.getsize(args[0])
        return None

    def _exit_hook(self, kind, enter, dur):
        if kind == "check" or kind.startswith("check:"):
            self._check_depth -= 1
            if kind.startswith("check:"):
                self._named_depth -= 1
            if enter and self._build_depth:
                self.counts["gate_s"] += dur
        elif kind == "build":
            self._build_depth -= 1
            if enter:
                self.counts["build_s"] += dur

    # -- installing wrappers --------------------------------------------------

    def _replace(self, owner, attr, make):
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(make(raw.__func__))
        else:
            wrapped = make(raw)
        if isinstance(owner, type):
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            return
        # a module function is bound under its name in every module that imported it
        for mod in MODULES:
            for key, val in list(vars(mod).items()):
                if val is raw:
                    self._saved.append((mod, key, raw))
                    setattr(mod, key, wrapped)

    def install(self) -> "Tracer":
        for owner, attr, metric in KERNELS:
            self._replace(owner, attr, lambda fn, m=metric: self._kernel(fn, m))
        for owner, attr, metric in SPANNED:
            kind = {"fileio.read": "read", "fileio.write": "write"}.get(metric, "span")
            if attr == "failed":
                kind = "failed"
            name = f"{getattr(owner, '__name__', owner)}.{attr}"
            self._replace(owner, attr,
                          lambda fn, n=name, m=metric, k=kind: self._spanned(fn, n, m, k))
        for key, (mod, fn_name, _) in CHECKS.items():
            self._replace(mod, fn_name, lambda fn, n=fn_name, k=key:
                          self._spanned(fn, n, f"check.{k}", f"check:{k}"))
        for mod, fn_name in OTHER_CHECKS:
            self._replace(mod, fn_name, lambda fn, n=fn_name:
                          self._spanned(fn, n, "check.other", "check"))
        for key, (mod, fn_name) in BUILDS.items():
            self._replace(mod, fn_name, lambda fn, n=fn_name, k=key:
                          self._spanned(fn, n, f"build.{k}", "build"))
        return self

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    # -- results -------------------------------------------------------------------

    def raw(self) -> dict:
        """Summable totals, so traces of several processes can be merged."""
        return {"stats": {k: list(v) for k, v in self.stats.items()}, "counts": dict(self.counts)}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op, name, t0, t1 in self.spans:
                fh.write(json.dumps({"sid": sid, "parent": parent, "op": op, "name": name,
                                     "start": t0, "end": t1}) + "\n")
            for (parent, metric), (calls, total, self_s) in self.rollup.items():
                fh.write(json.dumps({"rollup": metric, "parent": parent, "calls": calls,
                                     "total_s": total, "self_s": self_s}) + "\n")


def merge(raws) -> dict:
    out = {"stats": {}, "counts": {}}
    for raw in raws:
        for k, (calls, self_s) in raw["stats"].items():
            st = out["stats"].setdefault(k, [0, 0.0])
            st[0] += calls
            st[1] += self_s
        for k, v in raw["counts"].items():
            out["counts"][k] = out["counts"].get(k, 0) + v
    return out


def per_layer(raw: dict, extra: dict) -> dict:
    """The PER_LAYER metrics from merged totals; `extra` supplies cli.* and trace.*."""
    stats, counts = raw["stats"], raw["counts"]
    calls = lambda m: stats.get(m, [0, 0.0])[0]
    self_s = lambda m: stats.get(m, [0, 0.0])[1]
    out = {}
    for m in CALL_LAYERS:
        out[f"{m}.calls"] = calls(m)
        out[f"{m}.self_s"] = self_s(m)
    out["exact.self_s"] = sum(v[1] for k, v in stats.items() if k.startswith("exact."))
    out["cybe.cybe_bracket.self_s"] = self_s("cybe.cybe_bracket")
    for k in CHECKS:
        out[f"check.{k}.calls"] = calls(f"check.{k}")
        out[f"check.{k}.self_s"] = self_s(f"check.{k}")
        out[f"check.{k}.tuples"] = counts.get(f"tuples.{k}", 0)
    total_tuples = counts.get("tuples", 0)
    out["check.kernel_calls_per_tuple"] = (
        counts.get("kernel_in_checks", 0) / total_tuples if total_tuples else 0.0)
    out["verify.check_calls"] = counts.get("check_calls", 0)
    out["verify.repeat_ratio"] = (
        counts.get("repeats", 0) / counts["check_calls"] if counts.get("check_calls") else 0.0)
    for b in BUILDS:
        out[f"build.{b}.calls"] = calls(f"build.{b}")
        out[f"build.{b}.self_s"] = self_s(f"build.{b}")
    out["build.gate_share"] = (
        counts.get("gate_s", 0.0) / counts["build_s"] if counts.get("build_s") else 0.0)
    out["certificates.calls"] = calls("certificates")
    out["certificates.self_s"] = self_s("certificates")
    out["certificates.residual_entries"] = counts.get("residual_entries", 0)
    out["fileio.read.self_s"] = self_s("fileio.read")
    out["fileio.write.self_s"] = self_s("fileio.write")
    out["fileio.bytes"] = counts.get("bytes", 0)
    out["catalog.lookup.self_s"] = self_s("catalog.lookup")
    out.update(extra)
    return out
