"""Check verdicts: pass, or the first violating basis tuple with its exact residual.

Every exhaustive stage is decided by `scan`, which walks the stage's basis
tuples in lexicographic order, so the reported violation is
deterministically the lexicographically first one; `violations` counts all
of them.  A single-shot stage (one matrix or tensor identity) is a `scan`
of one case.  Composite checks carry their stages in `parts` and fail if any
stage fails.
"""

from __future__ import annotations

from contextvars import ContextVar
from fractions import Fraction
from functools import wraps
from typing import Any, Iterable, NamedTuple

from .exact import Mat, rat_str

# a residual is a sparse exact vector/tensor: ((index tuple, value), ...)
Residual = tuple[tuple[tuple[int, ...], Fraction], ...]


class Certificate(NamedTuple):
    check: str
    ok: bool
    where: tuple[int, ...] | None = None
    residual: Residual | None = None
    violations: int = 0
    skipped: int = 0
    note: str = ""
    parts: tuple["Certificate", ...] = ()

    @classmethod
    def passed(cls, check: str, note: str = "", skipped: int = 0) -> "Certificate":
        return cls(check=check, ok=True, note=note, skipped=skipped)

    @classmethod
    def failed(
        cls,
        check: str,
        where: tuple[int, ...],
        residual: Residual,
        violations: int,
        note: str = "",
        skipped: int = 0,
    ) -> "Certificate":
        return cls(
            check=check,
            ok=False,
            where=where,
            residual=residual,
            violations=violations,
            skipped=skipped,
            note=note,
        )

    @classmethod
    def combine(cls, check: str, parts: list["Certificate"], note: str = "") -> "Certificate":
        """Bundle stage certificates; the verdict and pinpoint come from the first failure."""
        first_bad = next((p for p in parts if not p.ok), None)
        return cls(
            check=check,
            ok=first_bad is None,
            where=None if first_bad is None else first_bad.where,
            residual=None if first_bad is None else first_bad.residual,
            violations=sum(p.violations for p in parts),
            skipped=sum(p.skipped for p in parts),
            note=note if first_bad is None else (note + (" " if note else "") + f"failed: {first_bad.check}").strip(),
            parts=tuple(parts),
        )

    def first_failure(self) -> "Certificate | None":
        if self.ok:
            return None
        for p in self.parts:
            bad = p.first_failure()
            if bad is not None:
                return bad
        return self if self.where is not None or not self.parts else None

    def to_json(self) -> dict:
        out: dict = {"check": self.check, "ok": self.ok}
        if self.where is not None:
            out["where"] = list(self.where)
        if self.residual is not None:
            out["residual"] = [
                {"at": list(idx), "c": rat_str(c)} for idx, c in self.residual
            ]
        if self.violations:
            out["violations"] = self.violations
        if self.skipped:
            out["skipped"] = self.skipped
        if self.note:
            out["note"] = self.note
        if self.parts:
            out["parts"] = [p.to_json() for p in self.parts]
        return out

    def render(self, indent: int = 0) -> str:
        pad = "  " * indent
        tag = "PASS" if self.ok else "FAIL"
        line = f"{pad}[{tag}] {self.check}"
        if not self.ok and self.where is not None:
            line += f" at {self.where}"
            if self.residual:
                body = ", ".join(f"{list(idx)}={rat_str(c)}" for idx, c in self.residual)
                line += f" residual {{{body}}}"
            line += f" violations={self.violations}"
        if self.skipped:
            line += f" skipped={self.skipped}"
        if self.note:
            line += f"  ({self.note})"
        lines = [line]
        for p in self.parts:
            lines.append(p.render(indent + 1))
        return "\n".join(lines)


class CheckFailed(Exception):
    """Raised by constructive operations when a required hypothesis check fails."""

    def __init__(self, certificate: Certificate):
        super().__init__(certificate.render())
        self.certificate = certificate


def require(cert: Certificate) -> Certificate:
    """Enforce a hypothesis: `cert` if it passes, otherwise raise `CheckFailed`."""
    if not cert.ok:
        raise CheckFailed(cert)
    return cert


# the certificates of the outermost `verified` call running in this context, or None
_scope: ContextVar[dict | None] = ContextVar("algcert_verified_scope", default=None)


def verified(fn):
    """Verify once per call: inside one public call, a check runs once per argument tuple.

    The outermost decorated call opens a scope, dropped when it returns or
    raises.  Inside it a call whose result is a `Certificate` is memoized on
    the function and the identity of each argument; the entry holds the
    arguments, so no id is reused while the scope is open.  Identity keys are
    sound because certificates are immutable and no library function mutates
    its arguments; a construction's result is not a certificate and is never
    memoized.
    """
    @wraps(fn)
    def call(*args, **kwargs):
        memo = _scope.get()
        if memo is None:
            token = _scope.set({})
            try:
                return fn(*args, **kwargs)
            finally:
                _scope.reset(token)
        key = (fn, *map(id, args))
        if kwargs:
            key += (*map(id, kwargs.values()), *kwargs)
        hit = memo.get(key)
        if hit is not None:
            return hit[0]
        out = fn(*args, **kwargs)
        if type(out) is Certificate:
            memo[key] = (out, args, kwargs)
        return out
    return call


class Checked:
    """Base of the structures whose constructor verifies their axioms.

    ``X(...)`` runs the structure's check and raises `CheckFailed` on a
    violation; ``X.unchecked(...)``, i.e. ``check=False``, skips it so that
    checks can report on invalid data.  Equality is field-wise over the
    subclass's `__slots__`, between instances of the same class.
    """

    __slots__ = ()

    @classmethod
    def unchecked(cls, *args, **kwargs):
        return cls(*args, **kwargs, check=False)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and all(
            getattr(self, s) == getattr(other, s) for s in self.__slots__)


def residual_from_vec(v) -> Residual:
    """The nonzero entries of a coordinate tuple or of a sparse vector {index: coefficient}."""
    items = sorted(v.items()) if isinstance(v, dict) else enumerate(v)
    return tuple(((k,), c) for k, c in items if c != 0)


def residual_from_mat(m) -> Residual:
    return tuple(
        ((i, j), c)
        for i, row in enumerate(m.entries)
        for j, c in enumerate(row)
        if c != 0
    )


def residual_from_tensor(t) -> Residual:
    return tuple((idx, c) for idx, c in t.items())


def scan(check: str, cases: Iterable[tuple[tuple[int, ...], Any]], scale: int = 1) -> Certificate:
    """Decide one exhaustive stage from its per-tuple residuals.

    `cases` yields ``(where, value)`` for every basis tuple of the stage, in
    the stage's lexicographic order.  `value` is the identity's residual at
    that tuple: an exact scalar, a sparse vector ``{index: coefficient}``, a
    dict ``{index tuple: coefficient}`` (a sparse matrix or tensor; either
    dict may hold cancelled zeros), a coordinate vector, a `Mat` or a sparse
    tensor; `None` marks a tuple the identity cannot be evaluated on, which
    is counted in `skipped`.  The stage passes when every value is zero.
    Otherwise `where` is the first tuple with a nonzero value, `residual` is
    that value in sparse form with its nonzero entries in index order (a
    scalar becomes the single entry ``(where, value)``, a sparse vector entry
    ``k`` the index ``(k,)``), and `violations` counts the nonzero values.

    A check that works on integers scaled by a common denominator passes
    `scale`: values are then `scale` times the residual, and only the first
    violation is divided by it when it becomes the `Residual`.
    """
    first = None
    count = skipped = 0
    for where, value in cases:
        if value is None:
            skipped += 1
        elif any(value.values()) if type(value) is dict else not _is_zero(value):
            count += 1
            if first is None:
                first = (where, value)
    if first is None:
        return Certificate.passed(check, skipped=skipped)
    where, value = first
    residual = tuple((idx, Fraction(c, scale)) for idx, c in _entries(where, value))
    return Certificate.failed(check, where, residual, count, skipped=skipped)


def _is_zero(value) -> bool:
    if isinstance(value, dict):
        return not any(value.values())
    if isinstance(value, tuple):
        return not any(value)
    if isinstance(value, (int, Fraction)):
        return value == 0
    return value.is_zero()


def _entries(where: tuple[int, ...], value) -> Residual:
    if isinstance(value, (int, Fraction)):
        return ((where, value),)
    if isinstance(value, dict):
        if isinstance(next(iter(value)), int):
            return residual_from_vec(value)
        return tuple(sorted((idx, c) for idx, c in value.items() if c))
    if isinstance(value, tuple):
        return residual_from_vec(value)
    if isinstance(value, Mat):
        return residual_from_mat(value)
    return residual_from_tensor(value)
