"""Check verdicts: pass, or the first violating basis tuple with its exact residual.

Every exhaustive stage is decided by `scan`, which walks the stage's basis
tuples in lexicographic order, so the reported violation is
deterministically the lexicographically first one; `violations` counts all
of them.  A stage whose identity has an exact symmetry walks one tuple per
orbit and reports the same `where` and `violations`.  A single-shot stage
(one matrix or tensor identity) is a `scan` of one case.  Composite checks
carry their stages in `parts` and fail if any stage fails.

Each structure class derives from `Checked` and declares its gate, the one
check of its axioms, in its class statement; `x.gate()` returns that check's
certificate on x, and its constructor requires it.
"""

from __future__ import annotations

from contextvars import ContextVar
from fractions import Fraction
from functools import wraps
from typing import Any, Iterable, NamedTuple

from .exact import Mat, Table, Tensor2, Tensor3, rat_str

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
    def decide(cls, check: str, ok: bool, note: str) -> "Certificate":
        """A stage decided by one condition: passed, or failed with `note`."""
        return cls(check, ok, note="" if ok else note)

    @classmethod
    def failed(cls, check: str, where: tuple[int, ...], residual: Residual, violations: int,
               note: str = "", skipped: int = 0) -> "Certificate":
        return cls(check, False, where, residual, violations, skipped, note)

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
# see `Checked._held`; `lie` adds `BilinForm`, which is frozen
_LEAVES = {tuple, Mat, Table, Tensor2, Tensor3, int, Fraction}


def verified(fn):
    """Verify once per call: inside one public call, a check runs once per argument tuple.

    The outermost decorated call opens a scope, seeded with the entries its `Checked`
    arguments carry, and drops it when it returns or raises.  Inside it a call whose result
    is a `Certificate` is memoized on the function and the identity of each argument: the
    objects the check decides, never a stage name (a composite renames a certificate).  The
    entry, or its carrier, holds the arguments, so no id is reused while it lives.  That is
    sound because certificates are immutable, carried entries keyed on frozen objects and no
    library function mutates its arguments; a construction's result is never memoized.
    """
    @wraps(fn)
    def call(*args, **kwargs):
        memo = _scope.get()
        if memo is None:
            token = _scope.set(memo := {})
            try:
                for a in (*args, *kwargs.values()):      # `carried` is None while `a` is built
                    if type(type(a)) is _Carrying and a.carried:
                        memo.update(a.carried)
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


def entail(check, args: tuple, stage: str, given) -> None:
    """Record `Certificate.passed(stage)` as the result of the `verified` check ``check(*args)``
    in the open scope, if `given` (a theorem's hypotheses) is nonempty and all passed, so that
    a later check of what they entail (``given=`` of a constructor) is a memo hit.  It writes
    the entry `verified` would, under the undecorated function; it runs nothing."""
    memo = _scope.get()
    if given and memo is not None and all(c.ok for c in given):
        while hasattr(check, "__wrapped__"):
            check = check.__wrapped__
        memo.setdefault((check, *map(id, args)), (Certificate.passed(stage), args, {}))


class _Carrying(type):
    def __call__(cls, *args, **kwargs):
        return cls._build(_checked_init, args, kwargs)

    def unchecked(cls, *args, **kwargs):
        return cls._build(cls.__init__, args, kwargs)

    def _build(cls, init, args, kwargs):     # ``init(obj, *args, **kwargs)`` returns `carried`
        obj, carried = cls.__new__(cls), None
        object.__setattr__(obj, "carried", None)     # None while it is built: not frozen
        try:
            carried = init(obj, *args, **kwargs)
        finally:     # frozen even when `init` raised: a half-built object carries nothing
            object.__setattr__(obj, "carried", carried or ())
        return obj


@verified
def _checked_init(obj, *args, **kwargs) -> dict:
    """Run obj's `__init__`, then require its gate, in a scope: what obj carries is exactly the
    scope's entries keyed on obj and its frozen parts, each as ``(certificate,)``.  obj holds
    what they are keyed on, so no entry keeps its arguments, and obj holds no cycle."""
    obj.__init__(*args, **kwargs)
    require(obj.gate())
    ids = set()
    obj._held(ids)
    return {k: v[:1] for k, v in _scope.get().items() if ids.issuperset(k[1:])}


class Checked(metaclass=_Carrying):
    """Base of the structures whose constructor verifies their axioms.

    A subclass declares its gate once, in its class statement:
    ``class X(Checked, gate=lambda x: check(x.a, x.b))``; ``x.gate()`` returns the certificate
    of that check on x's slots, whether x was built checked or not.  ``X(...)`` runs
    ``__init__``, then requires the gate, raising `CheckFailed` on a violation;
    ``X.unchecked(...)``, the one way to skip it, lets checks report on invalid data.
    Equality is field-wise over the subclass's `__slots__`, between instances of the same
    class.  An instance is frozen once built: assigning a slot raises.  A checked one carries
    the ``(certificate,)`` of each entry its check left keyed on it and its parts only, which
    seeds each outermost `verified` call it is handed: sound, as those cannot change.
    """

    __slots__ = ("carried",)

    def __init_subclass__(cls, gate=None, **kwargs):
        if gate is None:
            raise TypeError(f"{cls.__name__} declares no gate= in its class statement")
        super().__init_subclass__(**kwargs)
        cls.gate = gate

    def __setattr__(self, name, value):
        if self.carried is not None:
            raise AttributeError(f"{type(self).__name__} is frozen; build a new one")
        object.__setattr__(self, name, value)

    def _held(self, ids: set) -> bool:
        """Add the ids of self and of its slots' values to `ids` if each value is of a `_LEAVES`
        type (read-only or frozen) or `Checked` with the same property; whether it did."""
        values = [getattr(self, s) for s in type(self).__slots__]
        for y in values:
            if not (type(y) in _LEAVES or isinstance(y, Checked) and (id(y) in ids or y._held(ids))):
                return False
        ids.update(map(id, (self, *values)))
        return True

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and all(
            getattr(self, s) == getattr(other, s) for s in self.__slots__)


def residual_from_vec(v) -> Residual:
    """The nonzero entries of a coordinate tuple or of a sparse vector {index: coefficient}."""
    items = sorted(v.items()) if isinstance(v, dict) else enumerate(v)
    return tuple(((k,), c) for k, c in items if c != 0)


def residual_from_mat(m) -> Residual:
    return tuple(sorted(((i, j), Fraction(c, m.den))
                        for j, col in enumerate(m.icols) for i, c in col.items()))


def residual_from_tensor(t) -> Residual:
    return tuple((idx, c) for idx, c in t.items())


def scan(check: str, cases: Iterable[tuple[tuple[int, ...], Any]], scale: int = 1,
         decode=None, orbit=None) -> Certificate:
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
    violation is divided by it when it becomes the `Residual`.  A kernel whose
    values are packed vectors (``int``, see `exact.pack`) passes `decode`,
    which turns the first violation back into its sparse vector or dict.

    An identity with an exact symmetry (skew or symmetric in some of its
    arguments) has one value up to sign on each orbit of basis tuples, and 0
    on a tuple that the symmetry maps to minus itself.  Its check passes
    `orbit` and yields only the lexicographically first tuple of each orbit,
    in lexicographic order; a nonzero value then counts ``orbit(where)``, the
    size of its orbit.  So `violations` still counts ordered tuples, and
    `where` is the first violating one, as if every tuple had been visited.
    """
    first = None
    count = skipped = 0
    for where, value in cases:
        if value is None:
            skipped += 1
        elif (value != 0 if type(value) is int else
              any(value.values()) if type(value) is dict else not _is_zero(value)):
            count += 1 if orbit is None else orbit(where)
            if first is None:
                first = (where, value)
    if first is None:
        return Certificate.passed(check, skipped=skipped)
    where, value = first
    if decode is not None:
        value = decode(value)
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
