"""Linear differential systems as trajectory sets, and decisions about them.

A system is identified with its *behavior*: the set of smooth trajectories w
satisfying R(d/dt) w = 0 for a polynomial matrix R. This module provides the
four standard representations (kernel, latent-variable, state-space and
input-output form), conversions between them by exact latent-variable
elimination, and the central decision procedure `behavior_included`, which
decides containment of one behavior in another and produces a polynomial
multiplier certificate that third parties can re-check by a single matrix
multiplication. Minimization, elimination and inclusion all run on one
one-sided reduction, `polymatrix.row_echelon`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Sequence

from .polyalg import Poly, S, Scalar, _frac
from .polymatrix import (
    DimensionError,
    PolyMatrix,
    RatMatrix,
    SingularMatrixError,
    determinant,
    hstack,
    invert_ratmatrix,
    is_proper,
    rank_generic,
    row_echelon,
    # No decision here uses it; perfbench/test_instances.py::
    # test_tracer_restores_every_original expects to find it in this module.
    smith_form,  # noqa: F401
    vstack,
)

Signals = tuple[tuple[str, int], ...]


class SignalSpaceError(ValueError):
    """Two representations do not share the same signal space."""


def _signals(labels: Iterable) -> Signals:
    out = []
    for item in labels:
        name, dim = item
        if not isinstance(name, str) or not isinstance(dim, int) or dim < 1:
            raise ValueError(f"signal block must be (name, positive dim), got {item!r}")
        out.append((name, dim))
    return tuple(out)


def signal_dim(labels: Signals) -> int:
    return sum(dim for _, dim in labels)


@dataclass(frozen=True, slots=True)
class KernelRep:
    """Behavior {w : R(d/dt) w = 0} over named signal blocks.

    A zero-row R denotes the full signal space; R = I denotes the behavior
    containing only the zero trajectory. When ``minimal`` is set, R is
    checked to have full generic row rank.
    """

    R: PolyMatrix
    signal_labels: Signals
    minimal: bool = False

    def __post_init__(self):
        object.__setattr__(self, "signal_labels", _signals(self.signal_labels))
        if self.R.cols != self.dim:
            raise DimensionError(
                f"matrix has {self.R.cols} columns but signals span {self.dim} dimensions"
            )
        if self.minimal and rank_generic(self.R) != self.R.rows:
            raise ValueError("representation flagged minimal but rows are dependent")

    @property
    def dim(self) -> int:
        return signal_dim(self.signal_labels)

    def with_signal_labels(self, labels: Iterable) -> "KernelRep":
        """Same matrix over a relabeled signal space of equal dimension."""
        return KernelRep(self.R, labels, minimal=self.minimal)

    def __repr__(self) -> str:
        sig = ", ".join(f"{n}:{d}" for n, d in self.signal_labels)
        return f"KernelRep({self.R} over {sig})"


@dataclass(frozen=True, slots=True)
class LatentRep:
    """Behavior {w : exists l with manifest(d/dt) w = latent_map(d/dt) l}."""

    manifest: PolyMatrix
    latent_map: PolyMatrix
    signal_labels: Signals

    def __post_init__(self):
        object.__setattr__(self, "signal_labels", _signals(self.signal_labels))
        if self.manifest.cols != signal_dim(self.signal_labels):
            raise DimensionError("manifest matrix does not match the signal space")
        if self.manifest.rows != self.latent_map.rows:
            raise DimensionError("manifest and latent matrices must have equal row counts")

    @property
    def latent_dim(self) -> int:
        return self.latent_map.cols

    def __repr__(self) -> str:
        return f"LatentRep({self.manifest} = {self.latent_map} * latent)"


def _constant_matrix(M: PolyMatrix, what: str) -> PolyMatrix:
    for row in M.entries:
        for e in row:
            if not e.is_constant:
                raise ValueError(f"{what} must have constant entries, found {e}")
    return M


@dataclass(frozen=True, slots=True)
class StateSpace:
    """First-order system dx/dt = A x + B u, y = C x + D u with rational
    constant matrices (stored as degree-0 polynomial matrices)."""

    A: PolyMatrix
    B: PolyMatrix
    C: PolyMatrix
    D: PolyMatrix

    def __post_init__(self):
        A, B, C, D = self.A, self.B, self.C, self.D
        if not A.is_square:
            raise DimensionError("state matrix must be square")
        n = A.rows
        if B.rows != n:
            raise DimensionError("input matrix row count must match the state dimension")
        if C.cols != n:
            raise DimensionError("output matrix column count must match the state dimension")
        if D.rows != C.rows:
            raise DimensionError("feedthrough rows must match the output dimension")
        if D.cols != B.cols:
            raise DimensionError("feedthrough columns must match the input dimension")
        for name, M in (("A", A), ("B", B), ("C", C), ("D", D)):
            _constant_matrix(M, f"state-space matrix {name}")

    @classmethod
    def from_lists(cls, A, B, C, D) -> "StateSpace":
        def grid(rows, cols_hint=None):
            return PolyMatrix([[Poly([_frac(x)]) for x in row] for row in rows], cols=cols_hint)

        return cls(grid(A), grid(B), grid(C), grid(D))

    @property
    def n(self) -> int:
        return self.A.rows

    @property
    def m(self) -> int:
        return self.B.cols

    @property
    def p(self) -> int:
        return self.C.rows

    def __repr__(self) -> str:
        return f"StateSpace(A={self.A}, B={self.B}, C={self.C}, D={self.D})"


@dataclass(frozen=True, slots=True)
class IoSystem:
    """System P(d/dt) y = Q(d/dt) u.

    The pair is in input-output form when P is square and invertible and
    P^-1 Q is proper; `check_io_form` decides this.
    """

    P: PolyMatrix
    Q: PolyMatrix

    def __post_init__(self):
        if not self.P.is_square:
            raise DimensionError("output-side matrix must be square")
        if self.Q.rows != self.P.rows:
            raise DimensionError("P and Q must have equal row counts")

    @property
    def m(self) -> int:
        return self.Q.cols

    @property
    def p(self) -> int:
        return self.P.rows

    def kernel(self) -> KernelRep:
        """Kernel representation [-Q  P] over the stacked (u, y) signals."""
        labels = []
        if self.m:
            labels.append(("u", self.m))
        if self.p:
            labels.append(("y", self.p))
        return KernelRep(hstack(-self.Q, self.P), labels)

    def __repr__(self) -> str:
        return f"IoSystem(P={self.P}, Q={self.Q})"


@dataclass(frozen=True)
class InclusionWitness:
    """Certificate that ker source(d/dt) is contained in ker target(d/dt).

    The defining identity ``multiplier * source == target`` is verified on
    construction, so holding a witness object is proof of the inclusion.
    """

    multiplier: PolyMatrix
    source: PolyMatrix
    target: PolyMatrix
    label: str = ""

    def __post_init__(self):
        if self.multiplier * self.source != self.target:
            raise ValueError("invalid witness: multiplier * source != target")

    def verify(self) -> bool:
        return self.multiplier * self.source == self.target


@dataclass(frozen=True)
class Verdict:
    """Outcome of a decision, with certificates on success and an explanation
    of the first failing condition otherwise."""

    holds: bool
    witnesses: tuple[InclusionWitness, ...] = ()
    diagnostics: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.holds

    @classmethod
    def combine(cls, *sides: tuple[str, str, "Verdict"]) -> "Verdict":
        """Conjunction of (label, diagnostic prefix, verdict) sides.

        Holds iff every side holds, and then carries each side's witnesses
        relabeled with its label. Otherwise it carries no witness, and every
        diagnostic of a failing side, behind that side's prefix.
        """
        holds = all(v.holds for _, _, v in sides)
        witnesses = (
            tuple(replace(w, label=label) for label, _, v in sides for w in v.witnesses)
            if holds
            else ()
        )
        diagnostics = tuple(
            prefix + d for _, prefix, v in sides if not v.holds for d in v.diagnostics
        )
        return cls(holds, witnesses, diagnostics)

    def witness(self, label: str) -> InclusionWitness:
        for w in self.witnesses:
            if w.label == label:
                return w
        raise KeyError(label)


def minimal_kernel(k: KernelRep) -> KernelRep:
    """Equivalent representation whose matrix has full generic row rank.

    `row_echelon` reduces R by unimodular row operations, which keep its row
    module and hence its kernel; the nonzero echelon rows, one per pivot,
    span that module and are independent. Each starts with a monic pivot.
    Minimal representations are unique only up to a unimodular left factor.
    """
    if k.minimal:
        return k
    a = [list(row) for row in k.R.entries]
    rank = len(row_echelon(a, k.R.cols))
    return KernelRep(PolyMatrix(a[:rank], cols=k.R.cols), k.signal_labels, minimal=True)


def eliminate_latent(l: LatentRep) -> KernelRep:
    """Project a latent-variable representation onto its manifest signals.

    Reducing [E | manifest] to echelon form on the columns of the latent map
    E gives W E = [H; 0] and W manifest = [M1; M2] for a unimodular W. Every
    w with M2 w = 0 has a latent l with H l = M1 w, because H has full row
    rank and so is surjective on smooth functions; the rows M2 below the rank
    therefore describe the projected behavior exactly.
    """
    E, M = l.latent_map, l.manifest
    a = [list(e) + list(m) for e, m in zip(E.entries, M.entries)]
    rank = len(row_echelon(a, E.cols))
    kept = PolyMatrix([row[E.cols:] for row in a[rank:]], cols=M.cols)
    return minimal_kernel(KernelRep(kept, l.signal_labels))


def statespace_to_kernel(s: StateSpace) -> KernelRep:
    """Kernel representation of the external (u, y) behavior, with the state
    treated as a latent signal and eliminated."""
    n, m, p = s.n, s.m, s.p
    manifest = vstack(
        hstack(s.B, PolyMatrix.zeros(n, p)),
        hstack(-s.D, PolyMatrix.identity(p)),
    )
    latent = vstack(PolyMatrix.identity(n) * S - s.A, s.C)
    labels = []
    if m:
        labels.append(("u", m))
    if p:
        labels.append(("y", p))
    return eliminate_latent(LatentRep(manifest, latent, labels))


def statespace_to_io(s: StateSpace) -> IoSystem:
    """Input-output form of a state-space system.

    Splits the minimal external kernel representation [R_u  R_y] as
    P = R_y, Q = -R_u and normalizes each row so the leading entry of its
    P block is monic. For well-formed state-space data the partition always
    yields a square invertible P with proper P^-1 Q; this is asserted.
    """
    k = statespace_to_kernel(s)
    m, p = s.m, s.p
    if k.R.rows != p:
        raise RuntimeError("state elimination produced an unexpected equation count")
    rows = []
    for row in k.R.entries:
        out_block = row[m:]
        for e in out_block:
            if not e.is_zero:
                if e.lc != 1:
                    row = tuple(x / e.lc for x in row)
                break
        rows.append(row)
    R = PolyMatrix(rows, cols=k.R.cols)
    P = R.take_cols(range(m, m + p))
    Q = -R.take_cols(range(m))
    sys = IoSystem(P, Q)
    if not check_io_form(sys):
        raise RuntimeError("state elimination did not yield input-output form")
    return sys


def check_io_form(sys: IoSystem) -> bool:
    """True iff P is invertible and the transfer matrix P^-1 Q is proper.

    Decided inside Q[s]: `is_proper` compares the degrees of the Cramer
    numerators of P^-1 Q with deg det P, all from one fraction-free
    elimination of [P | Q], so no rational function is formed.
    """
    try:
        return is_proper(sys.P, sys.Q)
    except SingularMatrixError:
        return False


def transfer_matrix(s: StateSpace) -> RatMatrix:
    """C (sI - A)^-1 B + D as an exact rational matrix."""
    resolvent = invert_ratmatrix(PolyMatrix.identity(s.n) * S - s.A)
    return (RatMatrix.from_polymatrix(s.C) * resolvent * s.B) + RatMatrix.from_polymatrix(s.D)


def behavior_included(r1: KernelRep, r2: KernelRep) -> Verdict:
    """Decide ker r1 contained-in ker r2, with a multiplier certificate.

    Inclusion holds iff r2.R factors as M * r1.R for a polynomial M.
    Reducing [r1.R | I] to echelon form gives H = W * r1.R for a unimodular
    W: the r nonzero rows of H span the row module of r1.R and are
    independent, so a rank-deficient r1 is fine. Each row of r2.R is then
    solved against H by forward substitution along the pivot columns: at
    each pivot the multiplier entry is the quotient by the monic pivot,
    which must be exact, and after the last pivot nothing may remain. On
    success the witness X * W_top is assembled against the *original* r1.R,
    so the certificate can be re-checked without re-running any part of this
    procedure. On failure the diagnostic names the first offending entry.
    """
    if r1.signal_labels != r2.signal_labels:
        raise SignalSpaceError(
            f"signal spaces differ: {r1.signal_labels} vs {r2.signal_labels}"
        )
    n, m = r1.R.cols, r1.R.rows
    a = [list(row) + list(e) for row, e in zip(r1.R.entries, PolyMatrix.identity(m).entries)]
    pivots = row_echelon(a, n)
    X = []
    for i, target in enumerate(r2.R.entries):
        rest = list(target)
        x = []
        for k, c in enumerate(pivots):
            quot, rem = divmod(rest[c], a[k][c])
            if not rem.is_zero:
                return Verdict(
                    holds=False,
                    diagnostics=(
                        f"multiplier is not polynomial: row {i} requires dividing {rest[c]} "
                        f"by the pivot {a[k][c]} in column {c}, remainder {rem}",
                    ),
                )
            if not quot.is_zero:
                rest = [e - quot * h for e, h in zip(rest, a[k][:n])]
            x.append(quot)
        for j, e in enumerate(rest):
            if not e.is_zero:
                return Verdict(
                    holds=False,
                    diagnostics=(
                        "no polynomial multiplier exists: after the last pivot "
                        f"row {i} still carries {e} in column {j}",
                    ),
                )
        X.append(x)
    W_top = PolyMatrix([row[n:] for row in a[: len(pivots)]], cols=m)
    witness = InclusionWitness(
        multiplier=PolyMatrix(X, cols=len(pivots)) * W_top,
        source=r1.R,
        target=r2.R,
        label="inclusion",
    )
    return Verdict(holds=True, witnesses=(witness,))


def behavior_equal(r1: KernelRep, r2: KernelRep) -> Verdict:
    """Mutual inclusion; carries one witness per direction."""
    return Verdict.combine(
        ("forward", "forward inclusion fails: ", behavior_included(r1, r2)),
        ("backward", "backward inclusion fails: ", behavior_included(r2, r1)),
    )


def interconnect(env: KernelRep, sys: IoSystem) -> KernelRep:
    """Output behavior of sys driven by inputs satisfying env.

    Stacks P y = Q u on top of 0 = E u, treats u as a latent signal and
    eliminates it, returning a minimal kernel representation over the output
    signals.
    """
    if env.dim != sys.m:
        raise DimensionError(
            f"environment spans {env.dim} signals but the system has {sys.m} inputs"
        )
    p = sys.p
    manifest = vstack(sys.P, PolyMatrix.zeros(env.R.rows, p))
    latent = vstack(sys.Q, env.R)
    return eliminate_latent(LatentRep(manifest, latent, (("y", p),)))


def is_autonomous(r: KernelRep) -> bool:
    """True iff the behavior leaves no signal free: its minimal representation
    is square with nonzero determinant."""
    mk = minimal_kernel(r)
    return mk.R.is_square and not determinant(mk.R).is_zero


def exp_membership(r: KernelRep, lam: Scalar, w0: Sequence[Scalar]) -> bool:
    """Test whether the exponential trajectory w0 * e^(lam t) lies in the
    behavior, i.e. whether R(lam) w0 = 0 exactly."""
    if len(w0) != r.dim:
        raise DimensionError(f"amplitude has {len(w0)} entries for {r.dim} signals")
    lam = _frac(lam)
    vec = [_frac(x) for x in w0]
    for row in r.R.entries:
        acc = Fraction(0)
        for e, x in zip(row, vec):
            if x:
                acc += e(lam) * x
        if acc != 0:
            return False
    return True
