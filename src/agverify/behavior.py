"""Linear differential systems as trajectory sets, and decisions about them.

A system is identified with its *behavior*: the set of smooth trajectories w
satisfying R(d/dt) w = 0 for a polynomial matrix R. This module provides the
four standard representations (kernel, latent-variable, state-space and
input-output form), conversions between them by exact latent-variable
elimination, and the central decision procedure `behavior_included`, which
decides containment of one behavior in another and produces a polynomial
multiplier certificate that third parties can re-check by a single matrix
multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    smith_form,
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


class KernelRep:
    """Behavior {w : R(d/dt) w = 0} over named signal blocks.

    A zero-row R denotes the full signal space; R = I denotes the behavior
    containing only the zero trajectory. When ``minimal`` is set, R is
    checked to have full generic row rank.
    """

    __slots__ = ("R", "signal_labels", "minimal")

    R: PolyMatrix
    signal_labels: Signals
    minimal: bool

    def __init__(self, R: PolyMatrix, signal_labels: Iterable, minimal: bool = False):
        labels = _signals(signal_labels)
        if R.cols != signal_dim(labels):
            raise DimensionError(
                f"matrix has {R.cols} columns but signals span {signal_dim(labels)} dimensions"
            )
        if minimal and rank_generic(R) != R.rows:
            raise ValueError("representation flagged minimal but rows are dependent")
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "signal_labels", labels)
        object.__setattr__(self, "minimal", minimal)

    def __setattr__(self, name, value):
        raise AttributeError("KernelRep is immutable")

    @property
    def dim(self) -> int:
        return signal_dim(self.signal_labels)

    def with_signal_labels(self, labels: Iterable) -> "KernelRep":
        """Same matrix over a relabeled signal space of equal dimension."""
        return KernelRep(self.R, labels, minimal=self.minimal)

    def __eq__(self, other) -> bool:
        if not isinstance(other, KernelRep):
            return NotImplemented
        return (
            self.R == other.R
            and self.signal_labels == other.signal_labels
            and self.minimal == other.minimal
        )

    def __hash__(self) -> int:
        return hash(("KernelRep", self.R, self.signal_labels, self.minimal))

    def __repr__(self) -> str:
        sig = ", ".join(f"{n}:{d}" for n, d in self.signal_labels)
        return f"KernelRep({self.R} over {sig})"


class LatentRep:
    """Behavior {w : exists l with manifest(d/dt) w = latent_map(d/dt) l}."""

    __slots__ = ("manifest", "latent_map", "signal_labels")

    manifest: PolyMatrix
    latent_map: PolyMatrix
    signal_labels: Signals

    def __init__(self, manifest: PolyMatrix, latent_map: PolyMatrix, signal_labels: Iterable):
        labels = _signals(signal_labels)
        if manifest.cols != signal_dim(labels):
            raise DimensionError("manifest matrix does not match the signal space")
        if manifest.rows != latent_map.rows:
            raise DimensionError("manifest and latent matrices must have equal row counts")
        object.__setattr__(self, "manifest", manifest)
        object.__setattr__(self, "latent_map", latent_map)
        object.__setattr__(self, "signal_labels", labels)

    def __setattr__(self, name, value):
        raise AttributeError("LatentRep is immutable")

    @property
    def latent_dim(self) -> int:
        return self.latent_map.cols

    def __eq__(self, other) -> bool:
        if not isinstance(other, LatentRep):
            return NotImplemented
        return (self.manifest, self.latent_map, self.signal_labels) == (
            other.manifest,
            other.latent_map,
            other.signal_labels,
        )

    def __hash__(self) -> int:
        return hash(("LatentRep", self.manifest, self.latent_map, self.signal_labels))

    def __repr__(self) -> str:
        return f"LatentRep({self.manifest} = {self.latent_map} * latent)"


def _constant_matrix(M: PolyMatrix, what: str) -> PolyMatrix:
    for row in M.entries:
        for e in row:
            if not e.is_constant:
                raise ValueError(f"{what} must have constant entries, found {e}")
    return M


class StateSpace:
    """First-order system dx/dt = A x + B u, y = C x + D u with rational
    constant matrices (stored as degree-0 polynomial matrices)."""

    __slots__ = ("A", "B", "C", "D")

    A: PolyMatrix
    B: PolyMatrix
    C: PolyMatrix
    D: PolyMatrix

    def __init__(self, A: PolyMatrix, B: PolyMatrix, C: PolyMatrix, D: PolyMatrix):
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
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "D", D)

    def __setattr__(self, name, value):
        raise AttributeError("StateSpace is immutable")

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

    def __eq__(self, other) -> bool:
        if not isinstance(other, StateSpace):
            return NotImplemented
        return (self.A, self.B, self.C, self.D) == (other.A, other.B, other.C, other.D)

    def __hash__(self) -> int:
        return hash(("StateSpace", self.A, self.B, self.C, self.D))

    def __repr__(self) -> str:
        return f"StateSpace(A={self.A}, B={self.B}, C={self.C}, D={self.D})"


class IoSystem:
    """System P(d/dt) y = Q(d/dt) u.

    The pair is in input-output form when P is square and invertible and
    P^-1 Q is proper; `check_io_form` decides this.
    """

    __slots__ = ("P", "Q")

    P: PolyMatrix
    Q: PolyMatrix

    def __init__(self, P: PolyMatrix, Q: PolyMatrix):
        if not P.is_square:
            raise DimensionError("output-side matrix must be square")
        if Q.rows != P.rows:
            raise DimensionError("P and Q must have equal row counts")
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "Q", Q)

    def __setattr__(self, name, value):
        raise AttributeError("IoSystem is immutable")

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

    def __eq__(self, other) -> bool:
        if not isinstance(other, IoSystem):
            return NotImplemented
        return (self.P, self.Q) == (other.P, other.Q)

    def __hash__(self) -> int:
        return hash(("IoSystem", self.P, self.Q))

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

    def witness(self, label: str) -> InclusionWitness:
        for w in self.witnesses:
            if w.label == label:
                return w
        raise KeyError(label)


def minimal_kernel(k: KernelRep) -> KernelRep:
    """Equivalent representation whose matrix has full generic row rank.

    Computed from the Smith form: with R = U [D 0; 0 0] V, the nonzero rows
    of [D 0; 0 0] V cut out the same kernel, one row per invariant factor.
    Rows are rescaled so their first nonzero entry is monic; this is only a
    cosmetic normalization, minimal representations remain unique just up to
    a unimodular left factor.
    """
    if k.minimal:
        return k
    sd = smith_form(k.R)
    rows = []
    for i in range(sd.rank):
        d = sd.invariant_factors[i]
        row = [d * e for e in sd.V.entries[i]]
        for e in row:
            if not e.is_zero:
                if e.lc != 1:
                    row = [x / e.lc for x in row]
                break
        rows.append(row)
    return KernelRep(PolyMatrix(rows, cols=k.R.cols), k.signal_labels, minimal=True)


def eliminate_latent(l: LatentRep) -> KernelRep:
    """Project a latent-variable representation onto its manifest signals.

    With W the inverse of the row transform of the Smith form of the latent
    map E, the rows of W*E below the rank are zero, so the matching rows of
    W*manifest constrain w independently of the latent signal; since a full
    generic row rank differential operator is surjective on smooth functions,
    those rows describe the projected behavior exactly.
    """
    sd = smith_form(l.latent_map)
    WR = sd.U_inv * l.manifest
    kept = WR.take_rows(range(sd.rank, WR.rows))
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

    Inclusion holds iff r2.R factors as M * r1.R for a polynomial M. The
    test runs on the Smith form of r1.R (which simultaneously minimizes r1,
    so a rank-deficient r1 is fine): writing r1.R = U [D 0; 0 0] V and
    X = r2.R * V^-1, inclusion holds iff
      1. the columns of X beyond the rank are zero, and
      2. column j of X is divisible by the j-th invariant factor.
    On success the witness is assembled against the *original* r1.R, so the
    certificate can be re-checked without re-running any part of this
    procedure. On failure the diagnostics name the violated condition and
    the first offending entry.
    """
    if r1.signal_labels != r2.signal_labels:
        raise SignalSpaceError(
            f"signal spaces differ: {r1.signal_labels} vs {r2.signal_labels}"
        )
    sd = smith_form(r1.R)
    r = sd.rank
    X = r2.R * sd.V_inv
    q = X.rows

    for j in range(r, X.cols):
        for i in range(q):
            if not X.entries[i][j].is_zero:
                return Verdict(
                    holds=False,
                    diagnostics=(
                        "kernel-complement block is nonzero: candidate multiplier would "
                        f"have to annihilate column {j} but row {i} carries {X.entries[i][j]}",
                    ),
                )

    quotient_cols: list[list[Poly]] = []
    for j in range(r):
        d = sd.invariant_factors[j]
        col = []
        for i in range(q):
            quot, rem = divmod(X.entries[i][j], d)
            if not rem.is_zero:
                return Verdict(
                    holds=False,
                    diagnostics=(
                        f"multiplier is not polynomial: entry ({i}, {j}) requires dividing "
                        f"{X.entries[i][j]} by the invariant factor {d}, remainder {rem}",
                    ),
                )
            col.append(quot)
        quotient_cols.append(col)

    M_min = PolyMatrix([[quotient_cols[j][i] for j in range(r)] for i in range(q)], cols=r)
    U_inv_top = sd.U_inv.take_rows(range(r))
    witness = InclusionWitness(
        multiplier=M_min * U_inv_top, source=r1.R, target=r2.R, label="inclusion"
    )
    return Verdict(holds=True, witnesses=(witness,))


def behavior_equal(r1: KernelRep, r2: KernelRep) -> Verdict:
    """Mutual inclusion; carries one witness per direction."""
    fwd = behavior_included(r1, r2)
    bwd = behavior_included(r2, r1)
    witnesses = []
    diagnostics = []
    if fwd.holds:
        w = fwd.witnesses[0]
        witnesses.append(InclusionWitness(w.multiplier, w.source, w.target, label="forward"))
    else:
        diagnostics.extend(f"forward inclusion fails: {d}" for d in fwd.diagnostics)
    if bwd.holds:
        w = bwd.witnesses[0]
        witnesses.append(InclusionWitness(w.multiplier, w.source, w.target, label="backward"))
    else:
        diagnostics.extend(f"backward inclusion fails: {d}" for d in bwd.diagnostics)
    return Verdict(
        holds=fwd.holds and bwd.holds,
        witnesses=tuple(witnesses) if fwd.holds and bwd.holds else (),
        diagnostics=tuple(diagnostics),
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
