"""Linear differential systems as trajectory sets, and decisions about them.

A system is identified with its *behavior*: the set of smooth trajectories w
satisfying R(d/dt) w = 0 for a polynomial matrix R. This module provides the
four standard representations (kernel, latent-variable, state-space and
input-output form), conversions between them by exact latent-variable
elimination, and the central decision procedure `behavior_included`, which
decides containment of one behavior in another and produces a polynomial
multiplier certificate that third parties can re-check by a single matrix
multiplication. Minimization is one `polymatrix.row_echelon` scan, so its
result is minimal by construction, and so is latent elimination when the
latent map E leaves two rows or more. When E has at most one row more than
its rank, as in the interconnection of a system with as many inputs as
outputs, and Q of full rank, under one assumption equation, the one row
that elimination can keep comes from Cramer's rule instead: one
fraction-free pass on E^T and one polynomial gcd give it, equal to the row
the scan would keep. A state-space system goes to input-output form without
elimination, from its observability indices (Polderman & Willems,
*Introduction to Mathematical Systems Theory*, 1998, ch. 6; Kailath, *Linear
Systems*, 1980, sec. 6.4): one integer scan of relation rows, each a
derivative of one output as a state part and an input part, reduces the
state parts by Bareiss's fraction-free recurrence, whose divisions are exact
as in `polymatrix._packed_pass`, and the first dependence of each output
sums the input parts of the rows it involves into one row of P y = Q u, with
one row per output and P row reduced. A `StateSpace` keeps the checked form,
so each object is converted at most once. Inclusion solves the multiplier by
Cramer's rule in one fraction-free (Bareiss) pass
(`polymatrix._left_quotient`), dropping the source rows that are polynomial
combinations of its pivot rows, and reduces the source with `row_echelon`
only when some dependent row is not. Every decision stays in Q[s]:
`check_io_form` reads properness of P^-1 Q off the row degrees of P and Q
when P is row reduced, and otherwise off the Cramer numerators of one
fraction-free pass on [P | Q], and no transfer matrix or other rational
function is ever formed.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import reduce
from itertools import zip_longest
from math import lcm
from operator import mul

from .polyalg import Poly, _gcd, _poly
from .polymatrix import (
    DimensionError,
    PolyMatrix,
    SelfCheckError,
    _fraction_free,
    _left_quotient,
    hstack,
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


def _same_signals(a: KernelRep, b: KernelRep) -> None:
    if a.signal_labels != b.signal_labels:
        raise SignalSpaceError(f"signal spaces differ: {a.signal_labels} vs {b.signal_labels}")


def signal_dim(labels: Signals) -> int:
    return sum(dim for _, dim in labels)


def _io_labels(m: int, p: int) -> Signals:
    """Blocks u:m and y:p of an input-output signal space, each if nonempty."""
    return tuple(block for block in (("u", m), ("y", p)) if block[1])


@dataclass(frozen=True, slots=True)
class KernelRep:
    """Behavior {w : R(d/dt) w = 0} over named signal blocks.

    A zero-row R denotes the full signal space; R = I denotes the behavior
    containing only the zero trajectory. `minimal_kernel` and
    `eliminate_latent` return an R of full generic row rank.
    """

    R: PolyMatrix
    signal_labels: Signals

    def __post_init__(self):
        object.__setattr__(self, "signal_labels", _signals(self.signal_labels))
        if self.R.cols != self.dim:
            raise DimensionError(
                f"matrix has {self.R.cols} columns but signals span {self.dim} dimensions"
            )

    @property
    def dim(self) -> int:
        return signal_dim(self.signal_labels)

    def with_signal_labels(self, labels: Iterable) -> "KernelRep":
        """Same matrix over a relabeled signal space of equal dimension."""
        return KernelRep(self.R, labels)


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


def _constant_matrix(M: PolyMatrix, what: str) -> PolyMatrix:
    for row in M.entries:
        for e in row:
            if not e.is_constant:
                raise ValueError(f"{what} must have constant entries, found {e}")
    return M


@dataclass(frozen=True, slots=True)
class StateSpace:
    """First-order system dx/dt = A x + B u, y = C x + D u with rational
    constant matrices (stored as degree-0 polynomial matrices).

    ``_io_form`` holds the system's input-output form once `statespace_to_io`
    has computed and checked it; it takes no part in equality, hashing or
    the repr.
    """

    A: PolyMatrix
    B: PolyMatrix
    C: PolyMatrix
    D: PolyMatrix
    _io_form: IoSystem | None = field(default=None, init=False, repr=False, compare=False)

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
        """From nested lists of constants, or `PolyMatrix` values, which are
        kept as they are. B is n x m, C is p x n and D is p x m, for n the
        rows of A, m the width of B or else of D, and p the rows of C or else
        of D. A matrix given without rows takes the empty shape this implies:
        p x 0 for C when n = 0, n x 0 for B and p x 0 for D when m = 0, and no
        rows otherwise."""
        A, B, C, D = (M if isinstance(M, PolyMatrix) else PolyMatrix(M) for M in (A, B, C, D))
        n = A.rows
        m = B.cols if B.rows else D.cols
        p = C.rows or D.rows

        def grid(M, rows, cols):
            return M if M.rows else PolyMatrix([] if cols else [()] * rows, cols=cols)

        return cls(grid(A, n, n), grid(B, n, m), grid(C, p, n), grid(D, p, m))

    @property
    def n(self) -> int:
        return self.A.rows

    @property
    def m(self) -> int:
        return self.B.cols

    @property
    def p(self) -> int:
        return self.C.rows


@dataclass(frozen=True, slots=True)
class IoSystem:
    """System P(d/dt) y = Q(d/dt) u.

    P must be square, with as many rows as Q. The pair is in input-output
    form when P is invertible and P^-1 Q is proper, which `check_io_form`
    decides.
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
        return KernelRep(hstack(-self.Q, self.P), _io_labels(self.m, self.p))


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
            raise SelfCheckError("invalid witness: multiplier * source != target")


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
    def combine(cls, *sides: tuple[str, "Verdict"]) -> "Verdict":
        """Conjunction of (diagnostic prefix, verdict) sides.

        Holds iff every side holds, and then carries every side's witnesses as
        they are, labels included. Otherwise it carries no witness, and every
        diagnostic of a failing side, behind that side's prefix.
        """
        holds = all(v.holds for _, v in sides)
        witnesses = tuple(w for _, v in sides for w in v.witnesses) if holds else ()
        diagnostics = tuple(prefix + d for prefix, v in sides if not v.holds for d in v.diagnostics)
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
    span that module and are independent; reduced again, they come back
    unchanged. Minimal representations are unique only up to a unimodular
    left factor.
    """
    a = [list(row) for row in k.R.entries]
    rank = len(row_echelon(a, k.R.cols))
    return KernelRep(PolyMatrix(a[:rank], cols=k.R.cols), k.signal_labels)


def eliminate_latent(l: LatentRep) -> KernelRep:
    """Project a latent-variable representation onto its manifest signals.

    Let E (q x m) be the latent map and M the manifest. The v with v E = 0
    form the left kernel of E, a free module of rank kappa = q - rank E, and
    its generators times M represent the projected behavior. As
    kappa >= q - m, the route is chosen from the shapes when q - m >= 2.

    When kappa <= 1 the result comes from one fraction-free (Bareiss) pass
    on E^T, the one that serves inclusion and properness, by Cramer's rule.
    The pass pivots on the first independent rows J of E. kappa = 0 leaves
    no row. For kappa = 1, let c be the one row of E without a pivot: the
    skipped column holds d X_i in its top rows, for d the last pivot and X_i
    the coefficient of row c on row J_i, so v with v_J_i = d X_i and
    v_c = -d has v E = 0. Divided by the gcd of its entries (`_gcd`), v
    generates the left kernel, and the result is the row v M, monic in its
    first nonzero entry, or no row when v M = 0. That gcd is most often 1,
    which `_gcd` proves from one integer gcd of the entries' values at a
    power of two, without a remainder sequence.

    When kappa >= 2, one `row_echelon` scan of [E | M], on E's columns and
    then on M's, gives W E = [H; 0; 0] and W M = [M1; M2; 0] for a
    unimodular W, with H and M2 of full row rank. Every w with M2 w = 0 has
    a latent l with H l = M1 w, as H is surjective on smooth functions, so
    M2 is a minimal representation of the projected behavior.

    The routes agree when kappa <= 1: the scan then keeps at most the row
    w M of one row w of W with w E = 0. A row of a unimodular matrix has
    entries of gcd 1, so w is a constant multiple of the generator v, and
    the scan also writes its pivot rows monic in their first nonzero entry.
    """
    E, M, q = l.latent_map, l.manifest, l.latent_map.rows
    if q - E.cols < 2:
        pivots, _, d, right, _ = _fraction_free(list(zip(*E.entries)), q)
        if len(pivots) == q:
            return KernelRep(PolyMatrix([], cols=M.cols), l.signal_labels)
        if len(pivots) == q - 1:
            v = [right[pivots.index(j)][0] if j in pivots else -d for j in range(q)]
            g = _poly(reduce(_gcd, [e.num for e in v if e]), 1)
            if not g.is_constant:
                v = [e // g for e in v]
            row = (PolyMatrix([v], cols=q) * M).entries[0]
            lead = next((e for e in row if e), None)
            kept = [[e / lead.lc for e in row]] if lead else []
            return KernelRep(PolyMatrix(kept, cols=M.cols), l.signal_labels)
    a = [list(e) + list(m) for e, m in zip(E.entries, M.entries)]
    pivots = row_echelon(a, E.cols + M.cols)
    rank = sum(c < E.cols for c in pivots)
    kept = PolyMatrix([row[E.cols:] for row in a[rank:len(pivots)]], cols=M.cols)
    return KernelRep(kept, l.signal_labels)


def _integer_rows(M: PolyMatrix) -> tuple[list[list[int]], int]:
    """A constant matrix as integer rows over the lcm of its denominators."""
    den = lcm(*(e.den for row in M.entries for e in row))
    return [[e.num[0] * (den // e.den) if e.num else 0 for e in row] for row in M.entries], den


def statespace_to_io(s: StateSpace) -> IoSystem:
    """Input-output form of a state-space system, from its observability
    indices (Polderman & Willems, *Introduction to Mathematical Systems
    Theory*, 1998, ch. 6; Kailath, *Linear Systems*, 1980, sec. 6.4).

    Candidate (i, k) stands for the k-th derivative of output i. The
    candidates are scanned by k, then by i. Output i stops at its first
    candidate whose state part C_i A^k depends on those of the candidates
    selected before it, at k = nu_i: C_i A^nu_i = sum alpha_jl C_j A^l over
    selected (j, l), so l <= nu_i, and l = nu_i only for j < i. Row i of P
    has a monic diagonal entry of degree nu_i, entries of degree below nu_i
    after it and at most nu_i before it, so its leading row-coefficient
    matrix is unit lower-triangular: P is row reduced, deg det P = sum nu_i
    is the rank of the observability matrix, and P^-1 Q is proper, as Q's
    row i has degree at most nu_i.

    The scan runs on integers. Write A, B, C and D as integer matrices A',
    B', C' and D' over common denominators dA, dB, dC and dD. Candidate
    (i, k) is then the relation row

        sigma_k y_i^(k) = dB dD x . state + sum_t q_t . u^(t),
        sigma_k = dB dC dD dA^k,

    with an integer state part x and input part q. For k = 0, x = C'_i and
    q = dB dC D'_i. One more derivative replaces x by x A', and q by
    (dA dD x B', dA q): the old input part moves up one order, behind a new
    t = 0 block. The factor dB dD is the same in every relation row, so it
    stays out of the scan, and x is the row C_i A^k times dC dA^k. The row x
    is followed by its tag, zeros and then a 1 for this candidate, and
    reduced against an integer echelon basis of the selected rows, each with
    its own tag, as `row_echelon` reduces [R | I], by Bareiss's recurrence
    (Bareiss, *Math. Comp.* 22, 1968): with prev = 1, each basis row b with
    pivot column c, in order, gives v := (b_c v - v_c b) / prev and then
    prev := b_c. Each basis row was reduced so when it was selected. After
    j steps each entry of v is the minor, on the first j pivot columns and
    the entry's own column, of the first j selected rows and v as first
    written, so each division is exact, as in `polymatrix._packed_pass`,
    and no row gcd is taken. When the state part vanishes, the tag holds
    weights w over the selected candidates and (i, nu_i) whose relation
    rows sum to one without a state part: row i of [P | Q] is the sum of
    w (sigma_l s^l e_j | q) over them, divided by the coefficient of s^nu_i
    in P_ii. That dependence is unique up to a constant factor, which the
    division takes out, so P and Q do not depend on how the rows are
    scaled. `Poly`s are built only for these p rows.

    `check_io_form` is run on the result as a self-check; as P is row
    reduced, it certifies properness from the row degrees, without an
    elimination. Its failure is a `SelfCheckError`, a fault rather than bad
    input. The checked result is kept on ``s``, so each `StateSpace` object
    is converted at most once and every later call returns that same
    immutable `IoSystem`. A failed check keeps nothing.
    """
    if s._io_form is not None:
        return s._io_form
    n, m, p = s.n, s.m, s.p
    A, dA = _integer_rows(s.A)
    B, dB = _integer_rows(s.B)
    x, dC = _integer_rows(s.C)
    D, dD = _integer_rows(s.D)
    a_cols = [[row[j] for row in A] for j in range(n)]
    b_cols = [[row[j] for row in B] for j in range(m)]
    # x[i] and q[i] are the state and input parts of output i's candidate,
    # q in t-major order: q[i][t * m + c] multiplies u_c^(t).
    q = [[dB * dC * e for e in row] for row in D]
    basis: list[tuple[int, list[int]]] = []
    # (j, l, input part) of each selected candidate, in the order of the tags.
    selected: list[tuple[int, int, list[int]]] = []
    P_rows: list[list[Poly]] = [[] for _ in range(p)]
    Q_rows: list[list[Poly]] = [[] for _ in range(p)]
    active = list(range(p))
    k = 0
    while active:
        still = []
        for i in active:
            v, prev = x[i] + [0] * len(selected) + [1], 1
            for c, b in basis:
                v = [(b[c] * a - v[c] * z) // prev for a, z in zip_longest(v, b, fillvalue=0)]
                prev = b[c]
            pivot = next((c for c in range(n) if v[c]), None)
            if pivot is not None:
                basis.append((pivot, v))
                selected.append((i, k, q[i]))
                still.append(i)
                xi = x[i]
                x[i] = [sum(map(mul, xi, col)) for col in a_cols]
                q[i] = [dA * dD * sum(map(mul, xi, col)) for col in b_cols] + [dA * e for e in q[i]]
                continue
            pn = [[0] * (k + 1) for _ in range(p)]
            qn = [0] * (m * (k + 1))
            for w, (j, l, qj) in zip(v[n:], [*selected, (i, k, q[i])]):
                if w:
                    pn[j][l] += w * dB * dC * dD * dA**l
                    for t, e in enumerate(qj):
                        qn[t] += w * e
            den = v[-1] * dB * dC * dD * dA**k
            P_rows[i] = [_poly(e, den) for e in pn]
            Q_rows[i] = [_poly(qn[c::m], den) for c in range(m)]
        active = still
        k += 1
    sys = IoSystem(PolyMatrix(P_rows, cols=p), PolyMatrix(Q_rows, cols=m))
    if not check_io_form(sys):
        raise SelfCheckError("state elimination did not yield input-output form")
    object.__setattr__(s, "_io_form", sys)
    return sys


def check_io_form(sys: IoSystem) -> bool:
    """True iff P is invertible and the transfer matrix P^-1 Q is proper.

    Decided inside Q[s], by structure where it can be. Let nu_i be the
    degree of row i of P, and P_hr the constant matrix of the coefficients
    of s^nu_i in row i. When no row of P is zero and P_hr is nonsingular, P
    is row reduced: det P is nonzero, of degree sum nu_i, and P^-1 Q is
    proper iff every entry of row i of Q has degree at most nu_i (Kailath,
    *Linear Systems*, 1980, sec. 6.3). `statespace_to_io` builds P row
    reduced, so its self-check takes this route. Otherwise Cramer's rule
    decides: entry (i, j) of P^-1 Q is det(P with column i replaced by
    column j of Q) / det P, so it is proper iff that numerator has degree at
    most deg det P. One fraction-free pass (`_fraction_free`) decides either
    route: on P_hr, or on [P | Q], whose pivots give the rank of P, whose
    last pivot is +-det P and whose right block is +-det(P) P^-1 Q, the
    numerators, from forward steps and back substitution. Either way no rational function is
    formed.
    """
    P = sys.P.entries
    nu = [max(e.degree for e in row) for row in P]
    if all(d >= 0 for d in nu):
        hr = [[_poly([e.num[d]] if e.degree == d else [], e.den) for e in row]
              for row, d in zip(P, nu)]
        if len(_fraction_free(hr, len(P))[0]) == len(P):
            return all(e.degree <= d for row, d in zip(sys.Q.entries, nu) for e in row)
    pivots, _, det, right, _ = _fraction_free([p + q for p, q in zip(P, sys.Q.entries)], len(P))
    return len(pivots) == len(P) and all(e.degree <= det.degree for row in right for e in row)


def behavior_included(r1: KernelRep, r2: KernelRep, label: str = "inclusion") -> Verdict:
    """Decide ker r1 contained-in ker r2, with a multiplier certificate
    carrying ``label``.

    Inclusion holds iff r2.R factors as M * r1.R for a polynomial M. One
    fraction-free pass solves for M by Cramer's rule (`_left_quotient`)
    against the pivot rows of r1.R, its first independent rows: the pass
    decides whether a rational M exists, and the last pivot, the determinant
    of those rows on their pivot columns, must divide every numerator. A
    dependent row that is a polynomial combination of the pivot rows adds no
    constraint, so it is dropped and gets a zero column in M. Only when a
    dependent row needs a non-polynomial combination is r1.R reduced to
    echelon form, H = W_top * r1.R with H of full row rank and the same row
    module; the same solve against H gives M_H, and the witness is
    M_H * W_top. Either way the witness is checked against the *original*
    r1.R, so the certificate can be re-checked without re-running any part
    of this procedure. On failure the diagnostic names the first offending
    entry, by its row of r2.R and its row of r1.R.
    """
    _same_signals(r1, r2)
    n, m = r1.R.cols, r1.R.rows
    M = _left_quotient(r1.R.entries, r2.R)
    if M is None:
        a = [list(row) + list(e) for row, e in zip(r1.R.entries, PolyMatrix.identity(m).entries)]
        rank = len(row_echelon(a, n))
        M = _left_quotient([row[:n] for row in a[:rank]], r2.R)
        if isinstance(M, PolyMatrix):
            M = M * PolyMatrix([row[n:] for row in a[:rank]], cols=m)
    if isinstance(M, str):
        return Verdict(holds=False, diagnostics=(M,))
    witness = InclusionWitness(multiplier=M, source=r1.R, target=r2.R, label=label)
    return Verdict(holds=True, witnesses=(witness,))


def behavior_equal(r1: KernelRep, r2: KernelRep) -> Verdict:
    """Mutual inclusion; carries one witness per direction."""
    return Verdict.combine(
        ("forward inclusion fails: ", behavior_included(r1, r2, "forward")),
        ("backward inclusion fails: ", behavior_included(r2, r1, "backward")),
    )


def interconnect(env: KernelRep, sys: IoSystem) -> KernelRep:
    """Output behavior of sys driven by inputs satisfying env.

    Stacks P y = Q u on top of 0 = E u, treats u as a latent signal and
    eliminates it, returning a minimal kernel representation over the output
    signals. The latent map [Q; E] has p + e rows, for e assumption
    equations. When its rank is p + e - 1, for instance with as many inputs
    as outputs, one equation and Q nonsingular, `eliminate_latent` takes the
    one row it leaves from Cramer's rule instead of a `row_echelon` scan;
    the row is the one the scan would keep.
    """
    if env.dim != sys.m:
        raise DimensionError(
            f"environment spans {env.dim} signals but the system has {sys.m} inputs"
        )
    p = sys.p
    manifest = vstack(sys.P, PolyMatrix.zeros(env.R.rows, p))
    latent = vstack(sys.Q, env.R)
    return eliminate_latent(LatentRep(manifest, latent, (("y", p),)))

