"""Assume-guarantee contracts over input-output behaviors.

A contract pairs assumptions (admissible input behavior) with guarantees
(required output behavior). Every operation here reduces to behavior
inclusion, so each verdict carries the polynomial multiplier certificates of
the underlying inclusions:

* an environment is compatible when its input behavior refines the
  assumptions;
* a system implements a contract when its output behavior under the
  assumed inputs is contained in the guarantees;
* refinement reverses the inclusion on assumptions and keeps it forward on
  guarantees;
* conjunction joins assumptions (sum of behaviors, built through a latent
  representation and eliminated) and meets guarantees (intersection, built
  by stacking), giving the largest contract refining both arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

from .behavior import (
    IoSystem,
    KernelRep,
    LatentRep,
    SignalSpaceError,
    StateSpace,
    Verdict,
    behavior_included,
    check_io_form,
    eliminate_latent,
    interconnect,
    minimal_kernel,
    statespace_to_io,
)
from .polymatrix import DimensionError, PolyMatrix, block, vstack


class IoFormError(ValueError):
    """A system offered as an implementation is not in input-output form."""


@dataclass(frozen=True, slots=True)
class Contract:
    """Pair of assumptions (over the input signals) and guarantees (over the
    output signals); both are stored minimized."""

    assumptions: KernelRep
    guarantees: KernelRep

    def __post_init__(self):
        object.__setattr__(self, "assumptions", minimal_kernel(self.assumptions))
        object.__setattr__(self, "guarantees", minimal_kernel(self.guarantees))

    @property
    def input_dim(self) -> int:
        return self.assumptions.dim

    @property
    def output_dim(self) -> int:
        return self.guarantees.dim

    def __repr__(self) -> str:
        return f"Contract(assumptions={self.assumptions!r}, guarantees={self.guarantees!r})"


def env_compatible(env: KernelRep, c: Contract) -> Verdict:
    """Is every input produced by env admitted by the contract's assumptions?"""
    return Verdict.combine(("assumptions", "", behavior_included(env, c.assumptions)))


def implements(sys: IoSystem | StateSpace, c: Contract) -> Verdict:
    """Does the system satisfy the contract?

    Holds iff the system's output behavior under assumption-compatible inputs
    is contained in the guarantees. State-space systems are converted to
    input-output form first; systems not in input-output form are rejected.
    """
    if isinstance(sys, StateSpace):
        sys = statespace_to_io(sys)
    elif not check_io_form(sys):
        raise IoFormError("system is not in input-output form")
    if sys.m != c.input_dim or sys.p != c.output_dim:
        raise DimensionError(
            f"system is {sys.m}-input {sys.p}-output, contract expects "
            f"{c.input_dim}-input {c.output_dim}-output"
        )
    constrained = interconnect(c.assumptions, sys)
    verdict = behavior_included(constrained, c.guarantees.with_signal_labels(constrained.signal_labels))
    return Verdict.combine(("guarantees", "", verdict))


def refines(c1: Contract, c2: Contract) -> Verdict:
    """Does c1 express a stricter specification than c2?

    Holds iff c2's assumptions are contained in c1's (c1 tolerates more
    environments) and c1's guarantees are contained in c2's (c1 promises
    more). The two inclusion witnesses are labeled "assumptions" and
    "guarantees".
    """
    if c1.input_dim != c2.input_dim or c1.output_dim != c2.output_dim:
        raise DimensionError("contracts have different input/output dimensions")
    return Verdict.combine(
        ("assumptions", "assumption inclusion fails: ",
         behavior_included(c2.assumptions, c1.assumptions)),
        ("guarantees", "guarantee inclusion fails: ",
         behavior_included(c1.guarantees, c2.guarantees)),
    )


def join_assumptions(a1: KernelRep, a2: KernelRep) -> KernelRep:
    """Assumptions admitting exactly the sums u = l1 + l2 of trajectories
    admitted by a1 and a2 respectively.

    Built as a latent representation over (l1, l2) and eliminated:
        [I I; A1 0; 0 A2] (l1; l2) = (I; 0; 0) u
    """
    if a1.signal_labels != a2.signal_labels:
        raise SignalSpaceError(
            f"signal spaces differ: {a1.signal_labels} vs {a2.signal_labels}"
        )
    m = a1.dim
    I = PolyMatrix.identity(m)
    manifest = vstack(I, PolyMatrix.zeros(a1.R.rows, m), PolyMatrix.zeros(a2.R.rows, m))
    latent = block(
        [
            [I, I],
            [a1.R, PolyMatrix.zeros(a1.R.rows, m)],
            [PolyMatrix.zeros(a2.R.rows, m), a2.R],
        ]
    )
    return eliminate_latent(LatentRep(manifest, latent, a1.signal_labels))


def meet_guarantees(g1: KernelRep, g2: KernelRep) -> KernelRep:
    """Guarantees admitting exactly the trajectories admitted by both g1 and
    g2: stack the two kernels and minimize."""
    if g1.signal_labels != g2.signal_labels:
        raise SignalSpaceError(
            f"signal spaces differ: {g1.signal_labels} vs {g2.signal_labels}"
        )
    return minimal_kernel(KernelRep(vstack(g1.R, g2.R), g1.signal_labels))


def conjunction(c1: Contract, c2: Contract) -> Contract:
    """Largest contract (under refinement) that refines both arguments:
    join of assumptions, meet of guarantees."""
    if c1.input_dim != c2.input_dim or c1.output_dim != c2.output_dim:
        raise DimensionError("contracts have different input/output dimensions")
    return Contract(
        join_assumptions(c1.assumptions, c2.assumptions),
        meet_guarantees(c1.guarantees, c2.guarantees),
    )
