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
    StateSpace,
    Verdict,
    _same_signals,
    behavior_included,
    check_io_form,
    eliminate_latent,
    interconnect,
    minimal_kernel,
    statespace_to_io,
)
from .polymatrix import DimensionError, PolyMatrix, vstack


class IoFormError(ValueError):
    """A system offered as an implementation is not in input-output form."""


@dataclass(frozen=True, slots=True)
class Contract:
    """Pair of assumptions (over the input signals) and guarantees (over the
    output signals), stored as given: every operation here accepts any kernel
    matrix, so witnesses multiply the contract's matrices as written."""

    assumptions: KernelRep
    guarantees: KernelRep

    @property
    def input_dim(self) -> int:
        return self.assumptions.dim

    @property
    def output_dim(self) -> int:
        return self.guarantees.dim


def env_compatible(env: KernelRep, c: Contract) -> Verdict:
    """Is every input produced by env admitted by the contract's assumptions?"""
    return behavior_included(env, c.assumptions, "assumptions")


def implements(sys: IoSystem | StateSpace, c: Contract) -> Verdict:
    """Does the system satisfy the contract?

    Holds iff the system's output behavior under assumption-compatible inputs
    is contained in the guarantees. The system's dimensions must match the
    contract's; then state-space systems are converted to input-output form,
    and systems not in input-output form are rejected. A `StateSpace` is
    converted once per object, so checking one system against several
    contracts pays for one conversion. `check_io_form` certifies an
    `IoSystem` from the row degrees of P when P is row reduced, and from the
    Cramer numerators of P^-1 Q otherwise.
    """
    if sys.m != c.input_dim or sys.p != c.output_dim:
        raise DimensionError(
            f"system is {sys.m}-input {sys.p}-output, contract expects "
            f"{c.input_dim}-input {c.output_dim}-output"
        )
    if isinstance(sys, StateSpace):
        sys = statespace_to_io(sys)
    elif not check_io_form(sys):
        raise IoFormError("system is not in input-output form")
    constrained = interconnect(c.assumptions, sys)
    guarantees = c.guarantees.with_signal_labels(constrained.signal_labels)
    return behavior_included(constrained, guarantees, "guarantees")


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
        ("assumption inclusion fails: ",
         behavior_included(c2.assumptions, c1.assumptions, "assumptions")),
        ("guarantee inclusion fails: ",
         behavior_included(c1.guarantees, c2.guarantees, "guarantees")),
    )


def join_assumptions(a1: KernelRep, a2: KernelRep) -> KernelRep:
    """Assumptions admitting exactly the sums u = l1 + l2 of trajectories
    admitted by a1 and a2 respectively.

    Writing u = l + (u - l), u is such a sum iff some l has A1 l = 0 and
    A2 (u - l) = 0. That is a latent representation with one copy of u
    (Polderman & Willems, *Introduction to Mathematical Systems Theory*,
    1998), which is eliminated:
        [A1; A2] l = [0; A2] u
    """
    _same_signals(a1, a2)
    manifest = vstack(PolyMatrix.zeros(a1.R.rows, a1.dim), a2.R)
    latent = vstack(a1.R, a2.R)
    return eliminate_latent(LatentRep(manifest, latent, a1.signal_labels))


def meet_guarantees(g1: KernelRep, g2: KernelRep) -> KernelRep:
    """Guarantees admitting exactly the trajectories admitted by both g1 and
    g2: stack the two kernels and minimize."""
    _same_signals(g1, g2)
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
