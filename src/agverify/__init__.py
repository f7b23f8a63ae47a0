"""Exact verification of assume-guarantee contracts on linear differential systems.

Systems are represented by polynomial-matrix kernel descriptions of their
trajectory sets, with arbitrary-precision rational arithmetic throughout.
On top of that sit a certificate-producing behavior-inclusion decision, a
contract calculus (compatibility, implementation, refinement, conjunction)
and a text format plus CLI for driving the checks.
"""

from .behavior import (
    InclusionWitness,
    IoSystem,
    KernelRep,
    LatentRep,
    SignalSpaceError,
    StateSpace,
    Verdict,
    behavior_equal,
    behavior_included,
    check_io_form,
    eliminate_latent,
    exp_membership,
    interconnect,
    is_autonomous,
    minimal_kernel,
    statespace_to_io,
    statespace_to_kernel,
)
from .contracts import (
    Contract,
    IoFormError,
    conjunction,
    env_compatible,
    implements,
    join_assumptions,
    meet_guarantees,
    refines,
)
from .docparse import (
    Document,
    DocumentError,
    DocumentValidationError,
    DuplicateNameError,
    ParseError,
    UnresolvedReferenceError,
    format_document,
    parse_document,
    parse_documents,
)
from .polyalg import ONE, S, ZERO, Poly, poly_gcd, poly_lcm
from .polymatrix import (
    DimensionError,
    PolyMatrix,
    SelfCheckError,
    SingularMatrixError,
    SmithDecomposition,
    block,
    determinant,
    hstack,
    is_proper,
    is_unimodular,
    rank_generic,
    row_echelon,
    smith_form,
    vstack,
)

__version__ = "0.1.0"


def corpus_dir():
    """Directory holding the bundled quarter-car example corpus, as a
    `pathlib.Path`."""
    from importlib import resources
    from pathlib import Path

    return Path(str(resources.files("agverify") / "corpus" / "quartercar"))
