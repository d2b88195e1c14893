"""Toolkit for deciding and certifying geodesic-orbit metrics.

Compact homogeneous spaces G/H are handled through matrix realizations of
their Lie algebras with exact rational arithmetic: reductive splits,
isotypical decomposition of the isotropy action, equivariant metric
endomorphisms, the pointwise geodesic-orbit criterion with witnesses, and
reduction rules that prune the candidate metric cone.  The complex Stiefel
manifolds U(n)/U(n-k) come fully wired: the one-parameter deformation
family of the normal metric is verified with exactly-zero residuals and a
grid scan certifies that nothing else survives.
"""

from .lie_core import MatrixLieAlgebra, build_un, bracket, validate_algebra
from .decomp import diagonal_u_nk, reductive_split, project
from .isotropy import (IsotypicalDecomposition, decompose_isotypic,
                       intertwiners, isotropy_action, split_ideals)
from .metric import (MetricEndomorphism, MetricFamily,
                     check_normalizer_equivariance, from_parameters)
from .go import (GOCertificate, ScanSpec, go_check, go_solve_at,
                 reduce_family, search_go)
from .stiefel import (StiefelSpace, build_stiefel, metric_at, tilde_map,
                      uniqueness_scan, verify_family)

__version__ = "0.1.0"

__all__ = [
    "MatrixLieAlgebra", "build_un", "bracket", "validate_algebra",
    "diagonal_u_nk", "reductive_split", "project",
    "IsotypicalDecomposition", "decompose_isotypic", "intertwiners",
    "isotropy_action", "split_ideals",
    "MetricEndomorphism", "MetricFamily", "check_normalizer_equivariance",
    "from_parameters",
    "GOCertificate", "ScanSpec", "go_check", "go_solve_at", "reduce_family",
    "search_go",
    "StiefelSpace", "build_stiefel", "metric_at", "tilde_map",
    "uniqueness_scan", "verify_family",
    "__version__",
]
