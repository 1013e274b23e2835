"""Exact machinery for multiqubit W-class entanglement concentration:
Kronecker states, sector probabilities, SLOCC covariants, GHZ residual
spectra, and a dense Schur-transform oracle that cross-validates everything.
"""

from .covariants import base_form, theorem2_form
from .exact import SqrtRational, sym_eig
from .ghz import gram, overlap, schmidt_spectrum
from .kronstate import KroneckerVector, eta, eta_sq, khat, normalized, verify_lemma1
from .partitions import (
    PartitionTuple,
    TwoRowPartition,
    dim_irrep,
    kron_coeff,
    list_partitions,
    parse_partition_tuple,
    ptuple,
    w_admissible,
)
from .probw import p_psi, p_w
from .protocol import (
    GHZState,
    marginal_entropy,
    multilocal_schur,
    tensor_power,
    verify_report,
)
from .schur import standard_paths
from .wstates import WClassState, a_factor, phi_hat, w_normal_form, z_norm

__all__ = [
    "SqrtRational",
    "sym_eig",
    "PartitionTuple",
    "TwoRowPartition",
    "dim_irrep",
    "kron_coeff",
    "list_partitions",
    "parse_partition_tuple",
    "ptuple",
    "w_admissible",
    "standard_paths",
    "WClassState",
    "w_normal_form",
    "a_factor",
    "phi_hat",
    "z_norm",
    "KroneckerVector",
    "khat",
    "eta",
    "eta_sq",
    "normalized",
    "verify_lemma1",
    "base_form",
    "theorem2_form",
    "overlap",
    "gram",
    "schmidt_spectrum",
    "p_w",
    "p_psi",
    "GHZState",
    "tensor_power",
    "multilocal_schur",
    "marginal_entropy",
    "verify_report",
]
