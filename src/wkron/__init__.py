"""Exact machinery for multiqubit W-class entanglement concentration:
Kronecker states, sector probabilities, SLOCC covariants, GHZ residual
spectra, and a dense Schur-transform oracle that cross-validates everything.
"""

from .covariants import base_form, theorem2_form, transvectant, verify_proportional
from .exact import Rational, SqrtRational, sym_eig
from .ghz import gram, hahn_eberlein, louck, overlap, schmidt_spectrum
from .kronstate import KroneckerVector, eta, eta_sq, khat, normalized, verify_lemma1
from .partitions import (
    PartitionTuple,
    TwoRowPartition,
    character,
    dim_irrep,
    kron_coeff,
    list_partitions,
    parse_partition_tuple,
    ptuple,
    w_admissible,
)
from .probw import p_psi, p_w, z_count, z_count_ct
from .protocol import (
    GHZState,
    marginal_entropy,
    multilocal_schur,
    oracle_khat,
    residual_schmidt,
    sample_run,
    tensor_power,
    verify_report,
)
from .schur import SchurBlock, b_coeff, gamma, rep_matrix, standard_paths
from .wstates import WClassState, a_factor, phi_hat, w_normal_form, z_norm

__all__ = [
    "Rational",
    "SqrtRational",
    "sym_eig",
    "PartitionTuple",
    "TwoRowPartition",
    "character",
    "dim_irrep",
    "kron_coeff",
    "list_partitions",
    "parse_partition_tuple",
    "ptuple",
    "w_admissible",
    "gamma",
    "standard_paths",
    "b_coeff",
    "SchurBlock",
    "rep_matrix",
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
    "transvectant",
    "theorem2_form",
    "verify_proportional",
    "hahn_eberlein",
    "louck",
    "overlap",
    "gram",
    "schmidt_spectrum",
    "z_count",
    "z_count_ct",
    "p_w",
    "p_psi",
    "GHZState",
    "tensor_power",
    "multilocal_schur",
    "residual_schmidt",
    "oracle_khat",
    "sample_run",
    "marginal_entropy",
    "verify_report",
]
