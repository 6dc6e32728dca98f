"""Symmetry classes of tensors, derivative norms, and immanant bounds.

The package builds the symmetry class V_chi of C^n attached to an
irreducible character chi of S_m, evaluates higher-order directional
derivatives of the induced operator T -> K_chi(T) and of immanants, and
checks the closed-form norm

    || D^k K_chi(T) || = k! * p_{m-k}(nu_{omega(chi)})

together with the matching upper bound for immanant derivatives.
"""

from .combinat import (
    MultiIndex,
    Partition,
    Permutation,
    all_permutations,
    enumerate_maps,
    majorizes,
    multiplicity_partition,
    omega_of,
    partitions_of,
)
from .denselin import (
    as_matrix,
    gram_schmidt,
    hermitian_eigenvalues,
    kron,
    matrix_from_pairs,
    matrix_to_pairs,
    polar,
    singular_values,
    spectral_norm,
    svd,
)
from .errors import DomainError, KchiError, NumericError, ResourceError
from .norms import (
    DerivReport,
    ImmanantReport,
    dk_immanant,
    dk_immanant_bound,
    dk_kchi_via_immanants,
    dk_norm_formula,
    dk_norm_verify,
    immanant,
    immanant_bound_verify,
    lambda_eigenvalue,
    mixed_immanant_matrix,
    nu_omega,
    perturbation_bounds,
    random_matrix,
    random_unit_matrix,
    sample_rng,
)
from .symclass import (
    SymmetryClass,
    build_symmetry_class,
    dk_kchi,
    k_chi_matrix,
    symmetrized_kron,
)
from .symgroup import (
    CharTable,
    char_table,
    character,
    character_sum_over_stabilizer,
    class_size,
    degree,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Partition",
    "MultiIndex",
    "Permutation",
    "partitions_of",
    "majorizes",
    "omega_of",
    "multiplicity_partition",
    "enumerate_maps",
    "all_permutations",
    "character",
    "degree",
    "class_size",
    "CharTable",
    "char_table",
    "character_sum_over_stabilizer",
    "as_matrix",
    "svd",
    "singular_values",
    "polar",
    "spectral_norm",
    "hermitian_eigenvalues",
    "kron",
    "gram_schmidt",
    "matrix_to_pairs",
    "matrix_from_pairs",
    "SymmetryClass",
    "build_symmetry_class",
    "symmetrized_kron",
    "k_chi_matrix",
    "dk_kchi",
    "nu_omega",
    "dk_norm_formula",
    "lambda_eigenvalue",
    "DerivReport",
    "dk_norm_verify",
    "immanant",
    "dk_immanant",
    "mixed_immanant_matrix",
    "dk_kchi_via_immanants",
    "dk_immanant_bound",
    "ImmanantReport",
    "immanant_bound_verify",
    "perturbation_bounds",
    "sample_rng",
    "random_matrix",
    "random_unit_matrix",
    "KchiError",
    "DomainError",
    "ResourceError",
    "NumericError",
]
