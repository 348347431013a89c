"""Hochschild (co)homology of quiver path algebras and of the components
of semiorthogonal decompositions of their derived categories, computed in
exact arithmetic over Q (or a prime field, as a fast mode)."""

from .linalg import (FieldMismatch, FieldSpec, GF, QQ, Matrix, rank,
                     rank_kernel_image, solve_linear)
from .algebra import (Algebra, AlgebraAxiomError, Arrow, NonAdmissible,
                      NotFiniteDimensional, PathAlgebra, Quiver, Relation,
                      algebra_from_structure, build_path_algebra, center,
                      tensor_opposite)
from .modules import (Bimodule, ModuleAxiomError, ModuleRep,
                      bimodule_from_actions, dual_bimodule,
                      free_gluing_bimodule, regular_bimodule, simple_module,
                      triangular_gluing)
from .complexes import (ChainMap, ComplexError, FieldComplex, HomComplex,
                        ModuleComplex, ProjComplex, SideMismatch,
                        bar_resolution, cone, direct_sum, dualize,
                        ext_profile, hom_complex, minimalize,
                        module_complex_single, projective_resolution,
                        single_projective, zero_complex)
from .hochschild import (HHProfile, diagonal_resolution, global_dimension,
                         koszul_resolution, hh_cohomology, hh_homology,
                         hh_with_coefficients, homology_via_serre_dual)
from .exceptional import (ExceptionalCollection, MutationFailed,
                          NotExceptional, NotFull, NotStrong, SodTower,
                          bdi_check, dual_collection, endomorphism_algebra,
                          is_exceptional_collection, minimal_data, mutate,
                          projective_collection, sod_project)
from .kernels import (Kernel, NormalizationFailed, RangeNotCertified,
                      UnsupportedKernelShape, additivity_check,
                      fullness_certificate, generalized_hoh, k0_identity_check,
                      kernel_adjoint, les_check, orthogonality_report,
                      projection_kernels)
from .catalog import CATALOG, catalog_names, get_entry, structure_hash
from .report import Report

__all__ = [
    "FieldMismatch", "FieldSpec", "GF", "QQ", "Matrix",
    "rank", "rank_kernel_image", "solve_linear",
    "Algebra", "AlgebraAxiomError", "Arrow", "NonAdmissible", "NotFiniteDimensional",
    "PathAlgebra", "Quiver", "Relation", "algebra_from_structure",
    "build_path_algebra", "center", "tensor_opposite",
    "Bimodule", "ModuleAxiomError", "ModuleRep", "bimodule_from_actions",
    "dual_bimodule",
    "free_gluing_bimodule", "regular_bimodule", "simple_module",
    "triangular_gluing",
    "ChainMap", "ComplexError", "FieldComplex", "HomComplex", "ModuleComplex",
    "ProjComplex",
    "SideMismatch", "bar_resolution", "cone", "direct_sum", "dualize",
    "ext_profile", "hom_complex", "minimalize",
    "module_complex_single", "projective_resolution", "single_projective",
    "zero_complex",
    "HHProfile", "diagonal_resolution", "global_dimension", "hh_cohomology",
    "hh_homology", "koszul_resolution", "hh_with_coefficients",
    "homology_via_serre_dual",
    "ExceptionalCollection", "MutationFailed", "NotExceptional", "NotFull",
    "NotStrong",
    "SodTower", "bdi_check", "dual_collection", "endomorphism_algebra",
    "is_exceptional_collection", "minimal_data", "mutate",
    "projective_collection", "sod_project",
    "Kernel", "NormalizationFailed", "RangeNotCertified",
    "UnsupportedKernelShape", "additivity_check",
    "fullness_certificate", "generalized_hoh", "k0_identity_check",
    "kernel_adjoint", "les_check", "orthogonality_report",
    "projection_kernels",
    "CATALOG", "catalog_names", "get_entry", "structure_hash",
    "Report",
]
