"""Skew-symmetric pairwise-comparison matrices and their pair-subspace
geometry: consistency indices, wedge/coordinate machinery, the triad
coupling form, and inconsistency reduction.

Public names are loaded on first access (PEP 562): ``import pcgeom``
imports no submodule, and ``pcgeom.wedge`` imports ``pcgeom.exterior``
the first time it is read. A CLI process thus loads only the modules its
command runs.
"""

import importlib

__version__ = "0.1.0"

#: Public name -> the submodule that defines it.
_EXPORTS = {
    # matrices
    "AdditiveMatrix": "pc_core",
    "MultiplicativeMatrix": "pc_core",
    "DEFAULT_TOLERANCE": "pc_core",
    "new_additive": "pc_core",
    "new_multiplicative": "pc_core",
    "from_scores": "pc_core",
    "to_additive": "pc_core",
    "to_multiplicative": "pc_core",
    "triad_deviation": "pc_core",
    "all_triad_deviations": "pc_core",
    "max_abs_triad_deviation": "pc_core",
    "algebraic_inconsistency": "pc_core",
    "is_consistent": "pc_core",
    "recover_scores": "pc_core",
    "permute": "pc_core",
    # exterior algebra
    "TwoVector": "exterior",
    "wedge": "exterior",
    "new_two_vector": "exterior",
    "quad_residuals": "exterior",
    "is_decomposable": "exterior",
    "normalize_grassmann": "exterior",
    "chordal_distance": "exterior",
    # embeddings
    "Embedding": "embedding",
    "orthogonal_embedding": "embedding",
    "planar_embedding": "embedding",
    "custom_embedding": "embedding",
    "scores_to_coefficients": "embedding",
    "pair_wedges": "embedding",
    "geometric_inconsistency": "embedding",
    "planar_pair_wedges": "embedding",
    "planar_matrix_inconsistency": "embedding",
    # coupling form
    "CouplingMap": "coupling",
    "coupling_coefficients": "coupling",
    "gram_rows": "coupling",
    "closed_form_diagnosis": "coupling",
    # reduction
    "ReductionStep": "reduction",
    "ReductionTrajectory": "reduction",
    "project_consistent": "reduction",
    "reduce_iterative": "reduction",
    # 2-forms
    "standard_area_form": "twoform",
    "evaluate": "twoform",
    "evaluation_columns": "twoform",
    "matrix_form": "twoform",
    # errors
    "PCGeomError": "errors",
    "NonSquareError": "errors",
    "TooSmallError": "errors",
    "NotSkewSymmetricError": "errors",
    "NotReciprocalError": "errors",
    "NonFiniteEntryError": "errors",
    "NonPositiveEntryError": "errors",
    "IndexOutOfRangeError": "errors",
    "NonIncreasingTriadError": "errors",
    "DimensionMismatchError": "errors",
    "ZeroTwoVectorError": "errors",
    "ZeroCoefficientError": "errors",
    "NonPositiveLambdaError": "errors",
    "NonPositiveStepError": "errors",
    "DivergentStepError": "errors",
    "NonFiniteResultError": "errors",
}

#: Submodules that resolve as attributes without an explicit import.
_SUBMODULES = {*_EXPORTS.values(), "indexing"}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_EXPORTS[name]}")
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
