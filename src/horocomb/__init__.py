"""Two-parameter family of SU(1,1) actions on infinite-dimensional complex
hyperbolic space, realized through closed-form kernel models.

A model is a pair (t, K1): the displacement parameter and a unit kernel
constant.  `blockrep` turns it into explicit linear isometries on formal
vectors, `invariants` recovers (t, r) back from the action, and
`combination` interpolates the angular invariant between the real family
(r = 0) and the fractional-power family (r = t*pi/2).
"""

from .blockrep import (
    RepModel,
    apply,
    basepoint,
    compare_up_to_phase,
    evaluate,
    op_diag,
    op_sigma,
    op_unipotent,
    orbit_gram,
)
from .combination import (
    CombinationSpec,
    combine_models,
    endpoint_real,
    endpoint_tautological,
    make_representation,
    mix_weights_for_target,
)
from .invariants import (
    cartan_limit_estimate,
    cartan_slope,
    model_arg,
    validate_params,
)
from .kernelspace import (
    FormalVector,
    KernelContext,
    pairing,
    pairing_matrix,
    positive_type_check,
    reconstruct_embedding,
    signature_count,
)

__all__ = [
    "CombinationSpec",
    "FormalVector",
    "KernelContext",
    "RepModel",
    "apply",
    "basepoint",
    "cartan_limit_estimate",
    "cartan_slope",
    "combine_models",
    "compare_up_to_phase",
    "endpoint_real",
    "endpoint_tautological",
    "evaluate",
    "make_representation",
    "mix_weights_for_target",
    "model_arg",
    "op_diag",
    "op_sigma",
    "op_unipotent",
    "orbit_gram",
    "pairing",
    "pairing_matrix",
    "positive_type_check",
    "reconstruct_embedding",
    "signature_count",
    "validate_params",
]
