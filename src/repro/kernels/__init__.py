"""Profiling-guided vectorized kernels behind the solver stack's hot paths.

Three hot loops dominated profiles of the repo: the ``O(m^2)``
Python-loop Gram assembly and per-constraint projections inside the SDP
ADMM solver, the per-spec/per-neuron bound propagation inside the
verifier, and the per-particle update arithmetic inside the PSO
optimizers.  This package rewrites each as whole-batch array
contractions:

* :mod:`repro.kernels.gram` — the SDP constraint operator, its adjoint,
  and the Gram matrix as single ``einsum`` contractions over an
  ``(m, n, n)`` constraint stack.
* :mod:`repro.kernels.propagation` — batched IBP and matrix-form CROWN
  bound propagation pushing a whole stack of robustness specs through a
  network in one set of matrix products.
* :mod:`repro.kernels.swarm` — whole-swarm PSO velocity/position/decode
  /sampling updates, bit-identical to the per-particle forms.
* :mod:`repro.kernels.workspace` — preallocated ADMM buffers so the
  iteration loops are allocation-free.

Each kernel has one implementation, and every consumer calls it
directly.  The original loops survive only as test oracles in
:mod:`repro.kernels.reference`, which this package does not import.
"""

from repro.kernels.gram import (
    apply_adjoint,
    apply_adjoint_batch,
    apply_operator,
    apply_operator_batch,
    gram_matrix,
    outer_product_batch,
    quad_gradient_batch,
    quad_value_batch,
    stack_symmetric,
)
from repro.kernels.propagation import (
    AffineStage,
    crown_ibp_margin_batch,
    crown_margin_batch,
    crown_margin_fast,
    crown_preactivation_fast,
    extract_affine_stages,
    ibp_margin_batch,
    propagate_box_batch,
    relu_relaxation_arrays,
)
from repro.kernels.swarm import (
    build_decode_table,
    decode_indices_batch,
    reflect_box,
    sample_distribution_swarm,
    velocity_update,
)
from repro.kernels.workspace import ConsensusWorkspace, SDPWorkspace
from repro.linalg.psd import project_psd_batch, symmetrize_batch

__all__ = [
    "AffineStage",
    "ConsensusWorkspace",
    "SDPWorkspace",
    "apply_adjoint",
    "apply_adjoint_batch",
    "apply_operator",
    "apply_operator_batch",
    "build_decode_table",
    "crown_ibp_margin_batch",
    "crown_margin_batch",
    "crown_margin_fast",
    "crown_preactivation_fast",
    "decode_indices_batch",
    "extract_affine_stages",
    "gram_matrix",
    "project_psd_batch",
    "ibp_margin_batch",
    "outer_product_batch",
    "propagate_box_batch",
    "quad_gradient_batch",
    "quad_value_batch",
    "reflect_box",
    "relu_relaxation_arrays",
    "sample_distribution_swarm",
    "stack_symmetric",
    "symmetrize_batch",
    "velocity_update",
]
