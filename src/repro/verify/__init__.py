"""Robustness verification: IBP / CROWN / LP relaxed verifiers, the exact
MILP verifier, gradient and relaxation-guided attacks, and convex
relaxation adversarial training (paper §II-B-2)."""

from repro.verify.adversarial import (
    RobustTrainer,
    certified_radius,
    fgsm_attack,
    make_two_moons,
    margin_input_gradient,
    pgd_attack,
    relaxation_guided_attack,
)
from repro.verify.exact import ExactResult, exact_margin_bound
from repro.verify.firstorder_lp import firstorder_margin_lower_bound
from repro.verify.interval import (
    LayerBounds,
    ibp_margin_lower_bound,
    ibp_output_bounds,
    propagate_intervals,
)
from repro.verify.linear_bounds import (
    crown_input_linear_form,
    crown_margin_lower_bound,
    crown_preactivation_bounds,
)
from repro.verify.input_split import InputSplitResult, input_split_margin_bound
from repro.verify.lp_relax import build_margin_lp, lp_margin_lower_bound
from repro.verify.smt import SMTResult, smt_margin_bound
from repro.verify.specs import RobustnessSpec, classification_spec
from repro.verify.verifier import (
    FAST_BATCH_METHODS,
    METHOD_GRADES,
    VerificationResult,
    compare_verifiers,
    false_negative_rate,
    verification_fingerprint,
    verify,
    verify_batch,
)

__all__ = [
    "ExactResult",
    "FAST_BATCH_METHODS",
    "InputSplitResult",
    "LayerBounds",
    "METHOD_GRADES",
    "RobustTrainer",
    "RobustnessSpec",
    "SMTResult",
    "VerificationResult",
    "build_margin_lp",
    "certified_radius",
    "classification_spec",
    "compare_verifiers",
    "crown_input_linear_form",
    "crown_margin_lower_bound",
    "crown_preactivation_bounds",
    "exact_margin_bound",
    "false_negative_rate",
    "fgsm_attack",
    "firstorder_margin_lower_bound",
    "ibp_margin_lower_bound",
    "input_split_margin_bound",
    "ibp_output_bounds",
    "lp_margin_lower_bound",
    "make_two_moons",
    "margin_input_gradient",
    "pgd_attack",
    "propagate_intervals",
    "relaxation_guided_attack",
    "smt_margin_bound",
    "verification_fingerprint",
    "verify",
    "verify_batch",
]
