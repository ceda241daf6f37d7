"""Numerical laboratory for weak unique continuation of perturbed
Dirac-type operators and monopole gradient flows on the flat 3-torus."""

from .carleman import (CarlemanGeometry, CarlemanReport, appendix_decomposition,
                       bump_cutoff, carleman_ratio, constant_sweep,
                       cutoff_bump_sampler, ucp_decay_check)
from .clifford import frame
from .counterexamples import (BranchedSolution, peano_branches,
                              rank_one_counterexample)
from .fields import AnnulusGrid, Grid1D, SpinorField, l2_inner
from .operators import (DiracOperator, absorb_homomorphism, annulus_operator,
                        constant_operator_1d, dirac_apply, model_operator_1d)
from .perturbations import (AdmissibilityResult, Perturbation, admissibility_bound,
                            eval_perturbation, ucp_condition_check)
from .torus import (PerturbationParams, SWConfiguration, Tangent, TorusLattice,
                    csd, default_params, dirac3, floer_norm, flow_step, gauge_apply,
                    grad_csd, linearization_ucp_setup, linearize, observables,
                    run_flow)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
