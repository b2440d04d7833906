"""Planar two-zone piecewise-smooth vector fields.

Tangency classification, plateau unfoldings, Filippov flows with sliding
and loop censuses on a rectangular window split by the switching line
y = 0.
"""

__version__ = "0.1.0"

from .fieldexpr import (EvalDomainError, ParseError, ScalarField, as_field,
                        compile_expr, differentiate, evaluate, expr_jet,
                        parse_expr)
from .system import (DegenerateDenominator, NotSliding, PwsSystem,
                     SigmaDecomposition, Window, decompose_sigma, h_value,
                     sliding_convex_coefficient, sliding_field)
from .tangency import (IndeterminateMultiplicity, TangencyScan,
                       TangentPointRecord, ZeroLeadingCoefficient,
                       find_tangent_points, multiplicity_at, visibility)
from .cutoffs import (PsiSpec, cutoff_jet, cutoff_up, psi, psi_jet,
                      zero_psi)
from .unfolding import (CanonicalBase, UnfoldingSpec, build_transition,
                        build_unfolded)
from .flow import (Arc, AmbiguousTangency, Event, StepUnderflow, Trajectory,
                   TransitFailure, integrate_pws, integrate_smooth,
                   sliding_arc)
from .maps import NoArrival, TangentialArrival, displacement_sigma
from .loops import (CensusMismatch, LoopCensus, LoopRecord, RangeError,
                    VerificationFailed, canonical_base,
                    canonical_critical_loop, find_crossing_cycles,
                    scenario_thm2, scenario_thm3, scenario_thm4,
                    scenario_thm5, thm2_base)
from .cli import (ConfigError, RunConfig, load_config, read_census_csv,
                  read_trajectory_csv, render_portrait, run_scenario,
                  trajectory_to_csv, write_census_csv,
                  write_tangent_points_csv)

__all__ = [name for name in dir() if not name.startswith("_")]
