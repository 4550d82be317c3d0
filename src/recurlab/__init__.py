"""recurlab: a desk-scale laboratory for recurrence in linear dynamics.

Finite-horizon density calculus on subsets of N0, an exactly representable
operator zoo (block cycles, weighted backward shifts, diagonal rotations,
the dyadic row rotation, affine compositions, matrices), return-set
extraction with exact arithmetic where the data allows it, a recurrence-
hierarchy classifier, and a harness of replayable theorem checks.
"""

__version__ = "0.1.0"

from .families import (CutShiftPaste, DensityReport, IndexWindow,
                       IpProbeResult, SetPredicate, SyndeticCertificate,
                       arithmetic_certificate, contract, cut_shift_paste,
                       default_banach_schedule, density_report, dilate,
                       ip_generate, ip_star_probe, syndetic_certificate)
from .operators import (AffineComposition, BlockCycle, Diagonal,
                        DyadicRowSpace, EigenStructure, EntireCoefficients,
                        FiniteDim, FiniteRowVector, Matrix, Power, RowRotation,
                        RowState, Scaled, SequenceLp, SequenceSup,
                        SparseVector, WeightedBackwardShift, apply,
                        continuity_bound_check, continuity_bound_constant,
                        diff_seminorm, eigen_structure, exact_state_period,
                        power_apply, seminorm, state_exact_eq)
from .orbits import (CoveringReport, GrowthCurve, PowerBoundVerdict,
                     ReturnSetRecord, distance_profile, orbit_growth,
                     power_bounded_probe, return_set, return_sets,
                     totally_bounded_probe)
from .classify import (Label, LevelEvidence, RecurrenceVerdict,
                       RefutationCertificate, Thresholds,
                       blockcycle_rrec_refutation, classify, window_evidence)
from .checks import (CheckOutcome, Family, cut_shift_paste_check,
                     diagonal_criterion_check, eigenvector_span_check,
                     f_recurrence_check, kronecker_return_check,
                     kronecker_window, named_families,
                     matrix_criterion_check, minimality_separation_check,
                     power_consistency_check, scaling_consistency_check,
                     shift_series_check, translation_invariance_check)
from .rules import Rule
from .values import ExactSqrt, Phase, rot
