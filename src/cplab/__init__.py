"""Numerical laboratory for the retarded van der Waals potential of two
harmonically trapped dipoles coupled to a cutoff transverse field.

The package computes exact ground-state energies of the lattice-regularized
quadratic Hamiltonians, the resolvent trace series for the binding energy
with analytic tail bounds, and the continuum fourth-order terms whose
``R**-7`` asymptotics carry the Casimir-Polder constant.  Every analytic
bound used by the series machinery is mirrored by a runnable check in the
test suite.
"""

__version__ = "0.1.0"

from .errors import (AccuracyError, ClassificationError, ConfigError,
                     CplabError, EmptyLatticeError, FitDomainError,
                     IntegrabilityError, InvalidParameterError,
                     NotPositiveSemidefiniteError, SeriesDivergenceError,
                     TailBoundUnavailableError)
from .model import (ChargeProfile, ConstraintReport, Geometry, Lattice,
                    ModelParams, OrbitTable, PolarizationPair, build_lattice,
                    check_constraints, form_factor, lattice_norm,
                    make_custom_profile, make_gaussian_profile, polarization,
                    polarization_basis, profile_norm)
from .oscillator import (EnergyResult, LatticePeriodicityWarning,
                         QuadraticForm, assemble_one_electron,
                         assemble_two_electron, binding_energy_exact,
                         build_coupling, ground_energy)
from .quadrature import (IntegrationResult, QuadratureSpec,
                         integrate_half_line, integrate_interval)
from .traces import (IndexWord, TraceSeries, TraceSystem, d_envelope,
                     mixed_even_words, series_binding, series_one_electron,
                     trace_word, word_bound)
from .continuum import (FourthOrderResult, ab_identity_check,
                        angular_bracket_kernels, angular_factor,
                        closed_integral, cp_constant, fourth_order_error,
                        fourth_order_main, integral_quadrature_oracle)
from .asymptotics import (PowerFit, SweepResult, convergence_study,
                          fit_power_law, sweep_R)

__all__ = [name for name in dir() if not name.startswith("_")]
