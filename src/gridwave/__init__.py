"""First-quantized real-space grid quantum dynamics emulator.

Wavefunctions live on registers of qubits as 2^N complex amplitudes; time
evolution alternates diagonal kinetic phases in momentum space and diagonal
potential phases on the position grid.  Each register axis takes its
kinetic step as one pass: one dense block matrix on an axis narrower than
128 points, its Fourier transform, phases and transform back on a wider one;
the lowest axes go a cache-sized slab at a time, each pass writing its axis
transposed into a scratch slab.  A pass splits its slabs over as many
threads as numpy's BLAS pool holds (``--threads``), with the same bytes at
any count.
On top of that cycle sit phase-probe energy estimation, boundary damping by
real absorbing factors in the position table, imaginary-time state
preparation, exchange symmetrisation, per-step patch corrections, and
closed-form resource audits.
"""

from .errors import (CeilingExceededError, ConfigError, DegenerateStateError,
                     GridwaveError, LayoutError, PostSelectionError,
                     ResolutionWarning)
from .grid import SimulationBox, pixel_function
from .hamiltonian import (AttenuationSpec, ExplicitRegion, HamiltonianSpec,
                          Nucleus, ParticleSpec, UniformEdgeRegion)
from .registers import (Particle, RegisterLayout, Span, particle_layout,
                        span_values)
from .statevector import (MeasurementRecord, StateVector, apply_inverse_qft,
                          apply_qft, controlled_apply, enlarge_particle,
                          fourier_matrix, inner_product, measure_qubit,
                          register_add_sub, swap_particle_registers)
from .propagator import (StepPlan, compile_step, kinetic_constant, propagate,
                         split_step_inverse)
from .states import (Gaussian, Hydrogen2D, Hydrogen3D, Superposition,
                     bhattacharyya, discretize, exchange_product,
                     gaussian_wavepacket, generalized_laguerre,
                     hydrogen2d_eigenstate, hydrogen2d_energy,
                     hydrogen3d_eigenstate, spherical_harmonic)
from .observables import (EnergyEstimate, TimeSeries, autocorrelation,
                          escape_tracker, fit_energy_from_signal,
                          multi_qubit_phase_estimation, phase_probe_series,
                          phase_register_distribution, probability_density,
                          sampled_energy_expectation)
from .prep import (ImaginaryTimeParams, ImaginaryTimeRun, SynthSpectrum,
                   align_energies, antisymmetrize_tagged, imaginary_time_run,
                   imaginary_time_step, state_edit_remove)
from .corrections import (CoreCorrection, apply_core_correction,
                          derive_core_correction, derive_correction,
                          patch_indices, pick_core_window)
from .dense import build_dense_step_matrices, hamiltonian_eig, pixel_hamiltonian
from .resources import (MoleculeSpec, PRESETS, advise_box, audit,
                        gate_depth_estimate, qubits_required)

__version__ = "0.1.0"
