"""First-quantized real-space grid quantum dynamics emulator.

Wavefunctions live on registers of qubits as 2^N complex amplitudes; time
evolution alternates diagonal kinetic phases in momentum space and diagonal
potential phases on the position grid, linked by one joint Fourier transform
of all particle registers.  On top of that cycle sit phase-probe energy
estimation, measurement-based boundary damping, imaginary-time state
preparation, exchange symmetrisation, per-step patch corrections, and
closed-form resource audits.
"""

from .errors import (CeilingExceededError, ConfigError, DegenerateStateError,
                     GridwaveError, LayoutError, PostSelectionError,
                     ResolutionWarning, SingularPhaseError)
from .grid import SimulationBox, pixel_function
from .hamiltonian import (AttenuationSpec, ExplicitRegion, HamiltonianSpec,
                          Nucleus, ParticleSpec, UniformEdgeRegion)
from .registers import (Particle, RegisterLayout, Span, get_reg_val,
                        particle_layout, span_values)
from .statevector import (MeasurementRecord, StateVector, apply_diagonal_phase,
                          apply_inverse_qft, apply_qft, controlled_apply,
                          enlarge_particle, fidelity, inner_product,
                          measure_qubit, multi_controlled_x_rotation,
                          pairwise_sum, register_add_sub,
                          swap_particle_registers)
from .propagator import (StepPlan, compile_step, kinetic_constant, propagate,
                         split_step_inverse)
from .states import (Gaussian, Hydrogen2D, Hydrogen3D, Superposition,
                     antisymmetrize_direct, bhattacharyya, discretize,
                     gaussian_wavepacket, generalized_laguerre,
                     hydrogen2d_eigenstate, hydrogen2d_energy,
                     hydrogen3d_eigenstate, spherical_harmonic)
from .observables import (EnergyEstimate, EscapeTracker, TimeSeries,
                          autocorrelation, escape_tracker,
                          fit_energy_from_signal, ipe_probability,
                          multi_qubit_phase_estimation, phase_probe_series,
                          phase_register_distribution, probability_density,
                          sampled_energy_expectation, signal_spectrum)
from .prep import (ImaginaryTimeParams, ImaginaryTimeRun, SynthSpectrum,
                   align_energies, antisymmetrize_tagged, ideal_exchange_state,
                   imaginary_time_run, imaginary_time_step,
                   permuted_tagged_state, state_edit_remove)
from .corrections import (CoreCorrection, apply_core_correction,
                          derive_core_correction, derive_correction,
                          patch_indices, pick_core_window)
from .dense import (build_dense_step_matrices, best_overlap_eigenpair,
                    fourier_matrix, hamiltonian_eig, pixel_hamiltonian)
from .resources import (MoleculeSpec, PRESETS, advise_box, audit,
                        gate_depth_estimate, qubits_required)

__version__ = "0.1.0"
