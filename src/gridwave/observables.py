"""Autocorrelation, phase-probe energy estimation, densities, escape tracking.

The paper's |+>-controlled evolutions (the single-qubit phase probe, the
S-qubit phase register and, in ``prep``, the state edit) run here without
their ancillas: the |0> branch never moves, so each readout comes off one
copy of the state that ``propagator.propagate`` evolves, and the probe and
register readouts are functions of the autocorrelation c(k) = <psi|U^k|psi>
that a callback collects along it (``tests/oracles.py`` keeps the controlled
circuits, ``controlled_evolution_plus`` and ``phase_register_readout``, as
the reference).  The probe's energy comes from one cosine-phase fit.  These
exact probabilities are what an emulator can read that hardware cannot; the
shot-sampled mode exists to show the statistical cost a real device pays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GridwaveError
from .hamiltonian import HamiltonianSpec
from .propagator import StepPlan, basis_energies, propagate, span_axes
from .registers import span_values
from . import statevector
from .statevector import StateVector, apply_inverse_qft
# unused here; benchmark/tracing.py wraps this name in this module's namespace
from .statevector import controlled_apply  # noqa: F401


@dataclass
class TimeSeries:
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        self.values = np.asarray(self.values)
        if self.times.ndim != 1 or self.times.shape != self.values.shape[:1]:
            raise ValueError("times and values must align")
        if self.times.size > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")

    def __len__(self):
        return self.times.size


@dataclass
class EnergyEstimate:
    energy: float          # Hartree
    method: str            # phase-fit | phase-register | sampled-expectation
    uncertainty: float = 0.0

    def __post_init__(self):
        if self.uncertainty < 0:
            raise ValueError("uncertainty must be non-negative")


def autocorrelation(initial: StateVector, current: StateVector) -> complex:
    """Overlap of the evolved state against the start state; for an eigenstate
    of energy E this traces exp(-i*E*t)."""
    # looked up at call time, where benchmark/tracing.py wraps it
    return statevector.inner_product(initial, current)


# -- single-ancilla phase probe ----------------------------------------------

def _controlled_evolution(state: StateVector, plan: StepPlan, spec: HamiltonianSpec,
                          steps: int, callbacks=()) -> StateVector:
    """The moving branch of a |+>-controlled U^steps on ``state``: a copy
    evolved by ``propagate`` (``callbacks`` read it after each cycle);
    ``state`` is left untouched.

    The readouts are exact functions of c(k) and U^k psi only for a unitary
    U, so a damped plan is refused.
    """
    if plan.attenuation is not None:
        raise ConfigError("controlled evolution needs the unitary cycle; "
                          "boundary damping is not supported here",
                          field="plan.attenuation")
    return propagate(state.copy(), plan, spec, steps, callbacks=callbacks)


def plus_probability(c):
    """Probability of reading |+> on a probe that controlled U^k on a unit
    state: (1 + Re c)/2 for the autocorrelation c = <psi|U^k|psi>
    (elementwise on an array of them)."""
    return (1.0 + np.real(c)) / 2.0


def phase_probe_series(initial: StateVector, plan: StepPlan, spec: HamiltonianSpec,
                       total_steps: int, every: int) -> TimeSeries:
    """a(t): the <+| probability after t/dt conditioned cycles, sampled on a
    regular cadence.

    The probe is never measured mid-run, so one evolved copy of ``initial``
    reproduces exactly the per-time restart statistics hardware would gather.
    """
    if every < 1:
        raise ConfigError("cadence must be >= 1", field="observables.ipe.every")
    times, lags = [], []

    def read(step, t, current):
        if step % every == 0:
            times.append(t)
            lags.append(autocorrelation(initial, current))

    _controlled_evolution(initial, plan, spec, total_steps, callbacks=(read,))
    return TimeSeries(np.array(times), plus_probability(np.array(lags)))


# -- energy extraction from a(t) ----------------------------------------------

def _unfold_cosine_phase(y: np.ndarray) -> np.ndarray:
    """Monotone phase p_k with cos(p_k) = y_k, assuming the true phase only
    grows along the series (single-component signal)."""
    theta = np.arccos(np.clip(y, -1.0, 1.0))
    out = np.empty_like(theta)
    out[0] = theta[0]
    two_pi = 2.0 * np.pi
    for k in range(1, theta.size):
        m = np.floor(out[k - 1] / two_pi)
        best = None
        for mm in (m, m + 1, m + 2):
            for s in (1.0, -1.0):
                cand = two_pi * mm + s * theta[k]
                if cand >= out[k - 1] - 1e-9 and (best is None or cand < best):
                    best = cand
        out[k] = best
    return out


def fit_energy_from_signal(series: TimeSeries) -> EnergyEstimate:
    """Extract |E| from a(t) = cos^2(E t/2) and sign it by convention.

    Tracks the accumulated phase arccos(2a-1) = |E|t (fold-unwrapped), then
    refines by least squares against the cosine model; this resolves even
    signals far shorter than one period.  The signal is even in E, so the
    sign is a convention: negative, as for a bound state.
    """
    if len(series) < 8:
        raise ConfigError("need at least 8 samples", field="observables.ipe")
    y = 2.0 * np.asarray(series.values, dtype=np.float64) - 1.0
    t = series.times
    if np.ptp(y) < 1e-13:
        raise GridwaveError("flat phase-probe signal: energy unresolvable")
    from scipy.optimize import least_squares
    phase = _unfold_cosine_phase(y)
    # slope through the origin (a(0)=1 pins the zero intercept)
    omega0 = float(np.dot(phase, t) / np.dot(t, t))
    if omega0 <= 0.0:
        raise GridwaveError("phase tracking found no accumulation")

    def resid(p):
        amp, omega, phi = p
        return amp * np.cos(omega * t + phi) - y

    sol = least_squares(resid, x0=[1.0, omega0, 0.0],
                        bounds=([0.0, 0.0, -np.pi], [2.0, np.inf, np.pi]))
    omega = float(abs(sol.x[1]))
    jac = sol.jac
    try:
        cov = np.linalg.inv(jac.T @ jac) * 2 * sol.cost / max(len(t) - 3, 1)
        resolution = float(np.sqrt(max(cov[1, 1], 0.0)))
    except np.linalg.LinAlgError:
        resolution = 2.0 * np.pi / float(t[-1] - t[0])
    return EnergyEstimate(-omega, "phase-fit", resolution)


# -- multi-qubit phase register ------------------------------------------------

def phase_register_distribution(state: StateVector, plan: StepPlan,
                                spec: HamiltonianSpec, s_qubits: int,
                                base_steps: int) -> np.ndarray:
    """Readout distribution of the standard S-ancilla phase-estimation circuit.

    Ancilla qubit j controls 2^j * base_steps cycles; the register is then
    Fourier-analysed and read in the computational basis.  Readout y encodes
    the phase 2*pi*y/2^S accumulated over base_steps cycles.

    Register value m holds U^(m*base) psi, so with M = 2^S the readout is
    P(y) = M^-2 sum_{|d|<M} (M-|d|) e^{2 pi i y d/M} c(d*base), where
    c(-k) = conj c(k): the M-1 lags of one evolved copy fix it.
    """
    if s_qubits < 1:
        raise ConfigError("need at least one phase qubit")
    if base_steps < 1:
        raise ConfigError("base_steps must be >= 1")
    m = 1 << s_qubits
    lags = [autocorrelation(state, state)]

    def read(step, t, current):
        if step % base_steps == 0:
            lags.append(autocorrelation(state, current))

    _controlled_evolution(state, plan, spec, (m - 1) * base_steps, callbacks=(read,))
    # the d < 0 terms are the conjugates of the d > 0 ones: 2 Re of a one-sided
    # sum, with the d = 0 weight halved
    weights = (m - np.arange(m)).astype(np.float64)
    weights[0] /= 2.0
    probs = 2.0 * np.real(np.fft.ifft(weights * np.asarray(lags))) / m
    return np.clip(probs, 0.0, None)


def multi_qubit_phase_estimation(state: StateVector, plan: StepPlan,
                                 spec: HamiltonianSpec, s_qubits: int,
                                 base_steps: int,
                                 rng: np.random.Generator | None = None) -> EnergyEstimate:
    """Energy from one shot (or the modal outcome) of the S-qubit phase register."""
    dist = phase_register_distribution(state, plan, spec, s_qubits, base_steps)
    y = int(rng.choice(dist.size, p=dist / dist.sum())) if rng is not None \
        else int(np.argmax(dist))
    m = 1 << s_qubits
    phase = 2.0 * np.pi * y / m
    if phase > np.pi:            # wrap to (-pi, pi] for signed energies
        phase -= 2.0 * np.pi
    t_base = base_steps * plan.dt
    return EnergyEstimate(phase / t_base, "phase-register",
                          2.0 * np.pi / (m * t_base))


# -- direct sampling energy ------------------------------------------------------

def sampled_energy_expectation(state: StateVector, spec: HamiltonianSpec,
                               shots: int | None = None,
                               rng: np.random.Generator | None = None) -> EnergyEstimate:
    """<H_kin> from momentum-space probabilities plus <H_int> from position
    ones, weighted by the energy tables the step kernel exponentiates.
    Exact from amplitudes by default; with ``shots`` the probabilities are
    estimated from that many samples of each register instead."""
    kin_diag, pot_diag = basis_energies(state.layout, spec)
    work = apply_inverse_qft(state.copy(), span_axes(state.layout))
    pk = np.abs(work.amps) ** 2
    px = np.abs(state.amps) ** 2
    if shots is not None:
        if rng is None:
            raise ValueError("shot sampling needs rng")
        pk = np.bincount(rng.choice(pk.size, size=shots, p=pk / pk.sum()),
                         minlength=pk.size) / shots
        px = np.bincount(rng.choice(px.size, size=shots, p=px / px.sum()),
                         minlength=px.size) / shots
        unc = float(np.std(kin_diag) + np.std(pot_diag)) / np.sqrt(shots)
    else:
        unc = 0.0
    e = float(np.add.reduce(pk * kin_diag) + np.add.reduce(px * pot_diag))
    return EnergyEstimate(e, "sampled-expectation", unc)


# -- densities and escape --------------------------------------------------------

def probability_density(state: StateVector, particle: int) -> np.ndarray:
    """Marginal position distribution of one particle, axes ordered (x, y, z),
    each by increasing coordinate, ready for export."""
    spans = state.layout.particles[particle].spans
    full_shape, table_shape, order = statevector._span_axes(state.num_qubits, list(spans))
    other = tuple(a for a, t in enumerate(table_shape) if t == 1)
    marg = (np.abs(state.amps) ** 2).reshape(full_shape).sum(axis=other)
    # the kept axes run by descending start (span ``order[j]`` on axis j)
    marg = np.transpose(marg, axes=np.argsort(order))
    for d, s in enumerate(spans):
        marg = np.take(marg, np.argsort(span_values(s.width), kind="stable"), axis=d)
    return marg


def escape_tracker(increments, times=None) -> TimeSeries:
    """Cumulative escape probability from a stream of per-step detection
    probabilities (survival-product accumulation)."""
    increments = np.asarray(increments, dtype=np.float64)
    bad = ~((increments >= 0.0) & (increments <= 1.0))
    if bad.any():
        raise ValueError(f"increment {increments[bad][0]} outside [0, 1]")
    if times is None:
        times = np.arange(1, increments.size + 1, dtype=np.float64)
    return TimeSeries(times, 1.0 - np.cumprod(1.0 - increments))
