"""Autocorrelation, phase-probe energy estimation, densities, escape tracking.

The paper's |+>-controlled evolutions (the single-qubit phase probe and the
S-qubit phase register) run here without their ancillas: the |0> branch
never moves, so every readout is a function of the autocorrelation
c(k) = <psi|U^k|psi> along one evolved copy of the state
(``statevector.controlled_apply`` keeps the controlled circuit as the
reference).  These exact probabilities are what an emulator can read that
hardware cannot; the shot-sampled mode exists to show the statistical cost a
real device pays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, GridwaveError, LayoutError
from .hamiltonian import HamiltonianSpec
from .propagator import StepKernel, StepPlan, compile_step
from .registers import span_values
from .statevector import StateVector, inner_product, pairwise_sum
# unused here; benchmark/tracing.py wraps this name in this module's namespace
from .statevector import controlled_apply  # noqa: F401


@dataclass
class TimeSeries:
    times: np.ndarray
    values: np.ndarray
    label: str = ""

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
    method: str            # phase-fit | spectrum-peak | phase-register | sampled-expectation
    uncertainty: float = 0.0

    def __post_init__(self):
        if self.uncertainty < 0:
            raise ValueError("uncertainty must be non-negative")


def autocorrelation(initial: StateVector, current: StateVector) -> complex:
    """Overlap of the evolved state against the start state; for an eigenstate
    of energy E this traces exp(-i*E*t)."""
    return inner_product(initial, current)


# -- single-ancilla phase probe ----------------------------------------------

def compile_unitary_step(state: StateVector, plan: StepPlan,
                         spec: HamiltonianSpec) -> StepKernel:
    """The cycle U of a |+>-controlled evolution on ``state``.

    The readouts below are exact functions of c(k) and U^k psi only for a
    unitary U, so a damped plan is refused.
    """
    if plan.attenuation is not None:
        raise ConfigError("controlled evolution needs the unitary cycle; "
                          "boundary damping is not supported here",
                          field="plan.attenuation")
    return compile_step(state.layout, plan, spec)


def plus_probability(c):
    """Probability of reading |+> on a probe that controlled U^k on a unit
    state: (1 + Re c)/2 for the autocorrelation c = <psi|U^k|psi>
    (elementwise on an array of them)."""
    return (1.0 + np.real(c)) / 2.0


def ipe_probability(state: StateVector, plan: StepPlan, spec: HamiltonianSpec,
                    steps: int) -> float:
    """<+| probability of a |+> probe after ``steps`` cycles conditioned on it.

    The probe's |0> branch never moves, so this is plus_probability of
    c(steps), read off one evolved copy; ``state`` is left untouched.
    """
    kernel = compile_unitary_step(state, plan, spec)
    work = state.copy()
    for _ in range(steps):
        kernel.apply(work)
    return plus_probability(autocorrelation(state, work))


def phase_probe_series(initial: StateVector, plan: StepPlan, spec: HamiltonianSpec,
                       total_steps: int, every: int) -> TimeSeries:
    """a(t): the <+| probability after t/dt conditioned cycles, sampled on a
    regular cadence.

    The probe is never measured mid-run, so one evolved copy of ``initial``
    reproduces exactly the per-time restart statistics hardware would gather.
    """
    if every < 1:
        raise ConfigError("cadence must be >= 1", field="observables.ipe.every")
    kernel = compile_unitary_step(initial, plan, spec)
    work = initial.copy()
    times, values = [], []
    for step in range(1, total_steps + 1):
        kernel.apply(work)
        if step % every == 0:
            times.append(step * plan.dt)
            values.append(plus_probability(autocorrelation(initial, work)))
    return TimeSeries(np.array(times), np.array(values), label="plus_probability")


# -- energy extraction from a(t) ----------------------------------------------

def signal_spectrum(series: TimeSeries):
    """Power spectrum of 2a(t)-1 with the DC term removed.

    Returns (angular frequencies >= 0, power).  The frequency spacing
    2*pi/(M*dt_sample) is the stated resolution of any peak read off it.
    """
    y = 2.0 * np.asarray(series.values, dtype=np.float64) - 1.0
    m = y.size
    dt = float(series.times[1] - series.times[0])
    power = np.abs(np.fft.rfft(y - y.mean())) ** 2
    freqs = 2.0 * np.pi * np.fft.rfftfreq(m, d=dt)
    return freqs, power


def _parabolic_peak(freqs: np.ndarray, power: np.ndarray, idx: int) -> float:
    if 0 < idx < power.size - 1:
        a, b, c = power[idx - 1], power[idx], power[idx + 1]
        denom = a - 2 * b + c
        if denom != 0:
            return float(freqs[idx] + 0.5 * (a - c) / denom * (freqs[1] - freqs[0]))
    return float(freqs[idx])


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


def fit_energy_from_signal(series: TimeSeries, mode: str = "fit",
                           assume_bound: bool = True) -> EnergyEstimate:
    """Extract |E| from a(t) = cos^2(E t/2) and sign it by convention.

    ``fit`` tracks the accumulated phase arccos(2a-1) = |E|t (fold-unwrapped),
    then refines by least squares against the cosine model; this resolves
    even signals far shorter than one period.  ``spectrum`` reports the
    interpolated dominant Fourier peak and needs at least half a period.
    The signal is even in E, so the sign is a convention: bound-state
    negative by default.
    """
    if len(series) < 8:
        raise ConfigError("need at least 8 samples", field="observables.ipe")
    y = 2.0 * np.asarray(series.values, dtype=np.float64) - 1.0
    t = series.times
    span = float(t[-1] - t[0])
    if np.ptp(y) < 1e-13:
        raise GridwaveError("flat phase-probe signal: energy unresolvable")
    resolution = 2.0 * np.pi / span
    if mode == "spectrum":
        freqs, power = signal_spectrum(series)
        if power.size < 2 or not np.any(power[1:] > 0):
            raise GridwaveError("flat phase-probe signal: energy unresolvable")
        idx = 1 + int(np.argmax(power[1:]))
        omega = _parabolic_peak(freqs, power, idx)
        if omega * span < np.pi:
            raise GridwaveError("signal spans less than half a period; "
                                "the spectrum cannot resolve it")
    elif mode == "fit":
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
            pass
    else:
        raise ValueError("mode must be 'fit' or 'spectrum'")
    sign = -1.0 if assume_bound else 1.0
    return EnergyEstimate(sign * omega, "phase-fit" if mode == "fit" else "spectrum-peak",
                          resolution)


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
    m = 1 << s_qubits
    kernel = compile_unitary_step(state, plan, spec)
    work = state.copy()
    lags = [autocorrelation(state, work)]
    for _ in range(m - 1):
        for _ in range(base_steps):
            kernel.apply(work)
        lags.append(autocorrelation(state, work))
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
    ones.  Exact from amplitudes by default; with ``shots`` the probabilities
    are estimated from that many samples of each register instead."""
    from .dense import diagonal_vectors
    from .statevector import apply_inverse_qft

    layout = state.layout
    kin_diag, pot_diag = diagonal_vectors(layout, spec)
    work = apply_inverse_qft(state.copy(),
                             [s for p in layout.particles for s in p.spans])
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
    e = float(pairwise_sum(pk * kin_diag) + pairwise_sum(px * pot_diag))
    return EnergyEstimate(e, "sampled-expectation", unc)


# -- densities and escape --------------------------------------------------------

def probability_density(state: StateVector, particle: int,
                        ascending: bool = True) -> np.ndarray:
    """Marginal position distribution of one particle, axes ordered (x, y, z).

    With ``ascending`` the grid axes are reordered by increasing coordinate,
    ready for export; otherwise raw register order is kept.
    """
    layout = state.layout
    spans = layout.particles[particle].spans
    n = state.num_qubits
    probs = np.abs(state.amps) ** 2
    shape = []
    keep_axes = {}
    pos = n
    for s in sorted((x for x in layout.all_spans()), key=lambda x: -x.start):
        if s.stop > pos:
            raise LayoutError("layout spans overlap")
        if pos > s.stop:
            shape.append(1 << (pos - s.stop))
        keep_axes[(s.start, s.width)] = len(shape)
        shape.append(1 << s.width)
        pos = s.start
    if pos > 0:
        shape.append(1 << pos)
    grid_axes = [keep_axes[(s.start, s.width)] for s in spans]
    other = tuple(a for a in range(len(shape)) if a not in grid_axes)
    marg = probs.reshape(shape).sum(axis=other)
    # axes currently ordered by descending start, i.e. (z, y, x); flip to (x, y, z)
    marg = np.transpose(marg, axes=tuple(reversed(range(marg.ndim))))
    if ascending:
        for d, s in enumerate(spans):
            order = np.argsort(span_values(s.width), kind="stable")
            marg = np.take(marg, order, axis=d)
    return marg


@dataclass
class EscapeTracker:
    """Accumulates per-step detection probabilities into a cumulative curve."""

    times: list = field(default_factory=list)
    cumulative: list = field(default_factory=list)
    _survival: float = 1.0

    def record(self, t: float, increment: float):
        if not 0.0 <= increment <= 1.0:
            raise ValueError(f"increment {increment} outside [0, 1]")
        self._survival *= 1.0 - increment
        self.times.append(t)
        self.cumulative.append(1.0 - self._survival)

    def series(self) -> TimeSeries:
        return TimeSeries(np.array(self.times), np.array(self.cumulative),
                          label="escape_probability")


def escape_tracker(increments, times=None) -> TimeSeries:
    """Cumulative escape probability from a stream of per-step detection
    probabilities (survival-product accumulation)."""
    tracker = EscapeTracker()
    for i, inc in enumerate(increments):
        t = times[i] if times is not None else float(i + 1)
        tracker.record(t, float(inc))
    return tracker.series()
