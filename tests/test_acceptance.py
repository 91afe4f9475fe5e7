"""End-to-end acceptance checks with pinned tolerances.

Each test prints one PASS line on success (visible with `pytest -s` or in the
captured output); a failure prints nothing and fails the assertion instead.
Heavier anchors (dense diagonalisations) are shared through session caches.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from gridwave.grid import SimulationBox
from gridwave.hamiltonian import (AttenuationSpec, HamiltonianSpec, Nucleus,
                                  ParticleSpec, UniformEdgeRegion)
from gridwave.observables import (fit_energy_from_signal,
                                  phase_probe_series, probability_density,
                                  sampled_energy_expectation)
from gridwave.propagator import StepPlan, compile_step
from gridwave.registers import particle_layout
from gridwave.statevector import StateVector, inner_product
from gridwave.states import (Gaussian, Hydrogen2D, Hydrogen3D, bhattacharyya,
                             discretize, exchange_product, hydrogen2d_energy)
from .conftest import cached_eig, hydrogen_spec, random_state
from .oracles import dense_split_cycle, tag_erasure_success

pytestmark = pytest.mark.acceptance

HYD2 = hydrogen_spec(2)


def report(num, detail):
    print(f"criterion {num:>2}: PASS — {detail}")


def _cluster_energy(evals, evecs, target, tol=1e-6):
    """Eigenvalue of the (possibly degenerate) cluster a target overlaps most."""
    w = np.abs(evecs.conj().T @ target) ** 2
    order = np.argsort(evals)
    clusters, cur = [], [order[0]]
    for i in order[1:]:
        if evals[i] - evals[cur[-1]] < tol:
            cur.append(i)
        else:
            clusters.append(cur)
            cur = [i]
    clusters.append(cur)
    best = max(clusters, key=lambda c: w[c].sum())
    weight = w[best].sum()
    return float((evals[best] * w[best]).sum() / weight), float(weight)


# -- 1: single-cycle oracle equivalence ------------------------------------------

def test_criterion_01_oracle_equivalence(rng):
    t0 = time.time()
    cases = []
    # one particle in 2D at n_r=4
    u2d = dense_split_cycle(4, 2, 1, 10.0, 0.5, 0.01, [1.0], [-1.0],
                            [((0.0, 0.0), 1.0)], [[0.0]])
    box2 = SimulationBox(2, 4, 10.0, 0.5)
    cases.append((particle_layout(1, 2, 4, box=box2), HYD2, 0.01, u2d))
    # two particles in 1D at n_r=3
    u1d = dense_split_cycle(3, 1, 2, 8.0, 0.5, 0.02, [1.0, 1.0], [-1.0, -1.0],
                            [((0.0,), 1.0)], [[0.0, 1.0], [1.0, 0.0]])
    box1 = SimulationBox(1, 3, 8.0, 0.5)
    spec2p = HamiltonianSpec((ParticleSpec(1.0, -1.0), ParticleSpec(1.0, -1.0)),
                             (Nucleus((0.0,), 1.0),))
    cases.append((particle_layout(2, 1, 3, box=box1), spec2p, 0.02, u1d))
    worst = 0.0
    for layout, spec, dt, u in cases:
        kernel = compile_step(layout, StepPlan(dt), spec)
        for _ in range(50):
            psi = random_state(rng, layout.num_qubits)
            state = StateVector(psi.copy(), layout)
            kernel.apply(state)
            worst = max(worst, float(np.abs(state.amps - u @ psi).max()))
    elapsed = time.time() - t0
    assert worst < 1e-10
    assert elapsed < 10.0
    report(1, f"50+50 random states, elementwise error {worst:.2e} (<1e-10), "
              f"{elapsed:.1f}s")


# -- 2: analytic energies ----------------------------------------------------------

def test_criterion_02_analytic_energies():
    assert hydrogen2d_energy(0) == -2.0
    assert hydrogen2d_energy(1) == -2.0 / 9.0
    assert hydrogen2d_energy(2) == -0.08
    report(2, "E_n = -1/(2(n+1/2)^2) exact at n=0,1,2")


# -- 3: excited-eigenstate stability ------------------------------------------------

def test_criterion_03_eigenstate_stability():
    t0 = time.time()
    box = SimulationBox(2, 7, 40.0, 0.5)
    layout = particle_layout(1, 2, 7, box=box)
    amps, _ = discretize(Hydrogen2D(1, 1), box)
    state = StateVector(amps.copy(), layout)
    plan = StepPlan(1e-3)
    series = phase_probe_series(state, plan, HYD2, total_steps=1500, every=10)
    final_ac = 2 * series.values[-1] - 1    # only |a| is needed; recompute below
    # run the plain propagation for the autocorrelation modulus
    work = StateVector(amps.copy(), layout)
    kernel = compile_step(layout, plan, HYD2)
    for _ in range(1500):
        kernel.apply(work)
    modulus = abs(inner_product(StateVector(amps, layout), work))
    assert modulus >= 0.999
    est = fit_energy_from_signal(series)
    # anchor: cluster-projected eigenvalues at n_r=5,6 extrapolated one level
    # under the observed error-halving law
    anchors = {}
    for n_r in (5, 6):
        bx = SimulationBox(2, n_r, 40.0, 0.5)
        evals, evecs = cached_eig(bx, HYD2)
        a, _ = discretize(Hydrogen2D(1, 1), bx)
        anchors[n_r], weight = _cluster_energy(evals, evecs, a)
        assert weight > 0.99
    e_inf = 2 * anchors[6] - anchors[5]
    e_pred = e_inf + (anchors[6] - e_inf) / 2.0
    err = abs(est.energy - e_pred)
    elapsed = time.time() - t0
    assert err < 2e-3
    assert elapsed < 300.0
    report(3, f"|a(T)|={modulus:.6f} (>=0.999), probe-fit E={est.energy:.6f} "
              f"vs anchor {e_pred:.6f} (|dE|={err:.1e} < 2e-3), {elapsed:.0f}s")


# -- 4: direct-sampling energy drift -------------------------------------------------

@pytest.mark.slow
def test_criterion_04_bad_observable_divergence():
    t0 = time.time()
    box = SimulationBox(2, 8, 10.0, 0.5)
    layout = particle_layout(1, 2, 8, box=box)
    amps, _ = discretize(Hydrogen2D(0, 0), box)
    drifts = {}
    for dt, steps in ((0.01, 150), (1e-4, 15000)):
        state = StateVector(amps.copy(), layout)
        e0 = sampled_energy_expectation(state, HYD2).energy
        kernel = compile_step(layout, StepPlan(dt), HYD2)
        for _ in range(steps):
            kernel.apply(state)
        e1 = sampled_energy_expectation(state, HYD2).energy
        drifts[dt] = abs(e1 - e0)
    ratio = drifts[0.01] / drifts[1e-4]
    elapsed = time.time() - t0
    assert ratio >= 1e3
    assert elapsed < 600.0
    report(4, f"sampled-energy drift {drifts[0.01]:.3f} Eh at dt=0.01 vs "
              f"{drifts[1e-4]:.2e} at dt=1e-4 (ratio {ratio:.0f} >= 1e3), "
              f"{elapsed:.0f}s")


# -- 5: core patch correction ----------------------------------------------------------

@pytest.mark.slow
def test_criterion_05_patch_correction_improvement():
    from gridwave.corrections import derive_correction
    from gridwave.dense import reference_ground
    t0 = time.time()
    box = SimulationBox(2, 6, 10.0, 0.5)
    dt = 0.004
    _, ground = reference_ground(box, HYD2)
    layout = particle_layout(1, 2, 6, box=box)
    corrections = {}
    for n_l in (1, 2):
        # from the window rows of the reference step and of the cycle
        corrections[n_l] = derive_correction(box, HYD2, dt, n_l)
        q = (1 << n_l) ** 2
        residual = np.abs(corrections[n_l].u_core.conj().T @ corrections[n_l].u_core
                          - np.eye(q)).max()
        assert residual < 1e-10
    ground = ground.astype(complex)
    devs = {}
    for label, aug in (("none", None), ("2x2", corrections[1]), ("4x4", corrections[2])):
        state = StateVector(ground.copy(), layout)
        kernel = compile_step(layout, StepPlan(dt, augmentation=aug), HYD2)
        marks = []
        for i in range(250):
            kernel.apply(state)
            if (i + 1) % 50 == 0:
                marks.append(abs(1 - abs(np.vdot(ground, state.amps))))
        devs[label] = marks
    # strictly smaller with the 4x4 patch at every 50-step multiple
    for a, b in zip(devs["4x4"], devs["none"]):
        assert a < b
    ratio = devs["none"][-1] / devs["4x4"][-1]
    elapsed = time.time() - t0
    assert ratio >= 10.0
    assert elapsed < 900.0
    report(5, f"|1-|a|| after 250 steps: none {devs['none'][-1]:.2e}, "
              f"2x2 {devs['2x2'][-1]:.2e}, 4x4 {devs['4x4'][-1]:.2e} "
              f"(ratio {ratio:.1f} >= 10), {elapsed:.0f}s")


# -- 6: state editing --------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_06_state_editing():
    from gridwave.prep import state_edit_remove
    t0 = time.time()
    box = SimulationBox(2, 8, 56.0, 0.5)
    layout = particle_layout(1, 2, 8, box=box)
    psi11, _ = discretize(Hydrogen2D(1, 1), box)
    psi22, _ = discretize(Hydrogen2D(2, 2), box)
    mix = (psi11 + psi22) / np.linalg.norm(psi11 + psi22)
    state = StateVector(mix.copy(), layout)
    plan = StepPlan(0.005)
    e1 = hydrogen2d_energy(1)
    edited, p = state_edit_remove(state, e1, plan, HYD2)
    fid = abs(np.vdot(psi22, edited.amps)) ** 2
    assert fid >= 1.0 - 1e-4
    # the surviving component's own plus-probability, measured independently
    pure = StateVector(psi22.copy(), layout)
    _, factor = state_edit_remove(pure, e1, plan, HYD2)
    assert p == pytest.approx(0.5 * factor, abs=5e-3)
    assert factor == pytest.approx(0.713, abs=0.02)
    elapsed = time.time() - t0
    assert elapsed < 600.0
    report(6, f"edited-state fidelity {fid:.6f} (>=1-1e-4), success {p:.4f} "
              f"= 0.5 x {factor:.4f} (factor within 0.02 of 0.713), {elapsed:.0f}s")


# -- 7: imaginary-time ground-state preparation ---------------------------------------------

@pytest.mark.slow
def test_criterion_07_imaginary_time_ground_state():
    from gridwave.prep import ImaginaryTimeParams, imaginary_time_run, imaginary_time_step
    t0 = time.time()
    box = SimulationBox(2, 6, 10.0, 0.5)
    evals, evecs = cached_eig(box, HYD2)
    ground = evecs[:, 0].astype(complex)
    layout = particle_layout(1, 2, 6, box=box)
    amps, _ = discretize(Gaussian((0.0, 0.0), (), (0.5, 0.5)), box)
    dt = 2e-4
    params = ImaginaryTimeParams(0.9, dt)
    state = StateVector(amps.copy(), layout)
    steps = 20000
    run = imaginary_time_run(state, params, StepPlan(dt), HYD2, steps,
                             references={"ground": ground}, record_every=200)
    overlaps = run.overlaps["ground"].values
    assert overlaps[-1] > 0.99
    burn = len(overlaps) // 5
    assert np.all(np.diff(overlaps[burn:]) > -1e-9)
    # per-step success for the exact ground eigenvector: m0^2 e^{-2 E0 dtau}
    # with an O(dtau^2) defect that shrinks ~4x when dt halves
    devs = {}
    for d in (dt, dt / 2):
        par = ImaginaryTimeParams(0.9, d)
        gstate = StateVector(ground.copy(), layout)
        _, prob = imaginary_time_step(gstate, par, StepPlan(d), HYD2)
        devs[d] = abs(prob - 0.81 * np.exp(-2 * evals[0] * par.dtau))
    assert devs[dt] < 1e-4
    assert devs[dt / 2] < devs[dt] / 2.5
    elapsed = time.time() - t0
    assert elapsed < 1200.0
    report(7, f"ground overlap {overlaps[-1]:.4f} (>0.99, monotone after "
              f"burn-in), success-prob defect {devs[dt]:.1e} scaling "
              f"x{devs[dt] / devs[dt / 2]:.1f} per dt halving, {elapsed:.0f}s")


# -- 8: tag-register antisymmetrisation -------------------------------------------------------

def test_criterion_08_antisymmetrisation(rng):
    from gridwave.prep import SynthSpectrum, antisymmetrize_tagged
    t0 = time.time()
    mat = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
    states = tuple(np.linalg.qr(mat)[0][:, i].copy() for i in range(3))
    exact = SynthSpectrum(states, (0.0, 3.0, 7.0), 3)
    out, p = antisymmetrize_tagged(exact)
    assert abs(p - 1.0) < 1e-12
    ideal = exchange_product(states)
    ideal /= np.linalg.norm(ideal)
    assert abs(np.vdot(ideal, out)) ** 2 > 1.0 - 1e-12
    # uniform 0.1 deviation on every level vs the closed-form projection
    shifted = SynthSpectrum(states, (0.1, 3.1, 6.1), 3)
    out2, p2 = antisymmetrize_tagged(shifted)
    expect = tag_erasure_success([0.1, 0.1, 0.1], 3)
    assert abs(p2 - expect) < 1e-10
    assert abs(np.vdot(ideal, out2)) ** 2 > 1.0 - 1e-10
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(8, f"P=3 integer tags: success {p:.12f}; uniform 0.1 deviation: "
              f"{p2:.6f} vs closed form {expect:.6f} (|d|<1e-10), {elapsed:.1f}s")


def test_criterion_08_extended_p5():
    # the published five-particle numbers; the tag protocol of five slots
    # (30 qubits on hardware) runs on the 15 particle qubits alone
    from gridwave.prep import SynthSpectrum, antisymmetrize_tagged
    rng = np.random.default_rng(5)
    mat = rng.normal(size=(8, 5)) + 1j * rng.normal(size=(8, 5))
    states = tuple(np.linalg.qr(mat)[0][:, i].copy() for i in range(5))
    for dev, expect in ((0.025, 0.990), (0.05, 0.960), (0.1, 0.850)):
        energies = tuple(dev + k * 7.0 / 4.0 for k in range(5))
        # align integer spacing: 0,1.75.. does not land on integers; use the
        # published layout instead: integers 0..7 spaced by >= 1
        energies = tuple(dev + e for e in (0.0, 2.0, 4.0, 5.0, 7.0))
        out, p = antisymmetrize_tagged(SynthSpectrum(states, energies, 3))
        assert p == pytest.approx(expect, abs=5e-4)


# -- 9: resource audit ---------------------------------------------------------------------------

def test_criterion_09_resource_audit():
    from gridwave.resources import PRESETS, gate_depth_estimate, qubits_required
    t0 = time.time()
    assert qubits_required(PRESETS["NH3"]) == (10, 420)
    assert qubits_required(PRESETS["C2F6"]) == (10, 2220)
    depth = gate_depth_estimate(10, 74)
    assert depth.per_cycle == 260 * 10 * 10 ** 2
    assert 1e5 <= depth.per_cycle < 1e7 and depth.conservative_order == 6
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(9, f"NH3 -> 420, C2F6 -> 2220 qubits; per-cycle depth "
              f"{depth.per_cycle} ~ O(1e6), {elapsed * 1e3:.0f}ms")


# -- 10: boundary damping ------------------------------------------------------------------------

def test_criterion_10_attenuation_escape():
    t0 = time.time()
    box = SimulationBox(1, 8, 20.0, 0.5)
    layout = particle_layout(1, 1, 8, box=box).with_ancilla("cap")
    atten = AttenuationSpec(UniformEdgeRegion(3, 1.0))
    spec = HamiltonianSpec((ParticleSpec(1.0, -1.0),))
    amps, _ = discretize(Gaussian((-4.0,), (2.0,), (0.5,)), box)
    state = StateVector(np.concatenate([amps, np.zeros_like(amps)]), layout)
    kernel = compile_step(layout, StepPlan(0.01, attenuation=atten), spec)
    survival, cumulative = 1.0, []
    for _ in range(3000):
        sink = []
        kernel.apply(state, sink)
        assert abs(state.norm_sq() - 1.0) < 1e-9
        survival *= 1.0 - sink[0]
        cumulative.append(1.0 - survival)
    cumulative = np.asarray(cumulative)
    assert np.all(np.diff(cumulative) >= -1e-15)
    assert cumulative[-1] >= 0.95
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(10, f"cumulative escape {cumulative[-1]:.4f} (>=0.95), "
               f"non-decreasing, norm kept to 1e-9, {elapsed:.0f}s")


# -- 11: origin-offset robustness ------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_11_origin_offset_robustness():
    # the pixel eigenvalue itself shifts with the offset at coarse grids
    # (measured spread 3.7e-3 at n_r=6, 2.5e-4 at n_r=8, shrinking ~4x per
    # qubit); n_r=9 is the resolution where sub-1e-4 robustness holds
    t0 = time.time()
    energies = []
    for offset in (0.1, 0.2, 0.3, 0.4, 0.5):
        box = SimulationBox(2, 9, 40.0, offset)
        layout = particle_layout(1, 2, 9, box=box)
        amps, _ = discretize(Hydrogen2D(1, 1), box)
        state = StateVector(amps, layout)
        series = phase_probe_series(state, StepPlan(1e-3), HYD2,
                                    total_steps=1500, every=10)
        energies.append(fit_energy_from_signal(series).energy)
    spread = max(energies) - min(energies)
    elapsed = time.time() - t0
    assert spread <= 1e-4
    assert elapsed < 900.0
    report(11, f"probe-fit energy spread over offsets 0.1..0.5 at n_r=9: "
               f"{spread:.2e} Eh (<=1e-4), {elapsed:.0f}s")


# -- 12: determinism across thread counts -----------------------------------------------------------

@pytest.mark.slow
def test_criterion_12_thread_determinism(tmp_path):
    t0 = time.time()
    outs = {}
    for threads in (1, 8):
        out = tmp_path / f"t{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "gridwave.cli", "run",
             "--config", "psi11_resolution_nr7",
             "--out", str(out), "--threads", str(threads)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs[threads] = out
    csvs = sorted(p.name for p in outs[1].glob("*.csv"))
    assert csvs, "scenario produced no CSV outputs"
    for name in csvs:
        b1 = (outs[1] / name).read_bytes()
        b8 = (outs[8] / name).read_bytes()
        assert b1 == b8, f"{name} differs between thread counts"
    elapsed = time.time() - t0
    report(12, f"{len(csvs)} CSVs byte-identical at 1 vs 8 threads, {elapsed:.0f}s")


# -- reduced stand-ins for the desk-infeasible runs --------------------------------------------------

@pytest.mark.slow
def test_reduced_helium_interaction_signature():
    """Stand-in for the 36-qubit run: with the pair coupling zeroed the
    one-particle distribution is frozen; enabling it drives the
    spread-and-partial-return dip."""
    from types import SimpleNamespace
    from gridwave.scenario import _step_eigenvector
    t0 = time.time()
    box = SimulationBox(3, 3, 25.0, 0.5)
    pair = HamiltonianSpec((ParticleSpec(1.0, -1.0), ParticleSpec(1.0, -1.0)),
                           (Nucleus((0.0, 0.0, 0.0), 2.0),))
    # the orbitals as helium_reduced's initial state picks them: projected onto
    # whole eigenspaces of the free cycle, which rounding in U_SO leaves in place
    scen = SimpleNamespace(spec=pair, box=box, plan_dt=0.05)
    kinds = {}
    targets = (Hydrogen3D(2, 1, 0, 2.0), Hydrogen3D(2, 1, -1, 2.0))
    va, vb = (_step_eigenvector(scen, p, t, kinds) for p, t in enumerate(targets))
    # two distinct orbitals, each mostly its own target (0.974 seen), not a
    # leftover of a target that lies along the other orbital
    assert abs(np.vdot(va, vb)) < 1e-12
    for target, orbital in zip(targets, (va, vb)):
        assert abs(np.vdot(discretize(target, box)[0], orbital)) > 0.9
    combined = exchange_product([va, vb])
    combined /= np.linalg.norm(combined)
    layout = particle_layout(2, 3, 3, box=box)
    results = {}
    for label, spec in (("off", pair.with_couplings_zeroed()), ("on", pair)):
        state = StateVector(combined.copy(), layout)
        kernel = compile_step(layout, StepPlan(0.05), spec)
        d0 = probability_density(state, 0).reshape(-1)
        coeffs = []
        for i in range(500):
            kernel.apply(state)
            if (i + 1) % 20 == 0:
                coeffs.append(bhattacharyya(
                    d0, probability_density(state, 0).reshape(-1)))
        results[label] = np.asarray(coeffs)
    assert np.abs(1.0 - results["off"]).max() < 1e-6
    dip = results["on"].min()
    assert dip < 0.99                       # the interaction moves the density
    assert results["on"][-1] > dip + 1e-3   # and it partially returns
    elapsed = time.time() - t0
    print(f"reduced helium: coupling-off max|1-B| "
          f"{np.abs(1 - results['off']).max():.1e} (<1e-6); coupling-on dip "
          f"{dip:.4f} with partial return, {elapsed:.0f}s")


@pytest.mark.slow
def test_reduced_scattering_symmetry_and_escape(rng):
    """Stand-in for the 25-qubit scattering run: exchange antisymmetry holds
    through damped propagation and the escape record is monotone."""
    from gridwave.statevector import swap_particle_registers
    t0 = time.time()
    box = SimulationBox(2, 4, 16.0, 0.5)
    layout = particle_layout(2, 2, 4, box=box).with_ancilla("cap")
    atten = AttenuationSpec(UniformEdgeRegion(2, 0.5))
    spec = HamiltonianSpec((ParticleSpec(1.0, -1.0), ParticleSpec(1.0, -1.0)),
                           (Nucleus((0.0, 0.0), 1.0),))
    a, _ = discretize(Hydrogen2D(0, 0), box)
    b, _ = discretize(Gaussian((0.0, 5.0), (0.0, -1.5), (0.4, 0.4)), box)
    combined = exchange_product([a, b])
    combined /= np.linalg.norm(combined)
    state = StateVector(np.concatenate([combined, np.zeros_like(combined)]),
                        layout)
    kernel = compile_step(layout, StepPlan(0.01, attenuation=atten), spec)
    escapes = []
    for _ in range(300):
        kernel.apply(state, escapes)
    from gridwave.observables import escape_tracker
    series = escape_tracker(escapes)
    assert np.all(np.diff(series.values) >= -1e-15)
    swapped = swap_particle_registers(state, 0, 1)
    sym = inner_product(state, swapped).real
    assert sym == pytest.approx(-1.0, abs=1e-9)
    elapsed = time.time() - t0
    print(f"reduced scattering: SWAP expectation {sym:.9f} (-1 within 1e-9), "
          f"escape monotone to {series.values[-1]:.3f}, {elapsed:.0f}s")
