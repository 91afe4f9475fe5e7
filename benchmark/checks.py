"""Correctness checks on one run's outputs, made outside the timed region.

Each check tests a property the method must have or compares against a
computation made here from the defining formulas; none compares against a
stored copy of earlier output.  Output files are parsed here, not with
gridwave's readers.
"""

from __future__ import annotations

import struct
from itertools import product
from pathlib import Path

import numpy as np

from gridwave.propagator import StepKernel
from workloads import PROBE_EVERY, PROBE_STEPS

REFERENCE_CYCLES = 3
REFERENCE_TOL = 1e-10
SWAP_TOL = 1e-9
DENSITY_TOL = 1e-9
PROBE_FIDELITY = 1.0 - 1e-4
PROBE_ENERGY_TOL = 1e-4
E_KEPT = -1.0 / (2.0 * 2.5 ** 2)        # 2D hydrogen n = 2: -1/(2 (n + 1/2)^2) = -0.08
UNIT_TOL = 1e-12


class Checks:
    """Named pass/fail results with a short detail each."""

    def __init__(self):
        self.results = {}

    def add(self, name: str, ok: bool, detail: str) -> None:
        self.results[name] = {"ok": bool(ok), "detail": detail}

    @property
    def ok(self) -> bool:
        return all(r["ok"] for r in self.results.values())


# -- output parsing ---------------------------------------------------------------

def read_series(path: Path):
    """(times, values) from a ``time,value_re[,value_im]`` CSV."""
    lines = Path(path).read_text().splitlines()
    cols = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:] if line]
    t = np.array([r[0] for r in rows])
    if len(cols) == 3:
        return t, np.array([complex(r[1], r[2]) for r in rows])
    return t, np.array([r[1] for r in rows])


def read_density(path: Path) -> np.ndarray:
    """Probabilities of a GWDG grid: magic, u32 dims, u32 log2 points per
    dim, f64 width per dim, then little-endian f64 values."""
    raw = Path(path).read_bytes()
    if raw[:4] != b"GWDG":
        raise ValueError(f"{path} is not a density grid")
    dims = struct.unpack_from("<I", raw, 4)[0]
    log2n = struct.unpack_from(f"<{dims}I", raw, 8)
    offset = 8 + 4 * dims + 8 * dims
    return np.frombuffer(raw, dtype="<f8", offset=offset).reshape(
        tuple(1 << n for n in log2n))


# -- independent split cycle ------------------------------------------------------------

def reference_cycle(amps: np.ndarray, layout, plan, spec):
    """One first-order split cycle written from the defining formulas.

    The standard packing is assumed (particle p, dimension d in register
    p*dims + d, x lowest) with at most one damping ancilla on top.  Kinetic
    phases exp(-i dt 2 pi^2 k^2 / (L^2 m)) act in momentum space reached by
    an orthonormal DFT over every register; Coulomb, field and pair phases
    act on the position grid x = (n - offset) * delta; the damping round
    multiplies the edge strip by exp(-strength dt) per register and
    renormalises.  Returns (new amplitudes, escape increment or None).
    """
    box = layout.box
    n_r, dims, length = box.n_r, box.dims, box.length
    m = 1 << n_r
    delta = length / m
    n_particles = len(spec.particles)
    n_regs = n_particles * dims
    for p, particle in enumerate(layout.particles):
        for d, s in enumerate(particle.spans):
            if (s.start, s.width) != ((p * dims + d) * n_r, n_r):
                raise ValueError("reference cycle needs the standard packing")
    psi = amps.reshape((-1,) + (m,) * n_regs)   # axis 1 + (n_regs-1-r) holds register r
    grid_axes = tuple(range(1, n_regs + 1))
    n = np.arange(m)
    n = np.where(n < m // 2, n, n - m)          # two's-complement grid index

    def along(reg, values):
        shape = [1] * n_regs
        shape[n_regs - 1 - reg] = m
        return values.reshape(shape)

    kinetic = np.zeros((1,) * n_regs)
    for p, particle in enumerate(spec.particles):
        c = 2.0 * np.pi ** 2 / (length ** 2 * particle.mass)
        for d in range(dims):
            kinetic = kinetic + c * along(p * dims + d, n.astype(float) ** 2)
    phi = np.fft.fftn(psi, axes=grid_axes, norm="ortho")
    phi *= np.exp(-1j * plan.dt * kinetic)
    psi = np.fft.ifftn(phi, axes=grid_axes, norm="ortho")

    x = (n - box.origin_offset) * delta
    potential = np.zeros((1,) * n_regs)
    for p, particle in enumerate(spec.particles):
        coords = [along(p * dims + d, x) for d in range(dims)]
        for nucleus in spec.nuclei:
            r2 = sum((coords[d] - nucleus.position[d]) ** 2 for d in range(dims))
            with np.errstate(divide="ignore"):
                potential = potential + np.where(
                    r2 == 0.0, 0.0, particle.charge * nucleus.charge / np.sqrt(r2))
        for d, e in enumerate(spec.efield):
            potential = potential + particle.charge * e * coords[d]
    for p in range(n_particles):
        for q in range(p + 1, n_particles):
            coupling = (spec.particles[p].charge * spec.particles[q].charge
                        if spec.pair_couplings is None else spec.pair_couplings[p][q])
            if coupling == 0.0:
                continue
            d2 = 0
            for d in range(dims):
                diff = along(p * dims + d, n) - along(q * dims + d, n)
                d2 = d2 + ((diff + m // 2) % m - m // 2) ** 2
            with np.errstate(divide="ignore"):
                potential = potential + np.where(
                    d2 == 0, coupling / delta, coupling / (delta * np.sqrt(d2)))
    psi = psi * np.exp(-1j * plan.dt * potential)

    escape = None
    if plan.attenuation is not None:
        region = plan.attenuation.region
        side = m >> region.msb_qubits          # strip of 2^-msb of the width per edge
        edge = (n < -(m // 2) + side) | (n >= m // 2 - side)
        factor = np.ones((1,) * n_regs)
        for reg in range(n_regs):
            factor = factor * along(reg, np.where(edge, np.exp(-region.strength * plan.dt), 1.0))
        before = np.sum(np.abs(psi) ** 2)
        kept = psi[0] * factor
        survival = np.sum(np.abs(kept) ** 2)
        psi = np.zeros_like(psi)
        psi[0] = kept / np.sqrt(survival)
        escape = 1.0 - survival / before
    return psi.reshape(-1), escape


def _window_indices(n_r: int, dims: int, lo: int, n_l: int) -> np.ndarray:
    """Dense indices of the patch window, first dimension slowest."""
    m = 1 << n_r
    out = []
    for values in product(range(lo, lo + (1 << n_l)), repeat=dims):
        out.append(sum((v % m) << (d * n_r) for d, v in enumerate(values)))
    return np.array(out)


def dense_core_cycle(box, plan, spec) -> np.ndarray:
    """Dense one-particle cycle from the test oracle, then the window unitary."""
    from tests.oracles import dense_split_cycle
    particle = spec.particles[0]
    u = dense_split_cycle(box.n_r, box.dims, 1, box.length, box.origin_offset,
                          plan.dt, [particle.mass], [particle.charge],
                          [(nuc.position, nuc.charge) for nuc in spec.nuclei],
                          [[0.0]], spec.efield)
    corr = plan.augmentation
    if corr is not None:
        win = _window_indices(box.n_r, box.dims, corr.lo, corr.n_l)
        u[win, :] = corr.u_core @ u[win, :]
    return u


def check_reference_cycles(checks: Checks, starts, dense: bool = False) -> None:
    """Cycles through ``StepKernel.apply`` against :func:`reference_cycle`,
    or against the dense oracle cycle when ``dense`` is set."""
    worst = 0.0
    for state, plan, spec in starts:
        kernel = StepKernel(state.layout, plan, spec)
        work = state.copy()
        ref = state.amps.copy()
        u = dense_core_cycle(state.layout.box, plan, spec) if dense else None
        for _ in range(REFERENCE_CYCLES):
            escapes = []
            kernel.apply(work, escapes)
            if dense:
                ref = u @ ref
            else:
                ref, escape = reference_cycle(ref, state.layout, plan, spec)
                if escape is not None:
                    worst = max(worst, abs(escapes[0] - escape))
            worst = max(worst, float(np.abs(work.amps - ref).max()))
    checks.add("reference_cycles", worst <= REFERENCE_TOL,
               f"{REFERENCE_CYCLES} cycles from each start state vs the independent "
               f"cycle: max deviation {worst:.2e} (<= {REFERENCE_TOL:g})")


# -- per-workload properties ---------------------------------------------------------------

def _check_swap(checks: Checks, out: Path, expected: int) -> None:
    _, swap = read_series(out / "swap.csv")
    dev = float(np.abs(swap + 1.0).max())
    checks.add("swap_antisymmetric", len(swap) == expected and dev <= SWAP_TOL,
               f"{len(swap)}/{expected} swap samples, max |s+1| {dev:.2e} (<= {SWAP_TOL:g})")


def check_scattering(checks: Checks, result: dict) -> None:
    """150 steps: swap every 10, escape every step, density at steps 0 and 100."""
    out = result["out_dir"]
    _check_swap(checks, out, 15)
    _, escape = read_series(out / "escape.csv")
    ok = (len(escape) == 150 and escape.min() >= 0.0 and escape.max() <= 1.0
          and bool(np.all(np.diff(escape) >= 0.0)))
    checks.add("escape_monotone", ok,
               f"{len(escape)}/150 samples in [0, 1], non-decreasing, final {escape[-1]:.6f}")
    grids = sorted(out.glob("density_*.gwdg"))
    sums = [float(read_density(g).sum()) for g in grids]
    dev = max(abs(s - 1.0) for s in sums) if sums else float("inf")
    checks.add("density_normalised", len(grids) == 2 and dev <= DENSITY_TOL,
               f"{len(grids)}/2 grids, max |sum-1| {dev:.2e} (<= {DENSITY_TOL:g})")


def check_helium(checks: Checks, result: dict) -> None:
    """150 steps: Bhattacharyya every 5, swap every 50."""
    out = result["out_dir"]
    _check_swap(checks, out, 3)
    _, b = read_series(out / "bhattacharyya.csv")
    in_range = len(b) == 30 and b.min() > 0.0 and b.max() <= 1.0 + UNIT_TOL
    checks.add("bhattacharyya_in_range", in_range,
               f"{len(b)}/30 samples in (0, 1 + {UNIT_TOL:g}]")
    checks.add("bhattacharyya_dips", b.min() < 0.99, f"minimum {b.min():.6f} (< 0.99)")


def _hydrogen2d_n2m2(box) -> np.ndarray:
    """The 2D hydrogen (n, m) = (2, 2) state, r^2 exp(-r / 2.5) e^{2 i theta},
    sampled on the grid (x in the low register) and normalised."""
    m = 1 << box.n_r
    n = np.arange(m)
    x = (np.where(n < m // 2, n, n - m) - box.origin_offset) * box.delta_r
    yy, xx = np.meshgrid(x, x, indexing="ij")
    r = np.hypot(xx, yy)
    psi = r ** 2 * np.exp(-r / 2.5) * np.exp(2j * np.arctan2(yy, xx))
    psi = psi.reshape(-1)
    return psi / np.linalg.norm(psi)


def check_probe(checks: Checks, result: dict) -> None:
    target = _hydrogen2d_n2m2(result["box"])
    fid = abs(np.vdot(target, result["edited"].amps)) ** 2
    checks.add("edited_fidelity", fid >= PROBE_FIDELITY,
               f"fidelity with (2, 2) {fid:.8f} (>= {PROBE_FIDELITY})")
    p = result["success"]
    checks.add("edit_success_probability", 0.0 < p < 1.0, f"success probability {p:.6f}")
    energy = result["estimate"].energy
    n_samples = len(result["series"].values)
    samples = PROBE_STEPS // PROBE_EVERY
    checks.add("energy_matches_analytic",
               n_samples == samples and abs(energy - E_KEPT) <= PROBE_ENERGY_TOL,
               f"fit {energy:.8f} vs {E_KEPT:.8f} from {n_samples}/{samples} samples "
               f"(tolerance {PROBE_ENERGY_TOL:g})")


def check_core_patch(checks: Checks, result: dict) -> None:
    """6000 steps per variant: autocorrelation every 50."""
    out = result["out_dir"]
    moduli = {}
    for patch in (4, 2, 0):
        _, ac = read_series(out / f"autocorrelation_patch{patch}.csv")
        moduli[patch] = np.abs(ac)
    largest = max(float(v.max()) for v in moduli.values())
    counts = [len(v) for v in moduli.values()]
    checks.add("autocorrelation_bounded",
               counts == [120, 120, 120] and largest <= 1.0 + UNIT_TOL,
               f"samples {counts} (120 each), max modulus {largest:.15f} (<= 1 + {UNIT_TOL:g})")
    last4, last0 = float(moduli[4][-1]), float(moduli[0][-1])
    checks.add("patch_improves_modulus", abs(1.0 - last4) < abs(1.0 - last0),
               f"last modulus 4x4 {last4:.6f} vs unpatched {last0:.6f}")


PROPERTIES = {"scattering": check_scattering, "helium": check_helium,
              "probe": check_probe, "core_patch": check_core_patch}


def run_checks(workload: str, result: dict) -> Checks:
    found = Checks()
    check_reference_cycles(found, result["starts"], dense=workload == "core_patch")
    PROPERTIES[workload](found, result)
    return found
