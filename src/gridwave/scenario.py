"""Declarative scenario execution: parse, validate, run, compare.

A scenario text file describes box, particles, Hamiltonian, initial state,
plan, observables and an optional preparation stage; running one produces CSV
time series, density grids and a manifest under the output directory.
Exact-probability observables never draw randomness, so identical configs
give byte-identical outputs regardless of seed or thread count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config_text import Section, canonical_text, parse_config
from .errors import CeilingExceededError, ConfigError
from .grid import SimulationBox
from .hamiltonian import (AttenuationSpec, ExplicitRegion, HamiltonianSpec,
                          Nucleus, ParticleSpec, UniformEdgeRegion)
from .observables import EscapeTracker, TimeSeries
from .propagator import StepPlan
from .registers import particle_layout
from .statevector import StateVector
from . import states as st

DEFAULT_CEILING = 26
CEILING_ENV = "GRIDWAVE_MAX_QUBITS"


def emulation_ceiling() -> int:
    raw = os.environ.get(CEILING_ENV)
    if raw is None:
        return DEFAULT_CEILING
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"bad {CEILING_ENV} value {raw!r}")


def _listify(v):
    if v is None:
        return []
    return v if isinstance(v, list) else [v]


# -- state description parsing --------------------------------------------------

_STATE_KINDS = ("hydrogen2d", "hydrogen3d", "gaussian", "superposition")


def parse_state(sec: Section, dims: int):
    kind = sec.name
    if kind == "hydrogen2d":
        if dims != 2:
            raise ConfigError("hydrogen2d needs a 2D box", field="initial_state")
        return st.Hydrogen2D(int(sec.require("n")), int(sec.require("m")))
    if kind == "hydrogen3d":
        if dims != 3:
            raise ConfigError("hydrogen3d needs a 3D box", field="initial_state")
        return st.Hydrogen3D(int(sec.require("n")), int(sec.require("l")),
                             int(sec.require("m")), float(sec.get("z", 1.0)))
    if kind == "gaussian":
        centers = tuple(float(x) for x in _listify(sec.get("center", [0.0] * dims)))
        if len(centers) != dims:
            raise ConfigError("gaussian center needs one entry per dimension",
                              field="initial_state.gaussian.center")
        momenta = tuple(float(x) for x in _listify(sec.get("momentum", [])))
        a_re = [float(x) for x in _listify(sec.get("alpha", []))]
        a_im = [float(x) for x in _listify(sec.get("alpha_imag", []))]
        alphas = tuple(complex(a_re[i], a_im[i] if i < len(a_im) else 0.0)
                       for i in range(len(a_re)))
        gammas = tuple(complex(float(x), 0.0) for x in _listify(sec.get("gamma", [])))
        return st.Gaussian(centers, momenta, alphas, gammas)
    if kind == "superposition":
        terms = []
        for term in sec.children_named("term"):
            w = _listify(term.require("weight"))
            weight = complex(float(w[0]), float(w[1]) if len(w) > 1 else 0.0)
            inner = [c for _, c in term.children]
            if len(inner) != 1:
                raise ConfigError("each term holds exactly one state block",
                                  field="initial_state.superposition")
            terms.append((weight, parse_state(inner[0], dims)))
        if not terms:
            raise ConfigError("superposition needs terms", field="initial_state")
        return st.Superposition(tuple(terms))
    raise ConfigError(f"unknown state kind {kind!r}", field="initial_state")


# -- scenario -------------------------------------------------------------------

@dataclass
class Scenario:
    text: str
    root: Section
    description: str
    seed: int
    extended: bool
    box: SimulationBox
    spec: HamiltonianSpec
    plan_dt: float
    plan_steps: int
    aug_patches: list        # pixels-per-dim entries; 0 means plain cycle
    attenuate: bool
    num_particles: int

    @property
    def base_qubits(self) -> int:
        return self.num_particles * self.box.dims * self.box.n_r

    def required_qubits(self) -> int:
        total = self.base_qubits
        if self.attenuate:
            total += 1
        prep = self.root.child("prep")
        if prep is not None and prep.child("edit") is not None:
            total += 1
        return total


def _time_step(raw, field: str) -> float:
    dt = float(raw)
    if not np.isfinite(dt) or dt < 0:
        raise ConfigError(f"time step must be finite and non-negative, got {dt}",
                          field=field)
    return dt


def _check_enlarge_events(events: list, obssec: Section, coupled: bool) -> None:
    """An enlarged register no longer matches the start state or the other
    particles' registers, so nothing may compare against either after it."""
    for esec in events:
        if esec.get("enlarge_particle") is None:
            continue
        for key in ("autocorrelation", "bhattacharyya", "swap"):
            if int(obssec.get(key, 0)):
                raise ConfigError(f"observables.{key} cannot follow a register "
                                  "enlargement", field="event.enlarge_particle")
        if obssec.child("ipe") is not None:
            raise ConfigError("observables.ipe cannot follow a register enlargement",
                              field="event.enlarge_particle")
        # an event drops the couplings before it enlarges
        at = int(esec.require("at_step", "event"))
        if coupled and not any(bool(e.get("drop_couplings", False))
                               and (e is esec or int(e.require("at_step", "event")) < at)
                               for e in events):
            raise ConfigError("pair couplings need equal-shape registers; drop "
                              "them at or before the enlargement",
                              field="event.enlarge_particle")


def load_scenario(text: str) -> Scenario:
    root = parse_config(text)
    boxsec = root.child("box")
    if boxsec is None:
        raise ConfigError("missing box section", field="box")
    box = SimulationBox(int(boxsec.require("dims", "box")),
                        int(boxsec.require("n_r", "box")),
                        float(boxsec.require("length", "box")),
                        float(boxsec.get("origin_offset", 0.5)))

    psec = root.child("particles")
    particles = []
    if psec is not None:
        for child in psec.children_named("particle"):
            particles.append(ParticleSpec(float(child.get("mass", 1.0)),
                                          float(child.get("charge", -1.0))))
    if not particles:
        particles = [ParticleSpec()]

    hsec = root.child("hamiltonian") or Section("hamiltonian")
    nuclei = []
    for nsec in hsec.children_named("nucleus"):
        pos = tuple(float(x) for x in _listify(nsec.get("position", [0.0] * box.dims)))
        if len(pos) != box.dims:
            raise ConfigError("nucleus position needs one entry per dimension",
                              field="hamiltonian.nucleus.position")
        nuclei.append(Nucleus(pos, float(nsec.get("charge", 1.0))))
    efield = tuple(float(x) for x in _listify(hsec.get("field", [])))
    if efield and len(efield) != box.dims:
        raise ConfigError("field needs one entry per dimension",
                          field="hamiltonian.field")

    couplings = None
    mode = hsec.get("couplings", "default")
    if mode == "none":
        n = len(particles)
        couplings = np.zeros((n, n))
    elif mode != "default":
        raise ConfigError("couplings must be 'default' or 'none'",
                          field="hamiltonian.couplings")

    attenuation = None
    asec = hsec.child("attenuation")
    if asec is not None:
        usec = asec.child("uniform")
        if usec is not None:
            attenuation = AttenuationSpec(UniformEdgeRegion(
                int(usec.require("msb", "attenuation.uniform")),
                float(usec.require("strength", "attenuation.uniform"))))
        else:
            pixels = {}
            for pix in asec.children_named("pixel"):
                at = tuple(int(x) for x in _listify(pix.require("at", "attenuation.pixel")))
                pixels[at] = float(pix.require("strength", "attenuation.pixel"))
            if not pixels:
                raise ConfigError("attenuation needs uniform{} or pixel{} blocks",
                                  field="hamiltonian.attenuation")
            attenuation = AttenuationSpec(ExplicitRegion(pixels))

    spec = HamiltonianSpec(tuple(particles), tuple(nuclei), couplings,
                           efield, attenuation)

    plansec = root.child("plan")
    if plansec is None:
        raise ConfigError("missing plan section", field="plan")
    dt = _time_step(plansec.require("dt", "plan"), "plan.dt")
    events = root.children_named("event")
    for esec in events:
        if esec.get("dt") is not None:
            _time_step(esec.get("dt"), "event.dt")
    _check_enlarge_events(events, root.child("observables") or Section("observables"),
                          len(particles) > 1 and mode != "none")
    steps = int(plansec.require("steps", "plan"))
    if steps < 0:
        raise ConfigError("steps must be >= 0", field="plan.steps")
    patches = [0]
    augsec = plansec.child("augmentation")
    if augsec is not None:
        patches = [int(x) for x in _listify(augsec.require("patches", "plan.augmentation"))]
        for p in patches:
            if p not in (0, 2, 4):
                raise ConfigError("patch sizes are 0 (off), 2 or 4 pixels per dim",
                                  field="plan.augmentation.patches")
    attenuate = bool(plansec.get("attenuation", attenuation is not None))
    if attenuate and attenuation is None:
        raise ConfigError("plan.attenuation is on but the hamiltonian defines no "
                          "attenuation region", field="plan.attenuation")
    prepsec = root.child("prep")
    if prepsec is not None and prepsec.child("edit") is not None \
            and prepsec.child("imaginary_time") is not None:
        raise ConfigError("prep runs either a state edit or imaginary-time "
                          "filtering, not both", field="prep.imaginary_time")
    if attenuate and prepsec is not None:
        # both preparations run the plain unitary cycle
        if prepsec.child("edit") is not None:
            raise ConfigError("state editing plus attenuation in one scenario "
                              "is not supported", field="prep.edit")
        if prepsec.child("imaginary_time") is not None:
            raise ConfigError("imaginary-time prep requires the plain cycle",
                              field="prep.imaginary_time")

    if root.child("initial_state") is None:
        raise ConfigError("missing initial_state section", field="initial_state")

    return Scenario(
        text=text, root=root,
        description=str(root.get("description", "")),
        seed=int(root.get("seed", 0)),
        extended=bool(root.get("extended", False)),
        box=box, spec=spec, plan_dt=dt, plan_steps=steps,
        aug_patches=patches, attenuate=attenuate,
        num_particles=len(particles))


def validate_scenario(text: str, *, allow_extended: bool = False,
                      enforce_ceiling: bool = True) -> Scenario:
    scen = load_scenario(text)
    if scen.extended and not allow_extended:
        raise ConfigError("scenario is marked extended; pass --extended to run it",
                          field="extended")
    # extended configs declare their own scale; the ceiling gates execution,
    # not schema validation
    if enforce_ceiling and not scen.extended:
        ceiling = emulation_ceiling()
        if scen.required_qubits() > ceiling:
            raise CeilingExceededError(
                f"scenario needs {scen.required_qubits()} qubits, ceiling is "
                f"{ceiling} (override via {CEILING_ENV})")
    return scen


# -- initial state construction ---------------------------------------------------

def build_initial_state(scen: Scenario) -> StateVector:
    sec = scen.root.child("initial_state")
    box = scen.box
    layout = particle_layout(scen.num_particles, box.dims, box.n_r, box=box)

    if sec.child("model_ground") is not None:
        # exact ground eigenvector of the reference (projected-potential)
        # Hamiltonian; what ideal state preparation would deliver
        if scen.num_particles != 1:
            raise ConfigError("model_ground supports single-particle scenarios",
                              field="initial_state.model_ground")
        from .dense import reference_step_matrix
        _, _, _, evecs = reference_step_matrix(box, scen.spec, scen.plan_dt)
        return StateVector(evecs[:, 0].astype(np.complex128), layout)

    filename = sec.get("file")
    if filename is not None:
        from .iofmt import read_statevector
        amps, nq = read_statevector(filename)
        if nq != layout.num_qubits:
            raise ConfigError(f"dump holds {nq} qubits, scenario expects "
                              f"{scen.base_qubits}", field="initial_state.file")
        return StateVector(amps, layout)

    orbitals = sec.children_named("orbital")
    if orbitals:
        if len(orbitals) != scen.num_particles:
            raise ConfigError("need one orbital block per particle",
                              field="initial_state.orbital")
        vecs = []
        used_columns: set[int] = set()
        schur_vectors: dict[ParticleSpec, np.ndarray] = {}
        for particle_idx, osec in enumerate(orbitals):
            inner = [c for _, c in osec.children]
            if len(inner) != 1:
                raise ConfigError("each orbital holds exactly one state block",
                                  field="initial_state.orbital")
            if inner[0].name == "step_eigenstate":
                vecs.append(_step_eigenvector(scen, particle_idx, inner[0],
                                              used_columns, schur_vectors))
                continue
            amps, _ = st.discretize(parse_state(inner[0], box.dims), box)
            vecs.append(amps)
        if bool(sec.get("antisymmetrize", False)) or bool(sec.get("symmetrize", False)):
            if len(vecs) != 2:
                raise ConfigError("direct exchange symmetrisation needs exactly "
                                  "two orbitals", field="initial_state")
            amps, _ = st.antisymmetrize_direct(
                vecs[0], vecs[1], symmetrize=bool(sec.get("symmetrize", False)))
        else:
            amps = vecs[-1]
            for v in reversed(vecs[:-1]):
                amps = np.kron(amps, v)
    else:
        inner = [c for _, c in sec.children]
        if len(inner) != 1 or scen.num_particles != 1:
            raise ConfigError("single-particle scenarios take exactly one state "
                              "block; multi-particle ones use orbital blocks",
                              field="initial_state")
        amps, _ = st.discretize(parse_state(inner[0], box.dims), box)
    return StateVector(amps, layout)


def _step_eigenvector(scen: Scenario, particle_idx: int, block: Section,
                      used_columns: set, schur_vectors: dict) -> np.ndarray:
    """Eigenvector of this particle's free split cycle nearest a target state.

    Such orbitals are exactly stationary when pair couplings are off, which
    isolates the interaction as the only source of density dynamics.  The
    Schur vectors of each distinct particle's cycle are kept in
    ``schur_vectors`` and reused by the other orbitals of that particle kind.
    """
    inner = [c for _, c in block.children]
    if len(inner) != 1:
        raise ConfigError("step_eigenstate holds exactly one target state block",
                          field="initial_state.orbital.step_eigenstate")
    target_state = parse_state(inner[0], scen.box.dims)
    particle = scen.spec.particles[particle_idx]
    if particle not in schur_vectors:
        from scipy.linalg import schur
        from .dense import build_dense_step_matrices
        single = HamiltonianSpec((particle,), scen.spec.nuclei, None,
                                 scen.spec.efield)
        _, u_single = build_dense_step_matrices(scen.box, single, scen.plan_dt)
        schur_vectors[particle] = schur(u_single, output="complex")[1]
    q = schur_vectors[particle]
    target, _ = st.discretize(target_state, scen.box)
    overlaps = np.abs(q.conj().T @ target)
    for col in used_columns:
        overlaps[col] = -1.0
    idx = int(np.argmax(overlaps))
    used_columns.add(idx)
    return q[:, idx].astype(np.complex128)


# -- execution --------------------------------------------------------------------

def _augmentation_for(scen: Scenario, patch: int):
    if patch == 0:
        return None
    from .corrections import derive_correction
    n_l = patch.bit_length() - 1
    return derive_correction(scen.box, scen.spec, scen.plan_dt, n_l)


def run_scenario(text: str, out_dir, *, seed: int | None = None,
                 allow_extended: bool = False) -> dict:
    """Execute prep, propagation and observables; write artifacts.

    Returns {"outputs": {...}, "out_dir": path}.
    """
    from . import iofmt
    from .observables import (fit_energy_from_signal, plus_probability,
                              probability_density)
    from .statevector import inner_product, swap_particle_registers

    scen = validate_scenario(text, allow_extended=allow_extended)
    ceiling = emulation_ceiling()
    if scen.required_qubits() > ceiling:
        raise CeilingExceededError(
            f"scenario needs {scen.required_qubits()} qubits, ceiling is {ceiling} "
            f"(override via {CEILING_ENV})")
    if seed is not None:
        scen.seed = int(seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    outputs: dict[str, dict] = {}

    obssec = scen.root.child("observables") or Section("observables")
    cad_autocorr = int(obssec.get("autocorrelation", 0))
    ipesec = obssec.child("ipe")
    cad_ipe = int(ipesec.require("every", "observables.ipe")) if ipesec else 0
    fit_ipe = bool(ipesec.get("fit", True)) if ipesec else False
    cad_density = int(obssec.get("density", 0))
    density_pgm = bool(obssec.get("density_pgm", False))
    cad_energy = int(obssec.get("sampled_energy", 0))
    energy_shots = int(obssec.get("sampled_energy_shots", 0))
    cad_bhatt = int(obssec.get("bhattacharyya", 0))
    cad_swap = int(obssec.get("swap", 0))
    dump_state = bool(obssec.get("dump_state", False))
    rng = np.random.default_rng(scen.seed)

    variants = [(f"_patch{p}" if len(scen.aug_patches) > 1 else "", p)
                for p in scen.aug_patches]
    for suffix, patch in variants:
        state = build_initial_state(scen)
        prep_rows = _run_prep(scen, state, out, outputs, suffix)
        if prep_rows is not None:
            state = prep_rows
        # only the autocorrelation and ipe cadences read the start state back
        initial = state.copy() if cad_autocorr or cad_ipe else None
        init_density = probability_density(state, 0)

        plan = StepPlan(scen.plan_dt, augmentation=_augmentation_for(scen, patch),
                        attenuation=scen.spec.attenuation if scen.attenuate else None)

        records: dict[str, list] = {k: [] for k in
                                    ("t_ac", "ac", "t_e", "e", "t_b", "b", "t_s", "s")}
        tracker = EscapeTracker()
        escape_inc: list[float] = []

        def dump_density(step_idx: int, current: StateVector):
            dens = probability_density(current, 0)
            name = f"density{suffix}_{step_idx:06d}.gwdg"
            iofmt.write_density_grid(out / name, dens, scen.box)
            outputs[name] = {}
            if density_pgm and dens.ndim <= 2:
                pname = name.replace(".gwdg", ".pgm")
                iofmt.write_pgm(out / pname, dens)
                outputs[pname] = {}

        if cad_density > 0 or scen.plan_steps == 0:
            dump_density(0, state)

        def callback(step: int, t: float, current: StateVector):
            if escape_inc:
                tracker.record(t, escape_inc.pop())
            if cad_autocorr and step % cad_autocorr == 0 or \
               cad_ipe and step % cad_ipe == 0:
                records["t_ac"].append(t)
                records["ac"].append(inner_product(initial, current))
            if cad_energy and step % cad_energy == 0:
                from .observables import sampled_energy_expectation
                est = sampled_energy_expectation(
                    current, scen.spec,
                    shots=energy_shots or None,
                    rng=rng if energy_shots else None)
                records["t_e"].append(t)
                records["e"].append(est.energy)
            if cad_bhatt and step % cad_bhatt == 0:
                dens = probability_density(current, 0)
                records["t_b"].append(t)
                records["b"].append(st.bhattacharyya(init_density.reshape(-1),
                                                     dens.reshape(-1)))
            if cad_swap and step % cad_swap == 0:
                swapped = swap_particle_registers(current, 0, 1)
                records["t_s"].append(t)
                records["s"].append(inner_product(current, swapped).real)
            if cad_density and step % cad_density == 0:
                dump_density(step, current)

        from .propagator import propagate
        events = _parse_events(scen)
        state = propagate(state, plan, scen.spec, scen.plan_steps,
                          callbacks=[callback], events=events, escape=escape_inc)
        if escape_inc:   # increment from the final step
            tracker.record(scen.plan_steps * scen.plan_dt, escape_inc.pop())

        def emit(name, times, values, sampled=False):
            if not len(times):
                return
            series = TimeSeries(np.asarray(times), np.asarray(values))
            iofmt.write_timeseries_csv(out / name, series)
            outputs[name] = {"sampled": sampled}

        emit(f"autocorrelation{suffix}.csv", records["t_ac"], records["ac"])
        if cad_ipe:
            a_t = plus_probability(np.asarray(records["ac"]))
            emit(f"ipe{suffix}.csv", records["t_ac"], a_t)
            if fit_ipe and len(a_t) >= 8:
                est = fit_energy_from_signal(
                    TimeSeries(np.asarray(records["t_ac"]), a_t))
                name = f"ipe_fit{suffix}.csv"
                (out / name).write_text(
                    "energy,uncertainty,method\n"
                    f"{est.energy:.17g},{est.uncertainty:.17g},{est.method}\n")
                outputs[name] = {}
        emit(f"sampled_energy{suffix}.csv", records["t_e"], records["e"],
             sampled=bool(energy_shots))
        emit(f"bhattacharyya{suffix}.csv", records["t_b"], records["b"])
        emit(f"swap{suffix}.csv", records["t_s"], records["s"])
        if tracker.times:
            series = tracker.series()
            iofmt.write_timeseries_csv(out / f"escape{suffix}.csv", series)
            outputs[f"escape{suffix}.csv"] = {}
        if dump_state:
            name = f"final_state{suffix}.gwsv"
            iofmt.write_statevector(out / name, state)
            outputs[name] = {}

    config_hash_text = canonical_text(scen.root, drop=("seed",))
    iofmt.write_manifest(out / "manifest.json", config_text=config_hash_text,
                         seed=scen.seed, outputs=outputs)
    outputs["manifest.json"] = {}
    return {"outputs": outputs, "out_dir": str(out)}


def _run_prep(scen: Scenario, state: StateVector, out: Path, outputs: dict,
              suffix: str):
    sec = scen.root.child("prep")
    if sec is None:
        return None
    from . import iofmt
    editsec = sec.child("edit")
    itsec = sec.child("imaginary_time")
    if editsec is not None:
        from .prep import state_edit_remove
        plan = StepPlan(scen.plan_dt)
        energy = float(editsec.require("energy", "prep.edit"))
        edited, p = state_edit_remove(state, energy, plan, scen.spec)
        name = f"prep_log{suffix}.csv"
        (out / name).write_text("step,success_probability\n" f"0,{p:.17g}\n")
        outputs[name] = {}
        return edited
    if itsec is not None:
        from .prep import ImaginaryTimeParams, imaginary_time_run
        params = ImaginaryTimeParams(float(itsec.require("m0", "prep.imaginary_time")),
                                     scen.plan_dt)
        steps = int(itsec.require("steps", "prep.imaginary_time"))
        every = int(itsec.get("record", 100))
        references = {}
        if bool(itsec.get("track_ground", False)):
            from .dense import hamiltonian_eig
            _, evecs = hamiltonian_eig(scen.box, scen.spec)
            references["ground_overlap"] = evecs[:, 0].astype(np.complex128)
        run = imaginary_time_run(state, params, StepPlan(scen.plan_dt), scen.spec,
                                 steps, references=references, record_every=every)
        name = f"prep_log{suffix}.csv"
        # both clocks are recorded: the real step dt and the imaginary step
        # dtau = s*dt it realises
        header = "step,dt,dtau,success_probability"
        labels = sorted(run.overlaps)
        if labels:
            header += "," + ",".join(labels)
        lines = [header]
        for i, p in enumerate(run.success.values):
            row = (f"{(i + 1) * every},{params.dt:.17g},"
                   f"{params.dtau:.17g},{p:.17g}")
            for label in labels:
                row += f",{run.overlaps[label].values[i]:.17g}"
            lines.append(row)
        (out / name).write_text("\n".join(lines) + "\n")
        outputs[name] = {}
        return run.state
    return None


def _parse_events(scen: Scenario) -> dict | None:
    events = {}
    for esec in scen.root.children_named("event"):
        at = int(esec.require("at_step", "event"))
        new_dt = esec.get("dt")
        drop = bool(esec.get("drop_couplings", False))
        enlarge = esec.get("enlarge_particle")
        extra = int(esec.get("enlarge_by", 1))

        def make(new_dt=new_dt, drop=drop, enlarge=enlarge, extra=extra):
            def apply(state, plan, spec):
                if drop:
                    spec = spec.with_couplings_zeroed()
                if enlarge is not None:
                    from .statevector import enlarge_particle
                    state = enlarge_particle(state, int(enlarge), extra)
                if new_dt is not None:
                    plan = plan.with_dt(float(new_dt))
                return state, plan, spec
            return apply

        events[at] = make()
    return events or None


# -- bundled scenarios --------------------------------------------------------------

def bundled_scenarios() -> dict[str, str]:
    """name -> config text for every scenario shipped with the package."""
    from importlib.resources import files
    base = files("gridwave") / "scenarios"
    out = {}
    for entry in sorted(base.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".cfg"):
            out[entry.name[:-4]] = entry.read_text()
    return out


def resolve_scenario(name_or_path: str) -> str:
    p = Path(name_or_path)
    if p.exists():
        return p.read_text()
    bundled = bundled_scenarios()
    if name_or_path in bundled:
        return bundled[name_or_path]
    raise ConfigError(f"no scenario file or bundled scenario named {name_or_path!r}")
