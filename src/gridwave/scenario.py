"""Declarative scenario execution: parse, validate, run, compare.

A scenario text file describes box, particles, Hamiltonian, initial state,
plan, observables and an optional preparation stage; running one produces CSV
time series, density grids and a manifest under the output directory.
Exact-probability observables never draw randomness, so identical configs
give byte-identical outputs regardless of seed or thread count.

``SCHEMA`` lists every section and key a scenario may hold.  ``load_scenario``
checks the parsed text against it and across fields once, and returns a typed
:class:`Scenario`; nothing after that reads the parsed text.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple
from dataclasses import dataclass, replace
from functools import partial, reduce
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .config_text import Section, canonical_text, parse_config
from .dense import MAX_DIM
from .errors import CeilingExceededError, ConfigError, DegenerateStateError
from .grid import SimulationBox
from .hamiltonian import (AttenuationSpec, ExplicitRegion, HamiltonianSpec,
                          Nucleus, ParticleSpec, UniformEdgeRegion)
from .observables import TimeSeries, escape_tracker
from .prep import ImaginaryTimeParams
from .propagator import StepPlan
from .registers import particle_layout
from .statevector import StateVector, enlarge_particle
from . import states as st

DEFAULT_CEILING = 26
EIGENSPACE_TOL = 1e-8   # step eigenvalues closer than this span one eigenspace
CEILING_ENV = "GRIDWAVE_MAX_QUBITS"
SAMPLED_QUBITS = 18     # validate samples analytic states on grids this wide at most


def emulation_ceiling() -> int:
    raw = os.getenv(CEILING_ENV, str(DEFAULT_CEILING))
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"bad {CEILING_ENV} value {raw!r}")


# -- schema ---------------------------------------------------------------------

REQUIRED = object()     # default of a key that has to be given
# kind: int, float (finite), bool, str, or (int,)/(float,) for a number list;
# check: (test, its meaning), applied to each value
Key = namedtuple("Key", "kind default check", defaults=(None, (None, "")))


def _one_of(*allowed):
    return (lambda v: v in allowed), "one of " + ", ".join(map(str, allowed))


_GT0 = (lambda v: v > 0), "> 0"
_GE0 = (lambda v: v >= 0), ">= 0"
_GE1 = (lambda v: v >= 1), ">= 1"
_UNIT = (lambda v: 0 <= v < 1), "in [0, 1)"
_OPEN_UNIT = (lambda v: 0 < v < 1), "in (0, 1)"
_CADENCE = Key(int, 0, _GE0)       # in steps; 0 = off
_OFF, _FLOATS = Key(bool, False), (float,)
_STATE_BLOCKS = ("hydrogen2d", "hydrogen3d", "gaussian", "superposition")

# section name -> (allowed keys, allowed child sections); an absent key takes
# its default.  State blocks are keyed by name, so a block nested in an
# orbital or a term uses the same entry.
SCHEMA = {
    "": ({"description": Key(str, ""), "seed": Key(int, 0), "extended": _OFF},
         ("box", "particles", "hamiltonian", "initial_state", "plan",
          "observables", "prep", "event")),
    "box": ({"dims": Key(int, REQUIRED, _one_of(1, 2, 3)),
             "n_r": Key(int, REQUIRED, _GE1), "length": Key(float, REQUIRED, _GT0),
             "origin_offset": Key(float, 0.5, _UNIT)}, ()),
    "particles": ({}, ("particle",)),
    "particle": ({"mass": Key(float, 1.0, _GT0), "charge": Key(float, -1.0)}, ()),
    "hamiltonian": ({"field": Key(_FLOATS, ()),
                     "couplings": Key(str, "default", _one_of("default", "none"))},
                    ("nucleus", "attenuation")),
    "nucleus": ({"position": Key(_FLOATS), "charge": Key(float, 1.0)}, ()),
    "attenuation": ({}, ("uniform", "pixel")),
    "uniform": ({"msb": Key(int, REQUIRED, _GE1),
                 "strength": Key(float, REQUIRED, _GE0)}, ()),
    "pixel": ({"at": Key((int,), REQUIRED),
               "strength": Key(float, REQUIRED, _GE0)}, ()),
    "initial_state": ({"file": Key(str), "antisymmetrize": _OFF, "symmetrize": _OFF},
                      _STATE_BLOCKS + ("model_ground", "orbital")),
    "orbital": ({}, _STATE_BLOCKS + ("step_eigenstate",)),
    "step_eigenstate": ({}, _STATE_BLOCKS),
    "model_ground": ({}, ()),
    "hydrogen2d": ({"n": Key(int, REQUIRED, _GE0), "m": Key(int, REQUIRED)}, ()),
    "hydrogen3d": ({"n": Key(int, REQUIRED, _GE1), "l": Key(int, REQUIRED, _GE0),
                    "m": Key(int, REQUIRED), "z": Key(float, 1.0, _GT0)}, ()),
    "gaussian": ({"center": Key(_FLOATS), "momentum": Key(_FLOATS, ()),
                  "alpha": Key(_FLOATS, (), _GT0), "alpha_imag": Key(_FLOATS, ())}, ()),
    "superposition": ({}, ("term",)),
    "term": ({"weight": Key(_FLOATS, REQUIRED)}, _STATE_BLOCKS),
    "plan": ({"dt": Key(float, REQUIRED, _GT0), "steps": Key(int, REQUIRED, _GE0),
              "attenuation": Key(bool)}, ("augmentation",)),
    "augmentation": ({"patches": Key((int,), REQUIRED, _one_of(0, 2, 4))}, ()),
    "observables": ({"autocorrelation": _CADENCE, "density": _CADENCE,
                     "density_pgm": _OFF, "sampled_energy": _CADENCE,
                     "sampled_energy_shots": Key(int, 0, _GE0),
                     "bhattacharyya": _CADENCE, "swap": _CADENCE, "dump_state": _OFF},
                    ("ipe",)),
    "ipe": ({"every": Key(int, REQUIRED, _GE1), "fit": Key(bool, True)}, ()),
    "prep": ({}, ("edit", "imaginary_time")),
    "edit": ({"energy": Key(float, REQUIRED, ((lambda v: v != 0), "!= 0"))}, ()),
    "imaginary_time": ({"m0": Key(float, REQUIRED, _OPEN_UNIT),
                        "steps": Key(int, REQUIRED, _GE0),
                        "record": Key(int, 100, _GE1), "track_ground": _OFF}, ()),
    "event": ({"at_step": Key(int, REQUIRED, _GE1), "dt": Key(float, None, _GT0),
               "drop_couplings": _OFF, "enlarge_particle": Key(int, None, _GE0),
               "enlarge_by": Key(int, 1, _GE1)}, ()),
}
_REPEATABLE = {"particle", "nucleus", "pixel", "term", "orbital", "event"}


def _fail(sec: Section, message: str, key: str | None = None):
    line = sec.lines[key] if key in sec.lines else sec.line
    raise ConfigError(f"line {line}: {message}",
                      field=f"{sec.path}.{key}".strip(".") if key else sec.path)


def _typed(sec: Section, key: str, raw, spec: Key):
    many = isinstance(spec.kind, tuple)
    kind = spec.kind[0] if many else spec.kind
    if isinstance(raw, list) and not many:
        _fail(sec, f"takes one {kind.__name__}, got {len(raw)} values", key)
    values = [float(v) if kind is float and type(v) is int else v
              for v in (raw if isinstance(raw, list) else [raw])]
    test, meaning = spec.check
    for v in values:
        if type(v) is not kind or kind is float and not math.isfinite(v):
            _fail(sec, f"expected {'a finite ' if kind is float else ''}"
                       f"{kind.__name__}, got {v!r}", key)
        if test is not None and not test(v):
            _fail(sec, f"must be {meaning}, got {v!r}", key)
    return tuple(values) if many else values[0]


def _walk(sec: Section) -> Section:
    """Check ``sec`` and everything in it against SCHEMA, in source order;
    return a copy holding every key of the section, typed or defaulted."""
    keys, sections = SCHEMA[sec.name]
    entries = {}
    for key, raw in sec.entries.items():
        if key not in keys:
            _fail(sec, f"unknown key (known: {', '.join(keys) or 'none'})", key)
        entries[key] = _typed(sec, key, raw, keys[key])
    for key, spec in keys.items():
        if spec.default is REQUIRED and key not in entries:
            _fail(sec, "missing required entry", key)
        entries.setdefault(key, spec.default)
    children = []
    for name, child in sec.children:
        if name not in sections:
            _fail(child, f"unknown section (known: {', '.join(sections) or 'none'})")
        if name not in _REPEATABLE and any(n == name for n, _ in children):
            _fail(child, "section given twice")
        children.append((name, _walk(child)))
    return replace(sec, entries=entries, children=children)


# -- typed scenario ---------------------------------------------------------------

# an orbital: the free-cycle eigenvector nearest the analytic state ``target``
StepEigenstate = namedtuple("StepEigenstate", "target")
# the model ground state, a statevector dump, or one orbital per particle (an
# analytic state or a StepEigenstate); exchange is "", "antisymmetrize" or
# "symmetrize"
InitialState = namedtuple("InitialState", "orbitals exchange model_ground file",
                          defaults=((), "", False, None))


@dataclass
class Scenario:
    """A checked scenario.  ``observables``, each event and ``prep`` hold
    their section's keys from SCHEMA as attributes, defaults filled in;
    ``prep.kind`` is "edit" or "imaginary_time"."""

    root: Section            # the parsed text, kept only for the config hash
    description: str
    seed: int
    extended: bool
    box: SimulationBox
    spec: HamiltonianSpec
    plan_dt: float
    plan_steps: int
    aug_patches: tuple       # pixels-per-dim entries; 0 means plain cycle
    attenuation: AttenuationSpec | None   # the damping region; None: no damping
    initial: InitialState
    observables: SimpleNamespace     # with ipe (its cadence) and ipe_fit
    events: tuple                    # by ascending at_step
    prep: SimpleNamespace | None

    @property
    def num_particles(self) -> int:
        return len(self.spec.particles)

    @property
    def base_qubits(self) -> int:
        return self.num_particles * self.box.dims * self.box.n_r

    def required_qubits(self) -> int:
        # enlargements widen the registers; on a device the damping round and
        # the state edit each use an ancilla
        edit = self.prep is not None and self.prep.kind == "edit"
        grown = sum(e.enlarge_by for e in self.events if e.enlarge_particle is not None)
        return (self.base_qubits + self.box.dims * grown
                + (self.attenuation is not None) + edit)


# -- table-driven conversion --------------------------------------------------------

def _section(sec: Section, name: str) -> Section:
    return sec.child(name) or _walk(Section(name))


def _vector(sec: Section, key: str, dims: int) -> tuple:
    """A per-dimension entry; zeros when absent."""
    v = sec.get(key) or (0.0,) * dims
    if len(v) != dims:
        _fail(sec, f"needs one entry per dimension ({dims})", key)
    return v


def _located(sec: Section, build, *args, **kwargs):
    """``build(...)``, with a ConfigError it raises placed at ``sec``."""
    try:
        return build(*args, **kwargs)
    except ConfigError as err:
        _fail(sec, str(err))


def _only_block(sec: Section) -> Section:
    if len(sec.children) != 1:
        _fail(sec, "holds exactly one state block")
    return sec.children[0][1]


def _check_dense(sec: Section, key: str | None, particles: int, box: SimulationBox,
                 projected: bool = False):
    """Fail at ``sec`` unless the dense layer can build ``particles`` particles
    in ``box``, and with ``projected`` also their projected potential."""
    if projected and (particles != 1 or box.dims > 2):
        _fail(sec, "the projected potential is built for one particle in a 1D "
                   "or 2D box", key)
    dim = 1 << (particles * box.dims * box.n_r)
    if dim > MAX_DIM:
        _fail(sec, f"needs a dense dimension of {dim}; the limit is {MAX_DIM}", key)


def _state(sec: Section, box: SimulationBox):
    """The state a state block or an orbital describes, in ``box``."""
    if sec.name == "orbital":
        return _state(_only_block(sec), box)
    if sec.name == "step_eigenstate":
        _check_dense(sec, None, 1, box)
        return StepEigenstate(_state(_only_block(sec), box))
    if sec.name == "superposition":
        terms = sec.children_named("term")
        if not terms:
            _fail(sec, "needs term blocks")
        for t in terms:
            if len(t.get("weight")) > 2:
                _fail(t, "is a real part and an optional imaginary part", "weight")
        return st.Superposition(tuple((complex(*t.get("weight")),
                                       _state(_only_block(t), box)) for t in terms))
    if sec.name == "gaussian":
        a_im = sec.get("alpha_imag")
        alphas = tuple(complex(a, a_im[i] if i < len(a_im) else 0.0)
                       for i, a in enumerate(sec.get("alpha")))
        return st.Gaussian(_vector(sec, "center", box.dims), sec.get("momentum"), alphas)
    need = 2 if sec.name == "hydrogen2d" else 3
    if box.dims != need:
        _fail(sec, f"needs a {need}D box")
    return _located(sec, st.Hydrogen2D if need == 2 else st.Hydrogen3D, **sec.entries)


def _sampled(sec: Section, box: SimulationBox):
    """(:func:`_state` of an orbital or a state block, its
    ``states.sample_weight`` on one particle's grid, as the run takes it);
    refused where that refuses the state, or a step eigenstate's target.
    The weight is None for a step eigenstate and on a grid of more than
    2^SAMPLED_QUBITS points, which is not sampled."""
    state = _state(sec, box)
    if box.dims * box.n_r > SAMPLED_QUBITS:
        return state, None
    while sec.name in ("orbital", "step_eigenstate"):
        sec = _only_block(sec)
    target = state.target if isinstance(state, StepEigenstate) else state
    try:
        weight = st.sample_weight(target, box)
    except DegenerateStateError as err:
        _fail(sec, str(err))
    return state, None if target is not state else weight


def _initial_state(sec: Section, n: int, box: SimulationBox) -> InitialState:
    orbitals = sec.children_named("orbital")
    exchange = [k for k in ("antisymmetrize", "symmetrize") if sec.get(k)]
    if len(exchange) > 1:
        _fail(sec, "antisymmetrize and symmetrize exclude each other", "symmetrize")
    if exchange and len(orbitals) != 2:
        _fail(sec, "direct exchange symmetrisation needs exactly two orbitals",
              exchange[0])
    if sec.get("file") is not None:
        if sec.children:
            _fail(sec, "a dump file replaces the state blocks", "file")
        return InitialState(file=sec.get("file"))
    if orbitals and len(orbitals) == len(sec.children):
        if len(orbitals) != n:
            _fail(orbitals[-1], f"need one orbital block per particle ({n})")
        states, weights = zip(*(_sampled(o, box) for o in orbitals))
        if exchange == ["antisymmetrize"] and None not in weights:
            (a, ta), (b, tb) = weights
            # |a^b|^2 = 2 (1 - |<a|b>|^2) for unit a and b: the run refuses
            # |a^b| < 1e-12, and the overlap's rounding stays far below 1e-12
            if 1.0 - abs(np.add.reduce(a.conj() * b)) ** 2 / (ta * tb) < 1e-12:
                _fail(sec, "the two orbitals are parallel on the grid, so their "
                           "antisymmetrised product vanishes", "antisymmetrize")
        return InitialState(states, exchange[0] if exchange else "")
    if len(sec.children) != 1 or n != 1:
        _fail(sec, "single-particle scenarios take exactly one state block; "
                   "multi-particle ones use orbital blocks")
    name, block = sec.children[0]
    if name == "model_ground":
        _check_dense(block, None, 1, box, projected=True)
        return InitialState(model_ground=True)
    return InitialState((_sampled(block, box)[0],))


def _attenuation(sec: Section, box: SimulationBox) -> AttenuationSpec:
    uniform, pixels = sec.child("uniform"), sec.children_named("pixel")
    if (uniform is None) == (not pixels):
        _fail(sec, "needs one uniform{} block or pixel{} blocks")
    if uniform is None:
        half = 1 << (box.n_r - 1)   # an enlargement only widens this range
        strengths = {}
        for p in pixels:
            if not all(-half <= v < half for v in p.get("at")):
                _fail(p, f"must lie in [-{half}, {half})", "at")
            at = _vector(p, "at", box.dims)
            if at in strengths:
                _fail(p, f"pixel {at} is already damped by an earlier pixel block", "at")
            strengths[at] = p.get("strength")
        return AttenuationSpec(ExplicitRegion(strengths))
    if uniform.get("msb") >= box.n_r:
        _fail(uniform, f"must be < n_r ({box.n_r})", "msb")
    return AttenuationSpec(UniformEdgeRegion(uniform.get("msb"),
                                             uniform.get("strength")))


def load_scenario(text: str) -> Scenario:
    root = parse_config(text)
    top = _walk(root)
    for name in ("box", "initial_state", "plan"):
        if top.child(name) is None:
            raise ConfigError(f"missing {name} section", field=name)
    box = SimulationBox(**top.child("box").entries)
    psecs = _section(top, "particles").children_named("particle")
    particles = tuple(ParticleSpec(**p.entries) for p in psecs) or (ParticleSpec(),)
    n = len(particles)

    ham = _section(top, "hamiltonian")
    nuclei = tuple(Nucleus(_vector(s, "position", box.dims), s.get("charge"))
                   for s in ham.children_named("nucleus"))
    efield = _vector(ham, "field", box.dims) if ham.get("field") else ()
    uncoupled = ham.get("couplings") == "none"
    attenuation = (_attenuation(ham.child("attenuation"), box)
                   if ham.child("attenuation") else None)
    spec = HamiltonianSpec(particles, nuclei, np.zeros((n, n)) if uncoupled else None,
                           efield)

    plan = top.child("plan")
    dt, steps = plan.get("dt"), plan.get("steps")
    aug = plan.child("augmentation")
    patches = aug.get("patches") if aug else (0,)
    if len(set(patches)) < len(patches):
        _fail(aug, "lists a patch size twice; each variant runs once", "patches")
    if any(patches):
        _check_dense(aug, "patches", n, box, projected=True)
        if max(patches) > 1 << box.n_r:
            _fail(aug, f"a patch is wider than the {1 << box.n_r}-pixel grid", "patches")
    switch = plan.get("attenuation")    # absent: on wherever a region is given
    if switch and attenuation is None:
        _fail(plan, "is on but the hamiltonian defines no attenuation region",
              "attenuation")
    if switch is False:
        attenuation = None

    osec = _section(top, "observables")
    ipe = osec.child("ipe") or Section("ipe", {"every": 0, "fit": False})
    obs = SimpleNamespace(**osec.entries, ipe=ipe.get("every"), ipe_fit=ipe.get("fit"))
    if obs.swap and n < 2:
        _fail(osec, "needs two particles", "swap")

    preps = [sec for _, sec in _section(top, "prep").children]
    if len(preps) > 1:
        _fail(preps[1], "prep runs either a state edit or imaginary-time "
                        "filtering, not both")
    for sec in preps:
        if attenuation is not None:
            _fail(sec, "needs the plain unitary cycle; plan.attenuation is on")
        if sec.name == "imaginary_time":
            _located(sec, ImaginaryTimeParams, sec.get("m0"), dt)
            if sec.get("track_ground"):
                _check_dense(sec, "track_ground", n, box)
    prep = SimpleNamespace(kind=preps[0].name, **preps[0].entries) if preps else None

    events = []
    for esec in sorted(top.children_named("event"), key=lambda e: e.get("at_step")):
        ev = SimpleNamespace(**esec.entries)
        if events and events[-1].at_step == ev.at_step:
            _fail(esec, f"another event already runs at step {ev.at_step}", "at_step")
        if ev.at_step > steps:
            _fail(esec, f"comes after the last step ({steps})", "at_step")
        if ev.dt not in (None, dt) and any(patches):
            _fail(esec, "a patch correction holds for the plan dt only", "dt")
        events.append(ev)
        if ev.enlarge_particle is None:
            continue
        if ev.enlarge_particle >= n:
            _fail(esec, f"the scenario has {n} particle(s)", "enlarge_particle")
        # an enlarged register no longer matches the start state or the other
        # particles' registers, so nothing may compare against either after it
        for key in ("autocorrelation", "ipe", "bhattacharyya", "swap"):
            if getattr(obs, key):
                _fail(esec, f"observables.{key} cannot follow a register "
                            "enlargement", "enlarge_particle")
        # pair couplings need equal-shape registers; an event drops the
        # couplings before it enlarges
        if n > 1 and not uncoupled and not any(e.drop_couplings for e in events):
            _fail(esec, "pair couplings are still on; drop them at or before "
                        "the enlargement", "enlarge_particle")
    if attenuation is not None:   # exp(-V dt) must stay above 0 for every dt the run uses
        region = attenuation.region
        strongest = (region.strength if isinstance(region, UniformEdgeRegion)
                     else max(region.pixels.values()))
        for sec in [plan] + [e for e in top.children_named("event") if e.get("dt")]:
            _located(sec, attenuation.angle, strongest, sec.get("dt"))
    if obs.ipe and obs.ipe_fit and steps // obs.ipe < 8:
        _fail(ipe, f"the energy fit needs 8 probe samples; {steps} steps every "
                   f"{obs.ipe} give {steps // obs.ipe} (fit = false keeps the "
                   "series)", "fit")

    return Scenario(
        root=root, description=top.get("description"), seed=top.get("seed"),
        extended=top.get("extended"), box=box, spec=spec, plan_dt=dt,
        plan_steps=steps, aug_patches=patches, attenuation=attenuation,
        initial=_initial_state(top.child("initial_state"), n, box),
        observables=obs, events=tuple(events), prep=prep)


def validate_scenario(text: str, *, allow_extended: bool = False) -> Scenario:
    scen = load_scenario(text)
    if scen.extended and not allow_extended:
        raise ConfigError("scenario is marked extended; pass --extended to run it",
                          field="extended")
    # extended configs declare their own scale; run_scenario gates those
    if not scen.extended:
        _check_ceiling(scen)
    return scen


def _check_ceiling(scen: Scenario) -> None:
    ceiling = emulation_ceiling()
    if scen.required_qubits() > ceiling:
        raise CeilingExceededError(
            f"scenario needs {scen.required_qubits()} qubits, ceiling is "
            f"{ceiling} (override via {CEILING_ENV})")


# -- initial state construction ---------------------------------------------------

def build_initial_state(scen: Scenario) -> StateVector:
    init, box = scen.initial, scen.box
    layout = particle_layout(scen.num_particles, box.dims, box.n_r, box=box)

    if init.model_ground:
        # exact ground eigenvector of the reference (projected-potential)
        # Hamiltonian; what ideal state preparation would deliver
        from .dense import reference_ground
        _, ground = reference_ground(box, scen.spec)
        return StateVector(ground.astype(np.complex128), layout)

    if init.file is not None:
        from .iofmt import read_statevector
        amps, nq = read_statevector(init.file)
        if nq != layout.num_qubits:
            raise ConfigError(f"dump holds {nq} qubits, scenario expects "
                              f"{scen.base_qubits}", field="initial_state.file")
        return StateVector(amps, layout)

    vecs = []
    kinds: dict[ParticleSpec, tuple] = {}
    for particle_idx, orbital in enumerate(init.orbitals):
        if isinstance(orbital, StepEigenstate):
            vecs.append(_step_eigenvector(scen, particle_idx, orbital.target, kinds))
        else:
            vecs.append(st.discretize(orbital, box)[0])
    if init.exchange:
        amps = st.exchange_product(vecs, symmetrize=init.exchange == "symmetrize")
        raw = float(np.sqrt(np.add.reduce(np.abs(amps) ** 2)))
        if raw < 1e-12:
            raise DegenerateStateError(
                "exchange combination vanishes (identical orbitals?)")
        amps /= raw
    else:   # particle 0 in the lowest qubits
        amps = reduce(np.kron, reversed(vecs))
    return StateVector(amps, layout)


def _step_eigenvector(scen: Scenario, particle_idx: int, target_state,
                      kinds: dict) -> np.ndarray:
    """Eigenvector of this particle's free split cycle nearest a target state.

    Such orbitals are exactly stationary when pair couplings are off, which
    isolates the interaction as the only source of density dynamics.  The
    target, less its components along the orbitals already picked for this
    particle kind, is projected onto the eigenspace (Schur columns whose
    eigenvalues lie within ``EIGENSPACE_TOL``) that holds the largest share
    of it.  Rounding in U_SO rotates the Schur columns inside a degenerate
    eigenspace but leaves that projection in place.  ``kinds`` keeps, per
    particle kind, the Schur vectors, their eigenspace labels and the
    orbitals picked so far.
    """
    particle = scen.spec.particles[particle_idx]
    if particle not in kinds:
        from scipy.linalg import schur
        from .dense import split_cycle_matrix
        from .propagator import set_blas_threads
        single = HamiltonianSpec((particle,), scen.spec.nuclei, None,
                                 scen.spec.efield)
        cycle = split_cycle_matrix(scen.box, single, scen.plan_dt)
        # LAPACK's threaded products round differently at each pool size
        threads = set_blas_threads(1, "scipy")
        try:
            t, q = schur(cycle, output="complex")
        finally:
            set_blas_threads(threads, "scipy")
        # by phase, an eigenvalue far from the one before it opens an eigenspace;
        # those before the first opening close the circle into the last one
        order = np.argsort(np.angle(np.diag(t)))
        lam = np.diag(t)[order]
        opens = np.abs(lam - np.roll(lam, 1)) > EIGENSPACE_TOL
        labels = (np.cumsum(opens) % max(int(opens.sum()), 1))[np.argsort(order)]
        kinds[particle] = (q, labels, [])
    q, labels, picked = kinds[particle]
    target, _ = st.discretize(target_state, scen.box)
    for orbital in picked:
        target = target - orbital * np.vdot(orbital, target)
    coeffs = q.conj().T @ target
    keep = labels == np.argmax(np.bincount(labels, np.abs(coeffs) ** 2))
    vec = q[:, keep] @ coeffs[keep]
    norm = np.linalg.norm(vec)
    if norm < 1e-12:
        raise DegenerateStateError(f"orbital {particle_idx}: no part of its target "
                                   "lies outside the orbitals already picked")
    picked.append(vec / norm)
    return picked[-1]


# -- execution --------------------------------------------------------------------

def _apply_event(ev, state, plan, spec):
    """``propagate``'s event hook: apply ``ev`` after step ``ev.at_step``."""
    if ev.drop_couplings:
        spec = spec.with_couplings_zeroed()
    if ev.enlarge_particle is not None:
        state = enlarge_particle(state, ev.enlarge_particle, ev.enlarge_by)
    if ev.dt is not None:
        plan = plan.with_dt(ev.dt)
    return state, plan, spec


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
    if scen.extended:   # validate leaves the ceiling of these to the run
        _check_ceiling(scen)
    if seed is not None:
        scen.seed = int(seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    outputs: dict[str, dict] = {}

    obs = scen.observables
    rng = np.random.default_rng(scen.seed)

    variants = [(f"_patch{p}" if len(scen.aug_patches) > 1 else "", p)
                for p in scen.aug_patches]
    for suffix, patch in variants:
        state = build_initial_state(scen)
        state = _run_prep(scen, state, out, outputs, suffix)
        # only the autocorrelation and ipe cadences read the start state back
        initial = state.copy() if obs.autocorrelation or obs.ipe else None
        init_density = probability_density(state, 0) if obs.bhattacharyya else None

        correction = None
        if patch:
            from .corrections import derive_correction
            correction = derive_correction(scen.box, scen.spec, scen.plan_dt,
                                           patch.bit_length() - 1)
        plan = StepPlan(scen.plan_dt, augmentation=correction,
                        attenuation=scen.attenuation)

        # series name -> (times, values), written as <name><suffix>.csv
        series = {name: ([], []) for name in ("autocorrelation", "sampled_energy",
                                              "bhattacharyya", "swap", "ipe")}
        escape_inc: list[float] = []   # each damped step appends its increment
        step_times: list[float] = []

        def dump_density(step_idx: int, current: StateVector):
            dens = probability_density(current, 0)
            name = f"density{suffix}_{step_idx:06d}.gwdg"
            iofmt.write_density_grid(out / name, dens, scen.box)
            outputs[name] = {}
            if obs.density_pgm and dens.ndim <= 2:
                pname = name.replace(".gwdg", ".pgm")
                iofmt.write_pgm(out / pname, dens)
                outputs[pname] = {}

        if obs.density or scen.plan_steps == 0:
            dump_density(0, state)

        def callback(step: int, t: float, current: StateVector):
            step_times.append(t)
            readings = {}
            # one overlap serves both cadences; each series keeps its own steps
            auto = obs.autocorrelation and step % obs.autocorrelation == 0
            probe = obs.ipe and step % obs.ipe == 0
            if auto or probe:
                overlap = inner_product(initial, current)
                if auto:
                    readings["autocorrelation"] = overlap
                if probe:
                    readings["ipe"] = plus_probability(overlap)
            if obs.sampled_energy and step % obs.sampled_energy == 0:
                from .observables import sampled_energy_expectation
                readings["sampled_energy"] = sampled_energy_expectation(
                    current, scen.spec, shots=obs.sampled_energy_shots or None,
                    rng=rng if obs.sampled_energy_shots else None).energy
            if obs.bhattacharyya and step % obs.bhattacharyya == 0:
                dens = probability_density(current, 0)
                readings["bhattacharyya"] = st.bhattacharyya(
                    init_density.reshape(-1), dens.reshape(-1))
            if obs.swap and step % obs.swap == 0:
                swapped = swap_particle_registers(current, 0, 1)
                readings["swap"] = inner_product(current, swapped).real
            for name, value in readings.items():
                series[name][0].append(t)
                series[name][1].append(value)
            if obs.density and step % obs.density == 0:
                dump_density(step, current)

        from .propagator import propagate
        state = propagate(state, plan, scen.spec, scen.plan_steps,
                          callbacks=[callback],
                          events={ev.at_step: partial(_apply_event, ev)
                                  for ev in scen.events} or None,
                          escape=escape_inc)

        for name, (times, values) in series.items():
            if len(times):
                iofmt.write_timeseries_csv(out / f"{name}{suffix}.csv", TimeSeries(
                    np.asarray(times), np.asarray(values)))
                sampled = name == "sampled_energy" and obs.sampled_energy_shots > 0
                outputs[f"{name}{suffix}.csv"] = {"sampled": sampled}
        if obs.ipe and obs.ipe_fit:
            est = fit_energy_from_signal(TimeSeries(*map(np.asarray, series["ipe"])))
            name = f"ipe_fit{suffix}.csv"
            (out / name).write_text(
                "energy,uncertainty,method\n"
                f"{est.energy:.17g},{est.uncertainty:.17g},{est.method}\n")
            outputs[name] = {}
        if escape_inc:
            iofmt.write_timeseries_csv(out / f"escape{suffix}.csv",
                                       escape_tracker(escape_inc, step_times))
            outputs[f"escape{suffix}.csv"] = {}
        if obs.dump_state:
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
    prep = scen.prep
    if prep is None:
        return state
    name = f"prep_log{suffix}.csv"
    outputs[name] = {}
    if prep.kind == "edit":
        from .prep import state_edit_remove
        edited, p = state_edit_remove(state, prep.energy, StepPlan(scen.plan_dt),
                                      scen.spec)
        (out / name).write_text("step,success_probability\n" f"0,{p:.17g}\n")
        return edited
    from .prep import imaginary_time_run
    params = ImaginaryTimeParams(prep.m0, scen.plan_dt)
    references = {}
    if prep.track_ground:
        from .dense import ground_pair, pixel_hamiltonian
        _, ground = ground_pair(pixel_hamiltonian(scen.box, scen.spec))
        references["ground_overlap"] = ground.astype(np.complex128)
    run = imaginary_time_run(state, params, StepPlan(scen.plan_dt), scen.spec,
                             prep.steps, references=references,
                             record_every=prep.record)
    # both clocks are recorded: the real step dt and the imaginary step
    # dtau = s*dt it realises
    labels = sorted(run.overlaps)
    lines = [",".join(["step,dt,dtau,success_probability", *labels])]
    for i, p in enumerate(run.success.values):
        lines.append(",".join([f"{(i + 1) * prep.record},{params.dt:.17g},"
                               f"{params.dtau:.17g},{p:.17g}",
                               *(f"{run.overlaps[k].values[i]:.17g}" for k in labels)]))
    (out / name).write_text("\n".join(lines) + "\n")
    return run.state


# -- bundled scenarios --------------------------------------------------------------

def bundled_scenarios() -> dict[str, str]:
    """name -> config text for every scenario shipped with the package."""
    from importlib.resources import files
    entries = sorted((files("gridwave") / "scenarios").iterdir(), key=lambda e: e.name)
    return {e.name[:-4]: e.read_text() for e in entries if e.name.endswith(".cfg")}


def resolve_scenario(name_or_path: str) -> str:
    if Path(name_or_path).exists():
        return Path(name_or_path).read_text()
    bundled = bundled_scenarios()
    if name_or_path in bundled:
        return bundled[name_or_path]
    raise ConfigError(f"no scenario file or bundled scenario named {name_or_path!r}")
