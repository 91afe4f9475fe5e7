#!/usr/bin/env python3
"""Run one of the paper's studies and reduce its runs to CSV tables.

Every study point is a bundled scenario with a few keys set, run by
``run_scenario`` like any ``gridwave run``, so each point is validated and
checked against the emulation ceiling.  The runs' own outputs stay under
<out>/runs/.

  origin_offset     psi11_resolution_nr7 with the potential origin at 0.5 to
                    0.1 of a grid spacing: worst autocorrelation loss over the
                    run and the probe-fit energy (origin_offset.csv)
  resolution        2D hydrogen (0,0) and (1,1) over grid resolution and time
                    step, each for a time of 1.5: final autocorrelation
                    deviation and probe-fit energy (resolution_ground.csv,
                    resolution_excited.csv)
  patch_correction  aso_core: |autocorrelation| per step with no patch, the
                    2x2 and the 4x4 patch (autocorrelation_comparison.csv)
  scattering        scattering_reduced with the incident momentum 0 -2: the
                    escape until it reaches 0.5, then the survivor with the
                    pair coupling dropped, its register enlarged and dt = 0.05
                    (escape_phase1.csv, survivor_phase2.csv)
"""

import argparse
from pathlib import Path

import numpy as np

from gridwave import hydrogen2d_energy
from gridwave.config_text import canonical_text, parse_config
from gridwave.iofmt import read_density_grid, read_timeseries_csv
from gridwave.scenario import bundled_scenarios, load_scenario, run_scenario

OFFSETS = (0.5, 0.4, 0.3, 0.2, 0.1)
# state -> ((n, m) of hydrogen2d, box length, n_r values, dt values)
RESOLUTION = {"ground": ((0, 0), 10.0, (6, 7, 8), (1e-2, 1e-3, 1e-4)),
              "excited": ((1, 1), 40.0, (7, 8), (1e-1, 1e-2, 1e-3))}
TOTAL_TIME = 1.5
PATCH_LABELS = {0: "none", 2: "2x2", 4: "4x4"}
TRIGGER = 0.5           # escape that ends the scattering's first phase
PHASE1_STEPS, PHASE2_STEPS = 2000, 400


def _sections(sec):
    yield sec
    for _, child in sec.children:
        yield from _sections(child)


def scenario_text(name: str, keys: dict, extra: str = "") -> str:
    """The bundled scenario ``name`` with ``keys`` ("section.key" -> value)
    set and the sections of ``extra`` appended."""
    root = parse_config(bundled_scenarios()[name])
    for dotted, value in keys.items():
        path, _, key = dotted.rpartition(".")
        found = [sec for sec in _sections(root) if sec.path == path]
        if len(found) != 1:
            raise KeyError(f"{name} has {len(found)} sections at {path!r}")
        found[0].entries[key] = value
    root.children.extend(parse_config(extra).children)
    return canonical_text(root)


def origin_offset_texts() -> dict:
    # the overlap at every step for the worst loss; the probe on its own cadence
    return {offset: scenario_text("psi11_resolution_nr7", {
                "box.origin_offset": offset, "observables.autocorrelation": 1,
                "observables.ipe.every": 10})
            for offset in OFFSETS}


def resolution_texts() -> dict:
    texts = {}
    for case, ((n, m), length, n_rs, dts) in RESOLUTION.items():
        for n_r in n_rs:
            for dt in dts:
                steps = int(round(TOTAL_TIME / dt))
                # the overlap at the last step and about 128 probe samples
                texts[case, n_r, dt] = scenario_text("psi11_resolution_nr7", {
                    "description": f"Resolution study: 2D hydrogen (n,m)=({n},{m}), "
                                   f"n_r={n_r}, dt={dt:g}",
                    "box.n_r": n_r, "box.length": length, "plan.dt": dt,
                    "plan.steps": steps, "initial_state.hydrogen2d.n": n,
                    "initial_state.hydrogen2d.m": m,
                    "observables.autocorrelation": steps,
                    "observables.ipe.every": max(steps // 128, 1)})
    return texts


def patch_correction_text() -> str:
    return scenario_text("aso_core", {"observables.autocorrelation": 1})


def scattering_text(escape_step: int | None = None) -> str:
    """The first phase, or with ``escape_step`` the run that switches to the
    survivor phase after that step and writes a density grid per step."""
    keys = {"initial_state.orbital.gaussian.momentum": [0.0, -2.0],
            "plan.steps": PHASE1_STEPS, "observables.swap": 0,
            "observables.density": 0}
    if escape_step is None:
        return scenario_text("scattering_reduced", keys)
    keys.update({"plan.steps": escape_step + PHASE2_STEPS, "observables.density": 1})
    return scenario_text("scattering_reduced", keys,
                         f"event {{ at_step = {escape_step}  drop_couplings = true  "
                         "enlarge_particle = 0  dt = 0.05 }")


def study_texts() -> list:
    """Every scenario text the studies run; the survivor run at the latest
    step the first phase can end."""
    return [*origin_offset_texts().values(), *resolution_texts().values(),
            patch_correction_text(), scattering_text(), scattering_text(PHASE1_STEPS)]


# -- running and reducing ----------------------------------------------------------

def run(text: str, out: Path, label: str) -> Path:
    where = out / "runs" / label
    run_scenario(text, where)
    print(f"ran {label}")
    return where


def fit_energy(run_dir: Path) -> float:
    return float((run_dir / "ipe_fit.csv").read_text().splitlines()[1].split(",")[0])


def write_rows(path: Path, rows: list) -> None:
    path.write_text("\n".join(rows) + "\n")
    print(f"wrote {path}")


def origin_offset(out: Path) -> None:
    rows = ["offset,max_autocorr_loss,fit_energy"]
    for offset, text in origin_offset_texts().items():
        where = run(text, out, f"offset{offset}")
        overlaps = read_timeseries_csv(where / "autocorrelation.csv").values.tolist()
        worst = max(abs(1 - abs(c)) for c in overlaps)
        rows.append(f"{offset},{worst:.17g},{fit_energy(where):.17g}")
    write_rows(out / "origin_offset.csv", rows)


def resolution(out: Path) -> None:
    rows = {case: ["n_r,dt,autocorr_deviation,fit_energy,analytic_energy"]
            for case in RESOLUTION}
    for (case, n_r, dt), text in resolution_texts().items():
        where = run(text, out, f"{case}_nr{n_r}_dt{dt:g}")
        final = read_timeseries_csv(where / "autocorrelation.csv").values.tolist()[-1]
        analytic = hydrogen2d_energy(RESOLUTION[case][0][0])
        rows[case].append(f"{n_r},{dt:g},{abs(1 - abs(final)):.17g},"
                          f"{fit_energy(where):.17g},{analytic:.17g}")
    for case, lines in rows.items():
        write_rows(out / f"resolution_{case}.csv", lines)


def patch_correction(out: Path) -> None:
    text = patch_correction_text()
    scen = load_scenario(text)
    where = run(text, out, "aso_core")
    traces = [np.abs(read_timeseries_csv(where / f"autocorrelation_patch{p}.csv").values)
              for p in scen.aug_patches]
    rows = ["step,time," + ",".join(PATCH_LABELS[p] for p in scen.aug_patches)]
    for i, values in enumerate(zip(*traces)):
        rows.append(f"{i + 1},{(i + 1) * scen.plan_dt:.6f},"
                    + ",".join(f"{v:.17g}" for v in values))
    write_rows(out / "autocorrelation_comparison.csv", rows)


def scattering(out: Path) -> None:
    escape = read_timeseries_csv(run(scattering_text(), out, "phase1") / "escape.csv")
    crossed = np.flatnonzero(escape.values >= TRIGGER)
    k = int(crossed[0]) + 1 if crossed.size else PHASE1_STEPS
    write_rows(out / "escape_phase1.csv", ["time,cumulative_escape"] + [
        f"{t:.6f},{e:.17g}" for t, e in zip(escape.times[:k], escape.values[:k])])

    where = run(scattering_text(k), out, "phase2")
    escape = read_timeseries_csv(where / "escape.csv")
    rows = ["time,left_weight,cumulative_escape"]
    for step in range(k + 1, k + PHASE2_STEPS + 1):
        dens, _, _ = read_density_grid(where / f"density_{step:06d}.gwdg")
        left = float(dens[: dens.shape[0] // 2, :].sum())
        rows.append(f"{escape.times[step - 1]:.6f},{left:.17g},"
                    f"{escape.values[step - 1]:.17g}")
    write_rows(out / "survivor_phase2.csv", rows)


STUDIES = {"origin_offset": origin_offset, "resolution": resolution,
           "patch_correction": patch_correction, "scattering": scattering}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--study", required=True, choices=sorted(STUDIES))
    ap.add_argument("--out", help="output directory (default out/<study>)")
    args = ap.parse_args()
    out = Path(args.out or Path("out") / args.study)
    out.mkdir(parents=True, exist_ok=True)
    STUDIES[args.study](out)


if __name__ == "__main__":
    main()
