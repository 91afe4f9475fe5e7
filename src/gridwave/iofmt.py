"""File formats: time-series CSV, raw statevector dumps, density grids, manifests.

All binary formats are little-endian.  CSV values carry 17 significant digits
so that exact-mode outputs are byte-reproducible.
"""

from __future__ import annotations

import hashlib
import json
import struct
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .observables import TimeSeries

SV_MAGIC = b"GWSV"
DG_MAGIC = b"GWDG"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_timeseries_csv(path, series: TimeSeries) -> None:
    values = np.asarray(series.values)
    complex_vals = np.iscomplexobj(values)
    lines = ["time,value_re,value_im" if complex_vals else "time,value_re"]
    for i, t in enumerate(series.times):
        if complex_vals:
            lines.append(f"{_fmt(t)},{_fmt(values[i].real)},{_fmt(values[i].imag)}")
        else:
            lines.append(f"{_fmt(t)},{_fmt(values[i])}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_timeseries_csv(path) -> TimeSeries:
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    times = np.array([float(r[0]) for r in rows])
    if len(header) == 3:
        vals = np.array([complex(float(r[1]), float(r[2])) for r in rows])
    else:
        vals = np.array([float(r[1]) for r in rows])
    return TimeSeries(times, vals)


def write_statevector(path, state) -> None:
    """Raw dump: magic, version, qubit count, reserved, then (re, im) doubles."""
    with open(path, "wb") as fh:
        fh.write(SV_MAGIC)
        fh.write(struct.pack("<III", 1, state.num_qubits, 0))
        interleaved = np.empty(2 * state.amps.size, dtype="<f8")
        interleaved[0::2] = state.amps.real
        interleaved[1::2] = state.amps.imag
        fh.write(interleaved.tobytes())


def read_statevector(path) -> tuple[np.ndarray, int]:
    raw = Path(path).read_bytes()
    if raw[:4] != SV_MAGIC:
        raise ConfigError(f"{path}: not a statevector dump")
    version, num_qubits, _ = struct.unpack("<III", raw[4:16])
    if version != 1:
        raise ConfigError(f"{path}: unsupported dump version {version}")
    flat = np.frombuffer(raw[16:], dtype="<f8")
    if flat.size != 2 * (1 << num_qubits):
        raise ConfigError(f"{path}: truncated dump")
    return (flat[0::2] + 1j * flat[1::2]).astype(np.complex128), num_qubits


def write_density_grid(path, density: np.ndarray, box) -> None:
    """Binary grid: magic, dims, per-dim point counts log2, per-dim widths,
    then row-major probabilities (axes x, y, z; last axis fastest)."""
    density = np.asarray(density, dtype=np.float64)
    dims = density.ndim
    with open(path, "wb") as fh:
        fh.write(DG_MAGIC)
        fh.write(struct.pack("<I", dims))
        for d in range(dims):
            n = density.shape[d]
            fh.write(struct.pack("<I", n.bit_length() - 1))
        for d in range(dims):
            fh.write(struct.pack("<d", box.width_for(density.shape[d].bit_length() - 1)))
        fh.write(density.astype("<f8").tobytes())


def read_density_grid(path):
    raw = Path(path).read_bytes()
    if raw[:4] != DG_MAGIC:
        raise ConfigError(f"{path}: not a density grid")
    dims = struct.unpack("<I", raw[4:8])[0]
    off = 8
    n_r = []
    for _ in range(dims):
        n_r.append(struct.unpack("<I", raw[off:off + 4])[0])
        off += 4
    lengths = []
    for _ in range(dims):
        lengths.append(struct.unpack("<d", raw[off:off + 8])[0])
        off += 8
    shape = tuple(1 << n for n in n_r)
    data = np.frombuffer(raw[off:], dtype="<f8").reshape(shape)
    return data, n_r, lengths


def write_pgm(path, density: np.ndarray) -> None:
    """Quick-look binary greymap; 2D only (a 1D grid becomes one row)."""
    d = np.asarray(density, dtype=np.float64)
    if d.ndim == 1:
        d = d[None, :]
    if d.ndim != 2:
        raise ConfigError("greymap rendering supports 1D and 2D grids only")
    peak = d.max()
    img = np.zeros_like(d, dtype=np.uint8) if peak <= 0 else \
        np.round(255.0 * d / peak).astype(np.uint8)
    # image rows top to bottom = decreasing y; columns = increasing x
    img = img.T[::-1, :]
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        fh.write(img.tobytes())


def file_sha256(path) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


def write_manifest(path, *, config_text: str, seed: int, outputs: dict) -> None:
    """Manifest with a seedless config hash plus per-output content hashes.

    ``outputs`` maps relative filename -> {"sampled": bool}.
    """
    base = Path(path).parent
    entries = {}
    for name, meta in sorted(outputs.items()):
        entries[name] = {"sha256": file_sha256(base / name),
                         "sampled": bool(meta.get("sampled", False))}
    doc = {
        "format": "gridwave-manifest/1",
        "config_hash": hashlib.sha256(config_text.encode()).hexdigest(),
        "config_text": config_text,
        "seed": seed,
        "versions": {
            "gridwave": _package_version(),
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "outputs": entries,
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _package_version() -> str:
    try:
        from importlib.metadata import version
        return version("gridwave")
    except Exception:
        return "unknown"


def diff_manifests(path_a, path_b) -> list[str]:
    """Differences that matter: config (seedless), versions, output hashes.

    Sampled outputs are skipped when the two runs used different seeds.
    """
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    out = []
    if a.get("config_hash") != b.get("config_hash"):
        out.append("config differs")
    if a.get("versions") != b.get("versions"):
        out.append(f"versions differ: {a.get('versions')} vs {b.get('versions')}")
    seeds_differ = a.get("seed") != b.get("seed")
    names = sorted(set(a.get("outputs", {})) | set(b.get("outputs", {})))
    for name in names:
        ea, eb = a["outputs"].get(name), b["outputs"].get(name)
        if ea is None or eb is None:
            out.append(f"output {name} present in only one run")
            continue
        if seeds_differ and (ea["sampled"] or eb["sampled"]):
            continue
        if ea["sha256"] != eb["sha256"]:
            out.append(f"output {name} differs")
    return out
