"""Artifact serialization: JSON reports and bulk path CSVs.

Every artifact opens with a metadata block (tool version, config hash, master
seed) and is written deterministically: sorted JSON keys, 17-significant-digit
floats, no timestamps.  Identical config + seed must produce byte-identical
files.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

from .errors import SupermartError

__all__ = [
    "config_hash",
    "jsonable",
    "write_json",
    "write_paths_csv",
    "write_jumps_csv",
    "read_paths_csv",
    "write_curves_csv",
]

_FMT = "{:.17g}"


def config_hash(obj) -> str:
    blob = json.dumps(jsonable(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def jsonable(obj):
    """Recursively convert to plain JSON types; infinities become "inf"."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if math.isnan(x):
            return "nan"
        return x
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def write_json(path: str, payload: dict, meta: dict) -> None:
    doc = {"meta": jsonable(meta)}
    doc.update(jsonable(payload))
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _write_head(fh, meta: dict, header: str) -> None:
    """The ``# key: value`` metadata block, keys sorted, then the column names."""
    fh.writelines(f"# {k}: {meta[k]}\n" for k in sorted(meta))
    fh.write(header + "\n")


def _ensemble_meta(ensemble, meta: dict) -> dict:
    """``meta`` plus the ``lambda`` and ``phi`` that `read_paths_csv` needs."""
    return {
        **meta,
        "lambda": _FMT.format(ensemble.lam),
        "phi": " ".join(_FMT.format(v) for v in ensemble.phi),
    }


def write_paths_csv(path: str, ensemble, meta: dict) -> None:
    """Bulk path table: ``path_id,t,mass_1..mass_d,M`` with 17 digits.

    The metadata block also carries the ensemble's ``lambda`` and ``phi``.
    """
    d = len(ensemble.phi)
    times = np.asarray(ensemble.times, dtype=float).tolist()
    # one format string for a whole path: the shared time column is formatted
    # once, field 0 is the path id, then come the masses and M of each row
    k = d + 1
    block = "".join(
        f"{{0}},{_FMT.format(t)}," + ",".join(f"{{{1 + j * k + i}:.17g}}" for i in range(k)) + "\n"
        for j, t in enumerate(times)
    )
    cols = ",".join(f"mass_{i + 1}" for i in range(d))
    with open(path, "w") as fh:
        _write_head(fh, _ensemble_meta(ensemble, meta), f"path_id,t,{cols},M")
        for pid in range(ensemble.n_paths):
            values = np.column_stack([ensemble.masses[pid], ensemble.M[pid]]).ravel().tolist()
            fh.write(block.format(pid, *values))


def write_jumps_csv(path: str, ensemble, meta: dict) -> None:
    """Sidecar jump log: ``ensemble.jumps`` as ``path_id,t,type,size``, types 1-based.

    Its metadata block is the one `write_paths_csv` writes for the same
    ensemble, which is how `read_paths_csv` tells that the two belong together.
    """
    row = "{:.0f}," + _FMT + ",{:.0f}," + _FMT + "\n"
    jumps = ensemble.jumps
    with open(path, "w") as fh:
        _write_head(fh, _ensemble_meta(ensemble, meta), "path_id,t,type,size")
        # in blocks of rows, so that only one block's text is held at a time
        for start in range(0, len(jumps), 4096):
            block = jumps[start : start + 4096].tolist()
            fh.write("".join([row.format(pid, t, ty + 1, r) for pid, t, ty, r in block]))


def _read_csv(path: str):
    """Metadata dict, column names and numeric rows of an artifact CSV."""
    meta = {}
    try:
        fh = open(path)
    except OSError as exc:
        raise SupermartError(f"cannot read {path}: {exc.strerror or exc}") from None
    with fh:
        line = fh.readline()
        while line.startswith("#"):
            key, _, val = line[1:].partition(":")
            meta[key.strip()] = val.strip()
            line = fh.readline()
        header = line.strip().split(",")
        start = fh.tell()
        if not fh.readline():  # a jump log may have no rows
            return meta, header, np.empty((0, len(header)))
        fh.seek(start)
        try:
            return meta, header, np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise SupermartError(f"{path}: {exc}") from None


def read_paths_csv(path: str):
    """Rebuild the Ensemble of a paths CSV; returns it with the metadata dict.

    ``lam`` and ``phi`` come from the metadata block, and a paths CSV without
    them is refused.  A ``jumps.csv`` beside it is read back as `Ensemble.jumps`
    (its table, types 0-based again); one with another metadata block, a path
    id out of order or outside the paths, or a type outside ``[1, d]`` is refused.
    """
    from .sim.records import Ensemble

    meta, header, data = _read_csv(path)
    d = len([h for h in header if h.startswith("mass_")])
    try:
        lam = float(meta["lambda"])
        phi = np.array([float(v) for v in meta["phi"].split()])
    except KeyError as exc:
        raise SupermartError(f"{path}: metadata has no {exc} line") from None
    except ValueError as exc:
        raise SupermartError(f"{path}: bad lambda or phi in metadata: {exc}") from None
    if len(phi) != d:
        raise SupermartError(f"{path}: metadata phi has {len(phi)} entries for {d} types")
    # rows come path by path, every path on the same times
    n_paths = int(data[-1, 0]) + 1 if len(data) else 0
    n_times = len(data) // max(n_paths, 1)
    times = data[:n_times, 1]
    ids = np.repeat(np.arange(n_paths), n_times)
    if n_times == 0 or not (
        np.array_equal(data[:, 0], ids) and np.array_equal(data[:, 1], np.tile(times, n_paths))
    ):
        raise SupermartError(f"{path}: rows are not one block of the same times per path id")
    masses = data[:, 2 : 2 + d].reshape(n_paths, n_times, d)
    m = data[:, 2 + d].reshape(n_paths, n_times)
    jumps = None
    jumps_path = os.path.join(os.path.dirname(path), "jumps.csv")
    if os.path.exists(jumps_path):
        jmeta, _, log = _read_csv(jumps_path)
        if jmeta != meta:
            raise SupermartError(
                f"{jumps_path} belongs to another run than {path} (metadata differs)"
            )
        pid, ty = log[:, 0], log[:, 2]
        faults = (
            ((pid != np.floor(pid)) | (pid < 0) | (pid >= n_paths) | (np.diff(pid, prepend=0.0) < 0),
             f"path ids must be non-decreasing integers in [0, {n_paths})"),
            ((ty != np.floor(ty)) | (ty < 1) | (ty > d), f"types must be integers in [1, {d}]"),
        )
        for bad, rule in faults:
            if bad.any():
                row = log[np.argmax(bad)].tolist()
                raise SupermartError(f"{jumps_path}: jump row {row} does not fit {path}: {rule}")
        jumps = log - [0.0, 0.0, 1.0, 0.0]
    return Ensemble(times=times, M=m, masses=masses, lam=lam, phi=phi, jumps=jumps), meta


def write_curves_csv(path: str, rows, meta: dict) -> None:
    """Per-path functional curves: ``path_id,kind,t,value``."""
    with open(path, "w") as fh:
        _write_head(fh, meta, "path_id,kind,t,value")
        for pid, kind, t, v in rows:
            fh.write(f"{pid},{kind},{_FMT.format(t)},{_FMT.format(v)}\n")


def ensure_dir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path
