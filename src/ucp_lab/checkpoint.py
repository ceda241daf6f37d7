"""Configuration checkpoints.

Checkpoint layout: one UTF-8 JSON header line, a newline, then the
configuration as the lattice holds it, in physical space: alpha as
little-endian float64, shape (3, n, n, n), then psi as little-endian
complex128, each entry an (re, im) pair of float64, shape (2, n, n, n).
Both are row-major, components first.  Saving and loading copy the bytes
and make no transform, so a loaded configuration equals the saved one bit
for bit.
"""
from __future__ import annotations

import hashlib
import json
from typing import Optional, Tuple

import numpy as np

from .errors import CheckpointError
from .torus import PerturbationParams, SWConfiguration, TorusLattice

FORMAT = "ucp-lab-checkpoint-physical"


def params_hash(params: Optional[PerturbationParams]) -> str:
    if params is None:
        return ""
    h = hashlib.sha256()
    for arr in (params.mus, params.nus, params.spinor_basis, params.eigenvalues,
                params.epsilons):
        h.update(np.ascontiguousarray(arr).tobytes())
    for fn in (params.p1, params.p2, params.p3):
        h.update(repr(fn.terms).encode())
    h.update(repr(params.winding_shift).encode())
    return h.hexdigest()


def save_checkpoint(config: SWConfiguration, path, case: str = "unperturbed",
                    params: Optional[PerturbationParams] = None) -> None:
    lat = config.lattice
    header = {
        "format": FORMAT,
        "lattice_n": lat.n,
        "lattice_N": lat.N,
        "case": case,
        "params_hash": params_hash(params),
        "arrays": {"alpha": list(config.alpha.shape), "psi": list(config.psi.shape)},
        "dtype": {"alpha": "<f8", "psi": "<c16"},
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(np.ascontiguousarray(config.alpha, dtype="<f8"))
        fh.write(np.ascontiguousarray(config.psi, dtype="<c16"))


def load_checkpoint(path) -> Tuple[SWConfiguration, dict]:
    with open(path, "rb") as fh:
        line = fh.readline()
        try:
            header = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise CheckpointError("not a checkpoint file: its first line is not "
                                  "UTF-8 JSON") from None
        found = header.get("format") if isinstance(header, dict) else None
        if found != FORMAT:
            raise CheckpointError(f"not a checkpoint file of format {FORMAT!r}: "
                                  f"its format is {found!r}")
        n, N = header.get("lattice_n"), header.get("lattice_N")
        if not (type(n) is type(N) is int and N >= 1 and n == 2 * N + 1):
            raise CheckpointError(f"lattice_n = {n!r} is not 2 * lattice_N + 1 for an int "
                                  f"lattice_N = {N!r} >= 1")
        alpha = np.empty((3, n, n, n), dtype="<f8")
        psi = np.empty((2, n, n, n), dtype="<c16")
        got = fh.readinto(alpha) + fh.readinto(psi) + len(fh.read())
    expected = alpha.nbytes + psi.nbytes
    if got != expected:
        raise CheckpointError(f"payload has {got} bytes, expected {expected}")
    for name, arr in (("alpha", alpha), ("psi", psi)):
        if not np.isfinite(arr).all():
            raise CheckpointError(f"payload array {name} holds non-finite values")
    return SWConfiguration(TorusLattice(N), alpha, psi), header
