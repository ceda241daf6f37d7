"""Configuration checkpoints.

Checkpoint layout: one UTF-8 JSON header line, a newline, then raw
little-endian float64 bytes of the Fourier coefficients of a and psi,
row-major over (k1, k2, k3) with components innermost and each complex
entry stored as (re, im).  Mode order along each axis follows the FFT
convention 0, 1, ..., N, -N, ..., -1.
"""
from __future__ import annotations

import hashlib
import json
from typing import Optional, Tuple

import numpy as np

from .errors import CheckpointError
from .torus import PerturbationParams, SWConfiguration, TorusLattice

_MAGIC = "ucp-lab-checkpoint"


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


def _pack(arr_hat: np.ndarray) -> bytes:
    # (comp, n, n, n) complex -> (n, n, n, comp) little-endian complex128, i.e. (re, im) f64
    return np.ascontiguousarray(np.moveaxis(arr_hat, 0, -1), dtype="<c16").tobytes()


def _unpack(raw: bytes, n: int, comps: int) -> np.ndarray:
    return np.moveaxis(np.frombuffer(raw, dtype="<c16").reshape(n, n, n, comps), -1, 0)


def save_checkpoint(config: SWConfiguration, path, case: str = "unperturbed",
                    params: Optional[PerturbationParams] = None) -> None:
    lat = config.lattice
    a_hat = lat.fft(1j * config.alpha.astype(complex))
    psi_hat = lat.fft(config.psi)
    header = {
        "format": _MAGIC,
        "lattice_n": lat.n,
        "lattice_N": lat.N,
        "case": case,
        "params_hash": params_hash(params),
        "arrays": {"a": [lat.n, lat.n, lat.n, 3], "psi": [lat.n, lat.n, lat.n, 2]},
        "dtype": "complex as interleaved little-endian f64, components innermost",
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(_pack(a_hat))
        fh.write(_pack(psi_hat))


def load_checkpoint(path) -> Tuple[SWConfiguration, dict]:
    with open(path, "rb") as fh:
        line, payload = fh.readline(), fh.read()
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        header = None
    if not isinstance(header, dict) or header.get("format") != _MAGIC:
        raise CheckpointError("not a checkpoint file")
    n, N = header.get("lattice_n"), header.get("lattice_N")
    if not (type(n) is type(N) is int and N >= 1 and n == 2 * N + 1):
        raise CheckpointError(f"lattice_n = {n!r} is not 2 * lattice_N + 1 for an int "
                              f"lattice_N = {N!r} >= 1")
    size_a = n ** 3 * 3 * 16
    expected = size_a + n ** 3 * 2 * 16
    if len(payload) != expected:
        raise CheckpointError(f"payload has {len(payload)} bytes, expected {expected}")
    a_hat = _unpack(payload[:size_a], n, 3)
    psi_hat = _unpack(payload[size_a:], n, 2)
    for name, arr in (("a_hat", a_hat), ("psi_hat", psi_hat)):
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(f"payload array {name} holds non-finite values")
    lat = TorusLattice(N)
    a = lat.ifft(a_hat)
    if np.max(np.abs(a.real)) > 1e-12 * np.max(np.abs(a)):  # a = i alpha; refuse, not drop
        raise CheckpointError("payload array a_hat has a real part beyond rounding")
    return SWConfiguration(lat, a.imag, lat.ifft(psi_hat)), header

