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
    h.update(repr(params.p1.terms).encode())
    h.update(repr(params.p2.terms).encode())
    h.update(np.ascontiguousarray(params.p3.coeffs).tobytes())
    h.update(repr(params.winding_shift).encode())
    return h.hexdigest()


def _pack(arr_hat: np.ndarray) -> bytes:
    # (comp, n, n, n) complex -> (n, n, n, comp, 2) little-endian f64 bytes
    moved = np.moveaxis(arr_hat, 0, -1)
    interleaved = np.stack([moved.real, moved.imag], axis=-1)
    return np.ascontiguousarray(interleaved, dtype="<f8").tobytes()


def _unpack(raw: bytes, n: int, comps: int) -> np.ndarray:
    flat = np.frombuffer(raw, dtype="<f8").reshape(n, n, n, comps, 2)
    return np.moveaxis(flat[..., 0] + 1j * flat[..., 1], -1, 0)


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
        header = json.loads(fh.readline().decode("utf-8"))
        payload = fh.read()
    if header.get("format") != _MAGIC:
        raise CheckpointError("not a checkpoint file")
    n, N = int(header["lattice_n"]), int(header["lattice_N"])
    if n != 2 * N + 1:
        raise CheckpointError(f"lattice_n = {n} is not 2 * lattice_N + 1 = {2 * N + 1}")
    size_a = n ** 3 * 3 * 2 * 8
    expected = size_a + n ** 3 * 2 * 2 * 8
    if len(payload) != expected:
        raise CheckpointError(f"payload has {len(payload)} bytes, expected {expected}")
    a_hat = _unpack(payload[:size_a], n, 3)
    psi_hat = _unpack(payload[size_a:], n, 2)
    lat = TorusLattice(N)
    alpha = np.imag(lat.ifft(a_hat))
    psi = lat.ifft(psi_hat)
    return SWConfiguration(lat, alpha, psi), header

