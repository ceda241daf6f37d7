import dataclasses
import json

import numpy as np
import pytest

from ucp_lab import torus as tw
from ucp_lab.checkpoint import load_checkpoint, params_hash, save_checkpoint
from ucp_lab.cli import _rng, main
from ucp_lab.errors import CheckpointError


@pytest.fixture(scope="module")
def lat():
    return tw.TorusLattice(2)


def test_round_trip(tmp_path, lat):
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([1])))
    cfg = tw.random_config(lat, rng, amplitude=0.7)
    path = tmp_path / "state.ckpt"
    save_checkpoint(cfg, path, case="case1")
    loaded, header = load_checkpoint(path)
    assert header["case"] == "case1"
    assert header["lattice_N"] == lat.N
    assert np.max(np.abs(loaded.alpha - cfg.alpha)) < 1e-12
    assert np.max(np.abs(loaded.psi - cfg.psi)) < 1e-12


def test_loads_spectra_written_by_numpy_fft(tmp_path, lat, monkeypatch):
    """A checkpoint whose spectra numpy's FFT wrote loads within 1e-13."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([5])))
    cfg = tw.random_config(lat, rng, amplitude=0.7)
    path = tmp_path / "numpy.ckpt"
    with monkeypatch.context() as m:
        m.setattr(tw.TorusLattice, "fft", lambda self, f: np.fft.fftn(f, axes=(-3, -2, -1)))
        save_checkpoint(cfg, path)
    loaded, _ = load_checkpoint(path)
    for got, want in ((loaded.alpha, cfg.alpha), (loaded.psi, cfg.psi)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_header_is_json_line_with_layout(tmp_path, lat):
    cfg = tw.SWConfiguration.zero(lat)
    path = tmp_path / "state.ckpt"
    save_checkpoint(cfg, path)
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        payload = fh.read()
    assert header["arrays"]["a"] == [lat.n, lat.n, lat.n, 3]
    assert header["arrays"]["psi"] == [lat.n, lat.n, lat.n, 2]
    assert len(payload) == lat.n ** 3 * (3 + 2) * 2 * 8


def test_save_is_deterministic(tmp_path, lat):
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([2])))
    cfg = tw.random_config(lat, rng, amplitude=0.5)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(cfg, p1)
    save_checkpoint(cfg, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b'{"format": "something-else"}\n')
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_foreign_file_error_is_typed(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b'{"format": "something-else"}\n')
    with pytest.raises(CheckpointError, match="not a checkpoint"):
        load_checkpoint(path)


def test_rejects_truncated_and_padded_payload(tmp_path, lat):
    path = tmp_path / "state.ckpt"
    save_checkpoint(tw.SWConfiguration.zero(lat), path)
    good = path.read_bytes()
    for broken in (good[:-1], good + b"\0"):
        path.write_bytes(broken)
        with pytest.raises(CheckpointError, match="payload"):
            load_checkpoint(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["a_hat", "psi_hat"])
def test_rejects_non_finite_payload(tmp_path, lat, name, bad):
    """One non-finite f64 in either array is refused by name, not spread by
    the inverse transform over the whole configuration."""
    path = tmp_path / "state.ckpt"
    save_checkpoint(tw.SWConfiguration.zero(lat), path)
    header, payload = path.read_bytes().split(b"\n", 1)
    at = 0 if name == "a_hat" else lat.n ** 3 * 3 * 16
    payload = payload[:at] + np.array([bad], dtype="<f8").tobytes() + payload[at + 8:]
    path.write_bytes(header + b"\n" + payload)
    with pytest.raises(CheckpointError, match=name):
        load_checkpoint(path)


def test_rejects_a_hat_whose_field_is_not_imaginary(tmp_path, lat):
    """a = i alpha is imaginary-valued.  Adding 5 to every coefficient of a
    gives the field a real part that the load would silently drop, so it is
    refused by name; the rounding-level real part of a saved random
    configuration passes."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([6])))
    path = tmp_path / "state.ckpt"
    save_checkpoint(tw.random_config(lat, rng, amplitude=0.7), path)
    load_checkpoint(path)
    header, payload = path.read_bytes().split(b"\n", 1)
    raw = np.frombuffer(payload, dtype="<c16").copy()
    raw[:lat.n ** 3 * 3] += 5.0
    path.write_bytes(header + b"\n" + raw.tobytes())
    with pytest.raises(CheckpointError, match="a_hat"):
        load_checkpoint(path)


def test_rejects_mismatched_lattice_size(tmp_path, lat):
    path = tmp_path / "state.ckpt"
    save_checkpoint(tw.SWConfiguration.zero(lat), path)
    header, payload = path.read_bytes().split(b"\n", 1)
    fields = json.loads(header)
    fields["lattice_n"] = lat.n + 2
    path.write_bytes(json.dumps(fields, sort_keys=True).encode() + b"\n" + payload)
    with pytest.raises(CheckpointError, match="lattice_n"):
        load_checkpoint(path)


@pytest.mark.parametrize("line", [
    b'{"format": "ucp-lab-checkpoint", "lattice_N": 2}',
    b'["ucp-lab-checkpoint", 5, 2]',
    b'\xff\xfe{"format": "ucp-lab-checkpoint"}',
    b'ucp-lab-checkpoint lattice_n=5',
    b'{"format": "ucp-lab-checkpoint", "lattice_n": "x", "lattice_N": 2}',
], ids=["no-lattice_n", "json-list", "not-utf8", "not-json", "lattice_n-not-int"])
def test_malformed_header_raises_checkpoint_error(tmp_path, lat, line):
    path = tmp_path / "state.ckpt"
    save_checkpoint(tw.SWConfiguration.zero(lat), path)
    payload = path.read_bytes().split(b"\n", 1)[1]
    path.write_bytes(line + b"\n" + payload)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_payload_is_re_im_f64_pairs_components_innermost(tmp_path, lat):
    """The payload is the layout the module states: spectra of a = i alpha,
    then psi, (n, n, n, comp) row-major, each entry as little-endian (re, im)."""
    cfg = tw.random_config(lat, np.random.default_rng(3), amplitude=0.7)
    path = tmp_path / "state.ckpt"
    save_checkpoint(cfg, path)
    payload = path.read_bytes().split(b"\n", 1)[1]
    want = b"".join(np.stack([m.real, m.imag], axis=-1).astype("<f8").tobytes()
                    for m in (np.moveaxis(lat.fft(1j * cfg.alpha), 0, -1),
                              np.moveaxis(lat.fft(cfg.psi), 0, -1)))
    assert payload == want


def test_params_hash_distinguishes_data(lat):
    p1 = tw.default_params(lat)
    kind, slot, c, w, b = p1.p3.terms[0]
    moved = tw.SeparableFunction(p1.n_eta, [(kind, slot, c + 0.01, w, b)] + p1.p3.terms[1:])
    p2 = dataclasses.replace(p1, p3=moved)
    assert params_hash(p1) != params_hash(p2)
    assert params_hash(p1) == params_hash(tw.default_params(lat))
    assert params_hash(None) == ""


def test_trajectory_csv(tmp_path, lat):
    """The sw-flow suite writes trial 0's trajectory to plotdata/flow_0.csv."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text("N = 2\ntrials = 1\nmax_steps = 150\n")
    assert main(["run", "--suite", "sw-flow", "--config", str(cfg),
                 "--out", str(tmp_path), "--seed", "5"]) == 0
    start = tw.random_config(lat, _rng(5, 21, 0), amplitude=1e-4)
    flow = tw.run_flow(start, dt=3.0, steps=150, residual_target=1e-6)
    lines = (tmp_path / "plotdata" / "flow_0.csv").read_text().strip().splitlines()
    assert lines[0] == "step,time,csd,residual_curvature,residual_dirac,sup_psi"
    assert len(lines) == len(flow.trajectory) + 1
    assert float(lines[-1].split(",")[-1]) == flow.trajectory[-1].sup_psi
