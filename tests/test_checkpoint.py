import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucp_lab import torus as tw
from ucp_lab.checkpoint import FORMAT, load_checkpoint, params_hash, save_checkpoint
from ucp_lab.cli import _rng, main
from ucp_lab.errors import CheckpointError


@pytest.fixture(scope="module")
def lat():
    return tw.TorusLattice(2)


def assert_bits_equal(got, want):
    """Equal as stored doubles, so -0.0 differs from 0.0 and NaN payloads count."""
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_round_trip(tmp_path, lat):
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([1])))
    cfg = tw.random_config(lat, rng, amplitude=0.7)
    path = tmp_path / "state.ckpt"
    save_checkpoint(cfg, path, case="case1")
    loaded, header = load_checkpoint(path)
    assert header["case"] == "case1"
    assert header["lattice_N"] == lat.N
    assert_bits_equal(loaded.alpha, cfg.alpha)
    assert_bits_equal(loaded.psi, cfg.psi)
    assert loaded.alpha.flags.writeable and loaded.psi.flags.writeable


def test_loaded_lattice_builds_no_tables(tmp_path):
    """load_checkpoint's lattice builds its grid, derivative matrix, basis and
    multipliers on first use, so loading pays for none of them."""
    lat = tw.TorusLattice(24)
    path = tmp_path / "state.ckpt"
    save_checkpoint(tw.SWConfiguration.zero(lat), path)
    loaded, _ = load_checkpoint(path)
    tables = {"x", "D", "V", "k2", "green", "_last_complex"}
    assert tables <= set(dir(loaded.lattice))
    assert not tables & set(vars(loaded.lattice))
    assert np.array_equal(loaded.lattice.green, lat.green) and "green" in vars(loaded.lattice)


def _payload_config(N, flat):
    """A configuration on TorusLattice(N) read from 7 n^3 doubles: alpha's
    3 n^3, then psi's 2 n^3 (re, im) pairs."""
    n = 2 * N + 1
    return tw.SWConfiguration(tw.TorusLattice(N), flat[:3 * n ** 3].reshape(3, n, n, n),
                              flat[3 * n ** 3:].view(complex).reshape(2, n, n, n))


def _doubles(N, seed, entries):
    """7 n^3 doubles over the whole float64 exponent range, with the drawn
    (index, value) entries written over them."""
    size = 7 * (2 * N + 1) ** 3
    rng = np.random.default_rng(seed)
    flat = rng.standard_normal(size) * 10.0 ** rng.integers(-320, 300, size)
    for index, value in entries:
        flat[index % size] = value
    return flat


EDGE_DOUBLES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                1.7976931348623157e308]


@settings(max_examples=60, deadline=None)
@given(N=st.sampled_from([1, 2, 3]), seed=st.integers(0, 2 ** 32 - 1),
       entries=st.lists(st.tuples(st.integers(0, 10 ** 6),
                                  st.floats(allow_nan=False, allow_infinity=False)
                                  | st.sampled_from(EDGE_DOUBLES)), max_size=40))
def test_round_trip_is_bit_exact_for_any_finite_doubles(tmp_path_factory, N, seed, entries):
    """Signed zeros, subnormals and +-1e308 come back as the same bits."""
    cfg = _payload_config(N, _doubles(N, seed, entries))
    path = tmp_path_factory.mktemp("bits") / "state.ckpt"
    save_checkpoint(cfg, path)
    loaded, _ = load_checkpoint(path)
    assert_bits_equal(loaded.alpha, cfg.alpha)
    assert_bits_equal(loaded.psi, cfg.psi)


@settings(max_examples=60, deadline=None)
@given(N=st.sampled_from([1, 2, 3]), seed=st.integers(0, 2 ** 32 - 1),
       at=st.integers(0, 10 ** 6), bad=st.sampled_from([np.nan, -np.nan, np.inf, -np.inf]))
def test_any_non_finite_double_is_refused_by_name(tmp_path_factory, N, seed, at, bad):
    flat = _doubles(N, seed, [(at, bad)])
    name = "alpha" if at % flat.size < 3 * (2 * N + 1) ** 3 else "psi"
    path = tmp_path_factory.mktemp("nonfinite") / "state.ckpt"
    save_checkpoint(_payload_config(N, flat), path)
    with pytest.raises(CheckpointError, match=f"payload array {name} "):
        load_checkpoint(path)


def test_header_is_json_line_with_layout(tmp_path, lat):
    cfg = tw.SWConfiguration.zero(lat)
    path = tmp_path / "state.ckpt"
    save_checkpoint(cfg, path)
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        payload = fh.read()
    assert header["format"] == FORMAT
    assert header["arrays"] == {"alpha": [3, lat.n, lat.n, lat.n], "psi": [2, lat.n, lat.n, lat.n]}
    assert header["dtype"] == {"alpha": "<f8", "psi": "<c16"}
    assert len(payload) == lat.n ** 3 * (3 * 8 + 2 * 16)


def test_spectral_layout_file_is_refused_by_its_format(tmp_path, lat):
    """A file in the earlier spectral layout, format "ucp-lab-checkpoint", is
    not read: the error names the format string the file has."""
    path = tmp_path / "state.ckpt"
    save_checkpoint(tw.SWConfiguration.zero(lat), path)
    header, payload = path.read_bytes().split(b"\n", 1)
    fields = json.loads(header)
    fields["format"] = "ucp-lab-checkpoint"
    path.write_bytes(json.dumps(fields, sort_keys=True).encode() + b"\n" + payload)
    with pytest.raises(CheckpointError, match="'ucp-lab-checkpoint'$"):
        load_checkpoint(path)


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
@pytest.mark.parametrize("name", ["alpha", "psi"])
def test_rejects_non_finite_payload(tmp_path, lat, name, bad):
    """One non-finite f64 in either array is refused by name, at the first
    byte of alpha or of psi."""
    path = tmp_path / "state.ckpt"
    save_checkpoint(tw.SWConfiguration.zero(lat), path)
    header, payload = path.read_bytes().split(b"\n", 1)
    at = 0 if name == "alpha" else lat.n ** 3 * 3 * 8
    payload = payload[:at] + np.array([bad], dtype="<f8").tobytes() + payload[at + 8:]
    path.write_bytes(header + b"\n" + payload)
    with pytest.raises(CheckpointError, match=name):
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
    b'{"format": "%s", "lattice_N": 2}',
    b'["%s", 5, 2]',
    b'\xff\xfe{"format": "%s"}',
    b'%s lattice_n=5',
    b'{"format": "%s", "lattice_n": "x", "lattice_N": 2}',
], ids=["no-lattice_n", "json-list", "not-utf8", "not-json", "lattice_n-not-int"])
def test_malformed_header_raises_checkpoint_error(tmp_path, lat, line):
    path = tmp_path / "state.ckpt"
    save_checkpoint(tw.SWConfiguration.zero(lat), path)
    payload = path.read_bytes().split(b"\n", 1)[1]
    path.write_bytes(line % FORMAT.encode() + b"\n" + payload)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_payload_is_re_im_f64_pairs_components_innermost(tmp_path, lat):
    """The payload is the layout the module states: alpha, (3, n, n, n)
    row-major little-endian f64, then psi, (2, n, n, n) row-major with each
    entry as little-endian (re, im) f64 innermost."""
    cfg = tw.random_config(lat, np.random.default_rng(3), amplitude=0.7)
    path = tmp_path / "state.ckpt"
    save_checkpoint(cfg, path)
    payload = path.read_bytes().split(b"\n", 1)[1]
    want = (cfg.alpha.astype("<f8").tobytes()
            + np.stack([cfg.psi.real, cfg.psi.imag], axis=-1).astype("<f8").tobytes())
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
    flow = tw.run_flow(start, None, "unperturbed", dt=3.0, steps=150,
                       scheme="semi-implicit", residual_target=1e-6)
    lines = (tmp_path / "plotdata" / "flow_0.csv").read_text().strip().splitlines()
    assert lines[0] == "step,time,csd,residual_curvature,residual_dirac,sup_psi"
    assert len(lines) == len(flow.trajectory) + 1
    assert float(lines[-1].split(",")[-1]) == flow.trajectory[-1].sup_psi
