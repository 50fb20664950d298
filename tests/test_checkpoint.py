import numpy as np
import pytest

from cganlab.checkpoint import MAGIC, load_model, read_container, save_model, write_container
from cganlab.errors import ParseError
from cganlab.models import (NetworkSpec, build_approximator, build_discriminator,
                            build_generator, layer_dims)
from cganlab.rng import RngStream
from cganlab.tensor import adam_step


def test_container_round_trip(tmp_path):
    arrays = {"b": np.arange(6.0).reshape(2, 3), "a": np.array(1.5),
              "c/deep": np.zeros((2, 1, 2))}
    meta = {"kind": "samples", "note": "x"}
    path = tmp_path / "box.bin"
    write_container(path, meta, arrays)
    meta2, arrays2 = read_container(path)
    assert meta2 == meta
    assert set(arrays2) == set(arrays)
    for name in arrays:
        np.testing.assert_array_equal(arrays2[name], arrays[name])
        assert arrays2[name].shape == arrays[name].shape
        # Adam updates loaded moments in place, and BLAS wants aligned data
        assert arrays2[name].flags.writeable and arrays2[name].flags.aligned


def test_container_bytes_deterministic(tmp_path):
    arrays = {"w": np.linspace(0, 1, 7)}
    write_container(tmp_path / "a.bin", {"k": 1}, arrays)
    write_container(tmp_path / "b.bin", {"k": 1}, arrays)
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


def test_failed_write_leaves_the_earlier_file(tmp_path):
    path = tmp_path / "box.bin"
    write_container(path, {"k": 1}, {"w": np.arange(3.0)})
    before = path.read_bytes()
    # "a" is written, then "z" cannot be converted to float64
    with pytest.raises(ValueError):
        write_container(path, {"k": 2}, {"a": np.zeros(4096), "z": np.array(["nan?"])})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["box.bin"]


def test_container_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(ParseError) as err:
        read_container(path)
    assert MAGIC.decode() in str(err.value)


def test_container_rejects_truncation(tmp_path):
    path = tmp_path / "box.bin"
    write_container(path, {}, {"w": np.zeros(10)})
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(ParseError):
        read_container(path)
    path.write_bytes(raw + b"\x00" * 4)
    with pytest.raises(ParseError):
        read_container(path)
    path.write_bytes(raw[:10])
    with pytest.raises(ParseError):
        read_container(path)


def test_container_rejects_bad_header_json(tmp_path):
    path = tmp_path / "box.bin"
    write_container(path, {}, {})
    raw = bytearray(path.read_bytes())
    raw[24] = 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ParseError):
        read_container(path)


def test_model_round_trip_with_optimizer_state(tmp_path):
    g = build_generator((2, 2, 1), 3, 4, NetworkSpec([5]), RngStream(1, ("g",)),
                        hyper={"lr": 1e-3, "beta1": 0.6, "beta2": 0.99, "epsilon": 1e-9})
    # leave a footprint in the adam state
    for name, t in g.named().items():
        adam_step(t, np.ones_like(t.data), g.adam[name])
    save_model(tmp_path / "g.ckpt", g, extra={"train_step": 17, "name": "gen"})
    g2, meta = load_model(tmp_path / "g.ckpt")
    assert meta["train_step"] == 17 and meta["name"] == "gen"
    assert g2.meta == g.meta
    assert g2.spec == g.spec
    assert g2.in_dim == g.in_dim and g2.out_dim == g.out_dim
    for name, t in g.named().items():
        np.testing.assert_array_equal(g2.named()[name].data, t.data)
        st, st2 = g.adam[name], g2.adam[name]
        assert st2.step == st.step == 1
        np.testing.assert_array_equal(st2.m, st.m)
        np.testing.assert_array_equal(st2.v, st.v)
        assert (st2.lr, st2.beta1, st2.beta2, st2.epsilon) \
            == (st.lr, st.beta1, st.beta2, st.epsilon)


@pytest.mark.parametrize("net", ["generator", "approximator", "cgan", "fcgan", "sbp", "irgan"])
def test_model_save_load_save_is_byte_identical(tmp_path, net):
    shape, m, spec, stream = (3, 2, 2), 4, NetworkSpec([6, 5]), RngStream(2, (net,))
    if net == "generator":
        params = build_generator(shape, m, 7, spec, stream)
    elif net == "approximator":
        params = build_approximator(shape, m, spec, stream)
    else:
        params = build_discriminator(shape, m, spec, net, stream)
    # the layout the builder made is the one layer_dims derives from its meta
    assert [w.shape for w in params.weights] == layer_dims(params.meta, spec.hidden)
    assert (params.in_dim, params.out_dim) == (params.weights[0].shape[0],
                                               params.weights[-1].shape[1])
    save_model(tmp_path / "a.ckpt", params, extra={"name": net})
    loaded, _ = load_model(tmp_path / "a.ckpt")
    save_model(tmp_path / "b.ckpt", loaded, extra={"name": net})
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_load_model_rejects_non_model_container(tmp_path):
    write_container(tmp_path / "s.bin", {"kind": "samples"}, {"x": np.zeros(2)})
    with pytest.raises(ParseError):
        load_model(tmp_path / "s.bin")


def test_missing_container_file(tmp_path):
    with pytest.raises(ParseError):
        read_container(tmp_path / "ghost.bin")


def test_malformed_headers_are_parse_errors(tmp_path):
    from fuzzing import container_fuzz_cases, container_bytes, valid_model_container

    header, payload = valid_model_container()
    path = tmp_path / "ok.ckpt"
    path.write_bytes(container_bytes(header, payload))
    load_model(path)  # the unmutated corpus base loads
    cases = container_fuzz_cases()
    assert len({name for name, _, _ in cases}) == len(cases)
    for name, layer, blob in cases:
        path = tmp_path / f"{name}.ckpt"
        path.write_bytes(blob)
        if layer == "container":
            with pytest.raises(ParseError):
                read_container(path)
        else:
            read_container(path)
            with pytest.raises(ParseError):
                load_model(path)
