"""Intensity extractor: architecture invariants and the EMOM model format."""

import numpy as np
import pytest

from emorank import extractor
from emorank.binio import ChecksumError, FileFormatError
from emorank.extractor import (ExtractorConfig, ModelParams, _expected_shapes,
                               _position_table, classify, draw_dropout_masks,
                               forward_intensity, init_params, load_model,
                               load_model_with_meta, params_digest, pool,
                               positional_encoding, project_score, save_model)
from emorank.numerics import Tensor

CFG = ExtractorConfig(input_dim=10, hidden_dim=8, n_fft_blocks=1, n_heads=2,
                      conv_kernel=3, conv_filter_dim=12, dropout=0.1,
                      n_emotion_classes=3, projector_hidden=6)
EMOTIONS = ["neutral", "angry", "amused"]


def make_params(seed=0, dtype=np.float32, cfg=CFG):
    return init_params(cfg, EMOTIONS, np.random.default_rng(seed), dtype=dtype)


def frames(seed=1, t_len=7, dim=10):
    return np.random.default_rng(seed).normal(size=(t_len, dim))


# ---------------------------------------------------------------------------
# configuration and initialization


def test_config_validation():
    with pytest.raises(ValueError):
        ExtractorConfig(hidden_dim=9, n_heads=2)
    with pytest.raises(ValueError):
        ExtractorConfig(n_emotion_classes=1)
    with pytest.raises(ValueError):
        ExtractorConfig(dropout=1.0)
    with pytest.raises(ValueError):
        ExtractorConfig(n_fft_blocks=0)


def test_init_shapes_and_ranges():
    params = make_params()
    expected = _expected_shapes(CFG)
    assert set(params.tensors) == set(expected)
    for name, shape in expected.items():
        arr = params[name].data
        assert arr.shape == shape, name
        assert arr.dtype == np.float32
        if name.endswith(".gain"):
            np.testing.assert_array_equal(arr, 1.0)
        elif name.endswith((".b", ".b1", ".b2", ".bq", ".bk", ".bv", ".bo", ".bias")):
            np.testing.assert_array_equal(arr, 0.0)
        elif name == "emb.table":
            assert np.abs(arr).max() < 0.1  # tight init keeps classes nearby
        else:
            bound = 1.0 / np.sqrt(np.prod(shape[:-1]))
            assert np.abs(arr).max() <= bound


def test_params_label_count_must_match_config():
    with pytest.raises(ValueError):
        ModelParams(CFG, ["neutral", "angry"], make_params().tensors)


def test_class_index_lookup():
    params = make_params()
    assert params.class_index(2) == 2
    assert params.class_index("angry") == 1
    assert params.class_index("  AMUSED ") == 2
    with pytest.raises(ValueError):
        params.class_index(3)
    with pytest.raises(ValueError):
        params.class_index("bored")


def test_positional_encoding_formula():
    dim = 8
    table = positional_encoding(5, dim)
    pos = np.arange(5)[:, None]
    for ch in range(dim):
        rate = 1.0 / 10000.0 ** (2.0 * (ch // 2) / dim)
        ref = np.sin(pos * rate) if ch % 2 == 0 else np.cos(pos * rate)
        np.testing.assert_allclose(table[:, ch:ch + 1], ref, atol=1e-12)
    # every call is a view of one cached table per (dim, dtype)
    again, shorter = positional_encoding(5, dim), positional_encoding(3, dim)
    assert np.shares_memory(again, table) and np.shares_memory(shorter, table)
    assert positional_encoding(5, dim, np.float32).dtype == np.float32


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dim", [8, 32, 256])
def test_positional_encoding_prefixes_are_bitwise_fresh_tables(monkeypatch, dim, dtype):
    monkeypatch.setattr(extractor, "_POSENC_CACHE", {})
    for t_len in np.random.default_rng(dim).permutation(np.arange(1, 401)):
        table = positional_encoding(int(t_len), dim, dtype)
        assert table.dtype == dtype and not table.flags.writeable
        assert table.tobytes() == _position_table(int(t_len), dim, dtype).tobytes(), t_len
    with pytest.raises(ValueError):
        table[0, 0] = 1.0
    assert list(extractor._POSENC_CACHE) == [(dim, np.dtype(dtype).str)]


def test_ragged_forward_keeps_one_position_table_per_width(monkeypatch):
    monkeypatch.setattr(extractor, "_POSENC_CACHE", {})
    params = make_params()
    forward_intensity(params, [frames(t_len=5), frames(t_len=9), frames(t_len=7)], [1, 2, 1])
    forward_intensity(params, frames(t_len=13), 2)
    (key, table), = extractor._POSENC_CACHE.items()
    assert key == (CFG.hidden_dim, np.dtype(np.float32).str)
    assert table.shape[0] >= 13 and not table.flags.writeable


# ---------------------------------------------------------------------------
# forward pass


def test_forward_shapes():
    params = make_params()
    i_seq = forward_intensity(params, frames(), "angry")
    assert i_seq.shape == (7, 8)
    h = pool(i_seq)
    assert h.shape == (1, 8)
    assert classify(params, h).shape == (1, 3)
    assert project_score(params, h).shape == (1,)


def test_eval_forward_deterministic_bitwise():
    params = make_params()
    x = frames()
    a = forward_intensity(params, x, 1).data
    b = forward_intensity(params, x, 1).data
    assert a.tobytes() == b.tobytes()


def test_train_mode_requires_rng_and_applies_dropout():
    params = make_params()
    x = frames()
    with pytest.raises(ValueError):
        forward_intensity(params, x, 1, train=True)

    def train_forward(seed):
        masks = draw_dropout_masks(params.config, len(x), np.random.default_rng(seed))
        return forward_intensity(params, x, 1, train=True, dropout_masks=[masks]).data

    eval_out = forward_intensity(params, x, 1).data
    train_out = train_forward(0)
    assert not np.array_equal(eval_out, train_out)
    # and training-mode forward is reproducible given the same rng state
    assert train_out.tobytes() == train_forward(0).tobytes()


def test_zero_dropout_train_equals_eval():
    cfg = ExtractorConfig(input_dim=10, hidden_dim=8, n_fft_blocks=1, n_heads=2,
                          conv_kernel=3, conv_filter_dim=12, dropout=0.0,
                          n_emotion_classes=3, projector_hidden=6)
    params = init_params(cfg, EMOTIONS, np.random.default_rng(0))
    x = frames()
    a = forward_intensity(params, x, 1).data
    b = forward_intensity(params, x, 1, train=True).data
    assert a.tobytes() == b.tobytes()


def test_frame_order_matters():
    # positional encoding and the width-3 convolution break permutation
    # equivariance, so time structure must influence the pooled vector
    params = make_params()
    x = frames()
    fwd = pool(forward_intensity(params, x, 1)).data
    rev = pool(forward_intensity(params, x[::-1], 1)).data
    assert not np.allclose(fwd, rev, atol=1e-6)


def test_class_embedding_enters_additively():
    # the class embedding is added after the shared trunk, so switching the
    # class shifts every frame by exactly the embedding-row difference
    params = make_params()
    x = frames()
    d_seq = forward_intensity(params, x, 1).data - forward_intensity(params, x, 2).data
    emb = params["emb.table"].data
    expected = np.broadcast_to(emb[1] - emb[2], d_seq.shape)
    np.testing.assert_allclose(d_seq, expected, atol=1e-6)


def test_stored_normalization_statistics_applied():
    params = make_params()
    x = frames()
    mean = x.mean(axis=0)
    std = x.std(axis=0) + 0.1
    plain = forward_intensity(params, (x - mean) / std, 1).data
    params.feat_mean, params.feat_std = mean, std
    normalized = forward_intensity(params, x, 1).data
    np.testing.assert_array_equal(plain, normalized)


def test_forward_input_validation():
    params = make_params()
    with pytest.raises(ValueError):
        forward_intensity(params, np.zeros((5, 4)), 1)
    with pytest.raises(ValueError):
        forward_intensity(params, np.zeros(10), 1)


def test_float64_mode():
    params = make_params(dtype=np.float64)
    assert params.dtype == np.float64
    i_seq = forward_intensity(params, frames(), 1)
    assert i_seq.data.dtype == np.float64


def test_classify_and_project_formulas():
    params = make_params()
    h = Tensor(np.random.default_rng(2).normal(size=(1, 8)).astype(np.float32))
    logits = classify(params, h).data
    np.testing.assert_allclose(
        logits, h.data @ params["cls.w"].data + params["cls.b"].data, atol=1e-6)
    r = project_score(params, h).item()
    hidden = np.tanh(h.data @ params["proj.w1"].data + params["proj.b1"].data)
    expected = hidden @ params["proj.w2"].data + params["proj.b2"].data
    assert r == pytest.approx(expected.item(), abs=1e-6)


def test_score_gradient_reaches_input_projection():
    params = make_params()
    r = project_score(params, pool(forward_intensity(params, frames(), 1)))
    r.backward()
    g = params["in_proj.w"].grad
    assert g is not None and np.any(g != 0)
    assert np.all(np.isfinite(g))


# ---------------------------------------------------------------------------
# EMOM persistence


def test_model_round_trip_bitwise(tmp_path):
    params = make_params()
    params.feat_mean = np.arange(10, dtype=np.float32)
    params.feat_std = np.full(10, 2.0, dtype=np.float32)
    path = tmp_path / "model.emom"
    save_model(params, path, meta={"note": "unit", "iterations": 5})
    loaded, cfg = load_model(path)
    assert cfg == CFG
    assert loaded.emotions == EMOTIONS
    for name, t in params.tensors.items():
        assert loaded[name].data.tobytes() == t.data.tobytes(), name
        assert loaded[name].data.dtype == t.data.dtype
    np.testing.assert_array_equal(loaded.feat_mean, params.feat_mean)
    np.testing.assert_array_equal(loaded.feat_std, params.feat_std)
    assert params_digest(loaded) == params_digest(params)
    _, meta = load_model_with_meta(path)
    assert meta == {"note": "unit", "iterations": 5}


def test_save_is_deterministic(tmp_path):
    params = make_params()
    p1, p2 = tmp_path / "a.emom", tmp_path / "b.emom"
    save_model(params, p1)
    save_model(params, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_ignores_trailing_sections(tmp_path):
    # checkpoint files append extra sections after the model section
    params = make_params()
    path = tmp_path / "model.emom"
    save_model(params, path)
    with open(path, "ab") as fh:
        fh.write(b"EXTRA SECTION BYTES")
    loaded, _ = load_model(path)
    assert params_digest(loaded) == params_digest(params)


def test_corruption_detected(tmp_path):
    params = make_params()
    path = tmp_path / "model.emom"
    save_model(params, path)
    raw = bytearray(path.read_bytes())
    raw[-6] ^= 0x01  # inside the last tensor payload, ahead of the CRC
    path.write_bytes(bytes(raw))
    with pytest.raises(ChecksumError):
        load_model(path)


def test_truncation_and_magic_errors(tmp_path):
    params = make_params()
    path = tmp_path / "model.emom"
    save_model(params, path)
    (tmp_path / "trunc.emom").write_bytes(path.read_bytes()[:50])
    with pytest.raises(FileFormatError):
        load_model(tmp_path / "trunc.emom")
    (tmp_path / "bad.emom").write_bytes(b"XXXX" + path.read_bytes()[4:])
    with pytest.raises(FileFormatError):
        load_model(tmp_path / "bad.emom")


def test_shape_mismatch_rejected(tmp_path):
    params = make_params()
    params.tensors["cls.b"] = Tensor(np.zeros(5, dtype=np.float32),
                                     requires_grad=True)
    path = tmp_path / "model.emom"
    save_model(params, path)
    with pytest.raises(FileFormatError):
        load_model(path)


def test_missing_tensor_rejected(tmp_path):
    params = make_params()
    del params.tensors["proj.b2"]
    path = tmp_path / "model.emom"
    save_model(params, path)
    with pytest.raises(FileFormatError):
        load_model(path)


def test_digest_tracks_values():
    a, b = make_params(seed=0), make_params(seed=0)
    assert params_digest(a) == params_digest(b)
    b["cls.w"].data[0, 0] += 1.0
    assert params_digest(a) != params_digest(b)
