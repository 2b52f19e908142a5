"""Tests for feature encoding, the strategy MLP, and rollout labeling.

Gradient correctness is checked against central finite differences; the
feature layout is checked with an independent decoder written here.
"""

import hashlib
import json
import math
import os

import numpy as np
import pytest

from tightnav.geometry import Polytope
from tightnav.obca import EnvironmentEncoding, StrategyLabel
from tightnav.predictor import (
    N_HIDDEN,
    MlpModel,
    TrainConfig,
    _loss_and_grads,
    encode_features,
    evaluate,
    feature_dim,
    forward,
    label_rollout,
    load_dataset,
    load_model,
    save_dataset,
    save_model,
    train,
)

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "fixtures")
STRATEGY_MODEL = os.path.join(FIXTURES, "strategy_model.json")
STRATEGY_MODEL_META = os.path.join(FIXTURES, "strategy_model.meta.json")


def make_env(n_steps=21, shift=0.0):
    tv = Polytope.from_box((1.1 + shift, 0.1), 0.28, 0.11)
    top = Polytope.from_box((1.5, 0.475), 3.0, 0.025)
    bottom = Polytope.from_box((1.5, -0.475), 3.0, 0.025)
    return EnvironmentEncoding([[tv, top, bottom]] * n_steps)


def decode_features(x, n_steps, n_obstacles):
    """Independent inverse of the layout: state plus per-step (A, b) lists."""
    z = x[:4]
    out = []
    pos = 4
    for _ in range(n_steps):
        row = []
        for _ in range(n_obstacles):
            a_mat = x[pos : pos + 8].reshape(4, 2)
            b_vec = x[pos + 8 : pos + 12]
            row.append((a_mat, b_vec))
            pos += 12
        out.append(row)
    assert pos == len(x)
    return z, out


def random_model(rng, d_in):
    return MlpModel(
        w1=rng.normal(size=(40, d_in)),
        b1=rng.normal(size=40),
        w2=rng.normal(size=(3, 40)),
        b2=rng.normal(size=3),
        mean=rng.normal(size=d_in),
        scale=np.abs(rng.normal(size=d_in)) + 0.5,
    )


def cluster_dataset(rng, n_per_class=100, dim=10, spread=0.5):
    xs, ys = [], []
    for cls in range(3):
        center = np.zeros(dim)
        center[cls] = 4.0
        xs.append(center + spread * rng.normal(size=(n_per_class, dim)))
        ys.append(np.full(n_per_class, cls))
    return np.vstack(xs), np.concatenate(ys)


# --- feature encoding -------------------------------------------------------

def test_encode_prefix_is_state():
    env = make_env()
    z = np.array([0.3, -0.2, 0.5, 1.1])
    x = encode_features(z, env)
    assert x.shape == (feature_dim(21, 3),)
    assert np.array_equal(x[:4], z)


def test_encode_static_env_repeats_block():
    env = make_env()
    x = encode_features(np.zeros(4), env)
    blocks = x[4:].reshape(21, 36)
    for t in range(1, 21):
        assert np.array_equal(blocks[t], blocks[0])


def test_encode_decode_round_trip():
    env = make_env()
    z = np.array([0.25, 0.1, -0.3, 0.8])
    z_dec, rows = decode_features(encode_features(z, env), 21, 3)
    assert np.array_equal(z_dec, z)
    for t in range(21):
        for m, obs in enumerate(env.obstacles(t)):
            a_dec, b_dec = rows[t][m]
            assert np.array_equal(a_dec, obs.A)
            assert np.array_equal(b_dec, obs.b)


def test_encode_rejects_bad_state():
    env = make_env(n_steps=2)
    with pytest.raises(ValueError):
        encode_features(np.zeros(3), env)
    with pytest.raises(ValueError):
        encode_features(np.array([np.nan, 0.0, 0.0, 0.0]), env)


# --- forward pass -----------------------------------------------------------

def test_forward_zero_weights_uniform():
    d = 12
    model = MlpModel(w1=np.zeros((40, d)), b1=np.zeros(40), w2=np.zeros((3, 40)),
                     b2=np.zeros(3), mean=np.zeros(d), scale=np.ones(d))
    pred = forward(model, np.arange(d, dtype=float))
    assert np.allclose(pred.scores, 1.0 / 3.0)
    assert pred.label == StrategyLabel.PASS_LEFT  # tie broken by label order


def test_forward_logit_shift_invariance():
    rng = np.random.default_rng(3)
    model = random_model(rng, 6)
    x = rng.normal(size=6)
    base = forward(model, x).scores
    shifted = MlpModel(w1=model.w1, b1=model.b1, w2=model.w2,
                       b2=model.b2 + 5.0, mean=model.mean, scale=model.scale)
    assert np.allclose(forward(shifted, x).scores, base, atol=1e-12)


def test_forward_outputs_on_simplex():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        model = random_model(rng, 5)
        pred = forward(model, 3.0 * rng.normal(size=5))
        assert np.all(pred.scores >= 0.0)
        assert abs(float(np.sum(pred.scores)) - 1.0) <= 1e-9
        assert pred.label == int(np.argmax(pred.scores))


def test_forward_rejects_dimension_mismatch():
    model = random_model(np.random.default_rng(0), 6)
    with pytest.raises(ValueError):
        forward(model, np.zeros(7))


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    d, n = 5, 7
    xn = rng.normal(size=(n, d))
    y = rng.integers(0, 3, size=n)
    w1 = rng.normal(size=(40, d)) * 0.4
    b1 = rng.normal(size=40) * 0.1
    w2 = rng.normal(size=(3, 40)) * 0.4
    b2 = rng.normal(size=3) * 0.1
    loss, gw1, gb1, gw2, gb2 = _loss_and_grads(w1, b1, w2, b2, xn, y)
    eps = 1e-6
    for arr, grad in ((w1, gw1), (b1, gb1), (w2, gw2), (b2, gb2)):
        flat = arr.ravel()
        gflat = grad.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            up = _loss_and_grads(w1, b1, w2, b2, xn, y)[0]
            flat[i] = keep - eps
            dn = _loss_and_grads(w1, b1, w2, b2, xn, y)[0]
            flat[i] = keep
            fd = (up - dn) / (2.0 * eps)
            assert gflat[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)


# --- training ---------------------------------------------------------------

def ce_loss(model, x, y):
    from tightnav.predictor import _forward_batch

    p = _forward_batch(model, np.asarray(x, float))
    return -float(np.mean(np.log(p[np.arange(len(y)), np.asarray(y, int)])))


def test_train_separable_clusters():
    rng = np.random.default_rng(17)
    x, y = cluster_dataset(rng)
    model, report = train(x, y, TrainConfig(epochs=200, batch=32, seed=1))
    assert report.train_accuracy >= 0.99
    assert report.val_accuracy >= 0.95
    assert report.n_train + report.n_val == len(x)


def test_train_first_epoch_descends():
    rng = np.random.default_rng(23)
    x, y = cluster_dataset(rng, n_per_class=50)
    m0, _ = train(x, y, TrainConfig(epochs=0, seed=4))
    m1, _ = train(x, y, TrainConfig(epochs=1, seed=4))
    assert ce_loss(m1, x, y) < ce_loss(m0, x, y)


def test_train_deterministic():
    rng = np.random.default_rng(29)
    x, y = cluster_dataset(rng, n_per_class=40)
    m_a, rep_a = train(x, y, TrainConfig(epochs=20, seed=9))
    m_b, rep_b = train(x, y, TrainConfig(epochs=20, seed=9))
    assert np.array_equal(m_a.w1, m_b.w1)
    assert np.array_equal(m_a.b1, m_b.b1)
    assert np.array_equal(m_a.w2, m_b.w2)
    assert np.array_equal(m_a.b2, m_b.b2)
    assert rep_a.losses == rep_b.losses


def test_train_rejects_single_class():
    x = np.random.default_rng(0).normal(size=(20, 4))
    with pytest.raises(ValueError):
        train(x, np.zeros(20, dtype=int))


@pytest.mark.parametrize("field, value", [
    ("learning_rate", math.nan),
    ("learning_rate", math.inf),
    ("learning_rate", -0.1),
    ("learning_rate", 0.0),
    ("epochs", -3),
    ("epochs", 2.5),
    ("batch", 0),
    ("batch", True),
    ("val_fraction", -0.5),
    ("val_fraction", math.nan),
    ("val_fraction", 1.0),
])
def test_train_config_rejects_values_that_train_a_broken_model(field, value):
    with pytest.raises(ValueError, match=field):
        TrainConfig(**{field: value})


def test_train_permutation_consistency():
    rng = np.random.default_rng(31)
    x, y = cluster_dataset(rng)
    perm = rng.permutation(x.shape[1])
    cfg = TrainConfig(epochs=120, batch=32, seed=2)
    _, rep_base = train(x, y, cfg)
    _, rep_perm = train(x[:, perm], y, cfg)
    assert abs(rep_base.val_accuracy - rep_perm.val_accuracy) <= 0.02


# --- labeling ---------------------------------------------------------------

def straight_pass(y_offset, n=40, v=0.6, dt=0.1):
    ts = np.arange(n) * dt * v
    ev = np.stack([ts - 1.0, np.full(n, y_offset), np.zeros(n), np.full(n, v)], axis=1)
    tv = np.tile(np.array([0.5, 0.0, 0.0, 0.0]), (n, 1))
    return ev, tv


def test_label_pass_left_and_right():
    ev, tv = straight_pass(+0.3)
    assert label_rollout(ev, tv) == StrategyLabel.PASS_LEFT
    ev_m = ev.copy()
    ev_m[:, 1] *= -1.0
    assert label_rollout(ev_m, tv) == StrategyLabel.PASS_RIGHT


def test_label_respects_tv_frame():
    # TV faces +y; an EV passing on the world +x side is on the TV's right.
    n = 40
    ys = np.linspace(-1.0, 1.5, n)
    ev = np.stack([np.full(n, 0.3), ys, np.full(n, math.pi / 2), np.full(n, 0.6)], axis=1)
    tv = np.tile(np.array([0.0, 0.5, math.pi / 2, 0.0]), (n, 1))
    assert label_rollout(ev, tv) == StrategyLabel.PASS_RIGHT


def test_label_stop_and_wait_is_yield():
    dt = 0.1
    n = 60
    ev = np.zeros((n, 4))
    ev[:, 0] = 0.2  # parked one covering radius short of the TV
    tv = np.tile(np.array([0.5, 0.0, 0.0, 0.0]), (n, 1))
    assert label_rollout(ev, tv, dt=dt) == StrategyLabel.YIELD


def test_label_stop_then_pass_still_yield():
    dt = 0.1
    ev_wait = np.zeros((25, 4))
    ev_wait[:, 0] = 0.2
    ev_pass, tv_pass = straight_pass(+0.3, n=30)
    ev = np.vstack([ev_wait, ev_pass + np.array([1.2, 0, 0, 0])])
    tv = np.tile(np.array([0.5, 0.0, 0.0, 0.0]), (len(ev), 1))
    assert label_rollout(ev, tv, dt=dt) == StrategyLabel.YIELD


def test_label_never_reaches_tv_is_yield():
    n = 30
    ev = np.zeros((n, 4))
    ev[:, 0] = -3.0
    ev[:, 3] = 0.0
    tv = np.tile(np.array([0.5, 0.0, 0.0, 0.0]), (n, 1))
    assert label_rollout(ev, tv) == StrategyLabel.YIELD


def test_label_subsample_invariant():
    cases = []
    ev, tv = straight_pass(+0.3)
    cases.append((ev, tv))
    ev_m = ev.copy()
    ev_m[:, 1] *= -1.0
    cases.append((ev_m, tv))
    ev_y = np.zeros((60, 4))
    ev_y[:, 0] = 0.2
    cases.append((ev_y, np.tile(np.array([0.5, 0.0, 0.0, 0.0]), (60, 1))))
    for ev_c, tv_c in cases:
        full = label_rollout(ev_c, tv_c, dt=0.1)
        half = label_rollout(ev_c[::2], tv_c[::2], dt=0.2)
        assert half == full


def test_label_rejects_bad_trajectories():
    ev, tv = straight_pass(0.3)
    with pytest.raises(ValueError):
        label_rollout(ev[:1], tv[:1])
    with pytest.raises(ValueError):
        label_rollout(ev, tv[:-1])


# --- persistence ------------------------------------------------------------

def test_model_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(41)
    model = random_model(rng, 8)
    path = tmp_path / "model.json"
    save_model(model, str(path))
    loaded = load_model(str(path))
    x = rng.normal(size=8)
    assert np.array_equal(forward(loaded, x).scores, forward(model, x).scores)


def test_model_load_rejects_wrong_version(tmp_path):
    model = random_model(np.random.default_rng(1), 4)
    path = tmp_path / "model.json"
    save_model(model, str(path))
    doc = json.loads(path.read_text())
    doc["version"] = 999
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_model(str(path))


def saved_model_doc(tmp_path):
    path = tmp_path / "model.json"
    save_model(random_model(np.random.default_rng(2), 4), str(path))
    return path, json.loads(path.read_text())


@pytest.mark.parametrize("key", ["d_in", "n_hidden", "n_out", "w1", "b1", "w2", "b2",
                                 "mean", "scale"])
def test_model_load_rejects_missing_key(tmp_path, key):
    path, doc = saved_model_doc(tmp_path)
    del doc[key]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"lacks {key}"):
        load_model(str(path))


def test_model_load_rejects_a_top_level_list(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps([1, 2]))
    with pytest.raises(ValueError, match="unsupported"):
        load_model(str(path))


@pytest.mark.parametrize("key, value", [
    ("b1", [0.0] * 39),
    ("b2", [0.0]),
    ("mean", [0.0]),
    ("scale", [1.0]),
    ("w1", [[0.0] * 4] * 41),
    ("w2", [[0.0] * 40] * 2),
    ("n_hidden", 20),
])
def test_model_load_rejects_misshapen_arrays(tmp_path, key, value):
    """An array that numpy would broadcast, or a header that disagrees with
    the network's sizes, does not load."""
    path, doc = saved_model_doc(tmp_path)
    doc[key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="shapes"):
        load_model(str(path))


@pytest.mark.parametrize("key, index, value", [
    ("w1", (3, 1), float("nan")),
    ("b1", (0,), float("inf")),
    ("w2", (2, 7), float("-inf")),
    ("b2", (1,), float("nan")),
    ("mean", (2,), float("nan")),
    ("scale", (0,), float("inf")),
    ("scale", (1,), 0.0),
    ("scale", (3,), -1.0),
])
def test_model_load_rejects_bad_values(tmp_path, key, index, value):
    """A NaN weight would give NaN scores, which select a guided pass."""
    path, doc = saved_model_doc(tmp_path)
    row = doc[key]
    for i in index[:-1]:
        row = row[i]
    row[index[-1]] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="finite"):
        load_model(str(path))


def test_committed_strategy_model_loads():
    """The benchmark's fixture passes the checks, and its bytes are the
    ones its metadata records."""
    with open(STRATEGY_MODEL_META) as fh:
        recorded = json.load(fh)["sha256"]
    with open(STRATEGY_MODEL, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == recorded
    model = load_model(STRATEGY_MODEL)
    assert model.w1.shape == (N_HIDDEN, model.d_in) and model.scale.shape == (model.d_in,)


def test_dataset_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(43)
    x = rng.normal(size=(12, 9))
    y = rng.integers(0, 3, size=12)
    path = tmp_path / "data.csv"
    save_dataset(str(path), x, y)
    x2, y2 = load_dataset(str(path))
    assert np.array_equal(x2, x)
    assert np.array_equal(y2, y)


def test_evaluate_counts_matches():
    d = 6
    model = MlpModel(w1=np.zeros((40, d)), b1=np.zeros(40), w2=np.zeros((3, 40)),
                     b2=np.array([0.0, 1.0, 0.0]), mean=np.zeros(d), scale=np.ones(d))
    x = np.zeros((4, d))
    acc = evaluate(model, x, np.array([1, 1, 0, 2]))
    assert acc == pytest.approx(0.5)
