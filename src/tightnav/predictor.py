"""Strategy prediction: feature encoding, a small MLP, and rollout labeling.

The predictor maps the current vehicle state plus the obstacle encoding over
the horizon to a probability vector over the three relative strategies
(pass left / pass right / yield).  Architecture is deliberately small: one
40-unit tanh hidden layer and a softmax output, trained with cross-entropy
on automatically labeled closed-loop rollouts.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .dynamics import COVERING_RADIUS, DT, LENGTH
from .fileio import atomic_write
from .obca import EnvironmentEncoding, StrategyLabel

N_HIDDEN = 40
N_OUT = 3
# Constant features would otherwise divide by ~0 during standardization.
SCALE_FLOOR = 1e-6
# Labeling: an EV slower than LABEL_STOP_SPEED (m/s) near the TV for
# LABEL_DWELL_TIME seconds before passing it counts as yielding.
LABEL_STOP_SPEED = 0.01
LABEL_DWELL_TIME = 2.0

MODEL_FORMAT = "tightnav-mlp"
MODEL_VERSION = 1


@dataclass
class MlpModel:
    """Weights plus the feature standardization baked in at train time."""

    w1: np.ndarray  # (N_HIDDEN, d_in)
    b1: np.ndarray  # (N_HIDDEN,)
    w2: np.ndarray  # (N_OUT, N_HIDDEN)
    b2: np.ndarray  # (N_OUT,)
    mean: np.ndarray  # (d_in,)
    scale: np.ndarray  # (d_in,)

    @property
    def d_in(self) -> int:
        return self.w1.shape[1]


@dataclass
class StrategyPrediction:
    scores: np.ndarray  # 3-simplex vector, StrategyLabel order
    label: StrategyLabel


@dataclass
class TrainReport:
    train_accuracy: float
    val_accuracy: float
    losses: list = field(default_factory=list)  # mean train loss per epoch
    n_train: int = 0
    n_val: int = 0


def encode_features(z, env: EnvironmentEncoding) -> np.ndarray:
    """Flatten state and horizon obstacle parameters into one vector.

    Layout: (x, y, psi, v), then for each step the obstacles in order, each
    contributing its face normals row-major followed by its offsets.  The
    dimension is 4 + n_steps * n_obstacles * 12, read off the face stack.
    """
    z = np.asarray(z, float).ravel()
    if z.shape != (4,):
        raise ValueError(f"state must have 4 entries, got {z.shape}")
    a_all, b_all = env.faces
    obstacles = np.concatenate([a_all.reshape(*b_all.shape[:2], 8), b_all], axis=2)
    x = np.concatenate([z, obstacles.ravel()])
    if not np.all(np.isfinite(x)):
        raise ValueError("feature vector contains non-finite entries")
    return x


def feature_dim(n_steps: int, n_obstacles: int) -> int:
    return 4 + n_steps * n_obstacles * 12


def _softmax(logits):
    e = np.exp(logits - np.max(logits, axis=-1, keepdims=True))
    return e / np.sum(e, axis=-1, keepdims=True)


def _forward_batch(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Probabilities for a batch of raw (unnormalized) feature rows."""
    xn = (x - model.mean) / model.scale
    h = np.tanh(xn @ model.w1.T + model.b1)
    return _softmax(h @ model.w2.T + model.b2)


def forward(model: MlpModel, x) -> StrategyPrediction:
    x = np.asarray(x, float).ravel()
    if x.shape != (model.d_in,):
        raise ValueError(f"feature dimension {x.shape[0]} != model {model.d_in}")
    scores = _forward_batch(model, x[None, :])[0]
    return StrategyPrediction(scores=scores, label=StrategyLabel(int(np.argmax(scores))))


def _loss_and_grads(w1, b1, w2, b2, xn, y):
    """Mean cross-entropy over a normalized batch and its weight gradients."""
    n = len(xn)
    h = np.tanh(xn @ w1.T + b1)
    p = _softmax(h @ w2.T + b2)
    loss = -float(np.mean(np.log(p[np.arange(n), y] + 1e-300)))
    dlogits = p.copy()
    dlogits[np.arange(n), y] -= 1.0
    dlogits /= n
    gw2 = dlogits.T @ h
    gb2 = np.sum(dlogits, axis=0)
    dh = dlogits @ w2
    dpre = dh * (1.0 - h * h)
    gw1 = dpre.T @ xn
    gb1 = np.sum(dpre, axis=0)
    return loss, gw1, gb1, gw2, gb2


@dataclass
class TrainConfig:
    epochs: int = 200
    batch: int = 64
    learning_rate: float = 0.1
    seed: int = 0
    val_fraction: float = 0.2

    def __post_init__(self):
        # A NaN rate trains non-finite weights and a negative one climbs the
        # loss, both without an error; a NaN fraction fails only inside the
        # split.
        for name in ("epochs", "batch"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be nonnegative, got {self.epochs}")
        if self.batch < 1:
            raise ValueError(f"batch must be at least 1, got {self.batch}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and positive, "
                             f"got {self.learning_rate!r}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError(f"val_fraction must be in [0, 1), got {self.val_fraction!r}")


def train(features, labels, config: TrainConfig | None = None):
    """Seeded mini-batch gradient descent; returns (model, report).

    Standardization statistics come from the training split only.  The
    split is by row, so when the rows are windows of closed-loop rollouts
    one rollout's windows land on both sides, and the validation accuracy
    in the report overstates accuracy on unseen rollouts.
    """
    cfg = config or TrainConfig()
    x = np.asarray(features, float)
    y = np.asarray(labels, int).ravel()
    if x.ndim != 2 or len(x) != len(y):
        raise ValueError("features must be (n, d) with one label per row")
    if len(np.unique(y)) < 2:
        raise ValueError("training data must contain at least two classes")
    if np.any((y < 0) | (y >= N_OUT)):
        raise ValueError("labels must be integers in [0, 3)")

    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(len(x))
    n_val = max(1, int(round(cfg.val_fraction * len(x))))
    val_idx, tr_idx = order[:n_val], order[n_val:]
    if len(tr_idx) == 0:
        raise ValueError("dataset too small for the requested validation split")
    x_tr, y_tr = x[tr_idx], y[tr_idx]
    x_val, y_val = x[val_idx], y[val_idx]

    mean = np.mean(x_tr, axis=0)
    scale = np.maximum(np.std(x_tr, axis=0), SCALE_FLOOR)
    xn_tr = (x_tr - mean) / scale

    d_in = x.shape[1]
    lim1 = 1.0 / math.sqrt(d_in)
    lim2 = 1.0 / math.sqrt(N_HIDDEN)
    w1 = rng.uniform(-lim1, lim1, size=(N_HIDDEN, d_in))
    b1 = np.zeros(N_HIDDEN)
    w2 = rng.uniform(-lim2, lim2, size=(N_OUT, N_HIDDEN))
    b2 = np.zeros(N_OUT)

    losses = []
    for _ in range(cfg.epochs):
        perm = rng.permutation(len(xn_tr))
        epoch_loss = 0.0
        for start in range(0, len(perm), cfg.batch):
            sel = perm[start : start + cfg.batch]
            loss, gw1, gb1, gw2, gb2 = _loss_and_grads(w1, b1, w2, b2, xn_tr[sel], y_tr[sel])
            epoch_loss += loss * len(sel)
            w1 -= cfg.learning_rate * gw1
            b1 -= cfg.learning_rate * gb1
            w2 -= cfg.learning_rate * gw2
            b2 -= cfg.learning_rate * gb2
        losses.append(epoch_loss / len(xn_tr))

    model = MlpModel(w1=w1, b1=b1, w2=w2, b2=b2, mean=mean, scale=scale)
    report = TrainReport(
        train_accuracy=evaluate(model, x_tr, y_tr),
        val_accuracy=evaluate(model, x_val, y_val),
        losses=losses,
        n_train=len(x_tr),
        n_val=len(x_val),
    )
    return model, report


def evaluate(model: MlpModel, features, labels) -> float:
    """Fraction of rows whose argmax score matches the label."""
    x = np.asarray(features, float)
    y = np.asarray(labels, int).ravel()
    if len(x) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    pred = np.argmax(_forward_batch(model, x), axis=1)
    return float(np.mean(pred == y))


def label_rollout(ev_traj, tv_traj, dt: float = DT) -> StrategyLabel:
    """Automatic strategy label from a pair of closed-loop trajectories.

    The pass event is the first step where the EV's longitudinal coordinate
    in the TV body frame exceeds the TV half-length; the sign of the lateral
    coordinate there picks PassLeft (+) or PassRight (-).  A rollout with no
    pass event yields, as does one that dwells near-stopped (speed below
    LABEL_STOP_SPEED for at least LABEL_DWELL_TIME seconds) within two
    covering radii of the TV before passing it.
    """
    ev = np.asarray(ev_traj, float)
    tv = np.asarray(tv_traj, float)
    if ev.ndim != 2 or tv.ndim != 2 or ev.shape[1] < 4 or tv.shape[1] < 3:
        raise ValueError("trajectories must be (T, state) arrays")
    if len(ev) != len(tv):
        raise ValueError("trajectories must have equal length")
    if len(ev) < 2:
        raise ValueError("need at least two steps to label a rollout")

    half_l = 0.5 * LENGTH
    near = 2.0 * COVERING_RADIUS
    pass_idx = None
    for t in range(len(ev)):
        c, s = math.cos(tv[t, 2]), math.sin(tv[t, 2])
        dx, dy = ev[t, 0] - tv[t, 0], ev[t, 1] - tv[t, 1]
        longi = c * dx + s * dy
        if longi > half_l:
            pass_idx = t
            break
    scan_end = len(ev) if pass_idx is None else pass_idx

    dwell = 0
    for t in range(scan_end):
        gap = math.hypot(ev[t, 0] - tv[t, 0], ev[t, 1] - tv[t, 1])
        if abs(ev[t, 3]) < LABEL_STOP_SPEED and gap <= near:
            dwell += 1
            if dwell * dt >= LABEL_DWELL_TIME - 1e-9:
                return StrategyLabel.YIELD
        else:
            dwell = 0
    if pass_idx is None:
        return StrategyLabel.YIELD

    c, s = math.cos(tv[pass_idx, 2]), math.sin(tv[pass_idx, 2])
    dx, dy = ev[pass_idx, 0] - tv[pass_idx, 0], ev[pass_idx, 1] - tv[pass_idx, 1]
    lat = -s * dx + c * dy
    return StrategyLabel.PASS_LEFT if lat >= 0.0 else StrategyLabel.PASS_RIGHT


# --- persistence ------------------------------------------------------------

def save_model(model: MlpModel, path: str) -> None:
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "d_in": model.d_in,
        "n_hidden": N_HIDDEN,
        "n_out": N_OUT,
        "labels": [label.name for label in StrategyLabel],
        "mean": model.mean.tolist(),
        "scale": model.scale.tolist(),
        "w1": model.w1.tolist(),
        "b1": model.b1.tolist(),
        "w2": model.w2.tolist(),
        "b2": model.b2.tolist(),
    }
    atomic_write(path, json.dumps(doc))


def load_model(path: str) -> MlpModel:
    """Read a model that `save_model` wrote.

    Raises ValueError for a file of another format or label order, one
    that lacks a size or an array, an array whose shape differs from what
    the header's sizes give it, a non-finite value or a non-positive
    feature scale.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or (
            doc.get("format"), doc.get("version")) != (MODEL_FORMAT, MODEL_VERSION):
        raise ValueError(f"unsupported model file {path!r}")
    expected = [label.name for label in StrategyLabel]
    if doc.get("labels") != expected:
        raise ValueError(f"model label order {doc.get('labels')} != {expected}")
    keys = ("d_in", "n_hidden", "n_out", "w1", "b1", "w2", "b2", "mean", "scale")
    missing = [key for key in keys if key not in doc]
    if missing:
        raise ValueError(f"model file {path!r} lacks {', '.join(missing)}")
    d_in, n_hidden, n_out = doc["d_in"], doc["n_hidden"], doc["n_out"]
    shapes = {"w1": (n_hidden, d_in), "b1": (n_hidden,), "w2": (n_out, n_hidden),
              "b2": (n_out,), "mean": (d_in,), "scale": (d_in,)}
    arrays = {key: np.asarray(doc[key], float) for key in shapes}
    if (n_hidden, n_out) != (N_HIDDEN, N_OUT) or any(
            arrays[key].shape != shape for key, shape in shapes.items()):
        raise ValueError("model array shapes are inconsistent with the header")
    if not all(np.isfinite(a).all() for a in arrays.values()) or np.any(arrays["scale"] <= 0.0):
        raise ValueError("model values must be finite and the feature scale positive")
    return MlpModel(**arrays)


def save_dataset(path: str, features, labels) -> None:
    """Record-per-line text: integer label, then the feature entries."""
    x = np.asarray(features, float)
    y = np.asarray(labels, int).ravel()
    if len(x) != len(y):
        raise ValueError("features and labels must have equal length")
    lines = []
    for row, lab in zip(x, y):
        lines.append(str(int(lab)) + "," + ",".join(repr(float(v)) for v in row))
    atomic_write(path, "\n".join(lines) + "\n")


def load_dataset(path: str):
    data = np.loadtxt(path, delimiter=",", ndmin=2)
    if data.shape[1] < 2:
        raise ValueError("dataset rows must carry a label and features")
    return data[:, 1:], data[:, 0].astype(int)
