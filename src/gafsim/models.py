"""Toy differentiable classifiers with closed-form gradients.

Two model kinds: multinomial logistic regression ("softmax_linear") and a
one-hidden-layer MLP ("mlp1", tanh or relu). Both return exact analytic
gradients of mean cross-entropy plus coupled L2 weight decay, flattened in
parameter order, so micro-gradients can be compared and aggregated as flat
vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gradvec import GradVec

SOFTMAX_LINEAR = "softmax_linear"
MLP1 = "mlp1"


@dataclass(frozen=True)
class ModelSpec:
    """Architecture plus deterministic initialization.

    init_sigma > 0 draws weights from N(0, init_sigma^2); init_sigma == 0
    zero-initializes. Biases always start at zero.
    """

    kind: str
    input_dim: int
    num_classes: int
    hidden_dim: int = 0
    activation: str = "tanh"
    init_sigma: float = 0.1
    init_seed: int = 0

    def __post_init__(self):
        if self.kind not in (SOFTMAX_LINEAR, MLP1):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.input_dim < 1:
            raise ValueError("input_dim must be positive")
        if self.num_classes < 2:
            raise ValueError("num_classes must be at least 2")
        if self.kind == MLP1 and self.hidden_dim < 1:
            raise ValueError("mlp1 requires hidden_dim >= 1")
        if self.activation not in ("tanh", "relu"):
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.init_sigma < 0:
            raise ValueError("init_sigma must be >= 0")

    def layer_shapes(self) -> list[tuple[tuple[int, int], tuple[int]]]:
        if self.kind == SOFTMAX_LINEAR:
            return [((self.num_classes, self.input_dim), (self.num_classes,))]
        return [
            ((self.hidden_dim, self.input_dim), (self.hidden_dim,)),
            ((self.num_classes, self.hidden_dim), (self.num_classes,)),
        ]


@dataclass
class Params:
    """All parameters as one flat float64 vector.

    `layers` holds per-layer (weight, bias) views into `flat`, in flatten
    order, so the model reads the vector in place and an optimizer step
    only ever builds a new vector.
    """

    flat: GradVec
    shapes: list[tuple[tuple[int, int], tuple[int]]]
    layers: list[tuple[np.ndarray, np.ndarray]] = field(init=False, repr=False)

    def __post_init__(self):
        self.layers = []
        offset = 0
        for (rows, cols), (n_bias,) in self.shapes:
            w = self.flat[offset : offset + rows * cols].reshape(rows, cols)
            offset += rows * cols
            self.layers.append((w, self.flat[offset : offset + n_bias]))
            offset += n_bias
        if offset != self.flat.shape[0]:
            raise ValueError(f"flat vector has {self.flat.shape[0]} entries, expected {offset}")

    @property
    def total_dim(self) -> int:
        return self.flat.shape[0]

    def flatten(self) -> GradVec:
        """A copy of the flat parameter vector."""
        return self.flat.copy()


def unflatten(flat: GradVec, spec: ModelSpec) -> Params:
    """Inverse of Params.flatten for the given architecture."""
    return Params(np.array(flat, dtype=np.float64), spec.layer_shapes())


def init_params(spec: ModelSpec) -> Params:
    """Deterministic initialization from spec.init_seed."""
    shapes = spec.layer_shapes()
    params = Params(np.zeros(sum(r * c + n for (r, c), (n,) in shapes)), shapes)
    if spec.init_sigma > 0:
        rng = np.random.default_rng(spec.init_seed)
        for w, _ in params.layers:
            w[...] = rng.normal(0.0, spec.init_sigma, size=w.shape)
    return params


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def loss_and_grad(
    params: Params,
    features: np.ndarray,
    labels: np.ndarray,
    spec: ModelSpec,
    weight_decay: float = 0.0,
) -> tuple[float, GradVec]:
    """Mean cross-entropy plus (weight_decay/2) * ||weights||^2, with its gradient.

    The decay term covers weight matrices only, never biases, and is folded
    into the gradient so every micro-gradient already carries regularization.
    Returns the gradient flattened in parameter order.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if features.ndim != 2 or features.shape[0] == 0:
        raise ValueError("batch must be a nonempty 2-D feature array")
    if features.shape[0] != labels.shape[0]:
        raise ValueError("features and labels disagree on batch size")
    if features.shape[1] != spec.input_dim:
        raise ValueError(
            f"feature dim {features.shape[1]} does not match spec.input_dim {spec.input_dim}"
        )
    n = features.shape[0]
    rows = np.arange(n)

    if spec.kind == SOFTMAX_LINEAR:
        (w, b) = params.layers[0]
        logits = features @ w.T + b
        log_p = _log_softmax(logits)
        ce = -log_p[rows, labels].mean()
        probs = np.exp(log_p)
        dlogits = probs
        dlogits[rows, labels] -= 1.0
        dlogits /= n
        gw = dlogits.T @ features + weight_decay * w
        gb = dlogits.sum(axis=0)
        loss = ce + 0.5 * weight_decay * float((w * w).sum())
        grad = np.concatenate([gw.ravel(), gb])
    else:
        (w1, b1), (w2, b2) = params.layers
        pre = features @ w1.T + b1
        hidden = np.tanh(pre) if spec.activation == "tanh" else np.maximum(pre, 0.0)
        logits = hidden @ w2.T + b2
        log_p = _log_softmax(logits)
        ce = -log_p[rows, labels].mean()
        probs = np.exp(log_p)
        dlogits = probs
        dlogits[rows, labels] -= 1.0
        dlogits /= n
        gw2 = dlogits.T @ hidden + weight_decay * w2
        gb2 = dlogits.sum(axis=0)
        dhidden = dlogits @ w2
        if spec.activation == "tanh":
            dpre = dhidden * (1.0 - hidden * hidden)
        else:
            # relu subgradient at exactly 0 is taken as 0
            dpre = dhidden * (pre > 0.0)
        gw1 = dpre.T @ features + weight_decay * w1
        gb1 = dpre.sum(axis=0)
        loss = ce + 0.5 * weight_decay * float((w1 * w1).sum() + (w2 * w2).sum())
        grad = np.concatenate([gw1.ravel(), gb1, gw2.ravel(), gb2])

    loss = float(loss)
    if not np.isfinite(loss) or not np.all(np.isfinite(grad)):
        raise ValueError("non-finite loss or gradient")
    return loss, grad


def predict(params: Params, features: np.ndarray, spec: ModelSpec) -> np.ndarray:
    """Argmax class per row; ties resolve to the lowest class index."""
    features = np.asarray(features, dtype=np.float64)
    if spec.kind == SOFTMAX_LINEAR:
        (w, b) = params.layers[0]
        logits = features @ w.T + b
    else:
        (w1, b1), (w2, b2) = params.layers
        pre = features @ w1.T + b1
        hidden = np.tanh(pre) if spec.activation == "tanh" else np.maximum(pre, 0.0)
        logits = hidden @ w2.T + b2
    return logits.argmax(axis=1)


def accuracy(params: Params, features: np.ndarray, labels: np.ndarray, spec: ModelSpec) -> float:
    """Fraction of argmax-correct predictions."""
    labels = np.asarray(labels)
    if labels.shape[0] == 0:
        raise ValueError("cannot compute accuracy on an empty set")
    return float((predict(params, features, spec) == labels).mean())
