"""Toy differentiable classifiers with closed-form gradients.

Two model kinds: multinomial logistic regression ("softmax_linear") and a
one-hidden-layer MLP ("mlp1", tanh or relu). Both return exact analytic
gradients of mean cross-entropy plus coupled L2 weight decay, flattened in
parameter order, so micro-gradients can be compared and aggregated as flat
vectors. The parameters are one such flat float64 vector too; its layout
comes only from ModelSpec.layer_shapes().
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SOFTMAX_LINEAR = "softmax_linear"
MLP1 = "mlp1"

# OpenBLAS runs a matrix product on one thread when m*n*k is at most this
# (4 * 65536); larger products wake a second thread that then spins
_BLAS_SERIAL_MNK = 2**18


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


def _layer_views(flat: np.ndarray, shapes) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer (weight, bias) views into the last axis of `flat`, in parameter order.

    A leading axis (one row per worker) carries through to every view.
    """
    expected = sum(rows * cols + n_bias for (rows, cols), (n_bias,) in shapes)
    if flat.shape[-1] != expected:
        raise ValueError(f"flat vector has {flat.shape[-1]} entries, expected {expected}")
    lead = flat.shape[:-1]
    views = []
    offset = 0
    for (rows, cols), (n_bias,) in shapes:
        w = flat[..., offset : offset + rows * cols].reshape(lead + (rows, cols))
        offset += rows * cols
        views.append((w, flat[..., offset : offset + n_bias]))
        offset += n_bias
    return views


def init_params(spec: ModelSpec) -> np.ndarray:
    """All parameters as one flat float64 vector laid out by spec.layer_shapes(),
    drawn deterministically from spec.init_seed."""
    shapes = spec.layer_shapes()
    params = np.zeros(sum(r * c + n for (r, c), (n,) in shapes))
    if spec.init_sigma > 0:
        rng = np.random.default_rng(spec.init_seed)
        for w, _ in _layer_views(params, shapes):
            w[...] = rng.normal(0.0, spec.init_sigma, size=w.shape)
    return params


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _forward(layers, features: np.ndarray, spec: ModelSpec):
    """The model's forward pass, on the (weight, bias) views `layers`, over any
    leading axes of `features` and of the views (broadcast against each other).

    Returns (pre-activation, or None for softmax_linear; the last layer's
    input; logits).
    """
    pre = None
    last_in = features
    if spec.kind == MLP1:
        w1, b1 = layers[0]
        pre = features @ w1.swapaxes(-1, -2) + b1[..., None, :]
        last_in = np.tanh(pre) if spec.activation == "tanh" else np.maximum(pre, 0.0)
    w, b = layers[-1]
    return pre, last_in, last_in @ w.swapaxes(-1, -2) + b[..., None, :]


def loss_and_grad(
    params: np.ndarray,
    features: np.ndarray,
    labels: np.ndarray,
    spec: ModelSpec,
    weight_decay: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean cross-entropy plus (weight_decay/2) * ||weights||^2, with its gradient,
    of (L, P) params, one vector per row, each with its own (L,) weight_decay,
    on k microbatches, (k, u, d) features and (k, u) labels. Gives (L, k) losses
    and (L, k, P) gradients flattened in parameter order; any other shape is a
    ValueError. Row [l, i] is bit-identical to the call on params[l:l+1] and
    microbatch i alone: every product and reduction runs per row and microbatch.

    The decay covers weight matrices only, never biases, and is folded into
    the gradient so every micro-gradient already carries regularization.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    decay = np.asarray(weight_decay, dtype=np.float64)
    if params.ndim != 2:
        raise ValueError(f"params of shape {params.shape}, expected (L, P) rows")
    if features.ndim != 3 or features.shape[0] == 0 or features.shape[1] == 0:
        raise ValueError(f"features of shape {features.shape}, expected nonempty (k, u, d)")
    if labels.shape != features.shape[:2]:
        raise ValueError(f"labels of shape {labels.shape} disagree with {features.shape} features")
    k, n, d = features.shape
    if d != spec.input_dim:
        raise ValueError(f"feature dim {d} does not match spec.input_dim {spec.input_dim}")
    c = spec.num_classes
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError(f"labels must be in [0, {c})")
    n_rows = params.shape[0]
    if decay.shape != (n_rows,):
        raise ValueError(f"weight_decay of shape {decay.shape} for {n_rows} parameter rows")
    decay = decay[:, None]
    # flat index of each row's label entry in an (L, k, n, c) array
    picks = (np.arange(0, n_rows * k * n * c, c).reshape(n_rows, -1) + labels.ravel()).ravel()

    shapes = spec.layer_shapes()
    # (L, 1, rows, cols) weights: each row's parameters meet all k microbatches
    layers = _layer_views(params[:, None], shapes)
    grad = np.empty((n_rows, k, params.shape[-1]))
    views = _layer_views(grad, shapes)
    pre, last_in, logits = _forward(layers, features, spec)
    w = layers[-1][0]
    log_p = _log_softmax(logits)
    ce = -log_p.reshape(-1)[picks].reshape(n_rows, k, n).mean(axis=-1)
    dlogits = np.exp(log_p)
    dlogits.reshape(-1)[picks] -= 1.0
    dlogits /= n
    gw, gb = views[-1]
    np.matmul(dlogits.swapaxes(-1, -2), last_in, out=gw)
    gw += decay[..., None, None] * w
    dlogits.sum(axis=-2, out=gb)
    reg = (w * w).reshape(n_rows, -1).sum(axis=-1)
    if spec.kind == MLP1:
        dhidden = dlogits @ w
        if spec.activation == "tanh":
            dpre = dhidden * (1.0 - last_in * last_in)
        else:
            # relu subgradient at exactly 0 is taken as 0
            dpre = dhidden * (pre > 0.0)
        w1 = layers[0][0]
        gw1, gb1 = views[0]
        np.matmul(dpre.swapaxes(-1, -2), features, out=gw1)
        gw1 += decay[..., None, None] * w1
        dpre.sum(axis=-2, out=gb1)
        reg = (w1 * w1).reshape(n_rows, -1).sum(axis=-1) + reg
    # the add also runs at weight_decay 0: it turns a -0.0 cross-entropy into 0.0,
    # and a non-finite reg into a non-finite loss
    losses = ce + 0.5 * decay * reg[:, None]

    if not np.isfinite(losses).all() or not np.isfinite(grad).all():
        raise ValueError("non-finite loss or gradient")
    return losses, grad


def _predict_chunk_rows(layers) -> int:
    """Rows per predict chunk: every matmul in a chunk has m*n*k <= _BLAS_SERIAL_MNK."""
    return max(1, _BLAS_SERIAL_MNK // max(w.size for w, _ in layers))


def predict(params: np.ndarray, features: np.ndarray, spec: ModelSpec) -> np.ndarray:
    """Argmax class per row; ties resolve to the lowest class index.

    Rows are evaluated in chunks small enough that BLAS runs each product
    on one thread, so evaluation never wakes (and leaves spinning) a second
    BLAS thread, and the temporaries stay small however large the evaluated
    set is (an empty set is one empty chunk).
    """
    features = np.asarray(features, dtype=np.float64)
    layers = _layer_views(params, spec.layer_shapes())
    rows = _predict_chunk_rows(layers)
    return np.concatenate(
        [
            _forward(layers, features[i : i + rows], spec)[2].argmax(axis=-1)
            for i in range(0, max(features.shape[0], 1), rows)
        ]
    )


def accuracy(params: np.ndarray, features: np.ndarray, labels: np.ndarray, spec: ModelSpec) -> float:
    """Fraction of argmax-correct predictions."""
    labels = np.asarray(labels)
    if labels.shape[0] == 0:
        raise ValueError("cannot compute accuracy on an empty set")
    return float((predict(params, features, spec) == labels).mean())
