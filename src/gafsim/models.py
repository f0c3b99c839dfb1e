"""Toy differentiable classifiers with closed-form gradients.

Two model kinds, run by one layer loop: multinomial logistic regression
("softmax_linear", no hidden layer) and a one-hidden-layer MLP ("mlp1",
tanh or relu). Both return exact analytic gradients of mean cross-entropy
plus coupled L2 weight decay, flattened in parameter order, so
micro-gradients can be compared and aggregated as flat vectors. The
parameters are one such flat float64 vector too; its layout, and so the
layer count, comes only from ModelSpec.layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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

    @cached_property
    def layout(self) -> tuple[list[tuple[tuple[int, int], slice, slice]], int]:
        """(weight shape, weight slice, bias slice) of each layer in the flat vector, and its length."""
        dims = [self.input_dim] + [self.hidden_dim] * (self.kind == MLP1) + [self.num_classes]
        layers, end = [], 0
        for cols, rows in zip(dims, dims[1:]):
            mid = end + rows * cols
            layers.append(((rows, cols), slice(end, mid), slice(mid, end := mid + rows)))
        return layers, end


def _layer_views(flat: np.ndarray, spec: ModelSpec) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer (weight, bias) views into the last axis of `flat`, in parameter order.

    A leading axis (one row per worker) carries through to every view.
    """
    layers, size = spec.layout
    if flat.shape[-1] != size:
        raise ValueError(f"flat vector has {flat.shape[-1]} entries, expected {size}")
    return [(flat[..., w].reshape(flat.shape[:-1] + shape), flat[..., b]) for shape, w, b in layers]


def init_params(spec: ModelSpec) -> np.ndarray:
    """All parameters as one flat float64 vector laid out by spec.layout,
    drawn deterministically from spec.init_seed."""
    params = np.zeros(spec.layout[1])
    if spec.init_sigma > 0:
        rng = np.random.default_rng(spec.init_seed)
        for w, _ in _layer_views(params, spec):
            w[...] = rng.normal(0.0, spec.init_sigma, size=w.shape)
    return params


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _forward(layers, features: np.ndarray, spec: ModelSpec):
    """The model's forward pass, on the (weight, bias) views `layers`, over any
    leading axes of `features` and of the views (broadcast against each other).

    Returns (each layer's input, `features` first; logits). Each layer adds
    its bias and applies its activation in place, on its product's output.
    """
    ins = [features]
    for w, b in layers[:-1]:
        h = ins[-1] @ w.swapaxes(-1, -2)
        h += b[..., None, :]
        ins.append(np.tanh(h, out=h) if spec.activation == "tanh" else np.maximum(h, 0.0, out=h))
    w, b = layers[-1]
    logits = ins[-1] @ w.swapaxes(-1, -2)
    logits += b[..., None, :]
    return ins, logits


class GradBlock:
    """What a run group's gradient calls share, checked and laid out once.

    params: a float64 C-contiguous copy of the (L, P) parameter rows, one
    vector per row, which the caller rewrites in place between calls.
    decay: each row's weight decay as an (L, 1) column. grad: the caller's
    (L, k, P) float64 C-contiguous block that every call writes into; a block
    of another shape, dtype or layout is a ValueError. layers and views: each
    layer's (weight, bias) views of params, as (L, 1, rows, cols) weights that
    meet all k microbatches, and of grad.
    """

    def __init__(self, params: np.ndarray, spec: ModelSpec, weight_decay: np.ndarray,
                 grad: np.ndarray):
        params = np.array(params, dtype=np.float64, order="C")
        decay = np.asarray(weight_decay, dtype=np.float64)
        if params.ndim != 2:
            raise ValueError(f"params of shape {params.shape}, expected (L, P) rows")
        n_rows, size = params.shape
        if decay.shape != (n_rows,):
            raise ValueError(f"weight_decay of shape {decay.shape} for {n_rows} parameter rows")
        if grad.ndim != 3 or grad.shape[::2] != (n_rows, size):
            k = grad.shape[1] if grad.ndim == 3 else "k"
            raise ValueError(f"gradient block of shape {grad.shape}, expected ({n_rows}, {k}, {size})")
        if grad.dtype != np.float64:
            raise ValueError(f"gradient block of dtype {grad.dtype}, expected float64")
        if not grad.flags.c_contiguous:
            raise ValueError(f"gradient block with strides {grad.strides}, expected C-contiguous")
        self.params, self.spec, self.grad = params, spec, grad
        self.layers = _layer_views(params[:, None], spec)
        self.views = _layer_views(grad, spec)
        self.any_decay = decay.any()
        self.decay = decay[:, None]


def loss_and_grad(block: GradBlock, features: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Mean cross-entropy plus (weight_decay/2) * ||weights||^2, with its gradient,
    of the block's (L, P) parameter rows, each with its own weight decay, on k
    microbatches, (k, u, d) features and (k, u) labels. Returns (L, k) losses
    and writes the gradients, flattened in parameter order, into the block's
    (L, k, P) gradient block. Row [l, i] is bit-identical to the call on
    params[l:l+1] and microbatch i alone: every product and reduction runs per
    row and microbatch.

    The decay covers weight matrices only, never biases, and is folded into
    the gradient so every micro-gradient already carries regularization.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if features.ndim != 3 or features.shape[0] == 0 or features.shape[1] == 0:
        raise ValueError(f"features of shape {features.shape}, expected nonempty (k, u, d)")
    if labels.shape != features.shape[:2]:
        raise ValueError(f"labels of shape {labels.shape} disagree with {features.shape} features")
    spec, grad = block.spec, block.grad
    k, n, d = features.shape
    if d != spec.input_dim:
        raise ValueError(f"feature dim {d} does not match spec.input_dim {spec.input_dim}")
    c = spec.num_classes
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError(f"labels must be in [0, {c})")
    n_rows, rows_k, size = grad.shape
    if rows_k != k:
        raise ValueError(f"gradient block of shape {grad.shape}, expected {(n_rows, k, size)}")
    layers, decay = block.layers, block.decay
    # flat index of each row's label entry in an (L, k, n, c) array
    picks = (np.arange(0, n_rows * k * n * c, c).reshape(n_rows, -1) + labels.ravel()).ravel()

    ins, logits = _forward(layers, features, spec)
    log_p = _log_softmax(logits)
    ce = -log_p.reshape(-1)[picks].reshape(n_rows, k, n).sum(axis=-1) / n
    dout = np.exp(log_p)  # the gradient at the current layer's output, logits first
    dout.reshape(-1)[picks] -= 1.0
    dout /= n
    reg = 0.0  # exact: a sum of squares is never -0.0, so adding 0.0 changes no bit
    for i in reversed(range(len(layers))):
        (w, _), (gw, gb) = layers[i], block.views[i]
        np.matmul(dout.swapaxes(-1, -2), ins[i], out=gw)
        # a matmul sums from +0.0, so it never yields -0.0, and adding a zero decay's
        # +-0.0 changes no bit: the multiply-adds run only when some row has decay
        if block.any_decay:
            gw += decay[..., None, None] * w
        dout.sum(axis=-2, out=gb)
        reg = (w * w).reshape(n_rows, -1).sum(axis=-1) + reg
        if i:  # through the activation; relu's subgradient at exactly 0 is taken as 0
            # (relu's output is > 0.0 exactly where its input is, so its mask reads the output)
            dout = dout @ w
            dout = dout * (1.0 - ins[i] * ins[i] if spec.activation == "tanh" else ins[i] > 0.0)
    # the add also runs at weight_decay 0: it turns a -0.0 cross-entropy into 0.0,
    # and a non-finite reg (a non-finite weight) into a non-finite loss
    losses = ce + 0.5 * decay * reg[:, None]

    if not np.isfinite(losses).all() or not np.isfinite(grad).all():
        raise ValueError("non-finite loss or gradient")
    return losses


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
    layers = _layer_views(params, spec)
    rows = _predict_chunk_rows(layers)
    return np.concatenate(
        [
            _forward(layers, features[i : i + rows], spec)[1].argmax(axis=-1)
            for i in range(0, max(features.shape[0], 1), rows)
        ]
    )


def accuracy(params: np.ndarray, features: np.ndarray, labels: np.ndarray, spec: ModelSpec) -> float:
    """Fraction of argmax-correct predictions."""
    labels = np.asarray(labels)
    if labels.shape[0] == 0:
        raise ValueError("cannot compute accuracy on an empty set")
    return float((predict(params, features, spec) == labels).mean())
