"""Independent reference implementations used to cross-check the library.

These deliberately avoid the package's own vector helpers: distances use
np.dot / np.linalg.norm and the filtering scan is re-derived from its
definition, so agreement between library and oracle is meaningful. The
exception is per_candidate_scan, the bit-level oracle of the agreement
scan, which is built on gradvec's strict-order dot products.
"""

import numpy as np

from gafsim.aggregate import AggregationOutcome
from gafsim.gradvec import cosine_distance


def naive_cosine_distance(x, y):
    nx, ny = np.linalg.norm(x), np.linalg.norm(y)
    if nx < 1e-30 or ny < 1e-30:
        return 2.0
    return min(max(1.0 - float(np.dot(x, y)) / (nx * ny), 0.0), 2.0)


def naive_filtered_aggregate(grads, tau, pivot):
    """Step-by-step agreement scan: seed with the pivot, visit the other
    micro-gradients in ascending index order, accept when the cosine
    distance to the current running sum is <= tau, and average the accepted
    set (None if only the pivot remains)."""
    g = np.array(grads[pivot], dtype=np.float64)
    count = 1
    mask = [False] * len(grads)
    mask[pivot] = True
    distances = []
    for i in range(len(grads)):
        if i == pivot:
            continue
        d = naive_cosine_distance(grads[i], g)
        distances.append(d)
        if d <= tau:
            g = g + grads[i]
            count += 1
            mask[i] = True
    gradient = g / count if count > 1 else None
    return gradient, count, mask, distances, count == 1


def per_candidate_scan(grads, tau, pivot):
    """The agreement scan as one gradvec.cosine_distance call per candidate.

    The bit-level oracle for aggregate.agreement_scan, unlike the oracles
    above: gradvec sums every dot product in index order, and this loop
    takes those sums in the order the scan's definition visits them (every
    distance against the running sum as it stands, which grows by +=), so
    distances, masks, counts and gradient bytes must match exactly, and it
    raises gradvec's "non-finite dot product" whenever the scan must.
    """
    running = np.array(grads[pivot], dtype=np.float64)
    count = 1
    mask = [False] * len(grads)
    mask[pivot] = True
    distances = []
    for i in range(len(grads)):
        if i == pivot:
            continue
        d = cosine_distance(grads[i], running)
        distances.append(d)
        if d <= tau:
            running += grads[i]
            count += 1
            mask[i] = True
    return AggregationOutcome(None if count == 1 else running / count, count, mask, distances)


def naive_mean(grads):
    total = np.array(grads[0], dtype=np.float64)
    for g in grads[1:]:
        total = total + g
    return total / len(grads)


def finite_difference_grad(loss_fn, flat, indices, h=1e-5):
    """Central differences of loss_fn (a function of the flat parameter
    vector) at the given coordinates."""
    out = {}
    for idx in indices:
        hi = flat.copy()
        lo = flat.copy()
        hi[idx] += h
        lo[idx] -= h
        out[idx] = (loss_fn(hi) - loss_fn(lo)) / (2 * h)
    return out


def single_batch_loss_and_grad(params, features, labels, spec, weight_decay=0.0):
    """One (u, d) microbatch, written out with 2-D products and no shared
    views: the arithmetic, in its order, that the stacked library path must
    reproduce bit for bit for each of its rows."""
    n = features.shape[0]
    rows = np.arange(n)

    def log_softmax(logits):
        shifted = logits - logits.max(axis=1, keepdims=True)
        return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))

    c, d, h = spec.num_classes, spec.input_dim, spec.hidden_dim
    if spec.kind == "softmax_linear":
        w, b = np.split(params, [c * d])
        w = w.reshape(c, d)
        log_p = log_softmax(features @ w.T + b)
        ce = -log_p[rows, labels].mean()
        dlogits = np.exp(log_p)
        dlogits[rows, labels] -= 1.0
        dlogits /= n
        gw = dlogits.T @ features + weight_decay * w
        loss = ce + 0.5 * weight_decay * float((w * w).sum())
        return float(loss), np.concatenate([gw.ravel(), dlogits.sum(axis=0)])
    w1, b1, w2, b2 = np.split(params, np.cumsum([h * d, h, c * h]))
    w1, w2 = w1.reshape(h, d), w2.reshape(c, h)
    pre = features @ w1.T + b1
    hidden = np.tanh(pre) if spec.activation == "tanh" else np.maximum(pre, 0.0)
    log_p = log_softmax(hidden @ w2.T + b2)
    ce = -log_p[rows, labels].mean()
    dlogits = np.exp(log_p)
    dlogits[rows, labels] -= 1.0
    dlogits /= n
    gw2 = dlogits.T @ hidden + weight_decay * w2
    dhidden = dlogits @ w2
    if spec.activation == "tanh":
        dpre = dhidden * (1.0 - hidden * hidden)
    else:
        dpre = dhidden * (pre > 0.0)
    gw1 = dpre.T @ features + weight_decay * w1
    loss = ce + 0.5 * weight_decay * float((w1 * w1).sum() + (w2 * w2).sum())
    return float(loss), np.concatenate(
        [gw1.ravel(), dpre.sum(axis=0), gw2.ravel(), dlogits.sum(axis=0)]
    )
