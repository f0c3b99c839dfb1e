import numpy as np
import pytest

from gafsim.models import loss_and_grad

N_PROPERTY_CASES = 200

# filled by the acceptance module; echoed after the test summary so the
# per-criterion verdicts are visible without -s
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


def random_vec(rng, dim=None, lo=1, hi=513):
    if dim is None:
        dim = int(rng.integers(lo, hi))
    return rng.normal(size=dim)


def one_row(params, features, labels, spec, weight_decay=0.0):
    """loss_and_grad on one (P,) parameter vector and one (u, d) microbatch, given
    as its (1, P) x (1, u, d) call: (loss, (P,) gradient)."""
    grads = np.empty((1, 1, params.size))
    losses = loss_and_grad(params[None], features[None], labels[None], spec,
                           np.array([weight_decay]), grads)
    return losses[0, 0], grads[0, 0]
