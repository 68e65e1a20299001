import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import lela.linalg as lela_linalg  # noqa: E402


@pytest.fixture
def svd_iterations(monkeypatch):
    """Subspace iterations of the topk_svd calls made so far in the test.

    topk_svd runs its loop through the module attribute subspace_iteration;
    the wrapper counts the steps that loop takes.
    """
    steps = []
    inner = lela_linalg.subspace_iteration

    def counting(step, V, r, cap):
        def counted(V):
            steps.append(1)
            return step(V)

        return inner(counted, V, r, cap)

    monkeypatch.setattr(lela_linalg, "subspace_iteration", counting)
    return lambda: len(steps)
