import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import lela.linalg as lela_linalg  # noqa: E402


@pytest.fixture
def svd_iterations(monkeypatch):
    """Subspace iterations of the topk_svd calls made so far in the test.

    topk_svd orthonormalizes through the module attribute once to start and
    twice per iteration; the wrapper counts those calls.
    """
    calls = []
    inner = lela_linalg.orthonormal_columns

    def counting(X):
        calls.append(1)
        return inner(X)

    monkeypatch.setattr(lela_linalg, "orthonormal_columns", counting)
    return lambda: (len(calls) - 1) // 2
