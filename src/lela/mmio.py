"""MatrixMarket I/O for matrices and factored results."""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import scipy.io
import scipy.sparse

from .errors import ParameterError
from .linalg import DenseMatrix, Factorization


def read_matrix(path) -> DenseMatrix:
    """Read a MatrixMarket file (coordinate or array format) as a dense matrix.

    A file that cannot be opened or parsed is a parameter error.
    """
    try:
        mat = scipy.io.mmread(path)
    except (OSError, ValueError) as exc:
        raise ParameterError(f"cannot read matrix {str(path)!r}: {exc}") from exc
    if scipy.sparse.issparse(mat):
        mat = mat.toarray()
    return DenseMatrix(np.asarray(mat, dtype=np.float64))


def require_parent_dir(path) -> None:
    """Refuse an output path whose directory does not exist.

    ``scipy.io.mmwrite`` into a missing directory can return without error and
    without writing anything, so the check cannot be left to the write.
    """
    parent = Path(path).parent
    if not parent.is_dir():
        raise ParameterError(f"output directory {str(parent)!r} does not exist")


def write_matrix(path, M: DenseMatrix, fmt: str = "array") -> None:
    """Write a matrix in MatrixMarket array or coordinate format."""
    require_parent_dir(path)
    if fmt == "array":
        scipy.io.mmwrite(path, M.data)
    elif fmt == "coordinate":
        scipy.io.mmwrite(path, scipy.sparse.coo_matrix(M.data))
    else:
        raise ParameterError("format must be 'array' or 'coordinate'")


def save_factorization(prefix, F: Factorization, meta: dict | None = None) -> None:
    """Write U and V as MatrixMarket array files plus a JSON metadata header.

    Produces ``<prefix>.u.mtx``, ``<prefix>.v.mtx`` and ``<prefix>.meta.json``;
    the metadata always records the shape and rank, plus whatever the caller
    adds (iteration count, seed).
    """
    require_parent_dir(prefix)
    prefix = Path(prefix)
    scipy.io.mmwrite(str(prefix) + ".u.mtx", F.u)
    scipy.io.mmwrite(str(prefix) + ".v.mtx", F.v)
    record = {"n": F.u.shape[0], "d": F.v.shape[0], "r": F.rank}
    if meta:
        record.update(meta)
    with open(str(prefix) + ".meta.json", "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_factorization(prefix) -> tuple[Factorization, dict]:
    prefix = Path(prefix)
    u = np.asarray(scipy.io.mmread(str(prefix) + ".u.mtx"), dtype=np.float64)
    v = np.asarray(scipy.io.mmread(str(prefix) + ".v.mtx"), dtype=np.float64)
    with open(str(prefix) + ".meta.json", "r", encoding="ascii") as fh:
        meta = json.load(fh)
    F = Factorization(u, v)
    if F.shape != (meta["n"], meta["d"]) or F.rank != meta["r"]:
        raise ParameterError("factorization files disagree with their metadata")
    return F, meta
