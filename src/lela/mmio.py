"""MatrixMarket I/O for matrices and factored results."""
from __future__ import annotations

import json
from pathlib import Path

import scipy.io
import scipy.sparse

from .errors import ParameterError
from .linalg import DenseMatrix, Factorization, physical_memory


def read_matrix(path) -> DenseMatrix:
    """Read a MatrixMarket file (coordinate or array format) as a dense matrix.

    A file that cannot be opened or parsed is a parameter error, and so is one
    whose header declares no rows or columns, a complex field, or a dense size
    (8 n d bytes) beyond the machine's physical memory.  The header is checked
    first because ``scipy.io.mmread`` crashes the process on an empty
    array-format file and drops the imaginary part of a complex one, and the
    dense copy of a huge shape cannot be allocated.
    """
    try:
        n, d, _, _, field, _ = scipy.io.mminfo(path)
        if n == 0 or d == 0:
            raise ParameterError(f"matrix {str(path)!r} declares shape {n}x{d}")
        if field == "complex":
            raise ParameterError(f"matrix {str(path)!r} has complex entries")
        if 8 * n * d > physical_memory():
            raise ParameterError(
                f"matrix {str(path)!r} declares shape {n}x{d}, too large to hold densely"
            )
        mat = scipy.io.mmread(path)
    except (OSError, ValueError) as exc:
        raise ParameterError(f"cannot read matrix {str(path)!r}: {exc}") from exc
    if scipy.sparse.issparse(mat):
        mat = mat.toarray()
    return DenseMatrix(mat)


def require_parent_dir(path) -> None:
    """Refuse an output path whose directory does not exist.

    ``scipy.io.mmwrite`` into a missing directory can return without error and
    without writing anything, so the check cannot be left to the write.
    """
    parent = Path(path).parent
    if not parent.is_dir():
        raise ParameterError(f"output directory {str(parent)!r} does not exist")


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
    """Read the files ``save_factorization`` writes.

    Each factor is read by ``read_matrix``, so a coordinate-format file is
    densified.  A file that is missing or cannot be parsed, metadata without
    the shape and rank, and factors that disagree with their metadata are
    parameter errors.
    """
    prefix = str(prefix)
    u = read_matrix(prefix + ".u.mtx").data
    v = read_matrix(prefix + ".v.mtx").data
    try:
        with open(prefix + ".meta.json", "r", encoding="ascii") as fh:
            meta = json.load(fh)
        shape, rank = (meta["n"], meta["d"]), meta["r"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ParameterError(f"cannot read factorization {prefix!r}: {exc}") from exc
    F = Factorization(u, v)
    if F.shape != shape or F.rank != rank:
        raise ParameterError("factorization files disagree with their metadata")
    return F, meta
