"""Sparse undirected graphs, edge-list I/O, and Bernoulli sampling.

Graphs are simple (no self-loops, no multi-edges), undirected, and binary,
on nodes 0..n-1, and stored as their adjacency matrix in CSR form.
Probability matrices are dense symmetric float arrays with a zero diagonal;
synthetic instances are sampled from their parts (synth), so only the
core block and the dense oracles need one.
"""

from __future__ import annotations

import io
import os
import re
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError, ParseError, RangeError, ValidationError

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "SparseGraph",
    "ProbabilityMatrix",
    "load_edge_list",
    "write_edge_list",
    "degrees",
    "average_density",
    "sample_adjacency",
    "write_truth_labels",
]


class SparseGraph:
    """Immutable undirected graph in CSR form: the neighbours of node i are
    `indices[indptr[i]:indptr[i + 1]]`, ascending, so each edge is in both
    of its rows.  Both arrays are read-only int64."""

    __slots__ = ("n", "m", "indptr", "indices", "_adjacency", "_csr")

    def __init__(self, n: int, adjacency):
        """Validating constructor from one sorted neighbour array per node."""
        n = int(n)
        if n < 0:
            raise ValidationError("node count must be nonnegative")
        if len(adjacency) != n:
            raise ValidationError("adjacency list count does not match n")
        indptr = np.cumsum([0] + [len(nbrs) for nbrs in adjacency], dtype=np.int64)
        indices = np.concatenate([np.empty(0), *adjacency], dtype=np.int64, casting="unsafe")
        self._adopt(n, indptr, indices)
        self._validate()

    def _adopt(self, n: int, indptr: np.ndarray, indices: np.ndarray) -> None:
        indptr.flags.writeable = indices.flags.writeable = False
        self.n, self.m, self.indptr, self.indices = int(n), indices.size // 2, indptr, indices
        self._adjacency = self._csr = None

    def _validate(self) -> None:
        n, idx = self.n, self.indices
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.indptr))
        bad = (idx < 0) | (idx >= n)
        if bad.any():
            raise RangeError(f"neighbor id out of range for node {rows[bad.argmax()]}")
        bad = idx == rows
        if bad.any():
            raise ValidationError(f"self-loop at node {rows[bad.argmax()]}")
        bad = (np.diff(idx) <= 0) & (rows[1:] == rows[:-1])
        if bad.any():
            raise ValidationError(f"neighbors of node {rows[1:][bad.argmax()]} not sorted/unique")
        # row-major keys are sorted; the graph is symmetric iff its mirror has the same keys
        keys = rows * n + idx
        mirrored = np.sort(idx * n + rows)
        if not np.array_equal(keys, mirrored):
            i, j = divmod(int(keys[np.argmin(np.isin(keys, mirrored, assume_unique=True))]), n)
            raise ValidationError(f"edge ({i},{j}) not symmetric")

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "SparseGraph":
        """Build from an (k, 2) array or an iterable of (i, j) pairs;
        duplicates and reversed copies are merged, self-loops rejected."""
        if not isinstance(pairs, np.ndarray):
            pairs = list(pairs)
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        if pairs.size:
            if pairs.min() < 0 or pairs.max() >= n:
                raise RangeError("node id outside 0..n-1")
            if np.any(pairs[:, 0] == pairs[:, 1]):
                raise ValidationError("self-loop in edge set")
        # one sort of the row-major keys of both orientations gives the CSR order
        tails, heads = pairs.T
        keys = np.sort(np.concatenate([tails * n + heads, heads * n + tails]))
        keys = keys[np.diff(keys, prepend=-1) != 0]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
        g = cls.__new__(cls)
        g._adopt(n, indptr, keys % n)
        return g

    @property
    def adjacency(self) -> tuple:
        """Neighbour array of every node, as read-only views into `indices`."""
        if self._adjacency is None:
            bounds = self.indptr.tolist()
            self._adjacency = tuple(self.indices[a:b] for a, b in zip(bounds, bounds[1:]))
        return self._adjacency

    def edge_array(self) -> np.ndarray:
        """All edges as an (m, 2) array with i < j, lexicographically sorted."""
        rows = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
        upper = self.indices > rows
        return np.column_stack([rows[upper], self.indices[upper]])

    def to_csr(self) -> sparse.csr_matrix:
        """Adjacency as a cached scipy CSR matrix of float64."""
        if self._csr is None:
            # imported here so `generate` and `diagnose --truth-p` never load scipy
            from scipy import sparse
            self._csr = sparse.csr_matrix((np.ones(self.indices.size), self.indices,
                                           self.indptr), shape=(self.n, self.n))
        return self._csr


class ProbabilityMatrix:
    """Dense symmetric edge-probability matrix with a zero diagonal."""

    __slots__ = ("entries", "n")

    def __init__(self, entries: np.ndarray):
        entries = np.ascontiguousarray(entries, dtype=np.float64)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValidationError("probability matrix must be square")
        self.entries = entries
        self.n = entries.shape[0]
        self._validate()

    def _validate(self) -> None:
        p = self.entries
        if p.size == 0:
            return
        if np.any(np.diag(p) != 0.0):
            raise ValidationError("probability matrix diagonal must be zero")
        if not np.array_equal(p, p.T):
            raise ValidationError("probability matrix must be symmetric")
        if p.min() < 0.0 or p.max() > 1.0:
            raise ValidationError("probabilities must lie in [0, 1]")

    def expected_degrees(self) -> np.ndarray:
        return self.entries.sum(axis=1)

    def off_diagonal_mean(self) -> float:
        if self.n < 2:
            raise DomainError("off-diagonal mean requires n >= 2")
        return float(self.entries.sum() / (self.n * self.n - self.n))


_ROW_BLOCK = 2**16  # matrix entries per row block where a pass over rows needs temporaries

# what is left of the data lines after deleting these characters is a fault
_NOT_DATA = str.maketrans("", "", "0123456789 \t\n")


def _read_text(source) -> str:
    """The whole input as one string, with CRLF line ends turned into LF."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            source = fh.read()
    elif hasattr(source, "read"):
        source = source.read()
    elif not isinstance(source, bytes):  # an iterable of lines
        source = "".join(line if line.endswith("\n") else line + "\n" for line in source)
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError("input is not UTF-8 text",
                             source.count(b"\n", 0, exc.start) + 1) from None
    return source.replace("\r\n", "\n")


def _raise_first_bad_line(text: str) -> None:
    """Check `text` one line at a time and raise the error of its first bad
    line; runs only once the bulk parse in load_edge_list has found one."""
    declared_n = None
    first_data_line = True
    for lineno, raw in enumerate(io.StringIO(text), start=1):
        line = raw.strip(" \t\n")
        if not line or line.startswith("#"):
            continue
        fields = [f for f in line.replace("\t", " ").split(" ") if f]
        ids = [int(f) if f.isascii() and f.removeprefix("-").isdigit() else None for f in fields]
        if first_data_line and fields[0] == "n":
            if len(fields) != 2:
                raise ParseError("header must be 'n <count>'", lineno)
            if ids[1] is None:
                raise ParseError(f"bad node count {fields[1]!r}", lineno)
            if fields[1].startswith("-"):
                raise ParseError("declared node count must be nonnegative", lineno)
            declared_n = ids[1]
        elif len(fields) != 2:
            raise ParseError(f"expected two node ids, got {len(fields)} tokens", lineno)
        elif None in ids:
            raise ParseError(f"non-integer node id in {line!r}", lineno)
        elif "-" in line:
            raise ParseError("node ids must be nonnegative", lineno)
        elif ids[0] == ids[1]:
            raise ValidationError(f"line {lineno}: self-loop {ids[0]}-{ids[1]}")
        elif declared_n is not None and max(ids) >= declared_n:
            raise RangeError(f"line {lineno}: node id {max(ids)} >= declared n={declared_n}")
        elif max(ids) >= 2**63:
            raise RangeError(f"line {lineno}: node id {max(ids)} does not fit in 64 bits")
        first_data_line = False


def load_edge_list(source) -> SparseGraph:
    """Parse a whitespace-separated edge list into a SparseGraph.

    Dialect: one `i j` pair per line with 0-based integer ids, `#` starts a
    full-line comment, blank lines are skipped, and an optional first
    non-comment line `n <count>` declares the node count (needed to keep
    trailing isolated nodes).  Duplicate and reversed pairs merge silently;
    self-loops are rejected.  Ids and the count are ASCII decimal digits,
    fields are separated by spaces or tabs, and lines end in LF or CRLF.

    `source` is a path, bytes, a file object or an iterable of lines.  Numpy
    parses the text whole; only after it finds a fault are the lines
    rescanned, to report the first bad one.
    """
    text = _read_text(source)
    body = re.sub(r"(?m)^[ \t]*#.*(?:\n|\Z)", "", text) if "#" in text else text
    body = body.lstrip(" \t\n")
    declared_n = None
    if body.startswith("n"):  # only the header, the first data line, may hold an "n"
        header, _, body = body.partition("\n")
        count = header[1:].strip(" \t")
        if header[1:2] not in (" ", "\t") or not (count.isascii() and count.isdigit()):
            _raise_first_bad_line(text)
        declared_n = int(count)
    pairs = None
    try:
        if not body.translate(_NOT_DATA):
            pairs = (np.loadtxt(io.StringIO(body), dtype=np.int64, ndmin=2) if body.strip()
                     else np.empty((0, 2), dtype=np.int64))
    except ValueError:  # rows of unequal length, or an id beyond int64
        pass
    if (pairs is None or pairs.shape[1] != 2 or np.any(pairs[:, 0] == pairs[:, 1])
            or (declared_n is not None and pairs.size and pairs.max() >= declared_n)):
        _raise_first_bad_line(text)
    n = declared_n if declared_n is not None else int(pairs.max(initial=-1)) + 1
    return SparseGraph.from_pairs(n, pairs)


def write_edge_list(g: SparseGraph, path) -> None:
    """Write a graph in the dialect understood by load_edge_list."""
    # entry i is "i\t" and entry n + i is "i\n", so edge (i, j) is entries i, n + j
    table = np.array([f"{i}\t" for i in range(g.n)] + [f"{i}\n" for i in range(g.n)],
                     dtype=object)
    with open(path, "wt", encoding="utf-8", newline="\n") as fh:
        fh.write(f"n {g.n}\n")
        fh.write("".join(table[(g.edge_array() + [0, g.n]).ravel()].tolist()))


def degrees(g: SparseGraph) -> np.ndarray:
    """Observed degree of every node (sums to 2m)."""
    return np.diff(g.indptr)


def average_density(g: SparseGraph) -> float:
    """Plug-in edge density 2m / (n^2 - n)."""
    if g.n < 2:
        raise DomainError("density needs at least 2 nodes")
    return 2.0 * g.m / (g.n * g.n - g.n)


def sample_adjacency(p: ProbabilityMatrix, seed: int) -> SparseGraph:
    """Draw one Bernoulli realization of the probability matrix: each pair
    i < j is drawn once, as _sample_pairs draws it at scale 1, and mirrored."""
    return SparseGraph.from_pairs(p.n, _sample_pairs(p.entries, 1.0, seed))


def _sample_pairs(entries: np.ndarray, scale: float, seed: int) -> np.ndarray:
    """The (k, 2) pairs i < j of one draw of min(scale * entries, 1), from one
    random stream derived from seed that runs over the upper triangle row-major,
    a block of rows at a time; the pairs do not depend on the block size."""
    n = entries.shape[0]
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0xE0,)))
    step, pairs = max(1, _ROW_BLOCK // max(n, 1)), [np.empty((0, 2), dtype=np.int64)]
    for lo in range(0, n - 1, step):
        rows = np.arange(lo, min(n - 1, lo + step))
        # offsets[r]: where row lo + r starts among the block's pairs j > i
        offsets = np.concatenate([[0], np.cumsum(n - 1 - rows)])
        upper = np.concatenate([entries[i, i + 1:] for i in rows.tolist()]) * scale
        hits = np.flatnonzero(rng.random(upper.size) < np.minimum(upper, 1.0, out=upper))
        r = np.searchsorted(offsets, hits, side="right") - 1
        pairs.append(np.column_stack([rows[r], rows[r] + 1 + hits - offsets[r]]))
    return np.concatenate(pairs)


def _triangle_pairs(n: int, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decode indices into the row-major upper triangle of an n x n matrix
    (diagonal excluded) into (i, j) pairs with i < j; exact in int64 for
    n up to 2e9."""
    # count from the end, where row n - 2 - q holds q + 1 pairs: the square
    # root of 8t + 1 then suffers no cancellation and is off by at most one
    t = n * (n - 1) // 2 - 1 - index
    q = np.floor((np.sqrt(8.0 * t + 1.0) - 1.0) / 2.0).astype(np.int64)
    q = np.where(q * (q + 1) // 2 > t, q - 1, q)
    q = np.where((q + 1) * (q + 2) // 2 <= t, q + 1, q)
    return n - 2 - q, n - 1 - (t - q * (q + 1) // 2)


def write_truth_labels(path, labels) -> None:
    labels = np.asarray(labels, dtype=bool)
    with open(path, "wt", encoding="utf-8", newline="\n") as fh:
        fh.write("node_id,is_core\n")
        rows = np.column_stack([np.arange(labels.size), labels])
        fh.write(("%d,%d\n" * labels.size) % tuple(rows.ravel().tolist()))
