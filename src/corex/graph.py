"""Sparse undirected graphs, edge-list I/O, and Bernoulli sampling.

Graphs are simple (no self-loops, no multi-edges), undirected, and binary,
on nodes 0..n-1, and stored as their adjacency matrix in CSR form.
A dense probability matrix is a plain float64 ndarray, symmetric with a
zero diagonal and entries in [0, 1]; synth builds every one of them from
its built-in graphons, and its property tests check those invariants.
Synthetic instances are sampled from their parts (synth), so only the
core block and the dense oracles hold one.
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
    "load_edge_list",
    "write_edge_list",
    "degrees",
    "average_density",
    "sample_adjacency",
    "write_truth_labels",
]


# isqrt(2**63): the largest node count whose row-major pair keys i * n + j,
# which from_pairs sorts and _triangle_pairs inverts, fit in int64
MAX_NODES = 3_037_000_499
INT32_INDEX_MAX = 2**31 - 1  # the largest n and 2m whose CSR arrays are int32, as in scipy


class SparseGraph:
    """Immutable undirected graph in CSR form: the neighbours of node i are
    `indices[indptr[i]:indptr[i + 1]]`, ascending, so each edge is in both
    of its rows.  Both arrays are read-only, in the index dtype scipy picks:
    int32 while n and 2m fit in it, int64 otherwise."""

    __slots__ = ("n", "m", "indptr", "indices", "_adjacency")

    def __init__(self, n: int, adjacency):
        """Validating constructor from one neighbour array per node: the arrays
        must already be the canonical rows that from_pairs builds from them."""
        n = int(n)
        if n < 0:
            raise ValidationError("node count must be nonnegative")
        if len(adjacency) != n:
            raise ValidationError("adjacency list count does not match n")
        counts = np.array([len(nbrs) for nbrs in adjacency], dtype=np.int64)
        rows = np.repeat(np.arange(n, dtype=np.int64), counts)
        given = np.concatenate([np.empty(0), *adjacency], dtype=np.int64, casting="unsafe")
        try:
            g = self.from_pairs(n, np.column_stack([rows, given]))
        except RangeError:
            bad = (given < 0) | (given >= n)
            raise RangeError(f"neighbor id out of range for node {rows[bad.argmax()]}") from None
        except ValidationError:
            raise ValidationError(f"self-loop at node {rows[(given == rows).argmax()]}") from None
        if not (np.array_equal(np.diff(g.indptr), counts) and np.array_equal(g.indices, given)):
            # the first list that differs is unsorted, or lacks the mirror j of an edge (j, i)
            i = next(i for i, (a, b) in enumerate(zip(adjacency, g.adjacency))
                     if not np.array_equal(a, b))
            if np.any(np.diff(adjacency[i]) <= 0):
                raise ValidationError(f"neighbors of node {i} not sorted/unique")
            j = np.setdiff1d(g.adjacency[i], adjacency[i])[0]
            raise ValidationError(f"edge ({j},{i}) not symmetric")
        for name in self.__slots__:
            setattr(self, name, getattr(g, name))

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "SparseGraph":
        """Build from an (k, 2) array or an iterable of (i, j) pairs;
        duplicates and reversed copies are merged, self-loops rejected."""
        if n < 0:
            raise ValidationError("node count must be nonnegative")
        if n > MAX_NODES:
            raise RangeError(f"node count {n} is above {MAX_NODES}: pair keys i * n + j would "
                             "overflow int64")
        if not isinstance(pairs, np.ndarray):
            pairs = list(pairs)
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        if pairs.size:
            if pairs.min() < 0 or pairs.max() >= n:
                raise RangeError("node id outside 0..n-1")
            if np.any(pairs[:, 0] == pairs[:, 1]):
                raise ValidationError("self-loop in edge set")
        # one in-place sort of the row-major keys of both orientations gives the CSR order
        keys = np.multiply(pairs.T, n, order="C")
        keys += pairs.T[::-1]
        keys = keys.ravel()
        keys.sort()
        keep = np.not_equal(keys[1:], keys[:-1])  # keep[i]: key i + 1 is not a repeat
        keys = keys if keep.all() else keys[np.append(True, keep)]
        # the index dtype scipy picks, so to_csr adopts these arrays uncopied
        dtype = np.int32 if max(n, keys.size) <= INT32_INDEX_MAX else np.int64
        indptr = np.searchsorted(keys, np.arange(n + 1) * n).astype(dtype)
        indices = np.remainder(keys, n, out=keys).astype(dtype, copy=False)
        indptr.flags.writeable = indices.flags.writeable = False
        g = cls.__new__(cls)
        g.n, g.m, g.indptr, g.indices = int(n), indices.size // 2, indptr, indices
        g._adjacency = None
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
        """Adjacency as a scipy CSR matrix of float64 over the graph's own
        read-only index arrays, which scipy adopts without a copy."""
        # imported here so `generate` and `diagnose --truth-p` never load scipy
        from scipy import sparse
        return sparse.csr_matrix((np.ones(self.indices.size), self.indices, self.indptr),
                                 shape=(self.n, self.n))


_ROW_BLOCK = 2**16  # matrix entries per row block where a pass over rows needs temporaries
_DIGIT = re.compile(rb"[0-9]")


def _read_bytes(source) -> bytes:
    """The whole input as bytes, with CRLF line ends turned into LF; UTF-8 is checked."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            source = fh.read()
    elif hasattr(source, "read"):
        source = source.read()
    elif not isinstance(source, bytes):  # an iterable of lines
        source = "".join(line if line.endswith("\n") else line + "\n" for line in source)
    if isinstance(source, str):
        source = source.encode("utf-8", "surrogatepass")
    elif not source.isascii():
        try:
            source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError("input is not UTF-8 text",
                             source.count(b"\n", 0, exc.start) + 1) from None
    return source.replace(b"\r\n", b"\n")


def _raise_first_bad_line(data: bytes) -> None:
    """Check `data` one line at a time and raise the error of its first bad
    line; runs only once the bulk parse in load_edge_list has found one."""
    declared_n = None
    first_data_line = True
    for lineno, raw in enumerate(io.StringIO(data.decode("utf-8", "surrogatepass")), start=1):
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
    parses the bytes whole; only after it finds a fault are the lines
    decoded and rescanned, to report the first bad one.
    """
    data = _read_bytes(source)
    body = re.sub(rb"(?m)^[ \t]*#.*(?:\n|\Z)", b"", data) if b"#" in data else data
    body = body.lstrip(b" \t\n")
    declared_n, header_end = None, 0
    if body.startswith(b"n"):  # only the header, the first data line, may hold an "n"
        header_end = body.find(b"\n") + 1 or len(body)
        count = body[1:header_end].strip(b" \t\n")
        if body[1:2] not in (b" ", b"\t") or not count.isdigit():
            _raise_first_bad_line(data)
        declared_n = int(count)
    pairs = None
    try:
        # checked and parsed in place: any byte left but the header's "n" is a fault
        if body.translate(None, b"0123456789 \t\n") == (b"n" if header_end else b""):
            pairs = (np.loadtxt(io.BytesIO(body), dtype=np.int64, ndmin=2,
                                skiprows=1 if header_end else 0)
                     if _DIGIT.search(body, header_end)
                     else np.empty((0, 2), dtype=np.int64))
    except ValueError:  # rows of unequal length, or an id beyond int64
        pass
    if (pairs is None or pairs.shape[1] != 2 or np.any(pairs[:, 0] == pairs[:, 1])
            or (declared_n is not None and pairs.size and pairs.max() >= declared_n)):
        _raise_first_bad_line(data)
    del data, body  # the text goes before from_pairs makes its copies
    n = declared_n if declared_n is not None else int(pairs.max(initial=-1)) + 1
    return SparseGraph.from_pairs(n, pairs)


def write_edge_list(g: SparseGraph, path) -> None:
    """Write a graph in the dialect understood by load_edge_list."""
    # entry i is "i\t" and entry n + i is "i\n", so edge (i, j) is entries i, n + j
    table = np.array([f"{i}\t" for i in range(g.n)] + [f"{i}\n" for i in range(g.n)],
                     dtype=object)
    _write_rows(path, f"n {g.n}\n", table[(g.edge_array() + [0, g.n]).ravel()].tolist())


def degrees(g: SparseGraph) -> np.ndarray:
    """Observed degree of every node (sums to 2m)."""
    return np.diff(g.indptr)


def average_density(g: SparseGraph) -> float:
    """Plug-in edge density 2m / (n^2 - n)."""
    if g.n < 2:
        raise DomainError("density needs at least 2 nodes")
    return 2.0 * g.m / (g.n * g.n - g.n)


def sample_adjacency(p: np.ndarray, seed: int) -> SparseGraph:
    """Draw one Bernoulli realization of the probability matrix p (see the
    module docstring): each pair i < j is drawn once, as _sample_pairs draws
    it at scale 1, and mirrored."""
    return SparseGraph.from_pairs(p.shape[0], _sample_pairs(p, 1.0, seed))


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
    n up to MAX_NODES."""
    # count from the end, where row n - 2 - q holds q + 1 pairs: the square
    # root of 8t + 1 then suffers no cancellation and is off by at most one
    t = n * (n - 1) // 2 - 1 - index
    q = np.floor((np.sqrt(8.0 * t + 1.0) - 1.0) / 2.0).astype(np.int64)
    q = np.where(q * (q + 1) // 2 > t, q - 1, q)
    q = np.where((q + 1) * (q + 2) // 2 <= t, q + 1, q)
    return n - 2 - q, n - 1 - (t - q * (q + 1) // 2)


def write_truth_labels(path, labels) -> None:
    labels = np.asarray(labels, dtype=bool)
    flat = np.column_stack([np.arange(labels.size), labels]).ravel().tolist()
    # one %-format over every row: faster here than a per-row f-string
    _write_rows(path, "node_id,is_core\n", [("%d,%d\n" * labels.size) % tuple(flat)])


def _write_rows(path, header: str, rows) -> None:
    """The one CSV/TSV dialect: UTF-8, LF line ends, a header line, then the joined rows."""
    with open(path, "wt", encoding="utf-8", newline="\n") as fh:
        fh.write(header)
        fh.write("".join(rows))
