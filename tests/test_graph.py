import io
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corex.errors import DomainError, ParseError, RangeError, ValidationError
from corex.graph import (MAX_NODES, ProbabilityMatrix, SparseGraph, _triangle_pairs,
                         average_density, degrees, load_edge_list, sample_adjacency,
                         write_edge_list, write_truth_labels)

_ID = re.compile(r"-?[0-9]+")


def reference_load(text: str):
    """Line-by-line reference for load_edge_list's dialect.

    Returns (n, sorted list of (i, j) with i < j) or raises the error of
    the first bad line.  A CR right before an LF ends the line with it.
    """
    declared_n = None
    first_data_line = True
    edges = set()
    max_id = -1
    pieces = text.split("\n")
    for lineno, raw in enumerate(pieces, start=1):
        if lineno < len(pieces):
            raw = raw.removesuffix("\r")
        line = raw.strip(" \t")
        if not line or line.startswith("#"):
            continue
        tokens = re.split(r"[ \t]+", line)
        if first_data_line and tokens[0] == "n":
            first_data_line = False
            if len(tokens) != 2:
                raise ParseError("header must be 'n <count>'", lineno)
            if not _ID.fullmatch(tokens[1]):
                raise ParseError(f"bad node count {tokens[1]!r}", lineno)
            if tokens[1].startswith("-"):
                raise ParseError("declared node count must be nonnegative", lineno)
            declared_n = int(tokens[1])
            continue
        first_data_line = False
        if len(tokens) != 2:
            raise ParseError(f"expected two node ids, got {len(tokens)} tokens", lineno)
        if not all(_ID.fullmatch(t) for t in tokens):
            raise ParseError(f"non-integer node id in {line!r}", lineno)
        if any(t.startswith("-") for t in tokens):
            raise ParseError("node ids must be nonnegative", lineno)
        i, j = int(tokens[0]), int(tokens[1])
        if i == j:
            raise ValidationError(f"line {lineno}: self-loop {i}-{j}")
        if declared_n is not None and max(i, j) >= declared_n:
            raise RangeError(f"line {lineno}: node id {max(i, j)} >= declared n={declared_n}")
        if max(i, j) >= 2 ** 63:
            raise RangeError(f"line {lineno}: node id {max(i, j)} does not fit in 64 bits")
        edges.add((min(i, j), max(i, j)))
        max_id = max(max_id, i, j)
    return (declared_n if declared_n is not None else max_id + 1), sorted(edges)


def outcome(parse):
    """(n, edges) of a successful parse, or (class, message, line number)."""
    try:
        result = parse()
    except ValidationError as exc:  # RangeError included
        return type(exc), str(exc), None
    except ParseError as exc:
        return type(exc), str(exc), exc.line_number
    if isinstance(result, SparseGraph):
        return result.n, [tuple(e) for e in result.edge_array().tolist()]
    return result


def check_invariants(g):
    for i, nbrs in enumerate(g.adjacency):
        assert i not in nbrs
        assert np.all(np.diff(nbrs) > 0) if len(nbrs) > 1 else True
        for j in nbrs:
            assert i in g.adjacency[j]


class TestLoadEdgeList:
    def test_basic(self):
        g = load_edge_list(io.StringIO("0 1\n1 2\n"))
        assert g.n == 3 and g.m == 2
        assert list(g.adjacency[1]) == [0, 2]
        check_invariants(g)

    def test_reversed_duplicate_merged(self):
        g = load_edge_list(["0 1", "1 0"])
        assert g.m == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError):
            load_edge_list(["3 3"])

    def test_header_preserves_isolated_nodes(self):
        g = load_edge_list(["n 5", "0 1"])
        assert g.n == 5 and g.m == 1

    def test_header_range_check(self):
        with pytest.raises(RangeError):
            load_edge_list(["n 3", "0 3"])

    def test_comments_and_blank_lines(self):
        g = load_edge_list(["# a comment", "", "0 1", "# another", "1 2"])
        assert g.m == 2
        g = load_edge_list(b"# a comment\n0 1\n\t# tabbed\n1 2\n# last, no newline")
        assert g.n == 3 and g.edge_array().tolist() == [[0, 1], [1, 2]]

    def test_malformed_line_reports_number(self):
        with pytest.raises(ParseError) as exc:
            load_edge_list(["0 1", "0 1 2"])
        assert exc.value.line_number == 2

    def test_non_integer_id(self):
        with pytest.raises(ParseError):
            load_edge_list(["0 x"])

    def test_tabs_accepted(self):
        g = load_edge_list(["0\t1"])
        assert g.m == 1

    def test_round_trip(self, tmp_path):
        g = load_edge_list(["n 6", "0 1", "2 3", "1 4"])
        path = tmp_path / "edges.tsv"
        write_edge_list(g, path)
        g2 = load_edge_list(path)
        assert g2.n == g.n and g2.m == g.m
        for a, b in zip(g.adjacency, g2.adjacency):
            assert np.array_equal(a, b)

    def test_peak_memory_below_64_bytes_per_edge(self, tmp_path):
        # 4x the 16 m bytes of the int64 pairs: the text stays bytes until numpy
        # parses it and is released before the CSR is built (kept small, as
        # tracing slows the parse)
        rng = np.random.default_rng(0)
        pairs = rng.integers(0, 2000, size=(20_000, 2))
        path = tmp_path / "edges.tsv"
        write_edge_list(SparseGraph.from_pairs(2000, pairs[pairs[:, 0] != pairs[:, 1]]), path)
        tracemalloc.start()
        try:
            g = load_edge_list(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.m > 19_000
        assert peak < 64 * g.m

    def test_text_held_once_after_a_header(self, tmp_path):
        # ids at a fixed width of 16 digits make the text 34 bytes per edge, more
        # than the pairs; the header is checked in place, not split off a copy of
        # the body, so the text is joined only by the transient buffer of the
        # translate that checks its bytes (68 bytes per edge, against 102 with
        # the copy)
        rng = np.random.default_rng(0)
        pairs = rng.integers(0, 2000, size=(20_000, 2))
        g = SparseGraph.from_pairs(2000, pairs[pairs[:, 0] != pairs[:, 1]])
        path = tmp_path / "edges.tsv"
        path.write_text(f"n {g.n}\n" + "".join(f"{i:016d}\t{j:016d}\n" for i, j in g.edge_array()))
        tracemalloc.start()
        try:
            loaded = load_edge_list(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.m == g.m
        assert peak < 80 * g.m


# lines that the dialect rejects, one kind of fault each ({n} is the node count)
FAULT_LINES = [
    "0 1 2",          # three tokens
    "5",              # one token
    "0 x",            # non-integer token
    "+3 1",           # sign prefix
    "1_0 2",          # digit separator
    "\u0663 1",       # non-ASCII digit
    "0\xa01",         # non-ASCII blank
    "0 1 # note",     # comment after data
    "-1 2",           # negative id
    "3 3",            # self-loop
    "0 {n}",          # id >= declared n (a plain edge without a header)
    "0 1\r",          # CR inside a line when lines end in CRLF
    "n 4",            # a second header is a data line
]
BAD_HEADERS = ["n", "n 4 5", "n x", "n -2", "n +4", "n 4\xa0", "n\xa04"]
BLANK_LINES = ["", " ", "\t", "# comment", "  # n 3", "#\t0 1", "\t# tabbed"]


@st.composite
def edge_files(draw, faults=True):
    """Edge-list text with comments, blank lines, mixed separators, leading
    zeros, an optional header after comments, LF or CRLF line ends, and
    (when `faults`) at most one injected bad line or bad header."""
    n = draw(st.integers(2, 12))
    pad = st.sampled_from(["", " ", "\t"])
    sep = st.sampled_from([" ", "\t", "  ", " \t "])
    lines = draw(st.lists(st.sampled_from(BLANK_LINES), max_size=3))
    header = draw(st.booleans())
    if header:
        bad = faults and draw(st.booleans()) and draw(st.sampled_from(BAD_HEADERS))
        lines.append(bad or f"{draw(pad)}n{draw(sep)}{n}{draw(pad)}")
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 3)):
            i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            zeros = draw(st.sampled_from(["", "0", "00"]))
            lines.append(f"{draw(pad)}{zeros}{i}{draw(sep)}{j}{draw(pad)}")
        else:
            lines.append(draw(st.sampled_from(BLANK_LINES)))
    if faults and draw(st.booleans()):
        fault = draw(st.sampled_from(FAULT_LINES)).format(n=n)
        lines.insert(draw(st.integers(0, len(lines))), fault)
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


class TestBulkParserAgainstReference:
    @settings(max_examples=300)
    @given(text=edge_files())
    def test_same_graph_or_same_error(self, text):
        expected = outcome(lambda: reference_load(text))
        assert outcome(lambda: load_edge_list(text.encode("utf-8"))) == expected

    @settings(max_examples=40)
    @given(text=edge_files())
    def test_path_source(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("edges") / "edges.tsv"
        path.write_bytes(text.encode("utf-8"))
        assert outcome(lambda: load_edge_list(path)) == outcome(lambda: reference_load(text))

    @settings(max_examples=100)
    @given(text=edge_files(faults=False))
    def test_parse_write_parse_round_trip(self, tmp_path_factory, text):
        g = load_edge_list(text.encode("utf-8"))
        path = tmp_path_factory.mktemp("round") / "edges.tsv"
        write_edge_list(g, path)
        n, edges = reference_load(text)
        assert path.read_bytes() == ("".join([f"n {n}\n"] + [f"{i}\t{j}\n" for i, j in edges])
                                     .encode("ascii"))
        g2 = load_edge_list(path)
        assert g2.n == g.n
        assert np.array_equal(g2.indptr, g.indptr)
        assert np.array_equal(g2.indices, g.indices)

    def test_each_fault_line_matches_reference(self):
        for fault in FAULT_LINES + BAD_HEADERS:
            for text in (f"# c\nn 9\n0 1\n{fault}\n2 3\n", f"{fault}\r\n0 1\r\n"):
                text = text.format(n=9)
                assert (outcome(lambda: load_edge_list(text.encode("utf-8")))
                        == outcome(lambda: reference_load(text))), text

    def test_first_bad_line_wins(self):
        text = "n 5\n0 1\n2 2\n0 x\n"
        with pytest.raises(ValidationError, match="line 3: self-loop 2-2"):
            load_edge_list(text.encode("utf-8"))

    def test_crlf_header_after_comments(self):
        g = load_edge_list(b"# made by hand\r\n\r\nn 4\r\n0 1\r\n2\t1\r\n")
        assert g.n == 4 and g.edge_array().tolist() == [[0, 1], [1, 2]]

    def test_sources_agree(self, tmp_path):
        text = "# c\nn 6\n0 1\n4 2\n"
        path = tmp_path / "e.tsv"
        path.write_text(text)
        graphs = [load_edge_list(path), load_edge_list(str(path)), load_edge_list(text.encode()),
                  load_edge_list(io.StringIO(text)), load_edge_list(io.BytesIO(text.encode())),
                  load_edge_list(text.splitlines()), load_edge_list(text.splitlines(keepends=True))]
        for g in graphs:
            assert g.n == 6 and g.edge_array().tolist() == [[0, 1], [2, 4]]


class TestFromPairs:
    @settings(max_examples=200)
    @given(data=st.data())
    def test_invariants_and_order_independence(self, data):
        n = data.draw(st.integers(2, 25))
        pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
        pairs = [tuple(p) for p in data.draw(st.lists(pair, max_size=60))]
        g = SparseGraph.from_pairs(n, pairs)
        for i, row in enumerate(g.adjacency):
            assert np.all(np.diff(row) > 0) and i not in row
        dense = g.to_csr().toarray()
        assert np.array_equal(dense, dense.T)
        expected = sorted({(min(p), max(p)) for p in pairs})
        assert g.m == len(expected)
        assert degrees(g).sum() == 2 * g.m
        assert [tuple(e) for e in g.edge_array().tolist()] == expected
        # shuffled, partly reversed and partly repeated, as an ndarray
        shuffled = data.draw(st.permutations(pairs))
        flips = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        variant = [(j, i) if f else (i, j) for (i, j), f in zip(shuffled, flips)]
        variant += data.draw(st.lists(st.sampled_from(pairs), max_size=10)) if pairs else []
        g2 = SparseGraph.from_pairs(n, np.array(variant, dtype=np.int64).reshape(-1, 2))
        assert np.array_equal(g2.indptr, g.indptr)
        assert np.array_equal(g2.indices, g.indices)

    def test_accepts_generators(self):
        g = SparseGraph.from_pairs(4, ((i, i + 1) for i in range(3)))
        assert g.edge_array().tolist() == [[0, 1], [1, 2], [2, 3]]

    def test_rejects_bad_pairs(self):
        with pytest.raises(RangeError):
            SparseGraph.from_pairs(3, [(0, 3)])
        with pytest.raises(ValidationError):
            SparseGraph.from_pairs(3, np.array([[1, 1]]))

    def test_refuses_node_counts_beyond_int64_keys(self):
        # the largest pair key (n - 1) * n + (n - 2) must fit in int64; these
        # counts are refused before anything of size n is allocated
        assert MAX_NODES ** 2 < 2 ** 63 < (MAX_NODES + 1) ** 2
        for n in (MAX_NODES + 1, 2 ** 63 - 1, 10 ** 20):
            with pytest.raises(RangeError, match=f"node count {n} is above {MAX_NODES}"):
                SparseGraph.from_pairs(n, [(0, 1)])

    def test_arrays_are_read_only(self):
        g = SparseGraph.from_pairs(3, [(0, 1)])
        with pytest.raises(ValueError):
            g.indices[0] = 2
        with pytest.raises(ValueError):
            g.adjacency[0][0] = 2

    def test_to_csr_adopts_the_graph_arrays(self):
        # one copy of the edges: scipy's index arrays are the graph's own
        g = SparseGraph.from_pairs(5, [(0, 1), (3, 1), (4, 2), (1, 4)])
        a = g.to_csr()
        assert np.shares_memory(a.indices, g.indices) and np.shares_memory(a.indptr, g.indptr)
        for arr in (g.indptr, g.indices, a.indptr, a.indices):
            assert arr.dtype == np.int32 and not arr.flags.writeable
        assert a.data.dtype == np.float64 and a.nnz == 2 * g.m

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_no_edges(self, n):
        for pairs in ([], np.empty((0, 2), dtype=np.int64)):
            g = SparseGraph.from_pairs(n, pairs)
            assert g.m == 0 and g.indices.size == 0 and g.indptr.tolist() == [0] * (n + 1)
            assert g.to_csr().shape == (n, n) and g.to_csr().nnz == 0
            assert g.edge_array().shape == (0, 2) and degrees(g).tolist() == [0] * n

    def test_pair_keys_beyond_int32(self, tmp_path):
        # at n = 50,000 > 46,341 the key i * n + j of a late pair passes 2**31,
        # while the CSR arrays stay int32
        n = 50_000
        pairs = [(49_998, 49_999), (49_999, 0), (12_345, 46_341), (49_998, 49_999)]
        g = SparseGraph.from_pairs(n, pairs)
        assert g.indices.dtype == g.indptr.dtype == np.int32
        edges = g.edge_array()
        assert edges.dtype == np.int64
        assert edges.tolist() == [[0, 49_999], [12_345, 46_341], [49_998, 49_999]]
        path = tmp_path / "edges.tsv"
        write_edge_list(g, path)
        assert path.read_text().endswith("\n49998\t49999\n")
        g2 = load_edge_list(path)
        assert g2.n == n and g2.edge_array().tolist() == edges.tolist()


@st.composite
def small_graphs(draw):
    """A graph on 3..20 nodes with at least two edges at one node."""
    n = draw(st.integers(3, 20))
    pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    a, b, c = draw(st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True))
    return SparseGraph.from_pairs(n, draw(st.lists(pair, max_size=40)) + [[a, b], [a, c]])


class TestValidatingConstructor:
    @pytest.mark.parametrize("n, adjacency, error, message", [
        (2, [[1], [2]], RangeError, "neighbor id out of range for node 1"),
        (2, [[-1], []], RangeError, "neighbor id out of range for node 0"),
        (2, [[0, 1], [0]], ValidationError, "self-loop at node 0"),
        (3, [[2, 1], [0], [0]], ValidationError, "neighbors of node 0 not sorted/unique"),
        (2, [[1], [0, 0]], ValidationError, "neighbors of node 1 not sorted/unique"),
        (3, [[1], [0, 2], []], ValidationError, "edge (1,2) not symmetric"),
        (2, [[1]], ValidationError, "adjacency list count does not match n"),
        (-1, [], ValidationError, "node count must be nonnegative"),
    ])
    def test_errors(self, n, adjacency, error, message):
        with pytest.raises(error) as exc:
            SparseGraph(n, adjacency)
        assert str(exc.value) == message

    def test_accepts_valid_lists(self):
        g = SparseGraph(4, [[1, 3], [0], [], [0]])
        assert g.m == 2 and g.edge_array().tolist() == [[0, 1], [0, 3]]

    @settings(max_examples=150)
    @given(g=small_graphs(), as_lists=st.booleans())
    def test_rebuilds_every_graph(self, g, as_lists):
        adjacency = [row.tolist() for row in g.adjacency] if as_lists else g.adjacency
        rebuilt = SparseGraph(g.n, adjacency)
        assert (rebuilt.n, rebuilt.m) == (g.n, g.m)
        assert np.array_equal(rebuilt.indptr, g.indptr)
        assert np.array_equal(rebuilt.indices, g.indices)
        assert not rebuilt.indices.flags.writeable

    @settings(max_examples=300)
    @given(g=small_graphs(), edit=st.sampled_from(["drop", "duplicate", "swap", "remove-mirror",
                                                   "unmirrored", "out-of-range", "self-loop"]),
           data=st.data())
    def test_every_single_edit_is_refused(self, g, edit, data):
        """One edit of canonical lists: drop a neighbour, repeat one, swap two
        in a row, remove the mirror of an edge from its higher row, add a
        neighbour without its mirror, add an id outside 0..n-1, or add a
        self-loop."""
        rows = [row.tolist() for row in g.adjacency]
        i = data.draw(st.sampled_from([v for v, row in enumerate(rows) if len(row) >= 2]))
        row, error = rows[i], ValidationError
        k = data.draw(st.integers(0, len(row) - 1))
        if edit == "drop":
            del row[k]
        elif edit == "duplicate":
            row.insert(k, row[k])
        elif edit == "swap":
            row[k], row[k - 1] = row[k - 1], row[k]
        elif edit == "remove-mirror":
            i, j = (int(v) for v in data.draw(st.sampled_from(g.edge_array().tolist())))
            rows[j].remove(i)
        elif edit == "unmirrored":
            missing = sorted(set(range(g.n)) - set(row) - {i})
            assume(missing)
            row.append(data.draw(st.sampled_from(missing)))
            row.sort()
        elif edit == "out-of-range":
            error = RangeError
            row.insert(*data.draw(st.sampled_from([(0, -1), (len(row), g.n)])))
        else:
            row.append(i)
            row.sort()
        with pytest.raises(ValidationError) as exc:
            SparseGraph(g.n, rows)
        assert type(exc.value) is error

    def test_validation_at_200k_edges(self):
        rng = np.random.default_rng(0)
        n = 20_000
        pairs = rng.integers(0, n, size=(205_000, 2))
        g = SparseGraph.from_pairs(n, pairs[pairs[:, 0] != pairs[:, 1]])
        assert g.m >= 200_000
        adjacency = g.adjacency
        t0 = time.perf_counter()
        rebuilt = SparseGraph(n, adjacency)
        elapsed = time.perf_counter() - t0
        assert np.array_equal(rebuilt.indices, g.indices)
        # from_pairs and one comparison take about 0.045 s on a 2-core machine;
        # a per-edge membership scan of the lists took over 2 s on the same machine
        assert elapsed < 0.5, f"validation took {elapsed:.2f} s"
        v = int(np.argmax(degrees(g)))
        u = int(adjacency[v][-1])
        broken = list(adjacency)
        broken[v] = adjacency[v][:-1]
        with pytest.raises(ValidationError, match=rf"edge \({u},{v}\) not symmetric"):
            SparseGraph(n, broken)


class TestDegreesAndDensity:
    def test_triangle(self):
        g = load_edge_list(["0 1", "1 2", "0 2"])
        assert list(degrees(g)) == [2, 2, 2]
        assert average_density(g) == 1.0

    def test_single_edge_three_nodes(self):
        g = load_edge_list(["n 3", "0 1"])
        assert list(degrees(g)) == [1, 1, 0]

    def test_star(self):
        g = load_edge_list(["0 1", "0 2", "0 3"])
        assert list(degrees(g)) == [3, 1, 1, 1]

    def test_degree_sum_is_twice_edges(self):
        g = load_edge_list(["0 1", "1 2", "2 3", "3 0", "0 2"])
        assert degrees(g).sum() == 2 * g.m

    def test_empty_graph_density(self):
        g = SparseGraph.from_pairs(10, [])
        assert average_density(g) == 0.0

    def test_half_density(self):
        g = load_edge_list(["0 1", "1 2", "2 3"])
        assert average_density(g) == pytest.approx(0.5, abs=0)

    def test_density_needs_two_nodes(self):
        with pytest.raises(DomainError):
            average_density(SparseGraph.from_pairs(1, []))


class TestProbabilityMatrix:
    def test_validates_symmetry(self):
        bad = np.array([[0.0, 0.2], [0.3, 0.0]])
        with pytest.raises(ValidationError):
            ProbabilityMatrix(bad)

    def test_validates_diagonal(self):
        bad = np.array([[0.1, 0.2], [0.2, 0.0]])
        with pytest.raises(ValidationError):
            ProbabilityMatrix(bad)

    def test_validates_range(self):
        bad = np.array([[0.0, 1.2], [1.2, 0.0]])
        with pytest.raises(ValidationError):
            ProbabilityMatrix(bad)


class TestSampleAdjacency:
    def test_zero_matrix_gives_empty_graph(self):
        p = ProbabilityMatrix(np.zeros((6, 6)))
        g = sample_adjacency(p, seed=0)
        assert g.m == 0

    def test_ones_matrix_gives_complete_graph(self):
        entries = np.ones((5, 5))
        np.fill_diagonal(entries, 0.0)
        g = sample_adjacency(ProbabilityMatrix(entries), seed=0)
        assert g.m == 10
        check_invariants(g)

    def test_density_concentrates(self):
        # binomial oracle: m ~ Bin(N, 0.3) with N = 500*499/2 pairs
        n, p = 500, 0.3
        entries = np.full((n, n), p)
        np.fill_diagonal(entries, 0.0)
        g = sample_adjacency(ProbabilityMatrix(entries), seed=42)
        n_pairs = n * (n - 1) // 2
        sd = np.sqrt(p * (1 - p) / n_pairs)
        assert abs(average_density(g) - p) < 4 * sd

    def test_deterministic_given_seed(self):
        entries = np.full((40, 40), 0.2)
        np.fill_diagonal(entries, 0.0)
        p = ProbabilityMatrix(entries)
        g1 = sample_adjacency(p, seed=7)
        g2 = sample_adjacency(p, seed=7)
        assert g1.m == g2.m
        for a, b in zip(g1.adjacency, g2.adjacency):
            assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        entries = np.full((30, 30), 0.5)
        np.fill_diagonal(entries, 0.0)
        p = ProbabilityMatrix(entries)
        for s in range(5):
            g1 = sample_adjacency(p, seed=2 * s)
            g2 = sample_adjacency(p, seed=2 * s + 1)
            assert any(not np.array_equal(a, b)
                       for a, b in zip(g1.adjacency, g2.adjacency))

    def test_invariants_hold_on_samples(self):
        rng = np.random.default_rng(3)
        raw = rng.random((25, 25)) * 0.6
        entries = (raw + raw.T) / 2
        np.fill_diagonal(entries, 0.0)
        g = sample_adjacency(ProbabilityMatrix(entries), seed=11)
        check_invariants(g)

    def test_matches_single_stream_reference(self):
        # one stream runs over the row-major upper triangle, and pair k is an
        # edge when the stream's k-th uniform falls below its probability
        rng = np.random.default_rng(6)
        raw = rng.random((40, 40)) * 0.4
        entries = (raw + raw.T) / 2
        np.fill_diagonal(entries, 0.0)
        i, j = np.triu_indices(40, 1)
        stream = np.random.default_rng(np.random.SeedSequence(entropy=21, spawn_key=(0xE0,)))
        keep = stream.random(i.size) < entries[i, j]
        g = sample_adjacency(ProbabilityMatrix(entries), seed=21)
        assert g.edge_array().tolist() == np.column_stack([i[keep], j[keep]]).tolist()

    @pytest.mark.parametrize("block", [1, 82, 150, 600, 2**18],
                             ids=["1-row", "2-rows", "3-rows", "14-rows", "whole"])
    def test_independent_of_block_size(self, monkeypatch, block):
        rng = np.random.default_rng(9)
        raw = rng.random((41, 41)) * 0.5
        entries = (raw + raw.T) / 2
        np.fill_diagonal(entries, 0.0)
        p = ProbabilityMatrix(entries)
        whole = sample_adjacency(p, seed=4)
        monkeypatch.setattr("corex.graph._ROW_BLOCK", block)
        g = sample_adjacency(p, seed=4)
        assert np.array_equal(g.indptr, whole.indptr)
        assert np.array_equal(g.indices, whole.indices)

    def test_expected_degrees(self):
        # mean observed degree over replicates approaches the row sums
        rng = np.random.default_rng(5)
        raw = rng.random((50, 50)) * 0.5
        entries = (raw + raw.T) / 2
        np.fill_diagonal(entries, 0.0)
        p = ProbabilityMatrix(entries)
        expected = p.expected_degrees()
        reps = 200
        acc = np.zeros(50)
        for s in range(reps):
            acc += degrees(sample_adjacency(p, seed=1000 + s))
        mean = acc / reps
        # per-node variance of the degree is sum p(1-p) over the row
        var = (entries * (1 - entries)).sum(axis=1)
        se = np.sqrt(var / reps)
        assert np.all(np.abs(mean - expected) < 5 * se + 1e-12)


class TestTruthLabels:
    def test_file_format(self, tmp_path):
        labels = np.array([False, True, True, False] * 3)
        path = tmp_path / "truth.csv"
        write_truth_labels(path, labels)
        expected = "node_id,is_core\n" + "".join(f"{i},{int(f)}\n" for i, f in enumerate(labels))
        assert path.read_bytes() == expected.encode("ascii")


class TestTrianglePairs:
    @settings(max_examples=80)
    @given(st.integers(2, 120))
    def test_every_index_matches_triu_indices(self, n):
        i, j = _triangle_pairs(n, np.arange(n * (n - 1) // 2))
        iu, ju = np.triu_indices(n, k=1)
        assert np.array_equal(i, iu) and np.array_equal(j, ju)

    @settings(max_examples=300)
    @given(st.one_of(st.integers(90_000, 110_000), st.integers(10 ** 9, MAX_NODES)),
           st.data())
    def test_large_n_near_row_starts_and_the_end(self, n, data):
        # exact integer inverse: index = row_start(i) + (j - i - 1), i < j < n.
        # From n near 5e8 the float square root overshoots by one row next to
        # many row ends, and the guard steps it back; a square root taken
        # without counting from the end is many rows off near N at n = 1e9
        n_pairs = n * (n - 1) // 2

        def row_start(i):
            return i * (2 * n - i - 1) // 2

        row = data.draw(st.integers(0, n - 2))
        near_end = data.draw(st.lists(st.integers(0, 2 * n), min_size=1, max_size=20))
        index = [row_start(row), row_start(row + 1) - 1, max(row_start(row) - 1, 0)]
        index += [n_pairs - 1 - k for k in near_end]
        i, j = _triangle_pairs(n, np.array(index, dtype=np.int64))
        for k, a, b in zip(index, i.tolist(), j.tolist()):
            assert 0 <= a < b < n
            assert row_start(a) + (b - a - 1) == k

    def test_last_pair_at_n_1e5(self):
        n = 100_000
        i, j = _triangle_pairs(n, np.array([n * (n - 1) // 2 - 1, 0]))
        assert i.tolist() == [n - 2, 0] and j.tolist() == [n - 1, 1]
