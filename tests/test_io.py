import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from curvemedian import (
    ConfusionMatrix,
    CurvePanel,
    DataFormatError,
    UsageError,
    WeightedGraph,
    compute_emst,
    extract_templates,
    fmt,
    pairwise_euclidean_matrix,
    read_classifier_config,
    read_cloud,
    read_edges,
    read_json,
    read_matrix,
    read_panel,
    read_points_auto,
    read_shifts,
    write_cloud,
    write_confusion,
    write_edges,
    write_json,
    write_matrix,
    write_panel,
    write_predictions,
    write_shifts,
    write_warp_params,
)
from curvemedian import panel_io

NASTY = [1e-300, 1.0 / 3.0, -0.0, 0.1, 1e300, -7.25, math.pi]


def test_fmt_round_trips_nasty_floats():
    for x in NASTY:
        assert float(fmt(x)) == x
    # negative zero keeps its sign bit
    assert math.copysign(1.0, float(fmt(-0.0))) == -1.0


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_fmt_round_trips_all_finite_floats(x):
    assert float(fmt(x)) == x


def test_panel_round_trip(tmp_path):
    panel = CurvePanel(
        np.array([0.0, 1.0 / 3.0, 1e3]),
        np.array([NASTY[:3], NASTY[3:6]]),
        labels=["a", "b"],
    )
    path = tmp_path / "panel.csv"
    write_panel(path, panel)
    back = read_panel(path)
    assert np.array_equal(back.grid, panel.grid)
    assert np.array_equal(back.values, panel.values)
    assert back.labels == ["a", "b"]


def test_panel_without_labels_round_trips_to_none(tmp_path):
    panel = CurvePanel(np.array([0.0, 1.0]), np.array([[1.0, 2.0]]))
    path = tmp_path / "panel.csv"
    write_panel(path, panel)
    assert read_panel(path).labels is None


def test_panel_rewrite_is_byte_identical(tmp_path):
    rng = np.random.default_rng(8)
    panel = CurvePanel(np.sort(rng.normal(size=20)), rng.normal(size=(5, 20)), labels=list("abcde"))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_panel(p1, panel)
    write_panel(p2, read_panel(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_cloud_round_trip(tmp_path):
    rng = np.random.default_rng(15)
    cloud = rng.normal(size=(7, 3)) * 1e-200
    path = tmp_path / "cloud.csv"
    write_cloud(path, cloud)
    assert np.array_equal(read_cloud(path), cloud)
    header = path.read_text().splitlines()[0]
    assert header == "x1,x2,x3"


def test_points_auto_dispatch(tmp_path):
    panel = CurvePanel(np.array([0.0, 1.0]), np.array([[1.0, 2.0]]))
    ppath = tmp_path / "panel.csv"
    write_panel(ppath, panel)
    kind, payload = read_points_auto(ppath)
    assert kind == "panel" and isinstance(payload, CurvePanel)

    cpath = tmp_path / "cloud.csv"
    write_cloud(cpath, np.zeros((2, 2)))
    kind, payload = read_points_auto(cpath)
    assert kind == "cloud" and isinstance(payload, np.ndarray)


def test_matrix_round_trip(tmp_path):
    m = np.array([[0.0, 1e-300], [1.0 / 3.0, -0.0]])
    path = tmp_path / "m.csv"
    write_matrix(path, m)
    assert np.array_equal(read_matrix(path), m)


def test_edges_round_trip(tmp_path):
    g = compute_emst(pairwise_euclidean_matrix(np.array([[0.0], [1.0], [3.0]])))
    path = tmp_path / "edges.csv"
    write_edges(path, g)
    back = read_edges(path, n=3)
    assert back.n == g.n and np.array_equal(back.edges, g.edges)
    assert path.read_text().splitlines()[0] == "i,j,weight"


def _csv_writer_reference(path, header, rows):
    """The csv.writer + fmt serialization every CSV writer keeps."""
    import csv

    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        if header is not None:
            w.writerow(header)
        for row in rows:
            w.writerow(row)


EDGE_CASE_FLOATS = [-0.0, 0.0, 5e-324, 1.7976931348623157e308, 2.0, -3.0, 1e16, 1.0 / 3.0, 1e-300]


def test_matrix_writer_bytes_match_csv_writer(tmp_path):
    m = np.array(EDGE_CASE_FLOATS).reshape(3, 3)
    path, ref = tmp_path / "m.csv", tmp_path / "ref.csv"
    for matrix in (m, m.tolist(), m[:, :1], np.zeros((2, 0))):
        write_matrix(path, matrix)
        rows = [[fmt(v) for v in row] for row in np.asarray(matrix, dtype=float)]
        _csv_writer_reference(ref, None, rows)
        assert path.read_bytes() == ref.read_bytes()
    write_matrix(path, m)
    assert path.read_bytes().startswith(b"-0,0,4.9406564584124654e-324\r\n")


# duplicates are common in a matrix drawn from this pool; it holds both
# zeros, the smallest subnormal and the extremes
MATRIX_POOL = [0.0, -0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 1.0 / 3.0]


@st.composite
def pooled_matrices(draw):
    """(matrix, the same matrix as the writer gets it): an array, a transposed
    or strided view, or nested lists."""
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    cells = draw(st.lists(st.sampled_from(MATRIX_POOL), min_size=rows * cols, max_size=rows * cols))
    m = np.array(cells, dtype=float).reshape(rows, cols)
    form = draw(st.sampled_from(["array", "transposed", "sliced", "lists"]))
    if form == "transposed":
        return m, np.ascontiguousarray(m.T).T
    if form == "sliced":
        big = np.ones((2 * rows + 1, 2 * cols + 1))
        big[1::2, 1::2] = m
        return m, big[1::2, 1::2]
    if form == "lists" and rows:  # no rows would read as a 1-D list
        return m, m.tolist()
    return m, m


@given(pooled_matrices())
@example((np.zeros((0, 0)), np.zeros((0, 0))))
@example((np.zeros((3, 0)), np.zeros((3, 0)).tolist()))
@example((np.array([[-0.0]]), [[-0.0]]))
def test_matrix_writer_bytes_match_per_cell_fmt(tmp_path_factory, drawn):
    m, matrix = drawn
    path = tmp_path_factory.mktemp("wm") / "m.csv"
    ref = path.with_name("ref.csv")
    write_matrix(path, matrix)
    _csv_writer_reference(ref, None, [[fmt(v) for v in row] for row in m])
    assert path.read_bytes() == ref.read_bytes()


def test_edge_writer_bytes_match_csv_writer(tmp_path):
    # a graph refuses negative weights, so -3.0 is formatted only by the
    # matrix writer above; -0.0 still passes as a weight
    weights = [w for w in EDGE_CASE_FLOATS if not w < 0] + [np.float64(0.25)]
    edges = [(np.int64(k), int(k + 1), w) for k, w in enumerate(weights)]
    with pytest.raises(UsageError, match="weights must be finite and nonnegative"):
        WeightedGraph(2, [(0, 1, -3.0)])
    path, ref = tmp_path / "e.csv", tmp_path / "ref.csv"
    write_edges(path, WeightedGraph(len(edges) + 1, edges))
    _csv_writer_reference(ref, ["i", "j", "weight"], [[i, j, fmt(w)] for i, j, w in edges])
    assert path.read_bytes() == ref.read_bytes()
    write_edges(path, WeightedGraph(3, []))
    assert path.read_bytes() == b"i,j,weight\r\n"


# floats at the edges of %.17g text: both zeros, the smallest subnormal and
# the extremes; and labels that csv.writer quotes, leaves empty or encodes
EDGE_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, 1.797e308, -1.797e308, 1.0 / 3.0])
FLOATS = st.one_of(EDGE_FLOATS, st.floats(allow_nan=False, allow_infinity=False))
LABELS = st.one_of(st.sampled_from([",", '"', "\n", "", "é", "-", 'a,"b"\r\nc']), st.text(max_size=4))


@st.composite
def panels(draw):
    """A panel of 1-4 curves on 2-5 grid points, labelled or not."""
    grid = sorted(draw(st.lists(FLOATS, min_size=2, max_size=5, unique=True)))
    n = draw(st.integers(1, 4))
    values = draw(st.lists(st.lists(FLOATS, min_size=len(grid), max_size=len(grid)), min_size=n, max_size=n))
    labels = draw(st.none() | st.lists(LABELS, min_size=n, max_size=n))
    return CurvePanel(np.array(grid), np.array(values), labels=labels)


@given(panels())
@example(CurvePanel(np.array([-1.797e308, 5e-324]), np.array([[-0.0, 1.797e308]]), labels=[""]))
@example(CurvePanel(np.array([0.0, 1.0]), np.array([[1.0, 2.0], [3.0, 4.0]]), labels=[",", '"\n']))
def test_panel_writer_bytes_match_csv_writer(tmp_path_factory, panel):
    path = tmp_path_factory.mktemp("wp") / "p.csv"
    ref = path.with_name("ref.csv")
    write_panel(path, panel)
    labels = panel.labels if panel.labels is not None else ["-"] * panel.n
    rows = [[label] + [fmt(v) for v in row] for label, row in zip(labels, panel.values)]
    _csv_writer_reference(ref, ["t"] + [fmt(t) for t in panel.grid], rows)
    assert path.read_bytes() == ref.read_bytes()


@given(st.integers(0, 4).flatmap(lambda p: st.lists(st.lists(FLOATS, min_size=p, max_size=p), max_size=4)))
@example([[5e-324]])
@example([[-0.0, 1.797e308], [-1.797e308, 0.0]])
def test_cloud_writer_bytes_match_csv_writer(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("wc") / "c.csv"
    ref = path.with_name("ref.csv")
    p = len(rows[0]) if rows else 2
    cloud = np.array(rows, dtype=float).reshape(len(rows), p)
    write_cloud(path, cloud)
    _csv_writer_reference(ref, [f"x{k + 1}" for k in range(p)], [[fmt(v) for v in row] for row in cloud])
    assert path.read_bytes() == ref.read_bytes()


@given(st.lists(FLOATS, max_size=5))
@example([-0.0, 5e-324, 1.797e308, -1.797e308])
def test_shift_writer_bytes_match_csv_writer(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("ws") / "out.csv"
    ref = path.with_name("ref.csv")
    write_shifts(path, np.array(values))
    _csv_writer_reference(ref, ["index", "shift"], [[i, fmt(v)] for i, v in enumerate(values)])
    assert path.read_bytes() == ref.read_bytes()


@given(
    st.integers(0, 4).flatmap(
        lambda n: st.dictionaries(LABELS, st.lists(FLOATS, min_size=n, max_size=n), min_size=1, max_size=3)
    )
)
@example({"amp": [-0.0, 5e-324], "scale": [1.797e308, -1.797e308], "a,b": [1.0, 2.0]})
def test_warp_params_writer_bytes_match_csv_writer(tmp_path_factory, params):
    path = tmp_path_factory.mktemp("ww") / "w.csv"
    ref = path.with_name("ref.csv")
    write_warp_params(path, params)
    keys = sorted(params)
    rows = [[i] + [fmt(params[k][i]) for k in keys] for i in range(len(params[keys[0]]))]
    _csv_writer_reference(ref, ["index"] + keys, rows)
    assert path.read_bytes() == ref.read_bytes()


# each writer checks its data before it opens the file
REFUSED_WRITES = {
    "shifts not 1-D": (write_shifts, ([[1.0, 2.0]],), "shifts must be 1-D, got 2-D"),
    "shift not a number": (write_shifts, (["a"],), "shifts must be an array of numbers"),
    "warp columns differ": (write_warp_params, ({"a": [1, 2], "b": [1]},), "one common length"),
    "no warp columns": (write_warp_params, ({},), "one common length"),
    "cloud nan": (write_cloud, ([[math.nan, 1.0]],), "a point cloud must be finite"),
    "shift -inf": (write_shifts, ([0.5, -math.inf],), "shifts must be finite"),
    "warp nan": (write_warp_params, ({"a": [1.0], "b": [math.nan]},), "warp parameter 'b' must be finite"),
}


@pytest.mark.parametrize("writer, args, message", REFUSED_WRITES.values(), ids=REFUSED_WRITES.keys())
def test_writer_refuses_bad_data_before_opening_the_file(tmp_path, writer, args, message):
    path = tmp_path / "out.csv"
    with pytest.raises(DataFormatError, match=message):
        writer(path, *args)
    assert not path.exists()


def test_edges_infer_vertex_count(tmp_path):
    path = tmp_path / "edges.csv"
    write_edges(path, WeightedGraph(4, [(0, 3, 2.0)]))
    assert read_edges(path).n == 4


def test_shifts_round_trip(tmp_path):
    shifts = np.array([0.1, -2.0, 1e-300])
    path = tmp_path / "shifts.csv"
    write_shifts(path, shifts)
    assert np.array_equal(read_shifts(path), shifts)
    assert path.read_text().splitlines()[0] == "index,shift"


@given(
    st.integers(1, 6).flatmap(
        lambda k: st.lists(
            st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=k, max_size=k),
            min_size=k,
            max_size=k,
        )
    )
)
def test_matrix_round_trip_property(tmp_path_factory, rows):
    m = np.array(rows, dtype=float)
    path = tmp_path_factory.mktemp("rt") / "m.csv"
    write_matrix(path, m)
    assert np.array_equal(read_matrix(path), m)


# ------------------------------------------------------------- error paths

def test_ragged_panel_names_offending_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,0.0,1.0\nrow1,1.0,2.0\nrow2,3.0\n")
    with pytest.raises(DataFormatError, match="row 3"):
        read_panel(path)


def test_non_numeric_cell_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,0.0,1.0\nrow1,1.0,banana\n")
    with pytest.raises(DataFormatError, match="banana"):
        read_panel(path)


def test_panel_header_required(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,0.0,1.0\nrow1,1.0,2.0\n")
    with pytest.raises(DataFormatError):
        read_panel(path)


def test_unsorted_grid_is_a_format_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,1.0,0.0\n-,1.0,2.0\n")
    with pytest.raises(DataFormatError):
        read_panel(path)


def test_missing_file_is_oserror(tmp_path):
    with pytest.raises(OSError):
        read_panel(tmp_path / "absent.csv")


@pytest.mark.parametrize(
    "matrix", [np.float64(1.5), [1.0, 2.0], np.zeros((2, 2, 2))], ids=["0-D", "1-D", "3-D"]
)
def test_matrix_writer_refuses_a_matrix_that_is_not_2d(tmp_path, matrix):
    path = tmp_path / "m.csv"
    with pytest.raises(DataFormatError, match="must be 2-D, got"):
        write_matrix(path, matrix)
    assert not path.exists()


def test_ragged_matrix_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.0,1.0\n2.0\n")
    with pytest.raises(DataFormatError, match="row 2"):
        read_matrix(path)


def test_edges_bad_index_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("i,j,weight\n0,zero,1.0\n")
    with pytest.raises(DataFormatError, match=r"bad\.csv: row 2: bad vertex index"):
        read_edges(path)


@pytest.mark.parametrize(
    "body, n, message",
    [
        ("0,1,1.0\n1,-1,2.0\n", None, r"edge \(1, -1\) is out of range for 2 vertices"),
        ("0,1,1.0\n0,2,1.0\n", 2, r"edge \(0, 2\) is out of range for 2 vertices"),
        ("0,1,1.0\n0,2,-0.5\n", None, r"edge \(0, 2\) has weight -0.5"),
        ("0,1,1.0\n", -1, "vertex count must be a nonnegative integer"),
    ],
)
def test_edges_reader_names_the_file_of_an_invalid_graph(tmp_path, body, n, message):
    path = tmp_path / "bad.csv"
    path.write_text("i,j,weight\n" + body)
    with pytest.raises(DataFormatError, match=rf"bad\.csv: {message}"):
        read_edges(path, n=n)


@pytest.mark.parametrize("text, shape", [("0.0,1.0\n1.0,0.0\n2.0,3.0\n", "3 x 2"), ("0.0,1.0,2.0\n", "1 x 3")])
def test_matrix_reader_refuses_a_non_square_file(tmp_path, text, shape):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(DataFormatError, match=rf"bad\.csv: expected a square matrix, got {shape}"):
        read_matrix(path)


# reader, then a header and one good row, a short row, a row with a bad token;
# the bad token is replaced by non-finite ones below
READERS = {
    "panel": (read_panel, "t,0.0,1.0\n-,1.0,2.0\n", "-,1.0\n", "-,1.0,banana\n"),
    "cloud": (read_cloud, "x1,x2\n1.0,2.0\n", "1.0\n", "1.0,banana\n"),
    "auto panel": (read_points_auto, "t,0.0,1.0\n-,1.0,2.0\n", "-,1.0\n", "-,1.0,banana\n"),
    "auto cloud": (read_points_auto, "x1,x2\n1.0,2.0\n", "1.0\n", "1.0,banana\n"),
    "shifts": (read_shifts, "index,shift\n0,0.5\n", "1\n", "1,banana\n"),
    "matrix": (read_matrix, "0.0,1.0\n1.0,0.0\n", "2.0\n", "2.0,banana\n"),
    "edges": (read_edges, "i,j,weight\n0,1,1.0\n", "1,2\n", "1,2,banana\n"),
}


@pytest.mark.parametrize("reader, head, short, bad", READERS.values(), ids=READERS.keys())
def test_every_reader_names_the_bad_row(tmp_path, reader, head, short, bad):
    path = tmp_path / "bad.csv"
    path.write_text(head + short)
    with pytest.raises(DataFormatError, match=r"bad\.csv: row 3: expected \d fields, got 1?\d"):
        reader(path)
    path.write_text(head + bad)
    with pytest.raises(DataFormatError, match=r"bad\.csv: row 3: cannot parse 'banana' as a number"):
        reader(path)
    for token in ("nan", "inf", "-Infinity", "1e999"):
        path.write_text(head + bad.replace("banana", token))
        with pytest.raises(DataFormatError, match=rf"bad\.csv: row 3: non-finite value '{token}'"):
            reader(path)


@pytest.mark.parametrize(
    "row, message", [("banana,nan", "cannot parse 'banana'"), ("nan,banana", "non-finite value 'nan'")]
)
def test_first_bad_token_of_a_row_is_reported(tmp_path, row, message):
    path = tmp_path / "bad.csv"
    path.write_text(f"x1,x2\n1.0,2.0\n{row}\n")
    with pytest.raises(DataFormatError, match=rf"bad\.csv: row 3: {message}"):
        read_cloud(path)


@pytest.mark.parametrize("reader", [read_panel, read_points_auto])
def test_panel_grid_must_be_finite(tmp_path, reader):
    path = tmp_path / "bad.csv"
    path.write_text("t,0.0,nan\n-,1.0,2.0\n")
    with pytest.raises(DataFormatError, match=r"bad\.csv: row 1: non-finite value 'nan'"):
        reader(path)


# ----------------------------- the numeric pass and the per-row parse

READ = {
    "panel": read_panel,
    "cloud": read_cloud,
    "auto": read_points_auto,
    "shifts": read_shifts,
    "matrix": read_matrix,
    "edges": read_edges,
}


def _outcome(reader, path):
    """What a reader made of a file: a panel's, array's or graph's bits,
    labels and shape, or its exception's type and message."""
    try:
        got = reader(path)
    except Exception as exc:  # any exception is an outcome to compare
        return type(exc), str(exc)
    kind, got = got if isinstance(got, tuple) else (None, got)
    if isinstance(got, CurvePanel):
        return kind, got.grid.tobytes(), got.values.tobytes(), got.values.shape, got.labels
    if isinstance(got, WeightedGraph):
        return kind, got.n, got.edges.tobytes(), got.edges.shape
    return kind, got.dtype, got.tobytes(), got.shape


def _same_as_per_row(path):
    """Each reader reads `path` as it does with csv.reader splitting every
    row and float() parsing every cell; returns the names of the readers
    whose numeric pass took the file."""
    numbers, took = panel_io._numbers, []

    def spy(texts, width):
        table = numbers(texts, width)
        took.append(table is not None)
        return table

    outcomes, names = {}, set()
    with mock.patch.object(panel_io, "_numbers", spy):
        for name, reader in READ.items():
            took.clear()
            outcomes[name] = _outcome(reader, path)
            if any(took):
                names.add(name)
    # a field size limit no line is within sends every file to csv.reader;
    # the C reader keeps its own limit
    with (
        mock.patch.object(panel_io, "_numbers", lambda texts, width: None),
        mock.patch.object(panel_io.csv, "field_size_limit", lambda: -1),
    ):
        assert outcomes == {name: _outcome(reader, path) for name, reader in READ.items()}
    return names


def _cells(text):
    r"""Where each cell of a file starts and ends: at the file's start, after
    each comma and after each \n, to the next comma, \r or \n."""
    starts = [0] + [i + 1 for i, c in enumerate(text) if c in ",\n"]
    return [(i, min([j for j in (text.find(c, i) for c in ",\r\n") if j >= 0], default=len(text))) for i in starts]


def _line_start(text, i):
    return text.rfind("\n", 0, i) + 1


# a change of a written file at the cell text[a:b]: a row, a cell or the
# line ends
MUTATIONS = {
    "blank line": lambda t, a, b: t[: _line_start(t, a)] + "\r\n" + t[_line_start(t, a) :],
    "short row": lambda t, a, b: t[: a - 1] + t[b:] if t[a - 1 : a] == "," else t[:a] + t[b + 1 :],
    "long row": lambda t, a, b: t[:b] + ",1" + t[b:],
    "\\n line ends": lambda t, a, b: t.replace("\r\n", "\n"),
    "bare \\r line ends": lambda t, a, b: t.replace("\r\n", "\r"),
    "one bare \\r": lambda t, a, b: t[:b] + "\r" + t[b:],
    **{
        f"cell {token!r}": lambda t, a, b, token=token: t[:a] + token + t[b:]
        for token in ("nan", "inf", "1_0", " 3 ", '"3"', "", "1e", "-", "+.5e-3", "１２", "1e-400", "1e400", "a,b", "\x1c3")
    },
}


def _changed(path, mutation, k):
    text = path.read_bytes().decode("utf-8")
    path.write_bytes(MUTATIONS[mutation](text, *_cells(text)[k]).encode("utf-8"))


# changes of a plain numeric cell that leave the file to the numeric pass
STAYS_PLAIN = {"\\n line ends", "cell '+.5e-3'", "cell '1e-400'"}
# the readers of each kind of written file
READERS_OF = {
    "panel": {"panel", "auto"},
    "cloud": {"cloud", "auto"},
    "shifts": {"shifts"},
    "matrix": {"matrix"},
    "edges": {"edges"},
}
WEIGHTS = st.one_of(EDGE_FLOATS.filter(lambda w: not w < 0), st.floats(0.0, allow_infinity=False))


def _written(tmp_path_factory, data):
    """A file of each kind a CSV writer writes, and its kind."""
    path = tmp_path_factory.mktemp("eq") / "f.csv"
    kind = data.draw(st.sampled_from(sorted(READERS_OF)), label="kind")

    def rows(n, p):
        return data.draw(st.lists(st.lists(FLOATS, min_size=p, max_size=p), min_size=n, max_size=n))

    if kind == "panel":
        write_panel(path, data.draw(panels()))
    elif kind == "cloud":
        write_cloud(path, np.array(rows(data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3)))))
    elif kind == "matrix":
        k = data.draw(st.integers(1, 4))
        write_matrix(path, np.array(rows(k, k)))
    elif kind == "shifts":
        write_shifts(path, np.array(data.draw(st.lists(FLOATS, min_size=1, max_size=4))))
    else:
        ij = data.draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=4))
        write_edges(path, WeightedGraph(5, [(i, j, data.draw(WEIGHTS)) for i, j in ij]))
    return path, kind


@given(st.data())
def test_numeric_pass_reads_every_written_file_as_the_row_reader(tmp_path_factory, data):
    path, kind = _written(tmp_path_factory, data)
    # quoted labels included, every written file takes it, in its own readers
    assert _same_as_per_row(path) == READERS_OF[kind]


@given(st.data(), st.sampled_from(sorted(MUTATIONS)))
def test_numeric_pass_reads_every_changed_file_as_the_row_reader(tmp_path_factory, data, mutation):
    path, _ = _written(tmp_path_factory, data)
    cells = len(_cells(path.read_bytes().decode("utf-8")))
    _changed(path, mutation, data.draw(st.integers(0, cells - 1), label="cell"))
    _same_as_per_row(path)


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_numeric_pass_and_row_reader_agree_on_each_change(tmp_path, mutation):
    # a plain panel, labels with a comma, a quote and a line break, a cloud,
    # a matrix, shifts and edges
    grid, values = [0.0, 0.5, 1.0], [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
    files = [
        (write_panel, CurvePanel(grid, values, labels=["a", "b"])),
        (write_panel, CurvePanel(grid, values, labels=["a,b", 'say "hi"\r\nbye'])),
        (write_cloud, np.ones((3, 2))),
        (write_matrix, np.full((3, 3), 0.5)),
        (write_shifts, np.array([0.5, 1.5, 2.5])),
        (write_edges, WeightedGraph(4, [(0, 1, 1.5), (1, 2, 0.5), (2, 3, 2.0)])),
    ]
    for quoted, (write, data) in zip((False, True, False, False, False, False), files):
        path = tmp_path / "f.csv"
        write(path, data)
        count = len(_cells(path.read_bytes().decode("utf-8")))
        # a cell of the middle row, the last row's last cell and, but in a
        # file whose header is fixed, the header's second cell: of the plain
        # files, a number each or a cell the reader does not read
        for k in (count // 2, count - 2) + ((1,) if write not in (write_shifts, write_edges) else ()):
            write(path, data)
            _changed(path, mutation, k)
            took = _same_as_per_row(path)
            assert took or quoted or mutation not in STAYS_PLAIN


# a file, and the readers whose numeric pass takes it
SMALL_FILES = {
    "crlf": ("t,0,1\r\na,1,2\r\n", {"panel", "auto"}),
    "lf": ("t,0,1\na,1,2\n", {"panel", "auto"}),
    "no last line end": ("t,0,1\na,1,2", {"panel", "auto"}),
    "last line end a bare cr": ("t,0,1\r\na,1,2\r", {"panel", "auto"}),
    "a quoted label": ('t,0,1\r\n"a,b",1,2\r\n', {"panel", "auto"}),
    "a quoted number": ('t,0,1\r\na,"1",2\r\n', {"panel", "auto"}),
    "a quoted comma between numbers": ('t,0,1\r\na,"1,2"\r\n', set()),
    "a panel header only": ("t,0,1\r\n", {"panel", "auto"}),
    "one-column cloud": ("x1\r\n1\r\n", {"cloud", "auto"}),
    "one-column cloud, a blank row only": ("x1\r\n\r\n", set()),
    "one-column cloud, a blank last row": ("x1\r\n1\r\n\r\n", set()),
    "header only": ("x1\r\n", set()),
    "empty": ("", set()),
    "a cell past csv's field size limit": ("t,0,1\r\n" + "a" * 131073 + ",1,2\r\n", set()),
    "a line at csv's field size limit": ("t,0,1\r\n" + "a" * 131068 + ",1,2\r\n", {"panel", "auto"}),
    "a matrix": ("0,1\r\n1,0\r\n", {"matrix"}),
    "a matrix, a blank first row": ("\r\n0,1\r\n1,0\r\n", set()),
    "shifts": ("index,shift\r\n0,0.5\r\nx,1\r\n", {"shifts"}),
    "shifts, no rows": ("index,shift\r\n", set()),
    "shifts, an empty shift": ("index,shift\r\n0,\r\n", set()),
    "edges": ("i,j,weight\r\n0,1,0.5\r\n", {"edges"}),
    "edges, a bad index": ("i,j,weight\r\n0,1,0.5\r\n1,x,2\r\n", {"edges"}),
    "edges, an empty weight": ("i,j,weight\r\n0,1,\r\n", set()),
    "edges, a bad index then a bad weight": ("i,j,weight\r\n1,x,2\r\n0,1,y\r\n", set()),
}


@pytest.mark.parametrize("text, took", SMALL_FILES.values(), ids=SMALL_FILES.keys())
def test_numeric_pass_takes_what_it_reads_as_the_row_reader(tmp_path, text, took):
    path = tmp_path / "f.csv"
    path.write_bytes(text.encode())
    assert _same_as_per_row(path) == took


BLANK_FIRST_ROW = {
    "panel": "row 1: expected a panel header starting with 't'",
    "cloud": "row 1: expected a cloud header starting with 'x1'",
    "auto": "row 1: unrecognized header ''; expected 't' or 'x1'",
    "shifts": "row 1: expected header 'index,shift'",
    "matrix": "row 1: expected at least one field, got 0",
    "edges": "row 1: expected header 'i,j,weight'",
}


@pytest.mark.parametrize("text", ["\r\n0,1\r\n1,0\r\n", "\nt,0,1\na,1,2\n", "\r\n", "\r"])
@pytest.mark.parametrize("name", sorted(BLANK_FIRST_ROW))
def test_a_blank_first_row_is_named(tmp_path, name, text):
    # read_points_auto once said "empty file", and read_matrix named the
    # first row of another width
    path = tmp_path / "bad.csv"
    path.write_bytes(text.encode())
    with pytest.raises(DataFormatError, match=rf"^{re.escape(str(path))}: {re.escape(BLANK_FIRST_ROW[name])}$"):
        READ[name](path)


@pytest.mark.parametrize(
    "body, message",
    [
        ("0,x,1.0\n0,1,y\n", "row 2: bad vertex index"),
        ("0,1,y\n0,x,1.0\n", "row 2: cannot parse 'y' as a number"),
        ("0,x,y\n", "row 2: cannot parse 'y' as a number"),
        ("0,x\n0,1,y\n", "row 2: expected 3 fields, got 2"),
        ("0,1,1.0\n0,x,1.0\n", "row 3: bad vertex index"),
    ],
)
def test_edges_reader_names_the_first_bad_row_in_file_order(tmp_path, body, message):
    path = tmp_path / "bad.csv"
    path.write_text("i,j,weight\n" + body)
    with pytest.raises(DataFormatError, match=rf"bad\.csv: {message}$"):
        read_edges(path)
    _same_as_per_row(path)


@pytest.mark.parametrize("name", sorted(READ))
def test_undecodable_byte_is_named_at_its_place_in_the_file(tmp_path, name):
    # the whole file is decoded at once, so the position counts from its start
    path = tmp_path / "bad.csv"
    head = b"x1\r\n" + b"1\r\n" * 5000
    path.write_bytes(head + b"\xff\r\n")
    with pytest.raises(DataFormatError, match=rf"unreadable CSV \(.* byte 0xff in position {len(head)}: "):
        READ[name](path)


# ---------------------------------------------------------- report writers

def test_confusion_header_layout(tmp_path):
    cm = ConfusionMatrix(labels=["a", "b"], counts=np.array([[3, 1], [0, 4]]))
    path = tmp_path / "confusion.csv"
    write_confusion(path, cm)
    lines = path.read_text().splitlines()
    assert lines[0] == "reference\\predicted,a,b"
    assert lines[1] == "a,3,1"
    assert lines[2] == "b,0,4"


def test_predictions_layout(tmp_path):
    path = tmp_path / "pred.csv"
    write_predictions(path, ["a", "b"], ["a", "a"])
    lines = path.read_text().splitlines()
    assert lines[0] == "index,reference,predicted"
    assert lines[1] == "0,a,a"
    assert lines[2] == "1,b,a"


def test_templates_written_as_labeled_panel(tmp_path):
    train = CurvePanel(
        np.array([0.0, 1.0]), np.array([[0.0, 0.0], [5.0, 5.0]]), labels=["lo", "hi"]
    )
    ts = extract_templates(train, "medoid")
    path = tmp_path / "templates.csv"
    write_panel(path, ts.train)
    back = read_panel(path)
    assert back.labels == ["hi", "lo"]
    # each template is the training row it came from, in label order
    assert back.values.tobytes() == train.values[[1, 0]].tobytes()


def test_json_layout_and_round_trip(tmp_path):
    path = tmp_path / "obj.json"
    write_json(path, {"b": 2, "a": [1, 2]})
    text = path.read_text()
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert read_json(path) == {"a": [1, 2], "b": 2}


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_json_writer_refuses_a_non_finite_float_before_opening_the_file(tmp_path, value):
    # json.dump would write Infinity or NaN, which no JSON reader need accept
    path = tmp_path / "obj.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_json(path, {"a": [1.0, value]})
    assert not path.exists()


def test_classifier_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"method": "knn", "k": 3}))
    cfg = read_classifier_config(path)
    assert cfg.method == "knn" and cfg.k == 3


def test_classifier_config_bad_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(DataFormatError):
        read_classifier_config(path)
