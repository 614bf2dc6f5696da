"""CSV and JSON serialization for every artifact the package produces, and
`CurvePanel`, the curves a panel file holds.

All floating-point text uses 17 significant digits, so a write/read round
trip reproduces the exact double.  Output is locale-independent ('.' as the
decimal separator, ',' as the field separator) and byte-stable: the same
data always serializes to the same file.

The CSV writers write the bytes csv.writer writes for rows of `fmt` text,
\r\n line ends included, but build each row of floats with one %-operation
on a template made once per file shape (%.17g is `fmt`), and stream the rows
into the file buffer rather than building the whole file as one string.
Number cells never need quoting; label and header cells still go through
csv.writer.  Each writer checks its data before it opens the file, so a
refused write leaves no file behind.

Every CSV reader goes through one core (`_csv`).  It reads the text once
and splits it at line ends and commas where that gives csv.reader's cells,
csv.reader splitting any other file; it checks the header, the row widths and
the number cells in one place, and parses the numbers in one np.loadtxt call
(`_numbers`) where they are plain %.17g text, else with float() row by row,
which names the first bad row.  Both parses give the same values, bit for
bit, or the same error.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from .errors import DataFormatError, UsageError

if TYPE_CHECKING:  # the readers and writers that build these import them when called
    from .classify import ClassifierConfig, ConfusionMatrix
    from .graphs import WeightedGraph

__all__ = [
    "CurvePanel",
    "fmt",
    "read_classifier_config",
    "read_cloud",
    "read_edges",
    "read_json",
    "read_matrix",
    "read_panel",
    "read_points_auto",
    "read_shifts",
    "write_cloud",
    "write_confusion",
    "write_edges",
    "write_json",
    "write_matrix",
    "write_panel",
    "write_predictions",
    "write_shifts",
    "write_warp_params",
]


def fmt(x: float) -> str:
    """17-significant-digit decimal text; round-trips any float64."""
    return format(float(x), ".17g")


def _floats(path, k, tokens) -> List[float]:
    values = []
    for token in tokens:
        try:
            values.append(float(token))
        except ValueError:
            raise DataFormatError(f"{path}: row {k}: cannot parse {token!r} as a number") from None
        if not math.isfinite(values[-1]):
            raise DataFormatError(f"{path}: row {k}: non-finite value {token!r}")
    return values


# the characters %.17g writes for finite floats and the commas between them:
# the only ones `_numbers` hands to loadtxt, which reads any numeral of them
# as float() does
_NUMERALS = b"0123456789.eE+-,"


def _numbers(texts, width) -> Optional[np.ndarray]:
    """The number cells of rows, one text of comma-joined cells per row, as a
    (rows, width) array from one np.loadtxt call; None, for float() to read,
    if a row is empty, has a character %.17g does not write, or loadtxt refuses it."""
    if not all(texts) or ",".join(texts).encode().translate(None, _NUMERALS):
        return None
    try:
        table = np.loadtxt(texts, delimiter=",", comments=None, ndmin=2)
    except ValueError:  # a numeral float() refuses too, such as 1e or +-
        return None
    return table if table.shape == (len(texts), width) and np.isfinite(table).all() else None


def _csv(path, layout, key=lambda k, cells: cells):
    r"""The CSV file at `path` as (header, keys, table).

    Split at its line ends (\n or \r\n) and commas, the text gives
    csv.reader's cells if it has no quote, bare \r, empty line or line past
    csv's field size limit; csv.reader splits any other text.  `layout` gets
    the first row's cells (None in an empty file) and returns why it refuses
    them, or (skip, start): each row from row `start` (1 or 2) on must be as
    wide as the first; its first `skip` cells, if skip > 0, make its key,
    `key(row number, cells)`; the others are finite numbers, a `table` row.
    """
    with open(path, "rb") as fh:  # a text-mode read decodes far slower
        text = fh.read()
    try:
        text = text.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: unreadable CSV ({exc})") from exc
    lines = text.split("\n")
    if lines[-1] == "":  # the line end of the last row
        del lines[-1]
    lines = [line[:-1] if line.endswith("\r") else line for line in lines]
    plain = '"' not in text and all(lines) and not any("\r" in line for line in lines)
    plain = plain and max(map(len, lines), default=0) <= csv.field_size_limit()
    if not plain:
        try:
            lines = list(csv.reader(io.StringIO(text, newline="")))
        except csv.Error as exc:
            raise DataFormatError(f"{path}: unreadable CSV ({exc})") from exc
    header = (lines[0].split(",") if plain else lines[0]) if lines else None
    form = layout(header)
    if isinstance(form, str):
        raise DataFormatError(f"{path}: {form}")
    skip, start = form
    width, body = len(header), lines[start - 1 :]
    if plain:  # the number cells of a line stay one text
        heads = [line.split(",", skip) for line in body] if skip else []
        texts = [cells.pop() for cells in heads] if skip else body
        wide = all(line.count(",") == width - 1 for line in body)
    else:
        heads, texts = [row[:skip] for row in body], [",".join(row[skip:]) for row in body]
        wide = all(len(row) == width for row in body)
    table = _numbers(texts, width - skip) if body and wide else None
    if table is not None:
        return header, [key(k, cells) for k, cells in enumerate(heads, start)], table
    keys, values = [], []
    for k, row in enumerate(body, start):  # float() per row names the first bad one
        row = row.split(",") if plain else row
        if len(row) != width:
            raise DataFormatError(f"{path}: row {k}: expected {width} fields, got {len(row)}")
        values.append(_floats(path, k, row[skip:]))
        keys.append(key(k, row[:skip]))
    return header, keys, np.array(values).reshape(len(body), width - skip)


def _finite_array(values, ndim, what) -> np.ndarray:
    """`values` as a float array of `ndim` dimensions with finite entries
    only, or DataFormatError: the readers refuse any other cell."""
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"{what} must be an array of numbers ({exc})") from exc
    if arr.ndim != ndim:
        raise DataFormatError(f"{what} must be {ndim}-D, got {arr.ndim}-D")
    if not np.isfinite(arr).all():
        raise DataFormatError(f"{what} must be finite")
    return arr


def _quoted(cell) -> str:
    """`cell` as csv.writer writes it between two other cells."""
    buf = io.StringIO()
    # a second cell, as a row of one empty cell is written as ""
    csv.writer(buf).writerow([cell, ""])
    return buf.getvalue()[: -len(",\r\n")]


# ---------------------------------------------------------------- panels

@dataclass
class CurvePanel:
    """n curves sampled on one shared, strictly increasing grid of m >= 2 points.

    `shifts` keeps the ground-truth shift of each row when a generator knows
    it; `warp_params` keeps richer per-row parameters as named arrays.
    """

    grid: np.ndarray
    values: np.ndarray
    labels: Optional[list] = None
    shifts: Optional[np.ndarray] = None
    warp_params: Optional[Dict[str, np.ndarray]] = None
    target: Optional[str] = None

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim == 1:
            self.values = self.values[None, :]
        if self.grid.ndim != 1 or self.grid.size < 2:
            raise UsageError("grid must be 1-D with at least two points")
        if not np.all(self.grid[1:] > self.grid[:-1]):  # no subtraction to overflow
            raise UsageError("grid must be strictly increasing")
        if not np.all(np.isfinite(self.grid)):
            raise UsageError("grid contains non-finite values")
        if self.values.ndim != 2 or self.values.shape[1] != self.grid.size:
            raise UsageError(
                f"values must be (n, {self.grid.size}), got {self.values.shape}"
            )
        if self.values.shape[0] < 1:
            raise UsageError("panel needs at least one curve")
        if not np.all(np.isfinite(self.values)):
            raise UsageError("panel values contain non-finite entries")
        if self.labels is not None:
            self.labels = [str(x) for x in self.labels]
            if len(self.labels) != self.values.shape[0]:
                raise UsageError("labels must match the number of curves")
        if self.shifts is not None:
            self.shifts = np.asarray(self.shifts, dtype=float)
            if self.shifts.shape != (self.values.shape[0],):
                raise UsageError("shifts must provide one value per curve")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.grid.size


def write_panel(path, panel: CurvePanel) -> None:
    """Header: t,<t_1>,...,<t_m>.  Rows: label,v_1,...,v_m ('-' = no label)."""
    labels = panel.labels if panel.labels is not None else ["-"] * panel.n
    quoted = {label: _quoted(label) for label in set(labels)}
    row = ",%.17g" * panel.m + "\r\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("t" + row % tuple(panel.grid.tolist()))
        fh.writelines(quoted[label] + row % tuple(v.tolist()) for label, v in zip(labels, panel.values))


def _points(path, heads, refusal):
    """("panel", CurvePanel) or ("cloud", ndarray) of a file whose header
    starts with one of `heads`, 't' for a panel and 'x1' for a cloud; row 1
    of any other file is refused with `refusal`, formatted with its head."""

    def layout(header):
        head = header[0] if header else ""
        if header is None or head not in heads:
            return "empty file" if header is None else f"row 1: {refusal.format(head)}"
        if head == "t" and len(header) < 3:
            return "row 1: a panel needs at least two grid columns"
        return (1, 1) if head == "t" else (0, 2)

    header, keys, table = _csv(path, layout)
    if len(table) < 1 + (header[0] == "t"):
        raise DataFormatError(f"{path}: no data rows")
    if header[0] == "x1":
        return "cloud", table
    labels = [cells[0] for cells in keys[1:]]
    try:  # a panel's grid is its first row of numbers
        return "panel", CurvePanel(table[0], table[1:], None if all(lab == "-" for lab in labels) else labels)
    except UsageError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def read_panel(path) -> CurvePanel:
    return _points(path, ("t",), "expected a panel header starting with 't'")[1]


# ----------------------------------------------------------- point clouds

def write_cloud(path, cloud) -> None:
    """Header: x1,...,xp.  One row per point."""
    pts = _finite_array(cloud, 2, "a point cloud")
    row = ",".join(["%.17g"] * pts.shape[1]) + "\r\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(f"x{k + 1}" for k in range(pts.shape[1])) + "\r\n")
        fh.writelines(row % tuple(x.tolist()) for x in pts)


def read_cloud(path) -> np.ndarray:
    return _points(path, ("x1",), "expected a cloud header starting with 'x1'")[1]


def read_points_auto(path):
    """("panel", CurvePanel) or ("cloud", ndarray), as the header starts with 't' or 'x1'."""
    return _points(path, ("t", "x1"), "unrecognized header {!r}; expected 't' or 'x1'")


# -------------------------------------------------------------- sidecars

def write_shifts(path, shifts) -> None:
    """Header: index,shift.  One row per curve."""
    s = _finite_array(shifts, 1, "shifts")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("index,shift\r\n")
        fh.writelines("%d,%.17g\r\n" % pair for pair in enumerate(s.tolist()))


def _headed(*names):
    """The layout of a file headed `names`: a row's last cell is its number."""
    expected = ",".join(names)
    return lambda header: (len(names) - 1, 2) if header == list(names) else f"row 1: expected header {expected!r}"


def read_shifts(path) -> np.ndarray:
    return _csv(path, _headed("index", "shift"))[2][:, 0]


def write_warp_params(path, warp_params: dict) -> None:
    """Header: index,<names in sorted order>.  One row per curve."""
    keys = sorted(warp_params)
    cols = [_finite_array(warp_params[k], 1, f"warp parameter {k!r}") for k in keys]
    if len({len(col) for col in cols}) != 1:
        lengths = ", ".join(f"{k!r}: {len(col)}" for k, col in zip(keys, cols))
        raise DataFormatError(f"warp parameters need columns of one common length, got {{{lengths}}}")
    row = "%d" + ",%.17g" * len(keys) + "\r\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(["index"] + keys)
        fh.writelines(row % (i, *v) for i, v in enumerate(np.column_stack(cols).tolist()))


# ------------------------------------------------------ matrices & graphs

def write_matrix(path, matrix) -> None:
    """One row of %.17g text per matrix row.

    Each distinct 64-bit pattern is formatted once, so a symmetric matrix
    costs about half the formatting.  Keying on bits, not values, keeps -0.0
    apart from 0.0.
    """
    dm = np.asarray(matrix, dtype=float)
    if dm.ndim != 2:
        raise DataFormatError(f"a matrix must be 2-D, got {dm.ndim}-D")
    keys, inverse = np.unique(dm.ravel().view(np.uint64), return_inverse=True)
    values = keys.view(float).tolist()
    # one %-format over all distinct values, split at the commas it put between them
    text = np.array((("%.17g," * len(values)) % tuple(values)).split(",")[:-1], dtype=object)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(",".join(text[row].tolist()) + "\r\n" for row in inverse.reshape(dm.shape))


def read_matrix(path) -> np.ndarray:
    def layout(row):
        return (0, 1) if row else "empty file" if row is None else "row 1: expected at least one field, got 0"

    matrix = _csv(path, layout)[2]
    if matrix.shape[0] != matrix.shape[1]:
        raise DataFormatError(f"{path}: expected a square matrix, got {matrix.shape[0]} x {matrix.shape[1]}")
    return matrix


def write_edges(path, graph: WeightedGraph) -> None:
    """Edge list: header i,j,weight; 0-based indices with i < j."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("i,j,weight\r\n")
        fh.writelines("%d,%d,%.17g\r\n" % (i, j, w) for i, j, w in graph.edges.tolist())


def read_edges(path, n: Optional[int] = None) -> WeightedGraph:
    from .graphs import WeightedGraph

    def vertices(k, cells):
        try:
            return int(cells[0]), int(cells[1])
        except ValueError:
            raise DataFormatError(f"{path}: row {k}: bad vertex index") from None

    _, ij, weights = _csv(path, _headed("i", "j", "weight"), vertices)
    edges = [(i, j, w) for (i, j), w in zip(ij, weights[:, 0].tolist())]
    try:
        return WeightedGraph(n if n is not None else max([-1, *map(max, ij)]) + 1, edges)
    except UsageError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


# ------------------------------------------------------------------ json

def write_json(path, obj) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)  # refuses NaN and inf, no JSON
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def read_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"{path}: invalid JSON ({exc})") from exc


def read_classifier_config(path) -> ClassifierConfig:
    from .classify import ClassifierConfig

    raw = read_json(path)
    try:
        return ClassifierConfig.from_dict(raw)
    except UsageError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


# ---------------------------------------------------------- classification

def write_predictions(path, references, predictions) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["index", "reference", "predicted"])
        for i, (ref, pred) in enumerate(zip(references, predictions, strict=True)):
            w.writerow([i, ref, pred])


def write_confusion(path, cm: ConfusionMatrix) -> None:
    r"""Header: reference\predicted,<labels...>; one row per reference label."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["reference\\predicted"] + list(cm.labels))
        for i, label in enumerate(cm.labels):
            w.writerow([label] + [int(c) for c in cm.counts[i]])
