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

Panels and clouds are read in one numeric pass (`_plain`): the text split
at commas and line ends, every number parsed by one np.loadtxt call.  Any
file that pass does not take, the row reader (csv.reader, then float() per
cell) reads, so both give the same values, bit for bit, or the same error.
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
    try:
        values = list(map(float, tokens))
        if all(map(math.isfinite, values)):
            return values
    except ValueError:
        pass
    for token in tokens:  # a bad row: report its first bad token
        try:
            if not math.isfinite(float(token)):
                break
        except ValueError:
            raise DataFormatError(f"{path}: row {k}: cannot parse {token!r} as a number") from None
    raise DataFormatError(f"{path}: row {k}: non-finite value {token!r}")


def _rows(path) -> List[List[str]]:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return [row for row in csv.reader(fh)]
    except (csv.Error, UnicodeDecodeError) as exc:
        raise DataFormatError(f"{path}: unreadable CSV ({exc})") from exc


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


def _body(path, rows, width, skip=0, start=2):
    """Yield (row number, fields, floats) for each data row, numbered from
    `start`.  Every row must have `width` fields; the fields after the first
    `skip` must be finite floats."""
    for k, row in enumerate(rows, start=start):
        if len(row) != width:
            raise DataFormatError(f"{path}: row {k}: expected {width} fields, got {len(row)}")
        yield k, row, _floats(path, k, row[skip:])


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


# the characters %.17g writes for finite floats, the commas between them and
# the line ends: the only ones `_plain` hands to loadtxt, which reads any
# numeral of them as float() does
_NUMERALS = b"0123456789.eE+-,\n"


def _plain(path, heads):
    r"""A panel or cloud read in one numeric pass, as (head, labels, table):
    the header's first cell, one of `heads`; for a panel ('t') the first
    cell of each row after the header, and for a cloud ('x1') None; and the
    numbers, in a panel the header's grid row first, as one float array.

    The cells are the text between commas and line ends (\n or \r\n), as
    csv.reader splits them in a file without quotes.  None, for the row
    reader to read, for any other file: not UTF-8, with a quote, a bare \r,
    an empty line or one past csv's field size limit, without a data row or
    with a row not as wide as its header, a panel header of fewer than three
    cells, or a number cell of characters %.17g does not write or that
    loadtxt refuses or reads non-finite.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        return None
    if '"' in text:
        return None
    lines = text.split("\n")
    if lines[-1] == "":  # the line end of the last row
        del lines[-1]
    lines = [line[:-1] if line.endswith("\r") else line for line in lines]
    if len(lines) < 2:
        return None
    header = lines[0].split(",")
    head, width = header[0], len(header)
    if (
        head not in heads
        or (head == "t" and width < 3)
        or not all(lines)
        or max(map(len, lines)) > csv.field_size_limit()
        or any(line.count(",") != width - 1 or "\r" in line for line in lines)
    ):
        return None
    labels = None
    if head == "t":
        cells = [line.partition(",") for line in lines]
        labels = [cell[0] for cell in cells[1:]]
        lines = [cell[2] for cell in cells]
    else:
        del lines[0]
    if "\n".join(lines).encode().translate(None, _NUMERALS):
        return None
    try:
        table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:  # a numeral float() refuses too, such as 1e or +-
        return None
    if table.shape != (len(lines), width - (head == "t")) or not np.isfinite(table).all():
        return None
    return head, labels, table


def _panel(path, labels, table) -> CurvePanel:
    """The panel of a table whose first row is the grid, refused as a DataFormatError."""
    try:
        return CurvePanel(
            grid=table[0],
            values=table[1:],
            labels=None if all(lab == "-" for lab in labels) else labels,
        )
    except UsageError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def read_panel(path) -> CurvePanel:
    plain = _plain(path, ("t",))
    return _parse_panel(path, _rows(path)) if plain is None else _panel(path, *plain[1:])


def _parse_panel(path, rows) -> CurvePanel:
    """The row reader's panel: the reference `_plain` matches."""
    if not rows:
        raise DataFormatError(f"{path}: empty file")
    header = rows[0]
    if not header or header[0] != "t":
        raise DataFormatError(f"{path}: row 1: expected a panel header starting with 't'")
    if len(header) < 3:
        raise DataFormatError(f"{path}: row 1: a panel needs at least two grid columns")
    grid = _floats(path, 1, header[1:])
    body = list(_body(path, rows[1:], len(header), skip=1))
    if not body:
        raise DataFormatError(f"{path}: no data rows")
    return _panel(path, [row[0] for _, row, _ in body], np.array([grid] + [vals for _, _, vals in body]))


# ----------------------------------------------------------- point clouds

def write_cloud(path, cloud) -> None:
    """Header: x1,...,xp.  One row per point."""
    pts = _finite_array(cloud, 2, "a point cloud")
    row = ",".join(["%.17g"] * pts.shape[1]) + "\r\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(f"x{k + 1}" for k in range(pts.shape[1])) + "\r\n")
        fh.writelines(row % tuple(x.tolist()) for x in pts)


def read_cloud(path) -> np.ndarray:
    plain = _plain(path, ("x1",))
    return _parse_cloud(path, _rows(path)) if plain is None else plain[2]


def _parse_cloud(path, rows) -> np.ndarray:
    """The row reader's cloud: the reference `_plain` matches."""
    if not rows:
        raise DataFormatError(f"{path}: empty file")
    header = rows[0]
    if not header or header[0] != "x1":
        raise DataFormatError(f"{path}: row 1: expected a cloud header starting with 'x1'")
    data = [vals for _, _, vals in _body(path, rows[1:], len(header))]
    if not data:
        raise DataFormatError(f"{path}: no data rows")
    return np.array(data)


def read_points_auto(path):
    """Dispatch on the header: a panel ('t,...') or a cloud ('x1,...').

    Returns ("panel", CurvePanel) or ("cloud", ndarray).
    """
    plain = _plain(path, ("t", "x1"))
    if plain is not None:
        head, labels, table = plain
        return ("panel", _panel(path, labels, table)) if head == "t" else ("cloud", table)
    rows = _rows(path)
    if not rows or not rows[0]:
        raise DataFormatError(f"{path}: empty file")
    head = rows[0][0]
    if head == "t":
        return "panel", _parse_panel(path, rows)
    if head == "x1":
        return "cloud", _parse_cloud(path, rows)
    raise DataFormatError(
        f"{path}: row 1: unrecognized header {head!r}; expected 't' or 'x1'"
    )


# -------------------------------------------------------------- sidecars

def write_shifts(path, shifts) -> None:
    """Header: index,shift.  One row per curve."""
    s = _finite_array(shifts, 1, "shifts")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("index,shift\r\n")
        fh.writelines("%d,%.17g\r\n" % pair for pair in enumerate(s.tolist()))


def read_shifts(path) -> np.ndarray:
    rows = _rows(path)
    if not rows or rows[0] != ["index", "shift"]:
        raise DataFormatError(f"{path}: row 1: expected header 'index,shift'")
    return np.array([shift for _, _, (shift,) in _body(path, rows[1:], 2, skip=1)])


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
    rows = _rows(path)
    if not rows:
        raise DataFormatError(f"{path}: empty file")
    matrix = np.array([vals for _, _, vals in _body(path, rows, len(rows[0]), start=1)])
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

    rows = _rows(path)
    if not rows or rows[0] != ["i", "j", "weight"]:
        raise DataFormatError(f"{path}: row 1: expected header 'i,j,weight'")
    edges = []
    top = -1
    for k, row, (weight,) in _body(path, rows[1:], 3, skip=2):
        try:
            i, j = int(row[0]), int(row[1])
        except ValueError:
            raise DataFormatError(f"{path}: row {k}: bad vertex index") from None
        edges.append((i, j, weight))
        top = max(top, i, j)
    try:
        return WeightedGraph(n if n is not None else top + 1, edges)
    except UsageError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


# ------------------------------------------------------------------ json

def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
