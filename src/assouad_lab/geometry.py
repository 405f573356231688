"""Point-set container and file formats.

A PointSet is a finite sample of some set in R^n together with the
resolution it claims to be sampled at: every point of the intended set
is supposed to lie within `resolution` of some sample point.  All grid
construction downstream refuses to look below that scale.

Points may optionally carry a scalar parameter per point (for curve
families this is the curve parameter), which survives CSV/JSON round
trips and map application.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import os
import shutil
import sys
import tempfile
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptySetError, InvalidParameterError
from .forking import can_overlap, forked

# 17 significant digits round-trip every float64 exactly.  They are always
# written in full, so repr (the shortest round-trip form) is often shorter.
_FMT = "%.17g"
_BLOCK_ROWS = 1 << 14  # rows formatted per write (a few MB of text); more use two CPUs
_SPLIT_BYTES = 1 << 22  # a CSV of more bytes is read on two CPUs
_CHUNK_BYTES = 1 << 20  # text read, or copied, per call
_BOX_ROWS = 512  # rows per line of the bounding-box pass

# Largest sample a family may generate or a file may hold; larger ones are
# refused.  A planar curve with its parameters is 240 MB of data at the
# budget; writing its CSV adds about 7 MB to either process, and reading it
# peaks near 36 bytes a point (360 MB) in the first and 12 (120 MB) in the
# second (measured up to 2M points).
POINT_BUDGET = 10_000_000


def _as_points_array(points, dim: int) -> np.ndarray:
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1) if dim == 1 else arr.reshape(1, -1)
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise InvalidParameterError(
            f"points must be an (N, {dim}) array, got shape {arr.shape}"
        )
    return arr


def _column_bounds(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each column's min and max, NaN and inf carried along.  The rows are
    reduced ``_BOX_ROWS`` to a line, so each pass runs over contiguous memory
    (a column, or axis 0 of (N, dim), is strided and several times slower);
    the lines' extremes and the rows past the last full line are then folded.
    Rows that are not contiguous (points beside a CSV's param column) would be
    copied by that reshape, so they are reduced column by column instead."""
    if not arr.flags.c_contiguous:
        return np.array([c.min() for c in arr.T]), np.array([c.max() for c in arr.T])
    dim = arr.shape[1]
    split = len(arr) - len(arr) % _BOX_ROWS
    lines = arr[:split].reshape(-1, _BOX_ROWS * dim)
    lo = np.vstack([lines.min(0, initial=np.inf).reshape(-1, dim), arr[split:]]).min(0)
    hi = np.vstack([lines.max(0, initial=-np.inf).reshape(-1, dim), arr[split:]]).max(0)
    return lo, hi


@dataclass(eq=False)
class PointSet:
    """Finite sample with a declared sampling resolution.

    dim: ambient dimension n >= 1.
    points: (N, n) float64 array.
    resolution: claimed sampling fineness, > 0.
    params: optional per-point scalar (N,), may contain inf for limit
        points; purely metadata, never used by the geometry itself.
    """

    dim: int
    points: np.ndarray
    resolution: float
    params: np.ndarray | None = field(default=None)
    _box: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidParameterError(f"dim must be >= 1, got {self.dim}")
        if not 0 < self.resolution < np.inf:
            raise InvalidParameterError(
                f"resolution must be finite and positive, got {self.resolution}"
            )
        self.points = _as_points_array(self.points, self.dim)
        if len(self.points) == 0:
            raise EmptySetError("point set is empty")
        self._box = _column_bounds(self.points)  # the one pass over the points
        if not all(np.isfinite(b).all() for b in self._box):
            raise InvalidParameterError("points must be finite")
        for b in self._box:
            b.flags.writeable = False
        if self.params is not None:
            self.params = np.asarray(self.params, dtype=np.float64).reshape(-1)
            if len(self.params) != len(self.points):
                raise InvalidParameterError("params must align with points")
        self.points.flags.writeable = False
        if self.params is not None:
            self.params.flags.writeable = False

    def __len__(self) -> int:
        return len(self.points)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointSet):
            return NotImplemented
        if self.dim != other.dim or self.resolution != other.resolution:
            return False
        if not np.array_equal(self.points, other.points):
            return False
        if (self.params is None) != (other.params is None):
            return False
        if self.params is not None and not np.array_equal(self.params, other.params):
            return False
        return True

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-column (min, max), taken once, at construction."""
        return self._box

    # ---- file formats -------------------------------------------------

    def to_csv(self, path) -> None:
        """One point per row, 17 significant digits, metadata in a comment line.

        ``path`` may be a filesystem path or any object with a write method.
        """
        if hasattr(path, "write"):
            self._write_csv(path)
        else:
            with open(path, "w") as fh:
                self._write_csv(fh)

    def _write_csv(self, fh) -> None:
        cols = [f"x{i}" for i in range(self.dim)]
        data = [self.points]  # the columns, formatted a block at a time: no copy of them all
        if self.params is not None:
            cols.append("param")
            data.append(self.params[:, None])
        fh.write(f"# assouad-lab dim={self.dim} resolution={_FMT % self.resolution}\n"
                 + ",".join(cols) + "\n")
        row = ",".join([_FMT] * len(cols)) + "\n"
        if len(self) <= _BLOCK_ROWS or not can_overlap():
            return _write_rows(fh, row, data)
        # A child writes the second half to an unlinked file, copied in bounded chunks.
        half = len(self) // 2
        with (tempfile.TemporaryFile("w+", 1, encoding="ascii", newline="") as tail,
              forked(lambda: _write_rows(tail, row, [c[half:] for c in data]), "CSV write")
              as join):
            _write_rows(fh, row, [c[:half] for c in data])
            join()
            tail.seek(0)
            shutil.copyfileobj(tail, fh, _CHUNK_BYTES)

    @classmethod
    def from_csv(cls, path, resolution: float | None = None) -> "PointSet":
        """Parse a CSV written by to_csv, or any plain n-column numeric CSV.

        ``#`` lines may appear anywhere; metadata is read from those before
        the first data row.  At most one header row may precede the data.
        A plain CSV carries no resolution, so one must be supplied.  A refusal
        names the file.
        """
        meta_dim, meta_res, header, arr = _read_csv_table(path)
        params = None
        if header is not None and header[-1] == "param":
            params = arr[:, -1]
            arr = arr[:, :-1]
        dim = meta_dim if meta_dim is not None else arr.shape[1]
        res = resolution if resolution is not None else meta_res
        if res is None:
            raise InvalidParameterError(
                f"{path}: carries no resolution metadata; pass --res, or resolution= from Python"
            )
        try:
            return cls(dim=dim, points=arr, resolution=float(res), params=params)
        except InvalidParameterError as exc:
            raise InvalidParameterError(f"{path}: {exc}") from None

    def to_json(self, path) -> None:
        """What ``json.dump`` writes of the whole payload, byte for byte, with
        the points and params lists written a block of rows at a time."""
        def items(values, fix=lambda block: block):
            for start in range(0, len(values), _BLOCK_ROWS):
                block = fix(values[start:start + _BLOCK_ROWS].tolist())
                fh.write((", " if start else "") + json.dumps(block)[1:-1])

        meta = {"schema": "assouad-lab/1", "dim": self.dim, "resolution": self.resolution}
        with open(path, "w") as fh:
            fh.write(json.dumps(meta)[:-1] + ', "points": [')
            items(self.points)
            if self.params is not None:  # JSON has no inf: a limit point's param is null
                fh.write('], "params": [')
                items(self.params, lambda block: [v if math.isfinite(v) else None for v in block])
            fh.write("]}")

    @classmethod
    def from_json(cls, path, resolution: float | None = None) -> "PointSet":
        """Parse a JSON file written by to_json; a malformed file names itself.
        ``resolution``, when given, overrides the file's, which is still checked."""
        with open(path) as fh:
            try:
                payload = json.load(fh)
            except ValueError as exc:  # also bad UTF-8
                raise InvalidParameterError(f"{path}: not valid JSON ({exc})") from None
        if not isinstance(payload, dict):
            raise InvalidParameterError(f"{path}: expected a JSON object")
        missing = [k for k in ("dim", "resolution", "points") if k not in payload]
        if missing:
            raise InvalidParameterError(f"{path}: missing key(s) {', '.join(missing)}")
        dim, meta_res = payload["dim"], payload["resolution"]
        # bool is an int subclass: true would read as dim 1
        if isinstance(dim, bool) or not isinstance(dim, int):
            raise InvalidParameterError(
                f"{path}: dim must be an integer, got {json.dumps(dim):.40}"
            )
        if isinstance(meta_res, bool) or not isinstance(meta_res, (int, float)):
            raise InvalidParameterError(
                f"{path}: resolution must be a number, got {json.dumps(meta_res):.40}"
            )
        res = resolution if resolution is not None else meta_res
        if isinstance(payload["points"], list):
            _check_size(path, len(payload["points"]))
        params = payload.get("params")
        try:
            points = np.asarray(payload["points"], dtype=np.float64)
            if params is not None:
                params = np.asarray([np.inf if v is None else v for v in params],
                                    dtype=np.float64)
        except (TypeError, ValueError):
            raise InvalidParameterError(
                f"{path}: points and params must be numbers in rows of equal length"
            ) from None
        if points.ndim >= 1 and len(points) == 0:
            raise EmptySetError(f"no points found in {path}")
        try:
            return cls(dim=dim, points=points, resolution=float(res), params=params)
        except InvalidParameterError as exc:
            raise InvalidParameterError(f"{path}: {exc}") from None


def _read_csv_table(path):
    """``(dim, resolution, header, rows)`` of a CSV under from_csv's rules; the
    metadata and header are None where the file has none."""
    meta_dim = None
    meta_res = None
    header = None
    with open(path) as fh:
        try:  # a byte that is not text stops the scan
            for lineno, line in enumerate(fh, 1):
                text = line.strip()
                if text.startswith("#"):
                    for tok in text[1:].split():
                        try:
                            if tok.startswith("dim="):
                                meta_dim = int(tok[4:])
                            elif tok.startswith("resolution="):
                                meta_res = float(tok[11:])
                        except ValueError:
                            raise InvalidParameterError(
                                f"{path} line {lineno}: bad metadata {tok!r}"
                            ) from None
                    continue
                cells = text.split("#", 1)[0].rstrip()
                if not cells:
                    continue
                try:
                    float(cells.split(",", 1)[0])
                    break
                except ValueError:
                    if header is not None:
                        raise InvalidParameterError(
                            f"{path} line {lineno}: non-numeric cell in {text!r}"
                        ) from None
                    header = cells.split(",")
            else:
                raise EmptySetError(f"no points found in {path}")
        except UnicodeDecodeError:
            raise _bad_row(path) from None
        big = os.fstat(fh.fileno()).st_size > _SPLIT_BYTES  # a pipe's size is 0
        try:  # the file iterator resumes after the first data row
            arr = (_load_halves(path, lineno) if big and can_overlap()
                   else _load_rows(itertools.chain([line], fh)))
        except ValueError:  # also a UnicodeDecodeError, from either half
            raise _bad_row(path, lineno, cells.count(",") + 1) from None
    _check_size(path, len(arr))
    return meta_dim, meta_res, header, arr


def _write_rows(fh, row: str, data: list) -> None:
    # One %-operation per block of rows, taken from slices of the (N, k)
    # column arrays in ``data``; each value is still a Python float under
    # %.17g, so the text round-trips bit for bit.
    for start in range(0, len(data[0]), _BLOCK_ROWS):
        block = np.hstack([c[start:start + _BLOCK_ROWS] for c in data])
        fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def _load_rows(lines) -> np.ndarray:
    # loadtxt reads a line of whitespace, or of whitespace then a comment, as
    # a row, so strip the leading whitespace and drop what is left empty;
    # both steps run in C, and a row is its own lstrip.
    rows = filter(None, map(str.lstrip, lines))
    with warnings.catch_warnings():  # comment lines skip max_rows; a half may hold none
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(rows, delimiter=",", comments="#", dtype=np.float64,
                          ndmin=2, max_rows=POINT_BUDGET + 1)


def _load_range(path, start: int, stop: int) -> np.ndarray:
    """Parse bytes [start, stop) of ``path``, opened here: forks share file offsets."""
    def chunk():  # whole lines, split in C as open(path) splits them; stop is a line end
        text = fh.read(max(0, min(_CHUNK_BYTES, stop - fh.tell())))
        if text and not text.endswith(b"\n"):
            text += fh.readline()
        return io.TextIOWrapper(io.BytesIO(text)).readlines()

    with open(path, "rb") as fh:
        fh.seek(start)
        return _load_rows(itertools.chain.from_iterable(iter(chunk, [])))


def _load_halves(path, first: int) -> np.ndarray:
    """The data rows from line ``first`` on, cut at the first line end after
    their byte midpoint; each half is parsed by its own process."""
    with open(path, newline="") as fh:  # line ends kept, so lengths are bytes
        start = sum(len(s.encode(fh.encoding)) for s in itertools.islice(fh, first - 1))
    with open(path, "rb") as fh:
        size = fh.seek(0, io.SEEK_END)
        cut = fh.seek((start + size) // 2) + len(fh.readline())
    with forked(lambda: _load_range(path, cut, size), "CSV read") as join:
        head = _load_range(path, start, cut)
        tail = join()
    if not len(tail):  # comments add no rows
        return head
    if tail.shape[1] != head.shape[1]:  # as a ragged file does in one pass
        raise ValueError("the halves have different numbers of columns")
    # One result, filled a half at a time: its pages are touched only as they are filled.
    n = len(head)
    arr = np.empty((n + len(tail), tail.shape[1]))
    arr[:n] = head
    del head  # freed before the tail is copied
    arr[n:] = tail
    return arr


def _check_size(path, n_points: int) -> None:
    if n_points > POINT_BUDGET:
        raise InvalidParameterError(f"{path}: holds over the {POINT_BUDGET:,}-point budget")


def _bad_row(path, first: int | None = None, ncols: int = 0) -> InvalidParameterError:
    """Name the first line that is not text or, from line ``first`` on, the
    first data row that loadtxt rejected."""
    with open(path, errors="surrogateescape") as fh:  # a bad byte reads as a lone surrogate
        for lineno, line in enumerate(fh, 1):
            try:
                line.encode(fh.encoding)
            except UnicodeEncodeError:
                return InvalidParameterError(f"{path} line {lineno}: not {fh.encoding} text")
            cells = line.split("#", 1)[0].strip()
            if first is None or lineno < first or not cells:
                continue
            cells = cells.split(",")
            try:
                for cell in cells:
                    cell = cell.strip()
                    # float() also takes digit separators and non-ASCII digits
                    if "_" in cell or not cell.isascii():
                        raise ValueError(cell)
                    float(cell)
            except ValueError:
                return InvalidParameterError(
                    f"{path} line {lineno}: non-numeric cell in {line.strip()!r}"
                )
            if len(cells) != ncols:
                return InvalidParameterError(
                    f"{path} line {lineno}: rows have different numbers of columns"
                )
    return InvalidParameterError(f"{path}: a data cell is not a decimal number")


def load_points(path, resolution: float | None = None) -> PointSet:
    """Dispatch on file extension (.json or anything-CSV); ``resolution``, when
    given, overrides the file's."""
    path = str(path)
    if path.endswith(".json"):
        return PointSet.from_json(path, resolution=resolution)
    return PointSet.from_csv(path, resolution=resolution)


def save_points(ps: PointSet, path=None) -> None:
    """Write ``ps`` by file extension (.json or anything-CSV); CSV to stdout without a path."""
    if not path:
        ps.to_csv(sys.stdout)
    elif str(path).endswith(".json"):
        ps.to_json(path)
    else:
        ps.to_csv(path)

