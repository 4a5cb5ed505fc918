"""Column-oriented numeric tables with declared analysis roles.

A Dataset is a small immutable bundle of equal-length float64 columns plus a
RoleSpec that says which column is the group indicator, the outcome, the
mediator, and which columns are baseline or intermediate covariates. All
ingestion errors are raised eagerly; estimators downstream can assume clean,
finite, fully-numeric data with both groups present.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import stat
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, TextIO

import numpy as np

__all__ = ["DataError", "RoleSpec", "Dataset", "load_csv"]


class DataError(ValueError):
    """Raised for file, parsing, and role/shape problems in input data."""


@dataclass(frozen=True)
class RoleSpec:
    """Names the analysis role of each column.

    group is a binary (0/1) indicator, 1 marking the group whose disparity
    is decomposed. baseline covariates precede the group in the assumed
    ordering (not affected by it); intermediate covariates sit between
    group and mediator.
    """

    group: str
    outcome: str
    mediator: str
    baseline: tuple[str, ...] = ()
    intermediate: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "baseline", tuple(self.baseline))
        object.__setattr__(self, "intermediate", tuple(self.intermediate))
        names = self.all_roles()
        for name in names:
            if not isinstance(name, str) or not name:
                raise DataError(f"role names must be non-empty strings, got {name!r}")
        seen: set[str] = set()
        for name in names:
            if name in seen:
                raise DataError(f"column {name!r} assigned more than one role")
            seen.add(name)

    def all_roles(self) -> tuple[str, ...]:
        return (self.group, self.outcome, self.mediator) + self.baseline + self.intermediate

    @property
    def covariates(self) -> tuple[str, ...]:
        """Intermediate then baseline covariates: the regressor order of every fit and report."""
        return self.intermediate + self.baseline


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable table of float64 columns with a RoleSpec.

    Construction validates everything the estimators rely on: the role
    columns exist, every value is finite, the group column is exactly 0/1,
    and both groups are non-empty. Column insertion order is preserved.
    The validation also splits the rows by group once: _rows[g] holds the
    read-only, ascending indices of group g's rows, which every estimator
    and the bootstrap read. Fits made from the table are kept in a private
    memo (see decompose._fit), which take() does not carry over.
    """

    columns: dict[str, np.ndarray]
    roles: RoleSpec
    n: int = field(init=False)
    _rows: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)
    _fits: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.columns:
            raise DataError("dataset has no columns")
        clean: dict[str, np.ndarray] = {}
        n = None
        for name, values in self.columns.items():
            arr = np.ascontiguousarray(values, dtype=np.float64)
            if arr.ndim != 1:
                raise DataError(f"column {name!r} is not one-dimensional")
            if n is None:
                n = arr.size
            elif arr.size != n:
                raise DataError(
                    f"column {name!r} has length {arr.size}, expected {n}"
                )
            if not np.isfinite(arr).all():
                raise DataError(f"column {name!r} contains missing or non-finite values")
            arr.setflags(write=False)
            clean[name] = arr
        assert n is not None
        if n == 0:
            raise DataError("dataset has no rows")
        for name in self.roles.all_roles():
            if name not in clean:
                raise DataError(f"role column {name!r} not found in data")
        g = clean[self.roles.group]
        rows = (np.flatnonzero(g == 0.0), np.flatnonzero(g == 1.0))
        if rows[0].size + rows[1].size != n:
            bad = g[(g != 0.0) & (g != 1.0)][0]
            raise DataError(
                f"group column {self.roles.group!r} must contain only 0 and 1, found {float(bad)}"
            )
        for value, group_rows in enumerate(rows):
            if group_rows.size == 0:
                raise DataError(f"group {value} has no rows")
            group_rows.setflags(write=False)
        object.__setattr__(self, "columns", clean)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_rows", rows)

    def column(self, name: str) -> np.ndarray:
        try:
            return self.columns[name]
        except KeyError:
            raise DataError(f"no column named {name!r}") from None

    def group_mask(self, value: int) -> np.ndarray:
        return self.columns[self.roles.group] == float(value)

    def take(self, indices: np.ndarray) -> "Dataset":
        """Row subset/resample by integer indices (validated like any Dataset)."""
        idx = np.asarray(indices, dtype=np.intp)
        return Dataset({k: v[idx] for k, v in self.columns.items()}, self.roles)


# Total bytes of cache entries; past it the oldest are deleted on each write.
_CACHE_BUDGET = 1 << 30
_CHUNK = 1 << 20


def _cache_tag() -> bytes:
    """Hashed ahead of a file's bytes, so that entries written by another
    version of dispdecomp or numpy, or in another entry format, are never read."""
    from dispdecomp import __version__

    return f"dispdecomp {__version__} numpy {np.__version__} table v2\0".encode()


class _HashingReader(io.RawIOBase):
    """A file's bytes, passed on unchanged and hashed into sha256 as they pass."""

    def __init__(self, file: io.RawIOBase, sha256) -> None:
        self._file = file
        self._sha256 = sha256

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self._file.readinto(buffer)
        self._sha256.update(memoryview(buffer)[:n])
        return n

    def close(self) -> None:
        self._file.close()
        super().close()


def _open_csv(path: str, sha256=None, piped: bytes | None = None) -> TextIO:
    """path as UTF-8 text; with sha256, every byte read is also hashed into
    it. Given piped, the bytes already read from path, these are read instead."""
    if piped is not None:
        return io.TextIOWrapper(io.BytesIO(piped), encoding="utf-8-sig", newline="")
    try:
        if sha256 is None:
            return open(path, newline="", encoding="utf-8-sig")
        raw = _HashingReader(open(path, "rb", buffering=0), sha256)
    except OSError as exc:
        raise DataError(f"cannot read {path!r}: {exc.strerror or exc}") from exc
    return io.TextIOWrapper(io.BufferedReader(raw, _CHUNK), encoding="utf-8-sig", newline="")


def _cache_dir() -> Path | None:
    """The table cache directory, made 0700 if it is missing, or None when
    it cannot be trusted: it must be a directory that this user owns and
    that grants no one else any access."""
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):
        # The base directory spec says a relative XDG_CACHE_HOME is ignored.
        root = os.path.join(os.path.expanduser("~"), ".cache")
    if not os.path.isabs(root):
        return None
    directory = Path(root, "dispdecomp")
    try:
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        info = os.stat(directory)
    except OSError:
        return None
    if not stat.S_ISDIR(info.st_mode) or info.st_uid != os.getuid() or info.st_mode & 0o077:
        return None
    return directory


def _entry(directory: Path, digest: bytes) -> Path:
    # The name is a hash of the digest, which stays the entry's secret key.
    return directory / f"{hashlib.sha256(digest).hexdigest()}.npy"


def _keystream(data: np.ndarray, digest: bytes) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """data's bytes in _CHUNK blocks, each with its pad: SHAKE-128 of the
    file's digest and the block number. XOR with the pads both encrypts and
    decrypts, so an entry can be read only by whoever holds the file's bytes."""
    for block, start in enumerate(range(0, data.size, _CHUNK)):
        part = data[start:start + _CHUNK]
        pad = hashlib.shake_128(digest + block.to_bytes(8, "little")).digest(part.size)
        yield part, np.frombuffer(pad, dtype=np.uint8)


def _cached_table(directory: Path, digest: bytes, width: int) -> np.ndarray | None:
    """The table stored under digest, or None if there is no valid one."""
    try:
        with open(_entry(directory, digest), "rb") as fh:
            if np.lib.format.read_magic(fh) != (1, 0):
                return None
            shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
            if dtype != np.float64 or fortran_order or len(shape) != 2 or shape[1] != width or shape[0] < 1:
                return None
            size = 8 * shape[0] * width
            # The size is checked before reading, so a damaged header cannot
            # ask for more memory than the entry holds.
            if os.fstat(fh.fileno()).st_size != fh.tell() + size:
                return None
            data = np.fromfile(fh, dtype=np.uint8, count=size)
    except (OSError, ValueError, EOFError):
        return None
    if data.size != size:
        return None
    for part, pad in _keystream(data, digest):
        part ^= pad
    return data.view(np.float64).reshape(shape)


def _store_table(digest: bytes, table: np.ndarray) -> None:
    """Write table, encrypted, as digest's entry, then delete the oldest
    entries past the budget."""
    directory = _cache_dir()
    if directory is None or table.nbytes > _CACHE_BUDGET:
        return
    try:
        fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=directory)
        try:
            with os.fdopen(fd, "wb") as fh:
                descr = np.lib.format.dtype_to_descr(table.dtype)
                np.lib.format.write_array_header_1_0(
                    fh, {"descr": descr, "fortran_order": False, "shape": table.shape}
                )
                data = np.ascontiguousarray(table).reshape(-1).view(np.uint8)
                for part, pad in _keystream(data, digest):
                    fh.write(part ^ pad)
            os.replace(tmp, _entry(directory, digest))
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
        with os.scandir(directory) as listing:
            entries = [
                (entry.stat().st_mtime_ns, entry.stat().st_size, entry.path)
                for entry in listing
                if entry.name.endswith((".npy", ".tmp"))
            ]
        total = 0
        for _, size, path in sorted(entries, reverse=True):
            total += size
            if total > _CACHE_BUDGET:
                os.unlink(path)
    except (OSError, ValueError):
        pass


def _read_header(reader: Iterator[list[str]], path: str, roles: RoleSpec) -> list[str]:
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path!r} is empty") from None
    header = [h.strip() for h in header]
    if len(set(header)) != len(header):
        dupe = next(h for h in header if header.count(h) > 1)
        raise DataError(f"duplicate column {dupe!r} in header")
    for name in roles.all_roles():
        if name not in header:
            raise DataError(f"role column {name!r} not found in header of {path!r}")
    return header


def _load_csv_reference(path: str, roles: RoleSpec, piped: bytes | None = None) -> Dataset:
    """Cell-by-cell parser: defines load_csv's result and all its row errors.
    Given piped, the bytes already read from path, it parses these."""
    with _open_csv(path, piped=piped) as fh:
        reader = csv.reader(fh)
        header = _read_header(reader, path, roles)
        data: list[list[float]] = [[] for _ in header]
        for rownum, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataError(
                    f"row {rownum}: expected {len(header)} cells, found {len(row)}"
                )
            for name, col, cell in zip(header, data, row):
                text = cell.strip()
                if not text:
                    raise DataError(f"row {rownum}, column {name!r}: empty cell")
                try:
                    value = float(text)
                except ValueError:
                    raise DataError(
                        f"row {rownum}, column {name!r}: non-numeric value {cell!r}"
                    ) from None
                if not math.isfinite(value):
                    raise DataError(
                        f"row {rownum}, column {name!r}: non-finite value {cell!r}"
                    )
                col.append(value)
    if not data[0]:
        raise DataError(f"{path!r} has a header but no data rows")
    return Dataset({name: np.array(col) for name, col in zip(header, data)}, roles)


def _fast_table(lines: Iterable[str], width: int) -> np.ndarray | None:
    """Parse the data lines in one np.loadtxt pass, or None to use the reference.

    The table is returned only when it must equal the reference parser's
    result: loadtxt accepted every cell, every value is finite, and each
    line gave exactly one row of width cells. loadtxt would skip blank
    lines, so whitespace-only lines (and inputs with no data line, on
    which loadtxt warns) are refused before it sees them; it joins lines
    inside a quoted cell, which the row count catches. Cells loadtxt
    refuses but float() accepts, such as "1_0", go to the reference parser.
    """
    count = 0

    def counted():
        nonlocal count
        for line in lines:
            if line.isspace():
                raise ValueError("blank line")
            count += 1
            yield line
        if count == 0:
            raise ValueError("no data lines")

    try:
        table = np.loadtxt(
            counted(), delimiter=",", comments=None, quotechar='"',
            dtype=np.float64, ndmin=2,
        )
    except ValueError:
        return None
    if table.shape != (count, width) or not np.isfinite(table).all():
        return None
    return table


def _not_utf8(exc: UnicodeDecodeError) -> str:
    """Why a file is not UTF-8: the bad byte and the decoder's reason. The
    position is left out; for a CSV it is an offset into a decoded block."""
    return f"not valid UTF-8 (byte 0x{exc.object[exc.start]:02x}: {exc.reason})"


def load_csv(path: str, roles: RoleSpec) -> Dataset:
    """Read a headered CSV into a Dataset.

    The first row is the header. Every cell must parse as a finite real
    number; empty, non-numeric, and non-finite cells raise DataError with
    the 1-based file row (header is row 1) and the column name.

    The file is read as UTF-8; bytes that do not decode raise DataError.
    Well-formed files are parsed in one vectorized pass; any file that pass
    cannot reproduce exactly is parsed again cell by cell, which also
    produces the error messages. A file that is not a regular one, such as
    a pipe, is read into memory first, and both passes read it there.

    The table the vectorized pass makes of a regular file is kept in
    $XDG_CACHE_HOME/dispdecomp (~/.cache/dispdecomp when that is unset),
    encrypted under the SHA-256 of the bytes it was parsed from, and a later
    call on the same bytes loads it in place of parsing; the result is the
    same Dataset. The header is read and checked from the file on every
    call. Pipes, files that the cell-by-cell parser reads and files that
    raise DataError leave no entry. Entries past _CACHE_BUDGET bytes are
    deleted oldest first. A cache directory that another user owns or may
    access is not used, and when the cache cannot be read or written the
    file is parsed as if there were none, without hashing it.
    """
    try:
        with _open_csv(path) as fh:
            # A pipe can be read only once, so its bytes are read into memory,
            # where both parsers read them, and it is not cached.
            piped = None if stat.S_ISREG(os.fstat(fh.fileno()).st_mode) else fh.buffer.read()
        with _open_csv(path, piped=piped) as fh:
            header = _read_header(csv.reader(fh), path, roles)
            directory = None if piped is not None else _cache_dir()
            if directory is None:
                table = _fast_table(fh, len(header))
            else:
                raw = fh.buffer.raw
                raw.seek(0)
                digest = hashlib.file_digest(raw, lambda: hashlib.sha256(_cache_tag())).digest()
                table = _cached_table(directory, digest, len(header))
        parsed = directory is not None and table is None
        if parsed:
            sha256 = hashlib.sha256(_cache_tag())
            with _open_csv(path, sha256) as fh:
                header = _read_header(csv.reader(fh), path, roles)
                table = _fast_table(fh, len(header))
            # The bytes parsed, which may differ from those hashed above.
            digest = sha256.digest()
        if table is None:
            return _load_csv_reference(path, roles, piped)
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot read {path!r}: {_not_utf8(exc)}") from exc
    data = Dataset({name: table[:, j] for j, name in enumerate(header)}, roles)
    if parsed:
        _store_table(digest, table)
    return data
