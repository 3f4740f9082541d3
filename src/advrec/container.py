"""Deterministic single-file container for named arrays plus JSON metadata.

Layout: magic, 8-byte little-endian header length, UTF-8 JSON header, then
the raw C-order bytes of every array in sorted name order. No timestamps
and sorted keys throughout, so identical content produces identical bytes.
Files are written atomically (temp file then rename) by :func:`atomic_open`,
which every file the package writes goes through.
"""

from __future__ import annotations

import contextlib
import json
import math
import os

import numpy as np

from .errors import DataError

MAGIC = b"ADVREC1\n"
FORMAT_VERSION = 1

_ALLOWED_DTYPES = ("<f8", "<i8", "|b1")  # a tuple, so that any JSON value can be tested against it
_ENTRY_KEYS = {"name", "dtype", "shape", "offset", "nbytes"}


def make_dirs(directory: str) -> None:
    """``os.makedirs(directory, exist_ok=True)``; an ``OSError`` becomes a
    ``DataError`` that names ``directory``."""
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError as err:
        raise DataError(f"cannot make directory {directory!r}: {err}") from None


@contextlib.contextmanager
def atomic_open(path: str, mode: str = "w"):
    """A temporary file beside ``path`` that replaces it when the block ends,
    and is removed if the block fails. Text is UTF-8, newlines as written.
    The file's mode follows the umask, as with ``open``, and an ``OSError``
    becomes a ``DataError`` that names ``path``."""
    directory = os.path.dirname(os.path.abspath(path))
    make_dirs(directory)
    tmp = os.path.join(directory, f"tmp{os.urandom(8).hex()}.tmp")  # a unique sibling, created with O_EXCL
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        with os.fdopen(fd, mode, **({} if "b" in mode else {"encoding": "utf-8", "newline": ""})) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as err:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(err, OSError):
            raise DataError(f"cannot write {path!r}: {err}") from None
        raise


def save_container(path: str, arrays: dict[str, np.ndarray], meta: dict | None = None) -> None:
    entries = []
    contiguous = []
    offset = 0
    for name in sorted(arrays):
        arr = np.asarray(arrays[name], order="C")  # unlike ascontiguousarray, keeps a 0-d shape
        dtype = arr.dtype.str
        if dtype not in _ALLOWED_DTYPES:
            raise DataError(f"container does not store dtype {dtype} (array {name!r})")
        entries.append(
            {"name": name, "dtype": dtype, "shape": list(arr.shape), "offset": offset, "nbytes": arr.nbytes}
        )
        contiguous.append(arr)
        offset += arr.nbytes
    header = {"format_version": FORMAT_VERSION, "meta": meta or {}, "arrays": entries}
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")

    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(len(header_bytes).to_bytes(8, "little"))
        fh.write(header_bytes)
        for arr in contiguous:
            fh.write(_bytes_of(arr))


def _bytes_of(arr: np.ndarray) -> np.ndarray:
    """The bytes of the C-contiguous ``arr`` as a flat uint8 view, which shares its memory."""
    return arr.reshape(-1).view(np.uint8)


def _checked_header(path: str, raw: bytes) -> dict:
    """The header of the container at ``path``, checked so that reading the
    arrays it lists can fail only on a truncated payload."""
    try:
        header = json.loads(raw.decode("utf-8"))
    except ValueError as err:  # UnicodeDecodeError and JSONDecodeError
        raise DataError(f"{path}: container header is not UTF-8 JSON ({err})") from None
    if not isinstance(header, dict):
        raise DataError(f"{path}: container header is not a JSON object")
    if header.get("format_version") != FORMAT_VERSION:
        raise DataError(f"{path}: unsupported container version {header.get('format_version')}")
    if not isinstance(header.get("meta"), dict) or not isinstance(header.get("arrays"), list):
        raise DataError(f"{path}: container header lacks its 'meta' object or 'arrays' list")
    for entry in header["arrays"]:
        if not (isinstance(entry, dict) and _ENTRY_KEYS <= entry.keys()):
            raise DataError(f"{path}: container entry {entry!r} lacks one of {sorted(_ENTRY_KEYS)}")
        name, dtype, shape = entry["name"], entry["dtype"], entry["shape"]
        if not (isinstance(name, str) and isinstance(shape, list)
                and all(isinstance(n, int) and n >= 0 for n in [*shape, entry["offset"]])):
            raise DataError(f"{path}: container entry {entry!r} needs a name string and counts as shape and offset")
        if dtype not in _ALLOWED_DTYPES:
            raise DataError(f"{path}: array {name!r} has dtype {dtype!r}, not one of {_ALLOWED_DTYPES}")
        size = math.prod(shape) * np.dtype(dtype).itemsize
        if entry["nbytes"] != size:
            raise DataError(f"{path}: array {name!r} records {entry['nbytes']!r} bytes, "
                            f"where shape {shape} of {dtype} takes {size}")
    return header


def load_container(path: str) -> tuple[dict[str, np.ndarray], dict]:
    """The arrays and the metadata of the container at ``path``. Each array
    is read straight into its own new, writeable array. A file that cannot
    be opened fails with a ``DataError`` that names it."""
    arrays = {}
    try:
        fh = open(path, "rb")
    except OSError as err:
        raise DataError(f"cannot read {path!r}: {err}") from None
    with fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise DataError(f"{path}: not a recognized container file")
        header_len = int.from_bytes(fh.read(8), "little")
        size = os.fstat(fh.fileno()).st_size
        # checked before reading, so that a corrupt length cannot ask for more memory than the file holds
        if header_len > size - fh.tell():
            raise DataError(f"{path}: container header length {header_len} runs past the end of the file")
        header = _checked_header(path, fh.read(header_len))
        payload_start = fh.tell()
        for entry in header["arrays"]:
            start = payload_start + entry["offset"]
            # checked before allocating, so that a corrupt shape cannot ask for more memory than the file holds
            if start + entry["nbytes"] > size:
                raise DataError(f"{path}: truncated array {entry['name']!r}")
            arr = np.empty(entry["shape"], dtype=np.dtype(entry["dtype"]))
            fh.seek(start)
            fh.readinto(_bytes_of(arr))
            arrays[entry["name"]] = arr
    return arrays, header["meta"]
