"""Layer tarball codec: ``list[(path, bytes)]`` ⇄ gzip'd tar blobs.

Layers travel as gzip-compressed tar archives; digests are computed over the
compressed bytes (that digest is what manifests reference). Archive members
are written with zeroed timestamps and stable ordering so the same logical
content always produces the same digest — content addressing would be useless
otherwise.

Writing goes through the stdlib's ``tarfile``; reading is one streaming pass
(:func:`iter_layer_members`) that never holds the decompressed archive.
"""

from __future__ import annotations

import gzip
import io
import re
import struct
import tarfile
from typing import Callable, Iterator

from repro.filetypes.catalog import TypeCatalog, default_catalog
from repro.filetypes.classifier import classify_bytes
from repro.model.file_entry import FileEntry
from repro.model.layer import Layer
from repro.util.digest import sha256_bytes

#: Fixed gzip mtime so compression is deterministic.
_GZIP_MTIME = 0


def build_layer_tarball(
    files: list[tuple[str, bytes]], *, extra_dirs: list[str] | None = None
) -> bytes:
    """Pack ``(path, content)`` pairs into a deterministic gzip'd tarball.

    Parent directories get explicit entries (as ``docker save`` produces),
    ordered so every directory precedes its children. ``extra_dirs`` adds
    bare directory entries with no files — this is how two layers with zero
    files can still have distinct digests (the paper found 7 % of layers
    file-less, yet only one *canonical* empty layer shared en masse).

    Memory is bounded by one layer: the tar is written straight into the
    gzip stream, so besides *files* only the compressed blob is held — the
    uncompressed archive never exists as a whole.
    """
    return _pack(sorted(files, key=_path_of), extra_dirs)


def _path_of(item: tuple[str, bytes]) -> str:
    return item[0]


def _check_path(path: str) -> None:
    if path.startswith("/") or ".." in path.split("/"):
        raise ValueError(f"unsafe tar path: {path!r}")


def _add_dir(tar: tarfile.TarFile, seen_dirs: set[str], dirname: str) -> None:
    """Write a directory entry for *dirname* unless one was written."""
    if dirname not in seen_dirs:
        seen_dirs.add(dirname)
        dir_info = tarfile.TarInfo(name=dirname + "/")
        dir_info.type = tarfile.DIRTYPE
        dir_info.mode = 0o755
        dir_info.mtime = 0
        tar.addfile(dir_info)


def _pack(files: list[tuple[str, bytes]], extra_dirs: list[str] | None) -> bytes:
    """:func:`build_layer_tarball` of *files* already sorted by path."""
    seen_dirs: set[str] = set()
    gz = io.BytesIO()
    with (
        gzip.GzipFile(fileobj=gz, mode="wb", mtime=_GZIP_MTIME) as zf,
        tarfile.open(fileobj=zf, mode="w") as tar,
    ):
        for dirname in sorted(extra_dirs or []):
            _check_path(dirname)
            _add_dir(tar, seen_dirs, dirname)
        for path, content in files:
            _check_path(path)
            parts = path.split("/")[:-1]
            for i in range(len(parts)):
                _add_dir(tar, seen_dirs, "/".join(parts[: i + 1]))
            info = tarfile.TarInfo(name=path)
            info.size = len(content)
            info.mode = 0o644
            info.mtime = 0
            tar.addfile(info, io.BytesIO(content))
    return gz.getvalue()


class LayerFormatError(ValueError):
    """A layer's tar stream is malformed, truncated, unsafe or of a kind we cannot size."""


_BLOCK = 512
_END_MARKER = bytes(_BLOCK)
_FILE_KINDS = (b"0", b"\0", b"7")
#: link, symlink, char/block device, directory, fifo: a header and no data
#: blocks, whatever the size field says (a hard link may repeat its target's)
_HEADER_ONLY_KINDS = (b"1", b"2", b"3", b"4", b"5", b"6")
_PAX_RECORD = re.compile(rb"(\d+) ([^=]+)=")


def _text(field: bytes) -> str:
    return field.split(b"\0", 1)[0].decode("utf-8", "surrogateescape")


def _number(field: bytes) -> int:
    try:  # octal only: GNU base-256 is for members past 8 GiB, a blob in memory has none
        return int(field.split(b"\0", 1)[0].strip() or b"0", 8)
    except ValueError:
        raise LayerFormatError(f"bad number in tar header: {field!r}") from None


def _read_blocks(read: Callable[[int], bytes], size: int) -> bytes:
    """Read *size* bytes and the padding up to the next block boundary."""
    padding = -size % _BLOCK
    if size < 0 or len(data := read(size)) != size or len(read(padding)) != padding:
        raise LayerFormatError("truncated tar member")
    return data


def _pax_records(data: bytes) -> dict[str, str]:
    """The ``path`` and ``size`` records of a pax extended header."""
    records: dict[str, str] = {}
    pos = 0
    while match := _PAX_RECORD.match(data, pos):
        length, key = int(match[1]), match[2]
        if length == 0:
            raise LayerFormatError("zero-length pax record")
        if key.startswith(b"GNU.sparse."):
            raise LayerFormatError("sparse tar members are not supported")
        if key in (b"path", b"size"):
            value = _text(data[match.end() : pos + length - 1])
            if key == b"size" and not value.isdigit():
                raise LayerFormatError(f"bad pax size: {value!r}")
            records[key.decode()] = value.rstrip("/") if key == b"path" else value
        pos += length
    return records


def iter_layer_members(blob: bytes) -> Iterator[tuple[str, bytes | None]]:
    """Walk a gzip'd layer tarball once, yielding each member as it is read.

    Regular files come as ``(path, content)``, directories as ``(path, None)``,
    in archive order; links, devices and fifos are skipped. The decompressed
    tar is never held: ``GzipFile`` is read one header or one body at a time
    (CRC-32, length, concatenated gzip members and trailing garbage stay the
    stdlib's checks) and drained past the tar end marker so the trailer is
    verified. Names resolve as ``tarfile`` resolves them (ustar prefix, GNU
    ``L``, pax ``x``/``g`` ``path`` and ``size``); unsafe members (absolute
    paths, ``..``) are rejected rather than silently skipped.
    """
    with gzip.GzipFile(fileobj=io.BytesIO(blob), mode="rb") as zf:
        read = zf.read
        global_pax: dict[str, str] = {}
        pending: dict[str, str] = {}  # from L and x headers, for the next member
        while (header := read(_BLOCK)) and header != _END_MARKER:
            if len(header) != _BLOCK:
                raise LayerFormatError("truncated tar header")
            checksum = _number(header[148:156])
            # NULs are most of a header and add nothing to the sum
            unsigned = sum(header.translate(None, b"\0")) - sum(header[148:156])
            if checksum != 256 + unsigned and (
                checksum != 256 + sum(struct.unpack_from("148b8x356b", header))
            ):
                raise LayerFormatError("bad tar header checksum")
            kind = header[156:157]
            size = _number(header[124:136])
            if kind in (b"S", b"M"):
                raise LayerFormatError(f"unsupported tar member kind {kind!r}")
            if kind in (b"L", b"K", b"x", b"X", b"g"):
                data = _read_blocks(read, size)
                if kind == b"g":
                    global_pax.update(_pax_records(data))
                elif kind != b"K":  # as in tarfile, the first header to name a field wins
                    found = {"path": _text(data)} if kind == b"L" else _pax_records(data)
                    pending = {**found, **pending}
                continue

            extended = {**global_pax, **pending}
            pending = {}
            name = _text(header[0:100])
            if kind == b"\0" and name.endswith("/"):
                kind = b"5"  # V7: a directory is a regular file named "dir/"
            if prefix := _text(header[345:500]):
                name = prefix + "/" + name
            name = extended.get("path", name)
            if kind == b"5":
                name = name.rstrip("/")
            size = int(extended.get("size", size))
            path = name[2:] if name.startswith("./") else name
            if path.startswith("/") or ".." in path.split("/"):
                raise LayerFormatError(f"unsafe tar member: {name!r}")
            if kind == b"5":
                yield path, None
            elif kind not in _HEADER_ONLY_KINDS:
                content = _read_blocks(read, size)
                if kind in _FILE_KINDS:  # data of an unknown kind is read and dropped
                    yield path, content
        while read(1 << 16):
            pass


def iter_layer_files(blob: bytes) -> Iterator[tuple[str, bytes]]:
    """The regular files of a layer tarball, one ``(path, content)`` at a time."""
    return (member for member in iter_layer_members(blob) if member[1] is not None)


def extract_layer_tarball(blob: bytes) -> list[tuple[str, bytes]]:
    """Unpack a gzip'd layer tarball back into ``(path, content)`` pairs."""
    return list(iter_layer_files(blob))


def layer_from_files(
    files: list[tuple[str, bytes]],
    catalog: TypeCatalog | None = None,
    *,
    extra_dirs: list[str] | None = None,
) -> tuple[Layer, bytes]:
    """Build a :class:`Layer` (with classified entries) and its tarball blob.

    This is the producer-side path: the materializer uses it to push layers
    into a registry. The returned layer's digest/compressed_size describe the
    returned blob.
    """
    catalog = catalog or default_catalog()
    files = sorted(files, key=_path_of)
    blob = _pack(files, extra_dirs)
    entries = [
        FileEntry(
            path=path,
            size=len(content),
            digest=sha256_bytes(content),
            type_code=classify_bytes(path, content, catalog).code,
        )
        for path, content in files
    ]
    layer = Layer(
        digest=sha256_bytes(blob),
        entries=entries,
        compressed_size=len(blob),
    )
    return layer, blob
