"""Byte-content synthesis for materialized datasets.

For every named specific type we can emit *real bytes* that (a) the
magic-number sniffer identifies as that type, (b) have the requested length,
and (c) compress roughly like the real thing (random bytes for the
incompressible fraction, repeated phrases for the rest). Distinct ``salt``
values produce distinct content, so unique file ids stay unique after
materialization.

The bytes are a pure function of ``(type_name, size, salt)``: a caller may
drop them and synthesize them again to get the same bytes, which is how the
materializer avoids holding every file of a hub at once. Filler comes from
whole-array NumPy draws (printable text is one gather from the alphabet),
with no per-byte Python loop.
"""

from __future__ import annotations

import hashlib
import posixpath

import numpy as np

_PRINTABLE = (
    b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 _-+=.,;:()[]{}"
)
_PRINTABLE_ARRAY = np.frombuffer(_PRINTABLE, np.uint8)

#: Binary magic prefixes per type (minimum viable header for the sniffer).
_BINARY_PREFIX: dict[str, bytes] = {
    "elf": b"\x7fELF\x02\x01\x01\x00" + b"\x00" * 8,
    "pe": b"MZ\x90\x00\x03\x00\x00\x00",
    "coff": b"\x4c\x01\x02\x00",
    "macho": b"\xcf\xfa\xed\xfe\x07\x00\x00\x01",
    "java_class": b"\xca\xfe\xba\xbe\x00\x00\x00\x37",
    "terminfo": b"\x1a\x01\x30\x00\x10\x00",
    "python_bytecode": b"\xa7\x0d\x0d\x0a\x00\x00\x00\x00",
    "deb": b"!<arch>\ndebian-binary   ",
    "rpm": b"\xed\xab\xee\xdb\x03\x00\x00\x00",
    "library": b"!<arch>\nlib.o/          ",
    "zip_gzip": b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x00\x03",
    "bzip2": b"BZh91AY&SY",
    "xz": b"\xfd7zXZ\x00\x00\x04",
    "png": b"\x89PNG\r\n\x1a\n\x00\x00\x00\rIHDR",
    "jpeg": b"\xff\xd8\xff\xe0\x00\x10JFIF\x00",
    "gif": b"GIF89a\x10\x00\x10\x00",
    "video": b"RIFF\x00\x10\x00\x00AVI LIST",
    "sqlite": b"SQLite format 3\x00",
    "mysql": b"\xfe\x01\x00\x00\x0a\x00",
    "berkeley_db": b"\x00" * 12 + b"\x00\x05\x31\x62",
    "data": b"\x00\x00\x00\x00",
}

#: Text-type leaders (shebangs / markup prologs / document openers).
_TEXT_PREFIX: dict[str, bytes] = {
    "python_script": b"#!/usr/bin/env python\n",
    "shell": b"#!/bin/sh\n",
    "ruby_script": b"#!/usr/bin/ruby\n",
    "perl_script": b"#!/usr/bin/perl\n",
    "php": b"<?php\n",
    "awk": b"#!/usr/bin/awk -f\n",
    "node_js": b"#!/usr/bin/env node\n",
    "tcl": b"#!/usr/bin/tclsh\n",
    "xml_html": b'<?xml version="1.0" encoding="UTF-8"?>\n<root>\n',
    "svg": b'<?xml version="1.0"?>\n<svg xmlns="http://www.w3.org/2000/svg">\n',
    "latex": b"\\documentclass{article}\n\\begin{document}\n",
    "pdf_ps": b"%PDF-1.4\n",
}

#: Phrase repeated to form the compressible portion of text files.
_PHRASE = b"the quick brown container ships another layer of files; "


def _rng_for(type_name: str, salt: int) -> np.random.Generator:
    digest = hashlib.sha256(f"{type_name}:{salt}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def _random_printable(rng: np.random.Generator, n: int) -> bytes:
    """*n* bytes drawn uniformly from :data:`_PRINTABLE` in one gather."""
    return _PRINTABLE_ARRAY[rng.integers(0, len(_PRINTABLE), n)].tobytes()


def _fill(
    rng: np.random.Generator, n: int, compress_ratio: float, *, text: bool
) -> bytes:
    """*n* filler bytes whose gzip footprint is roughly ``n/compress_ratio``.

    The compressible portion repeats a *per-file* phrase (base phrase + a
    salted token): repetition within the file keeps it compressible, while
    distinct files never share filler blocks — real files are internally
    redundant but not block-identical across unrelated content, and
    chunk-granularity dedup experiments depend on that distinction.
    """
    if n <= 0:
        return b""
    incompressible = int(n / max(compress_ratio, 1.0))
    rand = (
        _random_printable(rng, incompressible)
        if text
        else rng.bytes(incompressible)
    )
    phrase = _PHRASE + _random_printable(rng, 12) + b"; "
    pad = phrase * (max(0, n - incompressible) // len(phrase) + 1)
    out = rand + pad[: n - incompressible]
    return out


def synthesize_file_bytes(
    type_name: str, size: int, salt: int, compress_ratio: float = 2.0
) -> bytes:
    """Produce *size* bytes that classify as *type_name*.

    Sizes smaller than the type's magic header are rounded up to the header
    length (the caller should treat the returned length as authoritative).
    ``empty`` always returns ``b""``. Unknown/rare types synthesize as
    unidentifiable binary data.
    """
    if type_name == "empty":
        return b""
    rng = _rng_for(type_name, salt)

    if type_name == "tar":
        # handcrafted ustar header: magic at offset 257
        header = bytearray(512)
        name = f"member-{salt}".encode()[:100]
        header[: len(name)] = name
        header[257:262] = b"ustar"
        body = _fill(rng, max(size, 512) - 512, compress_ratio, text=False)
        return bytes(header) + body

    prefix = _BINARY_PREFIX.get(type_name)
    if prefix is not None:
        body = _fill(rng, max(size, len(prefix)) - len(prefix), compress_ratio, text=False)
        return prefix + body

    prefix = _TEXT_PREFIX.get(type_name, b"")
    body_len = max(size, len(prefix) + 1) - len(prefix)
    body = _fill(rng, body_len, compress_ratio, text=True)
    if type_name == "utf_text":
        return "é ".encode("utf-8") + body[: max(0, body_len - 3)]
    if type_name == "iso8859_text":
        return b"\xe9 " + body[: max(0, body_len - 2)]
    return prefix + body
