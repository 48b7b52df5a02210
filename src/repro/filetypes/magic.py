"""Magic-number sniffing, the way ``file(1)`` identifies content.

:func:`sniff_bytes` inspects the first bytes of a file (binary signatures,
shebang lines, text-encoding heuristics) and returns a specific-type *name*
from the catalog, or ``None`` when nothing matches (the classifier then falls
back to extension rules).

Only a prefix of the content is needed; callers can pass the first few KiB of
a large file. The one exception is tar, whose "ustar" magic sits at offset
257 — pass at least 512 bytes to detect tarballs.
"""

from __future__ import annotations

import re

#: (magic bytes, offset, type name) — checked in order; first hit wins.
#: Longer/stricter signatures come before shorter ones that would shadow them
#: (e.g. deb's "!<arch>\ndebian-binary" before plain ar "!<arch>\n").
_SIGNATURES: list[tuple[bytes, int, str]] = [
    (b"\x7fELF", 0, "elf"),
    (b"!<arch>\ndebian-binary", 0, "deb"),
    (b"\xed\xab\xee\xdb", 0, "rpm"),
    (b"!<arch>\n", 0, "library"),  # ar static library
    (b"\xca\xfe\xba\xbe", 0, "java_class"),
    (b"\x1a\x01", 0, "terminfo"),
    (b"MZ", 0, "pe"),
    (b"\x4c\x01", 0, "coff"),  # i386 COFF object
    (b"\xfe\xed\xfa\xce", 0, "macho"),
    (b"\xfe\xed\xfa\xcf", 0, "macho"),
    (b"\xce\xfa\xed\xfe", 0, "macho"),
    (b"\xcf\xfa\xed\xfe", 0, "macho"),
    (b"\x1f\x8b", 0, "zip_gzip"),  # gzip
    (b"PK\x03\x04", 0, "zip_gzip"),  # zip
    (b"PK\x05\x06", 0, "zip_gzip"),  # empty zip
    (b"BZh", 0, "bzip2"),
    (b"\xfd7zXZ\x00", 0, "xz"),
    (b"ustar", 257, "tar"),
    (b"\x89PNG\r\n\x1a\n", 0, "png"),
    (b"\xff\xd8\xff", 0, "jpeg"),
    (b"GIF87a", 0, "gif"),
    (b"GIF89a", 0, "gif"),
    (b"%PDF-", 0, "pdf_ps"),
    (b"%!PS", 0, "pdf_ps"),
    (b"SQLite format 3\x00", 0, "sqlite"),
    (b"\xfe\x01", 0, "mysql"),  # MySQL .frm table definition
    (b"RIFF", 0, "video"),  # AVI container (RIFF....AVI ; refined below)
    (b"\x00\x00\x01\xba", 0, "video"),  # MPEG program stream
    (b"\x00\x00\x01\xb3", 0, "video"),  # MPEG video stream
]

#: Berkeley DB magic numbers appear at offset 12 (btree 0x053162, hash
#: 0x061561), stored in either byte order.
_BDB_MAGICS = {
    b"\x62\x31\x05\x00",
    b"\x00\x05\x31\x62",
    b"\x61\x15\x06\x00",
    b"\x00\x06\x15\x61",
}

#: Python .pyc files start with a version-specific 2-byte magic followed by
#: b"\r\n" — that trailing pair is the stable part across CPython versions.
def _is_python_bytecode(data: bytes) -> bool:
    return len(data) >= 4 and data[2:4] == b"\r\n" and data[:2] != b"\x00\x00"


_SHEBANG_INTERPRETERS: list[tuple[re.Pattern[bytes], str]] = [
    (re.compile(rb"python[0-9.]*$"), "python_script"),
    (re.compile(rb"(ba|da|a|z|k)?sh$"), "shell"),
    (re.compile(rb"ruby[0-9.]*$"), "ruby_script"),
    (re.compile(rb"perl[0-9.]*$"), "perl_script"),
    (re.compile(rb"php[0-9.]*$"), "php"),
    (re.compile(rb"[gmn]?awk$"), "awk"),
    (re.compile(rb"node(js)?$"), "node_js"),
    (re.compile(rb"(tcl|wi)sh[0-9.]*$"), "tcl"),
]


def _sniff_shebang(data: bytes) -> str | None:
    if not data.startswith(b"#!"):
        return None
    line = data[2:256].split(b"\n", 1)[0].strip()
    parts = line.split()
    if not parts:
        return "shell"
    interp = parts[0].rsplit(b"/", 1)[-1]
    # "#!/usr/bin/env python3" puts the interpreter in the first argument.
    if interp == b"env" and len(parts) > 1:
        interp = parts[1].rsplit(b"/", 1)[-1]
    for pattern, name in _SHEBANG_INTERPRETERS:
        if pattern.match(interp):
            return name
    return "script_other"


#: matched against the lower-cased start of the content
_XML_PREFIXES = (b"<?xml", b"<!doctype html", b"<html")


def _sniff_text(data: bytes) -> str | None:
    """Identify markup / text encodings on content that has no binary magic."""
    stripped = data.lstrip()
    if stripped.startswith(b"<?php"):
        return "php"
    lowered = stripped[:64].lower()
    if lowered.startswith(_XML_PREFIXES):
        # An XML prolog may introduce an SVG document.
        if b"<svg" in data[:2048].lower():
            return "svg"
        return "xml_html"
    if stripped.startswith(b"<svg"):
        return "svg"
    if stripped.startswith(b"\\documentclass") or stripped.startswith(b"\\begin{document}"):
        return "latex"
    # Encoding sniffing, in decreasing specificity.
    if data.startswith(b"\xef\xbb\xbf") or data.startswith(b"\xff\xfe") or data.startswith(b"\xfe\xff"):
        return "utf_text"
    if data.isascii():
        return "ascii_text" if _is_printable_text(data) else None
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        pass
    else:
        return "utf_text" if _is_printable_text(data, allow_high=True) else None
    # High bytes that are not valid UTF-8: call it ISO-8859 if it otherwise
    # looks like text (the same leap file(1) makes).
    if _is_printable_text(data, allow_high=True):
        return "iso8859_text"
    return None


#: whitespace controls and printable ASCII; with ``allow_high``, 0x80-0xFF too
_TEXT_BYTES = b"\t\n\r\x0b\x0c" + bytes(range(0x20, 0x7F))
_TEXT_BYTES_HIGH = _TEXT_BYTES + bytes(range(0x80, 0x100))


def _is_printable_text(data: bytes, *, allow_high: bool = False) -> bool:
    """True when *data* contains no control bytes other than whitespace."""
    allowed = _TEXT_BYTES_HIGH if allow_high else _TEXT_BYTES
    return not data[:4096].translate(None, allowed)


def sniff_bytes(data: bytes) -> str | None:
    """Return the specific-type name for *data*, or None when unidentified.

    Empty content maps to ``"empty"``. Pass at least 512 bytes when tar
    detection matters (its magic is at offset 257).
    """
    if len(data) == 0:
        return "empty"
    for magic, offset, name in _SIGNATURES:
        if data.startswith(magic, offset):
            if name == "video" and magic == b"RIFF" and data[8:12] != b"AVI ":
                continue  # RIFF that isn't AVI (e.g. WAV) — keep looking
            return name
    if len(data) >= 16 and data[12:16] in _BDB_MAGICS:
        return "berkeley_db"
    if _is_python_bytecode(data) and not _is_printable_text(data, allow_high=True):
        return "python_bytecode"
    shebang = _sniff_shebang(data)
    if shebang is not None:
        return shebang
    return _sniff_text(data)
