"""Unit tests for the magic-number sniffer."""

import gzip
import io
import tarfile
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.filetypes.classifier import classify_bytes
from repro.filetypes.magic import _SIGNATURES, _is_printable_text, sniff_bytes


def _tarball() -> bytes:
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w") as tar:
        info = tarfile.TarInfo("f")
        info.size = 1
        tar.addfile(info, io.BytesIO(b"x"))
    return buf.getvalue()


class TestBinarySignatures:
    @pytest.mark.parametrize(
        "data,expected",
        [
            (b"\x7fELF\x02\x01\x01" + b"\x00" * 64, "elf"),
            (b"MZ\x90\x00" + b"\x00" * 64, "pe"),
            (b"\xca\xfe\xba\xbe\x00\x00\x00\x34", "java_class"),
            (b"\x1a\x01\x30\x00", "terminfo"),
            (b"\xfe\xed\xfa\xcf" + b"\x00" * 16, "macho"),
            (b"\xcf\xfa\xed\xfe" + b"\x00" * 16, "macho"),
            (b"\xed\xab\xee\xdb\x03\x00", "rpm"),
            (b"!<arch>\ndebian-binary   123", "deb"),
            (b"!<arch>\nlibfoo.o/      ", "library"),
            (b"BZh91AY&SY", "bzip2"),
            (b"\xfd7zXZ\x00\x00", "xz"),
            (b"\x89PNG\r\n\x1a\n" + b"\x00" * 16, "png"),
            (b"\xff\xd8\xff\xe0\x00\x10JFIF", "jpeg"),
            (b"GIF89a\x01\x00", "gif"),
            (b"%PDF-1.4\n", "pdf_ps"),
            (b"%!PS-Adobe-3.0\n", "pdf_ps"),
            (b"SQLite format 3\x00" + b"\x00" * 32, "sqlite"),
            (b"\xfe\x01\x00\x00" + b"\x00" * 16, "mysql"),
            (b"RIFF\x24\x00\x00\x00AVI LIST", "video"),
            (b"\x00\x00\x01\xba\x44", "video"),
        ],
    )
    def test_signatures(self, data, expected):
        assert sniff_bytes(data) == expected

    def test_gzip_real_bytes(self):
        assert sniff_bytes(gzip.compress(b"payload")) == "zip_gzip"

    def test_zip_magic(self):
        assert sniff_bytes(b"PK\x03\x04" + b"\x00" * 16) == "zip_gzip"

    def test_tar_magic_at_offset(self):
        assert sniff_bytes(_tarball()) == "tar"

    def test_riff_wav_is_not_video(self):
        assert sniff_bytes(b"RIFF\x24\x00\x00\x00WAVEfmt ") != "video"

    def test_berkeley_db_offset_magic(self):
        data = b"\x00" * 12 + b"\x00\x05\x31\x62" + b"\x00" * 32
        assert sniff_bytes(data) == "berkeley_db"

    def test_python_bytecode(self):
        # CPython pyc: 2-byte version magic + b"\r\n" + metadata + marshal
        data = b"\xa7\x0d\x0d\x0a" + b"\x00" * 12 + zlib.compress(b"code")
        assert sniff_bytes(data) == "python_bytecode"


class TestShebangs:
    @pytest.mark.parametrize(
        "line,expected",
        [
            (b"#!/usr/bin/python\n", "python_script"),
            (b"#!/usr/bin/python3.9\n", "python_script"),
            (b"#!/usr/bin/env python\n", "python_script"),
            (b"#!/bin/sh\n", "shell"),
            (b"#!/bin/bash\n", "shell"),
            (b"#!/usr/bin/env zsh\n", "shell"),
            (b"#!/usr/bin/ruby2.5\n", "ruby_script"),
            (b"#!/usr/bin/perl -w\n", "perl_script"),
            (b"#!/usr/bin/php\n", "php"),
            (b"#!/usr/bin/awk -f\n", "awk"),
            (b"#!/usr/bin/gawk -f\n", "awk"),
            (b"#!/usr/bin/env node\n", "node_js"),
            (b"#!/usr/bin/tclsh8.6\n", "tcl"),
            (b"#!/usr/bin/wish\n", "tcl"),
            (b"#!/opt/weird/interp\n", "script_other"),
        ],
    )
    def test_interpreters(self, line, expected):
        assert sniff_bytes(line + b"body\n") == expected

    def test_bare_shebang(self):
        assert sniff_bytes(b"#!\n") == "shell"


class TestTextSniffing:
    def test_empty(self):
        assert sniff_bytes(b"") == "empty"

    def test_ascii(self):
        assert sniff_bytes(b"plain readme text\nwith lines\n") == "ascii_text"

    def test_utf8(self):
        assert sniff_bytes("naïve café\n".encode("utf-8")) == "utf_text"

    def test_utf16_bom(self):
        assert sniff_bytes("hello".encode("utf-16")) == "utf_text"

    def test_iso8859(self):
        assert sniff_bytes(b"caf\xe9 au lait\n") == "iso8859_text"

    def test_xml(self):
        assert sniff_bytes(b'<?xml version="1.0"?>\n<root/>') == "xml_html"

    def test_html(self):
        assert sniff_bytes(b"<!DOCTYPE html>\n<html></html>") == "xml_html"

    def test_svg_with_xml_prolog(self):
        assert sniff_bytes(b'<?xml version="1.0"?>\n<svg xmlns="x"></svg>') == "svg"

    def test_svg_bare(self):
        assert sniff_bytes(b'<svg xmlns="x"></svg>') == "svg"

    def test_php_tag(self):
        assert sniff_bytes(b"<?php echo 1; ?>") == "php"

    def test_latex(self):
        assert sniff_bytes(b"\\documentclass{article}\n") == "latex"

    def test_unidentified_binary_returns_none(self):
        assert sniff_bytes(b"\x00\x01\x02\x03\x04" * 10) is None


# -- the C-speed sniffer answers as the per-byte one did ------------------------------

_TEXT_CONTROL_OK = frozenset(b"\t\n\r\x0b\x0c")


def reference_is_printable_text(data: bytes, *, allow_high: bool = False) -> bool:
    """``magic._is_printable_text`` before it became a ``bytes.translate`` test."""
    sample = data[:4096]
    for byte in sample:
        if byte < 0x20 and byte not in _TEXT_CONTROL_OK:
            return False
        if byte == 0x7F:
            return False
        if byte >= 0x80 and not allow_high:
            return False
    return True


def reference_signature(data: bytes) -> str | None:
    """The signature scan of ``sniff_bytes`` when it compared slices."""
    for magic, offset, name in _SIGNATURES:
        if data[offset : offset + len(magic)] == magic:
            if name == "video" and magic == b"RIFF" and data[8:12] != b"AVI ":
                continue
            return name
    return None


E_ACUTE = "é".encode()

#: (content, what sniff_bytes said at the parent commit, what classify_bytes said)
PARENT_ANSWERS = [
    (b"a" * 5000 + b"\xe9", "iso8859_text", "iso8859_text"),
    (b"a" * 100 + b"\xe9" + b"a" * 10, "iso8859_text", "iso8859_text"),
    (b"a" * 5000 + E_ACUTE, "utf_text", "utf_text"),
    (b"a" * 4095 + E_ACUTE + b"a" * 10, "utf_text", "utf_text"),  # straddles 4096
    (b"a" * 4094 + "€".encode() + b"a" * 10, "utf_text", "utf_text"),
    (b"\xff\x00abc", None, "data"),
    (b"caf\xc3", "iso8859_text", "iso8859_text"),  # truncated UTF-8 sequence
    (b"abc\xc0\xaf", "iso8859_text", "iso8859_text"),  # overlong encoding
    (b"a" * 10 + b"\x01" + b"a" * 10, None, "data"),
    (b"a" * 5000 + b"\x01", "ascii_text", "ascii_text"),  # control past the sample
    (b"abc\x7fdef", None, "data"),
    (b"a\x0bb\x0cc\n", "ascii_text", "ascii_text"),
    (b"\xef\xbb\xbfhello", "utf_text", "utf_text"),
    (b"\xff\xfeh\x00i\x00", "utf_text", "utf_text"),
    (b"\xfe\xff\x00h\x00i", "utf_text", "utf_text"),
    (b"\xef\xbb\xbf\x00\x01", "utf_text", "utf_text"),  # a BOM wins outright
    (E_ACUTE * 3000 + b"\x00", "utf_text", "utf_text"),
    (E_ACUTE + b"\x00", None, "data"),
    (b"  <?XML version='1.0'?><a/>", "xml_html", "xml_html"),
    (b"<!DocType HTML><html>", "xml_html", "xml_html"),
    (b"<HTML><body>", "xml_html", "xml_html"),
    (b"<?xml version='1.0'?><SVG></SVG>", "svg", "svg"),
]


class TestSameAnswersAsThePerByteSniffer:
    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=6000), st.booleans())
    def test_printable_text_matches_reference(self, data, allow_high):
        assert _is_printable_text(data, allow_high=allow_high) == (
            reference_is_printable_text(data, allow_high=allow_high)
        )

    @pytest.mark.parametrize("byte", [0x00, 0x08, 0x0B, 0x0C, 0x0E, 0x1F, 0x20, 0x7E, 0x7F, 0x80, 0xFF])
    @pytest.mark.parametrize("at", [0, 4095, 4096])
    @pytest.mark.parametrize("allow_high", [False, True])
    def test_printable_text_byte_by_byte(self, byte, at, allow_high):
        data = b"x" * at + bytes([byte]) + b"x"
        assert _is_printable_text(data, allow_high=allow_high) == (
            reference_is_printable_text(data, allow_high=allow_high)
        )

    @pytest.mark.parametrize("data,sniffed,classified", PARENT_ANSWERS)
    def test_parent_answers(self, data, sniffed, classified):
        assert sniff_bytes(data) == sniffed
        assert classify_bytes("blob", data).name == classified

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(_SIGNATURES), st.binary(max_size=300), st.integers(-3, 3), st.integers(0, 24))
    def test_signatures_match_as_the_slice_comparison_did(self, signature, filler, shift, keep):
        magic, offset, _ = signature
        at = max(0, offset + shift)
        # the magic, whole or cut short, at or near its offset, or at the very end
        data = (filler.ljust(at, b"\0")[:at] + magic[:keep] + filler)[: at + 40]
        expected = reference_signature(data)
        if expected is not None:
            assert sniff_bytes(data) == expected
        else:
            assert sniff_bytes(data) not in {name for _, _, name in _SIGNATURES}
