"""Round-trip tests: synthesized bytes must classify as their type."""

import gzip

import numpy as np
import pytest

from repro.filetypes.classifier import classify_bytes
from repro.synth.content import _PRINTABLE, _random_printable, synthesize_file_bytes
from repro.synth.materialize import path_for_file

#: types whose content alone identifies them (magic/shebang/markup)
CONTENT_IDENTIFIED = [
    "elf", "pe", "coff", "macho", "java_class", "terminfo", "python_bytecode",
    "deb", "rpm", "library", "zip_gzip", "bzip2", "xz", "tar", "png", "jpeg",
    "gif", "video", "sqlite", "mysql", "berkeley_db", "python_script",
    "shell", "ruby_script", "perl_script", "php", "awk", "node_js", "tcl",
    "xml_html", "svg", "latex", "pdf_ps", "ascii_text", "utf_text",
    "iso8859_text", "empty", "data",
]

#: types that need their path (extension) to classify
PATH_IDENTIFIED = [
    "c_cpp", "perl5_module", "ruby_module", "pascal", "fortran",
    "applesoft_basic", "lisp_scheme", "makefile", "m4",
]


class TestRoundTrip:
    @pytest.mark.parametrize("type_name", CONTENT_IDENTIFIED)
    def test_content_identified(self, type_name):
        data = synthesize_file_bytes(type_name, 4096, salt=7)
        result = classify_bytes(path_for_file(7, type_name), data)
        assert result.name == type_name, f"{type_name} classified as {result.name}"

    @pytest.mark.parametrize("type_name", PATH_IDENTIFIED)
    def test_path_identified(self, type_name):
        data = synthesize_file_bytes(type_name, 2048, salt=7)
        result = classify_bytes(path_for_file(7, type_name), data)
        assert result.name == type_name, f"{type_name} classified as {result.name}"


class TestProperties:
    def test_empty_type_is_empty(self):
        assert synthesize_file_bytes("empty", 100, salt=1) == b""

    def test_distinct_salts_distinct_content(self):
        a = synthesize_file_bytes("elf", 1024, salt=1)
        b = synthesize_file_bytes("elf", 1024, salt=2)
        assert a != b

    def test_deterministic(self):
        a = synthesize_file_bytes("png", 512, salt=9)
        b = synthesize_file_bytes("png", 512, salt=9)
        assert a == b

    @pytest.mark.parametrize("size", [64, 1024, 100_000])
    def test_size_approximately_honored(self, size):
        data = synthesize_file_bytes("ascii_text", size, salt=3)
        assert abs(len(data) - size) <= 64

    def test_tiny_sizes_bumped_to_header(self):
        data = synthesize_file_bytes("elf", 2, salt=3)
        assert data[:4] == b"\x7fELF"

    def test_compressibility_tracks_ratio(self):
        compressible = synthesize_file_bytes("ascii_text", 100_000, salt=4, compress_ratio=4.0)
        incompressible = synthesize_file_bytes("zip_gzip", 100_000, salt=4, compress_ratio=1.03)
        r_high = len(compressible) / len(gzip.compress(compressible))
        r_low = len(incompressible) / len(gzip.compress(incompressible))
        assert r_high > 2.5
        assert r_low < 1.5


def per_byte_printable(rng: np.random.Generator, n: int) -> bytes:
    """The per-byte draw the gather replaced: the oracle it must equal."""
    idx = rng.integers(0, len(_PRINTABLE), n)
    return bytes(bytearray(_PRINTABLE[i] for i in idx))


class TestPrintableGather:
    @pytest.mark.parametrize("n", [0, 1, 77, 4096, 1 << 20])
    @pytest.mark.parametrize("seed", [0, 7, 2017])
    def test_equals_per_byte_draw(self, seed, n):
        """Same bytes as the per-byte oracle, and the generator is left in
        the same state, so every later draw of a file is unchanged too."""
        gathered, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        assert _random_printable(gathered, n) == per_byte_printable(oracle, n)
        assert gathered.bit_generator.state == oracle.bit_generator.state
