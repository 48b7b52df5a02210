"""Unit tests for layer extraction and profiling."""

import random
import tracemalloc

import pytest

from repro.analyzer.extract import extract_and_profile
from repro.filetypes import default_catalog
from repro.registry.tarball import build_layer_tarball
from repro.util.digest import sha256_bytes

FILES = [
    ("usr/bin/tool", b"\x7fELF" + b"\x00" * 200),
    ("usr/lib/libz.so", b"\x7fELF" + b"\x01" * 100),
    ("etc/app/config.txt", b"key = value\n"),
    ("opt/a/b/c/deep.py", b"#!/usr/bin/env python\nprint()\n"),
]


@pytest.fixture(scope="module")
def profile():
    blob = build_layer_tarball(FILES)
    return extract_and_profile(sha256_bytes(blob), blob)


class TestLayerMetadata:
    def test_counts(self, profile):
        assert profile.file_count == 4
        # usr, usr/bin, usr/lib, etc, etc/app, opt, opt/a, opt/a/b, opt/a/b/c
        assert profile.directory_count == 9

    def test_sizes(self, profile):
        assert profile.files_size == sum(len(c) for _, c in FILES)
        assert profile.compressed_size > 0

    def test_max_depth(self, profile):
        assert profile.max_depth == 4  # opt/a/b/c/deep.py

    def test_compression_ratio(self, profile):
        assert profile.compression_ratio == pytest.approx(
            profile.files_size / profile.compressed_size
        )


class TestFileRecords:
    def test_digests_are_content_hashes(self, profile):
        by_path = {r.path: r for r in profile.files}
        assert by_path["etc/app/config.txt"].digest == sha256_bytes(b"key = value\n")

    def test_types_identified(self, profile):
        catalog = default_catalog()
        by_path = {r.path: r for r in profile.files}
        assert catalog.by_code(by_path["usr/bin/tool"].type_code).name == "elf"
        assert catalog.by_code(by_path["opt/a/b/c/deep.py"].type_code).name == "python_script"
        assert catalog.by_code(by_path["etc/app/config.txt"].type_code).name == "ascii_text"


class TestDirectoryRecords:
    def test_all_ancestors_recorded(self, profile):
        paths = {d.path for d in profile.directories}
        assert {"usr", "usr/bin", "opt/a/b/c", "etc/app"} <= paths

    def test_per_directory_file_counts(self, profile):
        by_path = {d.path: d for d in profile.directories}
        assert by_path["usr/bin"].file_count == 1
        assert by_path["usr"].file_count == 0  # files live in subdirs

    def test_depths(self, profile):
        by_path = {d.path: d for d in profile.directories}
        assert by_path["usr"].depth == 1
        assert by_path["opt/a/b/c"].depth == 4


class TestEmptyLayer:
    def test_empty_profile(self):
        blob = build_layer_tarball([])
        profile = extract_and_profile(sha256_bytes(blob), blob)
        assert profile.file_count == 0
        assert profile.files_size == 0
        assert profile.directory_count == 0
        assert profile.max_depth == 0
        assert profile.compressed_size == len(blob)


class TestBoundedMemory:
    def test_peak_is_one_member_not_the_layer(self):
        """The walk holds a member at a time: 16 MiB of incompressible files
        profile in the blob plus a couple of members, where holding the
        decompressed tar and every body took over 32 MiB."""
        rng = random.Random(14)
        member = 256 * 1024
        files = [(f"data/blob{i:02d}.bin", rng.randbytes(member)) for i in range(64)]
        blob = build_layer_tarball(files)
        expected = [(path, sha256_bytes(content)) for path, content in files]
        del files
        tracemalloc.start()
        try:
            profile = extract_and_profile(sha256_bytes(blob), blob)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [(f.path, f.digest) for f in profile.files] == expected
        assert profile.files_size == 64 * member
        assert peak < len(blob) + 2 * member + (1 << 20)
