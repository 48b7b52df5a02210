"""Unit tests for the layer tarball codec."""

import gzip
import io
import tarfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.registry.tarball import (
    build_layer_tarball,
    extract_layer_tarball,
    layer_from_files,
)
from repro.util.digest import sha256_bytes


FILES = [
    ("usr/bin/tool", b"\x7fELF" + b"\x00" * 60),
    ("etc/config", b"key=value\n"),
    ("usr/lib/libx.so", b"\x7fELF" + b"\x01" * 30),
]


class TestRoundtrip:
    def test_extract_recovers_files(self):
        blob = build_layer_tarball(FILES)
        assert sorted(extract_layer_tarball(blob)) == sorted(FILES)

    def test_deterministic_blob(self):
        assert build_layer_tarball(FILES) == build_layer_tarball(list(reversed(FILES)))

    def test_empty_layer(self):
        blob = build_layer_tarball([])
        assert extract_layer_tarball(blob) == []

    def test_blob_is_gzip(self):
        blob = build_layer_tarball(FILES)
        assert blob[:2] == b"\x1f\x8b"

    def test_directory_entries_present_in_tar(self):
        blob = build_layer_tarball(FILES)
        raw = gzip.decompress(blob)
        with tarfile.open(fileobj=io.BytesIO(raw)) as tar:
            names = tar.getnames()
        assert "usr" in names and "usr/bin" in names

    @settings(max_examples=25)
    @given(
        st.dictionaries(
            st.text(
                alphabet="abcdefg/",
                min_size=1,
                max_size=20,
            ).filter(
                lambda p: not p.startswith("/")
                and not p.endswith("/")
                and "//" not in p
                and p not in (".", "..")
                and ".." not in p.split("/")
            ),
            st.binary(max_size=128),
            max_size=8,
        )
    )
    def test_roundtrip_property(self, mapping):
        files = sorted(mapping.items())
        assert sorted(extract_layer_tarball(build_layer_tarball(files))) == files


class TestExtraDirs:
    def test_distinct_extra_dirs_distinct_digests(self):
        a = build_layer_tarball([], extra_dirs=["var/empty1"])
        b = build_layer_tarball([], extra_dirs=["var/empty2"])
        assert a != b

    def test_extra_dirs_roundtrip_as_no_files(self):
        blob = build_layer_tarball([("f", b"x")], extra_dirs=["var/marker"])
        assert extract_layer_tarball(blob) == [("f", b"x")]

    def test_unsafe_extra_dir_rejected(self):
        with pytest.raises(ValueError):
            build_layer_tarball([], extra_dirs=["../escape"])
        with pytest.raises(ValueError):
            build_layer_tarball([], extra_dirs=["/abs"])

    def test_extra_dir_overlapping_parent_not_duplicated(self):
        import gzip
        import io
        import tarfile

        blob = build_layer_tarball([("usr/f", b"x")], extra_dirs=["usr"])
        with tarfile.open(fileobj=io.BytesIO(gzip.decompress(blob))) as tar:
            names = tar.getnames()
        assert names.count("usr") == 1


class TestSafety:
    def test_rejects_absolute_paths(self):
        with pytest.raises(ValueError):
            build_layer_tarball([("/etc/passwd", b"")])

    def test_rejects_dotdot(self):
        with pytest.raises(ValueError):
            build_layer_tarball([("a/../b", b"")])

    def test_extract_rejects_traversal(self):
        buf = io.BytesIO()
        with tarfile.open(fileobj=buf, mode="w") as tar:
            info = tarfile.TarInfo("../evil")
            info.size = 0
            tar.addfile(info, io.BytesIO(b""))
        gz = gzip.compress(buf.getvalue())
        with pytest.raises(ValueError):
            extract_layer_tarball(gz)

    def test_extract_skips_symlinks(self):
        buf = io.BytesIO()
        with tarfile.open(fileobj=buf, mode="w") as tar:
            link = tarfile.TarInfo("link")
            link.type = tarfile.SYMTYPE
            link.linkname = "target"
            tar.addfile(link)
        gz = gzip.compress(buf.getvalue())
        assert extract_layer_tarball(gz) == []


class TestLayerFromFiles:
    def test_layer_matches_blob(self):
        layer, blob = layer_from_files(FILES)
        assert layer.digest == sha256_bytes(blob)
        assert layer.compressed_size == len(blob)
        assert layer.file_count == 3
        assert layer.files_size == sum(len(c) for _, c in FILES)

    def test_entries_classified(self):
        layer, _ = layer_from_files(FILES)
        by_path = {e.path: e for e in layer.entries}
        from repro.filetypes import default_catalog

        catalog = default_catalog()
        assert catalog.by_code(by_path["usr/bin/tool"].type_code).name == "elf"
        assert catalog.by_code(by_path["etc/config"].type_code).name == "ascii_text"

    def test_entry_digests_are_content_digests(self):
        layer, _ = layer_from_files(FILES)
        by_path = {e.path: e for e in layer.entries}
        assert by_path["etc/config"].digest == sha256_bytes(b"key=value\n")

    def test_same_content_same_layer_digest(self):
        l1, _ = layer_from_files(FILES)
        l2, _ = layer_from_files(list(reversed(FILES)))
        assert l1.digest == l2.digest


def buffered_tarball(files, extra_dirs=None) -> bytes:
    """The buffered algorithm the streamed writer replaced: the whole raw
    tar built in memory, then gzip'd in one write. The oracle it must equal."""
    seen: set[str] = set()

    def add_dir(tar, dirname):
        if dirname not in seen:
            seen.add(dirname)
            info = tarfile.TarInfo(name=dirname + "/")
            info.type, info.mode, info.mtime = tarfile.DIRTYPE, 0o755, 0
            tar.addfile(info)

    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w") as tar:
        for dirname in sorted(extra_dirs or []):
            add_dir(tar, dirname)
        for path, content in sorted(files, key=lambda item: item[0]):
            parts = path.split("/")[:-1]
            for i in range(len(parts)):
                add_dir(tar, "/".join(parts[: i + 1]))
            info = tarfile.TarInfo(name=path)
            info.size, info.mode, info.mtime = len(content), 0o644, 0
            tar.addfile(info, io.BytesIO(content))
    gz = io.BytesIO()
    with gzip.GzipFile(fileobj=gz, mode="wb", mtime=0) as zf:
        zf.write(buf.getvalue())
    return gz.getvalue()


class TestStreamedEqualsBuffered:
    """Writing the tar straight into gzip must not change one blob byte."""

    CASES = {
        "no_files": ([], None),
        "extra_dirs_only": ([], ["var/empty3", "opt/marker"]),
        "nested_dirs": (
            [("a/b/c/d/deep.txt", b"deep"), ("a/b/side", b"s"), ("a/top", b"t")],
            None,
        ),
        "dup_path": ([("usr/bin/f", b"one"), ("dup1/usr/bin/f", b"one")], None),
        "zero_byte_file": ([("usr/lib/pkg/__init__.py", b""), ("etc/x", b"x")], None),
        "multi_chunk_file": ([("opt/big.bin", bytes(range(256)) * 300)], ["var/m"]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_blob_equals_buffered_reference(self, case):
        files, extra_dirs = self.CASES[case]
        expected = buffered_tarball(files, extra_dirs)
        assert build_layer_tarball(files, extra_dirs=extra_dirs) == expected
        assert build_layer_tarball(files[::-1], extra_dirs=extra_dirs) == expected
        layer, blob = layer_from_files(files[::-1], extra_dirs=extra_dirs)
        assert blob == expected and layer.digest == sha256_bytes(expected)
