"""The streaming walker's contract: it reads what the stdlib's ``tarfile`` reads.

The oracle is the reader this module replaced (whole-buffer gunzip, then
``tarfile.getmembers``), kept here verbatim. Archives are written by
``tarfile`` itself in all three formats, so every header layout the stdlib
can produce is covered; the failure cases pin what the walker adds on top
(a typed error, and every gzip check kept).
"""

import gzip
import io
import tarfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyzer.shard import LayerShard, profile_shard
from repro.registry.tarball import (
    LayerFormatError,
    build_layer_tarball,
    extract_layer_tarball,
    iter_layer_files,
    iter_layer_members,
)
from repro.util.digest import sha256_bytes

FORMATS = (tarfile.USTAR_FORMAT, tarfile.GNU_FORMAT, tarfile.PAX_FORMAT)


# -- the oracle: the parent commit's readers, verbatim -------------------------------


def reference_extract(blob: bytes) -> list[tuple[str, bytes]]:
    out: list[tuple[str, bytes]] = []
    with gzip.GzipFile(fileobj=io.BytesIO(blob), mode="rb") as zf:
        raw = zf.read()
    with tarfile.open(fileobj=io.BytesIO(raw), mode="r") as tar:
        for member in tar.getmembers():
            name = member.name
            if name.startswith("./"):
                name = name[2:]
            if name.startswith("/") or ".." in name.split("/"):
                raise ValueError(f"unsafe tar member: {member.name!r}")
            if member.isdir():
                continue
            if not member.isfile():
                continue  # devices/symlinks out of scope for the analysis
            handle = tar.extractfile(member)
            content = handle.read() if handle is not None else b""
            out.append((name, content))
    return out


def reference_directories(blob: bytes) -> list[str]:
    """Every directory member's name, read through the stdlib ``tarfile``."""
    with gzip.GzipFile(fileobj=io.BytesIO(blob), mode="rb") as zf:
        raw = zf.read()
    out: list[str] = []
    with tarfile.open(fileobj=io.BytesIO(raw), mode="r") as tar:
        for member in tar.getmembers():
            if member.isdir():
                out.append(member.name.rstrip("/"))
    return out


def assert_same_as_reference(blob: bytes) -> None:
    try:
        expected = reference_extract(blob)
    except ValueError:
        with pytest.raises(LayerFormatError):
            list(iter_layer_members(blob))
        return
    members = list(iter_layer_members(blob))
    assert [m for m in members if m[1] is not None] == expected
    assert extract_layer_tarball(blob) == expected
    # the walker gives directories the one "./" strip that files always had
    assert [path for path, content in members if content is None] == [
        d[2:] if d.startswith("./") else d for d in reference_directories(blob)
    ]


# -- archives written by the stdlib --------------------------------------------------

#: ASCII, "/" and "." (so "./x", "a//b" and ".." turn up), non-ASCII, and
#: surrogate escapes (names that were not UTF-8 on disk)
_NAME_ALPHABET = st.sampled_from("abcXYZ019-_ ./éß日\udc80\udcff")
NAMES = st.one_of(
    st.text(_NAME_ALPHABET, min_size=1, max_size=300),
    st.lists(st.text("abcé", min_size=1, max_size=70), min_size=1, max_size=5).map("/".join),
    st.lists(st.text("ab", min_size=1, max_size=40), min_size=1, max_size=4).map(
        lambda parts: "./" + "/".join(parts)
    ),
)
CONTENTS = st.one_of(
    st.binary(max_size=600),
    st.sampled_from([0, 1, 511, 512, 513, 1023, 1024, 1025, 1536]).map(
        lambda n: bytes(i * 31 % 251 for i in range(n))
    ),
)
#: kind, or "v7dir" (type "\0", name ending in "/") / "dir/" (explicit slash)
KINDS = st.sampled_from(
    ["file", "file", "file", "dir", "dir/", "v7dir", "symlink", "hardlink", "chr", "blk", "fifo", "cont"]
)
MEMBERS = st.lists(st.tuples(KINDS, NAMES, CONTENTS, st.booleans()), max_size=8)


def write_archive(members, fmt: int, pax_headers=None) -> bytes:
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w", format=fmt, pax_headers=pax_headers) as tar:
        for kind, name, content, float_mtime in members:
            info = tarfile.TarInfo(name)
            if float_mtime:
                info.mtime = 1.5  # pax: an x header that carries no path
            data = None
            if kind in ("file", "cont"):
                info.type = tarfile.REGTYPE if kind == "file" else tarfile.CONTTYPE
                info.size = len(content)
                data = io.BytesIO(content)
            elif kind in ("dir", "dir/"):
                info.type = tarfile.DIRTYPE
                info.name = name.rstrip("/") + ("/" if kind == "dir/" else "")
            elif kind == "v7dir":
                info.type = tarfile.AREGTYPE
                info.name = name.rstrip("/") + "/"
            elif kind == "symlink":
                info.type = tarfile.SYMTYPE
                info.linkname = name * 2  # past 100 chars: GNU "K", pax linkpath
            elif kind == "hardlink":
                info.type = tarfile.LNKTYPE
                info.linkname = "target"
                info.size = len(content) + 700  # a size, and no data blocks
            else:
                info.type = {"chr": tarfile.CHRTYPE, "blk": tarfile.BLKTYPE, "fifo": tarfile.FIFOTYPE}[kind]
            try:
                tar.addfile(info, data)
            except ValueError:
                pass  # ustar cannot hold this name; nothing was written
    return gzip.compress(buf.getvalue(), 1)


class TestDifferential:
    @settings(max_examples=120, deadline=None)
    @given(MEMBERS, st.sampled_from(FORMATS))
    def test_reads_what_the_stdlib_reads(self, members, fmt):
        assert_same_as_reference(write_archive(members, fmt))

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_every_kind_in_one_archive(self, fmt):
        members = [
            ("dir", "usr", b"", False),
            ("dir/", "usr/lib", b"", False),
            ("file", "usr/lib/" + "n" * 120 + "/" + "m" * 90, b"long" * 200, False),
            ("hardlink", "usr/lib/hard", b"x" * 512, False),
            ("file", "./etc/after-the-link", b"still aligned", True),
            ("v7dir", "old/style", b"", False),
            ("symlink", "s" * 90, b"", False),
            ("chr", "dev/null", b"", False),
            ("blk", "dev/sda", b"", False),
            ("fifo", "run/pipe", b"", False),
            ("cont", "contiguous", b"c" * 513, False),
            ("file", "empty", b"", False),
            ("file", "café/\udcff", b"\xff", False),
        ]
        blob = write_archive(members, fmt)
        assert_same_as_reference(blob)
        names = [path for path, _ in extract_layer_tarball(blob)]
        assert "etc/after-the-link" in names and "contiguous" in names

    def test_global_pax_header(self):
        blob = write_archive(
            [("file", "f", b"data", False)], tarfile.PAX_FORMAT, pax_headers={"comment": "g header"}
        )
        assert_same_as_reference(blob)
        assert extract_layer_tarball(blob) == [("f", b"data")]

    def test_pax_size_record_overrides_the_header(self):
        content = bytes(range(256)) * 3
        info = tarfile.TarInfo("big")
        info.size = 0
        info.pax_headers = {"size": str(len(content))}
        raw = info.tobuf(tarfile.PAX_FORMAT) + content.ljust(1024, b"\0")
        after = tarfile.TarInfo("after")
        after.size = 3
        raw += after.tobuf(tarfile.PAX_FORMAT) + b"end".ljust(512, b"\0") + bytes(1024)
        blob = gzip.compress(raw)
        assert_same_as_reference(blob)
        assert extract_layer_tarball(blob) == [("big", content), ("after", b"end")]

    def test_codec_layers(self):
        blob = build_layer_tarball(
            [("usr/bin/tool", b"\x7fELF" + bytes(700)), ("etc/conf", b"k=v\n")],
            extra_dirs=["var/empty", "usr"],
        )
        assert_same_as_reference(blob)


# -- failures ------------------------------------------------------------------------

GOOD = [("app/one", b"1" * 600), ("app/two", b"2" * 50)]


def raw_tar(files=GOOD) -> bytes:
    return gzip.decompress(build_layer_tarball(files))


def with_corrupt_header() -> bytes:
    raw = bytearray(raw_tar())
    second_file = raw.index(b"app/two")
    raw[second_file + 3] ^= 0x01
    return gzip.compress(bytes(raw))


def with_traversal() -> bytes:
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w") as tar:
        tar.addfile(tarfile.TarInfo("../evil"))
    return gzip.compress(buf.getvalue())


def with_flipped_body_byte() -> bytes:
    blob = bytearray(build_layer_tarball([("noise", bytes(i * i % 251 for i in range(9000)))]))
    blob[len(blob) // 2] ^= 0x40
    return bytes(blob)


BROKEN = {
    "crc": with_flipped_body_byte,
    "cut mid-stream": lambda: build_layer_tarball(GOOD)[:-40],
    "trailing garbage": lambda: build_layer_tarball(GOOD) + b"not gzip",
    "tar header": with_corrupt_header,
    "traversal": with_traversal,
}


class TestFailures:
    @pytest.mark.parametrize("case", BROKEN)
    def test_broken_layer_fails_alone_in_its_shard(self, case):
        bad = BROKEN[case]()
        good = [build_layer_tarball([(f"f{i}", bytes([i]) * 100)]) for i in range(2)]
        blobs = (good[0], bad, good[1])
        digests = tuple(sha256_bytes(b) for b in blobs)
        result = profile_shard(LayerShard(index=0, digests=digests, blobs=blobs))
        assert set(result.failures) == {digests[1]}
        assert list(result.values) == [digests[0], digests[2]]

    def test_typed_errors(self):
        with pytest.raises(LayerFormatError, match="checksum"):
            extract_layer_tarball(with_corrupt_header())
        with pytest.raises(LayerFormatError, match="unsafe"):
            extract_layer_tarball(with_traversal())
        assert issubclass(LayerFormatError, ValueError)

    def test_truncated_member(self):
        raw = raw_tar()
        with pytest.raises(LayerFormatError, match="truncated"):
            extract_layer_tarball(gzip.compress(raw[: 512 * 3 + 100]))  # inside app/one
        with pytest.raises(LayerFormatError, match="truncated"):
            extract_layer_tarball(gzip.compress(raw[: 512 * 2 + 17]))  # inside a header

    @pytest.mark.parametrize("kind", [tarfile.GNUTYPE_SPARSE, b"M"])
    def test_kinds_that_cannot_be_sized(self, kind):
        info = tarfile.TarInfo("sparse")
        info.type = kind
        info.size = 512
        blob = gzip.compress(info.tobuf(tarfile.GNU_FORMAT) + bytes(512 * 3))
        with pytest.raises(LayerFormatError, match="unsupported"):
            extract_layer_tarball(blob)

    def test_pax_sparse_member_rejected(self):
        info = tarfile.TarInfo("sparse")
        info.pax_headers = {"GNU.sparse.major": "1", "GNU.sparse.minor": "0"}
        blob = gzip.compress(info.tobuf(tarfile.PAX_FORMAT) + bytes(1024))
        with pytest.raises(LayerFormatError, match="sparse"):
            extract_layer_tarball(blob)

    def test_negative_pax_size_rejected(self):
        info = tarfile.TarInfo("f")
        info.pax_headers = {"size": "-1"}
        blob = gzip.compress(info.tobuf(tarfile.PAX_FORMAT) + bytes(1024))
        with pytest.raises(LayerFormatError):
            extract_layer_tarball(blob)

    def test_concatenated_gzip_members_decode_to_the_concatenation(self):
        raw = raw_tar()
        for cut in (100, 512, 512 * 3 + 5):
            blob = gzip.compress(raw[:cut]) + gzip.compress(raw[cut:])
            assert extract_layer_tarball(blob) == GOOD

    def test_stream_is_drained_past_the_end_marker(self):
        # tarfile pads to 10 KiB, so the end marker is far from EOF: every
        # member is out before the trailer is reached, and it is still checked
        blob = bytearray(build_layer_tarball(GOOD))
        blob[-8] ^= 0xFF  # the stored CRC-32
        walk = iter_layer_files(bytes(blob))
        assert [next(walk), next(walk)] == GOOD
        with pytest.raises(gzip.BadGzipFile):
            next(walk)

    def test_empty_stream_is_an_empty_layer(self):
        assert extract_layer_tarball(gzip.compress(b"")) == []
        assert extract_layer_tarball(gzip.compress(bytes(1024))) == []
