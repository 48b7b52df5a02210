"""Profile-cache semantics: hits, invalidation, codec, and corruption recovery."""

import json
import struct
from array import array

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analyzer import cache as cache_module
from repro.analyzer.cache import ProfileCache
from repro.analyzer.extract import extract_and_profile
from repro.analyzer.profiles import (
    DirectoryRecord,
    FileRecord,
    LayerProfile,
    layer_profile_to_json,
)
from repro.faults import corrupt_at_rest
from repro.registry.blobstore import MemoryBlobStore
from repro.registry.tarball import layer_from_files
from repro.util.digest import sha256_bytes
from repro.util.entrycache import encode_entry, entry_key


@pytest.fixture()
def profile():
    layer, blob = layer_from_files(
        [("etc/conf", b"key=value\n" * 20), ("bin/run", b"\x7fELF" + b"x" * 99)]
    )
    return extract_and_profile(layer.digest, blob)


class TestRoundtrip:
    def test_put_then_get(self, tmp_path, profile):
        cache = ProfileCache(tmp_path)
        assert cache.get(profile.digest) is None
        cache.put(profile)
        got = cache.get(profile.digest)
        assert got == profile
        assert cache.stats.to_dict() == {
            "hits": 1, "misses": 1, "stores": 1, "discarded": 0,
        }

    def test_persists_across_instances(self, tmp_path, profile):
        ProfileCache(tmp_path).put(profile)
        assert ProfileCache(tmp_path).get(profile.digest) == profile

    def test_memory_store_backend(self, profile):
        cache = ProfileCache(MemoryBlobStore())
        cache.put(profile)
        assert cache.get(profile.digest) == profile

    def test_hit_ratio(self, tmp_path, profile):
        cache = ProfileCache(tmp_path)
        cache.put(profile)
        cache.get(profile.digest)
        cache.get(profile.digest)
        cache.get("sha256:absent")
        assert cache.stats.hit_ratio == pytest.approx(2 / 3)


class TestInvalidation:
    def test_catalog_version_bump_misses(self, tmp_path, profile):
        """A new type taxonomy must never be served old profiles."""
        old = ProfileCache(tmp_path, catalog_version="catalog-v1")
        old.put(profile)
        new = ProfileCache(tmp_path, catalog_version="catalog-v2")
        assert new.get(profile.digest) is None
        # the old generation's entry is untouched, just unreachable
        assert old.get(profile.digest) == profile

    def test_keys_differ_across_versions(self, tmp_path, profile):
        a = ProfileCache(tmp_path, catalog_version="a")
        b = ProfileCache(tmp_path, catalog_version="b")
        assert a.key(profile.digest) != b.key(profile.digest)

    def test_default_version_is_default_catalog(self, tmp_path):
        from repro.filetypes.catalog import default_catalog

        assert ProfileCache(tmp_path).catalog_version == default_catalog().version()


class TestOnDiskFormat:
    """Pins the at-rest dialect (format v2): frame, body layout and key
    derivation. A change here is a format bump and must move the magic."""

    def test_frame_is_magic_newline_checksum_newline_body(self, tmp_path, profile):
        cache = ProfileCache(tmp_path)
        cache.put(profile)
        payload = cache.store.get(cache.key(profile.digest))
        magic, checksum, body = payload.split(b"\n", 2)
        assert magic == b"repro-profile-cache/v2"
        assert checksum == sha256_bytes(body).encode()

    def test_body_layout(self):
        profile = LayerProfile(
            digest="sha256:lay",
            compressed_size=120,
            files_size=300,
            file_count=2,
            directory_count=1,
            max_depth=1,
            file_paths=["usr/a", "usr/b"],
            file_digests=["sha256:fa", "sha256:fb"],
            file_sizes=[100, 200],
            file_types=[0, 3],
            dir_paths=["usr"],
            dir_depths=[1],
            dir_file_counts=[2],
        )
        strings = b"sha256:lay\0sha256:fa\0sha256:fb\0usr/a\0usr/b\0usr"
        expected = (
            struct.pack("<8q", 120, 300, 2, 1, 1, 2, 1, len(strings))
            + struct.pack("<2q", 100, 200)
            + struct.pack("<2i", 0, 3)
            + struct.pack("<i", 1)
            + struct.pack("<q", 2)
            + strings
        )
        assert ProfileCache(MemoryBlobStore())._encode_body(profile) == expected

    def test_byte_swap_branch(self, monkeypatch):
        """The swap that keeps the columns little-endian on a big-endian
        host: flipped on this host, it writes every value's bytes reversed
        and reads them back."""
        native = array("q", [1, -2]).tobytes()
        monkeypatch.setattr(cache_module, "_SWAP", not cache_module._SWAP)
        packed = cache_module._pack_column("q", [1, -2])
        assert packed == native[:8][::-1] + native[8:][::-1]
        assert cache_module._unpack_column("q", memoryview(packed), 0, 2) == (
            [1, -2],
            16,
        )

    def test_key_derivation_pinned(self):
        digest = "sha256:" + "ab" * 32
        cache = ProfileCache(MemoryBlobStore(), catalog_version="cat-v1")
        expected = sha256_bytes(
            f"repro-profile-cache/v2:cat-v1:{digest}".encode()
        )
        assert cache.key(digest) == expected

    def test_v1_entry_is_a_plain_miss(self, profile):
        """A v1 (JSON body) entry sits at the v1 key: v2 never finds it,
        so it reads as a miss, not as a discarded corrupt entry."""
        v1_magic = b"repro-profile-cache/v1"
        cache = ProfileCache(MemoryBlobStore(), catalog_version="cat-v1")
        v1_key = entry_key(v1_magic, "cat-v1", profile.digest)
        v1_body = json.dumps(
            layer_profile_to_json(profile), separators=(",", ":"), sort_keys=True
        ).encode()
        cache.store.put_at(v1_key, encode_entry(v1_magic, v1_body))
        assert cache.get(profile.digest) is None
        assert cache.stats.misses == 1
        assert cache.stats.discarded == 0
        assert cache.store.has(v1_key)

    def test_shared_framing_base(self):
        """ProfileCache and ScanCache sit on one entry-framing helper."""
        from repro.scan.cache import ScanCache
        from repro.util.entrycache import SelfVerifyingCache

        assert issubclass(ProfileCache, SelfVerifyingCache)
        assert issubclass(ScanCache, SelfVerifyingCache)


#: path text: any code point but NUL, lone surrogates and newlines included
_path_text = st.text(
    alphabet=st.characters(codec=None, exclude_categories=(), exclude_characters="\0"),
    max_size=12,
)
#: layer digest text: any UTF-8-encodable code point but NUL — the digest also
#: feeds the strict-UTF-8 cache key, so it draws no lone surrogate
_digest_text = st.text(
    alphabet=st.characters(codec="utf-8", exclude_characters="\0"), max_size=12
)
_counts = st.integers(min_value=0, max_value=2**62)
_int32 = st.integers(min_value=-(2**31), max_value=2**31 - 1)


@st.composite
def _profiles(draw) -> LayerProfile:
    n_files = draw(st.integers(min_value=0, max_value=8))
    n_dirs = draw(st.integers(min_value=0, max_value=5))

    def column(strategy, n):
        return draw(st.lists(strategy, min_size=n, max_size=n))

    return LayerProfile(
        digest=draw(_digest_text),
        compressed_size=draw(_counts),
        files_size=draw(_counts),
        file_count=draw(_counts),
        directory_count=draw(_counts),
        max_depth=draw(st.integers(min_value=0, max_value=2**31 - 1)),
        file_paths=column(_path_text, n_files),
        file_digests=column(_path_text, n_files),
        file_sizes=column(_counts, n_files),
        file_types=column(_int32, n_files),
        dir_paths=column(_path_text, n_dirs),
        dir_depths=column(st.integers(min_value=0, max_value=2**31 - 1), n_dirs),
        dir_file_counts=column(_counts, n_dirs),
    )


_EMPTY_LAYER = LayerProfile("sha256:empty", 0, 0, 0, 0, 0)
_ODD_PATHS = LayerProfile.from_records(
    "sha256:odd", 10, 3, 3, 2, 2,
    files=[
        FileRecord("usr/caf\u00e9/\u65e5\u672c", "sha256:file0004", 1, 2),
        FileRecord("bad/\udc80name", "sha256:file0005", 1, 0),
        FileRecord("line\nbreak", "sha256:file0004", 1, 2),
    ],
    directories=[DirectoryRecord("usr", 1, 0), DirectoryRecord("usr/caf\u00e9", 2, 1)],
)


class TestCodec:
    @settings(max_examples=200, deadline=None)
    @given(_profiles())
    @example(_EMPTY_LAYER)
    @example(_ODD_PATHS)
    def test_roundtrip(self, profile):
        cache = ProfileCache(MemoryBlobStore(), catalog_version="cat")
        assert cache._decode_body(cache._encode_body(profile)) == profile
        cache.put(profile)
        assert cache.get(profile.digest) == profile
        assert cache.stats.discarded == 0

    def test_nul_in_a_path_is_refused(self, profile):
        profile.file_paths[0] = "etc/\0conf"
        with pytest.raises(ValueError, match="holds NUL"):
            ProfileCache(MemoryBlobStore()).put(profile)


class TestCorruption:
    def test_corrupt_entry_discarded_and_deleted(self, tmp_path, profile):
        cache = ProfileCache(tmp_path)
        cache.put(profile)
        corrupt_at_rest(cache.store, cache.key(profile.digest))
        assert cache.get(profile.digest) is None
        assert cache.stats.discarded == 1
        # the dead entry was deleted: the next lookup is a clean miss
        assert cache.get(profile.digest) is None
        assert cache.stats.discarded == 1

    def test_reprofiled_entry_serves_again(self, tmp_path, profile):
        cache = ProfileCache(tmp_path)
        cache.put(profile)
        corrupt_at_rest(cache.store, cache.key(profile.digest))
        assert cache.get(profile.digest) is None
        cache.put(profile)  # the re-profile path rewrites the slot
        assert cache.get(profile.digest) == profile

    def test_wrong_digest_inside_entry_discarded(self, tmp_path, profile):
        """An entry whose body belongs to another layer is rot, not a hit."""
        cache = ProfileCache(tmp_path)
        cache.store.put_at(cache.key("sha256:other"), cache._encode(profile))
        assert cache.get("sha256:other") is None
        assert cache.stats.discarded == 1

    def test_garbage_entry_discarded(self, tmp_path, profile):
        cache = ProfileCache(tmp_path)
        cache.store.put_at(cache.key(profile.digest), b"not a cache frame")
        assert cache.get(profile.digest) is None
        assert cache.stats.discarded == 1


def _truncated(body: bytes) -> bytes:
    return body[:-1]


def _overlong(body: bytes) -> bytes:
    return body + b"x"


def _extra_string(body: bytes) -> bytes:
    """One more NUL-separated string than the header promises, with the
    header's blob length fixed up so only the string count is wrong."""
    header = list(struct.unpack_from("<8q", body))
    header[7] += 2
    return struct.pack("<8q", *header) + body[64:] + b"\0x"


class TestMalformedBody:
    """A well-framed entry (checksum good) whose body disagrees with its
    own header is rot: discarded, counted and deleted."""

    @pytest.mark.parametrize("mangle", [_truncated, _overlong, _extra_string])
    def test_discarded_and_deleted(self, profile, mangle):
        cache = ProfileCache(MemoryBlobStore())
        key = cache.key(profile.digest)
        body = mangle(cache._encode_body(profile))
        cache.store.put_at(key, encode_entry(ProfileCache.MAGIC, body))
        with pytest.raises(ValueError):
            cache._decode_body(body)
        assert cache.get(profile.digest) is None
        assert cache.stats.discarded == 1
        assert not cache.store.has(key)
