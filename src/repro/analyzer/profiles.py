"""Layer and image profiles — the analyzer's §III-C output records.

A *layer profile* carries layer metadata (digest, FLS, CLS, directory count,
file count, max depth), the compression ratio, per-directory metadata and
per-file metadata, exactly the fields the paper's analyzer emitted.

:class:`ProfileStore` accumulates profiles and converts them into the
columnar :class:`~repro.model.dataset.HubDataset`, so every downstream
figure computation is agnostic to whether data came from real extracted
tarballs or the synthetic generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.model.dataset import HubDataset


@dataclass(frozen=True)
class FileRecord:
    """Per-file metadata: { name, digest, type, size } (§III-C)."""

    path: str
    digest: str
    size: int
    type_code: int


@dataclass(frozen=True)
class DirectoryRecord:
    """Per-directory metadata: { name, depth, file count } (§III-C)."""

    path: str
    depth: int
    file_count: int


@dataclass
class LayerProfile:
    """Everything the analyzer measured about one layer.

    Per-file and per-directory metadata are held as parallel columns, not
    as one object per entry: the file at position *i* is
    ``(file_paths[i], file_digests[i], file_sizes[i], file_types[i])``.
    The profile cache decodes straight into the columns and
    :meth:`ProfileStore.to_dataset` reads them without building a record;
    :attr:`files` and :attr:`directories` build records on demand for the
    callers that want them.
    """

    digest: str
    compressed_size: int  # CLS
    files_size: int  # FLS
    file_count: int
    directory_count: int
    max_depth: int
    file_paths: list[str] = field(default_factory=list)
    file_digests: list[str] = field(default_factory=list)
    file_sizes: list[int] = field(default_factory=list)
    file_types: list[int] = field(default_factory=list)
    dir_paths: list[str] = field(default_factory=list)
    dir_depths: list[int] = field(default_factory=list)
    dir_file_counts: list[int] = field(default_factory=list)

    @classmethod
    def from_records(
        cls,
        digest: str,
        compressed_size: int,
        files_size: int,
        file_count: int,
        directory_count: int,
        max_depth: int,
        files: Iterable[FileRecord] = (),
        directories: Iterable[DirectoryRecord] = (),
    ) -> LayerProfile:
        """Build a profile from per-entry records (fixtures, hand-made layers)."""
        files = list(files)
        directories = list(directories)
        return cls(
            digest=digest,
            compressed_size=compressed_size,
            files_size=files_size,
            file_count=file_count,
            directory_count=directory_count,
            max_depth=max_depth,
            file_paths=[f.path for f in files],
            file_digests=[f.digest for f in files],
            file_sizes=[f.size for f in files],
            file_types=[f.type_code for f in files],
            dir_paths=[d.path for d in directories],
            dir_depths=[d.depth for d in directories],
            dir_file_counts=[d.file_count for d in directories],
        )

    @property
    def files(self) -> tuple[FileRecord, ...]:
        """The files as records, built on each read."""
        return tuple(
            map(
                FileRecord,
                self.file_paths,
                self.file_digests,
                self.file_sizes,
                self.file_types,
            )
        )

    @property
    def directories(self) -> tuple[DirectoryRecord, ...]:
        """The directories as records, built on each read."""
        return tuple(
            map(DirectoryRecord, self.dir_paths, self.dir_depths, self.dir_file_counts)
        )

    @property
    def compression_ratio(self) -> float:
        """FLS-to-CLS (0 when CLS unknown)."""
        if self.compressed_size <= 0:
            return 0.0
        return self.files_size / self.compressed_size


@dataclass
class ImageProfile:
    """Image metadata plus pointers (digests) to its layer profiles."""

    name: str
    layer_digests: list[str]
    compressed_size: int  # CIS: sum of manifest layer sizes
    pull_count: int = 0


def layer_profile_to_json(profile: LayerProfile) -> dict:
    """The canonical JSON document for one layer profile (the JSONL dump
    format)."""
    return {
        "kind": "layer",
        "digest": profile.digest,
        "cls": profile.compressed_size,
        "fls": profile.files_size,
        "file_count": profile.file_count,
        "dir_count": profile.directory_count,
        "max_depth": profile.max_depth,
        "files": [
            list(row)
            for row in zip(
                profile.file_paths,
                profile.file_digests,
                profile.file_sizes,
                profile.file_types,
            )
        ],
        "dirs": [
            list(row)
            for row in zip(
                profile.dir_paths, profile.dir_depths, profile.dir_file_counts
            )
        ],
    }


def layer_profile_from_json(doc: dict) -> LayerProfile:
    """Rebuild a :class:`LayerProfile` from :func:`layer_profile_to_json`."""
    files = doc["files"]
    dirs = doc["dirs"]
    return LayerProfile(
        digest=doc["digest"],
        compressed_size=doc["cls"],
        files_size=doc["fls"],
        file_count=doc["file_count"],
        directory_count=doc["dir_count"],
        max_depth=doc["max_depth"],
        file_paths=[f[0] for f in files],
        file_digests=[f[1] for f in files],
        file_sizes=[f[2] for f in files],
        file_types=[f[3] for f in files],
        dir_paths=[d[0] for d in dirs],
        dir_depths=[d[1] for d in dirs],
        dir_file_counts=[d[2] for d in dirs],
    )


class ProfileStore:
    """Accumulates profiles; converts to the columnar dataset.

    Layers are stored once per digest (the dataset of *unique* layers, as
    downloaded); images reference layers by digest.
    """

    def __init__(self) -> None:
        self._layers: dict[str, LayerProfile] = {}
        self._layer_order: list[str] = []
        self._images: list[ImageProfile] = []

    # -- accumulation -----------------------------------------------------------

    def add_layer(self, profile: LayerProfile) -> bool:
        """Record a layer profile; returns False if the digest was already
        profiled (duplicate work detected)."""
        if profile.digest in self._layers:
            return False
        self._layers[profile.digest] = profile
        self._layer_order.append(profile.digest)
        return True

    def add_image(self, profile: ImageProfile) -> None:
        for digest in profile.layer_digests:
            if digest not in self._layers:
                raise KeyError(
                    f"image {profile.name!r} references unprofiled layer {digest}"
                )
        self._images.append(profile)

    def has_layer(self, digest: str) -> bool:
        return digest in self._layers

    @property
    def n_layers(self) -> int:
        return len(self._layers)

    @property
    def n_images(self) -> int:
        return len(self._images)

    def layer(self, digest: str) -> LayerProfile:
        return self._layers[digest]

    def layers(self) -> list[LayerProfile]:
        return [self._layers[d] for d in self._layer_order]

    def images(self) -> list[ImageProfile]:
        return list(self._images)

    # -- conversion --------------------------------------------------------------

    def to_dataset(self) -> HubDataset:
        """Build the columnar dataset: unique files keyed by content digest.

        File id *k* belongs to the *k*-th distinct content digest in
        layer-occurrence order (first-seen semantics). The occurrence
        walk is one fused Python pass over each profile's
        ``zip(file_digests, file_sizes, file_types)`` columns: one dict
        probe per occurrence, sizes and types kept only for first-seen
        digests, and no record object built or read. Measured at 240 k
        occurrences (``tools/colstream_cells.py``, 2-core x86-64):
        the pre-columns per-record walk is 4–7x slower; ``np.unique``
        over the digest strings is still 2.3–3.1x slower (it sorts the
        string column); a C-level ``dict.setdefault`` factorize over the
        concatenated columns is 0.76–0.81x of this walk, about 3 % of a
        warm analyzer pass. Everything downstream of the walk — offsets,
        scalar columns, the image CSR — is NumPy.
        """
        profiles = [self._layers[d] for d in self._layer_order]
        file_id_by_digest: dict[str, int] = {}
        file_sizes: list[int] = []
        file_types: list[int] = []
        layer_file_ids: list[int] = []
        file_counts = np.zeros(len(profiles), dtype=np.int64)
        append_size = file_sizes.append
        append_type = file_types.append
        append_id = layer_file_ids.append
        lookup = file_id_by_digest.get
        for i, profile in enumerate(profiles):
            digests = profile.file_digests
            file_counts[i] = len(digests)
            for digest, size, type_code in zip(
                digests, profile.file_sizes, profile.file_types
            ):
                fid = lookup(digest)
                if fid is None:
                    fid = len(file_sizes)
                    file_id_by_digest[digest] = fid
                    append_size(size)
                    append_type(type_code)
                append_id(fid)

        layer_offsets = np.zeros(len(profiles) + 1, dtype=np.int64)
        np.cumsum(file_counts, out=layer_offsets[1:])

        layer_index = {d: i for i, d in enumerate(self._layer_order)}
        image_layer_ids: list[int] = []
        image_offsets = [0]
        names: list[str] = []
        pulls: list[int] = []
        for image in self._images:
            image_layer_ids.extend(layer_index[d] for d in image.layer_digests)
            image_offsets.append(len(image_layer_ids))
            names.append(image.name)
            pulls.append(image.pull_count)

        dataset = HubDataset(
            file_sizes=np.asarray(file_sizes, dtype=np.int64),
            file_types=np.asarray(file_types, dtype=np.int32),
            layer_file_offsets=layer_offsets,
            layer_file_ids=np.asarray(layer_file_ids, dtype=np.int64),
            layer_cls=np.asarray(
                [p.compressed_size for p in profiles], dtype=np.int64
            ),
            layer_dir_counts=np.asarray(
                [p.directory_count for p in profiles], dtype=np.int64
            ),
            layer_max_depths=np.asarray(
                [p.max_depth for p in profiles], dtype=np.int64
            ),
            image_layer_offsets=np.asarray(image_offsets, dtype=np.int64),
            image_layer_ids=np.asarray(image_layer_ids, dtype=np.int64),
            repo_names=names,
            pull_counts=np.asarray(pulls, dtype=np.int64),
        )
        dataset.validate()
        return dataset
