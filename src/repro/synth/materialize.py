"""Materialize a (small) columnar dataset into a real registry.

Every unique file becomes actual bytes (via :mod:`repro.synth.content`),
every layer a real gzip'd tarball in the blob store, every image a pushed
schema-v2 manifest, and the failure population (auth-required / missing
``latest``) becomes real repositories that fail the way the paper's 111,384
undownloadable images did.

The returned :class:`GroundTruth` records exactly what went in, so the
end-to-end pipeline (crawl → download → extract → analyze) can be verified
against it file-by-file.

Besides the blobs the registry keeps, a build holds the layer it is packing
and the files a later layer still needs: a file's bytes are synthesized at
its first layer and freed after its last (older version builds synthesize
them again — content is a pure function of the file id), and each tarball
is gzip'd as it is written.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.filetypes.catalog import RARE_TYPE_BASE, TypeCatalog, default_catalog
from repro.model.dataset import HubDataset
from repro.model.layer import Layer
from repro.model.manifest import Manifest, ManifestLayerRef
from repro.registry.registry import Registry
from repro.registry.tarball import layer_from_files
from repro.synth.content import synthesize_file_bytes
from repro.util.rng import RngTree

#: directory pools per broad location flavour; selection is deterministic in
#: the file id so the same unique file lands at the same path in every layer.
_DIR_POOL = [
    "usr/bin",
    "usr/lib",
    "usr/lib/x86_64-linux-gnu",
    "usr/share/doc/pkg",
    "usr/share/man/man1",
    "usr/local/lib/site-packages/app",
    "etc",
    "etc/init.d",
    "opt/app",
    "opt/app/src/vendor/gtest",
    "var/lib/data",
    "home/app/src",
    "usr/include/sys",
    "lib/modules/4.4.0/kernel/drivers",
]

#: filename extension per specific type (content handles the rest).
_EXTENSION = {
    "c_cpp": ".c",
    "perl5_module": ".pm",
    "ruby_module": ".gemspec",
    "pascal": ".pas",
    "fortran": ".f90",
    "applesoft_basic": ".bas",
    "lisp_scheme": ".scm",
    "source_other": ".src",
    "makefile": ".mk",
    "m4": ".m4",
    "ascii_text": ".txt",
    "utf_text": ".txt",
    "iso8859_text": ".txt",
    "doc_other": ".doc",
    "latex": ".tex",
    "script_other": ".script",
    "elf": ".so",
    "library": ".a",
    "png": ".png",
    "jpeg": ".jpg",
    "svg": ".svg",
    "gif": ".gif",
    "video": ".avi",
    "zip_gzip": ".gz",
    "bzip2": ".bz2",
    "xz": ".xz",
    "tar": ".tar",
    "sqlite": ".sqlite",
    "mysql": ".frm",
    "berkeley_db": ".db",
    "db_other": ".dbf",
    "empty": "",
    "data": ".bin",
}


#: realistic names for zero-byte files (§V-B: ~4 % of empty files are
#: ``__init__.py``; lock and .gitkeep files follow)
_EMPTY_BASENAMES = ["__init__.py", "__init__.py", "__init__.py", ".gitkeep", "lock"]


def path_for_file(fid: int, type_name: str) -> str:
    """Deterministic layer-relative path for a unique file id."""
    directory = _DIR_POOL[fid % len(_DIR_POOL)]
    if type_name == "empty":
        base = _EMPTY_BASENAMES[fid % len(_EMPTY_BASENAMES)]
        return f"{directory}/pkg{fid:06d}/{base}"
    ext = _EXTENSION.get(type_name, ".dat")
    return f"{directory}/f{fid:06d}{ext}"


@dataclass
class GroundTruth:
    """What the materializer actually pushed (the oracle for integration
    tests and for the pipeline's totals accounting)."""

    #: repo name -> manifest digest, for successfully pushable images
    images: dict[str, str] = field(default_factory=dict)
    #: layer blob digest -> the Layer object that produced it
    layers: dict[str, Layer] = field(default_factory=dict)
    #: dataset layer index -> blob digest
    layer_digest_by_index: dict[int, str] = field(default_factory=dict)
    #: repositories that require authentication (downloads must fail)
    auth_repos: list[str] = field(default_factory=list)
    #: repositories without a ``latest`` tag (downloads must fail)
    no_latest_repos: list[str] = field(default_factory=list)
    #: repo name -> {tag -> manifest digest} for historical version tags
    version_tags: dict[str, dict[str, str]] = field(default_factory=dict)

    @property
    def n_images(self) -> int:
        return len(self.images)

    @property
    def n_unique_layers(self) -> int:
        return len(self.layers)


def _type_name(catalog: TypeCatalog, code: int) -> str:
    if code >= RARE_TYPE_BASE:
        return "data"  # rare long-tail types materialize as opaque binary
    return catalog.by_code(code).name


def _older_version_refs(
    dataset: HubDataset,
    layer_ids: list[int],
    version_age: int,
    file_payload,
    registry: Registry,
    truth: GroundTruth,
    catalog: TypeCatalog,
) -> tuple[ManifestLayerRef, ...]:
    """Layer refs for an older build of an image.

    Base layers are shared with latest; the top (non-empty) layer is an
    *older build*: the last ~10 % of its files don't exist yet and the first
    file's content differs, salted by the version age so each version is a
    distinct blob. This mirrors how image history really accretes — top
    layers churn, bases persist — which is exactly what makes cross-version
    layer sharing and file dedup effective.
    """
    # pick the last layer with files to "age"; fall back to the last layer
    target_pos = len(layer_ids) - 1
    for pos in range(len(layer_ids) - 1, -1, -1):
        if dataset.layer_file_counts[layer_ids[pos]] > 0:
            target_pos = pos
            break

    refs: list[ManifestLayerRef] = []
    for pos, layer_id in enumerate(layer_ids):
        if pos != target_pos:
            digest = truth.layer_digest_by_index[layer_id]
            refs.append(
                ManifestLayerRef(
                    digest=digest, size=truth.layers[digest].compressed_size
                )
            )
            continue
        lo = dataset.layer_file_offsets[layer_id]
        hi = dataset.layer_file_offsets[layer_id + 1]
        fids = [int(f) for f in dataset.layer_file_ids[lo:hi]]
        keep = max(1, len(fids) - max(1, len(fids) * version_age // 10))
        files: list[tuple[str, bytes]] = []
        seen: dict[str, int] = {}
        for j, fid in enumerate(fids[:keep]):
            if j == 0:
                tname = _type_name(catalog, int(dataset.file_types[fid]))
                path = path_for_file(fid, tname)
                data = synthesize_file_bytes(
                    tname, int(dataset.file_sizes[fid]),
                    salt=fid + 10_000_000 * version_age,
                )
            else:
                path, data = file_payload(fid)
            dup = seen.get(path, 0)
            seen[path] = dup + 1
            if dup:
                path = f"dup{dup}/{path}"
            files.append((path, data))
        layer, blob = layer_from_files(files, catalog)
        registry.push_blob(blob, digest=layer.digest)
        truth.layers.setdefault(layer.digest, layer)
        refs.append(
            ManifestLayerRef(digest=layer.digest, size=layer.compressed_size)
        )
    return tuple(refs)


def materialize_registry(
    dataset: HubDataset,
    registry: Registry | None = None,
    catalog: TypeCatalog | None = None,
    *,
    fail_share: float = 0.239,
    fail_auth_share: float = 0.13,
    version_share: float = 0.0,
    max_versions: int = 3,
    seed: int = 0,
) -> tuple[Registry, GroundTruth]:
    """Populate a registry with real blobs/manifests/repos from *dataset*.

    Intended for small datasets (every layer becomes a real tarball). The
    failure population is sized so failures are ``fail_share`` of all
    attempted repositories, split ``fail_auth_share`` auth-required vs
    missing-``latest`` — the paper's §III-B accounting.

    ``version_share`` > 0 additionally gives that fraction of repositories
    historical version tags (``v1`` oldest … up to ``max_versions``): each
    older version shares the latest image's base layers but carries an
    older build of its top private layer (one file's content differs, the
    newest ~10 % of files are absent) — the multi-version population the
    paper's future work targets.

    Peak memory beyond the pushed blobs is the current layer plus the files
    a later layer still needs, not the whole file universe.
    """
    registry = registry if registry is not None else Registry()
    catalog = catalog or default_catalog()
    truth = GroundTruth()

    # -- unique files -> bytes -------------------------------------------------
    def file_payload(fid: int) -> tuple[str, bytes]:
        tname = _type_name(catalog, int(dataset.file_types[fid]))
        data = synthesize_file_bytes(tname, int(dataset.file_sizes[fid]), salt=fid)
        return path_for_file(fid, tname), data

    # A file's bytes are held from its first layer to its last, then freed.
    uses_left = np.bincount(dataset.layer_file_ids, minlength=dataset.n_files).tolist()
    held: dict[int, tuple[str, bytes]] = {}

    # -- layers -> tarballs -----------------------------------------------------
    for k in range(dataset.n_layers):
        lo, hi = dataset.layer_file_offsets[k], dataset.layer_file_offsets[k + 1]
        files: list[tuple[str, bytes]] = []
        seen_paths: dict[str, int] = {}
        for fid in dataset.layer_file_ids[lo:hi].tolist():
            payload = held.pop(fid, None) or file_payload(fid)
            uses_left[fid] -= 1
            if uses_left[fid]:
                held[fid] = payload
            path, data = payload
            dup = seen_paths.get(path, 0)
            seen_paths[path] = dup + 1
            if dup:
                # an intra-layer duplicate: same content at a sibling path
                path = f"dup{dup}/{path}"
            files.append((path, data))
        # Distinct empty layers need distinct metadata; layer 0 is canonical.
        extra_dirs = [f"var/empty{k}"] if (not files and k != 0) else None
        layer, blob = layer_from_files(files, catalog, extra_dirs=extra_dirs)
        registry.push_blob(blob, digest=layer.digest)
        truth.layers[layer.digest] = layer
        truth.layer_digest_by_index[k] = layer.digest

    # -- images -> manifests + repositories -------------------------------------
    for i in range(dataset.n_images):
        lo, hi = dataset.image_layer_offsets[i], dataset.image_layer_offsets[i + 1]
        refs = tuple(
            ManifestLayerRef(
                digest=truth.layer_digest_by_index[int(lid)],
                size=truth.layers[truth.layer_digest_by_index[int(lid)]].compressed_size,
            )
            for lid in dataset.image_layer_ids[lo:hi]
        )
        name = dataset.repo_names[i] if dataset.repo_names else f"user/img{i}"
        pulls = int(dataset.pull_counts[i]) if dataset.pull_counts.size else 0
        manifest = Manifest(layers=refs, config={"image_index": i})
        registry.create_repository(name, pull_count=pulls)
        digest = registry.push_manifest(name, "latest", manifest)
        truth.images[name] = digest

    # -- historical version tags ----------------------------------------------------
    if version_share > 0:
        vrng = RngTree(seed).child("versions").generator()
        for i in range(dataset.n_images):
            if vrng.random() >= version_share:
                continue
            name = dataset.repo_names[i] if dataset.repo_names else f"user/img{i}"
            lo, hi = dataset.image_layer_offsets[i], dataset.image_layer_offsets[i + 1]
            layer_ids = [int(l) for l in dataset.image_layer_ids[lo:hi]]
            n_versions = int(vrng.integers(1, max_versions + 1))
            truth.version_tags[name] = {}
            for v in range(n_versions, 0, -1):
                refs = _older_version_refs(
                    dataset, layer_ids, v, file_payload, registry, truth, catalog
                )
                manifest = Manifest(
                    layers=refs, config={"image_index": i, "version": v}
                )
                digest = registry.push_manifest(name, f"v{v}", manifest)
                truth.version_tags[name][f"v{v}"] = digest

    # -- failure population --------------------------------------------------------
    rng = RngTree(seed).child("failures").generator()
    n_ok = dataset.n_images
    n_failed = int(round(n_ok * fail_share / max(1e-9, 1.0 - fail_share)))
    n_auth = int(round(n_failed * fail_auth_share))
    reuse = list(truth.images.values())
    for j in range(n_failed):
        name = f"failuser{j % 37}/broken{j}"
        is_auth = j < n_auth
        repo = registry.create_repository(
            name, pull_count=int(rng.integers(0, 20)), requires_auth=is_auth
        )
        if reuse:
            digest = reuse[int(rng.integers(0, len(reuse)))]
            # auth repos do have 'latest' (it just can't be fetched);
            # no-latest repos carry only versioned tags.
            repo.tags["latest" if is_auth else f"v{1 + j % 3}"] = digest
        if is_auth:
            truth.auth_repos.append(name)
        else:
            truth.no_latest_repos.append(name)

    return registry, truth
