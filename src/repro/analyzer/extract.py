"""Layer extraction: tarball bytes → a fully-populated LayerProfile.

This is the analyzer's hot path: stream the gzip'd tarball through the
single-pass walker, and for each file as it comes out hash its content,
identify its type by magic number and drop it, then derive the directory
metadata — the paper's per-layer measurement, end to end, on real bytes,
holding one member at a time.
"""

from __future__ import annotations

from collections import Counter

from repro.analyzer.profiles import LayerProfile
from repro.filetypes.catalog import TypeCatalog, default_catalog
from repro.filetypes.classifier import classify_bytes
from repro.model.layer import parent_dirs
from repro.registry.tarball import iter_layer_files
from repro.util.digest import sha256_bytes


def extract_and_profile(
    digest: str, blob: bytes, catalog: TypeCatalog | None = None
) -> LayerProfile:
    """Extract a layer tarball and measure everything §III-C asks for."""
    catalog = catalog or default_catalog()

    paths: list[str] = []
    digests: list[str] = []
    sizes: list[int] = []
    types: list[int] = []
    dir_file_counts: Counter[str] = Counter()
    all_dirs: set[str] = set()
    max_depth = 0
    files_size = 0

    for path, content in iter_layer_files(blob):
        ancestors = parent_dirs(path)
        all_dirs.update(ancestors)
        if ancestors:
            dir_file_counts[ancestors[-1]] += 1
        depth = len(ancestors)
        if depth > max_depth:
            max_depth = depth
        files_size += len(content)
        paths.append(path)
        digests.append(sha256_bytes(content))
        sizes.append(len(content))
        types.append(classify_bytes(path, content, catalog).code)

    dir_paths = sorted(all_dirs)
    return LayerProfile(
        digest=digest,
        compressed_size=len(blob),
        files_size=files_size,
        file_count=len(paths),
        directory_count=len(dir_paths),
        max_depth=max_depth,
        file_paths=paths,
        file_digests=digests,
        file_sizes=sizes,
        file_types=types,
        dir_paths=dir_paths,
        dir_depths=[d.count("/") + 1 for d in dir_paths],
        dir_file_counts=[dir_file_counts.get(d, 0) for d in dir_paths],
    )
