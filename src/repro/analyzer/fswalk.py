"""Filesystem-walk profiling: the paper's literal analyzer behaviour.

§III-C: "the analyzer first decompresses and extracts each layer tarball to
a layer directory. Then, it recursively traverses each subdirectory and
obtains its metadata information." :func:`extract_to_directory` +
:func:`profile_directory` do exactly that — real files on a real
filesystem, `os.walk` traversal, `stat` metadata — and must produce the
same profile as the in-memory fast path (verified by tests).

The in-memory path (:mod:`repro.analyzer.extract`) is the default because
it avoids writing terabytes of small files; this mode exists for fidelity
and for analyzing layers somebody already extracted.
"""

from __future__ import annotations

import os
from collections import Counter
from pathlib import Path

from repro.analyzer.profiles import DirectoryRecord, FileRecord, LayerProfile
from repro.filetypes.catalog import TypeCatalog, default_catalog
from repro.filetypes.classifier import classify_bytes
from repro.registry.tarball import iter_layer_files
from repro.util.digest import sha256_bytes

#: how much of a file the classifier needs (tar magic sits at offset 257)
_SNIFF_BYTES = 4096


def extract_to_directory(blob: bytes, dest: str | Path) -> Path:
    """Extract a layer tarball into *dest* (created if needed).

    Reuses the hardened tar extraction (path-traversal members rejected,
    non-regular files skipped), then writes real files.
    """
    root = Path(dest)
    root.mkdir(parents=True, exist_ok=True)
    for path, content in iter_layer_files(blob):
        target = root / path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(content)
    return root


def profile_directory(
    digest: str,
    compressed_size: int,
    root: str | Path,
    catalog: TypeCatalog | None = None,
) -> LayerProfile:
    """Profile an extracted layer directory by walking the real filesystem."""
    catalog = catalog or default_catalog()
    root = Path(root)
    if not root.is_dir():
        raise NotADirectoryError(f"not an extracted layer directory: {root}")

    records: list[FileRecord] = []
    dir_file_counts: Counter[str] = Counter()
    all_dirs: set[str] = set()
    max_depth = 0
    files_size = 0

    for current, dirnames, filenames in os.walk(root):
        rel_dir = os.path.relpath(current, root)
        rel_dir = "" if rel_dir == "." else rel_dir.replace(os.sep, "/")
        if rel_dir:
            all_dirs.add(rel_dir)
        for dirname in dirnames:
            all_dirs.add(f"{rel_dir}/{dirname}" if rel_dir else dirname)
        for filename in sorted(filenames):
            full = Path(current) / filename
            rel = f"{rel_dir}/{filename}" if rel_dir else filename
            stat = full.stat()
            content = full.read_bytes()
            depth = rel.count("/")
            if depth > max_depth:
                max_depth = depth
            if rel_dir:
                dir_file_counts[rel_dir] += 1
            files_size += stat.st_size
            records.append(
                FileRecord(
                    path=rel,
                    digest=sha256_bytes(content),
                    size=stat.st_size,
                    type_code=classify_bytes(rel, content, catalog).code,
                )
            )

    records.sort(key=lambda r: r.path)
    directories = [
        DirectoryRecord(
            path=d, depth=d.count("/") + 1, file_count=dir_file_counts.get(d, 0)
        )
        for d in sorted(all_dirs)
    ]
    return LayerProfile(
        digest=digest,
        compressed_size=compressed_size,
        files_size=files_size,
        file_count=len(records),
        directory_count=len(directories),
        max_depth=max_depth,
        files=records,
        directories=directories,
    )


def extract_and_profile_on_disk(
    digest: str,
    blob: bytes,
    workdir: str | Path,
    catalog: TypeCatalog | None = None,
) -> LayerProfile:
    """Convenience wrapper: extract into ``workdir/<short digest>`` and
    profile the result (files are left in place for inspection)."""
    from repro.util.digest import short_digest

    root = extract_to_directory(blob, Path(workdir) / short_digest(digest))
    return profile_directory(digest, len(blob), root, catalog)
