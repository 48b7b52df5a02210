"""Calibrated synthetic Docker Hub generation.

The paper's 167 TB crawl cannot be re-downloaded (Docker Hub of May 2017 no
longer exists, and the environment is offline), so we generate a population
whose *marginal distributions* are fit to every number the paper publishes:
layer sizes and compressibility, file/directory counts, the file-type mix of
Figs. 13–22, the duplication structure behind Figs. 24–29, layer sharing
(Fig. 23) and repository popularity (Fig. 8).

Two outputs:

* :func:`generate_dataset` — a columnar :class:`~repro.model.dataset.HubDataset`
  at any scale (the figures and EXPERIMENTS.md are computed from it);
* :func:`materialize_registry` — a real, byte-level
  :class:`~repro.registry.Registry` built from a small dataset, so the
  crawl→download→extract→analyze pipeline can run end-to-end on actual
  tarballs.
"""

from repro.synth.churn import ChurnDelta, ChurnEngine, ChurnParams, RegistryWriter
from repro.synth.config import LayerShapeConfig, PopularityConfig, SharingConfig, SyntheticHubConfig
from repro.synth.content import synthesize_file_bytes
from repro.synth.filepool import FilePool, generate_file_pool
from repro.synth.hubgen import BuiltHub, build_hub, generate_dataset
from repro.synth.streamgen import (
    DEFAULT_CHUNK_OCCURRENCES,
    ChunkSpec,
    DatasetChunk,
    chunks_from_dataset,
    iter_dataset_chunks,
    open_chunk_store,
    plan_layer_chunks,
    spill_chunks,
)
from repro.synth.lineage import (
    SEVERITIES,
    ImageLineage,
    ImageNode,
    LineageConfig,
    PackageModel,
    SyntheticCveDatabase,
    Vulnerability,
    generate_lineage,
    is_official,
)
from repro.synth.materialize import GroundTruth, materialize_registry
from repro.synth.typeprofiles import TypeProfile, default_type_profiles

__all__ = [
    "ChurnDelta",
    "ChurnEngine",
    "ChurnParams",
    "RegistryWriter",
    "BuiltHub",
    "ChunkSpec",
    "DEFAULT_CHUNK_OCCURRENCES",
    "DatasetChunk",
    "FilePool",
    "GroundTruth",
    "ImageLineage",
    "ImageNode",
    "LineageConfig",
    "PackageModel",
    "SEVERITIES",
    "SyntheticCveDatabase",
    "Vulnerability",
    "build_hub",
    "chunks_from_dataset",
    "iter_dataset_chunks",
    "open_chunk_store",
    "plan_layer_chunks",
    "spill_chunks",
    "LayerShapeConfig",
    "PopularityConfig",
    "SharingConfig",
    "SyntheticHubConfig",
    "TypeProfile",
    "default_type_profiles",
    "generate_dataset",
    "generate_file_pool",
    "generate_lineage",
    "is_official",
    "materialize_registry",
    "synthesize_file_bytes",
]
