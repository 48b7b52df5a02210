"""The analyzer: decompress layers, build layer/image profiles (§III-C).

:mod:`repro.analyzer.shard` is the layer-work engine — shard, worker loop,
partitioner and driver — that the scanner (:mod:`repro.scan`) runs on too.
"""

from repro.analyzer.analyzer import AnalysisResult, Analyzer
from repro.analyzer.cache import ProfileCache, ProfileCacheStats
from repro.analyzer.extract import extract_and_profile
from repro.analyzer.profiles import (
    DirectoryRecord,
    FileRecord,
    ImageProfile,
    LayerProfile,
    ProfileStore,
    layer_profile_from_json,
    layer_profile_to_json,
)
from repro.analyzer.shard import (
    LayerShard,
    ShardResult,
    build_shards,
    map_layers,
    profile_shard,
    run_shard,
)

__all__ = [
    "AnalysisResult",
    "Analyzer",
    "DirectoryRecord",
    "FileRecord",
    "ImageProfile",
    "LayerProfile",
    "LayerShard",
    "ProfileCache",
    "ProfileCacheStats",
    "ProfileStore",
    "ShardResult",
    "build_shards",
    "extract_and_profile",
    "layer_profile_from_json",
    "layer_profile_to_json",
    "map_layers",
    "profile_shard",
    "run_shard",
]
