"""The software write-combining cache and the six persistence techniques.

- :mod:`repro.cache.lru` — the O(1) hash-map + doubly-linked-list LRU
  structure the paper specifies (§III-C, "The Cache").
- :mod:`repro.cache.write_cache` — the resizable write-combining cache of
  cache-line addresses.
- :mod:`repro.cache.table` — Atlas's fixed-size direct-mapped table
  (§II-A), the state of the art the paper improves on.
- :mod:`repro.cache.adaptive` — the online controller: bursty sampling →
  MRC → knee → resize (§III-C).
- :mod:`repro.cache.policies` — the six techniques of §IV-A: ER, LA, AT,
  SC, SC-offline and BEST.
- :mod:`repro.cache.spec` — the declarative ``BASE+stage:param`` spec
  grammar and the one technique factory every entry point uses.
- :mod:`repro.cache.stages` — the composable policy stages (nhit
  promotion, sequential cutoff, background cleaning, victim cache).
"""

from repro.cache.lru import LruCache
from repro.cache.write_cache import WriteCombiningCache
from repro.cache.table import AtlasTable
from repro.cache.adaptive import AdaptiveController, AdaptiveConfig
from repro.cache.policies import (
    PersistenceTechnique,
    SharedSizeState,
    EagerTechnique,
    LazyTechnique,
    AtlasTechnique,
    SoftwareCacheTechnique,
    BestTechnique,
    TECHNIQUES,
)
from repro.cache.spec import (
    STAGES,
    TechniqueSpec,
    list_techniques,
    technique_factory,
)
from repro.cache.stages import StagedTechnique

__all__ = [
    "LruCache",
    "WriteCombiningCache",
    "AtlasTable",
    "AdaptiveController",
    "AdaptiveConfig",
    "PersistenceTechnique",
    "SharedSizeState",
    "EagerTechnique",
    "LazyTechnique",
    "AtlasTechnique",
    "SoftwareCacheTechnique",
    "BestTechnique",
    "TECHNIQUES",
    "STAGES",
    "TechniqueSpec",
    "StagedTechnique",
    "list_techniques",
    "technique_factory",
]
