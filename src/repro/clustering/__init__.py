"""Hierarchical clustering (paper Section IV-D), written from scratch.

The paper clusters sensitive packets agglomeratively with the *group
average* criterion: repeatedly merge the pair of clusters whose mean
pairwise packet distance is smallest, until one cluster remains.  The merge
history is a dendrogram from which signature generation reads clusters.

- :func:`repro.clustering.linkage.agglomerate` — the algorithm
  (group-average default; single/complete/ward for the ablation bench),
- :class:`repro.clustering.dendrogram.Dendrogram` — the merge tree,
- :mod:`repro.clustering.cut` — extraction of flat clusters.
"""

from repro.clustering.cut import cut_by_height
from repro.clustering.dendrogram import Dendrogram, Merge
from repro.clustering.linkage import Linkage, agglomerate

__all__ = [
    "Linkage",
    "agglomerate",
    "Dendrogram",
    "Merge",
    "cut_by_height",
]
