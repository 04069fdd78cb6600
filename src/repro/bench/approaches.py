"""Registry of the competing approaches.

The paper's Figure 4 compares FLAT-Ain1, FLAT-1fE, RTree-Ain1, Grid-1fE and
Space Odyssey; Figure 5 uses the most competitive static approaches
(FLAT-Ain1 and Grid-1fE) plus Odyssey, and Figure 5c adds Odyssey with
merging disabled (a merge space budget of 0 pages).  The registry also
exposes RTree-1fE and Grid-Ain1 so the full strategy matrix can be explored.
"""

from __future__ import annotations

from typing import Callable

from repro.baselines.flat import FLATIndex
from repro.baselines.grid import GridIndex
from repro.baselines.interface import MultiDatasetIndex
from repro.baselines.rtree import STRRTree
from repro.baselines.strategies import AllInOne, OneForEach
from repro.bench.scales import ExperimentScale
from repro.core.config import OdysseyConfig
from repro.core.odyssey import SpaceOdyssey
from repro.data.suite import BenchmarkSuite

ApproachFactory = Callable[[BenchmarkSuite, ExperimentScale], MultiDatasetIndex]


def _grid_factory(suite: BenchmarkSuite, scale: ExperimentScale):
    def factory(name: str) -> GridIndex:
        return GridIndex(
            disk=suite.disk,
            name=name,
            universe=suite.universe,
            cells_per_dim=scale.grid_cells_per_dim,
            build_buffer_objects=scale.grid_build_buffer_objects,
        )

    return factory


def _rtree_factory(suite: BenchmarkSuite, scale: ExperimentScale):
    def factory(name: str) -> STRRTree:
        return STRRTree(
            disk=suite.disk,
            name=name,
            universe=suite.universe,
            build_memory_pages=scale.build_memory_pages,
        )

    return factory


def _flat_factory(suite: BenchmarkSuite, scale: ExperimentScale):
    def factory(name: str) -> FLATIndex:
        return FLATIndex(
            disk=suite.disk,
            name=name,
            universe=suite.universe,
            build_memory_pages=scale.build_memory_pages,
        )

    return factory


def odyssey_config_for(scale: ExperimentScale) -> OdysseyConfig:
    """The paper's Space Odyssey configuration, bound to a scale preset."""
    return OdysseyConfig(
        refinement_threshold=4.0,
        partitions_per_level=64,
        merge_threshold=2,
        min_merge_combination=3,
    )


APPROACHES: dict[str, ApproachFactory] = {
    "FLAT-Ain1": lambda suite, scale: AllInOne(
        suite.catalog, _flat_factory(suite, scale), "FLAT-Ain1"
    ),
    "FLAT-1fE": lambda suite, scale: OneForEach(
        suite.catalog, _flat_factory(suite, scale), "FLAT-1fE"
    ),
    "RTree-Ain1": lambda suite, scale: AllInOne(
        suite.catalog, _rtree_factory(suite, scale), "RTree-Ain1"
    ),
    "RTree-1fE": lambda suite, scale: OneForEach(
        suite.catalog, _rtree_factory(suite, scale), "RTree-1fE"
    ),
    "Grid-1fE": lambda suite, scale: OneForEach(
        suite.catalog, _grid_factory(suite, scale), "Grid-1fE"
    ),
    "Grid-Ain1": lambda suite, scale: AllInOne(
        suite.catalog, _grid_factory(suite, scale), "Grid-Ain1"
    ),
    "Odyssey": lambda suite, scale: SpaceOdyssey(
        suite.catalog, odyssey_config_for(scale)
    ),
    "Odyssey-NoMerge": lambda suite, scale: SpaceOdyssey(
        suite.catalog, odyssey_config_for(scale).without_merging()
    ),
}

#: The approaches shown in the paper's Figure 4.
FIGURE4_APPROACHES: tuple[str, ...] = (
    "FLAT-Ain1",
    "FLAT-1fE",
    "RTree-Ain1",
    "Grid-1fE",
    "Odyssey",
)

#: The approaches shown in the paper's Figure 5a/5b.
FIGURE5_APPROACHES: tuple[str, ...] = ("FLAT-Ain1", "Grid-1fE", "Odyssey")


def make_approach(
    name: str, suite: BenchmarkSuite, scale: ExperimentScale
) -> MultiDatasetIndex:
    """Instantiate an approach by name over a benchmark suite."""
    try:
        factory = APPROACHES[name]
    except KeyError:
        raise ValueError(
            f"unknown approach {name!r}; expected one of {sorted(APPROACHES)}"
        ) from None
    return factory(suite, scale)
