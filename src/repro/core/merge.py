"""Merge files, the merge directory and query routing (Section 3.2).

A *merge file* stores copies of partitions from several datasets that are
frequently queried together.  For every partition region it contains one
segment per member dataset, laid out sequentially, so a query for any subset
of the merged datasets can read exactly the segments it needs with (mostly)
sequential I/O and skip the rest.

The *merge directory* records which combinations have merge files and which
partitions each file contains; the query processor consults it through
:func:`choose_route`, which implements the paper's four routing cases
(exact merge file, superset, subset, none).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable

from repro.core.partition import PartitionKey
from repro.core.statistics import Combination
from repro.storage.pagedfile import StoredRun


def merge_file_name(combination: Combination) -> str:
    """Conventional merge file name for a combination of datasets."""
    ids = "_".join(str(dataset_id) for dataset_id in sorted(combination))
    return f"merge/combo_{ids}.dat"


@dataclass
class MergeFileInfo:
    """Directory entry describing one merge file.

    ``entries`` maps a partition key to the per-dataset segment
    (:class:`~repro.storage.pagedfile.StoredRun`) inside the merge file.
    The per-dataset mappings are replaced, never mutated, when a segment
    is added, so a copy of ``entries`` may share them.
    """

    combination: Combination
    file_name: str
    entries: dict[PartitionKey, dict[int, StoredRun]] = field(default_factory=dict)
    created_at: int = 0
    last_used: int = 0
    _total_pages: int | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self._total_pages is None:
            self._total_pages = sum(
                run.n_pages
                for per_dataset in self.entries.values()
                for run in per_dataset.values()
            )

    @property
    def n_partitions(self) -> int:
        """Number of partition regions stored in the file."""
        return len(self.entries)

    @property
    def total_pages(self) -> int:
        """Total pages occupied by all segments (kept in step by :meth:`add_segment`)."""
        return self._total_pages

    def has_segment(self, key: PartitionKey, dataset_id: int) -> bool:
        """Whether the file stores the given dataset's copy of a partition."""
        per_dataset = self.entries.get(key)
        return per_dataset is not None and dataset_id in per_dataset

    def segment(self, key: PartitionKey, dataset_id: int) -> StoredRun:
        """The stored segment for one (partition, dataset) pair."""
        return self.entries[key][dataset_id]

    def add_segment(self, key: PartitionKey, dataset_id: int, run: StoredRun) -> None:
        """Record a newly written segment."""
        per_dataset = dict(self.entries.get(key, ()))
        replaced = per_dataset.get(dataset_id)
        if replaced is not None:
            self._total_pages -= replaced.n_pages
        per_dataset[dataset_id] = run
        self.entries[key] = per_dataset
        self._total_pages += run.n_pages

    def copy(self) -> "MergeFileInfo":
        """An independent copy for epoch snapshots.

        ``add_segment`` rebinds keys of the live ``entries`` mapping, so
        that mapping is copied; the per-dataset mappings (never mutated)
        and the frozen :class:`~repro.storage.pagedfile.StoredRun` values
        are shared, and the page count is carried over.
        """
        return MergeFileInfo(
            combination=self.combination,
            file_name=self.file_name,
            entries=dict(self.entries),
            created_at=self.created_at,
            last_used=self.last_used,
            _total_pages=self._total_pages,
        )


class RouteKind(enum.Enum):
    """The paper's four routing cases for a queried combination."""

    EXACT = "exact"
    SUPERSET = "superset"
    SUBSET = "subset"
    NONE = "none"


@dataclass(frozen=True, slots=True)
class RoutingDecision:
    """Which merge file (if any) a query should read from.

    ``covered_datasets`` are the requested datasets the chosen merge file
    can serve; the query processor reads all other datasets from their
    individual partition files.
    """

    kind: RouteKind
    merge_info: MergeFileInfo | None
    covered_datasets: frozenset[int]

    @classmethod
    def none(cls) -> "RoutingDecision":
        """The no-merge-file decision."""
        return cls(kind=RouteKind.NONE, merge_info=None, covered_datasets=frozenset())


class MergeDirectory:
    """Registry of all existing merge files, keyed by combination.

    The directory carries a :attr:`version` counter bumped on every
    :meth:`register`/:meth:`remove` — the merger re-registers an info
    after extending it in place, so any observable change to the merge
    map bumps the version.  The epoch layer uses it for copy-on-write:
    an epoch's frozen directory copy is reused as long as the version is
    unchanged.  Registration is also where the directory keeps its own
    books, so neither needs a pass over the files later: the frozen copy
    of the registered info and the running page total.
    """

    def __init__(self) -> None:
        self._files: dict[Combination, MergeFileInfo] = {}
        self._version = 0
        # Each info as of its latest registration; same order as _files.
        self._frozen: dict[Combination, MergeFileInfo] = {}
        self._total_pages = 0

    # -- registration ----------------------------------------------------- #

    def register(self, info: MergeFileInfo) -> None:
        """Add or replace the merge file of a combination."""
        combination = info.combination
        previous = self._frozen.get(combination)
        if previous is not None:
            self._total_pages -= previous.total_pages
        self._files[combination] = info
        self._frozen[combination] = info.copy()
        self._total_pages += info.total_pages
        self._version += 1

    def remove(self, combination: Combination) -> MergeFileInfo:
        """Forget a combination's merge file and return its entry."""
        try:
            info = self._files.pop(combination)
        except KeyError:
            raise KeyError(f"no merge file for combination {sorted(combination)}") from None
        self._total_pages -= self._frozen.pop(combination).total_pages
        self._version += 1
        return info

    @property
    def version(self) -> int:
        """Monotone change counter (see class docstring)."""
        return self._version

    def freeze(self) -> "MergeDirectory":
        """An immutable-by-convention snapshot copy of the directory.

        It holds the copy (:meth:`MergeFileInfo.copy`) taken of every info
        when it was last registered, so later in-place ``add_segment``
        mutations of the live infos are invisible to holders of the
        frozen copy, and infos not registered since the previous freeze
        are shared with it, not copied again.  (``last_used`` of a frozen
        info is therefore as of its registration — LRU order is a concern
        of the live directory alone.)  The copy keeps the live version so
        staleness checks compare directly.
        """
        frozen = MergeDirectory()
        frozen._files = dict(self._frozen)
        frozen._frozen = dict(self._frozen)
        frozen._total_pages = self._total_pages
        frozen._version = self._version
        return frozen

    # -- lookup ------------------------------------------------------------ #

    def get(self, combination: Iterable[int]) -> MergeFileInfo | None:
        """The merge file for exactly this combination, if any."""
        return self._files.get(frozenset(combination))

    def __contains__(self, combination: Iterable[int]) -> bool:
        return frozenset(combination) in self._files

    def __len__(self) -> int:
        return len(self._files)

    def all_files(self) -> list[MergeFileInfo]:
        """All registered merge files."""
        return list(self._files.values())

    def total_pages(self) -> int:
        """Total pages occupied by every merge file (the space budget metric).

        A running count, as of each file's latest :meth:`register`.
        """
        return self._total_pages

    def lru_order(self) -> list[MergeFileInfo]:
        """Merge files ordered from least to most recently used."""
        return sorted(self._files.values(), key=lambda info: info.last_used)

    # -- routing ----------------------------------------------------------- #

    def find_superset(self, requested: Combination) -> MergeFileInfo | None:
        """The smallest merge file whose combination is a strict superset."""
        candidates = [
            info
            for combo, info in self._files.items()
            if combo > requested  # strict superset
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda info: len(info.combination))

    def find_best_subset(self, requested: Combination) -> MergeFileInfo | None:
        """The merge file covering the most requested datasets (strict subset)."""
        candidates = [
            info
            for combo, info in self._files.items()
            if combo < requested  # strict subset
        ]
        if not candidates:
            return None
        return max(candidates, key=lambda info: len(info.combination))


def choose_route(directory: MergeDirectory, requested: Combination) -> RoutingDecision:
    """Implement the paper's routing rules for a requested combination.

    1. *Exact*: a merge file for exactly the requested combination.
    2. *Superset*: a merge file containing more datasets than requested —
       still preferable because each dataset's objects are stored
       sequentially and non-requested segments can be skipped.
    3. *Subset*: the merge file covering the most requested datasets is
       used for those; the remaining datasets are read from their
       individual partition files.
    4. *None*: only individual files are used.
    """
    exact = directory.get(requested)
    if exact is not None:
        return RoutingDecision(
            kind=RouteKind.EXACT, merge_info=exact, covered_datasets=requested
        )
    superset = directory.find_superset(requested)
    if superset is not None:
        return RoutingDecision(
            kind=RouteKind.SUPERSET, merge_info=superset, covered_datasets=requested
        )
    subset = directory.find_best_subset(requested)
    if subset is not None:
        return RoutingDecision(
            kind=RouteKind.SUBSET,
            merge_info=subset,
            covered_datasets=frozenset(subset.combination),
        )
    return RoutingDecision.none()
