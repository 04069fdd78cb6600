"""Columnar views of spatial-object groups.

The storage layer decodes pages of spatial objects into NumPy structured
arrays (:func:`~repro.storage.pagedfile.read_groups`, one call per
query's plan); this module turns those records into the
:class:`DecodedGroup` column bundle the query engines filter with —
``oids``/``dataset_ids`` vectors and the MBR corner matrices — and
materialises :class:`~repro.data.spatial_object.SpatialObject` instances
only for the rows a query actually hits.

Every columnar engine — sequential, batched, thread-parallel, epoch —
filters through :func:`filter_groups` (a sequential query is a batch of
one), so there is a single bytes→columns→objects path in the library and
it costs one concatenation, one split into columns, one mask and one
materialisation per batch, however many groups and queries the batch
holds.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Sequence

import numpy as np

from repro.data.spatial_object import SpatialObject, trusted_objects
from repro.geometry.box import Box
from repro.geometry.vectorized import intersect_mask
from repro.storage.pagedfile import frozen_concat


class DecodedGroup:
    """Stored records decoded into columnar arrays.

    :func:`filter_groups` builds one for a whole batch's records.  Holds
    the record fields as NumPy columns (``oids``, ``dataset_ids``
    and the MBR corner matrices) so queries can filter with one vectorized
    mask; :meth:`materialize` builds ``SpatialObject`` instances only for
    the rows that survived the mask — conversion work is proportional to
    the rows *selected*, never to the group size, so a partition that a
    query window merely grazes costs (almost) nothing to skip.
    """

    __slots__ = ("oids", "dataset_ids", "lo", "hi")

    def __init__(
        self,
        oids: np.ndarray,
        dataset_ids: np.ndarray,
        lo: np.ndarray,
        hi: np.ndarray,
    ) -> None:
        self.oids = oids
        self.dataset_ids = dataset_ids
        self.lo = lo
        self.hi = hi

    @classmethod
    def from_records(cls, records: np.ndarray, dimension: int) -> "DecodedGroup":
        """Wrap the structured records of one stored group as columns."""
        return cls(
            oids=records["oid"],
            dataset_ids=records["dataset_id"],
            lo=records["lo"].reshape(-1, dimension),
            hi=records["hi"].reshape(-1, dimension),
        )

    @property
    def n_records(self) -> int:
        """Number of records in the group."""
        return len(self.oids)

    def materialize(self, mask: np.ndarray) -> list[SpatialObject]:
        """The records selected by ``mask`` as regular spatial objects.

        Stored corners are validated here, for the selected rows only and
        in one vectorized test (``lo <= hi`` is false for an inverted *or*
        a NaN corner); a bad row is then rebuilt through the checking
        :class:`Box` constructor so it raises that constructor's error.
        """
        rows = np.nonzero(mask)[0]
        if not len(rows):
            return []
        lo = self.lo[rows]
        hi = self.hi[rows]
        valid = lo <= hi
        if not valid.all():
            bad = np.nonzero(~valid)[0][0]
            Box(tuple(lo[bad].tolist()), tuple(hi[bad].tolist()))
        # Bulk ndarray->list conversion of just the selected rows beats
        # per-element casts without ever touching unselected records.  The
        # corners convert column by column and zip straight into tuples: a
        # row-by-row ``tolist()`` would leave two short-lived lists per hit,
        # which in a batch-sized call push the cyclic collector into an
        # extra full collection mid-batch.  The objects are built column
        # by column too, with no Python frame per hit.
        return trusted_objects(
            self.oids[rows].tolist(),
            self.dataset_ids[rows].tolist(),
            zip(*lo.T.tolist()),
            zip(*hi.T.tolist()),
        )


def filter_groups(
    plan: Sequence[tuple[int, int, np.ndarray]],
    q_lo: np.ndarray | Sequence[Sequence[float]],
    q_hi: np.ndarray | Sequence[Sequence[float]],
) -> tuple[list[list[SpatialObject]], list[int]]:
    """Filter a batch's stored groups with one mask and one materialisation.

    ``q_lo``/``q_hi`` are the ``(m, d)`` windows of the batch's ``m``
    queries (a lone query may pass ``[box.lo]``/``[box.hi]``); ``plan``
    lists ``(query index, owner dataset id, records)`` in read order,
    query indices ascending, each ``records`` one group's structured
    array.  A row is a hit of its entry's query when it belongs to the
    entry's owner dataset (merge files and Ain1 groups interleave
    datasets) and its MBR intersects that query's closed window.  The
    groups' records are concatenated once (their bytes joined) and split
    into columns once (:meth:`DecodedGroup.from_records`), with per-row
    owner and query-index vectors, so each query's hits come back in its
    plan order, rows ascending within a group — exactly the order of
    filtering group by group — and ``bincount`` of the query index splits
    the hits and counts the records each query examined.
    """
    m = len(q_lo)
    if not plan:
        return [[] for _ in range(m)], [0] * m
    parts = [records for _, _, records in plan]
    dtype = parts[0].dtype
    merged = DecodedGroup.from_records(frozen_concat(parts, dtype), dtype["lo"].shape[0])
    sizes = [len(records) for records in parts]
    owners = np.repeat([owner for _, owner, _ in plan], sizes)
    if m == 1:  # a lone query: its window broadcasts and every row is its own
        mask = intersect_mask(q_lo[0], q_hi[0], merged.lo, merged.hi)
        mask &= merged.dataset_ids == owners
        return [merged.materialize(mask)], [len(owners)]
    queries = np.repeat([query for query, _, _ in plan], sizes)
    q_lo, q_hi = np.asarray(q_lo), np.asarray(q_hi)
    mask = intersect_mask(q_lo[queries], q_hi[queries], merged.lo, merged.hi)
    mask &= merged.dataset_ids == owners
    hits = merged.materialize(mask)
    ends = list(accumulate(np.bincount(queries[mask], minlength=m).tolist()))
    split = [hits[start:end] for start, end in zip([0] + ends, ends)]
    return split, np.bincount(queries, minlength=m).tolist()
