"""Columnar views of spatial-object groups.

The storage layer decodes pages of spatial objects into NumPy structured
arrays (:meth:`~repro.storage.pagedfile.PagedFile.read_group_array`); this
module turns those records into the :class:`DecodedGroup` column bundle the
query engines filter with — ``oids``/``dataset_ids`` vectors and the MBR
corner matrices — and materialises :class:`~repro.data.spatial_object.SpatialObject`
instances only for the rows a query actually hits.

Every columnar engine — sequential, batched, epoch, process workers —
filters through :func:`filter_groups`, so there is a single
bytes→columns→objects path in the library and it costs one mask and one
materialisation per query, however many groups the query reads.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.data.spatial_object import SpatialObject
from repro.geometry.box import Box
from repro.geometry.vectorized import intersect_mask


class DecodedGroup:
    """One stored group decoded into columnar arrays.

    Holds the record fields as NumPy columns (``oids``, ``dataset_ids``
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
        # per-element casts without ever touching unselected records.
        trusted = Box._trusted
        return [
            SpatialObject(oid=oid, dataset_id=dataset_id, box=trusted(tuple(low), tuple(high)))
            for oid, dataset_id, low, high in zip(
                self.oids[rows].tolist(),
                self.dataset_ids[rows].tolist(),
                lo.tolist(),
                hi.tolist(),
            )
        ]


def filter_groups(
    plan: Sequence[tuple[int, DecodedGroup]], q_lo: Sequence[float], q_hi: Sequence[float]
) -> tuple[list[SpatialObject], int]:
    """Filter one query's decoded groups with one mask and one materialisation.

    ``plan`` lists ``(owner dataset id, group)`` in read order; a row is a
    hit when it belongs to its entry's owner dataset (merge files and Ain1
    groups interleave datasets) and its MBR intersects the closed window
    ``[q_lo, q_hi]``.  The groups are concatenated with a per-row owner
    vector, so hits come back in plan order, rows ascending within a group
    — exactly the order of filtering group by group — together with the
    number of records examined.
    """
    if not plan:
        return [], 0
    groups = [group for _, group in plan]
    merged = DecodedGroup(
        oids=np.concatenate([group.oids for group in groups]),
        dataset_ids=np.concatenate([group.dataset_ids for group in groups]),
        lo=np.concatenate([group.lo for group in groups]),
        hi=np.concatenate([group.hi for group in groups]),
    )
    owners = np.repeat(
        [dataset_id for dataset_id, _ in plan], [len(group.oids) for group in groups]
    )
    mask = intersect_mask(q_lo, q_hi, merged.lo, merged.hi)
    mask &= merged.dataset_ids == owners
    return merged.materialize(mask), len(owners)
