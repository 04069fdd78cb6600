"""Spatial objects and their on-disk representation.

A :class:`SpatialObject` is the unit of data everywhere in the library: a
neuron-mesh fragment in the synthetic datasets, a record in a raw file, an
entry in an index partition, an element of a query answer.  As in the
original prototype, every object carries the identifier of the dataset it
belongs to so that the all-in-one (Ain1) indexing strategy and the merge
files can filter by dataset.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable

import numpy as np

from repro.geometry.box import Box
from repro.storage.codec import FixedRecordCodec


@dataclass(frozen=True, slots=True, init=False)
class SpatialObject:
    """A volumetric object: an id, the dataset it belongs to, and its MBR.

    Parameters
    ----------
    oid:
        Object identifier, unique within its dataset.
    dataset_id:
        Identifier of the owning dataset.
    box:
        Minimum bounding rectangle (axis-aligned) of the object.
    """

    oid: int
    dataset_id: int
    box: Box

    def __init__(self, oid: int, dataset_id: int, box: Box) -> None:
        # What the generated frozen ``__init__`` does (it validates
        # nothing either), minus one ``object.__setattr__`` lookup per
        # field: the slots' member descriptors set the fields directly.
        _set_oid(self, oid)
        _set_dataset_id(self, dataset_id)
        _set_box(self, box)

    @property
    def center(self) -> tuple[float, ...]:
        """Centre of the object's MBR (used for partition assignment)."""
        return self.box.center

    @property
    def dimension(self) -> int:
        """Dimensionality of the object."""
        return self.box.dimension

    def key(self) -> tuple[int, int]:
        """Globally unique identity ``(dataset_id, oid)``."""
        return (self.dataset_id, self.oid)

    def intersects(self, box: Box) -> bool:
        """Whether the object's MBR intersects ``box``."""
        return self.box.intersects(box)


_set_oid = SpatialObject.oid.__set__
_set_dataset_id = SpatialObject.dataset_id.__set__
_set_box = SpatialObject.box.__set__
_set_lo = Box.lo.__set__
_set_hi = Box.hi.__set__
_new = object.__new__
#: Runs an iterator to its end and keeps nothing.
_drain = deque(maxlen=0).extend


def trusted_objects(
    oids: list[int],
    dataset_ids: Iterable[int],
    lows: Iterable[tuple[float, ...]],
    highs: Iterable[tuple[float, ...]],
) -> list[SpatialObject]:
    """``SpatialObject(oid, dataset_id, Box._trusted(low, high))`` per row, column by column.

    ``object.__new__`` and the slots' member descriptors are mapped over
    the columns (each ``map`` drained into a zero-length ``deque``), so
    no Python frame runs per object and the fields hold exactly what the
    two constructors store.  The caller vouches for the corners
    (``low <= high`` on every axis), as for ``Box._trusted``.
    """
    n = len(oids)
    objects = list(map(_new, repeat(SpatialObject, n)))
    boxes = list(map(_new, repeat(Box, n)))
    _drain(map(_set_lo, boxes, lows))
    _drain(map(_set_hi, boxes, highs))
    _drain(map(_set_oid, objects, oids))
    _drain(map(_set_dataset_id, objects, dataset_ids))
    _drain(map(_set_box, objects, boxes))
    return objects


def spatial_object_codec(dimension: int) -> FixedRecordCodec[SpatialObject]:
    """The fixed-size binary codec for objects of a given dimensionality.

    Layout (little endian): ``oid`` (int64), ``dataset_id`` (int64), the
    ``lo`` corner (float64 per dimension), the ``hi`` corner (float64 per
    dimension).  For 3-D data this is 64 bytes per record, so a 4 KB page
    holds 63 objects after the page header.

    The codec carries the matching :func:`spatial_object_dtype`, so every
    :class:`~repro.storage.pagedfile.PagedFile` of spatial objects (raw
    files, partition files, merge files) automatically supports the
    zero-copy array surface (``read_group_array`` and friends).
    """
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    fmt = "<qq" + "d" * (2 * dimension)

    def to_fields(obj: SpatialObject) -> tuple:
        if obj.dimension != dimension:
            raise ValueError(
                f"object has dimension {obj.dimension}, codec expects {dimension}"
            )
        return (obj.oid, obj.dataset_id, *obj.box.lo, *obj.box.hi)

    def from_fields(fields: tuple) -> SpatialObject:
        oid, dataset_id = fields[0], fields[1]
        coords = fields[2:]
        lo = tuple(coords[:dimension])
        hi = tuple(coords[dimension:])
        return SpatialObject(oid=oid, dataset_id=dataset_id, box=Box(lo, hi))

    return FixedRecordCodec(fmt, to_fields, from_fields, dtype=spatial_object_dtype(dimension))


def spatial_object_dtype(dimension: int) -> np.dtype:
    """A NumPy structured dtype matching :func:`spatial_object_codec`'s layout.

    The columnar storage surface decodes whole pages of records into
    structured arrays with ``np.frombuffer`` instead of unpacking record by
    record; the field order and little-endian widths mirror the codec
    byte-for-byte, so both decoders see identical values and encoding from
    an array writes identical bytes.
    """
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    return np.dtype(
        [
            ("oid", "<i8"),
            ("dataset_id", "<i8"),
            ("lo", "<f8", (dimension,)),
            ("hi", "<f8", (dimension,)),
        ]
    )
