"""Unit tests for raw datasets and the catalog."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import Dataset, DatasetCatalog, raw_file_name
from repro.data.spatial_object import SpatialObject, spatial_object_codec
from repro.geometry.box import Box
from repro.storage.pagedfile import PagedFile

from tests.conftest import make_catalog, make_dataset, make_object, make_random_objects
from tests.scalar_reference import scan_objects


class TestDatasetCreate:
    def test_create_and_scan_roundtrip(self, disk, universe):
        objects = make_random_objects(universe, 500, dataset_id=1, seed=3)
        dataset = Dataset.create(disk, 1, "ds1", objects, universe)
        assert dataset.n_objects == 500
        scanned = list(scan_objects(dataset))
        assert {o.key() for o in scanned} == {o.key() for o in objects}

    def test_create_rejects_wrong_dataset_id(self, disk, universe):
        objects = [make_object(0, dataset_id=9, center=(1.0, 1.0, 1.0))]
        with pytest.raises(ValueError):
            Dataset.create(disk, 1, "bad", objects, universe)

    def test_create_rejects_object_outside_universe(self, disk, universe):
        outside = SpatialObject(
            oid=0, dataset_id=0, box=Box((200.0, 200.0, 200.0), (201.0, 201.0, 201.0))
        )
        with pytest.raises(ValueError):
            Dataset.create(disk, 0, "bad", [outside], universe)

    def test_create_twice_same_name_fails(self, disk, universe):
        make_dataset(disk, universe, dataset_id=0, count=10, name="dup")
        with pytest.raises(ValueError):
            make_dataset(disk, universe, dataset_id=0, count=10, name="dup")

    def test_empty_dataset(self, disk, universe):
        dataset = Dataset.create(disk, 0, "empty", [], universe)
        assert dataset.n_objects == 0
        assert list(scan_objects(dataset)) == []
        assert dataset.size_pages() >= 0

    def test_open_existing(self, disk, universe):
        created = make_dataset(disk, universe, dataset_id=2, count=120, name="reopen")
        reopened = Dataset.open(disk, 2, "reopen", universe)
        assert reopened.n_objects == created.n_objects

    def test_open_missing_fails(self, disk, universe):
        with pytest.raises(ValueError):
            Dataset.open(disk, 0, "nope", universe)

    def test_scan_charges_sequential_io(self, disk, universe):
        dataset = make_dataset(disk, universe, count=400)
        disk.reset_head()
        before = disk.stats_snapshot()
        assert sum(len(chunk) for chunk in dataset.scan_arrays()) == 400
        delta = disk.stats.delta_since(before)
        assert delta.pages_read == dataset.size_pages()
        assert delta.seeks == 1  # one sequential pass

    def test_scan_arrays_match_the_objects_written(self, disk, universe):
        objects = make_random_objects(universe, 300, seed=5)
        dataset = Dataset.create(disk, 0, "arrays", objects, universe)
        records = np.concatenate(list(dataset.scan_arrays()))
        assert records["oid"].tolist() == [o.oid for o in objects]
        assert records["lo"].tolist() == [list(o.box.lo) for o in objects]
        assert records["hi"].tolist() == [list(o.box.hi) for o in objects]

    def test_raw_file_name_convention(self):
        assert raw_file_name("abc") == "raw/abc.dat"


def packed_array(objects, dimension: int = 3) -> np.ndarray:
    codec = spatial_object_codec(dimension)
    return np.frombuffer(b"".join(codec.pack(obj) for obj in objects), dtype=codec.dtype)


class TestDatasetCreateFromArray:
    """``Dataset.create`` given a structured array, as the generators call it."""

    def test_array_and_objects_write_the_same_pages(self, disk, universe):
        objects = make_random_objects(universe, 500, dataset_id=1, seed=3)
        from_objects = Dataset.create(disk, 1, "objects", objects, universe)
        from_array = Dataset.create(disk, 1, "array", packed_array(objects), universe)
        assert from_array.n_objects == 500
        assert list(scan_objects(from_array)) == list(scan_objects(from_objects))
        def pages(dataset):
            return [disk.backend.read(dataset.file.name, p) for p in range(dataset.size_pages())]

        assert pages(from_array) == pages(from_objects)

    def test_empty_array_creates_an_empty_file(self, disk, universe):
        dataset = Dataset.create(disk, 0, "empty", packed_array([]), universe)
        assert dataset.n_objects == 0
        assert dataset.file.exists()
        assert list(scan_objects(dataset)) == []

    @pytest.mark.parametrize(
        "bad, expected",
        [
            (
                SpatialObject(7, 2, Box((1.0,) * 3, (2.0,) * 3)),
                "object 7 carries dataset_id 2, expected 0",
            ),
            (
                SpatialObject(7, 0, Box((200.0,) * 3, (201.0,) * 3)),
                "object 7 lies outside the universe",
            ),
            (
                SpatialObject(7, 0, Box._trusted((1.0, float("nan"), 1.0), (2.0,) * 3)),
                "object 7: NaN coordinate on axis 1",
            ),
            (
                SpatialObject(7, 0, Box._trusted((1.0, 1.0, 3.0), (2.0,) * 3)),
                "object 7: inverted box on axis 2: lo=3.0 > hi=2.0",
            ),
        ],
        ids=["dataset_id", "outside", "nan", "inverted"],
    )
    def test_bad_row_raises_the_object_path_error(self, disk, universe, bad, expected):
        objects = make_random_objects(universe, 200, dataset_id=0, seed=4)
        objects[7] = bad
        objects[150] = SpatialObject(150, 5, objects[150].box)  # a later bad row
        with pytest.raises(ValueError) as from_objects:
            Dataset.create(disk, 0, "objects", objects, universe)
        with pytest.raises(ValueError) as from_array:
            Dataset.create(disk, 0, "array", packed_array(objects), universe)
        assert str(from_objects.value) == str(from_array.value) == expected
        assert not disk.file_exists(raw_file_name("objects"))
        assert not disk.file_exists(raw_file_name("array"))

    def test_wrong_dtype_raises_the_array_surface_error(self, disk, universe):
        records = packed_array(make_random_objects(Box.unit(2), 5, seed=1), dimension=2)
        with pytest.raises(TypeError) as from_file:
            PagedFile(disk, "probe", spatial_object_codec(3)).append_group_array(records)
        with pytest.raises(TypeError) as from_create:
            Dataset.create(disk, 0, "array", records, universe)
        assert str(from_create.value) == str(from_file.value)
        assert not disk.file_exists(raw_file_name("array"))
        # The object path's form of the same mistake: objects of another dimension.
        with pytest.raises(ValueError, match="object has dimension 2, codec expects 3"):
            Dataset.create(disk, 0, "objects", make_random_objects(Box.unit(2), 5), universe)


class TestDatasetCatalog:
    def test_lookup_and_ordering(self, disk, universe):
        catalog = make_catalog(disk, universe, n_datasets=3, count=50)
        assert catalog.dataset_ids() == [0, 1, 2]
        assert len(catalog) == 3
        assert catalog.get(1).dataset_id == 1
        assert [d.dataset_id for d in catalog] == [0, 1, 2]

    def test_unknown_id_raises(self, disk, universe):
        catalog = make_catalog(disk, universe, n_datasets=2, count=20)
        with pytest.raises(KeyError):
            catalog.get(99)

    def test_subset_validates_ids(self, disk, universe):
        catalog = make_catalog(disk, universe, n_datasets=3, count=20)
        assert [d.dataset_id for d in catalog.subset([2, 0])] == [2, 0]
        with pytest.raises(KeyError):
            catalog.subset([5])

    def test_totals(self, disk, universe):
        catalog = make_catalog(disk, universe, n_datasets=3, count=40)
        assert catalog.total_objects() == 120
        assert catalog.total_pages() > 0

    def test_duplicate_ids_rejected(self, disk, universe):
        a = make_dataset(disk, universe, dataset_id=0, count=10, name="a")
        b = make_dataset(disk, universe, dataset_id=0, count=10, name="b")
        with pytest.raises(ValueError):
            DatasetCatalog([a, b])

    def test_empty_catalog_rejected(self):
        with pytest.raises(ValueError):
            DatasetCatalog([])

    def test_universe_is_bounding_box(self, disk, universe):
        catalog = make_catalog(disk, universe, n_datasets=2, count=20)
        assert catalog.universe.contains_box(universe)
        assert catalog.dimension == 3
