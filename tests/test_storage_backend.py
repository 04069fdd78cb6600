"""Unit tests for the page storage backends."""

from __future__ import annotations

import pytest

from repro.storage.backend import FileSystemBackend, InMemoryBackend, StorageError


@pytest.fixture(params=["memory", "filesystem"])
def backend(request, tmp_path):
    if request.param == "memory":
        return InMemoryBackend(page_size=256)
    return FileSystemBackend(tmp_path, page_size=256)


class TestFileLifecycle:
    def test_create_and_exists(self, backend):
        assert not backend.exists("a")
        backend.create("a")
        assert backend.exists("a")
        assert backend.num_pages("a") == 0

    def test_create_twice_fails(self, backend):
        backend.create("a")
        with pytest.raises(StorageError):
            backend.create("a")

    def test_delete(self, backend):
        backend.create("a")
        backend.delete("a")
        assert not backend.exists("a")

    def test_delete_missing_fails(self, backend):
        with pytest.raises(StorageError):
            backend.delete("missing")

    def test_list_files_sorted(self, backend):
        for name in ("b", "a", "c"):
            backend.create(name)
        listed = backend.list_files()
        assert listed == sorted(listed)
        assert len(listed) == 3


class TestPageAccess:
    def test_append_and_read(self, backend):
        backend.create("f")
        page_no = backend.append("f", b"hello")
        assert page_no == 0
        data = backend.read("f", 0)
        assert data.startswith(b"hello")
        assert len(data) == 256

    def test_append_returns_increasing_page_numbers(self, backend):
        backend.create("f")
        numbers = [backend.append("f", bytes([i])) for i in range(5)]
        assert numbers == [0, 1, 2, 3, 4]
        assert backend.num_pages("f") == 5

    def test_write_overwrites_in_place(self, backend):
        backend.create("f")
        backend.append("f", b"old")
        backend.write("f", 0, b"new")
        assert backend.read("f", 0).startswith(b"new")
        assert backend.num_pages("f") == 1

    def test_read_out_of_range(self, backend):
        backend.create("f")
        with pytest.raises(StorageError):
            backend.read("f", 0)

    def test_write_out_of_range(self, backend):
        backend.create("f")
        with pytest.raises(StorageError):
            backend.write("f", 3, b"x")

    def test_oversized_page_rejected(self, backend):
        backend.create("f")
        with pytest.raises(StorageError):
            backend.append("f", bytes(1000))

    def test_read_missing_file(self, backend):
        with pytest.raises(StorageError):
            backend.read("missing", 0)


class TestClone:
    def test_clone_copies_contents(self, backend):
        backend.create("f")
        backend.append("f", b"abc")
        copy = backend.clone()
        assert copy.exists("f")
        assert copy.read("f", 0).startswith(b"abc")

    def test_clone_is_independent(self, backend):
        backend.create("f")
        backend.append("f", b"abc")
        copy = backend.clone()
        copy.append("f", b"extra")
        assert backend.num_pages("f") == 1
        assert copy.num_pages("f") == 2


def test_filesystem_backend_sanitises_names(tmp_path):
    backend = FileSystemBackend(tmp_path, page_size=128)
    backend.create("raw/with:odd chars")
    assert backend.exists("raw/with:odd chars")
    backend.append("raw/with:odd chars", b"x")
    assert backend.num_pages("raw/with:odd chars") == 1


class TestFileSystemErrorPaths:
    """The error paths only a real filesystem can produce."""

    @pytest.fixture
    def fs(self, tmp_path):
        return FileSystemBackend(tmp_path, page_size=128)

    def test_missing_file_raises_everywhere(self, fs):
        for operation in (
            lambda: fs.num_pages("missing"),
            lambda: fs.read("missing", 0),
            lambda: fs.write("missing", 0, b"x"),
            lambda: fs.append("missing", b"x"),
            lambda: fs.delete("missing"),
        ):
            with pytest.raises(StorageError, match="no such file"):
                operation()

    def test_negative_page_offset_rejected(self, fs):
        fs.create("f")
        fs.append("f", b"data")
        with pytest.raises(StorageError, match="out of range"):
            fs.read("f", -1)
        with pytest.raises(StorageError, match="out of range"):
            fs.write("f", -1, b"x")

    def test_read_past_end_of_file(self, fs):
        fs.create("f")
        fs.append("f", b"data")
        with pytest.raises(StorageError, match="out of range"):
            fs.read("f", 1)
        with pytest.raises(StorageError, match="out of range"):
            fs.read("f", 10_000)

    def test_short_page_surfaces_as_storage_error(self, fs, tmp_path):
        """A truncated OS file must raise, not silently return short bytes."""
        import os

        fs.create("f")
        fs.append("f", b"page-0")
        fs.append("f", b"page-1")
        os.truncate(tmp_path / "f.pages", 128 + 40)  # page 1 now partial
        assert fs.read("f", 0).startswith(b"page-0")  # intact page unaffected
        with pytest.raises(StorageError, match="short page"):
            fs.read("f", 1)

    def test_partial_trailing_page_not_counted(self, fs, tmp_path):
        """num_pages only counts complete pages of a foreign/truncated file."""
        import os

        fs.create("f")
        fs.append("f", b"page-0")
        os.truncate(tmp_path / "f.pages", 128 + 13)
        assert fs.num_pages("f") == 1

    def test_append_overwrites_a_partial_trailing_page(self, tmp_path):
        """A failed append (say ENOSPC mid-write) may leave a partial page:
        the next append lands on its page boundary, not after it."""
        fs = FileSystemBackend(tmp_path, page_size=64)
        fs.create("f")
        assert fs.append("f", b"A" * 64) == 0
        with open(tmp_path / "f.pages", "ab") as handle:
            handle.write(b"B" * 32)  # the partial page of the failed append
        assert fs.append("f", b"C" * 64) == 1
        assert fs.read("f", 1) == b"C" * 64
        assert fs.num_pages("f") == 2
        assert (tmp_path / "f.pages").stat().st_size == 2 * 64

    def test_create_collides_with_sanitised_sibling(self, fs):
        """Two names sanitising to the same OS file cannot coexist."""
        fs.create("a/b")
        with pytest.raises(StorageError, match="already exists"):
            fs.create("a:b")


class TestErrorTaxonomy:
    """Both backends raise the same typed errors for the same conditions.

    The taxonomy (see :mod:`repro.storage.errors`) is what the retry and
    recovery layers key on: transient errors are worth retrying, missing
    files/pages and oversized data are not.
    """

    def test_missing_file_is_typed(self, backend):
        from repro.storage.errors import MissingFileError

        for operation in (
            lambda: backend.num_pages("missing"),
            lambda: backend.read("missing", 0),
            lambda: backend.write("missing", 0, b"x"),
            lambda: backend.append("missing", b"x"),
            lambda: backend.delete("missing"),
        ):
            with pytest.raises(MissingFileError):
                operation()

    def test_missing_page_is_typed(self, backend):
        from repro.storage.errors import MissingPageError

        backend.create("f")
        backend.append("f", b"page-0")
        for page_no in (-1, 1, 10_000):
            with pytest.raises(MissingPageError):
                backend.read("f", page_no)
            with pytest.raises(MissingPageError):
                backend.write("f", page_no, b"x")

    def test_oversized_page_is_a_caller_bug_not_io(self, backend):
        from repro.storage.errors import (
            CorruptPageError,
            MissingFileError,
            TransientIOError,
        )

        backend.create("f")
        with pytest.raises(StorageError) as info:
            backend.append("f", b"x" * 257)
        assert not isinstance(
            info.value, (TransientIOError, CorruptPageError, MissingFileError)
        )

    def test_every_taxonomy_member_is_a_storage_error(self):
        from repro.storage.errors import (
            CorruptPageError,
            MissingFileError,
            MissingPageError,
            TransientIOError,
        )

        for kind in (
            CorruptPageError,
            MissingFileError,
            MissingPageError,
            TransientIOError,
        ):
            assert issubclass(kind, StorageError)

    def test_transient_classification_drives_retry(self):
        from repro.storage.errors import (
            CorruptPageError,
            MissingFileError,
            MissingPageError,
            TransientIOError,
            is_transient,
        )

        assert is_transient(TransientIOError("x"))
        assert is_transient(CorruptPageError("x"))
        assert not is_transient(MissingFileError("x"))
        assert not is_transient(MissingPageError("x"))
        assert not is_transient(StorageError("x"))
