"""Physical page storage backends.

A backend only stores and retrieves raw page bytes; it knows nothing about
costs, caching or records.  Two implementations are provided:

* :class:`InMemoryBackend` — pages live in Python ``bytes`` objects.  This is
  the default for experiments and tests: the *cost model* (not the host
  machine's RAM/disk) provides the timing behaviour, so keeping the bytes in
  memory makes the simulation fast and hermetic.
* :class:`FileSystemBackend` — pages live in real files under a directory,
  one file per logical file.  Useful for inspecting on-disk layouts produced
  by the indexes and for running the library against real storage.  A page
  access costs one ``pread``/``pwrite`` on a descriptor the backend keeps
  per file (at most :data:`MAX_OPEN_FILES`, least recently used closed
  first; released by ``delete``, ``close()`` and finalisation) — never an
  ``open`` per page.  :func:`flat_file_name` is the one place logical
  names are flattened into host file names.

Failures are raised through the taxonomy of :mod:`repro.storage.errors`
(all subclasses of the seed-era :class:`StorageError`): a missing file is
:class:`MissingFileError`, a page number outside the file is
:class:`MissingPageError`, a trailing short page (a torn write, or a file
truncated out from under us) is :class:`CorruptPageError`, and host
``OSError`` s in :class:`FileSystemBackend` surface as
:class:`TransientIOError` so retry layers know they are worth retrying.
Oversized page data stays a plain :class:`StorageError`: it is a caller
bug, not an I/O fault.
"""

from __future__ import annotations

import os
import threading
import weakref
from abc import ABC, abstractmethod
from collections import OrderedDict
from pathlib import Path

from repro.storage.errors import (
    CorruptPageError,
    MissingFileError,
    MissingPageError,
    StorageError,
    TransientIOError,
)
from repro.storage.page import PAGE_SIZE

__all__ = [
    "CorruptPageError",
    "FileSystemBackend",
    "InMemoryBackend",
    "MAX_OPEN_FILES",
    "MissingFileError",
    "MissingPageError",
    "StorageBackend",
    "StorageError",
    "TransientIOError",
    "flat_file_name",
]


class StorageBackend(ABC):
    """Abstract page store: named files, each an array of fixed-size pages."""

    def __init__(self, page_size: int = PAGE_SIZE) -> None:
        if page_size <= 0:
            raise ValueError("page_size must be positive")
        self._page_size = page_size

    @property
    def page_size(self) -> int:
        """Size in bytes of every page handled by this backend."""
        return self._page_size

    # -- file lifecycle -------------------------------------------------- #

    @abstractmethod
    def create(self, name: str) -> None:
        """Create an empty file.  Raises :class:`StorageError` if it exists."""

    @abstractmethod
    def delete(self, name: str) -> None:
        """Delete a file and its pages.  Raises if the file does not exist."""

    @abstractmethod
    def exists(self, name: str) -> bool:
        """Whether a file with this name exists."""

    @abstractmethod
    def list_files(self) -> list[str]:
        """Names of all files, sorted."""

    @abstractmethod
    def num_pages(self, name: str) -> int:
        """Number of pages currently in the file."""

    @abstractmethod
    def clone(self) -> "StorageBackend":
        """An independent copy of the backend with identical file contents.

        The benchmark harness uses this to run several approaches against
        byte-identical datasets without re-generating them: each run gets
        its own backend (and disk, and accounting) forked from a master.
        """

    # -- page access ----------------------------------------------------- #

    @abstractmethod
    def read(self, name: str, page_no: int) -> bytes:
        """Return the bytes of one page."""

    @abstractmethod
    def write(self, name: str, page_no: int, data: bytes) -> None:
        """Overwrite one existing page."""

    @abstractmethod
    def append(self, name: str, data: bytes) -> int:
        """Append one page and return its page number."""

    # -- shared validation ----------------------------------------------- #

    def _check_page_data(self, data: bytes) -> bytes:
        if len(data) > self._page_size:
            raise StorageError(
                f"page data of {len(data)} bytes exceeds page size {self._page_size}"
            )
        if len(data) < self._page_size:
            data = data + bytes(self._page_size - len(data))
        return data


class InMemoryBackend(StorageBackend):
    """Pages stored in process memory (the default for simulation)."""

    def __init__(self, page_size: int = PAGE_SIZE) -> None:
        super().__init__(page_size)
        self._files: dict[str, list[bytes]] = {}

    def create(self, name: str) -> None:
        if name in self._files:
            raise StorageError(f"file already exists: {name!r}")
        self._files[name] = []

    def delete(self, name: str) -> None:
        try:
            del self._files[name]
        except KeyError:
            raise MissingFileError(f"no such file: {name!r}") from None

    def exists(self, name: str) -> bool:
        return name in self._files

    def clone(self) -> "InMemoryBackend":
        copy = InMemoryBackend(page_size=self.page_size)
        # Page bytes are immutable, so sharing them between clones is safe.
        copy._files = {name: list(pages) for name, pages in self._files.items()}
        return copy

    def list_files(self) -> list[str]:
        return sorted(self._files)

    def num_pages(self, name: str) -> int:
        return len(self._pages(name))

    def read(self, name: str, page_no: int) -> bytes:
        pages = self._pages(name)
        self._check_page_no(name, page_no, len(pages))
        return pages[page_no]

    def write(self, name: str, page_no: int, data: bytes) -> None:
        pages = self._pages(name)
        self._check_page_no(name, page_no, len(pages))
        pages[page_no] = self._check_page_data(data)

    def append(self, name: str, data: bytes) -> int:
        pages = self._pages(name)
        pages.append(self._check_page_data(data))
        return len(pages) - 1

    def _pages(self, name: str) -> list[bytes]:
        try:
            return self._files[name]
        except KeyError:
            raise MissingFileError(f"no such file: {name!r}") from None

    @staticmethod
    def _check_page_no(name: str, page_no: int, total: int) -> None:
        if not 0 <= page_no < total:
            raise MissingPageError(
                f"page {page_no} out of range for {name!r} with {total} pages"
            )


#: Most page-file descriptors one :class:`FileSystemBackend` keeps open.
#: A constant, not an option: every default ``RLIMIT_NOFILE`` leaves room
#: for a dozen backends at this cap, and a workload that rotates through
#: more files than this merely pays the re-open the seed paid per page.
MAX_OPEN_FILES = 64


def flat_file_name(name: str) -> str:
    """The flat host file stem a logical file name is stored under.

    Logical names are arbitrary identifiers (dataset names, combination
    keys); everything outside ``[A-Za-z0-9._-]`` becomes ``_``.  This is
    also the name :meth:`FileSystemBackend.list_files` reports.
    """
    return "".join(c if c.isalnum() or c in "._-" else "_" for c in name)


def _close_all(descriptors: "OrderedDict[str, int]") -> None:
    while descriptors:
        _path, fd = descriptors.popitem()
        try:
            os.close(fd)
        except OSError:
            pass


def _pwrite_all(fd: int, data: bytes, offset: int) -> None:
    written = os.pwrite(fd, data, offset)
    while written < len(data):  # a short write: rare on regular files, legal
        written += os.pwrite(fd, data[written:], offset + written)


class FileSystemBackend(StorageBackend):
    """Pages stored in real files under ``root`` (one OS file per logical file).

    Logical file names are flattened by :func:`flat_file_name` so callers
    may use arbitrary identifiers.  A name is resolved to its path once,
    and each page file is accessed through one long-lived descriptor
    (``os.pread``/``os.pwrite``/``os.fstat``) opened on first use.  At
    most :data:`MAX_OPEN_FILES` descriptors are held, the least recently
    used closed first; they are released by :meth:`delete` (that file's),
    by :meth:`close` and when the backend is garbage-collected.
    """

    def __init__(self, root: str | os.PathLike[str], page_size: int = PAGE_SIZE) -> None:
        super().__init__(page_size)
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)
        self._paths: dict[str, str] = {}
        # path -> descriptor, least recently used first.  Keyed by path,
        # not name: two names may flatten to the same file.
        self._descriptors: OrderedDict[str, int] = OrderedDict()
        self._lock = threading.Lock()
        self._finalizer = weakref.finalize(self, _close_all, self._descriptors)

    @property
    def root(self) -> Path:
        """The directory the page files live under."""
        return self._root

    def close(self) -> None:
        """Release every open descriptor.

        The backend stays usable: the next access re-opens what it needs.
        """
        with self._lock:
            _close_all(self._descriptors)

    def _path(self, name: str) -> str:
        path = self._paths.get(name)
        if path is None:
            path = self._paths[name] = str(self._root / f"{flat_file_name(name)}.pages")
        return path

    def _keep(self, path: str, fd: int) -> None:
        descriptors = self._descriptors
        descriptors[path] = fd
        if len(descriptors) > MAX_OPEN_FILES:
            _oldest, evicted = descriptors.popitem(last=False)
            os.close(evicted)

    def _fd(self, name: str) -> int:
        """The file's descriptor (lock held), opening it if need be."""
        path = self._path(name)
        descriptors = self._descriptors
        fd = descriptors.get(path)
        if fd is not None:
            descriptors.move_to_end(path)
            return fd
        try:
            fd = os.open(path, os.O_RDWR)
        except FileNotFoundError:
            raise MissingFileError(f"no such file: {name!r}") from None
        except OSError as error:
            raise TransientIOError(f"open failed for {name!r}: {error}") from error
        self._keep(path, fd)
        return fd

    def page_file_path(self, name: str) -> Path:
        """The real on-disk file holding a logical file's pages.

        The process-parallel executor hands this path to its workers,
        which ``mmap`` the file read-only and decode pages as
        ``np.frombuffer`` views straight over the mapping (the per-page
        CRC trailer is verified on every access, so a torn write is
        detected exactly as it is through :meth:`read`).  Raises
        :class:`MissingFileError` when the file does not exist.
        """
        path = self._path(name)
        if not os.path.exists(path):
            raise MissingFileError(f"no such file: {name!r}")
        return Path(path)

    def create(self, name: str) -> None:
        path = self._path(name)
        with self._lock:
            try:
                fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_EXCL, 0o666)
            except FileExistsError:
                raise StorageError(f"file already exists: {name!r}") from None
            self._keep(path, fd)

    def delete(self, name: str) -> None:
        path = self._path(name)
        with self._lock:
            fd = self._descriptors.pop(path, None)
            if fd is not None:
                os.close(fd)
            try:
                os.unlink(path)
            except FileNotFoundError:
                raise MissingFileError(f"no such file: {name!r}") from None

    def exists(self, name: str) -> bool:
        return os.path.exists(self._path(name))

    def clone(self) -> "FileSystemBackend":
        import shutil
        import tempfile

        new_root = Path(tempfile.mkdtemp(prefix="repro-pages-"))
        for path in self._root.glob("*.pages"):
            shutil.copy2(path, new_root / path.name)
        return FileSystemBackend(new_root, page_size=self.page_size)

    def list_files(self) -> list[str]:
        return sorted(p.stem for p in self._root.glob("*.pages"))

    def num_pages(self, name: str) -> int:
        with self._lock:
            return os.fstat(self._fd(name)).st_size // self._page_size

    def read(self, name: str, page_no: int) -> bytes:
        page_size = self._page_size
        with self._lock:
            fd = self._fd(name)
            if page_no < 0:
                raise MissingPageError(f"page {page_no} out of range for {name!r}")
            try:
                data = os.pread(fd, page_size, page_no * page_size)
                if len(data) == page_size:
                    return data
                total = os.fstat(fd).st_size // page_size
            except OSError as error:
                raise TransientIOError(f"read failed for {name!r}: {error}") from error
        if not data:
            raise MissingPageError(
                f"page {page_no} out of range for {name!r} with {total} pages"
            )
        # A trailing partial page means the OS file was truncated out
        # from under us (a torn write, or something that is not a page
        # store); surface it instead of returning short bytes.
        raise CorruptPageError(
            f"short page {page_no} in {name!r}: got {len(data)} of "
            f"{page_size} bytes"
        )

    def write(self, name: str, page_no: int, data: bytes) -> None:
        with self._lock:
            fd = self._fd(name)
            total = os.fstat(fd).st_size // self._page_size
            if not 0 <= page_no < total:
                raise MissingPageError(
                    f"page {page_no} out of range for {name!r} with {total} pages"
                )
            data = self._check_page_data(data)
            try:
                _pwrite_all(fd, data, page_no * self._page_size)
            except OSError as error:
                raise TransientIOError(f"write failed for {name!r}: {error}") from error

    def append(self, name: str, data: bytes) -> int:
        with self._lock:
            fd = self._fd(name)
            data = self._check_page_data(data)
            try:
                end = os.fstat(fd).st_size
                _pwrite_all(fd, data, end)
            except OSError as error:
                raise TransientIOError(f"append failed for {name!r}: {error}") from error
        return end // self._page_size

