"""Page-level constants.

The paper fixes the disk page size at 4 KB for all approaches; the whole
storage layer therefore works in units of :data:`PAGE_SIZE` bytes.  The
constant is a module-level default — the :class:`~repro.storage.cost_model.DiskModel`
carries its own ``page_size`` so tests can exercise unusual sizes.
"""

from __future__ import annotations

#: Default page size in bytes (4 KB, as in the paper's experimental setup).
PAGE_SIZE: int = 4096
