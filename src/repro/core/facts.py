"""Storage facts: what a journaled query's storage steps returned.

The writer half of a query touches storage in three kinds of step, and
each step's whole effect on the adaptive state is the page runs it
returns:

* ``init`` — :meth:`~repro.core.adaptor.Adaptor.initialize` scans a raw
  file and writes the first-level partitions: their runs, the dataset's
  maximum extent and its object count;
* ``refine`` — :meth:`~repro.core.adaptor.Adaptor.refine` reads a leaf
  and writes its children: their runs;
* ``merge`` — :meth:`~repro.core.merger.Merger.maybe_merge` copies a
  combination's qualifying partitions: the segment runs, in copy order.

A component runs each step through its ``facts`` object,
``facts.step(kind, name, compute)``, where ``name`` says what the step
splits or merges (a dataset id; a dataset id and a key; a combination
and its keys) and ``compute`` does the I/O:

* :data:`NO_FACTS` runs ``compute`` and keeps nothing — an engine without
  a journal;
* :class:`FactRecorder` runs ``compute`` and keeps its result as a
  JSON-safe *fact*, sealed per committed query, for the journal entry of
  that query (:class:`~repro.core.recovery.DurabilityLog`);
* :class:`FactPlayer` does not run ``compute``: it returns the journaled
  result, after checking that the fact names this step, and raises
  :class:`FactMismatch` otherwise.  Recovery's fast path replays with it
  over page files it keeps as they are (:mod:`repro.core.recovery`).

A query's facts are its steps in call order, first touches first: the
order a replay calls them in.  A first touch happens before the commit
that journals it (a batch initialises every tree up front), so the
recorder keeps it by dataset until a committed query that requests the
dataset seals it.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Callable, Iterable, Sequence

from repro.storage.pagedfile import PageExtent, StoredRun

#: Every empty child shares one run, as the pages layer's empty groups do.
_EMPTY = StoredRun(extents=(), n_records=0)


class FactMismatch(Exception):
    """A journaled fact does not name the storage step replay is taking."""


def _encode_run(run: StoredRun) -> list[int]:
    """``[n_records, start, count, start, count, ...]``."""
    return [run.n_records, *chain.from_iterable(run.extents)]


def _decode_run(data: Sequence[int]) -> StoredRun:
    """The run :func:`_encode_run` encoded."""
    flat = data[1:]
    extents = tuple(map(PageExtent, flat[::2], flat[1::2]))
    return StoredRun(extents=extents, n_records=data[0])


def _encode_runs(runs: Sequence[StoredRun]) -> list:
    """``[len(runs), [i, *_encode_run(runs[i])], ...]`` for the runs that
    hold records: most children of a split are empty."""
    return [len(runs), *([i, *_encode_run(run)] for i, run in enumerate(runs) if run.n_records)]


def _decode_runs(data: Sequence) -> list[StoredRun]:
    runs = [_EMPTY] * data[0]
    for i, *run in data[1:]:
        runs[i] = _decode_run(run)
    return runs


def _encode_init(result: tuple) -> list:
    runs, max_extent, n_objects = result
    return [_encode_runs(runs), list(max_extent), n_objects]


def _decode_init(data: list) -> tuple:
    runs, max_extent, n_objects = data
    return _decode_runs(runs), tuple(max_extent), n_objects


#: Per step kind: result -> JSON-safe value, and back.
_CODECS: dict[str, tuple[Callable, Callable]] = {
    "init": (_encode_init, _decode_init),
    "refine": (_encode_runs, _decode_runs),
    "merge": (_encode_runs, _decode_runs),
}


class _NoFacts:
    """Runs every step and keeps nothing."""

    replaying = False

    @staticmethod
    def step(kind: str, name: Any, compute: Callable[[], Any]) -> Any:
        return compute()

    @staticmethod
    def seal(requested: Iterable[int]) -> None:
        pass


#: The facts of an engine without a journal.
NO_FACTS = _NoFacts()


class FactRecorder:
    """Runs every step and keeps its result, one fact list per committed query."""

    replaying = False

    def __init__(self) -> None:
        # First touches by dataset, until a sealed query requests the
        # dataset; the steps of the commit in progress; and the sealed
        # fact lists the journal has not taken yet.
        self._inits: dict[int, list] = {}
        self._steps: list[list] = []
        self._sealed: list[list] = []

    def step(self, kind: str, name: Any, compute: Callable[[], Any]) -> Any:
        result = compute()
        fact = [kind, name, _CODECS[kind][0](result)]
        if kind == "init":
            self._inits[name] = fact
        else:
            self._steps.append(fact)
        return result

    def seal(self, requested: Iterable[int]) -> None:
        """End one query's writer half: its first touches, then its steps."""
        inits = self._inits
        facts = [inits.pop(d) for d in sorted(requested) if d in inits]
        facts += self._steps
        self._steps = []
        self._sealed.append(facts)

    def take(self, n: int) -> list:
        """The fact lists of the ``n`` queries sealed since the last take.

        Any other count means the seals and the journal entries no longer
        pair up: every entry gets ``None``, no facts, and recovery replays
        them in full.
        """
        sealed, self._sealed = self._sealed, []
        return sealed if len(sealed) == n else [None] * n

    def abort(self) -> None:
        """Forget the steps of a writer half that raised (first touches stay:
        their trees do, and so do the queries a batch sealed before it: they
        commit)."""
        self._steps = []


class FactPlayer:
    """Returns the journaled result of every step instead of running it."""

    replaying = True

    def __init__(self) -> None:
        self._facts: Iterable = iter(())

    def begin(self, facts: Sequence) -> None:
        """Replay one journal entry's facts next."""
        self._facts = iter(facts)

    def step(self, kind: str, name: Any, compute: Callable[[], Any]) -> Any:
        fact = next(self._facts, None)
        if fact is None or fact[0] != kind or fact[1] != name:
            raise FactMismatch(f"replay takes {kind} {name!r}, the journal holds {fact!r}")
        try:
            return _CODECS[kind][1](fact[2])
        except (IndexError, TypeError, ValueError) as error:
            raise FactMismatch(f"malformed {kind} fact {fact!r}: {error}") from None

    def seal(self, requested: Iterable[int]) -> None:
        """End one entry: replay must have taken every fact it holds."""
        left = next(self._facts, None)
        if left is not None:
            raise FactMismatch(f"replay never took the journaled {left!r}")
