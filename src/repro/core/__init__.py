"""Space Odyssey: the paper's primary contribution.

The package mirrors the architecture of Figure 1 in the paper:

* the **Adaptor** (:mod:`repro.core.adaptor`) performs incremental,
  space-oriented indexing — it creates the first level of partitions the
  first time a dataset is queried and refines hot partitions in place as
  queries keep arriving;
* the **Statistics Collector** (:mod:`repro.core.statistics`) tracks which
  combinations of datasets are queried together and which partitions those
  queries retrieve;
* the **Merger** (:mod:`repro.core.merger`) copies partitions that are
  frequently retrieved together into append-only merge files whose layout
  allows sequential retrieval, within an optional space budget;
* the **Query Processor** (:mod:`repro.core.query_processor`) orchestrates a
  query: routing between merge files and individual partition files,
  filtering, triggering refinement and merging;
* :class:`~repro.core.odyssey.SpaceOdyssey` is the public facade tying the
  components together.

Batched execution
-----------------
On top of the per-query pipeline, :mod:`repro.core.batch` provides one
batch executor (:class:`~repro.core.batch.QueryBatch`,
:meth:`SpaceOdyssey.query_batch <repro.core.odyssey.SpaceOdyssey.query_batch>`)
that amortises work across a group of queries: queries are grouped by
requested dataset combination, partition overlap tests are resolved for
the whole batch with the vectorized kernels of
:mod:`repro.geometry.vectorized`, page reads are deduplicated through a
shared read set layered on the buffer pool, and statistics, refinement and
merging are applied once per batch — with per-query results and the
post-batch adaptive state guaranteed identical to sequential execution.
Two choices change how its read half runs, not what it returns: reads on a
thread pool (``query_batch(..., workers=K)``) and against a pinned epoch
snapshot (``snapshot=True``, :mod:`repro.core.epoch`).
"""

from repro.core.batch import BatchResult, QueryBatch
from repro.core.config import OdysseyConfig
from repro.core.odyssey import SpaceOdyssey
from repro.core.partition import PartitionTree
from repro.core.query_processor import QueryReport
from repro.core.recovery import DurabilityLog, RecoveryError
from repro.core.statistics import StatisticsCollector

__all__ = [
    "BatchResult",
    "DurabilityLog",
    "OdysseyConfig",
    "PartitionTree",
    "QueryBatch",
    "QueryReport",
    "RecoveryError",
    "SpaceOdyssey",
    "StatisticsCollector",
]
