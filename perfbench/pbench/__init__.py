"""perfbench: the end-to-end and per-layer benchmark of the Space Odyssey repro.

Everything here drives the engine through its public surface only
(``repro`` top-level exports, ``repro.workload``, ``repro.data``,
``repro.storage``); see ``perfbench/README.md`` for the definitions.
"""
