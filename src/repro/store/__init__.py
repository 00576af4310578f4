"""Persistent binary storage for cleaned ct-graphs.

The storage tier of the pipeline (ingest -> clean -> **store** -> query):

* :mod:`repro.store.format` — the ``rfid-ctg/ctg@1`` single-file binary
  codec: :func:`write_ctg`/:func:`save_ctg` write a graph's columns as
  little-endian int32/float64 sections behind a checksummed header, and
  :func:`load_ctg` serves them back as a zero-copy
  :class:`MappedCTGraph` view over one ``mmap``, ready for
  :class:`~repro.queries.session.QuerySession` without deserialisation.
* :mod:`repro.store.graphstore` — :class:`GraphStore`, a
  content-addressed directory of entries keyed by the SHA-256 of the
  cleaning problem (:func:`content_key`), so repeat cleanings are cache
  hits; ``clean_many(..., store=...)`` builds on it to keep graphs off
  the worker pipe entirely.

:mod:`repro.store.format` also owns the sibling ``rfid-ctg/ckpt@1``
stream-checkpoint codec (:func:`write_stream_checkpoint` /
:func:`read_stream_checkpoint`) used by
:class:`repro.streaming.StreamingCleaner` for durable kill/resume.

Algorithm 1 writes the format natively via
``CleaningOptions(materialize="store", output=...)`` — see
``docs/store.md`` for the format spec, the mmap contract and the cache
keying rules, and ``benchmarks/bench_store.py`` for the numbers.
"""

from repro.errors import StoreChecksumError, StoreError, StoreFormatError
from repro.store.format import (
    CKPT_MAGIC,
    CKPT_VERSION,
    CTG_MAGIC,
    CTG_VERSION,
    CheckpointPayload,
    MappedCTGraph,
    load_ctg,
    read_stream_checkpoint,
    save_ctg,
    write_ctg,
    write_stream_checkpoint,
)
from repro.store.graphstore import GraphStore, content_key

__all__ = [
    "CKPT_MAGIC",
    "CKPT_VERSION",
    "CTG_MAGIC",
    "CTG_VERSION",
    "CheckpointPayload",
    "GraphStore",
    "MappedCTGraph",
    "StoreChecksumError",
    "StoreError",
    "StoreFormatError",
    "content_key",
    "load_ctg",
    "read_stream_checkpoint",
    "save_ctg",
    "write_ctg",
    "write_stream_checkpoint",
]
