"""Shared primitives for the columnar hot-state layout.

The protocol's hot state — dependency vectors, the ``log``/``iet`` tables,
and the engine queue — used to be dicts of :class:`~repro.core.entry.Entry`
objects.  The columnar layout packs each ``(inc, sii)`` pair into a single
int and stores rows as flat int columns, so the inner loops of depvec
merges, orphan scans, and stability nullification become index arithmetic
with no per-element object allocation.

Packing
-------

``packed = (inc << PACK_SHIFT) | sii`` with ``sii < 2**PACK_SHIFT``.
Because ``inc`` occupies the high bits, integer comparison of packed values
coincides exactly with :class:`Entry`'s lexicographic ``(inc, sii)`` order,
so ``max(packed_a, packed_b)`` is the paper's lexical maximum.  ``PACK_SHIFT
= 40`` leaves room for ~10^12 state intervals per incarnation — far beyond
any run this simulator can produce (a bench run executes ~10^5 intervals).

numpy feature probe
-------------------

numpy is optional and imported lazily.  When importable (and not disabled
via the ``REPRO_NO_NUMPY`` environment variable, which the equivalence
tests use to exercise the fallback), large tables store their columns as
``int64`` ndarrays and merge snapshots with ``np.maximum``; otherwise plain
Python lists are used with identical semantics.  Small tables always use
lists — per-scalar ndarray indexing costs more than it saves below
``NP_MIN_N`` processes — so the first :func:`use_numpy_for` that answers
yes is what imports numpy, and a process that only ever builds small
tables (an n = 2 serve worker) never pays for it.
"""

from __future__ import annotations

import os
from typing import Any

_probed = False


def numpy_module() -> Any:
    """The numpy module, imported on the first call; ``None`` when it is
    unavailable or disabled by ``REPRO_NO_NUMPY``."""
    global NUMPY, _probed
    if not _probed:
        _probed = True
        if not os.environ.get("REPRO_NO_NUMPY"):
            try:
                import numpy
            except Exception:  # pragma: no cover - numpy-less installs
                numpy = None
            NUMPY = numpy
    return NUMPY


#: The numpy module once :func:`numpy_module` has imported it (``None``
#: before then, and always when unavailable or disabled).
NUMPY: Any = None

#: Below this process count the list backend wins (scalar access dominates).
NP_MIN_N = 64

PACK_SHIFT = 40
PACK_MASK = (1 << PACK_SHIFT) - 1


def pack(inc: int, sii: int) -> int:
    """Pack ``(inc, sii)`` preserving Entry's lexicographic order."""
    return (inc << PACK_SHIFT) | sii


def unpack_inc(packed: int) -> int:
    return packed >> PACK_SHIFT


def unpack_sii(packed: int) -> int:
    return packed & PACK_MASK


def use_numpy_for(n: int) -> bool:
    """Whether a table over ``n`` processes should use ndarray columns
    (importing numpy if so, on first use)."""
    return n >= NP_MIN_N and numpy_module() is not None

