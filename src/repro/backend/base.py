"""The :class:`ArrayBackend` protocol — the seam every array touches.

An array backend bundles everything the autodiff engine needs from an array
library behind one object:

* the **array module** (:attr:`ArrayBackend.xp`) — a numpy-compatible
  namespace the compute kernels (GEMMs, elementwise math, reductions) run
  on.  For :class:`~repro.backend.numpy_backend.NumpyBackend` this is numpy
  itself; for :class:`~repro.backend.tracing.TracingBackend` it is a
  call-recording wrapper around numpy so the seam itself is testable;
* the **host module** (:attr:`ArrayBackend.host_xp`) — a numpy-semantics
  namespace for index bookkeeping: CSR adjacency arrays, BFS frontier
  masks, traversal scratch, edge-index arrays.  These structures drive
  data-dependent Python control flow, so they stay host-side on every
  backend (a device backend would pay one transfer at the compute
  boundary instead of a sync per branch);
* the **dtype policy** (:attr:`float_dtype` / :attr:`int_dtype` /
  :attr:`bool_dtype`) and the conversion trio :meth:`asarray` /
  :meth:`asindex` / :meth:`to_numpy`;
* **RNG construction** (:meth:`rng`) — a ``Generator``-style object for the
  backend's native random streams (weight init draws stay host-side so
  parameters are bit-identical across backends; see
  :mod:`repro.autodiff.init`);
* the **scatter/gather/segment kernel set** — the indexed primitives the
  GNN hot path is built from.  Each backend may implement them however its
  hardware likes as long as the results match the numpy reference within
  floating-point reassociation tolerance.

Every method has a generic implementation in terms of ``xp``; concrete
backends override the ones their array library spells differently or can
do faster (numpy's sort+``reduceat`` micro-kernel).  The registry in
:mod:`repro.backend` holds two backends, ``numpy`` and ``tracing``; a new
array library plugs in by subclassing :class:`ArrayBackend` and calling
:func:`repro.backend.register_backend`.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np


class ArrayBackend:
    """Base class / protocol for pluggable array backends.

    Subclasses must set :attr:`name` and :attr:`xp`; everything else has a
    working default in terms of ``xp`` (assumed numpy-compatible).
    """

    #: Registry key and the value of the ``--backend`` / ``REPRO_BACKEND`` knob.
    name: str = "abstract"

    #: Compute array module (numpy-compatible namespace).
    xp: Any = None

    #: Host-side (numpy-semantics) module for index/traversal bookkeeping.
    host_xp: Any = np

    # ------------------------------------------------------------------ #
    # dtype policy
    # ------------------------------------------------------------------ #
    float_dtype = np.float64
    int_dtype = np.int64
    bool_dtype = np.bool_

    def dtype_policy(self) -> dict:
        """The dtype policy as plain strings (recorded in benchmark env blocks)."""
        return {
            "float": np.dtype(self.float_dtype).name,
            "int": np.dtype(self.int_dtype).name,
            "bool": np.dtype(self.bool_dtype).name,
        }

    # ------------------------------------------------------------------ #
    # conversions
    # ------------------------------------------------------------------ #
    def asarray(self, data) -> Any:
        """Coerce ``data`` to a backend array under the float dtype policy.

        Arrays already in the policy dtype are returned as-is (no copy) —
        the same zero-copy contract ``Tensor`` always had on numpy.
        """
        xp = self.xp
        if isinstance(data, xp.ndarray):
            if data.dtype != self.float_dtype:
                return data.astype(self.float_dtype)
            return data
        return xp.asarray(data, dtype=self.float_dtype)

    def asindex(self, data) -> Any:
        """Coerce ``data`` to an index array (:attr:`int_dtype`) on the backend."""
        return self.xp.asarray(data, dtype=self.int_dtype)

    def to_numpy(self, array) -> np.ndarray:
        """Materialize a backend array as a host numpy array (for I/O)."""
        return np.asarray(array)

    # ------------------------------------------------------------------ #
    # RNG construction
    # ------------------------------------------------------------------ #
    def rng(self, seed: Optional[int] = None):
        """A ``numpy.random.Generator``-style generator for this backend."""
        return self.xp.random.default_rng(seed)

    # ------------------------------------------------------------------ #
    # scatter/gather/segment kernel set
    # ------------------------------------------------------------------ #
    def scatter_rows(self, indices, values, num_rows: int):
        """Sum ``values`` rows into ``num_rows`` output rows by ``indices``.

        The shared kernel behind ``scatter_add``'s forward and ``gather``'s
        backward: ``out[i] = sum(values[j] for j where indices[j] == i)``.
        Duplicate destinations accumulate.
        """
        xp = self.xp
        out = xp.zeros((num_rows,) + values.shape[1:], dtype=self.float_dtype)
        self.index_add(out, indices, values)
        return out

    def gather_rows(self, values, indices):
        """Select rows ``values[indices]`` along the first axis."""
        return values[indices]

    def index_add(self, out, indices, values) -> None:
        """In-place ``out[indices] += values`` with duplicate accumulation."""
        self.xp.add.at(out, indices, values)

    def segment_counts(self, segment_ids, num_segments: int):
        """Occupancy of each segment as a float array of length ``num_segments``."""
        xp = self.xp
        return xp.bincount(segment_ids, minlength=num_segments).astype(
            self.float_dtype)[:num_segments]

    # ------------------------------------------------------------------ #
    def describe(self) -> dict:
        """One-line provenance record (benchmark env blocks, metrics.json)."""
        return {"name": self.name, "dtype_policy": self.dtype_policy()}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"


def thread_counts() -> dict:
    """OMP/BLAS thread-count environment, for benchmark comparability.

    Perf trajectories recorded on different machines are only comparable
    when the BLAS threading situation is known; this captures the standard
    control variables (unset means the library default, usually all cores).
    """
    import os

    keys = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    counts = {key: os.environ.get(key) for key in keys}
    counts["cpu_count"] = os.cpu_count()
    return counts
