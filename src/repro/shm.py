"""Zero-copy shared-memory pages for scale-out workers.

Every scale-out path used to ship its state to workers as *bytes*: the
evaluation shards round-tripped the model through an npz checkpoint and
pickled the whole context graph into the pool initializer, so each worker
paid O(model + graph) twice — once in deserialization time at startup and
once in resident memory for its private copies.  This module replaces the
bytes with **read-only pages**: the parent lays the frozen arrays out in a
named ``multiprocessing.shared_memory`` segment once, workers attach and
reconstruct zero-copy ``np.ndarray`` views over ``shm.buf``, and the kernel
shares the physical pages between every process that maps them.  Per-worker
marginal cost drops toward O(1): a handful of mapped (not copied) pages
plus whatever small Python state the consumer rebuilds around them.

A page is a single segment holding many named arrays::

    offset 0          64-aligned         64-aligned
    [array "a" bytes][array "b" bytes]...[array "z" bytes]

and a :class:`PageSpec` — the segment name plus a JSON-serializable
manifest recording per-array ``offset``/``dtype``/``shape``/``crc32`` (the
same checksum triple the format-v3 checkpoints record, see
:mod:`repro.core.persistence`) and an optional caller header.  The spec is
what crosses the process boundary (tiny, picklable); the arrays never do.

Lifecycle is strictly **owner-unlinks**: the creating process holds the
:class:`PageHandle` and is the only one that ever calls
:meth:`PageHandle.release` (close + unlink).  The owner-side handle is
registered with the ``resource_tracker``, so even a SIGKILLed owner leaks
nothing: the tracker unlinks the segment post-mortem.  Attaching processes
map the segment **without talking to the tracker at all** (see
:func:`_attach_segment`).  On Python < 3.13 ``SharedMemory(create=False)``
registers the name, and the usual ``unregister`` workaround is wrong for
spawn children: they share the owner's tracker, whose cache is a set, so
the child's ``unregister`` removed the *owner's* registration (a SIGKILLed
owner then leaked the page) and two workers attaching at once made the
tracker print ``KeyError`` tracebacks.  Untracked attaches keep ownership
with the creator, so a worker exiting — cleanly, killed, or respawned
mid-retry — can never tear the page out from under its siblings.

Consumers:

* :func:`repro.kg.graph.graph_to_shm` / ``graph_from_shm`` — the frozen
  CSR snapshot of the context graph as one page;
* :func:`repro.core.persistence.params_to_shm` / ``params_from_shm`` — a
  Checkpointable model's parameter arrays as one page, restored without
  copying via :func:`repro.autodiff.module.shared_parameter_load`;
* :mod:`repro.eval.sharding` and :mod:`repro.serving.replicas` — the two
  scale-out paths, whose workers attach instead of deserialize.

``REPRO_SHM=off`` disables the whole layer (every consumer falls back to
the byte-shipping path); ``auto`` (the default) uses it wherever
``multiprocessing.shared_memory`` actually works.
"""

from __future__ import annotations

import json
import os
import secrets
import sys
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

#: Segment names start with this, so leak checks (and humans inspecting
#: ``/dev/shm``) can attribute segments to this library at a glance.
SEGMENT_PREFIX = "repro-shm-"

#: Arrays are laid out at multiples of this; keeps every view aligned for
#: any dtype numpy ships and plays nicely with cache lines.
_ALIGN = 64

ENV_VAR = "REPRO_SHM"

#: Fault-injection site fired by attaching consumers (see
#: :mod:`repro.resilience.faults`); indexed by the consumer's unit index so
#: chaos plans can target one worker's attach deterministically.
ATTACH_FAULT_SITE = "shm_attach"

def _corruption_error(section: str, source: str, reason: str) -> Exception:
    # Late import: persistence imports this module's page primitives, so the
    # shared error type has to be fetched at raise time, not import time.
    from repro.core.persistence import CheckpointCorruptionError

    return CheckpointCorruptionError(section, source, reason)


# --------------------------------------------------------------------- #
# availability
# --------------------------------------------------------------------- #
_available: Optional[bool] = None


def shm_available() -> bool:
    """Whether ``multiprocessing.shared_memory`` works on this platform.

    Probed once per process by creating (and immediately unlinking) a
    minimal segment; some containers mount ``/dev/shm`` noexec/ro or not at
    all, and the consumers degrade to byte-shipping rather than crash.
    """
    global _available
    if _available is None:
        try:
            from multiprocessing import shared_memory

            probe = shared_memory.SharedMemory(
                name=f"{SEGMENT_PREFIX}probe-{secrets.token_hex(4)}",
                create=True, size=_ALIGN)
            probe.close()
            probe.unlink()
            _available = True
        except Exception:
            _available = False
    return _available


def shm_enabled() -> bool:
    """Whether consumers should use shared-memory pages.

    ``REPRO_SHM=off`` forces the byte-shipping fallback everywhere (the
    equivalence story makes the two paths interchangeable); anything else
    defers to :func:`shm_available`.
    """
    if os.environ.get(ENV_VAR, "auto").lower() in ("off", "0", "false"):
        return False
    return shm_available()


def active_segments() -> Optional[List[str]]:
    """Names of live ``repro-shm-*`` segments, or ``None`` if unknowable.

    On Linux, POSIX shared memory appears as files under ``/dev/shm``; the
    leak tests assert this comes back empty after every teardown path.
    Platforms without an inspectable backing directory return ``None``
    (not ``[]`` — absence of evidence is not evidence of absence).
    """
    if sys.platform.startswith("linux") and os.path.isdir("/dev/shm"):
        try:
            return sorted(entry for entry in os.listdir("/dev/shm")
                          if entry.startswith(SEGMENT_PREFIX))
        except OSError:
            return None
    return None


# --------------------------------------------------------------------- #
# page spec / manifest
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class PageSpec:
    """Everything a worker needs to attach one page: name + manifest.

    The manifest is plain JSON data (``{"arrays": {name: {offset, dtype,
    shape, crc32}}, "size": int, "header": ...}``), so a spec crosses any
    boundary bytes cross — pickle for pool initargs, JSON for wire forms.
    """

    name: str
    manifest: Dict[str, Any]

    def to_json(self) -> str:
        return json.dumps({"name": self.name, "manifest": self.manifest})

    @classmethod
    def from_json(cls, text: str) -> "PageSpec":
        decoded = json.loads(text)
        return cls(name=decoded["name"], manifest=decoded["manifest"])

    @property
    def header(self) -> Any:
        """The caller header recorded at :func:`create_page` time."""
        return self.manifest.get("header")


def _array_entry(array: np.ndarray, offset: int) -> Dict[str, Any]:
    return {
        "offset": offset,
        "dtype": str(array.dtype),
        "shape": list(array.shape),
        "crc32": zlib.crc32(array.tobytes()) & 0xFFFFFFFF,
    }


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


# --------------------------------------------------------------------- #
# owner side
# --------------------------------------------------------------------- #
class PageHandle:
    """Owner-side handle to a created page; the only place unlink happens.

    ``release()`` is idempotent and safe to call with workers still
    attached: POSIX unlink removes the name while existing mappings stay
    valid until their holders exit.
    """

    def __init__(self, spec: PageSpec, shm) -> None:
        self.spec = spec
        self._shm = shm

    @property
    def name(self) -> str:
        return self.spec.name

    def release(self) -> None:
        """Close this mapping and unlink the segment (idempotent)."""
        if self._shm is None:
            return
        shm, self._shm = self._shm, None
        try:
            shm.close()
        except BufferError:  # a live view pins the mapping; unlink anyway
            pass
        try:
            shm.unlink()
        except FileNotFoundError:
            pass

    def __enter__(self) -> "PageHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __del__(self) -> None:  # belt and braces; release() is the contract
        try:
            self.release()
        except Exception:
            pass


def create_page(arrays: Mapping[str, np.ndarray],
                header: Any = None) -> PageHandle:
    """Lay ``arrays`` out in one fresh shared-memory segment.

    Array bytes are copied in **once** (C-contiguous, 64-byte aligned);
    every manifest entry records the offset/dtype/shape/crc32 an attaching
    process needs to rebuild — and verify — its zero-copy view.  ``header``
    rides along in the manifest for caller metadata (a checkpoint header, a
    graph shape); it must be JSON-serializable.
    """
    from multiprocessing import shared_memory

    contiguous: Dict[str, np.ndarray] = {}
    entries: Dict[str, Dict[str, Any]] = {}
    offset = 0
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        offset = _aligned(offset)
        contiguous[name] = array
        entries[name] = _array_entry(array, offset)
        offset += array.nbytes
    total = max(offset, 1)  # zero-byte segments are rejected by the OS
    manifest = {"arrays": entries, "size": total, "header": header}
    # The manifest must survive a JSON round trip now, not when a worker
    # first attaches — fail in the owner where the stack trace is useful.
    json.dumps(manifest)

    name = f"{SEGMENT_PREFIX}{secrets.token_hex(8)}"
    shm = shared_memory.SharedMemory(name=name, create=True, size=total)
    try:
        for array_name, array in contiguous.items():
            entry = entries[array_name]
            view = np.ndarray(array.shape, dtype=array.dtype,
                              buffer=shm.buf, offset=entry["offset"])
            view[...] = array
            del view  # drop the buffer export so close() can succeed later
    except BaseException:
        shm.close()
        shm.unlink()
        raise
    return PageHandle(PageSpec(name=shm.name, manifest=manifest), shm)


# --------------------------------------------------------------------- #
# attaching side
# --------------------------------------------------------------------- #
class _Segment:
    """A mapping of an existing POSIX segment that no resource tracker knows.

    The attaching half of ``SharedMemory`` with ``track=False`` (Python
    3.13+), for every Python version: ``shm_open`` + ``mmap``, with no
    ``register`` on open and no ``unregister`` on close.
    """

    def __init__(self, name: str):
        import _posixshmem
        import mmap

        fd = _posixshmem.shm_open("/" + name, os.O_RDWR, mode=0o600)
        try:
            self.size = os.fstat(fd).st_size
            self._mmap = mmap.mmap(fd, self.size)
        finally:
            os.close(fd)
        self.buf = memoryview(self._mmap)

    def close(self) -> None:
        """Unmap; raises ``BufferError`` while views of :attr:`buf` live."""
        self.buf.release()
        self._mmap.close()


def _attach_segment(name: str):
    """Open an existing segment without resource-tracker registration.

    A tracked attach would make the tracker unlink the segment when the
    attaching process exits — exactly wrong for a worker mapping a page it
    does not own — and the ``unregister`` workaround strips the owner's own
    registration (see the module docstring).  Where ``_posixshmem`` is
    missing (Windows) there is no tracker to avoid.
    """
    try:
        return _Segment(name)
    except ImportError:  # pragma: no cover - non-POSIX platforms
        from multiprocessing import shared_memory

        return shared_memory.SharedMemory(name=name, create=False)


class AttachedPage:
    """Worker-side view of a page: zero-copy read-only arrays + the mapping.

    The instance must outlive every array in :attr:`arrays` — the arrays
    are views over the mapping's buffer, not copies.  Consumers keep the
    page referenced from whatever object owns the arrays (a model, a graph
    view), so lifetimes can never invert.
    """

    def __init__(self, spec: PageSpec, shm, arrays: Dict[str, np.ndarray]):
        self.spec = spec
        self._shm = shm
        self.arrays = arrays

    @property
    def name(self) -> str:
        return self.spec.name

    def close(self) -> None:
        """Unmap (best effort; live views keep the mapping pinned)."""
        if self._shm is None:
            return
        shm, self._shm = self._shm, None
        self.arrays = {}
        try:
            shm.close()
        except BufferError:
            pass


def attach_page(spec: PageSpec, verify: bool = True) -> AttachedPage:
    """Map the segment named by ``spec`` and rebuild its read-only arrays.

    Views are ``np.ndarray(..., buffer=shm.buf)`` — no copy, no pickle —
    and are marked non-writeable: a page is shared by every worker, so a
    write anywhere would be silent cross-process corruption.  With
    ``verify`` (the default) every array's bytes are checked against the
    manifest crc32/dtype/shape; a mismatch raises
    :class:`~repro.core.persistence.CheckpointCorruptionError` naming the
    failing array, same as a corrupted checkpoint would.
    """
    source = f"shm:{spec.name}"
    try:
        shm = _attach_segment(spec.name)
    except FileNotFoundError as exc:
        raise _corruption_error(
            "file", source,
            "segment does not exist (unlinked early or never created)") from exc
    manifest = spec.manifest
    if shm.size < int(manifest.get("size", 0)):
        shm.close()
        raise _corruption_error(
            "file", source,
            f"segment holds {shm.size} bytes but the manifest records "
            f"{manifest.get('size')}")
    arrays: Dict[str, np.ndarray] = {}
    for name, entry in manifest.get("arrays", {}).items():
        try:
            view = np.ndarray(tuple(entry["shape"]),
                              dtype=np.dtype(entry["dtype"]),
                              buffer=shm.buf, offset=int(entry["offset"]))
        except Exception as exc:
            shm.close()
            raise _corruption_error(
                name, source, f"array {name!r} failed to map ({exc})") from exc
        view.flags.writeable = False
        if verify:
            actual = zlib.crc32(view.tobytes()) & 0xFFFFFFFF
            if actual != entry["crc32"]:
                # Drop our export before closing so the mapping can go away.
                del view
                shm.close()
                raise _corruption_error(
                    name, source,
                    f"array {name!r} crc32 mismatch: manifest records "
                    f"{entry['crc32']}, segment holds {actual}")
        arrays[name] = view
    return AttachedPage(spec, shm, arrays)


# --------------------------------------------------------------------- #
# startup-cost probe (used by benchmarks and diagnostics)
# --------------------------------------------------------------------- #
def memory_snapshot() -> Dict[str, Optional[int]]:
    """Resident and private memory of this process, in bytes.

    ``rss`` counts every resident page including ones shared with other
    processes (an attached page shows up in *every* attacher's RSS once
    touched); ``private`` (from ``/proc/self/smaps_rollup``) counts only
    pages this process alone holds — the honest per-worker marginal cost,
    and the number shared-memory scale-out actually shrinks.  Fields are
    ``None`` where the platform cannot answer.
    """
    rss: Optional[int] = None
    private: Optional[int] = None
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    rss = int(line.split()[1]) * 1024
                    break
    except OSError:
        pass
    try:
        with open("/proc/self/smaps_rollup", "r", encoding="ascii") as handle:
            private = 0
            for line in handle:
                if line.startswith(("Private_Clean:", "Private_Dirty:")):
                    private += int(line.split()[1]) * 1024
    except OSError:
        private = None
    if rss is None:
        try:
            import resource

            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        except Exception:
            rss = None
    return {"rss": rss, "private": private}


def _startup_probe(mode: str, replica_spec, graph_ref, channel) -> None:
    """Spawn target: rebuild a worker replica one way, report the cost.

    ``mode`` is ``"deserialize"`` (checkpoint bytes + pickled graph — the
    pre-shm worker startup) or ``"attach"`` (parameter page + CSR page).
    Reports ``{seconds, rss_delta, private_delta}`` through ``channel``;
    the deltas are measured across restore + context bind + one adjacency
    touch, so lazily mapped pages are actually faulted in before measuring.
    """
    import time

    from repro.eval.sharding import restore_model
    from repro.kg.graph import GraphPageSpec, graph_from_shm

    before = memory_snapshot()
    started = time.perf_counter()
    model = restore_model(replica_spec)
    if isinstance(graph_ref, GraphPageSpec):
        graph = graph_from_shm(graph_ref)
    else:
        graph = graph_ref
    model.set_context(graph)
    # Touch the hot-path arrays so both modes measure *usable* state, not
    # merely mapped-but-unfaulted pages.
    adjacency = graph.adjacency()
    touched = int(adjacency.und_offsets[-1]) + int(adjacency.out_offsets[-1])
    seconds = time.perf_counter() - started
    after = memory_snapshot()

    def delta(key: str) -> Optional[int]:
        if before[key] is None or after[key] is None:
            return None
        return after[key] - before[key]

    channel.put({"mode": mode, "seconds": seconds, "touched": touched,
                 "rss_delta": delta("rss"), "private_delta": delta("private")})


def measure_worker_startup(model, graph) -> List[Dict[str, Any]]:
    """Measure attach-vs-deserialize worker startup in fresh spawn processes.

    Returns one row per mode with ``seconds`` and memory deltas; the
    ``attach`` row is omitted when :func:`shm_enabled` is false.  Used by
    ``benchmarks/bench_eval_sharding.py``; pages are always released before
    returning.
    """
    from multiprocessing import get_context

    from repro.eval.sharding import make_model_spec, make_shm_model_spec
    from repro.kg.graph import graph_to_shm

    context = get_context("spawn")
    rows: List[Dict[str, Any]] = []
    handles: List[PageHandle] = []
    try:
        plans: List[Tuple[str, Any, Any]] = [
            ("deserialize", make_model_spec(model), graph)]
        if shm_enabled():
            graph_spec, graph_handle = graph_to_shm(graph)
            handles.append(graph_handle)
            params_spec, params_handle = make_shm_model_spec(model)
            if params_handle is not None:
                handles.append(params_handle)
            plans.append(("attach", params_spec, graph_spec))
        for mode, replica_spec, graph_ref in plans:
            channel = context.SimpleQueue()
            probe = context.Process(target=_startup_probe,
                                    args=(mode, replica_spec, graph_ref, channel))
            probe.start()
            row = channel.get()
            probe.join()
            rows.append(row)
    finally:
        for handle in handles:
            handle.release()
    return rows
