"""Supervised multiprocess task execution.

``multiprocessing.Pool.map`` has exactly the failure modes a long-running
system cannot afford: a killed worker leaves its task lost and the map hung
forever, a hung task blocks the barrier indefinitely, and an exception
tears down the whole run.  :class:`SupervisedPool` replaces the barrier with
an async dispatch loop that supervises every task individually:

* **per-task deadlines** — a task that does not finish inside
  ``RetryPolicy.timeout`` is declared failed and retried elsewhere (the
  result of a late straggler is discarded; tasks must be deterministic, so a
  duplicate result is by construction identical);
* **dead-worker detection** — workers announce ``(run, task, pid)`` on a
  start channel, and the supervisor polls the pool's worker liveness, so a
  ``SIGKILL``-ed worker fails *its* task immediately instead of waiting for
  the deadline (``multiprocessing.Pool`` respawns the worker, restoring
  capacity);
* **bounded retry with exponential backoff** — each failed task is
  resubmitted up to ``RetryPolicy.max_attempts`` total attempts, waiting
  ``backoff_base * 2**(attempt-1)`` (capped at ``backoff_max``) between
  attempts, with the attempt number threaded into the task so deterministic
  fault plans can target first attempts only;
* **graceful degradation** — a task that exhausts its pool attempts, and
  every task still unfinished once all pool slots are lost to hung workers,
  runs in-process through the caller's ``fallback`` — the run completes
  (slower) instead of hanging;
* **clean interruption** — ``KeyboardInterrupt`` terminates the pool (hung
  and healthy workers alike; nothing leaks), reports partial progress
  through ``on_interrupt``, and re-raises.

Results are collected into a list indexed by task order, so callers reduce
them exactly as they would a ``pool.map`` return — recovered runs are
bit-identical to failure-free ones as long as tasks are deterministic.

**One warm pool.**  Spawning and importing workers costs far more than a
typical run's work, so the spawn pool outlives the run: a run that ends
with no supervision event parks its pool in one module-level slot, and the
next run takes it back when the process count matches and ``os.environ``
equals the environment the workers were spawned with (workers read
``REPRO_FAULTS``, ``REPRO_BACKEND``, ``REPRO_SHM`` and ``*_NUM_THREADS``
only at start-up, so any change forces a respawn).  A run that records any
event, raises, or is interrupted terminates its pool exactly as a one-shot
pool would, so every recovery path starts the next run on fresh workers.
The pool is spawned lazily by the first run, never at import, and is
terminated at interpreter exit (or by :func:`shutdown_warm_pool`).

Workers are spawned with ``max(1, usable_cores // processes)`` threads for
every BLAS/OpenMP thread variable (:data:`THREAD_ENV_VARS`) the parent
leaves unset, so ``processes x threads`` never oversubscribes the cores
this process may run on; a value the parent sets wins.  Workers also drop
their inherited copy of the parent's resource-tracker pipe (the tracker's
lifetime, and its post-mortem cleanup of a killed parent's shared pages,
stays the parent's alone).  A pool worker exits once its task queue has no
writer left, so the workers of a killed parent do not linger either.
"""

from __future__ import annotations

import atexit
import itertools
import os
import threading
import time
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.resilience.faults import fire

#: Sentinel distinguishing "no result yet" from a legitimate None result.
_PENDING = object()

#: Thread-count variables of the BLAS/OpenMP runtimes numpy may link; see
#: :func:`worker_thread_env`.
THREAD_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class RetryPolicy:
    """Supervision knobs for one :class:`SupervisedPool` run."""

    timeout: Optional[float] = 300.0
    """Seconds one task attempt may run before being declared failed and
    reassigned (``None`` disables deadlines; dead-worker detection and
    error retry still apply)."""

    max_attempts: int = 3
    """Total pool attempts per task (first run + retries) before the task
    degrades to in-process execution."""

    backoff_base: float = 0.1
    """Delay before the first retry; doubles per subsequent attempt."""

    backoff_max: float = 5.0
    """Upper bound on the retry delay."""

    poll_interval: float = 0.02
    """Longest wait of an idle supervision tick; a completion ends the
    wait at once."""

    def __post_init__(self):
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive or None")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff delays must be non-negative")

    def backoff(self, attempt: int) -> float:
        """Delay before submitting ``attempt`` (1-based retry counter)."""
        return min(self.backoff_max, self.backoff_base * (2.0 ** (attempt - 1)))


@dataclass
class TaskEvent:
    """One supervision event (failure, recovery, degradation) for reporting."""

    kind: str       #: "error" | "timeout" | "worker-died" | "fallback" | "retry"
    index: int
    attempt: int
    detail: str = ""


@dataclass
class _InFlight:
    handle: Any                      #: the AsyncResult
    attempt: int
    deadline: Optional[float]
    pid: Optional[int] = None


# --------------------------------------------------------------------- #
# worker side
# --------------------------------------------------------------------- #
_CHANNEL = None


def _supervised_init(channel) -> None:
    """Pool initializer: stash the start channel, detach from the parent.

    Spawn children inherit the write end of the parent's resource-tracker
    pipe, and the tracker exits (and cleans up) only once every holder has
    closed it; a warm worker holding it would keep the tracker alive for as
    long as the pool lives.  Workers never register resources (shared pages
    attach untracked, see :func:`repro.shm.attach_page`), so they let go of
    it.
    """
    global _CHANNEL
    _CHANNEL = channel
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    fd = getattr(tracker, "_fd", None)
    if fd is not None:
        tracker._fd = None
        os.close(fd)


def _supervised_call(func, run: int, index: int, payload, attempt: int):
    """Announce (run, task, attempt, pid) on the start channel, then run the task."""
    if _CHANNEL is not None:
        _CHANNEL.put((run, index, attempt, os.getpid()))
    return func(index, payload, attempt)


# --------------------------------------------------------------------- #
# the warm pool
# --------------------------------------------------------------------- #
def worker_thread_env(processes: int) -> Dict[str, str]:
    """The thread variables workers of a ``processes``-wide pool get.

    Each of :data:`THREAD_ENV_VARS` that ``os.environ`` leaves unset maps to
    ``max(1, usable_cores // processes)``, where usable cores are the ones
    this process may run on (``sched_getaffinity``, not the machine's
    count); variables the parent sets are left to it.
    """
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity
        cores = os.cpu_count() or 1
    threads = str(max(1, cores // processes))
    return {name: threads for name in THREAD_ENV_VARS if name not in os.environ}


@dataclass
class _WarmPool:
    processes: int
    environ: Dict[str, str]          #: parent ``os.environ`` at spawn time
    pool: Any
    channel: Any

    def terminate(self) -> None:
        # terminate(), not close(): hung workers never drain a task queue,
        # and a killed run must not leak spawn children.
        self.pool.terminate()
        self.pool.join()


_WARM: Optional[_WarmPool] = None
_WARM_LOCK = threading.Lock()
_RUN_IDS = itertools.count()


def _take_pool(processes: int) -> _WarmPool:
    """The parked pool if it fits this run, else a freshly spawned one."""
    global _WARM
    environ = dict(os.environ)
    with _WARM_LOCK:
        warm, _WARM = _WARM, None
    if warm is not None:
        if warm.processes == processes and warm.environ == environ:
            return warm
        warm.terminate()
    context = get_context("spawn")
    channel = context.SimpleQueue()
    # Spawned children copy the environment at exec time, and BLAS reads
    # its thread count when numpy loads, before any initializer could run:
    # so the thread variables are set around the spawn only.
    threads = worker_thread_env(processes)
    os.environ.update(threads)
    try:
        pool = context.Pool(processes=processes, initializer=_supervised_init,
                            initargs=(channel,))
    finally:
        for name in threads:
            os.environ.pop(name, None)
    return _WarmPool(processes, environ, pool, channel)


def _park_pool(warm: _WarmPool) -> None:
    global _WARM
    with _WARM_LOCK:
        previous, _WARM = _WARM, warm
    if previous is not None:
        previous.terminate()


def shutdown_warm_pool() -> None:
    """Terminate the parked worker pool, if any (idempotent).

    Runs at interpreter exit; call it earlier to end the workers before
    something that waits for every child process to be gone.
    """
    global _WARM
    with _WARM_LOCK:
        warm, _WARM = _WARM, None
    if warm is not None:
        warm.terminate()


atexit.register(shutdown_warm_pool)


# --------------------------------------------------------------------- #
# parent side
# --------------------------------------------------------------------- #
class SupervisedPool:
    """Run tasks on the warm spawn pool under a :class:`RetryPolicy`.

    ``func(index, payload, attempt)`` must be a picklable module-level
    callable returning a deterministic result for a given
    ``(index, payload)``.  Workers carry no per-run state of their own:
    whatever a task needs travels in its payload (a worker may cache what
    it built from a payload, keyed by something the payload carries), so
    one pool serves run after run.
    """

    def __init__(self, processes: int,
                 policy: Optional[RetryPolicy] = None,
                 resources: Sequence[Any] = ()):
        if processes < 1:
            raise ValueError("processes must be >= 1")
        self.processes = processes
        self.policy = policy or RetryPolicy()
        self.events: List[TaskEvent] = []
        #: Shared resources (objects with ``release()``, e.g. shm
        #: :class:`~repro.shm.PageHandle` pages) whose lifecycle this pool
        #: owns: created by the caller before fan-out, released by
        #: :meth:`run` after the *entire* run — including the in-process
        #: fallback sweep, which may still attach to them — on every exit
        #: path: clean completion, Ctrl-C, dead-worker retries, errors.
        self._resources: List[Any] = list(resources)

    def release_resources(self) -> None:
        """Release owned shared resources (idempotent, best-effort)."""
        resources, self._resources = self._resources, []
        for resource in resources:
            try:
                resource.release()
            except Exception:  # teardown must not mask the run's outcome
                pass

    # ------------------------------------------------------------------ #
    def run(self, func: Callable, payloads: Sequence[Any],
            fallback: Callable[[int, Any], Any],
            on_event: Optional[Callable[[TaskEvent], None]] = None,
            on_interrupt: Optional[Callable[[int, int], None]] = None) -> List[Any]:
        """Execute every payload and return results in payload order.

        ``fallback(index, payload)`` runs a task in the parent process when
        the pool cannot be trusted with it any longer (attempts exhausted, or
        every slot lost to hung workers).  ``on_event`` observes supervision
        events as they happen; ``on_interrupt(completed, total)`` runs after
        pool teardown when the caller hits Ctrl-C.  The pool goes back to
        the warm slot only when the run recorded no event at all.
        """
        try:
            total = len(payloads)
            results: List[Any] = [_PENDING] * total
            if total == 0:
                return []
            warm = _take_pool(self.processes)
            events_before = len(self.events)
            completed = 0

            def record(kind: str, index: int, attempt: int, detail: str = "") -> TaskEvent:
                event = TaskEvent(kind=kind, index=index, attempt=attempt, detail=detail)
                self.events.append(event)
                if on_event is not None:
                    on_event(event)
                return event

            try:
                clean = False
                try:
                    completed = self._supervise(warm.pool, warm.channel, func,
                                                payloads, results, fallback, record)
                    clean = len(self.events) == events_before
                finally:
                    if clean:
                        _park_pool(warm)
                    else:
                        warm.terminate()
            except KeyboardInterrupt:
                if on_interrupt is not None:
                    completed = sum(1 for r in results if r is not _PENDING)
                    on_interrupt(completed, total)
                raise
            # Anything the supervision loop gave up on runs in-process, in task
            # order, so the result list is always complete and ordered.  This
            # sweep may still attach to owned resources (an shm-backed
            # fallback replica), which is why release happens after it.
            for index in range(total):
                if results[index] is _PENDING:
                    record("fallback", index, 0, "pool unavailable; ran in-process")
                    results[index] = fallback(index, payloads[index])
            return results
        finally:
            self.release_resources()

    # ------------------------------------------------------------------ #
    def _supervise(self, pool, channel, func, payloads, results,
                   fallback, record) -> int:
        """The dispatch loop; returns the number of completed tasks."""
        policy = self.policy
        run = next(_RUN_IDS)
        total = len(payloads)
        pending: List[int] = list(range(total))      # awaiting first submission
        waiting: List[Tuple[float, int, int]] = []   # (not_before, index, attempt)
        inflight: Dict[int, _InFlight] = {}
        #: Set by every completion, so an idle tick waits for the next one
        #: instead of sleeping a fixed interval.
        wake = threading.Event()
        #: Worker pids believed hung (their slot is unusable until proven
        #: alive again by a fresh task announcement).
        lost_pids: set = set()
        #: Timed-out attempts whose worker pid was never learned; each costs
        #: one slot of assumed capacity.
        anonymous_losses = 0
        completed = 0
        tick = 0
        known_pids = self._worker_pids(pool)

        def live_slots() -> int:
            return self.processes - len(lost_pids) - anonymous_losses

        def submit(index: int, attempt: int) -> None:
            deadline = (time.monotonic() + policy.timeout
                        if policy.timeout is not None else None)
            handle = pool.apply_async(
                _supervised_call, (func, run, index, payloads[index], attempt),
                callback=lambda _value: wake.set(),
                error_callback=lambda _error: wake.set())
            inflight[index] = _InFlight(handle=handle, attempt=attempt,
                                        deadline=deadline)

        def handle_failure(index: int, attempt: int, kind: str, detail: str) -> None:
            record(kind, index, attempt, detail)
            next_attempt = attempt + 1
            if next_attempt < policy.max_attempts and live_slots() > 0:
                delay = policy.backoff(next_attempt)
                record("retry", index, next_attempt,
                       f"resubmitting in {delay:.2f}s")
                waiting.append((time.monotonic() + delay, index, next_attempt))
            else:
                record("fallback", index, attempt,
                       "pool attempts exhausted; running in-process")
                results[index] = fallback(index, payloads[index])

        while completed < total:
            fire("supervisor", tick)
            tick += 1
            wake.clear()
            progressed = False
            now = time.monotonic()

            # Promote backed-off retries whose delay has elapsed.
            due = [entry for entry in waiting if entry[0] <= now]
            if due:
                waiting[:] = [entry for entry in waiting if entry[0] > now]
                for _, index, attempt in due:
                    submit(index, attempt)
                    progressed = True

            # First submissions, capped at the believed-live slot count so
            # deadlines measure running time, not queue time.
            while pending and live_slots() > 0 and len(inflight) < live_slots():
                submit(pending.pop(0), 0)
                progressed = True

            # Drain start announcements: map in-flight tasks to worker pids,
            # and un-lose any pid that proves itself alive again.  A warm
            # pool's channel may still hold an earlier run's announcements;
            # they name that run and are skipped.
            while not channel.empty():
                announced_run, index, attempt, pid = channel.get()
                if announced_run != run:
                    continue
                lost_pids.discard(pid)
                entry = inflight.get(index)
                if entry is not None and entry.attempt == attempt:
                    entry.pid = pid
                progressed = True

            # Dead-worker detection: a pid that vanished from the pool took
            # its in-flight task with it.  The pool respawns the worker, so
            # capacity is not decremented.
            current_pids = self._worker_pids(pool)
            dead = known_pids - current_pids
            known_pids = current_pids
            if dead:
                lost_pids -= dead
                for index in [i for i, entry in inflight.items()
                              if entry.pid in dead]:
                    entry = inflight.pop(index)
                    handle_failure(index, entry.attempt, "worker-died",
                                   f"worker pid {entry.pid} died")
                    progressed = True

            # Completions and worker-raised errors.
            for index in [i for i, entry in inflight.items()
                          if entry.handle.ready()]:
                entry = inflight.pop(index)
                progressed = True
                try:
                    value = entry.handle.get(0)
                except KeyboardInterrupt:
                    raise
                except Exception as exc:
                    handle_failure(index, entry.attempt, "error", repr(exc))
                    continue
                if results[index] is _PENDING:
                    results[index] = value

            # Deadlines: a silent task past its deadline is presumed hung;
            # its worker (when known) is written off as a lost slot.
            if policy.timeout is not None:
                now = time.monotonic()
                for index in [i for i, entry in inflight.items()
                              if entry.deadline is not None and now > entry.deadline]:
                    entry = inflight.pop(index)
                    if entry.pid is not None:
                        lost_pids.add(entry.pid)
                    else:
                        anonymous_losses += 1
                    handle_failure(index, entry.attempt, "timeout",
                                   f"no result within {policy.timeout:.1f}s")
                    progressed = True

            completed = sum(1 for value in results if value is not _PENDING)
            if completed >= total:
                break

            if live_slots() <= 0:
                # Every pool slot is written off as hung: nothing submitted
                # from here on would ever start.  Degrade the rest of the
                # run to in-process execution (run() sweeps up everything
                # still _PENDING, including tasks stuck in flight).
                break

            if not progressed:
                # A completion sets ``wake``; deadlines, backoffs and dead
                # workers are still checked every ``poll_interval``.
                wake.wait(policy.poll_interval)
        return sum(1 for value in results if value is not _PENDING)

    # ------------------------------------------------------------------ #
    @staticmethod
    def _worker_pids(pool) -> set:
        """Current worker pids (``Pool`` internals; stable across CPython)."""
        try:
            return {process.pid for process in pool._pool}
        except AttributeError:  # pragma: no cover - future-proofing
            return set()
