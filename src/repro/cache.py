"""Process-wide keyed caches for decomposition-derived state.

Building a :class:`~repro.core.decomposition.Decomposition` is cheap, but
the *derived* state — vectorised ancestor/bridge tables
(:class:`~repro.core.tables.SequenceTables`), networkx graph views, and
anything else keyed by ``(mesh shape, scheme)`` — is not, and before this
module every router instance, benchmark and simulator rebuilt its own
copy.  Compact oblivious routing (Räcke & Schmid 2018) makes the point
that the *state footprint* of a routing scheme is what decides whether it
deploys; here we make that footprint explicit, shared and measurable.

The cache is a flat keyed store:

* :func:`get_decomposition` — the canonical entry point: one
  ``Decomposition`` per ``(sides, torus, resolved scheme)`` for the whole
  process, shared by routers, benchmarks and the online simulator.
* :func:`memo` — generic ``(kind, key) -> factory()`` memoisation for any
  derived table; ``repro.core.tables`` and the batch engine use it.
* :func:`stats` — hit/miss/entry accounting (the ``repro.cache`` stats
  API); :func:`invalidate` — explicit invalidation, all or by kind.
* :func:`configure` — disable to force rebuild-per-call (benchmarks use
  this to measure the cache's own contribution).

Doctest::

    >>> import repro.cache as cache
    >>> from repro.mesh.mesh import Mesh
    >>> _ = cache.invalidate()
    >>> d1 = cache.get_decomposition(Mesh((8, 8)))
    >>> d2 = cache.get_decomposition(Mesh((8, 8)))
    >>> d1 is d2
    True
    >>> cache.stats().hits >= 1
    True

Thread-safety: reads and writes go through a lock, so concurrent routers
share one build instead of racing to duplicate it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Hashable

from repro.mesh.mesh import Mesh

__all__ = [
    "CacheStats",
    "absorb_worker_stats",
    "configure",
    "enabled",
    "epoch",
    "get_decomposition",
    "invalidate",
    "memo",
    "resolve_scheme",
    "stats",
    "warm",
    "warmup_key",
    "worker_stats",
]


@dataclass(frozen=True)
class CacheStats:
    """Snapshot of the cache's accounting counters.

    ``invalidations`` counts :func:`invalidate` *calls*; ``dropped`` counts
    the total number of entries those calls removed (one call that clears
    three entries is ``invalidations += 1``, ``dropped += 3``).
    """

    hits: int
    misses: int
    entries: int
    invalidations: int
    dropped: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": self.entries,
            "invalidations": self.invalidations,
            "dropped": self.dropped,
            "hit_rate": self.hit_rate,
        }


_lock = threading.Lock()
_store: dict[tuple, Any] = {}
_enabled = True
_hits = 0
_misses = 0
_invalidations = 0
_dropped = 0
#: bumped by every :func:`invalidate` call — the warm-up handshake uses it
#: to detect an invalidation that landed while a warm() pass was in flight
_epoch = 0


def configure(*, enabled: bool = True) -> None:
    """Enable or disable the cache process-wide.

    Disabling makes every :func:`memo` call a miss that is *not* stored,
    so each caller gets a fresh build — the rebuild-per-router behaviour
    the codebase had before the cache existed.  Existing entries are kept
    (and ignored) so re-enabling restores them.
    """
    global _enabled
    with _lock:
        _enabled = bool(enabled)


def enabled() -> bool:
    return _enabled


def memo(kind: str, key: Hashable, factory: Callable[[], Any]) -> Any:
    """Return the cached value for ``(kind, key)``, building it on miss.

    ``kind`` namespaces independent derived-state families
    (``"decomposition"``, ``"tables"``, ``"mesh-graph"``, ...), so
    :func:`invalidate` can drop one family without touching the others.
    The factory runs outside the lock-held fast path but inside a
    per-process lock overall, so concurrent callers see one build.
    """
    global _hits, _misses
    full_key = (kind, key)
    with _lock:
        # One enabled snapshot, taken under the lock: deciding to store
        # from an unlocked re-read after the factory runs would let a call
        # racing ``configure(enabled=False)`` insert after the disable.
        enabled_now = _enabled
        if enabled_now and full_key in _store:
            _hits += 1
            return _store[full_key]
        _misses += 1
    value = factory()
    if enabled_now:
        with _lock:
            # Re-check under the lock: a configure(enabled=False) that
            # completed while the factory ran wins — nothing is inserted
            # after it returns.  Another thread may also have raced us;
            # keep the first build.
            if _enabled:
                value = _store.setdefault(full_key, value)
    return value


def invalidate(kind: str | None = None) -> int:
    """Drop cached entries (all, or only one ``kind``); returns the count.

    Accounting: each call bumps ``stats().invalidations`` by one; the
    number of entries removed accumulates in ``stats().dropped``.
    """
    global _invalidations, _dropped, _epoch
    with _lock:
        _epoch += 1
        if kind is None:
            dropped = len(_store)
            _store.clear()
        else:
            doomed = [k for k in _store if k[0] == kind]
            for k in doomed:
                del _store[k]
            dropped = len(doomed)
        _invalidations += 1
        _dropped += dropped
    return dropped


def epoch() -> int:
    """Monotonic invalidation counter.

    Every :func:`invalidate` call bumps it, whatever it dropped.  Multi-step
    consumers (the :func:`warm` handshake) snapshot the epoch before a pass
    and re-check it after: an unchanged epoch proves no invalidation raced
    the pass, so everything the pass built is still resident.
    """
    with _lock:
        return _epoch


def stats() -> CacheStats:
    """Current hit/miss/entry counters (process-wide)."""
    with _lock:
        return CacheStats(
            hits=_hits,
            misses=_misses,
            entries=len(_store),
            invalidations=_invalidations,
            dropped=_dropped,
        )


def reset_stats() -> None:
    """Zero the counters without touching the entries (test helper)."""
    global _hits, _misses, _invalidations, _dropped
    with _lock:
        _hits = 0
        _misses = 0
        _invalidations = 0
        _dropped = 0


# ----------------------------------------------------------------------
# Decomposition-specific entry points
# ----------------------------------------------------------------------
def resolve_scheme(mesh: Mesh, scheme: str) -> str:
    """The concrete scheme ``"auto"`` resolves to for this mesh.

    Mirrors :class:`~repro.core.decomposition.Decomposition`'s rule so two
    routers asking for ``"auto"`` and the resolved name share one entry.
    """
    if scheme == "auto":
        return "paper2d" if mesh.d <= 2 else "multishift"
    return scheme


def get_decomposition(mesh: Mesh, scheme: str = "auto"):
    """The shared :class:`Decomposition` for ``(mesh shape, scheme)``.

    Keyed by ``(sides, torus, resolved scheme)`` — mesh objects with equal
    shape share one decomposition even when the instances differ.
    """
    from repro.core.decomposition import Decomposition

    resolved = resolve_scheme(mesh, scheme)
    key = (mesh.sides, mesh.torus, resolved)
    return memo("decomposition", key, lambda: Decomposition(mesh, resolved))


# ----------------------------------------------------------------------
# Worker handshake (sharded execution)
# ----------------------------------------------------------------------
# The cache is process-wide, so a worker process starts cold (or, under
# fork, with a copy-on-write snapshot of the parent's entries).  The parent
# ships each worker the *keys* it will need — plain picklable tuples, never
# the decompositions themselves — and the worker warms its own cache once
# before routing.  Worker stat snapshots travel the other way and accumulate
# in a parent-side rollup so the parent's ``stats()`` (its own process) and
# ``worker_stats()`` (the fleet) stay distinguishable.

_worker_hits = 0
_worker_misses = 0
_worker_entries = 0


def warmup_key(mesh: Mesh, scheme: str = "auto") -> tuple:
    """The picklable handshake key for one decomposition: ship this to a
    worker and :func:`warm` rebuilds (or confirms) the entry there."""
    return (tuple(mesh.sides), bool(mesh.torus), resolve_scheme(mesh, scheme))


def warm(keys, *, max_retries: int = 4) -> int:
    """Build the decompositions named by ``keys`` in *this* process.

    Returns the number of keys that were cold (a cache miss here).  Called
    by shard workers before routing so the build cost is paid once per
    process, not once per shard task.

    The handshake is epoch-checked: an :func:`invalidate` that lands while
    a pass is in flight can drop entries the pass already built, which
    would let ``warm`` return with some of its keys cold again — the exact
    stale-``warmup_key`` race this guard exists for.  Each pass snapshots
    :func:`epoch` first and re-runs (up to ``max_retries`` times) whenever
    the epoch moved mid-pass, so on a clean return every key is resident.
    Under a sustained invalidation storm the last pass's count is returned
    best-effort rather than livelocking.  A key already resident costs one
    lock-held lookup (:func:`_resident`); only a cold key builds its mesh.
    """
    keys = [(tuple(sides), bool(torus), scheme) for sides, torus, scheme in keys]
    cold = 0
    for _attempt in range(max_retries + 1):
        e0 = epoch()
        cold = 0
        for key in keys:
            if _resident(key):
                continue
            sides, torus, scheme = key
            before = stats().misses
            get_decomposition(Mesh(sides, torus=torus), scheme)
            cold += int(stats().misses > before)
        if epoch() == e0:
            break
    return cold


def _resident(key: tuple) -> bool:
    """Whether decomposition ``key`` is cached; a resident key is a hit.

    One lock-held lookup, counted as :func:`get_decomposition` would count
    it, so a warm worker's :func:`warm` builds no ``Mesh`` and reads no
    :func:`stats`.
    """
    global _hits
    with _lock:
        if _enabled and ("decomposition", key) in _store:
            _hits += 1
            return True
    return False


def absorb_worker_stats(snapshot: CacheStats | dict) -> None:
    """Fold one worker's :func:`stats` snapshot into the parent rollup."""
    global _worker_hits, _worker_misses, _worker_entries
    if isinstance(snapshot, CacheStats):
        snapshot = snapshot.to_dict()
    with _lock:
        _worker_hits += int(snapshot.get("hits", 0))
        _worker_misses += int(snapshot.get("misses", 0))
        _worker_entries = max(_worker_entries, int(snapshot.get("entries", 0)))


def worker_stats() -> CacheStats:
    """Accumulated cache accounting across absorbed worker snapshots.

    ``entries`` is the largest single worker's entry count (entries are
    per-process state, so summing them would double-count shared builds).
    """
    with _lock:
        return CacheStats(
            hits=_worker_hits,
            misses=_worker_misses,
            entries=_worker_entries,
            invalidations=0,
        )


def reset_worker_stats() -> None:
    """Zero the worker rollup (test helper)."""
    global _worker_hits, _worker_misses, _worker_entries
    with _lock:
        _worker_hits = 0
        _worker_misses = 0
        _worker_entries = 0
