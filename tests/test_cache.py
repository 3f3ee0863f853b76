"""The process-wide cache: sharing, accounting, invalidation, disabling."""

import threading

import numpy as np
import pytest

from repro import cache
from repro.core.path_selection import HierarchicalRouter
from repro.mesh.mesh import Mesh
from repro.workloads.permutations import transpose


@pytest.fixture(autouse=True)
def clean_cache():
    cache.configure(enabled=True)
    cache.invalidate()
    cache.reset_stats()
    yield
    cache.configure(enabled=True)
    cache.invalidate()
    cache.reset_stats()


class TestMemo:
    def test_miss_then_hit(self):
        calls = []
        value = cache.memo("t", "k", lambda: calls.append(1) or "v")
        again = cache.memo("t", "k", lambda: calls.append(1) or "v2")
        assert value == again == "v"
        assert len(calls) == 1
        st = cache.stats()
        assert st.hits == 1 and st.misses == 1 and st.entries == 1

    def test_distinct_keys_distinct_entries(self):
        cache.memo("t", 1, lambda: "a")
        cache.memo("t", 2, lambda: "b")
        cache.memo("u", 1, lambda: "c")
        assert cache.stats().entries == 3

    def test_invalidate_all(self):
        cache.memo("t", 1, lambda: "a")
        cache.memo("u", 2, lambda: "b")
        assert cache.invalidate() == 2
        assert cache.stats().entries == 0
        assert cache.stats().invalidations == 1  # one call...
        assert cache.stats().dropped == 2  # ...dropping two entries

    def test_invalidate_by_kind(self):
        cache.memo("t", 1, lambda: "a")
        cache.memo("u", 2, lambda: "b")
        assert cache.invalidate("t") == 1
        assert cache.stats().entries == 1
        # the surviving entry still hits
        cache.memo("u", 2, lambda: "fresh")
        assert cache.stats().hits == 1

    def test_disabled_rebuilds_every_call(self):
        cache.configure(enabled=False)
        calls = []
        cache.memo("t", "k", lambda: calls.append(1) or len(calls))
        cache.memo("t", "k", lambda: calls.append(1) or len(calls))
        assert len(calls) == 2
        assert cache.stats().entries == 0
        assert not cache.enabled()

    def test_hit_rate(self):
        assert cache.stats().hit_rate == 0.0
        cache.memo("t", "k", lambda: 1)
        cache.memo("t", "k", lambda: 1)
        assert cache.stats().hit_rate == pytest.approx(0.5)

    def test_invalidation_counter_is_per_call(self):
        """Regression: ``invalidations`` counts invalidate() *calls*, not
        entries removed (``dropped`` carries the removal count)."""
        for i in range(3):
            cache.memo("t", i, lambda: i)
        assert cache.invalidate() == 3
        st = cache.stats()
        assert st.invalidations == 1
        assert st.dropped == 3
        # an empty invalidate is still one call, zero drops
        assert cache.invalidate() == 0
        st = cache.stats()
        assert st.invalidations == 2
        assert st.dropped == 3
        assert st.to_dict()["dropped"] == 3

    def test_configure_disable_blocks_racing_store(self):
        """Regression (threaded): once configure(enabled=False) returns, no
        racing memo call may insert into the store.  Pre-fix, memo re-read
        ``_enabled`` outside the lock after the factory ran, so an insert
        could land after the disable completed."""
        stop = threading.Event()

        def hammer(k):
            i = 0
            while not stop.is_set():
                cache.memo("race", (k, i % 4), lambda: object())
                i += 1

        threads = [threading.Thread(target=hammer, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        try:
            for _ in range(300):
                cache.configure(enabled=True)
                cache.configure(enabled=False)
                # Entries present here were inserted while enabled: drop them.
                cache.invalidate("race")
                # From this point on nothing may be inserted — any entry the
                # second sweep finds was stored *after* the disable returned.
                assert cache.invalidate("race") == 0
        finally:
            stop.set()
            for t in threads:
                t.join()

    def test_disable_completed_during_factory_wins(self):
        """Deterministic regression for the configure race: a memo call
        whose factory is in flight when ``configure(enabled=False)``
        *completes* must not insert afterwards.  Reproduces the exact
        interleaving by gating the victim thread's store-side lock
        acquisition until the disable has returned."""
        at_gate = threading.Event()
        proceed = threading.Event()
        state = {"armed": False}
        victim_holder: list = []
        inner = threading.Lock()

        class GatedLock:
            def __enter__(self):
                if state["armed"] and threading.current_thread() in victim_holder:
                    state["armed"] = False
                    at_gate.set()
                    proceed.wait(timeout=10)
                inner.acquire()

            def __exit__(self, *exc):
                inner.release()

        def factory():
            state["armed"] = True  # gate the *next* (store-side) acquisition
            return "value"

        original = cache._lock
        cache._lock = GatedLock()
        try:
            victim = threading.Thread(target=lambda: cache.memo("race", "k", factory))
            victim_holder.append(victim)
            victim.start()
            assert at_gate.wait(timeout=10)
            # The victim is now past its unlocked work, waiting to store.
            cache.configure(enabled=False)
            proceed.set()
            victim.join(timeout=10)
        finally:
            proceed.set()
            cache._lock = original
        # Nothing may have been inserted after the disable returned.
        assert cache.invalidate("race") == 0

    def test_thread_shared_build(self):
        results = []

        def worker():
            results.append(cache.memo("t", "k", lambda: object()))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r is results[0] for r in results)


class TestGetDecomposition:
    def test_shared_across_equal_meshes(self):
        d1 = cache.get_decomposition(Mesh((8, 8)))
        d2 = cache.get_decomposition(Mesh((8, 8)))
        assert d1 is d2

    def test_auto_resolves_to_concrete_scheme(self):
        d1 = cache.get_decomposition(Mesh((8, 8)), "auto")
        d2 = cache.get_decomposition(Mesh((8, 8)), "paper2d")
        assert d1 is d2
        assert cache.resolve_scheme(Mesh((8, 8)), "auto") == "paper2d"
        assert cache.resolve_scheme(Mesh((4, 4, 4)), "auto") == "multishift"

    def test_schemes_do_not_collide(self):
        d1 = cache.get_decomposition(Mesh((8, 8)), "paper2d")
        d2 = cache.get_decomposition(Mesh((8, 8)), "multishift")
        assert d1 is not d2

    def test_routers_share_one_decomposition(self):
        mesh = Mesh((8, 8))
        r1 = HierarchicalRouter()
        r2 = HierarchicalRouter()
        assert r1.decomposition(mesh) is r2.decomposition(mesh)

    def test_routing_with_cache_disabled_still_works(self):
        cache.configure(enabled=False)
        mesh = Mesh((8, 8))
        result = HierarchicalRouter().route(transpose(mesh), seed=0)
        assert result.validate()

    def test_routing_populates_cache(self):
        mesh = Mesh((16, 16))
        HierarchicalRouter().route(transpose(mesh), seed=0)
        st = cache.stats()
        assert st.entries >= 2  # decomposition + sequence tables
        HierarchicalRouter().route(transpose(mesh), seed=1)
        assert cache.stats().hits > st.hits

    def test_invalidation_forces_rebuild(self):
        mesh = Mesh((8, 8))
        d1 = cache.get_decomposition(mesh)
        cache.invalidate("decomposition")
        d2 = cache.get_decomposition(mesh)
        assert d1 is not d2


class TestEpochAndWarm:
    """The warm-up handshake vs invalidate() (the PR 3 race, service era)."""

    def test_epoch_bumps_on_every_invalidate(self):
        e0 = cache.epoch()
        cache.invalidate()
        cache.invalidate("anything")
        assert cache.epoch() == e0 + 2

    def test_warm_builds_and_reports_cold_keys(self):
        mesh = Mesh((8, 8))
        key = cache.warmup_key(mesh)
        assert cache.warm([key]) == 1  # cold: built here
        assert cache.warm([key]) == 0  # resident now

    def test_resident_key_is_one_counted_lookup(self, monkeypatch):
        """A warm worker's warm() builds no Mesh and counts one hit per key,
        as the get_decomposition call it replaces did."""
        key = cache.warmup_key(Mesh((8, 8)))
        assert cache.warm([key]) == 1
        before = cache.stats()

        def no_mesh(*args, **kwargs):
            raise AssertionError("warm() built a Mesh for a resident key")

        monkeypatch.setattr(cache, "Mesh", no_mesh)
        assert cache.warm([key, key]) == 0
        after = cache.stats()
        assert after.hits == before.hits + 2
        assert after.misses == before.misses

    def test_disabled_cache_warms_cold(self):
        key = cache.warmup_key(Mesh((8, 8)))
        cache.warm([key])
        cache.configure(enabled=False)
        try:
            assert cache.warm([key]) == 1
        finally:
            cache.configure(enabled=True)

    def test_invalidate_during_warm_pass_triggers_repass(self, monkeypatch):
        """Deterministic interleaving: an invalidate() lands after warm()
        built its keys but before its epoch re-check.  The handshake must
        detect the moved epoch and re-run, so on return every key is
        actually resident (a single-pass warm would return with the cache
        empty again — the stale-warm-up race)."""
        mesh = Mesh((8, 8))
        key = cache.warmup_key(mesh)
        original = cache.get_decomposition
        passes = []

        def racing(mesh_arg, scheme="auto"):
            value = original(mesh_arg, scheme)
            if not passes:  # first pass only: invalidate mid-flight
                passes.append(1)
                cache.invalidate()
            return value

        monkeypatch.setattr(cache, "get_decomposition", racing)
        cache.warm([key])
        monkeypatch.undo()
        # the repass happened and left the entry resident
        assert passes == [1]
        assert cache.warm([key]) == 0

    def test_sustained_invalidation_returns_best_effort(self, monkeypatch):
        """An invalidation storm must not livelock warm()."""
        mesh = Mesh((8, 8))
        key = cache.warmup_key(mesh)
        original = cache.get_decomposition
        calls = []

        def always_racing(mesh_arg, scheme="auto"):
            value = original(mesh_arg, scheme)
            calls.append(1)
            cache.invalidate()
            return value

        monkeypatch.setattr(cache, "get_decomposition", always_racing)
        cold = cache.warm([key], max_retries=3)
        monkeypatch.undo()
        assert len(calls) == 4  # initial pass + 3 retries, then gave up
        assert cold == 1  # honest: the key was cold in the last pass too

    def test_gated_invalidate_between_build_and_epoch_check(self):
        """GatedLock-style regression mirroring the configure() races: the
        victim thread's warm() pass completes its builds, then an
        invalidate from the main thread wins the epoch before the
        re-check.  warm() must do a second pass rather than return with
        stale keys."""
        mesh = Mesh((8, 8))
        key = cache.warmup_key(mesh)
        built = threading.Event()
        proceed = threading.Event()
        original = cache.get_decomposition
        state = {"pass": 0}

        def gated(mesh_arg, scheme="auto"):
            value = original(mesh_arg, scheme)
            if state["pass"] == 0:
                state["pass"] = 1
                built.set()  # pass 1 done building; hold before epoch check
                assert proceed.wait(timeout=10)
            return value

        cache.get_decomposition = gated
        try:
            victim = threading.Thread(target=lambda: cache.warm([key]))
            victim.start()
            assert built.wait(timeout=10)
            cache.invalidate()  # lands between build and epoch re-check
            proceed.set()
            victim.join(timeout=10)
            assert not victim.is_alive()
        finally:
            proceed.set()
            cache.get_decomposition = original
        assert cache.warm([key]) == 0  # the repass left it resident
