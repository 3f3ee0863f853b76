"""CI smoke test for the routing service: boot, route, diff, audit.

Boots ``repro serve`` as a real subprocess (the CLI entry point, not the
in-process objects the unit tests use), routes a golden sample through a
``ServiceClient``, and fails loudly if:

* any routed cell's CSR hash differs from the committed golden matrix
  (``tests/golden/path_hashes.json``);
* a request above ``ROUTE_BLOCK`` packets, which the service routes as
  several blocks across its workers, differs from the same route run
  locally with ``route(workers=1)``;
* the daemon exits non-zero or refuses a clean SIGTERM shutdown;
* the run leaves shared-memory segments in ``/dev/shm`` (the ownership
  hand-off leaked), orphaned child processes, or a stale socket.

Exit code 0 means the whole lifecycle — boot, warm pool, batched
admission, multi-block requests, shm hand-off, teardown — worked end to
end.

Usage: ``PYTHONPATH=src python tools/service_smoke.py``
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.cli import parse_mesh  # noqa: E402
from repro.routing.base import ROUTE_BLOCK  # noqa: E402
from repro.routing.registry import make_router  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402
from repro.workloads import random_pairs  # noqa: E402
from repro.workloads.permutations import transpose  # noqa: E402

GOLDEN = REPO / "tests" / "golden" / "path_hashes.json"
#: golden cells routed through the live daemon: router|mesh|seed triplets
#: with a plain (un-suffixed) router name, small enough for a smoke leg
SAMPLE_MESH = "8x8"
SAMPLE_ROUTERS = ("hierarchical", "access-tree", "dim-order", "valiant")
#: packets of the multi-block request: two blocks of the block plan
LARGE_PACKETS = ROUTE_BLOCK + 4000


def cell_hash(result) -> str:
    h = hashlib.sha256()
    h.update(result.paths.nodes.tobytes())
    h.update(result.paths.offsets.tobytes())
    return h.hexdigest()


def shm_segments() -> list[str]:
    return sorted(
        os.path.basename(p) for p in glob.glob("/dev/shm/repro-*")
    )


def live_descendants(pid: int) -> list[str]:
    """Children of ``pid``, excluding multiprocessing's resource tracker
    (a singleton that legitimately outlives brief windows)."""
    out = subprocess.run(
        ["ps", "--ppid", str(pid), "-o", "pid=,args="],
        capture_output=True, text=True,
    ).stdout
    return [
        line.strip()
        for line in out.splitlines()
        if line.strip() and "resource_tracker" not in line
    ]


def main() -> int:
    golden = json.loads(GOLDEN.read_text())
    mesh = parse_mesh(SAMPLE_MESH)
    label = "x".join(str(s) for s in mesh.sides)

    failures: list[str] = []
    shm_before = shm_segments()

    with tempfile.TemporaryDirectory() as tmp:
        socket_path = os.path.join(tmp, "repro.sock")
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--socket", socket_path, "--workers", "2",
             "--prewarm", SAMPLE_MESH],
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        try:
            deadline = time.monotonic() + 60
            while not os.path.exists(socket_path):
                if server.poll() is not None:
                    print(server.stdout.read())
                    print("FAIL: serve exited before binding its socket")
                    return 1
                if time.monotonic() > deadline:
                    print("FAIL: serve did not bind its socket in 60s")
                    return 1
                time.sleep(0.1)

            checked = 0
            problem = transpose(mesh)  # the golden matrix's 8x8 workload
            with ServiceClient(socket_path) as client:
                for router in SAMPLE_ROUTERS:
                    for seed in (0, 1):
                        key = f"{router}|{label}|seed={seed}"
                        if key not in golden:
                            continue
                        result = client.route(problem, router=router, seed=seed)
                        got = cell_hash(result)
                        want = golden[key]
                        if got != want:
                            failures.append(
                                f"hash mismatch {key}: {got[:12]} != {want[:12]}"
                            )
                        checked += 1
                large = random_pairs(mesh, LARGE_PACKETS, seed=11)
                via = cell_hash(client.route(large, router="hierarchical", seed=3))
                counters = client.stats()["profile"]["counters"]
            if counters.get("service.sharded_requests") != 1:
                failures.append("the large request did not run as several blocks")
            local = cell_hash(make_router("hierarchical").route(large, 3, workers=1))
            if via != local:
                failures.append(
                    f"{LARGE_PACKETS}-packet request: {via[:12]} != {local[:12]}"
                )
            if checked == 0:
                failures.append("no golden cells matched the sample matrix")
            print(
                f"routed {checked} golden cells and one {LARGE_PACKETS}-packet "
                "request via the service"
            )

            orphans = live_descendants(server.pid)
            server.send_signal(signal.SIGTERM)
            try:
                code = server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                server.kill()
                failures.append("serve ignored SIGTERM for 30s")
                code = server.wait()
            if code != 0:
                failures.append(f"serve exited {code} on SIGTERM")
            if os.path.exists(socket_path):
                failures.append("stale socket left after shutdown")
            for line in orphans:
                pid = int(line.split()[0])
                deadline = time.monotonic() + 10  # grace for pool teardown
                while time.monotonic() < deadline:
                    try:
                        os.kill(pid, 0)
                    except ProcessLookupError:
                        break
                    time.sleep(0.2)
                else:
                    failures.append(f"orphaned child survived shutdown: {line}")
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()

    leaked = [s for s in shm_segments() if s not in shm_before]
    if leaked:
        failures.append(f"leaked /dev/shm segments: {leaked}")

    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    print("service smoke OK: byte-identical cells, clean shutdown, no leaks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
