"""Admission control and backpressure for the simulators.

A service at overload has exactly three choices: queue, shed, or melt.
This module gives both simulators the first two as an explicit policy —
a classic **token bucket** (sustained admission rate ``rate_limit``
packets/step with bursts up to ``burst``) composed with **queue-depth
backpressure** (admission pauses while the in-network packet count is at
``max_backlog``) and an optional shed rule (``max_wait``: a packet still
queued after that many steps is dropped instead of admitted).

The policy acts only on *when* an already-routed packet enters the
network — never on which path it takes.  Path selection happens before
admission and draws from per-packet streams keyed by global injection
index, so enabling admission cannot shift a single random draw:
``admission=None`` runs the byte-identical pre-admission code path, and
an enabled policy changes scheduling only.  Latency is always counted
from the packet's *birth* step, so time spent queued at the ingress is
part of the packet's latency — the honest, user-visible number.

Instrumentation lands on ``admission.*`` profiler counters
(``admitted``, ``dropped``, ``delayed_steps``, ``throttled_steps``).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

__all__ = ["AdmissionParams", "AdmissionState"]


@dataclass(frozen=True)
class AdmissionParams:
    """Admission policy: token bucket + queue-depth backpressure.

    Parameters
    ----------
    rate_limit:
        Sustained admissions per step (whole network); ``None`` = no
        rate limit (backpressure only).
    burst:
        Token-bucket capacity — how far above the sustained rate a quiet
        period lets a burst go.  Defaults to ``max(rate_limit, 1)``.
    max_backlog:
        In-network packet ceiling; admission pauses while the network
        holds this many undelivered packets.  ``None`` = unbounded.
    max_wait:
        Shed rule: a packet queued longer than this many steps is
        dropped (counted ``admission_dropped``).  ``None`` = queue
        forever.

    >>> AdmissionParams(rate_limit=4.0, max_backlog=100).effective_burst
    4.0
    """

    rate_limit: float | None = None
    burst: float | None = None
    max_backlog: int | None = None
    max_wait: int | None = None

    def __post_init__(self) -> None:
        # ``nan <= 0`` is false: test finiteness first, or NaN passes as
        # a rate and the bucket never throttles
        if self.rate_limit is not None and not (
            math.isfinite(self.rate_limit) and self.rate_limit > 0
        ):
            raise ValueError("rate_limit must be finite and positive (or None)")
        if self.burst is not None and not (
            math.isfinite(self.burst) and self.burst >= 1
        ):
            raise ValueError(
                "burst must be finite and >= 1 (or None for the default)"
            )
        if self.max_backlog is not None and self.max_backlog < 1:
            raise ValueError("max_backlog must be >= 1 (or None)")
        if self.max_wait is not None and self.max_wait < 1:
            raise ValueError("max_wait must be >= 1 (or None)")
        if (
            self.rate_limit is None
            and self.max_backlog is None
            and self.max_wait is None
        ):
            raise ValueError(
                "admission policy is a no-op: set rate_limit, max_backlog "
                "or max_wait (or pass admission=None)"
            )

    @property
    def effective_burst(self) -> float:
        if self.burst is not None:
            return float(self.burst)
        return float(max(self.rate_limit or 1.0, 1.0))


class AdmissionState:
    """Per-run mutable admission machinery (deterministic, RNG-free).

    Holds the FIFO ingress queue of packet indices, the token bucket
    level and the policy counters.  The simulators' shared step core
    (:class:`repro.simulation._step.StepCore`) drives it: :meth:`push`
    newly-born packets, then once per step :meth:`step_admit` returns
    which packets enter the network and which are shed.
    """

    def __init__(self, params: AdmissionParams):
        self.params = params
        self.bucket = params.effective_burst  # start full: bursts admit at once
        self.queue: deque[int] = deque()
        self.admitted = 0
        self.dropped = 0
        self.delayed_steps = 0
        self.throttled_steps = 0

    def __len__(self) -> int:
        return len(self.queue)

    def push(self, indices) -> None:
        """Enqueue newly-born packet indices (callers push in birth order,
        so the FIFO queue stays sorted by birth step)."""
        self.queue.extend(int(i) for i in np.asarray(indices).tolist())

    def step_admit(
        self, step: int, in_network: int, born=None
    ) -> tuple[list[int], list[int]]:
        """One admission round: refill, shed stale waiters, admit FIFO.

        Parameters
        ----------
        step:
            Current scheduler step (drives refill and the stale check).
        in_network:
            Undelivered packets currently inside the network (the
            backpressure signal).
        born:
            Per-packet birth steps (indexable by packet id); ``None``
            means every packet was born at step 0 (the batch scheduler).

        Returns ``(admitted, shed)`` packet-id lists, both in FIFO order.
        """
        p = self.params
        if p.rate_limit is not None:
            self.bucket = min(p.effective_burst, self.bucket + p.rate_limit)
        shed: list[int] = []
        if p.max_wait is not None:
            # the queue is FIFO in birth order, so stale packets are a prefix
            while self.queue:
                head = self.queue[0]
                birth = int(born[head]) if born is not None else 0
                if step - birth < p.max_wait:
                    break
                shed.append(self.queue.popleft())
            self.dropped += len(shed)
        admitted: list[int] = []
        while self.queue:
            if p.rate_limit is not None and self.bucket < 1.0:
                break
            if (
                p.max_backlog is not None
                and in_network + len(admitted) >= p.max_backlog
            ):
                break
            admitted.append(self.queue.popleft())
            if p.rate_limit is not None:
                self.bucket -= 1.0
        self.admitted += len(admitted)
        if self.queue:
            self.delayed_steps += len(self.queue)
            self.throttled_steps += 1
        return admitted, shed

    def counters(self) -> dict[str, int]:
        """The ``admission.*`` counter deltas for a profiler."""
        return {
            "admission.admitted": self.admitted,
            "admission.dropped": self.dropped,
            "admission.delayed_steps": self.delayed_steps,
            "admission.throttled_steps": self.throttled_steps,
        }
