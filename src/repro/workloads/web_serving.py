"""Web-Serving (CloudSuite) workload model.

CloudSuite's web-serving benchmark drives an Elgg/PHP social-network
stack with the Faban load generator (the paper uses 3 servers and 100
clients).  Memory behaviour: a small, extremely hot code/opcache/DB
working set that stays cache-resident, plus per-request session and
response-buffer pages that are touched a handful of times and then
abandoned (session churn), with request-rate troughs between load
waves.

Profiling character (Table IV): the suite's starkest A-bit win — the
churn pages all get their A bit set (every touch of a fresh page is a
TLB miss), but memory intensity is so low that IBS's op-sampled trace
catches very few of them (25 K A-bit vs 3-4 K IBS).  The idle troughs
are also what exercise TMP's HWPC-based gating.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..memsim.machine import Machine
from .base import ProcessContext, Workload
from .synth import BoundedZipf, StreamBuilder, sequential_sweep

__all__ = ["WebServing"]

_IP_CODE = 0xB000_0000
_IP_SESSION = 0xB000_1000

#: Request-rate wave (relative intensity per epoch, cycled).
_LOAD_WAVE = (1.0, 0.85, 0.3, 0.15, 0.6)


@lru_cache(maxsize=2 * len(_LOAD_WAVE))
def _client_sweep(n_pages: int, size: int) -> np.ndarray:
    """A client's request-buffer sweep: the same for every client of an
    epoch, so it is made once (read-only; the builder copies it)."""
    sweep = sequential_sweep(n_pages, size)
    sweep.flags.writeable = False
    return sweep


class WebServing(Workload):
    """Request-driven service: hot code set + churning session pages."""

    name = "web-serving"

    def __init__(
        self,
        footprint_pages: int = 4_608,
        n_servers: int = 3,
        n_clients: int = 12,
        accesses_per_epoch: int = 120_000,
        code_pages: int = 192,
        session_touches: int = 6,
        hot_fraction: float = 0.9,
        **kw,
    ):
        if session_touches < 1:
            raise ValueError(f"session_touches must be >= 1, got {session_touches}")
        super().__init__(
            footprint_pages, n_servers + n_clients, accesses_per_epoch, **kw
        )
        self.n_servers = int(n_servers)
        self.n_clients = int(n_clients)
        self.code_pages = int(code_pages)
        self.session_touches = int(session_touches)
        self.hot_fraction = float(hot_fraction)
        self._code_zipf = BoundedZipf(self.code_pages, alpha=1.3)

    @property
    def session_pages_per_server(self) -> int:
        """Session-arena pages per server process."""
        return self.footprint_pages // self.n_servers

    def _map_process(self, machine: Machine, pid: int, index: int):
        if index < self.n_servers:
            return {
                "code": machine.mmap(pid, self.code_pages, name="code"),
                "sessions": machine.mmap(
                    pid, self.session_pages_per_server, name="sessions"
                ),
            }
        return {"client": machine.mmap(pid, 16, name="client")}

    def _process_epoch(
        self,
        proc: ProcessContext,
        epoch_idx: int,
        n_accesses: int,
        out: StreamBuilder,
    ) -> None:
        intensity = _LOAD_WAVE[epoch_idx % len(_LOAD_WAVE)]
        n = max(16, int(n_accesses * intensity))
        if "code" not in proc.vmas:
            client = proc.vma("client")
            sweep = _client_sweep(client.npages, max(8, n // 8))
            out.add(client, sweep, pid=proc.pid, cpu=proc.cpu, ip=_IP_SESSION)
            return

        n_code = int(n * self.hot_fraction)
        n_session = n - n_code

        code = proc.vma("code")
        out.add(
            code, self._code_zipf.sample(out.rng, n_code),
            pid=proc.pid, cpu=proc.cpu, ip=_IP_CODE,
        )

        sessions = proc.vma("sessions")
        # Fresh session pages each epoch: a rotating window of the arena,
        # each page touched `session_touches` times then abandoned.
        n_fresh = max(1, n_session // self.session_touches)
        start = (epoch_idx * n_fresh) % sessions.npages
        fresh = (start + np.arange(n_fresh, dtype=np.int64)) % sessions.npages
        pages = np.repeat(fresh, self.session_touches)[:n_session]
        is_store = np.zeros(pages.size, dtype=bool)
        is_store[:: self.session_touches] = True  # first touch writes
        out.add(
            sessions, pages, pid=proc.pid, cpu=proc.cpu, is_store=is_store,
            ip=_IP_SESSION,
        )
