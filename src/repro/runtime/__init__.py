"""Real-process runtime: the natively-executable slice of Hermes.

- :mod:`repro.runtime.shm` — a genuine shared-memory Worker Status Table
  with seqlocked per-worker slots, usable across OS processes.
- :mod:`repro.runtime.echo` — real worker processes running the Fig.-9
  loop over real epoll and real TCP sockets, executing the same
  Algorithm-1 scheduler as the simulation.
- :mod:`repro.runtime.connector` — Algorithm-2 dispatch at the connection
  originator (the eBPF hook's stand-in; see DESIGN.md).
"""

from .._lazy import lazy_exports

__all__ = [
    "HashConnector",
    "HermesConnector",
    "RealWorkerPool",
    "RequestResult",
    "ReuseportProbeResult",
    "ShmSelectionMap",
    "ShmWorkerStatusTable",
    "probe_kernel_reuseport",
    "worker_main",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".connector": ("HashConnector", "HermesConnector", "RequestResult"),
    ".echo": ("RealWorkerPool", "worker_main"),
    ".reuseport_probe": ("ReuseportProbeResult", "probe_kernel_reuseport"),
    ".shm": ("ShmSelectionMap", "ShmWorkerStatusTable"),
})
