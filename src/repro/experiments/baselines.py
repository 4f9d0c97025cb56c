"""Every notification mode on identical traffic (beyond Table 3's three).

The repo implements every alternative the paper discusses: pre-4.5 epoll
(thundering herd), the never-merged epoll-roundrobin, io_uring's FIFO
wakeups (§8) and the §2.2 userspace dispatcher.  Two cells line them up:

- ``case3/medium`` runs all seven modes on the same low-CPS traffic;
- ``case1/heavy`` runs the userspace dispatcher against Hermes at high
  CPS, where the dedicated dispatcher core becomes the bottleneck.
"""

from __future__ import annotations

from typing import Any, Dict

from ..lb.server import NotificationMode
from .common import run_case_cell
from .registry import CellSpec, check_claims, lined_experiment

__all__ = ["ALL_MODES"]

ALL_MODES = (
    NotificationMode.HERD,
    NotificationMode.EXCLUSIVE,
    NotificationMode.EXCLUSIVE_RR,
    NotificationMode.IOURING_FIFO,
    NotificationMode.REUSEPORT,
    NotificationMode.USERSPACE_DISPATCHER,
    NotificationMode.HERMES,
)

#: (cell key, modes, traffic seconds at duration_scale 1).
_GRID = (
    ("case3/medium", ALL_MODES, 3.0),
    ("case1/heavy", (NotificationMode.USERSPACE_DISPATCHER,
                     NotificationMode.HERMES), 2.0),
)


def _cells(seed, overrides):
    n_workers = overrides.get("n_workers", 8)
    scale = overrides.get("duration_scale", 1.0)
    return tuple(
        CellSpec("baselines", key,
                 {"n_workers": n_workers, "duration": duration * scale,
                  "modes": [mode.value for mode in modes]}, seed)
        for key, modes, duration in _GRID)


def _run_cell(cell):
    p = cell.params
    case, load = cell.key.split("/")
    docs: Dict[str, Dict[str, Any]] = {}
    lines = [f"{cell.key}: identical traffic, {p['n_workers']} workers"]
    for mode in p["modes"]:
        result = run_case_cell(NotificationMode(mode), case, load,
                               n_workers=p["n_workers"],
                               duration=p["duration"], seed=cell.seed,
                               keep_server=True)
        doc = result.to_doc()
        # Worker 0 is the dispatcher core in USERSPACE_DISPATCHER mode.
        doc["worker0_busy"] = (result.server.workers[0].metrics.cpu
                               .busy_time() / p["duration"])
        docs[mode] = doc
        lines.append(f"  {mode:21s} avg {result.avg_ms:8.3f} ms  p99 "
                     f"{result.p99_ms:9.3f} ms  cpu SD "
                     f"{result.cpu_sd * 100:5.2f}%  accepted/worker "
                     f"{result.accepted_per_worker}")
    return {"modes": docs, "rendered": "\n".join(lines)}


def _concentrates(accepted) -> bool:
    return max(accepted) > 2 * (sum(accepted) / len(accepted))


def _all_modes(doc):
    modes = doc["modes"]
    best = min(d["avg_ms"] for d in modes.values())
    return (modes["hermes"]["avg_ms"] <= 1.25 * best,
            f"hermes {modes['hermes']['avg_ms']:.3f} ms vs best "
            f"{best:.3f} ms")


def _fixed_order(doc):
    accepted = {mode: doc["modes"][mode]["accepted_per_worker"]
                for mode in ("exclusive", "iouring_fifo")}
    return (all(_concentrates(a) for a in accepted.values()),
            f"accepted/worker {accepted}")


def _epoll_rr(doc):
    accepted = doc["modes"]["exclusive_rr"]["accepted_per_worker"]
    return (max(accepted) < 1.5 * (sum(accepted) / len(accepted)),
            f"accepted/worker {accepted}")


def _dispatcher_idle(doc):
    accepted = doc["modes"]["userspace_dispatcher"]["accepted_per_worker"]
    return accepted[0] == 0, f"worker 0 accepted {accepted[0]}"


def _dispatcher_melts(doc):
    dispatcher = doc["modes"]["userspace_dispatcher"]
    hermes = doc["modes"]["hermes"]
    return (dispatcher["worker0_busy"] > 0.35
            and hermes["completed"] >= dispatcher["completed"]
            and hermes["p99_ms"] < dispatcher["p99_ms"],
            f"dispatcher core {dispatcher['worker0_busy']:.0%} busy; p99 "
            f"{dispatcher['p99_ms']:.1f} vs hermes {hermes['p99_ms']:.1f} "
            f"ms; completed {dispatcher['completed']} vs "
            f"{hermes['completed']}")


def _claims(merged):
    return check_claims(merged["cells"], (
        ("hermes_avg_within_1.25x_best_mode", ["case3/medium"],
         _all_modes),
        ("fixed_order_wakeups_concentrate_accepts", ["case3/medium"],
         _fixed_order),
        ("epoll_rr_balances_accepts", ["case3/medium"], _epoll_rr),
        ("dispatcher_worker_never_processes", ["case3/medium"],
         _dispatcher_idle),
        ("dispatcher_core_melts_at_high_cps", ["case1/heavy"],
         _dispatcher_melts),
    ))


lined_experiment("baselines", "Every notification mode on identical traffic",
                 _cells, _run_cell, default_seed=11, claims=_claims,
                 tunables={"n_workers": "workers behind every device",
                           "duration_scale": "multiplier on each cell's "
                                             "traffic duration"})
