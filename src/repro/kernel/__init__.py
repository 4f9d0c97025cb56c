"""Simulated Linux kernel substrate.

Faithful-in-behaviour models of the kernel mechanisms the paper builds on:
wait queues with exclusive/LIFO/roundrobin wakeups, epoll instances, accept
queues, SO_REUSEPORT groups with the eBPF selection hook, flow hashing, and
NIC RSS.
"""

from .._lazy import lazy_exports

__all__ = [
    "Connection",
    "ConnSocket",
    "ConnState",
    "EPOLLERR",
    "EPOLLHUP",
    "EPOLLIN",
    "EPOLLOUT",
    "Epoll",
    "EpollEvent",
    "FourTuple",
    "ListeningSocket",
    "MAX_EVENTS",
    "NetStack",
    "Nic",
    "PortBinding",
    "ReuseportContext",
    "ReuseportGroup",
    "RssPlusPlusBalancer",
    "Request",
    "SOMAXCONN",
    "WaitEntry",
    "WaitPolicy",
    "WaitQueue",
    "jhash_4tuple",
    "jhash_words",
    "reciprocal_scale",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".epoll": ("MAX_EVENTS", "Epoll", "EpollEvent"),
    ".hash": ("FourTuple", "jhash_4tuple", "jhash_words", "reciprocal_scale"),
    ".nic": ("Nic", "RssPlusPlusBalancer"),
    ".reuseport": ("ReuseportContext", "ReuseportGroup"),
    ".socket": ("EPOLLERR", "EPOLLHUP", "EPOLLIN", "EPOLLOUT", "SOMAXCONN",
                "ConnSocket", "ListeningSocket"),
    ".tcp": ("Connection", "ConnState", "NetStack", "PortBinding", "Request"),
    ".waitqueue": ("WaitEntry", "WaitPolicy", "WaitQueue"),
})
