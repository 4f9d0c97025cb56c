"""Simulated sockets: listening sockets with accept queues, connection fds.

A :class:`ListeningSocket` owns the kernel accept queue for one bound port
(or one reuseport member socket).  Completed handshakes are enqueued here and
wake the socket's wait queue; userspace workers later ``accept()`` them.

A :class:`ConnSocket` is the file descriptor of an accepted connection.  Its
readiness reflects undelivered request events on the connection.

Both expose the polling interface epoll consumes: a ``wait_queue`` and a
``poll()`` method returning an event mask.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Optional

from .waitqueue import WaitQueue

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .tcp import Connection

__all__ = [
    "EPOLLIN",
    "EPOLLOUT",
    "EPOLLERR",
    "EPOLLHUP",
    "ListeningSocket",
    "ConnSocket",
    "SOMAXCONN",
]

EPOLLIN = 0x001
EPOLLOUT = 0x004
EPOLLERR = 0x008
EPOLLHUP = 0x010

#: Default accept-queue backlog (Linux's net.core.somaxconn since 5.4).
SOMAXCONN = 4096


class ListeningSocket:
    """A listening socket with its own accept queue.

    In shared mode (epoll exclusive), one such socket exists per port and
    every worker's epoll registers on its wait queue.  In reuseport mode,
    each worker owns a dedicated ``ListeningSocket`` in the port's reuseport
    group.
    """

    _next_id = 0

    def __init__(self, port: int, backlog: int = SOMAXCONN,
                 owner: Optional[object] = None,
                 rotate_on_wake: bool = False,
                 waiter_insertion: str = "head"):
        ListeningSocket._next_id += 1
        self.id = ListeningSocket._next_id
        self.port = port
        self.backlog = backlog
        #: The worker that owns this socket (reuseport mode), if dedicated.
        self.owner = owner
        self.wait_queue = WaitQueue(rotate_on_wake=rotate_on_wake,
                                    insertion=waiter_insertion)
        self.accept_queue: Deque["Connection"] = deque()
        self.closed = False
        # -- statistics ----------------------------------------------------
        self.total_enqueued = 0
        self.total_accepted = 0
        self.total_dropped = 0

    # -- kernel side -------------------------------------------------------
    def enqueue(self, connection: "Connection") -> bool:
        """Place a completed handshake on the accept queue and wake waiters.

        Returns False (and counts a drop) when the backlog is full — the
        SYN-flood / overloaded-worker overflow path.
        """
        if self.closed:
            self.total_dropped += 1
            return False
        if len(self.accept_queue) >= self.backlog:
            self.total_dropped += 1
            return False
        self.accept_queue.append(connection)
        connection.listen_socket = self
        self.total_enqueued += 1
        self.wait_queue.wake(key=EPOLLIN)
        return True

    # -- userspace side ------------------------------------------------------
    def accept(self) -> Optional["Connection"]:
        """Dequeue one pending connection, or None if the queue is empty.

        A None return models ``accept()`` hitting EAGAIN after an exclusive
        wakeup race (another worker drained the queue first).
        """
        if not self.accept_queue:
            return None
        self.total_accepted += 1
        return self.accept_queue.popleft()

    def poll(self) -> int:
        """Level-triggered readiness mask."""
        if self.closed:
            return EPOLLERR | EPOLLHUP
        return EPOLLIN if self.accept_queue else 0

    @property
    def queue_depth(self) -> int:
        return len(self.accept_queue)

    def close(self) -> None:
        """Close the socket; pending connections are dropped (RST path)."""
        self.closed = True
        while self.accept_queue:
            conn = self.accept_queue.popleft()
            conn.reset("listening socket closed")
        self.wait_queue.wake(key=EPOLLERR | EPOLLHUP)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ListeningSocket #{self.id} port={self.port} "
                f"depth={len(self.accept_queue)}>")


class ConnSocket:
    """File descriptor of an accepted connection.

    Readability is level-triggered on the count of undelivered events the
    connection holds (incoming request data, FIN, errors).  The owning
    worker's epoll instance registers a non-exclusive entry on
    ``wait_queue``.  The connection owns its fd and the fd holds no
    reference back, so a finished flow is freed by refcount.
    """

    _next_fd = 1000

    def __init__(self):
        ConnSocket._next_fd += 1
        self.fd = ConnSocket._next_fd
        self.wait_queue = WaitQueue()
        #: Number of readable events not yet returned to userspace.
        self._pending_events = 0
        self.error = False
        self.hangup = False
        self.closed = False

    def push_readable(self, count: int = 1) -> None:
        """Data arrived: raise readability and wake the owner's epoll."""
        if self.closed:
            return
        self._pending_events += count
        self.wait_queue.wake(key=EPOLLIN)

    def consume_readable(self, count: int = 1) -> None:
        """Userspace read some events off this fd."""
        self._pending_events = max(0, self._pending_events - count)

    def push_hangup(self) -> None:
        """Peer closed (FIN): the fd becomes readable with HUP."""
        if self.closed:
            return
        self.hangup = True
        self.wait_queue.wake(key=EPOLLIN | EPOLLHUP)

    def push_error(self) -> None:
        """Connection error (e.g. RST)."""
        if self.closed:
            return
        self.error = True
        self.wait_queue.wake(key=EPOLLERR)

    def poll(self) -> int:
        if self.closed:
            return 0
        mask = 0
        if self._pending_events > 0:
            mask |= EPOLLIN
        if self.hangup:
            mask |= EPOLLIN | EPOLLHUP
        if self.error:
            mask |= EPOLLERR
        return mask

    @property
    def pending_events(self) -> int:
        return self._pending_events

    def close(self) -> None:
        self.closed = True
        self._pending_events = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ConnSocket fd={self.fd} pending={self._pending_events}>"
