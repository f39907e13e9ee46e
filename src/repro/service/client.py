"""Client-side entry points of the mapping service.

Two ways in, one pricing contract:

* :class:`ServiceBackend` — an in-process
  :class:`~repro.eval.parallel.BatchBackend` that drains the persistent
  :class:`~repro.service.store.ResultStore` before pricing: candidates whose
  ``(scope, mapping_digest)`` key is already stored are answered from the
  store, only the misses are priced (inline, or through a wrapped inner
  backend such as :class:`~repro.eval.parallel.ProcessPoolBackend`), and newly
  priced vectors are written back.  It plugs into the ordinary ``backend=``
  seam of every evaluation context, so any search engine becomes
  store-accelerated without code changes.
* :class:`ServiceClient` / :class:`ServiceServer` — a small
  length-prefixed-pickle protocol over a Unix-domain socket, so external
  processes (the :mod:`tools.serve` CLI, long-running sweep scripts) can
  submit jobs to one resident :class:`~repro.service.daemon.MappingDaemon`
  and share its warm caches.

Stored vectors round-trip bit-exactly (see
:class:`~repro.service.store.ResultStore`), so a store hit is
indistinguishable from a recompute — the service's results are bit-identical
to :class:`~repro.eval.parallel.SerialBackend` whether a candidate was priced
this run, last run, or by another process.
"""

from __future__ import annotations

import pickle
import socket
import struct
import weakref
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TYPE_CHECKING,
)

from repro.eval.parallel import BatchBackend
from repro.service.store import ResultStore, mapping_digest, scope_for_context
from repro.utils.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - type-checking only, no runtime cycle
    from repro.service.daemon import MappingDaemon

#: Wire format: an 8-byte big-endian length prefix before each pickle frame.
_FRAME_HEADER = struct.Struct(">Q")

#: Upper bound on a single frame (guards against a corrupt length prefix).
_MAX_FRAME_BYTES = 1 << 31


def _send_frame(sock: socket.socket, payload: Any) -> None:
    """Send one length-prefixed pickle frame over *sock*."""
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(_FRAME_HEADER.pack(len(blob)) + blob)


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks: List[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionError(
                f"socket closed mid-frame ({remaining} of {count} bytes missing)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _recv_frame(sock: socket.socket) -> Any:
    """Receive one length-prefixed pickle frame from *sock*."""
    header = _recv_exact(sock, _FRAME_HEADER.size)
    (length,) = _FRAME_HEADER.unpack(header)
    if length > _MAX_FRAME_BYTES:
        raise ConnectionError(f"frame length {length} exceeds protocol bound")
    return pickle.loads(_recv_exact(sock, length))


class ServiceBackend(BatchBackend):
    """Store-draining batch backend: answer hits from the store, price misses.

    Wraps the ``backend=`` seam of
    :meth:`~repro.eval.context.EvaluationContext.evaluate_metrics_batch`:
    for each batch it digests the candidates, looks them up in the
    :class:`~repro.service.store.ResultStore`, prices only the misses
    (through *inner* when given, else inline via the context's own chunk
    pricer — the serial reference arithmetic) and persists what it priced.

    Parameters
    ----------
    store:
        The persistent result store to drain and refill.
    inner:
        Optional backend that prices the misses (e.g. a
        :class:`~repro.eval.parallel.ProcessPoolBackend`); ``None`` prices
        inline.

    Notes
    -----
    The per-context scope digest is cached in a ``WeakKeyDictionary``, so
    repeated batches from one context do not re-hash the workload.  The
    :attr:`priced` / :attr:`store_hits` counters let callers assert warm-path
    behaviour (a warm weight sweep must show a ``priced`` delta of zero).
    """

    name = "service"

    def __init__(
        self, store: ResultStore, inner: Optional[BatchBackend] = None
    ) -> None:
        self.store = store
        self.inner = inner
        #: Candidates actually priced (store misses), cumulative.
        self.priced = 0
        #: Candidates answered from the store, cumulative.
        self.store_hits = 0
        self._scopes: "weakref.WeakKeyDictionary[Any, str]" = (
            weakref.WeakKeyDictionary()
        )

    def _scope(self, context: Any) -> str:
        scope = self._scopes.get(context)
        if scope is None:
            scope = scope_for_context(context)
            self._scopes[context] = scope
        return scope

    def evaluate_metrics(
        self, context: Any, mappings: Sequence[Any]
    ) -> List[Any]:
        """Metric vectors of *mappings*: store hits + freshly priced misses.

        Store lookups and pricing both preserve submission order, and misses
        run the same chunk pricer as
        :class:`~repro.eval.parallel.SerialBackend`, so the returned vectors
        are bit-identical to a recompute regardless of the hit pattern.
        """
        items = list(mappings)
        if not items:
            return []
        scope = self._scope(context)
        digests = [mapping_digest(item) for item in items]
        cached = self.store.get_many(scope, digests)
        miss_positions = [i for i, vector in enumerate(cached) if vector is None]
        self.store_hits += len(items) - len(miss_positions)
        if miss_positions:
            misses = [items[i] for i in miss_positions]
            if self.inner is not None:
                priced = self.inner.evaluate_metrics(context, misses)
            else:
                priced = list(context._compute_metrics_chunk(misses))
            self.priced += len(misses)
            self.store.put_many(
                scope,
                [
                    (digests[position], vector)
                    for position, vector in zip(miss_positions, priced)
                ],
            )
            for position, vector in zip(miss_positions, priced):
                cached[position] = vector
        return cached

    def map(
        self, fn: Callable[..., Any], argslist: Sequence[Tuple[Any, ...]]
    ) -> List[Any]:
        """Delegate generic tasks to the inner backend (serial when none).

        Coarse-grained work (annealing restarts, route-table shards) has no
        store key, so the service adds nothing — it just forwards.
        """
        if self.inner is not None:
            return self.inner.map(fn, argslist)
        return super().map(fn, argslist)

    def close(self) -> None:
        """Close the wrapped inner backend, if any (the store stays usable)."""
        if self.inner is not None:
            self.inner.close()

    def __repr__(self) -> str:
        return (
            f"ServiceBackend(store={self.store!r}, inner={self.inner!r}, "
            f"hits={self.store_hits}, priced={self.priced})"
        )


class ServiceServer:
    """Unix-domain-socket front of a resident :class:`MappingDaemon`.

    Accepts connections on *path* and serves one request frame per
    connection: a dict with an ``"op"`` key (``ping``, ``submit``, ``poll``,
    ``result``, ``stats``, ``shutdown``) answered by a dict with an ``"ok"``
    boolean.  Each connection is handled on its own thread, so a slow
    ``result`` wait never blocks a ``submit``.

    Parameters
    ----------
    daemon:
        The resident daemon jobs are forwarded to.
    path:
        Filesystem path of the Unix socket (unlinked and re-bound on start).
    """

    def __init__(self, daemon: "MappingDaemon", path: str) -> None:
        import os
        import threading

        self.daemon = daemon
        self.path = path
        if os.path.exists(path):
            os.unlink(path)
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._listener.bind(path)
        self._listener.listen()
        self._running = True
        self._threads: List[threading.Thread] = []
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="service-accept", daemon=True
        )
        self._accept_thread.start()

    def _accept_loop(self) -> None:
        import threading

        while self._running:
            try:
                connection, _ = self._listener.accept()
            except OSError:
                break
            thread = threading.Thread(
                target=self._serve_connection,
                args=(connection,),
                name="service-conn",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def _serve_connection(self, connection: socket.socket) -> None:
        try:
            request = _recv_frame(connection)
            response = self._handle(request)
            _send_frame(connection, response)
        except (ConnectionError, EOFError, OSError):
            pass
        finally:
            connection.close()

    def _handle(self, request: Any) -> Dict[str, Any]:
        if not isinstance(request, dict) or "op" not in request:
            return {"ok": False, "error": "malformed request (no op)"}
        op = request["op"]
        try:
            if op == "ping":
                return {"ok": True, "pong": True}
            if op == "submit":
                job_id = self.daemon.submit(request["job"])
                return {"ok": True, "job_id": job_id}
            if op == "poll":
                return {"ok": True, "status": self.daemon.poll(request["job_id"])}
            if op == "result":
                result = self.daemon.result(
                    request["job_id"], timeout=request.get("timeout")
                )
                return {"ok": True, "result": result}
            if op == "stats":
                return {"ok": True, "stats": self.daemon.stats()}
            if op == "shutdown":
                self.stop()
                return {"ok": True}
            return {"ok": False, "error": f"unknown op {op!r}"}
        except Exception as exc:  # surfaced to the client, not the server log
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}

    def stop(self) -> None:
        """Stop accepting connections and unbind the socket (idempotent)."""
        import os

        if not self._running:
            return
        self._running = False
        try:
            self._listener.close()
        except OSError:
            pass
        try:
            os.unlink(self.path)
        except OSError:
            pass

    def __enter__(self) -> "ServiceServer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def __repr__(self) -> str:
        state = "listening" if self._running else "stopped"
        return f"ServiceServer(path={self.path!r}, {state})"


class ServiceClient:
    """Submit/poll/result access to a :class:`ServiceServer` socket.

    Connects per request (the protocol is one frame each way), so a client
    object is cheap, stateless and safe to share across threads.

    Parameters
    ----------
    path:
        Filesystem path of the server's Unix socket.
    timeout:
        Per-connection socket timeout in seconds (``None`` blocks forever —
        the default, since ``result`` legitimately waits for pricing).
    """

    def __init__(self, path: str, timeout: Optional[float] = None) -> None:
        self.path = path
        self.timeout = timeout

    def _request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            if self.timeout is not None:
                sock.settimeout(self.timeout)
            sock.connect(self.path)
            _send_frame(sock, payload)
            response = _recv_frame(sock)
        finally:
            sock.close()
        if not isinstance(response, dict):
            raise ConfigurationError(
                f"malformed service response: {response!r}"
            )
        if not response.get("ok"):
            raise ConfigurationError(
                f"service error: {response.get('error', 'unknown')}"
            )
        return response

    def ping(self) -> bool:
        """``True`` when the server answers (raises on connection failure)."""
        return bool(self._request({"op": "ping"}).get("pong"))

    def submit(self, job: Any) -> str:
        """Enqueue an :class:`~repro.service.daemon.EvalJob`; returns its id."""
        return self._request({"op": "submit", "job": job})["job_id"]

    def poll(self, job_id: str) -> str:
        """Job status: ``"pending"``, ``"running"``, ``"done"`` or ``"error"``."""
        return self._request({"op": "poll", "job_id": job_id})["status"]

    def result(self, job_id: str, timeout: Optional[float] = None) -> Any:
        """Block until the job finishes; returns its
        :class:`~repro.service.daemon.JobResult` (re-raising job errors)."""
        return self._request(
            {"op": "result", "job_id": job_id, "timeout": timeout}
        )["result"]

    def stats(self) -> Dict[str, Any]:
        """The daemon's live statistics snapshot."""
        return self._request({"op": "stats"})["stats"]

    def shutdown(self) -> None:
        """Ask the server to stop accepting connections."""
        self._request({"op": "shutdown"})

    def __repr__(self) -> str:
        return f"ServiceClient(path={self.path!r})"


__all__ = [
    "ServiceBackend",
    "ServiceClient",
    "ServiceServer",
]
