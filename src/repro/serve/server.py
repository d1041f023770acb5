"""Unix-socket JSON serving: share one PIC model across processes.

Parallel campaign workers (and unrelated campaigns on one machine) each
loading a private ``PICModel`` wastes memory and — worse — splits the
prediction cache into per-process shards that never share hits. This
module hosts one :class:`~repro.serve.backend.InProcessServer` behind a
Unix domain socket; any number of client processes attach a
:class:`SocketBackend`, which speaks the same predictor surface the
scoring layer already consumes.

Wire protocol (deliberately stdlib-only):

- **Framing**: each message is a 4-byte big-endian length followed by
  that many bytes of UTF-8 JSON. One connection carries any number of
  request/response pairs, in order.
- **Ops**: ``predict_batch`` (the workhorse), ``status`` (stats +
  model identity), ``metrics``, ``swap``, ``ping``, and ``shutdown``.
- **``predict_batch`` is digest-addressed** (layout in
  ``docs/SERVING.md``): candidates of one CTI differ only in their
  schedule, so a frame names each template by its
  :func:`~repro.serve.digest.template_digest` and sends per graph its
  :func:`~repro.serve.digest.graph_digest` plus the schedule delta
  (hints, non-zero hint flags, ``EDGE_SCHEDULE`` rows). The server
  answers cache hits by digest without building a graph and
  materialises misses from a bounded table of *interned* templates, so
  every frame of a CTI — from any client — shares one set of arrays
  and one ``base_cache``.
- **``need_templates``**: a frame naming a template the server does not
  hold is refused whole, before any cache lookup or accounting; the
  client resends it once with those arrays under ``bodies``.
- **Never trusted**: a body must pass range checks and hash to the
  digest it is sent under before it is interned; every materialised
  miss is range-checked and its digest recomputed — nothing is cached
  under a digest the server did not reproduce.
- **Exactness**: a reply carries every probability as raw little-endian
  float64 bytes — one base64 string, the graphs' arrays back to back in
  request order — which the client splits by the ``num_nodes`` of the
  graphs it sent. Served predictions are byte-equal to local ones by
  construction; a payload of the wrong length is a protocol error.

Malformed frames raise :class:`~repro.errors.ProtocolError`;
server-side failures come back as ``{"ok": false, ...}`` and re-raise
client-side as :class:`~repro.errors.ServeError`.
"""

from __future__ import annotations

import base64
import contextlib
import functools
import json
import os
import socket
import socketserver
import struct
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Collection, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.errors import ProtocolError, ServeError
from repro.execution.concurrent import ScheduleHint
from repro.graphs.ctgraph import (
    EDGE_SCHEDULE,
    NUM_EDGE_TYPES,
    NUM_HINT_FLAGS,
    NUM_NODE_TYPES,
    CTGraph,
    CTIGraphTemplate,
)
from repro.obs.export import render_prometheus, snapshot_from_stats
from repro.obs.flight import active_recorder
from repro.obs.propagation import TraceContext, current_context
from repro.serve.backend import GraphItem, InProcessServer, PredictionBackend
from repro.serve.cache import DEFAULT_CACHE_BYTES
from repro.serve.digest import graph_digest, template_digest

__all__ = [
    "ServerConfig",
    "PredictionServer",
    "SocketBackend",
    "serve_forever",
    "probe_socket",
    "encode_graphs",
    "decode_graphs",
]

#: Upper bound on one frame; a request larger than this is a protocol
#: violation, not a workload we try to serve.
MAX_FRAME_BYTES = 256 * 1024 * 1024

_LENGTH = struct.Struct(">I")


# -- framing -----------------------------------------------------------------


def _read_exact(rfile, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = rfile.read(remaining)
        if not chunk:
            raise EOFError
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(rfile) -> dict:
    """One length-prefixed JSON message, or raise ``EOFError`` at EOF."""
    header = rfile.read(_LENGTH.size)
    if not header:
        raise EOFError
    if len(header) < _LENGTH.size:
        header += _read_exact(rfile, _LENGTH.size - len(header))
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    body = _read_exact(rfile, length)
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"undecodable frame: {error}") from None
    if not isinstance(payload, dict):
        raise ProtocolError("frame payload must be a JSON object")
    return payload


def write_frame(wfile, payload: dict) -> None:
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(f"refusing to send a {len(body)}-byte frame")
    wfile.write(_LENGTH.pack(len(body)) + body)
    wfile.flush()


# -- graph (de)serialisation -------------------------------------------------

#: Interned templates a server holds (LRU); the PIC model's encoder
#: cache holds as many, so an interned template is normally still warm.
_INTERN_CAP = 32

_MALFORMED = (KeyError, TypeError, ValueError, IndexError, OverflowError)


def _encode_template(graph: CTGraph) -> dict:
    return {
        "kernel_version": graph.kernel_version,
        "cti_key": list(graph.cti_key),
        "node_types": graph.node_types.tolist(),
        "node_threads": graph.node_threads.tolist(),
        "node_blocks": graph.node_blocks.tolist(),
        "token_ids": graph.token_ids.tolist(),
        "base_edges": graph.edges[graph.edges[:, 2] != EDGE_SCHEDULE].tolist(),
    }


def encode_graphs(
    graphs: Sequence[CTGraph], bodies: Optional[Collection[str]] = None
) -> dict:
    """Digest-addressed wire form of a batch of CT graphs.

    ``bodies`` names the templates whose arrays ride along; ``None``
    attaches every one, which makes the payload self-contained.
    """
    positions: Dict[str, int] = {}
    firsts: List[CTGraph] = []
    encoded: List[dict] = []
    for graph in graphs:
        name = template_digest(graph)
        if name not in positions:
            positions[name] = len(firsts)
            firsts.append(graph)
        hinted = np.flatnonzero(graph.hint_flags)
        encoded.append(
            {
                "t": positions[name],
                "digest": graph_digest(graph),
                "hints": [[hint.thread, hint.iid] for hint in graph.hints],
                "flags": [hinted.tolist(), graph.hint_flags[hinted].tolist()],
                "schedule": graph.schedule_rows[:, :2].tolist(),
            }
        )
    payload = {"templates": list(positions), "graphs": encoded}
    attached = {
        name: _encode_template(graph)
        for name, graph in zip(positions, firsts)
        if bodies is None or name in bodies
    }
    if attached:
        payload["bodies"] = attached
    return payload


def _int_array(values, shape: Tuple[int, ...]) -> np.ndarray:
    return np.asarray(values, dtype=np.int64).reshape(shape)


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise ValueError(what)


def _within(array: np.ndarray, bound: int) -> bool:
    return array.size == 0 or (array.min() >= 0 and array.max() < bound)


def _stamp(template: CTIGraphTemplate, encoded: dict) -> CTGraph:
    """One graph from an interned template plus a wire schedule delta."""
    n = template.num_nodes
    nodes, values = encoded["flags"]
    nodes, values = _int_array(nodes, (-1,)), _int_array(values, (-1,))
    _require(nodes.shape == values.shape, "hint flag lists differ in length")
    _require(_within(nodes, n), "hint flag node out of range")
    _require(_within(values, NUM_HINT_FLAGS), "hint flag out of range")
    hint_flags = np.zeros(n, dtype=np.int64)
    hint_flags[nodes] = values
    schedule = _int_array(encoded["schedule"], (-1, 2))
    _require(_within(schedule, n), "schedule edge endpoint out of range")
    hints = [
        ScheduleHint(thread=int(thread), iid=int(iid))
        for thread, iid in encoded["hints"]
    ]
    rows = np.insert(schedule, 2, EDGE_SCHEDULE, axis=1)
    return template.stamp(hints, rows, hint_flags)


def _materialise(template: CTIGraphTemplate, encoded: dict) -> CTGraph:
    """Build and verify one graph; the claimed digest is never trusted."""
    try:
        graph = _stamp(template, encoded)
    except _MALFORMED as error:
        raise ProtocolError(f"malformed graph payload: {error}") from None
    if graph_digest(graph) != encoded["digest"]:
        raise ProtocolError("graph content does not match its digest")
    return graph


def _decode_template(
    name: str, body: dict, vocab_size: Optional[int]
) -> CTIGraphTemplate:
    """Validate one template body and check it hashes to ``name``."""
    node_types = _int_array(body["node_types"], (-1,))
    n = len(node_types)
    token_ids = np.asarray(body["token_ids"], dtype=np.int64)
    _require(token_ids.ndim == 2 and len(token_ids) == n, "token table shape")
    base_edges = _int_array(body["base_edges"], (-1, 3))
    _require(_within(node_types, NUM_NODE_TYPES), "node type out of range")
    _require(_within(base_edges[:, :2], n), "edge endpoint out of range")
    _require(_within(base_edges[:, 2], NUM_EDGE_TYPES), "edge type out of range")
    _require(
        not (base_edges[:, 2] == EDGE_SCHEDULE).any(),
        "schedule edge in a template body",
    )
    if vocab_size:  # None or 0: the caller knows no vocabulary bound
        _require(_within(token_ids, vocab_size), "token id out of range")
    template = CTIGraphTemplate(
        kernel_version=str(body["kernel_version"]),
        cti_key=tuple(body["cti_key"]),
        node_types=node_types,
        node_threads=_int_array(body["node_threads"], (n,)),
        node_blocks=_int_array(body["node_blocks"], (n,)),
        token_ids=token_ids,
        base_edges=base_edges,
        node_index={},
        first_blocks=(),
    )
    probe = _stamp(template, {"flags": [[], []], "schedule": [], "hints": []})
    _require(
        template_digest(probe) == name, "template body does not match its digest"
    )
    return template


class _TemplateTable:
    """Bounded LRU of interned templates, keyed by template digest.

    Graphs materialised from one entry share its arrays and
    ``sparse_cache``: the model's base-feature cache, the GNN batch plans
    and the digest memo are reused across frames and across clients.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, CTIGraphTemplate]" = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def resolve(
        self, names: Sequence[str], bodies: dict, vocab_size: Optional[int]
    ) -> Tuple[List[CTIGraphTemplate], List[str]]:
        """``(templates, missing names)``; an unknown name is interned
        from its body if the frame carries one, after verification."""
        resolved: List[CTIGraphTemplate] = []
        missing: List[str] = []
        for name in names:
            with self._lock:
                template = self._entries.get(name)
                if template is not None:
                    self._entries.move_to_end(name)
            if template is None and name in bodies:
                # Decoded outside the lock; a concurrent intern of the
                # same name wins and this copy is dropped.
                decoded = _decode_template(name, bodies[name], vocab_size)
                with self._lock:
                    template = self._entries.setdefault(name, decoded)
                    while len(self._entries) > _INTERN_CAP:
                        self._entries.popitem(last=False)
            if template is None:
                missing.append(name)
            resolved.append(template)
        return resolved, missing


def _wire_items(
    payload: dict, table: _TemplateTable, vocab_size: Optional[int]
) -> Tuple[List[GraphItem], List[str]]:
    """``(items, missing templates)`` of one ``predict_batch`` frame."""
    try:
        templates, missing = table.resolve(
            payload["templates"], payload.get("bodies") or {}, vocab_size
        )
        if missing:
            return [], missing
        items: List[GraphItem] = []
        for encoded in payload["graphs"]:
            position = encoded["t"]
            _require(0 <= position < len(templates), "template index out of range")
            items.append(
                (
                    str(encoded["digest"]),
                    functools.partial(_materialise, templates[position], encoded),
                )
            )
        return items, []
    except _MALFORMED as error:
        raise ProtocolError(f"malformed graph payload: {error}") from None


def decode_graphs(payload: dict, vocab_size: Optional[int] = None) -> List[CTGraph]:
    """Rebuild a self-contained payload's graphs, verified against their
    digests and sharing arrays (and a GNN base cache) per template."""
    items, missing = _wire_items(payload, _TemplateTable(), vocab_size)
    if missing:
        raise ProtocolError(f"payload carries no body for templates {missing}")
    return [materialise() for _digest, materialise in items]


def _pack_probas(probas: Sequence[np.ndarray]) -> str:
    """A reply's probabilities: raw little-endian float64, base64."""
    raw = b"".join(proba.astype("<f8", copy=False).tobytes() for proba in probas)
    return base64.b64encode(raw).decode("ascii")


def _unpack_probas(response: dict, sizes: Sequence[int]) -> List[np.ndarray]:
    """Split a reply's float64 bytes by the node counts of the graphs sent."""
    packed = response.get("probas_f64le")
    if not isinstance(packed, str):
        raise ProtocolError("server refused a frame that carried its templates")
    try:
        raw = base64.b64decode(packed, validate=True)
    except ValueError as error:  # binascii.Error, or a non-ASCII string
        raise ProtocolError(f"undecodable probabilities: {error}") from None
    if len(raw) != 8 * sum(sizes):
        raise ProtocolError(
            f"server returned {len(raw)} probability bytes for {sum(sizes)} nodes"
        )
    flat = np.frombuffer(raw, dtype="<f8").astype(np.float64)  # owned, writable
    return np.split(flat, np.cumsum(sizes)[:-1])


# -- the server --------------------------------------------------------------


@dataclass(frozen=True)
class ServerConfig:
    """Socket-server knobs (CLI: ``repro serve``)."""

    socket_path: str
    cache_bytes: int = DEFAULT_CACHE_BYTES
    #: Serve calls slower than this land in the flight recorder's
    #: slow-request log (``None`` disables; CLI: ``--slow-request-ms``).
    slow_request_ms: Optional[float] = None
    #: Batched-inference dtype for the hosted model: "float64" (exact,
    #: default) or "float32" (CLI: ``--infer-dtype``).
    infer_dtype: str = "float64"


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        prediction_server: "PredictionServer" = self.server.prediction_server
        prediction_server._track(self.connection)
        try:
            self._serve_connection(prediction_server)
        finally:
            prediction_server._untrack(self.connection)

    def _serve_connection(self, prediction_server: "PredictionServer") -> None:
        while True:
            try:
                request = read_frame(self.rfile)
            except EOFError:
                return
            except ProtocolError as error:
                try:
                    write_frame(
                        self.wfile,
                        {"ok": False, "kind": "ProtocolError", "error": str(error)},
                    )
                except OSError:
                    pass
                return
            try:
                response = prediction_server.dispatch(request)
            except Exception as error:  # per-request fault isolation
                response = {
                    "ok": False,
                    "kind": type(error).__name__,
                    "error": str(error),
                }
            try:
                write_frame(self.wfile, response)
            except OSError:
                return


def probe_socket(path: str, timeout: float = 1.0) -> str:
    """Classify a serving socket path without sending a request.

    Returns ``"live"`` (something accepted a connection), ``"dead"``
    (the file exists but nothing is listening — a SIGKILLed server's
    leftover), or ``"absent"``. The distinction is what lets ``serve
    start`` reclaim a stale socket without ever stealing a live one,
    and ``serve stop`` succeed when there is nothing left to stop.
    """
    if not os.path.exists(path):
        return "absent"
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    probe.settimeout(timeout)
    try:
        probe.connect(path)
    except OSError:
        return "dead"
    else:
        return "live"
    finally:
        try:
            probe.close()
        except OSError:
            pass


class _UnixServer(socketserver.ThreadingMixIn, socketserver.UnixStreamServer):
    daemon_threads = True
    allow_reuse_address = True


class PredictionServer:
    """An :class:`InProcessServer` exposed on a Unix domain socket."""

    def __init__(
        self,
        model,
        config: ServerConfig,
        version: str = "v0",
        registry=None,
        model_registry=None,
        model_seed: int = 0,
    ) -> None:
        self.config = config
        #: Explicit registry for the server's own spans; ``None`` uses
        #: the process-global one (separate-process deployment). Tests
        #: that host client and server in one process inject distinct
        #: registries to get distinct trace files.
        self._registry = registry
        #: The :class:`~repro.serve.registry.ModelRegistry` the server
        #: was started from, if any — what the ``swap`` op loads new
        #: versions out of. ``model_seed`` is threaded through every
        #: registry load so a swapped-in model is byte-identical to the
        #: published one regardless of the registry's default seed.
        self._model_registry = model_registry
        self._model_seed = int(model_seed)
        self._started_monotonic = time.monotonic()
        path = config.socket_path
        state = probe_socket(path)
        if state == "live":
            raise ServeError(
                f"a prediction server is already listening on {path}; "
                "stop it first or choose another socket"
            )
        if state == "dead":
            os.unlink(path)  # leftover socket from a SIGKILLed server
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        self._server = _UnixServer(path, _Handler)
        if config.infer_dtype != "float64" and hasattr(model, "set_inference_mode"):
            model.set_inference_mode(config.infer_dtype)
        self.backend = InProcessServer(
            model, version=version, cache_bytes=config.cache_bytes, registry=registry
        )
        self._server.prediction_server = self
        self._thread: Optional[threading.Thread] = None
        self._connections: set = set()
        self._connections_lock = threading.Lock()
        self._templates = _TemplateTable()

    def _track(self, connection) -> None:
        with self._connections_lock:
            self._connections.add(connection)

    def _untrack(self, connection) -> None:
        with self._connections_lock:
            self._connections.discard(connection)

    # -- request dispatch ----------------------------------------------------

    def _obs(self):
        registry = self._registry
        return registry if registry is not None else obs.active()

    def dispatch(self, request: dict) -> dict:
        """One request → one response, under the caller's trace context.

        A ``trace`` field on the frame (see
        :mod:`repro.obs.propagation`) makes every server-side span of
        this request carry the caller's trace id, with the root span
        recording its cross-process parent — the hook ``repro report
        --merge`` uses to stitch the two files. Malformed or absent
        context degrades to an independent server-side trace.
        """
        registry = self._obs()
        context = (
            TraceContext.from_wire(request.get("trace"))
            if registry is not None
            else None
        )
        if context is not None:
            with registry.remote_context(context):
                return self._dispatch(request, registry)
        return self._dispatch(request, registry)

    def _dispatch(self, request: dict, registry) -> dict:
        op = request.get("op")
        if op == "predict_batch":
            # Only a frame that brings template bodies needs the vocab
            # bound; steady-state frames skip the stats call.
            vocab_size = (
                self.backend.stats()["vocab_size"] if request.get("bodies") else None
            )
            items, missing = _wire_items(request, self._templates, vocab_size)
            if missing:
                # Refused whole, before any cache lookup or request
                # accounting: the client resends with these bodies.
                return {"ok": True, "need_templates": missing}
            recorder = active_recorder()
            slow_ms = self.config.slow_request_ms
            timing = registry is not None or (
                recorder is not None and slow_ms is not None
            )
            started = time.monotonic() if timing else 0.0
            # The versioned call pins the version that actually scored
            # this batch — reading backend.version afterwards could tag
            # old predictions with a concurrently swapped-in version.
            span = (
                registry.span("serve.request", op=op, graphs=len(items))
                if registry is not None
                else contextlib.nullcontext()
            )
            with span:
                batch_version, probas = self.backend.predict_items_versioned(items)
            if timing:
                elapsed = time.monotonic() - started
                if registry is not None:
                    registry.histogram("serve.request.seconds").observe(elapsed)
                if (
                    recorder is not None
                    and slow_ms is not None
                    and elapsed * 1000.0 >= slow_ms
                ):
                    recorder.note_slow(op, elapsed, graphs=len(items))
            return {
                "ok": True,
                "version": batch_version,
                "probas_f64le": _pack_probas(probas),
            }
        if op == "status":
            status = self.backend.stats()
            status["socket"] = self.config.socket_path
            status["uptime_seconds"] = round(
                time.monotonic() - self._started_monotonic, 3
            )
            return {"ok": True, "status": status}
        if op == "metrics":
            snapshot = (
                registry.snapshot()
                if registry is not None
                else snapshot_from_stats(self.backend.stats())
            )
            return {
                "ok": True,
                "snapshot": snapshot,
                "exposition": render_prometheus(snapshot),
            }
        if op == "swap":
            # Hot-swap the served model to a registry version (the
            # continuous-learning promotion path). The manifest is
            # re-read first: the promoting process publishes out-of-band
            # and this server's in-memory registry view is stale.
            if self._model_registry is None:
                raise ServeError(
                    "server was not started from a model registry; "
                    "cannot hot-swap"
                )
            self._model_registry.refresh()
            version = request.get("version")
            if version is None:
                version = self._model_registry.active_version
            if version is None:
                raise ServeError(
                    "registry has no active model version to swap to"
                )
            version = str(version)
            previous = self.backend.version
            if version == previous:
                return {
                    "ok": True,
                    "version": version,
                    "previous": previous,
                    "swapped": False,
                }
            model = self._model_registry.load(version, seed=self._model_seed)
            if self.config.infer_dtype != "float64" and hasattr(
                model, "set_inference_mode"
            ):
                model.set_inference_mode(self.config.infer_dtype)
            self.backend.swap_model(model, version)
            # Interned templates were validated against the old model's
            # vocabulary; clients re-send bodies on their next frame.
            self._templates.clear()
            return {
                "ok": True,
                "version": version,
                "previous": previous,
                "swapped": True,
            }
        if op == "ping":
            return {"ok": True}
        if op == "shutdown":
            # shutdown() must come from outside the serve_forever loop and
            # only after this response is written; a helper thread does both.
            threading.Thread(target=self._server.shutdown, daemon=True).start()
            return {"ok": True, "stopping": True}
        raise ProtocolError(f"unknown op {op!r}")

    # -- lifecycle -----------------------------------------------------------

    def serve_forever(self) -> None:
        """Block serving requests until :meth:`stop` or a shutdown op."""
        registry = self._obs()
        if registry is not None:
            registry.point("serve.listen", socket=self.config.socket_path)
        try:
            self._server.serve_forever(poll_interval=0.1)
        finally:
            self._cleanup()

    def start(self) -> "PredictionServer":
        """Serve on a background thread (tests and in-process embedding)."""
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-serve-socket", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def _cleanup(self) -> None:
        self._server.server_close()
        # Sever established connections too: handler threads otherwise
        # outlive the server, and clients would keep talking to a ghost
        # instead of reconnecting to a replacement.
        with self._connections_lock:
            connections = list(self._connections)
            self._connections.clear()
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                connection.close()
            except OSError:
                pass
        self.backend.close()
        try:
            os.unlink(self.config.socket_path)
        except OSError:
            pass


def serve_forever(
    model,
    config: ServerConfig,
    version: str = "v0",
    model_registry=None,
    model_seed: int = 0,
) -> None:
    """Host ``model`` on ``config.socket_path`` until interrupted."""
    server = PredictionServer(
        model,
        config,
        version=version,
        model_registry=model_registry,
        model_seed=model_seed,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.stop()


# -- the client --------------------------------------------------------------


class SocketBackend(PredictionBackend):
    """Client half of the pair: the predictor surface over a socket.

    One connection, guarded by a lock (requests from concurrent threads
    serialise client-side; the server serves each connection on its own
    thread, so parallelism should come from multiple workers each owning
    a backend). Model identity (threshold, version, vocab size) is
    fetched once from ``status`` and cached.

    Transport failures are classified: a connect refusal, a mid-request
    drop, or an EOF is *transient* — every request is idempotent, so the
    whole request is resent after exponential backoff, reconnecting as
    needed (``retries`` attempts beyond the first; ``serve.reconnects``
    counts successful reconnections). A server-side ``ok: false``
    response or a malformed frame is *fatal* and raises immediately.
    ``circuit_threshold`` consecutive transport failures open a circuit
    breaker: until ``circuit_cooldown_seconds`` elapse, requests fail
    fast (``serve.circuit_open`` counts openings) instead of hammering a
    server that is clearly down; the first request after the cooldown is
    the half-open probe that closes the circuit on success.
    """

    def __init__(
        self,
        socket_path: str,
        timeout: float = 60.0,
        retries: int = 2,
        backoff_seconds: float = 0.05,
        circuit_threshold: int = 5,
        circuit_cooldown_seconds: float = 1.0,
    ) -> None:
        self.socket_path = socket_path
        self._lock = threading.Lock()
        self._sock: Optional[socket.socket] = None
        self._rfile = None
        self._wfile = None
        self._timeout = timeout
        self._identity: Optional[dict] = None
        self._retries = max(0, int(retries))
        self._backoff = max(0.0, float(backoff_seconds))
        self._circuit_threshold = max(1, int(circuit_threshold))
        self._circuit_cooldown = max(0.0, float(circuit_cooldown_seconds))
        self._consecutive_failures = 0
        self._circuit_open_until: Optional[float] = None
        self._ever_connected = False
        #: Successful reconnections after a lost connection (operational
        #: counter, mirrored to ``serve.reconnects``).
        self.reconnects = 0
        #: Circuit-breaker openings (mirrored to ``serve.circuit_open``).
        self.circuit_opens = 0
        #: Version tag the server attached to the most recent
        #: ``predict_batch`` response — how explorers notice a hot-swap
        #: boundary (``None`` until the first prediction).
        self.observed_version: Optional[str] = None

    # -- connection management ----------------------------------------------

    def _connect(self) -> None:
        """Ensure a live connection; raises ``OSError`` (transient)."""
        if self._sock is not None:
            return
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self._timeout)
        try:
            sock.connect(self.socket_path)
        except OSError:
            sock.close()
            raise
        self._sock = sock
        self._rfile = sock.makefile("rb")
        self._wfile = sock.makefile("wb")
        # A reconnect is any successful connect that had to recover:
        # the connection existed before and was lost, or earlier
        # attempts failed (server down at first contact, then back).
        if self._ever_connected or self._consecutive_failures > 0:
            self.reconnects += 1
            obs.add("serve.reconnects")
        self._ever_connected = True

    def _record_transport_failure(self) -> None:
        self._consecutive_failures += 1
        if self._consecutive_failures >= self._circuit_threshold:
            self._circuit_open_until = (
                time.monotonic() + self._circuit_cooldown
            )
            self.circuit_opens += 1
            obs.add("serve.circuit_open")

    def _exchange(self, payload: dict) -> dict:
        """One request/response over the socket, retrying transient
        transport failures; caller holds the lock."""
        now = time.monotonic()
        if self._circuit_open_until is not None and now < self._circuit_open_until:
            obs.add("serve.circuit_rejected")
            raise ServeError(
                f"cannot reach prediction server at {self.socket_path}: "
                f"circuit open after {self._consecutive_failures} "
                "consecutive connection failures (cooling down)"
            )
        last_error: Optional[BaseException] = None
        for attempt in range(self._retries + 1):
            if attempt:
                time.sleep(self._backoff * (2 ** (attempt - 1)))
            try:
                self._connect()
                write_frame(self._wfile, payload)
                response = read_frame(self._rfile)
            except (OSError, EOFError) as error:
                self._teardown()
                last_error = error
                self._record_transport_failure()
                continue
            except ProtocolError:
                # An oversize or undecodable frame leaves its body unread
                # on the stream; a kept connection would parse payload
                # bytes as the next length header.
                self._teardown()
                raise
            # Success closes the circuit (this was the half-open probe
            # if one was pending).
            self._consecutive_failures = 0
            self._circuit_open_until = None
            return response
        raise ServeError(
            f"cannot reach prediction server at {self.socket_path} after "
            f"{self._retries + 1} attempts: {last_error}"
        ) from None

    def _request(self, payload: dict) -> dict:
        # Attach the caller's trace context only when telemetry is on —
        # with it off the frame (and therefore the wire) is byte-for-byte
        # what a telemetry-free build sends.
        context = current_context()
        if context is not None:
            payload["trace"] = context.to_wire()
        with self._lock:
            response = self._exchange(payload)
        if not response.get("ok"):
            # Fatal: the server answered, and the answer is an error —
            # retrying would re-earn the same refusal.
            raise ServeError(
                f"server error ({response.get('kind', 'unknown')}): "
                f"{response.get('error', 'no detail')}"
            )
        return response

    def _teardown(self) -> None:
        for handle in (self._rfile, self._wfile, self._sock):
            if handle is not None:
                try:
                    handle.close()
                except OSError:
                    pass
        self._sock = self._rfile = self._wfile = None

    def close(self) -> None:
        with self._lock:
            self._teardown()

    # -- the predictor surface -----------------------------------------------

    def _fetch_identity(self) -> dict:
        if self._identity is None:
            self._identity = self._request({"op": "status"})["status"]
        return self._identity

    @property
    def threshold(self) -> float:
        return float(self._fetch_identity()["threshold"])

    @property
    def version(self) -> str:
        return str(self._fetch_identity()["version"])

    def predict_proba_batch(self, graphs: Sequence[CTGraph]) -> List[np.ndarray]:
        graphs = list(graphs)
        if not graphs:
            return []
        # The serve.call span is open while _request reads the current
        # context, so the server parents its spans under this exact call.
        with obs.span("serve.call", op="predict_batch", graphs=len(graphs)):
            # Optimistically name templates only; a server that does not
            # hold one (first frame of a CTI, eviction, restart) refuses
            # the frame and gets it again with those bodies attached.
            response = self._request(
                {"op": "predict_batch", **encode_graphs(graphs, bodies=())}
            )
            needed = response.get("need_templates")
            if needed:
                response = self._request(
                    {"op": "predict_batch", **encode_graphs(graphs, bodies=needed)}
                )
        try:
            probas = _unpack_probas(response, [graph.num_nodes for graph in graphs])
        except ProtocolError:
            self.close()  # the next request starts on a fresh stream
            raise
        served = response.get("version")
        if served is not None:
            self.observed_version = str(served)
        return probas

    # -- service management --------------------------------------------------

    def ping(self) -> bool:
        try:
            return bool(self._request({"op": "ping"})["ok"])
        except ServeError:
            return False

    def status(self) -> dict:
        """Live server stats (never the cached identity)."""
        status = self._request({"op": "status"})["status"]
        self._identity = status
        return status

    def swap(self, version: Optional[str] = None) -> dict:
        """Ask the server to hot-swap to a registry version.

        ``None`` swaps to whatever the registry manifest currently
        names as active (the promotion path: publish first, then tell
        every server to catch up). Returns the server's
        ``{version, previous, swapped}`` response; the cached identity
        is invalidated so the next ``threshold``/``version`` read
        reflects the new model.
        """
        payload: Dict[str, object] = {"op": "swap"}
        if version is not None:
            payload["version"] = version
        response = self._request(payload)
        self._identity = None
        return {
            "version": str(response["version"]),
            "previous": str(response["previous"]),
            "swapped": bool(response["swapped"]),
        }

    def metrics(self) -> dict:
        """The server's metrics snapshot + Prometheus exposition text."""
        response = self._request({"op": "metrics"})
        return {
            "snapshot": response.get("snapshot") or {},
            "exposition": response.get("exposition") or "",
        }

    def shutdown(self) -> None:
        try:
            self._request({"op": "shutdown"})
        except ServeError:
            # The server tears down established connections as part of
            # stopping, and that teardown can race the shutdown reply —
            # the ack is lost but the stop happened. If nothing is
            # listening any more, the request did its job.
            if probe_socket(self.socket_path) == "live":
                raise
        finally:
            self.close()

    def stats(self) -> dict:
        return {"backend": "socket", "socket": self.socket_path}
