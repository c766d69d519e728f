"""A thin stdlib HTTP client for the retrieval service.

Everything the daemon exposes is one JSON request away; this module wraps the
wire protocol behind a typed, resource-oriented surface so the CLI
(``repro ping``), the CI ``service-smoke`` job and the E13 benchmark never
hand-build HTTP::

    client = ServiceClient.from_url("http://127.0.0.1:8765")
    client.search(spec)               # a QuerySpec, or the /search kwargs
    client.batch([spec, spec2])       # many specs/scenes as one batch
    client.images.add(scene, "id-1")  # mutations live on .images
    client.images.delete("id-1")
    client.admin.reload()             # operations live on .admin
    client.admin.compact()
    client.admin.promote()
    client.health(); client.stats()   # observability

The client is dependency-free (``http.client`` only) and *thread-safe by
construction*: each request opens its own connection, so closed-loop load
generators can share one client across worker threads.

Failures surface as :class:`ServiceError` carrying the HTTP status, the
server's ``{"error": ...}`` payload, and -- for 503 rejections -- the parsed
``Retry-After`` hint, so callers can implement honest backoff::

    client = ServiceClient.from_url("http://127.0.0.1:8765")
    try:
        ranking = client.search(scene=picture, limit=5)
    except ServiceError as error:
        if error.retry_after is not None:
            time.sleep(error.retry_after)  # the server asked us to back off

Connection-level flakiness (a daemon mid-restart, a replica briefly
unreachable) can additionally be absorbed by the client itself:
``ServiceClient(..., retries=3)`` retries *transport* failures -- connect
refused, reset, timeout before a status line -- with exponential backoff
(``backoff * 2**attempt``, capped at ``backoff_cap``).  HTTP-level errors
(4xx/5xx, including 503) are **never** retried automatically: the server
answered, and only the caller knows whether re-sending a mutation is safe.
The default is ``retries=0`` -- fail fast, exactly as before.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Any, Dict, List, Optional, Sequence, Union
from urllib.parse import quote, urlparse


class ServiceError(RuntimeError):
    """A failed service call: transport error or non-2xx response."""

    def __init__(
        self,
        message: str,
        status: Optional[int] = None,
        payload: Optional[Dict[str, Any]] = None,
        retry_after: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.payload = payload or {}
        self.retry_after = retry_after


def _scene_payload(scene: Any) -> Dict[str, Any]:
    """A JSON scene object from a ``SymbolicPicture`` or an already-built dict."""
    if hasattr(scene, "to_dict"):
        return scene.to_dict()
    if isinstance(scene, dict):
        return scene
    raise TypeError(
        f"scene must be a SymbolicPicture or a scene dict, got {type(scene).__name__}"
    )


class _ImagesResource:
    """``client.images``: the stored-image collection (mutations)."""

    def __init__(self, client: "ServiceClient") -> None:
        self._client = client

    def add(self, scene: Any, image_id: Optional[str] = None) -> Dict[str, Any]:
        """``POST /images``: store one scene (the daemon persists it)."""
        payload: Dict[str, Any] = {"scene": _scene_payload(scene)}
        if image_id is not None:
            payload["image_id"] = image_id
        return self._client.request("POST", "/images", payload)

    def delete(self, image_id: str) -> Dict[str, Any]:
        """``DELETE /images/{id}``: remove one stored image.

        The id is URL-encoded, so ids containing spaces, slashes or
        non-ASCII characters round-trip (the server decodes symmetrically).
        """
        return self._client.request("DELETE", f"/images/{quote(image_id, safe='')}")


class _AdminResource:
    """``client.admin``: operational endpoints (reload, compact, promote)."""

    def __init__(self, client: "ServiceClient") -> None:
        self._client = client

    def reload(self) -> Dict[str, Any]:
        """``POST /reload``: zero-downtime reload of the on-disk database."""
        return self._client.request("POST", "/reload")

    def compact(self) -> Dict[str, Any]:
        """``POST /compact``: fold the WAL delta into the shards now.

        Returns:
            The new snapshot LSN and pending-record count; a 409
            :class:`ServiceError` when the daemon is not in ``--wal`` mode.
        """
        return self._client.request("POST", "/compact")

    def promote(self) -> Dict[str, Any]:
        """``POST /promote``: detach a replica daemon into a writable primary.

        Returns:
            The promotion summary (new role, drained records, log position);
            a 409 :class:`ServiceError` when the target is not a replica or
            is already promoted.
        """
        return self._client.request("POST", "/promote")


class ServiceClient:
    """Typed access to every endpoint of one running retrieval daemon."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8765,
        timeout: float = 10.0,
        *,
        retries: int = 0,
        backoff: float = 0.1,
        backoff_cap: float = 2.0,
    ) -> None:
        """Target one daemon; optionally absorb transport flakiness.

        ``timeout`` bounds every socket operation of a request.  ``retries``
        re-attempts *connection* failures (never HTTP error statuses) up to
        that many extra times, sleeping ``min(backoff * 2**attempt,
        backoff_cap)`` seconds between attempts.

        Raises:
            ValueError: on a negative ``retries`` or non-positive backoff
                parameters.
        """
        if retries < 0:
            raise ValueError("retries must be non-negative")
        if backoff <= 0 or backoff_cap <= 0:
            raise ValueError("backoff and backoff_cap must be positive")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        #: The stored-image collection: ``client.images.add`` / ``.delete``.
        self.images = _ImagesResource(self)
        #: Operational endpoints: ``client.admin.reload`` / ``.compact`` /
        #: ``.promote``.
        self.admin = _AdminResource(self)

    @classmethod
    def from_url(cls, url: str, timeout: float = 10.0, *, retries: int = 0) -> "ServiceClient":
        """Build a client from a base URL like ``http://127.0.0.1:8765``.

        Raises:
            ValueError: if the URL has no usable host/port or a non-http
                scheme.
        """
        parsed = urlparse(url if "//" in url else f"http://{url}")
        if parsed.scheme not in ("", "http"):
            raise ValueError(f"only http:// service URLs are supported, got {url!r}")
        if not parsed.hostname:
            raise ValueError(f"service URL has no host: {url!r}")
        return cls(
            host=parsed.hostname, port=parsed.port or 80, timeout=timeout, retries=retries
        )

    @property
    def url(self) -> str:
        """The base URL this client targets."""
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def request(self, method: str, path: str, payload: Any = None) -> Dict[str, Any]:
        """One JSON round-trip; returns the parsed response body.

        Connection failures (refused, reset, timed out before a status
        line) are retried up to ``self.retries`` extra times with capped
        exponential backoff; a response -- any response -- is final.

        Raises:
            ServiceError: on connection failure (after the retry budget),
                a non-JSON response, or any non-2xx status (the server's
                error message and a parsed ``Retry-After`` ride along).
        """
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json"} if body is not None else {}
        for attempt in range(self.retries + 1):
            try:
                return self._roundtrip(method, path, body, headers)
            except ServiceError as error:
                # Only pure transport failures (no status) are retryable;
                # the server never saw -- or never answered -- the request.
                if error.status is not None or attempt == self.retries:
                    raise
                time.sleep(min(self.backoff * (2 ** attempt), self.backoff_cap))
        raise AssertionError("unreachable")  # pragma: no cover

    def _roundtrip(
        self,
        method: str,
        path: str,
        body: Optional[bytes],
        headers: Dict[str, str],
    ) -> Dict[str, Any]:
        """One attempt of :meth:`request` on a fresh connection."""
        connection = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            try:
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
                raw = response.read()
            except (OSError, http.client.HTTPException) as error:
                raise ServiceError(
                    f"service unreachable at {self.url}: {error}"
                ) from error
            try:
                parsed = json.loads(raw.decode("utf-8")) if raw else {}
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                raise ServiceError(
                    f"non-JSON response from {method} {path} "
                    f"(status {response.status})",
                    status=response.status,
                ) from error
            if response.status >= 400:
                retry_after = response.getheader("Retry-After")
                raise ServiceError(
                    parsed.get("error", f"{method} {path} failed"),
                    status=response.status,
                    payload=parsed,
                    retry_after=float(retry_after) if retry_after else None,
                )
            return parsed
        finally:
            connection.close()

    # ------------------------------------------------------------------
    # Query endpoints
    # ------------------------------------------------------------------
    def search(
        self,
        scene: Any = None,
        *,
        identifiers: Optional[Sequence[str]] = None,
        invariant: bool = False,
        where: Union[None, str, Dict[str, Any]] = None,
        fuzzy: bool = False,
        compose: Optional[str] = None,
        blend: Optional[float] = None,
        min_score: float = 0.0,
        limit: Optional[int] = 10,
        no_filters: bool = False,
        execution: Any = None,
        page: Optional[int] = None,
        page_size: Optional[int] = None,
    ) -> Dict[str, Any]:
        """``POST /search`` with the full QuerySpec surface.

        The positional argument accepts a
        :class:`~repro.index.spec.QuerySpec` directly: the client sends its
        ``to_wire()`` form, which carries every field of the spec, and every
        keyword except ``page``/``page_size`` must be left at its default.
        Alternatively pass a scene plus keywords, which are the wire keys of
        ``docs/service.md`` ("The query payload").  ``where`` carries the
        predicate clause as grammar text (``"not (a above b) or a overlaps b
        [w=2]"``) or as a nested predicate-tree JSON object
        (``PredicateNode.to_dict()`` form); ``fuzzy`` grades every leaf, and
        ``compose``/``blend`` pick how the degree combines with the
        similarity score (see ``docs/predicates.md``).  ``execution`` carries
        per-query execution options — an ``ExecutionOptions`` value or a
        plain dict of its fields (e.g. ``{"kernel": "bitparallel",
        "strategy": "anytime"}``); explicit fields win over the legacy
        ``no_filters`` flag.

        Returns:
            The response body: ``results`` (the library's ``to_dicts()``
            rows), ``count``, ``total``, ``spec``, ``plan`` and -- when
            paginating -- ``page`` / ``page_size`` / ``pages``.
        """
        # A QuerySpec, known by its duck type: the client never imports the library.
        if hasattr(scene, "to_wire"):
            payload = scene.to_wire()
        else:
            keywords = {
                "scene": None if scene is None else _scene_payload(scene),
                "identifiers": None if identifiers is None else list(identifiers),
                "invariant": invariant or None,
                "where": where,
                "fuzzy": fuzzy or None,
                "compose": compose,
                "blend": blend,
                "min_score": min_score or None,
                "no_filters": no_filters or None,
                "execution": execution.to_dict() if hasattr(execution, "to_dict") else execution,
            }
            payload = {key: value for key, value in keywords.items() if value is not None}
            payload["limit"] = limit
        for key, value in (("page", page), ("page_size", page_size)):
            if value is not None:
                payload[key] = value
        return self.request("POST", "/search", payload)

    def batch(
        self,
        queries: Sequence[Union[Dict[str, Any], Any]],
        *,
        workers: Optional[int] = None,
        executor: Optional[str] = None,
    ) -> Dict[str, Any]:
        """``POST /batch``: each query is a spec, a ``/search`` dict or a scene.

        Entries may mix :class:`~repro.index.spec.QuerySpec` values (sent as
        their ``to_wire()`` form, like :meth:`search`), ``/search``-style
        payload dicts, and bare scenes.

        Returns:
            The response body with one ``results`` ranking per input query
            (input order) and the scheduler ``report`` line.
        """
        entries: List[Dict[str, Any]] = []
        for query in queries:
            if hasattr(query, "to_wire"):
                entries.append(query.to_wire())
            elif isinstance(query, dict) and "scene" in query:
                entries.append(query)
            else:
                entries.append({"scene": _scene_payload(query)})
        payload: Dict[str, Any] = {"queries": entries}
        if workers is not None:
            payload["workers"] = workers
        if executor is not None:
            payload["executor"] = executor
        return self.request("POST", "/batch", payload)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        """``GET /healthz``: the liveness payload."""
        return self.request("GET", "/healthz")

    def stats(self) -> Dict[str, Any]:
        """``GET /stats``: counters, latency percentiles, cache hit rate."""
        return self.request("GET", "/stats")

    def ping(self) -> Dict[str, Any]:
        """Health check plus measured round-trip time.

        Returns:
            The ``/healthz`` body with ``round_trip_ms`` added.

        Raises:
            ServiceError: if the daemon is unreachable or unhealthy.
        """
        started = time.perf_counter()
        body = self.health()
        body["round_trip_ms"] = round((time.perf_counter() - started) * 1000, 3)
        return body

    def wait_until_healthy(self, timeout: float = 10.0, interval: float = 0.05) -> Dict[str, Any]:
        """Poll ``/healthz`` until it answers (daemon start-up helper).

        Returns:
            The first healthy ``/healthz`` body.

        Raises:
            ServiceError: if the daemon did not come up within ``timeout``.
        """
        deadline = time.monotonic() + timeout
        last_error: Optional[ServiceError] = None
        while time.monotonic() < deadline:
            try:
                return self.health()
            except ServiceError as error:
                last_error = error
                time.sleep(interval)
        raise ServiceError(
            f"service at {self.url} not healthy after {timeout:g}s: {last_error}"
        )
