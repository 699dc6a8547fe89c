"""HTTP client for the coordinator daemon, plus the ``"http"`` executor.

:class:`CoordinatorClient` is a thin synchronous wrapper over the
coordinator's JSON API (see ``docs/service.md``): submit a grid, poll a
job, or stream its results as they complete.  :class:`HttpExecutor`
adapts that client to the :class:`~repro.sim.executors.Executor`
contract, so ``Sweep.run(executor="http")`` and
``pbs-experiments sweep --executor http --coordinator host:port`` drive
the service exactly like any local backend — results come back in spec
order and bit-identical to the ``serial`` path.

Configuration comes from two environment variables when not passed
explicitly: ``REPRO_COORDINATOR`` (the ``host:port`` of the daemon) and
``REPRO_TOKEN`` (the shared bearer secret, when the daemon runs with
``--token``).
"""

from __future__ import annotations

import http.client
import json
import os
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..sim.executors import Executor, register_executor
from ..sim.results import RunResult

#: Environment variable naming the coordinator address (``host:port``).
COORDINATOR_ENV = "REPRO_COORDINATOR"

#: Environment variable carrying the shared bearer secret.
TOKEN_ENV = "REPRO_TOKEN"

#: Default coordinator port.
DEFAULT_PORT = 7350


class CoordinatorError(RuntimeError):
    """A failed coordinator request; ``status`` is the HTTP status code
    (``None`` for transport-level failures)."""

    def __init__(self, message: str, status: Optional[int] = None):
        super().__init__(message)
        self.status = status


def parse_coordinator_address(
    address: Union[str, Tuple[str, int]],
) -> Tuple[str, int]:
    """``"host[:port]"`` (or a ready tuple) -> ``(host, port)``."""
    if isinstance(address, tuple):
        return address[0].strip(), int(address[1])
    address = address.strip()
    host, _, port = address.rpartition(":")
    if not host:
        return address, DEFAULT_PORT
    try:
        return host.strip(), int(port)
    except ValueError:
        raise ValueError(
            f"bad coordinator address {address!r}; want host:port"
        ) from None


class CoordinatorClient:
    """Synchronous HTTP/JSON client for one ``repro-coordinator``."""

    def __init__(
        self,
        address: Union[str, Tuple[str, int], None] = None,
        token: Optional[str] = None,
        timeout: float = 300.0,
    ):
        if address is None:
            address = os.environ.get(COORDINATOR_ENV, "").strip()
        if not address:
            raise ValueError(
                "CoordinatorClient needs an address: pass "
                f"address='host:port' or set {COORDINATOR_ENV}"
            )
        self.host, self.port = parse_coordinator_address(address)
        self.token = (
            token if token is not None else os.environ.get(TOKEN_ENV) or None
        )
        self.timeout = timeout
        self.label = f"{self.host}:{self.port}"

    # -- plumbing -------------------------------------------------------

    def _headers(self) -> Dict[str, str]:
        headers = {"Content-Type": "application/json", "Connection": "close"}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        return headers

    def _decode(self, status: int, data: bytes) -> Dict:
        try:
            payload = json.loads(data) if data else {}
        except ValueError:
            payload = {"error": data[:200].decode("utf-8", "replace")}
        if status != 200:
            detail = payload.get("error", payload)
            raise CoordinatorError(
                f"coordinator {self.label} answered {status}: {detail}",
                status=status,
            )
        return payload

    def _request(self, method: str, path: str, payload=None) -> Dict:
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            connection.request(method, path, body=body, headers=self._headers())
            response = connection.getresponse()
            status, data = response.status, response.read()
        except OSError as exc:
            raise CoordinatorError(
                f"coordinator {self.label} unreachable: {exc}"
            ) from None
        finally:
            connection.close()
        return self._decode(status, data)

    # -- the API --------------------------------------------------------

    def healthz(self) -> Dict:
        return self._request("GET", "/v1/healthz")

    def workers(self) -> List[Dict]:
        return self._request("GET", "/v1/workers")["workers"]

    def stats(self) -> Dict:
        return self._request("GET", "/v1/stats")

    def submit(self, specs=None, sweep: Optional[Dict] = None) -> Dict:
        """Submit a job: either a list of specs (``RunSpec`` objects or
        their ``to_dict()`` form) or a ``{"workloads": ..., "seeds":
        ...}`` grid expanded server-side.  Returns ``{"job": id,
        "specs": n}``."""
        if (specs is None) == (sweep is None):
            raise ValueError("pass exactly one of specs= or sweep=")
        if specs is not None:
            payload = {
                "specs": [
                    spec.to_dict() if hasattr(spec, "to_dict") else spec
                    for spec in specs
                ]
            }
        else:
            payload = {"sweep": sweep}
        return self._request("POST", "/v1/sweeps", payload)

    def status(self, job: str) -> Dict:
        return self._request("GET", f"/v1/sweeps/{job}")

    def results(self, job: str) -> Dict:
        """Non-blocking snapshot: ``{"entries": [...], "done": bool, ...}``."""
        return self._request("GET", f"/v1/sweeps/{job}/results?poll=1")

    def stream(self, job: str) -> Iterator[Dict]:
        """Yield completion entries as the coordinator produces them.

        Entries are ``{"index": i, "result": {...}, "cached": bool}``
        (or ``{"index": i, "error": msg}``) in completion order; the
        final entry is ``{"done": true, **job_stats}``.
        """
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            connection.request(
                "GET", f"/v1/sweeps/{job}/results", headers=self._headers()
            )
            response = connection.getresponse()
            if response.status != 200:
                self._decode(response.status, response.read())
            while True:
                line = response.readline()
                if not line:
                    return
                line = line.strip()
                if line:
                    yield json.loads(line)
        except OSError as exc:
            raise CoordinatorError(
                f"coordinator {self.label} dropped the result stream: {exc}"
            ) from None
        finally:
            connection.close()


@register_executor("http")
class HttpExecutor(Executor):
    """Run a spec batch through a ``repro-coordinator`` over HTTP.

    The batch becomes one job: specs the coordinator has cached come
    back immediately, specs identical to another client's in-flight job
    attach to the running simulation (deduped), and the rest fan out to
    the registered workers under lease-based ownership.  Results stream
    back in completion order and are reassembled into spec order, so
    the executor contract — and bit-identical golden results — hold.

    Every spec travels as its own frame, so a trace group is not run
    as one run here: its specs may land on different workers.  Traces
    never cross the wire, so the coordinator refuses a spec that names
    a trace store, and :meth:`map` raises :class:`CoordinatorError`
    before any worker runs a spec.

    ``coordinator`` defaults to ``$REPRO_COORDINATOR`` and ``token`` to
    ``$REPRO_TOKEN``; the job counters from the coordinator for the
    last ``map()`` land in :attr:`telemetry` (one
    ``coordinator:host:port`` entry, feeding the ``workers`` key of
    ``--stats-json``).
    """

    def __init__(
        self,
        coordinator: Union[str, Tuple[str, int], None] = None,
        token: Optional[str] = None,
        processes: int = 1,
        timeout: float = 300.0,
    ):
        del processes  # width lives on the workers, not the client
        self.client = CoordinatorClient(coordinator, token=token, timeout=timeout)
        self.batches = 0
        self.dispatched = 0
        self.completed = 0
        #: ``coordinator:host:port`` -> per-job counters from the last map().
        self.telemetry: Dict[str, Dict[str, int]] = {}

    def map(self, specs: Sequence, on_result=None) -> List[RunResult]:
        specs = list(specs)
        if not specs:
            return []
        self.batches += 1
        self.dispatched += len(specs)
        self.telemetry = {}
        results: List[Optional[RunResult]] = [None] * len(specs)
        job = self.client.submit(specs=specs)["job"]
        failures: List[str] = []
        final: Optional[Dict] = None
        for entry in self.client.stream(job):
            if entry.get("done"):
                final = entry
                break
            index = entry["index"]
            if "error" in entry:
                failures.append(f"spec #{index}: {entry['error']}")
                continue
            result = RunResult.from_dict(entry["result"])
            result.cached = bool(entry.get("cached"))
            engine = entry.get("engine")
            if engine:
                result.engine_used = str(engine)
                result.compiled_hit = bool(entry.get("engine_hit"))
            result.sink_batches = int(entry.get("sink_batches", 0))
            results[index] = result
            self.completed += 1
            if on_result is not None:
                on_result(index, specs[index], result)
        if final is not None:
            self.telemetry[f"coordinator:{self.client.label}"] = {
                key: value for key, value in final.items()
                if isinstance(value, int) and not isinstance(value, bool)
            }
        if failures:
            raise RuntimeError(
                f"http executor: {len(failures)}/{len(specs)} specs failed: "
                + "; ".join(failures[:3])
            )
        missing = results.count(None)
        if missing:
            raise RuntimeError(
                f"http executor: result stream for job {job} ended with "
                f"{missing}/{len(specs)} specs unresolved"
            )
        return results
