"""The simulation service: protocol, single-flight dedup, recovery.

Three properties carry the subsystem:

- **transparency** -- a sweep routed through the HTTP backend returns
  byte-identical reports to a local serial run (the backend is
  transport, never semantics);
- **single-flight dedup** -- N clients submitting overlapping plans
  cost exactly one computation per unique cell, asserted by the
  server's own counters;
- **robustness** -- a worker crash mid-sweep is retried to success
  with no client-visible failure, and a draining server refuses new
  work while finishing what it accepted.

Server-backed tests run a real :class:`ServiceHandle` (background
thread, ephemeral port, private cache directory) with real worker
processes -- the same stack ``power5-repro serve`` runs.
"""

from __future__ import annotations

import threading

import pytest

from repro.cli import main
from repro.config import POWER5
from repro.experiments import figure2, table3
from repro.experiments.base import (
    ExperimentContext,
    governed_cell,
    pair_cell,
    priority_pair,
    single_cell,
)
from repro.experiments.registry import resolve_ids
from repro.service import (
    ServiceBackend,
    ServiceClient,
    ServiceError,
    build_context,
    context_spec,
    decode_cell,
    encode_cell,
)
from repro.service import protocol
from repro.service.server import ServerConfig, ServiceHandle
from repro.simcache import SimCache

#: Small benchmark subset keeping server-backed sweeps fast.
BENCHES = ("cpu_int", "ldint_l2")

#: One key of every cell kind, floats included (the transparent
#: governor embeds a measured IPC in its key).
KEYS = [
    single_cell("cpu_int"),
    pair_cell("cpu_int", "ldint_l2", priority_pair(2)),
    governed_cell("cpu_int", "ldint_l2", (4, 4), "transparent",
                  {"st_ipc": 0.123456789012}),
    ("chip", "spec", "round_robin", 2, 1),
]


def _ctx(**kwargs) -> ExperimentContext:
    return ExperimentContext(config=POWER5.small(), min_repetitions=2,
                             max_cycles=200_000, **kwargs)


def _server(tmp_path, workers=2, **kwargs) -> ServiceHandle:
    config = ServerConfig(port=0, workers=workers,
                          cache_dir=str(tmp_path / "svc-cache"),
                          retry_backoff=0.05, **kwargs)
    return ServiceHandle(config).start()


# -- protocol (no server) -----------------------------------------------


def test_cell_keys_roundtrip_exactly():
    for key in KEYS:
        assert decode_cell(encode_cell(key)) == key


def test_unencodable_key_component_rejected():
    with pytest.raises(TypeError, match="not wire-encodable"):
        encode_cell(("single", object()))


def test_spec_rebuilds_equivalent_context():
    """A context rebuilt from its wire spec computes identical cache
    keys -- the property the whole digest protocol stands on."""
    ctx = _ctx(pmu=True, pmu_sample=512, governor="ipc_balance",
               governor_epoch=400)
    rebuilt = build_context(context_spec(ctx))
    assert rebuilt.config.fingerprint() == ctx.config.fingerprint()
    for key in KEYS:
        assert rebuilt._simcache_key(key) == ctx._simcache_key(key)


def test_spec_survives_json(tmp_path):
    import json
    spec = context_spec(_ctx(maiv=0.015))
    rebuilt = build_context(json.loads(json.dumps(spec)))
    assert rebuilt._simcache_key(KEYS[0]) == _ctx(
        maiv=0.015)._simcache_key(KEYS[0])


def test_handshake_mismatch_detected():
    payload = protocol.handshake()
    assert protocol.check_handshake(payload) is None
    payload["result"] = 999
    assert "result version mismatch" in protocol.check_handshake(payload)


def test_v3_handshake_refused():
    """v3 configs carried a since-removed engine field; a v3 peer is
    refused by version before its spec is read."""
    payload = dict(protocol.handshake(), protocol=3)
    assert protocol.check_handshake(payload) == (
        f"protocol version mismatch: client v3, "
        f"server v{protocol.PROTOCOL_VERSION}")
    assert protocol.PROTOCOL_VERSION == 4


# -- transparency -------------------------------------------------------


def test_backend_sweep_byte_identical_to_serial(tmp_path):
    """The acceptance gate: an HTTP-backend sweep reproduces a local
    serial run byte for byte.  The client runs without a local
    simcache, so every value arrives over /entry and is key-verified."""
    handle = _server(tmp_path)
    try:
        serial = _ctx()
        remote = _ctx(backend=ServiceBackend(handle.url))
        report_serial = table3.run_table3(serial, benchmarks=BENCHES)
        report_remote = table3.run_table3(remote, benchmarks=BENCHES)
        assert repr(report_remote) == repr(report_serial)

        # A client sharing the server's cache directory resolves the
        # same digests from disk instead of /entry -- same bytes.
        shared = _ctx(backend=ServiceBackend(handle.url),
                      simcache=SimCache(tmp_path / "svc-cache"))
        report_shared = table3.run_table3(shared, benchmarks=BENCHES)
        assert repr(report_shared) == repr(report_serial)
        assert shared.simcache.hits > 0  # resolved locally
    finally:
        handle.stop()


def test_backend_cell_accessor_and_resubmission_dedup(tmp_path):
    """Single-cell misses route through the backend too, and
    resubmitting a computed cell is a cache hit, not a recompute."""
    handle = _server(tmp_path, workers=1)
    try:
        remote = _ctx(backend=ServiceBackend(handle.url))
        value = remote.single("cpu_int")
        assert repr(value) == repr(_ctx().single("cpu_int"))
        again = _ctx(backend=ServiceBackend(handle.url))
        assert repr(again.single("cpu_int")) == repr(value)
        dedup = ServiceClient(handle.url).metrics()["dedup"]
        assert dedup["computed"] == 1
        # The second submission deduped (coalesced against the DONE
        # in-memory cell) rather than recomputing.
        assert dedup["cached"] + dedup["coalesced"] == 1
    finally:
        handle.stop()


# -- single-flight dedup ------------------------------------------------


def test_concurrent_overlapping_clients_compute_each_cell_once(tmp_path):
    """Two clients with overlapping table3/figure2 plans, submitted
    concurrently: one computation per unique cell, identical reports."""
    plan_a = table3.cells(benchmarks=BENCHES)
    plan_b = list(dict.fromkeys(
        table3.cells(benchmarks=BENCHES)
        + figure2.cells(benchmarks=BENCHES, diffs=(1, 2))))
    unique = set(plan_a) | set(plan_b)

    handle = _server(tmp_path)
    barrier = threading.Barrier(2)
    outcomes: dict[str, object] = {}

    def client(name, plan):
        ctx = _ctx(backend=ServiceBackend(handle.url))
        barrier.wait()
        try:
            ctx.prefetch(plan)
            outcomes[name] = {key: ctx._cache[key] for key in plan}
        except Exception as exc:  # surfaced by the main thread
            outcomes[name] = exc

    try:
        threads = [threading.Thread(target=client, args=("a", plan_a)),
                   threading.Thread(target=client, args=("b", plan_b))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        for name in ("a", "b"):
            assert not isinstance(outcomes[name], Exception), outcomes[name]

        dedup = ServiceClient(handle.url).metrics()["dedup"]
        assert dedup["submitted"] == len(plan_a) + len(plan_b)
        assert dedup["computed"] == len(unique)  # single-flight
        assert (dedup["cached"] + dedup["coalesced"]
                == dedup["submitted"] - len(unique))
        assert dedup["failed"] == 0
    finally:
        handle.stop()

    # Shared cells are byte-identical across the two clients, and
    # match a local serial run.
    local = _ctx()
    local.prefetch(plan_b)
    for key in set(plan_a) & set(plan_b):
        assert repr(outcomes["a"][key]) == repr(outcomes["b"][key])
    for key in plan_b:
        assert repr(outcomes["b"][key]) == repr(local._cache[key])


# -- robustness ---------------------------------------------------------


def test_injected_worker_crash_is_retried_to_success(tmp_path):
    """A worker killed mid-cell is detected, replaced, and the cell
    requeued -- the client sees a completed job, never the crash."""
    handle = _server(tmp_path, workers=1)
    try:
        client = ServiceClient(handle.url)
        client.inject_crash()
        remote = _ctx(backend=ServiceBackend(handle.url))
        cells = [single_cell("cpu_int"), single_cell("ldint_l2")]
        assert remote.prefetch(cells) == len(cells)
        dedup = client.metrics()["dedup"]
        assert dedup["injected_crashes"] == 1
        assert dedup["crashes"] >= 1
        assert dedup["retries"] >= 1
        assert dedup["failed"] == 0
        local = _ctx()
        local.prefetch(cells)
        for key in cells:
            assert repr(remote._cache[key]) == repr(local._cache[key])
    finally:
        handle.stop()


def test_handshake_mismatch_refused_with_409(tmp_path, monkeypatch):
    handle = _server(tmp_path)
    try:
        bad = dict(protocol.handshake(), protocol=999)
        bad["spec"] = context_spec(_ctx())
        bad["cells"] = [encode_cell(single_cell("cpu_int"))]
        client = ServiceClient(handle.url)
        with pytest.raises(ServiceError, match="409.*protocol version"):
            client._request("POST", "/submit", bad)
    finally:
        handle.stop()


def test_spec_with_removed_config_field_is_bad_request(tmp_path):
    """A current-version submission whose config still names the
    removed engine switch is a malformed spec: HTTP 400, not a crash."""
    handle = _server(tmp_path)
    try:
        spec = context_spec(_ctx())
        spec["config"]["fast_forward"] = True
        payload = dict(protocol.handshake(), spec=spec,
                       cells=[encode_cell(single_cell("cpu_int"))])
        client = ServiceClient(handle.url)
        with pytest.raises(ServiceError, match="400.*fast_forward"):
            client._request("POST", "/submit", payload)
        assert client.healthz()["ok"] is True
    finally:
        handle.stop()


def test_draining_server_refuses_submissions(tmp_path):
    handle = _server(tmp_path)
    try:
        handle.server._draining = True  # white-box: drain mid-flight
        client = ServiceClient(handle.url)
        with pytest.raises(ServiceError, match="503.*draining"):
            client.submit(context_spec(_ctx()),
                          [encode_cell(single_cell("cpu_int"))])
        # Observability stays available while draining.
        assert client.healthz()["draining"] is True
        handle.server._draining = False
    finally:
        handle.stop()


def test_healthz_and_metrics_shape(tmp_path):
    handle = _server(tmp_path)
    try:
        client = ServiceClient(handle.url)
        health = client.healthz()
        assert health["ok"] is True
        assert health["workers_alive"] == 2
        metrics = client.metrics()
        assert metrics["queue_depth"] == 0
        assert metrics["in_flight"] == 0
        assert len(metrics["workers"]) == 2
        assert {"submitted", "cached", "coalesced", "computed",
                "crashes", "retries", "failed",
                "hit_rate"} <= set(metrics["dedup"])
        with pytest.raises(ServiceError, match="404"):
            client.status("jxxx")
    finally:
        handle.stop()


def test_unreachable_server_raises_service_error():
    client = ServiceClient("http://127.0.0.1:9", timeout=0.5,
                           retries=1, backoff=0.01)
    with pytest.raises(ServiceError, match="cannot reach service"):
        client.healthz()


# -- CLI verbs ----------------------------------------------------------


def test_cli_submit_status_results_flow(tmp_path, monkeypatch, capsys):
    """submit enqueues without waiting; status/results poll the job."""
    from repro.experiments import planner
    monkeypatch.setitem(
        planner.CELL_PLANNERS, "table3",
        lambda ctx: table3.cells(benchmarks=BENCHES))
    handle = _server(tmp_path)
    try:
        rc = main(["submit", "table3", "--backend", handle.url,
                   "--min-reps", "2", "--max-cycles", "200000",
                   "--no-simcache"])
        out = capsys.readouterr().out
        assert rc == 0
        job = out.split("job ", 1)[1].split(":", 1)[0]
        ServiceClient(handle.url).wait(job, progress=lambda line: None)

        assert main(["status", job, "--backend", handle.url]) == 0
        out = capsys.readouterr().out
        assert f"job {job}: done" in out

        assert main(["results", job, "--backend", handle.url]) == 0
        out = capsys.readouterr().out
        assert out.count("done") >= len(table3.cells(benchmarks=BENCHES))
    finally:
        handle.stop()


def test_cli_service_argument_validation(capsys):
    cases = [
        (["submit", "table3"], "needs --backend"),
        (["status", "--backend", "http://x"], "needs a job id"),
        (["table3", "stray"], "only applies"),
        (["serve", "--backend", "http://x"], "runs a server"),
        (["serve", "--no-simcache"], "requires the result cache"),
        (["serve", "--port", "-1"], "--port"),
        (["serve", "--service-workers", "-2"], "--service-workers"),
        (["serve", "--cell-retries", "-1"], "--cell-retries"),
    ]
    for argv, message in cases:
        assert main(argv) == 2, argv
        assert message in capsys.readouterr().err, argv


def test_cli_submit_unknown_experiment(capsys):
    rc = main(["submit", "tableX", "--backend", "http://127.0.0.1:9"])
    assert rc == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_resolve_ids_selectors():
    assert resolve_ids("all") == resolve_ids(list(resolve_ids("all")))
    assert resolve_ids("table3, figure2") == ["table3", "figure2"]
    with pytest.raises(ValueError, match="unknown experiments"):
        resolve_ids("table3,nope")
