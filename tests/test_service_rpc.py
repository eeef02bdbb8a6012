"""Cross-process plan serving: wire protocol, robustness, drain/reap.

Covers the socket layer (src/repro/service/rpc.py + client.py):

* frame codec + envelope validation (malformed frames, oversized
  payloads, version mismatches yield clean protocol errors, never a
  wedged server thread);
* cross-process plans are makespan-identical to in-process plans;
* coalescing across connections (the multi-process DP regime);
* a client disconnecting between submit and result never hangs the
  leader's local waiters, and its registry entry is reaped;
* server close drains in-flight remote requests deterministically;
* concurrent clients hammering one server yield clean overload errors.
"""

import json
import socket
import threading
import time

import pytest

from repro.core.planner import OnlinePlanner
from repro.core.searcher import ScheduleSearcher
from repro.core.signature import SIGNATURE_VERSION
from repro.data.batching import GlobalBatch
from repro.data.packing import controlled_vlm_microbatch
from repro.data.workload import vlm_workload
from repro.fleet import FleetClient, drive_fleet
from repro.service import (
    OUTCOME_COALESCED,
    OUTCOME_SEARCH,
    PlanService,
    PlanServiceClient,
    PlanServiceServer,
    ProtocolError,
    RecalibrationPolicy,
    RemotePlanError,
    ServiceOverloadError,
    SignatureMismatchError,
    observed_execution,
)
from repro.service.rpc import (
    HEADER,
    WIRE_FORMAT,
    WIRE_VERSION,
    batch_from_dict,
    batch_to_dict,
    encode_frame,
    parse_address,
    recv_frame,
    request_envelope,
    send_frame,
)
from repro.sim.reference import ReferenceCostModel


def controlled_batch(image_counts, start_index=0):
    return GlobalBatch([
        controlled_vlm_microbatch(index=start_index + i, num_images=count)
        for i, count in enumerate(image_counts)
    ])


@pytest.fixture
def make_planner(tiny_vlm, small_cluster, parallel2, cost_model):
    def factory(budget=8):
        searcher = ScheduleSearcher(small_cluster, parallel2, cost_model,
                                    budget_evaluations=budget, seed=0)
        return OnlinePlanner(tiny_vlm, small_cluster, parallel2, cost_model,
                             searcher=searcher)
    return factory


@pytest.fixture
def serving(tmp_path, make_planner):
    """A served PlanService on a Unix socket; yields (service, server)."""
    def start(num_workers=2, jobs=("vlm",), **service_kwargs):
        service = PlanService(num_workers=num_workers, **service_kwargs)
        for job in jobs:
            service.register_job(job, planner=make_planner())
        server = PlanServiceServer(
            service, uds=str(tmp_path / "plan.sock"),
            result_timeout_s=60.0,
        )
        started.append((service, server))
        return service, server

    started = []
    yield start
    for service, server in started:
        server.close(timeout=10.0)
        service.close()


def raw_socket(server):
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(10.0)
    sock.connect(parse_address(server.address)[1])
    return sock


class TestFrameCodec:
    def test_roundtrip_over_socketpair(self):
        a, b = socket.socketpair()
        payload = {"format": WIRE_FORMAT, "version": WIRE_VERSION,
                   "id": 7, "method": "ping", "params": {"x": [1, 2, 3]}}
        send_frame(a, payload)
        assert recv_frame(b) == payload
        a.close()
        assert recv_frame(b) is None  # clean EOF
        b.close()

    def test_oversized_frame_rejected(self):
        a, b = socket.socketpair()
        a.sendall(HEADER.pack(10_000_000))
        with pytest.raises(ProtocolError, match="exceeds"):
            recv_frame(b, max_frame_bytes=1024)
        a.close()
        b.close()

    def test_truncated_frame_rejected(self):
        a, b = socket.socketpair()
        a.sendall(HEADER.pack(100) + b'{"partial":')
        a.close()
        with pytest.raises(ProtocolError, match="mid-frame"):
            recv_frame(b)
        b.close()

    def test_non_json_body_rejected(self):
        a, b = socket.socketpair()
        body = b"\xff\xfe not json"
        a.sendall(HEADER.pack(len(body)) + body)
        with pytest.raises(ProtocolError, match="JSON"):
            recv_frame(b)
        a.close()
        b.close()

    def test_non_object_body_rejected(self):
        a, b = socket.socketpair()
        body = json.dumps([1, 2, 3]).encode()
        a.sendall(HEADER.pack(len(body)) + body)
        with pytest.raises(ProtocolError, match="object"):
            recv_frame(b)
        a.close()
        b.close()

    def test_batch_codec_roundtrip(self):
        batch = controlled_batch([4, 8, 2])
        again = batch_from_dict(batch_to_dict(batch))
        assert again.microbatches == batch.microbatches

    def test_batch_codec_rejects_garbage(self):
        with pytest.raises(RemotePlanError):
            batch_from_dict({})
        with pytest.raises(RemotePlanError):
            batch_from_dict({"microbatches": ["nope"]})
        with pytest.raises(RemotePlanError):
            batch_from_dict({"microbatches": [{"bogus_field": 1}]})

    def test_parse_address_forms(self):
        assert parse_address(("localhost", 9000)) == \
            ("tcp", ("localhost", 9000))
        assert parse_address("tcp://h:1") == ("tcp", ("h", 1))
        assert parse_address("uds:///tmp/x.sock") == ("uds", "/tmp/x.sock")
        assert parse_address("127.0.0.1:8080") == \
            ("tcp", ("127.0.0.1", 8080))
        assert parse_address("/tmp/plan.sock") == ("uds", "/tmp/plan.sock")


class TestServerRobustness:
    """Malformed input must produce clean errors — never a wedged thread."""

    def assert_alive(self, server):
        with PlanServiceClient(server.address) as probe:
            assert probe.ping()["format"] == WIRE_FORMAT

    def test_garbage_bytes_close_connection_cleanly(self, serving):
        _service, server = serving()
        sock = raw_socket(server)
        # The garbage parses as a large length prefix; shutting down the
        # write side makes the server hit EOF mid-frame right away.
        sock.sendall(b"\x00\x00garbage garbage garbage")
        sock.shutdown(socket.SHUT_WR)
        # Server answers with a protocol error (or just closes) and the
        # connection dies; either way the next client is served fine.
        try:
            response = recv_frame(sock)
            assert response is None or response["error"]["kind"] == "protocol"
        except (ProtocolError, OSError):
            pass
        sock.close()
        self.assert_alive(server)
        assert server.remote.snapshot()["protocol_errors"] >= 1

    def test_oversized_frame_reported_and_closed(self, serving):
        _service, server = serving()
        sock = raw_socket(server)
        sock.sendall(HEADER.pack(2**31 - 1))
        response = recv_frame(sock)
        assert response is not None and not response["ok"]
        assert response["error"]["kind"] == "protocol"
        assert recv_frame(sock) is None  # server closed after violation
        sock.close()
        self.assert_alive(server)
        assert server.remote.snapshot()["protocol_errors"] >= 1

    def test_wrong_envelope_version_rejected(self, serving):
        _service, server = serving()
        sock = raw_socket(server)
        bogus = request_envelope(1, "ping")
        bogus["version"] = 999
        send_frame(sock, bogus)
        response = recv_frame(sock)
        assert not response["ok"]
        assert response["error"]["kind"] == "protocol"
        assert "version" in response["error"]["message"]
        sock.close()
        self.assert_alive(server)

    def test_unknown_method_keeps_connection(self, serving):
        _service, server = serving()
        sock = raw_socket(server)
        send_frame(sock, request_envelope(1, "frobnicate"))
        response = recv_frame(sock)
        assert not response["ok"]
        # 'unsupported', not 'protocol': neither side kills a healthy
        # connection over a method the server merely doesn't serve.
        assert response["error"]["kind"] == "unsupported"
        assert "unknown method" in response["error"]["message"]
        # Connection still usable: a ping on the same socket succeeds.
        send_frame(sock, request_envelope(2, "ping"))
        assert recv_frame(sock)["ok"]
        sock.close()

    def test_non_string_method_is_clean_protocol_error(self, serving):
        """A well-framed envelope with an unhashable method must not
        kill the handler thread with a TypeError."""
        _service, server = serving()
        sock = raw_socket(server)
        send_frame(sock, request_envelope(1, ["not", "a", "string"]))
        response = recv_frame(sock)
        assert not response["ok"]
        assert response["error"]["kind"] == "protocol"
        assert "method must be a string" in response["error"]["message"]
        assert recv_frame(sock) is None  # connection closed after
        sock.close()
        self.assert_alive(server)
        assert server.remote.snapshot()["protocol_errors"] >= 1

    def test_signature_version_mismatch_is_protocol_error(self, serving):
        _service, server = serving(num_workers=1)
        sock = raw_socket(server)
        params = {"job": "vlm", "signature_version": SIGNATURE_VERSION + 1}
        params.update(batch_to_dict(controlled_batch([4])))
        send_frame(sock, request_envelope(1, "submit", params))
        response = recv_frame(sock)
        assert not response["ok"]
        assert response["error"]["kind"] == "protocol"
        assert "signature-version" in response["error"]["message"]
        sock.close()
        self.assert_alive(server)

    def test_unknown_job_is_request_error_not_fatal(self, serving):
        _service, server = serving()
        with PlanServiceClient(server.address) as client:
            with pytest.raises(RemotePlanError, match="unknown job"):
                client.submit_raw("nope", controlled_batch([4]))
            # Same connection still serves valid requests.
            assert client.ping()["jobs"] == ["vlm"]

    def test_submit_without_microbatches_is_request_error(self, serving):
        _service, server = serving()
        with PlanServiceClient(server.address) as client:
            with pytest.raises(RemotePlanError, match="microbatches"):
                client.call("submit", {
                    "job": "vlm",
                    "signature_version": SIGNATURE_VERSION,
                })

    def test_uds_refuses_to_clobber_non_socket_path(self, tmp_path,
                                                    make_planner):
        """Serving on a path that holds a regular file (say, the cache
        file after swapped CLI flags) must fail loudly, not delete it."""
        service = PlanService(num_workers=0)
        service.register_job("vlm", planner=make_planner())
        target = tmp_path / "precious.json"
        target.write_text('{"entries": []}')
        with pytest.raises(ValueError, match="not a socket"):
            PlanServiceServer(service, uds=str(target))
        assert target.read_text() == '{"entries": []}'
        service.close()

    def test_concurrent_hammer_yields_clean_overloads(self, serving,
                                                      make_planner):
        """Many clients, tiny queue, non-blocking submits: every request
        resolves as a plan or a clean ServiceOverloadError; the server
        answers pings afterwards (nothing wedged)."""
        _service, server = serving(num_workers=2, max_queue=2)
        outcomes = []
        lock = threading.Lock()

        def hammer(worker_id):
            client = PlanServiceClient(server.address)
            for i in range(4):
                batch = controlled_batch([2 + (worker_id + i) % 5,
                                          1 + i % 3])
                try:
                    response = client.submit_raw("vlm", batch, block=False)
                    with lock:
                        outcomes.append(("ok", response["report"]["outcome"]))
                except ServiceOverloadError:
                    with lock:
                        outcomes.append(("overload", None))
                except Exception as exc:  # noqa: BLE001
                    with lock:
                        outcomes.append(("unexpected", repr(exc)))
            client.close()

        threads = [threading.Thread(target=hammer, args=(w,))
                   for w in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive(), "hammer thread wedged"
        kinds = {kind for kind, _detail in outcomes}
        assert "unexpected" not in kinds, outcomes
        assert len(outcomes) == 24
        self.assert_alive(server)


class TestCrossProcessPlanning:
    def test_remote_plan_matches_in_process(self, serving, make_planner):
        """The acceptance bar: a remote client's replayed plan has a
        makespan identical to planning in-process."""
        service, server = serving(num_workers=1)
        batch = controlled_batch([4, 8])
        remote = FleetClient([server.address], "vlm", 0, [batch],
                             planner=make_planner(), timeout_s=60)
        records = remote.run()
        remote.close()
        assert not remote.errors, remote.errors
        solo = make_planner().plan_iteration(batch)
        assert records[0].predicted_ms == pytest.approx(solo.total_ms,
                                                        rel=1e-12)
        assert records[0].outcome == OUTCOME_SEARCH
        assert records[0].signature == solo.signature

    def test_coalescing_across_connections(self, serving, make_planner):
        """Two connections (two would-be processes) submitting the same
        batch share one search — deterministically, via step mode."""
        service, server = serving(num_workers=0)
        batch = controlled_batch([4, 8])
        results = {}

        def drive(tag):
            remote = FleetClient([server.address], "vlm", 0, [batch],
                                 planner=make_planner(), timeout_s=60)
            remote.run()
            results[tag] = remote
            remote.close()

        threads = [threading.Thread(target=drive, args=(t,))
                   for t in ("a", "b")]
        for t in threads:
            t.start()
        # Both submits land before anything is processed; the second
        # coalesces onto the first (one pending leader).
        deadline = time.monotonic() + 30
        while service.queue_depth < 1 and time.monotonic() < deadline:
            time.sleep(0.005)
        while (service.stats.submitted < 2
               and time.monotonic() < deadline):
            time.sleep(0.005)
        assert service.queue_depth == 1, "requests did not coalesce"
        service.step()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        outcomes = sorted(results[t].records[0].outcome for t in ("a", "b"))
        assert outcomes == sorted([OUTCOME_SEARCH, OUTCOME_COALESCED])
        makespans = {round(results[t].records[0].predicted_ms, 9)
                     for t in ("a", "b")}
        assert len(makespans) == 1
        assert service.stats.coalesced == 1

    def test_drive_fleet_one_address_identical_makespans(self, serving,
                                                         make_planner):
        service, server = serving(num_workers=2)
        batches = vlm_workload(2, seed=0).batches(2)
        report, _clients = drive_fleet(
            [server.address], {"vlm": batches}, replicas=3,
            planner_factory=lambda job: make_planner(), timeout_s=120,
        )
        assert not report.errors, report.errors
        assert len(report.records) == 6
        for i in range(2):
            makespans = report.makespans("vlm", i)
            assert len(makespans) == 3
            assert max(makespans) - min(makespans) < 1e-9
        assert service.stats.searches == 2  # one per distinct batch
        stats = server.remote.snapshot()
        assert stats["connections_opened"] >= 3

    def test_signature_mismatch_detected(self, serving, make_planner,
                                         tiny_vlm, small_cluster, parallel2):
        """A client planning under a different context (cost model) must
        get a SignatureMismatchError, not a silently wrong replay."""
        from repro.sim.costmodel import CostModel

        service, server = serving(num_workers=1)
        skewed_model = CostModel(compute_efficiency=0.11)
        searcher = ScheduleSearcher(small_cluster, parallel2, skewed_model,
                                    budget_evaluations=8, seed=0)
        skewed = OnlinePlanner(tiny_vlm, small_cluster, parallel2,
                               skewed_model, searcher=searcher)
        remote = FleetClient([server.address], "vlm", 0,
                             [controlled_batch([4, 8])],
                             planner=skewed, timeout_s=60)
        with pytest.raises(SignatureMismatchError):
            remote.plan_batch(controlled_batch([4, 8]))
        remote.close()

    def test_signature_mismatch_aborts_stream(self, serving, tiny_vlm,
                                              small_cluster, parallel2):
        """A mismatch is deterministic for the whole stream and costs
        the server one discarded search per attempt — run() must stop
        at the first one, not grind through every batch."""
        from repro.sim.costmodel import CostModel

        service, server = serving(num_workers=1)
        skewed_model = CostModel(compute_efficiency=0.11)
        searcher = ScheduleSearcher(small_cluster, parallel2, skewed_model,
                                    budget_evaluations=8, seed=0)
        skewed = OnlinePlanner(tiny_vlm, small_cluster, parallel2,
                               skewed_model, searcher=searcher)
        batches = [controlled_batch([4, 8]),
                   controlled_batch([2, 6]),
                   controlled_batch([3, 3])]
        remote = FleetClient([server.address], "vlm", 0, batches,
                             planner=skewed, timeout_s=60)
        remote.run()
        remote.close()
        assert not remote.records
        assert len(remote.errors) == 1  # aborted after the first batch
        assert service.stats.searches == 1  # one wasted search, not 3

    def test_prewarm_and_cache_hit_over_the_wire(self, serving,
                                                 make_planner):
        service, server = serving(num_workers=1)
        batch = controlled_batch([6, 6])
        with PlanServiceClient(server.address) as client:
            assert client.prewarm_raw("vlm", batch)
        deadline = time.monotonic() + 60
        while service.stats.completed < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        remote = FleetClient([server.address], "vlm", 0, [batch],
                             planner=make_planner(), timeout_s=60)
        records = remote.run()
        remote.close()
        assert not remote.errors
        assert records[0].outcome == "hit"  # prewarmed → replay

    def test_observe_roundtrip_syncs_cost_model(self, serving,
                                                make_planner, cost_model):
        """observe() ships traces in and the calibrated model back out,
        so the remote mirror keeps matching the server's context."""
        service, server = serving(
            num_workers=1,
            recalibration=RecalibrationPolicy(interval=2, window=4,
                                              sweeps=1, holdout=1),
        )
        reference = ReferenceCostModel(seed=7)
        planner = make_planner()
        batches = vlm_workload(2, seed=3).batches(6)
        remote = FleetClient([server.address], "vlm", 0, batches,
                             planner=planner, timeout_s=120)
        applied = []
        for batch in batches:
            result, _report = remote.plan_batch(batch)
            trace = observed_execution(service, "vlm", result, reference)
            events = remote.observe(trace)
            applied.extend(e for e in events if e.get("applied"))
        remote.close()
        assert applied, "no recalibration applied over the wire"
        # The client's local mirror swapped onto the calibrated model...
        assert planner.cost_model is not cost_model
        # ...and it matches the server's exactly (submits keep working).
        server_model = service.job("vlm").planner.cost_model
        assert planner.cost_model == server_model

    def test_stats_and_save_cache_rpc(self, serving, make_planner,
                                      tmp_path):
        service, server = serving(num_workers=1)
        remote = FleetClient([server.address], "vlm", 0,
                             [controlled_batch([4, 8])],
                             planner=make_planner(), timeout_s=60)
        remote.run()
        remote.close()
        with PlanServiceClient(server.address) as client:
            stats = client.stats()
            assert stats["service"]["completed"] == 1
            assert stats["cache"]["entries"] == 1
            assert stats["jobs"] == ["vlm"]
            assert stats["remote"]["connections_opened"] >= 1
            with pytest.raises(RemotePlanError, match="cache path"):
                client.save_cache()  # server started without cache_path
            target = str(tmp_path / "saved_cache.json")
            saved = client.save_cache(target)
            assert saved["entries"] == 1
        with open(target) as f:
            assert len(json.load(f)["entries"]) == 1


class TestDisconnectAndDrain:
    def test_disconnect_mid_search_reaps_and_completes_waiters(
            self, serving, make_planner):
        """Regression: a socket closed between submit and result must
        not hang the coalesced local waiter, and the dead connection's
        registry entry is reaped."""
        service, server = serving(num_workers=0)
        batch = controlled_batch([4, 8])
        planner = make_planner()
        prepared_params = {
            "job": "vlm",
            "signature_version": SIGNATURE_VERSION,
            "block": True,
        }
        prepared_params.update(batch_to_dict(batch))
        sock = raw_socket(server)
        send_frame(sock, request_envelope(1, "submit", prepared_params))
        # Wait until the remote submit is queued (the leader)...
        deadline = time.monotonic() + 30
        while not server.inflight_requests() and time.monotonic() < deadline:
            time.sleep(0.005)
        assert server.inflight_requests(), "remote submit never registered"
        # ...coalesce a local waiter onto it, then kill the client.
        waiter = service.submit("vlm", batch)
        assert service.queue_depth == 1  # waiter coalesced on the leader
        sock.close()
        service.step()
        # The leader's search completed the local waiter.
        result = waiter.result(timeout=30)
        assert result.total_ms > 0
        assert waiter.outcome == OUTCOME_COALESCED
        # The dead connection's entry is reaped and the disconnect
        # counted (handler notices when its response write fails).
        while server.inflight_requests() and time.monotonic() < deadline:
            time.sleep(0.005)
        assert not server.inflight_requests()
        while (server.remote.snapshot()["connections_active"]
               and time.monotonic() < deadline):
            time.sleep(0.005)
        remote_stats = server.remote.snapshot()
        assert remote_stats["disconnects_mid_request"] == 1
        assert remote_stats["connections_active"] == 0

    def test_close_drains_inflight_request(self, serving, make_planner):
        """Server close waits for the in-flight plan and delivers it.

        The search is gated on an event so the request is *provably*
        in flight when close() starts draining — no timing window.
        """
        service, server = serving(num_workers=1)
        job_planner = service.job("vlm").planner
        gate = threading.Event()
        original_search = job_planner.searcher.search

        def gated_search(*args, **kwargs):
            assert gate.wait(30), "close() never released the gate"
            return original_search(*args, **kwargs)

        job_planner.searcher.search = gated_search
        batch = controlled_batch([5, 7])
        outcome = {}

        def drive():
            remote = FleetClient([server.address], "vlm", 0, [batch],
                                 planner=make_planner(), timeout_s=60)
            remote.run()
            outcome["records"] = list(remote.records)
            outcome["errors"] = list(remote.errors)
            remote.close()

        thread = threading.Thread(target=drive)
        thread.start()
        deadline = time.monotonic() + 30
        while not server.inflight_requests() and time.monotonic() < deadline:
            time.sleep(0.005)
        assert server.inflight_requests(), "submit never went in flight"
        closer = threading.Thread(target=server.close,
                                  kwargs={"timeout": 30})
        closer.start()
        gate.set()  # close() is now draining; let the search finish
        closer.join(timeout=60)
        assert not closer.is_alive(), "server.close() wedged"
        thread.join(timeout=60)
        assert not thread.is_alive()
        # The in-flight request was drained, not dropped: the client got
        # its plan — never a half-delivered state.
        assert outcome["records"], outcome
        assert not outcome["errors"]

    def test_clean_client_close_is_not_mid_request(self, serving):
        _service, server = serving()
        client = PlanServiceClient(server.address)
        client.ping()
        client.close()
        deadline = time.monotonic() + 10
        while (server.remote.snapshot()["connections_active"]
               and time.monotonic() < deadline):
            time.sleep(0.005)
        stats = server.remote.snapshot()
        assert stats["disconnects_mid_request"] == 0
        assert stats["connections_closed"] == 1


class TestFleetDriveOneServer:
    """``repro fleet drive --address`` is the wire client for a plain
    ``repro serve`` server too, ``--save-cache`` included."""

    @pytest.fixture
    def vlm_s_server(self, tmp_path):
        from repro.cli import _setup

        started = []

        def start(cache_path=None):
            service = PlanService(num_workers=1)
            service.register_job("VLM-S",
                                 planner=_setup("VLM-S", 4, 0)[3])
            server = PlanServiceServer(
                service, uds=str(tmp_path / f"s{len(started)}.sock"),
                cache_path=cache_path)
            started.append((service, server))
            return server

        yield start
        for service, server in started:
            server.close(timeout=10.0)
            service.close()

    @staticmethod
    def drive(server, *flags):
        from repro.cli import main

        return main(["fleet", "drive", "VLM-S", "--address", server.address,
                     "--replicas", "1", "--iterations", "1",
                     "--microbatches", "2", "--budget", "4", *flags])

    def test_save_cache_and_shutdown(self, vlm_s_server, tmp_path):
        target = tmp_path / "plan_cache.json"
        server = vlm_s_server(cache_path=str(target))
        assert self.drive(server, "--save-cache", "--shutdown") == 0
        assert server.wait_closed(timeout=30)
        assert json.loads(target.read_text())["entries"]

    def test_save_cache_without_cache_path_fails(self, vlm_s_server,
                                                 capsys):
        server = vlm_s_server()
        assert self.drive(server, "--save-cache") == 1
        assert "save-cache" in capsys.readouterr().err
        assert not server.closed.is_set()
