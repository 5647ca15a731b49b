"""The experiment service: payload validation, jobs, HTTP round-trips, cache."""

import gc
import json
import re
import socket
import sqlite3
import threading
import time
import urllib.error
import urllib.request
import warnings

import pytest

from repro.api.campaign import CampaignRequest
from repro.service import ExperimentService, Job, JobError, make_server, serve_forever
from repro.service import jobs as jobs_module
from repro.service import server as server_module
from repro.service.jobs import MAX_INLINE_SPECS, JobTooLarge
from repro.store import ResultStore


@pytest.fixture()
def service(tmp_path):
    service = ExperimentService(
        store=ResultStore(str(tmp_path / "store")),
        out_dir=str(tmp_path / "artifacts"),
        parallel=False,
    )
    yield service
    service.close()


@pytest.fixture()
def server(service):
    server = make_server("127.0.0.1", 0, service)
    serve_forever(server, ready_line=False, in_thread=True)
    yield server
    server.shutdown()


def base_url(server):
    host, port = server.server_address[0], server.server_address[1]
    return f"http://{host}:{port}"


def request(server, method, path, body=None):
    data = json.dumps(body).encode("utf-8") if body is not None else None
    req = urllib.request.Request(
        base_url(server) + path,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestPayloadValidation:
    def test_unknown_field(self, service):
        with pytest.raises(JobError, match="unknown payload field"):
            service.submit({"experimnt": "e01"})

    def test_unknown_experiment(self, service):
        with pytest.raises(JobError, match="unknown experiment"):
            service.submit({"experiment": "e99"})

    def test_unknown_engine(self, service):
        with pytest.raises(JobError, match="unknown engine"):
            service.submit({"experiment": "e01", "engine": "warp"})

    def test_unknown_scale(self, service):
        with pytest.raises(JobError, match="no scale"):
            service.submit({"experiment": "e01", "scale": "galactic"})

    def test_needs_exactly_one_of_experiments_or_spec(self, service):
        with pytest.raises(JobError, match="exactly one"):
            service.submit({})
        with pytest.raises(JobError, match="exactly one"):
            service.submit({"experiment": "e01", "spec": {"name": "x"}})

    def test_invalid_inline_spec(self, service):
        with pytest.raises(JobError, match="invalid experiment spec"):
            service.submit({"spec": {"name": "x", "bogus_field": 1}})

    @pytest.mark.parametrize(
        "patch, message",
        [
            ({"base": {"protocol": "floding"}}, "unknown protocol 'floding'"),
            ({"axes": {"scheduler": ["fifo", "lifoo"]}}, "unknown scheduler 'lifoo'"),
            ({"axes": {"@t": [{"graph_transforms": ["with-dead-end"]}]}}, "'with-dead-end'"),
            ({"base": {"graph": "random-tree"}}, "unknown graph 'random-tree'"),
        ],
        ids=["protocol", "scheduler-axis", "transform-patch", "graph"],
    )
    def test_typo_in_inline_spec_is_rejected_before_a_job(self, service, patch, message):
        spec = {
            "name": "typo",
            "base": {
                "graph": "random-grounded-tree",
                "graph_params": {"num_internal": 6},
                "protocol": "tree-broadcast",
            },
            "axes": {"seed": [0, 1]},
        }
        for key, value in patch.items():
            spec[key] = {**spec[key], **value}
        with pytest.raises(JobError, match=rf"{message}; registered: "):
            service.submit({"spec": spec})
        assert service.jobs() == []

    def test_non_dict_payload(self, service):
        with pytest.raises(JobError, match="JSON object"):
            service.submit(["e01"])

    @pytest.mark.parametrize(
        "spec, missing",
        [
            ({}, "experiment field(s): name"),
            ({"name": "x", "base": {"protocol": "flooding"}}, "spec field(s): graph"),
        ],
        ids=["no-name", "base-no-graph"],
    )
    def test_missing_required_spec_fields(self, service, spec, missing):
        with pytest.raises(JobError, match=rf"missing required {re.escape(missing)}"):
            service.submit({"spec": spec})
        assert service.jobs() == []

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"experiment": "e01", "engine": ["a"]}, "engine must be a string"),
            ({"experiments": [["e01"]]}, "experiment names must be strings"),
            ({"experiments": [{"a": 1}]}, "experiment names must be strings"),
            ({"experiment": ["e01"]}, "experiment names must be strings"),
        ],
        ids=["engine-list", "name-list", "name-dict", "experiment-list"],
    )
    def test_non_string_names(self, service, payload, message):
        with pytest.raises(JobError, match=message):
            service.submit(payload)
        assert service.jobs() == []


class TestJobLifecycle:
    def test_submit_run_result(self, service):
        job, created = service.submit({"experiment": "e01", "quick": True})
        assert created
        assert job.wait(timeout=120)
        assert job.state == "completed"
        snap = job.snapshot()
        assert snap["progress"]["done"] == snap["progress"]["total"] > 0
        assert snap["summary"]["executed"] == snap["summary"]["total_specs"]
        result = job.result_payload()
        assert result["experiments"][0]["name"] == "e01"
        assert result["experiments"][0]["rows"]

    def test_active_duplicate_payload_dedupes(self, service):
        job1, created1 = service.submit({"experiment": "e01", "quick": True})
        job2, created2 = service.submit({"experiment": "e01", "quick": True})
        # either the first job is still active (same job returned) or it
        # finished before the resubmit (a fresh job); both are correct
        if not created2:
            assert job2.id == job1.id
        assert job1.wait(timeout=120) and job2.wait(timeout=120)

    def test_completed_resubmit_is_new_job_served_from_store(self, service):
        job1, _ = service.submit({"experiment": "e01", "quick": True})
        assert job1.wait(timeout=120) and job1.state == "completed"
        job2, created = service.submit({"experiment": "e01", "quick": True})
        assert created and job2.id != job1.id
        assert job2.wait(timeout=120) and job2.state == "completed"
        assert job1.snapshot()["summary"]["rows_cached"] == 0
        summary = job2.snapshot()["summary"]
        assert summary["executed"] == 0
        assert summary["store_hits"] == summary["total_specs"] > 0
        assert summary["store_hit_rate"] == 1.0
        assert summary["rows_cached"] == 1
        # rows identical across cold and warm jobs
        assert job2.result_payload()["experiments"] == (
            job1.result_payload()["experiments"]
        )

    def test_summary_has_the_cli_vocabulary(self, service, tmp_path):
        import io

        from repro.cli import main

        job, _ = service.submit({"experiment": "e01", "quick": True})
        assert job.wait(timeout=120) and job.state == "completed"
        summary = job.snapshot()["summary"]
        stream = io.StringIO()
        argv = ["experiment", "e01", "--quick", "--serial", "--store", str(tmp_path / "cli")]
        assert main(argv, stream=stream) == 0
        (line,) = [
            l for l in stream.getvalue().splitlines() if l.startswith("EXPERIMENT_SUMMARY ")
        ]
        printed = json.loads(line[len("EXPERIMENT_SUMMARY ") :])
        assert set(summary) == set(printed)
        for key in ("total_specs", "executed", "batched_groups", "batch_fallbacks"):
            assert summary[key] == printed[key], key

    def test_inline_spec_payload(self, service):
        job, _ = service.submit(
            {
                "spec": {
                    "name": "inline-sweep",
                    "base": {
                        "graph": "random-grounded-tree",
                        "graph_params": {"num_internal": 6},
                        "protocol": "tree-broadcast",
                    },
                    "axes": {"seed": [0, 1]},
                }
            }
        )
        assert job.wait(timeout=120) and job.state == "completed"
        assert job.snapshot()["summary"]["total_specs"] == 2

    def test_watch_ends_with_terminal_snapshot(self, service):
        job, _ = service.submit({"experiment": "e01", "quick": True})
        snapshots = list(service.watch(job.id))
        assert snapshots[-1]["state"] == "completed"
        versions = [snap["version"] for snap in snapshots]
        assert versions == sorted(versions)

    def test_watch_ends_terminal_when_job_finishes_mid_snapshot(self, service):
        job = Job(
            id="race",
            experiments=["e01"],
            scale="quick",
            engine=None,
            created_at=0.0,
            state="running",
        )
        take_snapshot = job.snapshot

        def snapshot_then_finish():
            snap = take_snapshot()
            if snap["state"] == "running":
                with job._cond:
                    job.state = "completed"
                    job._bump()
            return snap

        job.snapshot = snapshot_then_finish
        service._jobs[job.id] = job
        assert [snap["state"] for snap in service.watch(job.id)] == ["running", "completed"]


class TestHttpRoundTrip:
    def test_full_round_trip(self, server):
        status, health = request(server, "GET", "/healthz")
        assert status == 200 and health["ok"]

        status, snap = request(
            server, "POST", "/experiments", {"experiment": "e01", "quick": True}
        )
        assert status == 202 and snap["created"]
        job_id = snap["job"]

        # the watch stream is close-delimited NDJSON ending in the terminal state
        with urllib.request.urlopen(
            base_url(server) + f"/experiments/{job_id}?watch=1", timeout=120
        ) as resp:
            lines = [json.loads(line) for line in resp]
        assert lines[-1]["state"] == "completed"

        status, result = request(server, "GET", f"/experiments/{job_id}/result")
        assert status == 200
        assert result["experiments"][0]["rows"]

        status, listing = request(server, "GET", "/experiments")
        assert status == 200 and len(listing["jobs"]) == 1

        status, stats = request(server, "GET", "/store/stats")
        assert status == 200 and stats["records"] > 0

    def test_resubmit_served_from_cache(self, server):
        _, snap1 = request(
            server, "POST", "/experiments", {"experiment": "e01", "quick": True}
        )
        with urllib.request.urlopen(
            base_url(server) + f"/experiments/{snap1['job']}?watch=1", timeout=120
        ) as resp:
            resp.read()  # drain to completion
        status, snap2 = request(
            server, "POST", "/experiments", {"experiment": "e01", "quick": True}
        )
        assert status == 202
        with urllib.request.urlopen(
            base_url(server) + f"/experiments/{snap2['job']}?watch=1", timeout=120
        ) as resp:
            final = [json.loads(line) for line in resp][-1]
        assert final["state"] == "completed"
        assert final["summary"]["executed"] == 0
        assert final["summary"]["store_hit_rate"] == 1.0

    def test_error_statuses(self, server):
        assert request(server, "POST", "/experiments", {"nope": 1})[0] == 400
        assert request(server, "GET", "/experiments/zzz")[0] == 404
        assert request(server, "GET", "/experiments/zzz/result")[0] == 404
        assert request(server, "GET", "/nowhere")[0] == 404
        assert request(server, "POST", "/nowhere", {})[0] == 404

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_bad_content_length_is_400(self, service, server, length):
        host, port = server.server_address[0], server.server_address[1]
        with socket.create_connection((host, port), timeout=30) as sock:
            sock.sendall(
                (
                    "POST /experiments HTTP/1.0\r\n"
                    "Content-Type: application/json\r\n"
                    f"Content-Length: {length}\r\n\r\n{{}}"
                ).encode("ascii")
            )
            sock.shutdown(socket.SHUT_WR)
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.split(b"\r\n")[0].split()[1] == b"400", reply
        error = json.loads(body)["error"]
        assert "Content-Length" in error and repr(length) in error
        assert service.jobs() == []
        # the server keeps answering
        assert request(server, "GET", "/healthz")[0] == 200

    def test_oversized_body_is_413_without_reading(self, service, server):
        """A declared body over the 1 MiB cap is refused before it is read:
        the reply comes although the body is never sent."""
        host, port = server.server_address[0], server.server_address[1]
        with socket.create_connection((host, port), timeout=3) as sock:
            sock.sendall(
                (
                    "POST /experiments HTTP/1.0\r\n"
                    "Content-Type: application/json\r\n"
                    "Content-Length: 2097152\r\n\r\n"
                ).encode("ascii")
            )
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.split(b"\r\n")[0].split()[1] == b"413", reply
        assert "exceeds the 1048576-byte limit" in json.loads(body)["error"]
        assert service.jobs() == []
        assert request(server, "GET", "/healthz")[0] == 200

    def test_typo_in_inline_spec_is_400(self, service, server):
        spec = {
            "name": "typo",
            "base": {"graph": "random-grounded-tree", "protocol": "floding"},
            "axes": {"graph_params.num_internal": [6], "seed": [0, 1]},
        }
        status, body = request(server, "POST", "/experiments", {"spec": spec})
        assert status == 400
        assert "unknown protocol 'floding'; registered: " in body["error"]
        assert "flooding" in body["error"]
        assert service.jobs() == []

    @pytest.mark.parametrize(
        "payload",
        [
            {"spec": {}},
            {"spec": {"name": "x", "base": {"protocol": "flooding"}}},
            {"engine": ["a"]},
            {"experiments": [["e01"]]},
            {"experiments": [{"a": 1}]},
            {"experiment": ["e01"]},
        ],
        ids=[
            "spec-empty",
            "spec-base-no-graph",
            "engine-list",
            "name-list",
            "name-dict",
            "experiment-list",
        ],
    )
    def test_malformed_payload_is_400(self, service, server, payload):
        status, body = request(server, "POST", "/experiments", payload)
        assert status == 400
        assert body["error"]
        assert service.jobs() == []

    def test_result_before_completion_is_409(self, service, server):
        # submit a job and probe /result in the narrow window before it
        # finishes; if it already finished, the 200 path is equally valid —
        # assert only that the contract's statuses appear
        _, snap = request(
            server, "POST", "/experiments", {"experiment": "e01", "quick": True}
        )
        status, body = request(server, "GET", f"/experiments/{snap['job']}/result")
        assert status in (200, 409)
        if status == 409:
            assert "not completed" in body["error"]
        service.get(snap["job"]).wait(timeout=120)


def raw_request(server, data):
    """Send raw bytes, half-close, and return ``(status, JSON body)``."""
    host, port = server.server_address[0], server.server_address[1]
    with socket.create_connection((host, port), timeout=30) as sock:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    status_line = head.split(b"\r\n")[0]
    assert status_line.startswith(b"HTTP/1.0 "), reply[:200]
    return int(status_line.split()[1]), json.loads(body)


class TestMalformedRequests:
    """Every non-2xx body is JSON, and the server keeps answering."""

    @pytest.mark.parametrize(
        "data, status, message",
        [
            (b"PUT /experiments HTTP/1.0\r\nContent-Length: 2\r\n\r\n{}", 405, "PUT"),
            (b"DELETE /experiments/x HTTP/1.0\r\n\r\n", 405, "DELETE"),
            (b"GARBAGE\r\n\r\n", 400, "malformed request line"),
            (b"GET / HTTP/1.0\r\nX-Big: " + b"a" * 70_000 + b"\r\n\r\n", 431, "header line"),
            (b"GET /" + b"a" * 70_000 + b" HTTP/1.0\r\n\r\n", 414, "request line"),
            (b"GET /healthz HTTP/1.0\r\nno colon here\r\n\r\n", 400, "malformed header"),
            (b"GET /healthz HTTP/1.0\r\n" + b"X: y\r\n" * 101 + b"\r\n", 431, "header lines"),
            (b"POST /experiments HTTP/1.0\r\nContent-Length: 10\r\n\r\n{}", 400, "body ended"),
            (b"POST /experiments HTTP/1.0\r\nContent-Length: 3\r\n\r\n{x}", 400, "not valid JSON"),
        ],
        ids=[
            "put",
            "delete",
            "garbage",
            "long-header",
            "long-request-line",
            "header-without-colon",
            "too-many-headers",
            "short-body",
            "bad-json",
        ],
    )
    def test_json_error_then_still_serving(self, service, server, data, status, message):
        got, body = raw_request(server, data)
        assert got == status, body
        assert message in body["error"]
        assert service.jobs() == []
        assert request(server, "GET", "/healthz")[0] == 200

    def test_oversized_body_sent_anyway_still_gets_413(self, service, server):
        """The refused body is drained, not reset away before the reply."""
        for _ in range(5):
            req = urllib.request.Request(
                base_url(server) + "/experiments", data=b"x" * (2 << 20), method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(req, timeout=30)
            assert info.value.code == 413
            assert "exceeds the 1048576-byte limit" in json.loads(info.value.read())["error"]
        assert service.jobs() == []

    def test_server_fault_is_500_json(self, service, server, monkeypatch, capfd):
        def broken():
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(service.store, "stats", broken)
        status, body = request(server, "GET", "/store/stats")
        assert status == 500 and body["error"] == "RuntimeError: disk on fire"
        assert "disk on fire" in capfd.readouterr().err  # the traceback
        assert request(server, "GET", "/experiments")[0] == 200

    def test_put_through_urllib_is_405(self, server):
        status, body = request(server, "PUT", "/experiments", {"experiment": "e01"})
        assert status == 405 and "PUT" in body["error"]

    @pytest.mark.parametrize("sent", [b"", b"GET /healthz HTTP/1.0\r\n"], ids=["silent", "half-head"])
    def test_idle_client_gets_408(self, server, monkeypatch, sent):
        """A head not complete within the deadline is answered and closed."""
        monkeypatch.setattr(server_module, "REQUEST_HEAD_SECONDS", 0.2)
        host, port = server.server_address[0], server.server_address[1]
        with socket.create_connection((host, port), timeout=30) as sock:
            sock.sendall(sent)
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.0 408 Request Timeout\r\n"), reply[:200]
        assert json.loads(body) == {"error": "request head not received within 0.2 s"}
        assert request(server, "GET", "/healthz")[0] == 200

    def test_silent_client_gets_no_reply(self, server):
        host, port = server.server_address[0], server.server_address[1]
        with socket.create_connection((host, port), timeout=30) as sock:
            sock.shutdown(socket.SHUT_WR)
            assert sock.recv(4096) == b""
        assert request(server, "GET", "/healthz")[0] == 200


def grid_spec(seeds, sizes=(6,)):
    return {
        "name": "grid",
        "base": {"graph": "random-grounded-tree", "protocol": "tree-broadcast"},
        "axes": {"graph_params.num_internal": list(sizes), "seed": list(seeds)},
    }


class TestInlineGridCap:
    def test_oversized_grid_is_413_before_expansion(self, service, server):
        spec = grid_spec(range(10_000), sizes=range(10_000))
        start = time.perf_counter()
        status, body = request(server, "POST", "/experiments", {"spec": spec})
        elapsed = time.perf_counter() - start
        assert status == 413, body
        assert body["error"].count("\n") == 0
        assert "100000000 runs exceeds the 10000-run limit" in body["error"]
        assert elapsed < 1.0, elapsed  # 10^8 specs were never built
        assert service.jobs() == []
        assert request(server, "GET", "/healthz")[0] == 200

    def test_cap_is_the_module_constant(self, service, monkeypatch):
        assert MAX_INLINE_SPECS == 10_000
        monkeypatch.setattr(jobs_module, "MAX_INLINE_SPECS", 2)
        payload = {"spec": grid_spec(range(3))}
        with pytest.raises(JobTooLarge, match="3 runs exceeds the 2-run limit"):
            service.submit(payload)
        assert service.jobs() == []
        # the CLI's parse (no cap) takes the same grid
        assert CampaignRequest.parse(payload).experiments[0].size() == 3

    def test_scale_is_applied_before_the_cap(self, service, monkeypatch):
        monkeypatch.setattr(jobs_module, "MAX_INLINE_SPECS", 2)
        spec = {**grid_spec(range(3)), "scales": {"quick": {"seed": [0, 1]}}}
        job, created = service.submit({"spec": spec, "quick": True})
        assert created and job.wait(timeout=120) and job.state == "completed"
        assert job.snapshot()["summary"]["total_specs"] == 2


@pytest.fixture()
def hold(monkeypatch):
    """Hold every job mid-run (state ``running``) until the event is set."""
    release = threading.Event()

    class HeldRunner(jobs_module.CampaignRunner):
        def run(self, experiment, *args, **kwargs):
            assert release.wait(timeout=120), "job was never released"
            return super().run(experiment, *args, **kwargs)

    monkeypatch.setattr(jobs_module, "CampaignRunner", HeldRunner)
    yield release
    release.set()


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached"
        time.sleep(0.005)


class TestInflightDedupe:
    PAYLOAD = {"spec": grid_spec(range(2))}
    OTHER = {"spec": grid_spec(range(2, 4))}

    def test_running_and_pending_duplicates_dedupe(self, service, hold):
        running, created = service.submit(self.PAYLOAD)
        assert created
        wait_until(lambda: running.state == "running")
        pending, created = service.submit(self.OTHER)  # one job worker: queued
        assert created and pending.state == "pending"
        assert service.submit(self.PAYLOAD) == (running, False)
        assert service.submit(self.OTHER) == (pending, False)
        hold.set()
        assert running.wait(timeout=120) and pending.wait(timeout=120)
        assert service._inflight == {}

    def test_completed_job_is_never_returned(self, service):
        first, _ = service.submit(self.PAYLOAD)
        assert first.wait(timeout=120) and first.state == "completed"
        second, created = service.submit(self.PAYLOAD)
        assert created and second is not first
        assert second.wait(timeout=120)
        assert service._inflight == {}
        assert len(service.jobs()) == 2

    def test_failed_job_leaves_the_index(self, service, monkeypatch):
        def explode(self, experiment):
            raise RuntimeError("boom")

        monkeypatch.setattr(jobs_module.CampaignRunner, "run", explode)
        job, _ = service.submit(self.PAYLOAD)
        assert job.wait(timeout=120) and job.state == "failed"
        assert service._inflight == {}


class TestEventLoop:
    """The loop never waits on a job, and starts no thread per connection."""

    def test_held_job_does_not_stall_the_server(self, service, server, hold, capfd, caplog):
        host, port = server.server_address[0], server.server_address[1]
        _, snap = request(server, "POST", "/experiments", {"spec": grid_spec(range(2))})
        job = service.get(snap["job"])
        wait_until(lambda: job.state == "running")
        threads = threading.active_count()

        # several open watch streams on the held job, each past its first line
        watchers = []
        for _ in range(4):
            sock = socket.create_connection((host, port), timeout=30)
            sock.sendall(f"GET /experiments/{job.id}?watch=1 HTTP/1.0\r\n\r\n".encode())
            stream = sock.makefile("rb")
            assert stream.readline().split()[1] == b"200"
            while stream.readline() != b"\r\n":
                pass
            assert json.loads(stream.readline())["state"] == "running"
            watchers.append((sock, stream))
        wait_until(lambda: len(job._wakers) == len(watchers))

        # a second client is answered meanwhile, with no thread per request
        peak = threads
        for index in range(200):
            if index % 50 == 0:
                status, other = request(
                    server, "POST", "/experiments", {"spec": grid_spec(range(10 + index, 12 + index))}
                )
                assert status == 202 and other["state"] == "pending"
            else:
                assert request(server, "GET", "/healthz")[0] == 200
            peak = max(peak, threading.active_count())
        assert peak <= threads
        assert job.state == "running"

        # a client hanging up mid-watch removes its waker, quietly
        sock, stream = watchers.pop()
        stream.close()
        sock.close()
        wait_until(lambda: len(job._wakers) == len(watchers))

        hold.set()
        for sock, stream in watchers:
            lines = [json.loads(line) for line in stream]
            assert lines[-1]["state"] == "completed"
            stream.close()
            sock.close()
        assert job.wait(timeout=120) and job._wakers == []
        for other in service.jobs():
            assert other.wait(timeout=120)
        gc.collect()
        assert capfd.readouterr().err == ""
        assert caplog.records == []

    def test_shutdown_ends_open_watch_streams(self, service, hold, capfd, caplog):
        server = make_server("127.0.0.1", 0, service)
        thread = serve_forever(server, ready_line=False, in_thread=True)
        _, snap = request(server, "POST", "/experiments", {"spec": grid_spec(range(2))})
        job = service.get(snap["job"])
        host, port = server.server_address[0], server.server_address[1]
        with socket.create_connection((host, port), timeout=30) as sock:
            sock.sendall(f"GET /experiments/{job.id}?watch=1 HTTP/1.0\r\n\r\n".encode())
            wait_until(lambda: len(job._wakers) == 1)
            server.shutdown()
            thread.join(timeout=10)
            assert not thread.is_alive()
            assert job._wakers == []
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=1).close()
        assert capfd.readouterr().err == ""
        assert caplog.records == []


def test_ending_the_service_closes_every_store_connection(tmp_path, monkeypatch):
    """The store opens one sqlite connection per thread (the constructor's,
    the event loop's for ``/healthz``, the job thread's); ending the server
    and its service must close all of them, not only the calling thread's."""
    opened = []
    connect = sqlite3.connect

    def recording_connect(*args, **kwargs):
        conn = connect(*args, **kwargs)
        opened.append(conn)
        return conn

    monkeypatch.setattr(sqlite3, "connect", recording_connect)
    service = ExperimentService(
        store=ResultStore(str(tmp_path / "store")),
        out_dir=str(tmp_path / "artifacts"),
        parallel=False,
    )
    server = make_server("127.0.0.1", 0, service)
    thread = serve_forever(server, ready_line=False, in_thread=True)
    assert request(server, "GET", "/healthz")[0] == 200
    _, snap = request(server, "POST", "/experiments", {"spec": grid_spec(range(2))})
    assert service.get(snap["job"]).wait(timeout=120)
    server.shutdown()
    thread.join(timeout=10)
    service.close()

    assert len(opened) >= 3
    for conn in opened:
        with pytest.raises(sqlite3.ProgrammingError, match="closed"):
            conn.execute("SELECT 1")
    opened.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        gc.collect()
