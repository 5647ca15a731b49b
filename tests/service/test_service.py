"""The experiment service: payload validation, jobs, HTTP round-trips, cache."""

import json
import re
import socket
import urllib.error
import urllib.request

import pytest

from repro.service import ExperimentService, Job, JobError, make_server, serve_forever
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
            payload={},
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
