"""ScheduleCertificate round-trips, independent replay, tamper detection."""

import json
import os
import shutil

import pytest

from repro.api.spec import RunSpec, ensure_registered
from repro.lowerbounds.certificates import (
    CertificateError,
    ScheduleCertificate,
    load_certificate,
    search_and_certify,
    store_certificate,
    verify_certificate,
)


@pytest.fixture(scope="module")
def certified():
    ensure_registered()
    spec = RunSpec(
        graph="random-dag",
        graph_params={"num_internal": 3, "seed": 0},
        protocol="general-broadcast",
        seed=0,
    )
    result, certificate = search_and_certify(
        spec, objective="max-steps", max_nodes=50_000
    )
    assert certificate is not None
    return result, certificate


class TestRoundTrip:
    def test_json_round_trip_is_lossless(self, certified):
        _, cert = certified
        again = ScheduleCertificate.from_json(cert.to_json())
        assert again.to_dict() == cert.to_dict()
        assert again.cert_id == cert.cert_id

    def test_digest_is_stable_and_excludes_itself(self, certified):
        _, cert = certified
        payload = cert.to_dict()
        assert payload["digest"] == cert.digest()
        # The digest covers everything *except* the digest field.
        loaded = ScheduleCertificate.from_dict(payload)
        assert loaded.digest() == payload["digest"]

    def test_malformed_json_raises_certificate_error(self):
        with pytest.raises(CertificateError):
            ScheduleCertificate.from_json("not json at all {")
        with pytest.raises(CertificateError):
            ScheduleCertificate.from_json("[1, 2, 3]")
        with pytest.raises(CertificateError):
            ScheduleCertificate.from_dict({"workload": {}})

    def test_store_and_load(self, certified, tmp_path):
        _, cert = certified
        path = store_certificate(str(tmp_path), cert)
        assert path.endswith(f"{cert.cert_id}.json")
        assert "schedules" in path
        loaded = load_certificate(path)
        assert loaded.to_dict() == cert.to_dict()
        # Content-addressed: storing again re-writes the same file.
        assert store_certificate(str(tmp_path), cert) == path

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(CertificateError):
            load_certificate(str(tmp_path / "nope.json"))


class TestVerification:
    def test_fresh_certificate_verifies(self, certified):
        result, cert = certified
        report = verify_certificate(cert)
        assert report.ok, report.failures
        assert report.replayed_steps == cert.steps == result.best_depth
        assert report.replayed_bits == cert.total_bits
        assert report.replayed_outcome == cert.outcome
        assert "CERTIFICATE OK" in report.summary()

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda d: d.__setitem__("steps", d["steps"] + 1),
            lambda d: d.__setitem__("total_bits", d["total_bits"] + 1),
            lambda d: d.__setitem__("outcome", "quiescent"),
            lambda d: d["deliveries"].pop(),
            lambda d: d["deliveries"].__setitem__(
                0, [d["deliveries"][0][0], "Bogus()"]
            ),
            lambda d: d["deliveries"].reverse(),
        ],
        ids=["steps", "bits", "outcome", "drop", "payload", "reorder"],
    )
    def test_tampering_fails_verification(self, certified, tamper):
        _, cert = certified
        payload = cert.to_dict()
        tamper(payload)
        report = verify_certificate(ScheduleCertificate.from_dict(payload))
        assert not report.ok
        # Every tamper also breaks the digest — but ok must be False even
        # for the replay/claim reasons alone, which the failures list shows.
        assert any("digest mismatch" in f for f in report.failures)
        assert "CERTIFICATE FAILED" in report.summary()

    def test_recomputed_digest_does_not_whitewash_tampering(self, certified):
        # An attacker who edits a claim AND fixes the digest must still
        # fail: the replay itself contradicts the claim.
        _, cert = certified
        payload = cert.to_dict()
        payload["steps"] += 1
        payload.pop("digest")
        forged = ScheduleCertificate.from_dict(payload)
        assert forged.stored_digest is None  # self-consistent again
        report = verify_certificate(forged)
        assert not report.ok
        assert any("steps" in f for f in report.failures)

    def test_certificate_with_shards_provenance_still_verifies(self, certified):
        """Certificates issued while the search could shard its frontier
        carry ``search.shards``; they load and verify unchanged, and only
        that key separates them from a fresh certificate of the same
        workload."""
        path = os.path.join(os.path.dirname(__file__), "certificate_with_shards.json")
        old = load_certificate(path)
        assert old.search["shards"] == 0
        report = verify_certificate(old)
        assert report.ok, report.failures
        _, fresh = certified
        assert "shards" not in fresh.search
        assert fresh.cert_id != old.cert_id
        stripped = {key: value for key, value in old.search.items() if key != "shards"}
        assert fresh.search == stripped
        assert fresh.deliveries == old.deliveries
        assert (fresh.steps, fresh.total_bits) == (old.steps, old.total_bits)

    def test_unknown_workload_is_a_verification_failure(self, certified):
        _, cert = certified
        payload = cert.to_dict()
        payload["workload"]["graph"] = "no-such-graph"
        report = verify_certificate(ScheduleCertificate.from_dict(payload))
        assert not report.ok
        assert any("rebuild" in f for f in report.failures)


class TestCampaignE19:
    def test_quick_campaign_certificates_all_verify(self, tmp_path):
        """Satellite: every certificate e19 --quick emits round-trips
        through JSON and replays to its claimed step count and outcome."""
        from repro.api.campaign import CampaignRunner
        from repro.store import ResultStore

        ensure_registered()
        store = ResultStore(str(tmp_path / "store"))
        runner = CampaignRunner(scale="quick", store=store, parallel=False)
        result = runner.run("e19")
        assert result.rows
        for row in result.rows:
            assert row["certificate"] is not None
            assert row["certificate_path"] == f"schedules/{row['certificate']}.json"
            cert = load_certificate(os.path.join(store.root, row["certificate_path"]))
            assert cert.cert_id == row["certificate"]
            assert cert.to_dict() == json.loads(cert.to_json())
            report = verify_certificate(cert)
            assert report.ok, report.failures
            assert report.replayed_steps == row["worst_steps"] == cert.steps
            assert report.replayed_outcome == row["outcome"]

    def test_copied_store_serves_paths_inside_the_copy(self, tmp_path):
        """Cached e19 rows name their certificates relative to the store
        root, so a copy of a warm store resolves them inside the copy."""
        from repro.api.campaign import CampaignRunner
        from repro.store import ResultStore

        ensure_registered()
        original = tmp_path / "original"
        CampaignRunner(scale="quick", store=ResultStore(str(original))).run("e19")
        shutil.copytree(original, tmp_path / "copy")
        shutil.rmtree(original)

        copy = ResultStore(str(tmp_path / "copy"))
        result = CampaignRunner(scale="quick", store=copy).run("e19")
        assert result.rows_cached
        for row in result.rows:
            path = os.path.join(copy.root, row["certificate_path"])
            assert os.path.isfile(path)
            assert load_certificate(path).cert_id == row["certificate"]

    def test_pooled_runner_gives_the_serial_rows(self):
        from repro.api.campaign import CampaignRunner

        ensure_registered()
        serial = CampaignRunner(scale="quick", parallel=False).run("e19")
        pooled = CampaignRunner(scale="quick", parallel=True, max_workers=2).run("e19")
        assert pooled.rows == serial.rows

    def test_rows_cached_by_a_pooled_run_equal_a_fresh_serial_run(self, tmp_path):
        """The worker count is not part of the row-cache key, so the rows a
        pooled run caches must be the rows a serial run computes."""
        from repro.api.campaign import CampaignRunner
        from repro.store import ResultStore

        ensure_registered()
        store = ResultStore(str(tmp_path / "store"))
        CampaignRunner(scale="quick", parallel=True, max_workers=2, store=store).run("e19")
        cached = CampaignRunner(scale="quick", parallel=False, store=store).run("e19")
        assert cached.rows_cached
        fresh = CampaignRunner(scale="quick", parallel=False).run("e19")
        # Only a run with a store writes certificates and names their paths.
        served = [
            {key: value for key, value in row.items() if key != "certificate_path"}
            for row in cached.rows
        ]
        assert served == fresh.rows
