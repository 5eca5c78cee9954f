"""AirDrop-style file transfer."""

import pytest

from repro.apps.filetransfer import CHUNK_BYTES, FileTransferClient, file_transfer_manifest
from repro.core.threatmodel import PrivacyAuditor
from repro.units import MIB, ms, seconds


@pytest.fixture
def app(provider, deployer):
    return deployer.deploy(file_transfer_manifest(), owner="dana")


# Small chunks keep the pure-Python crypto fast in tests; the protocol
# is identical at the default 64 MiB chunk size.
_TEST_CHUNK = 4 * 1024


@pytest.fixture
def sender(app):
    return FileTransferClient(app, "dana", chunk_bytes=_TEST_CHUNK)


@pytest.fixture
def receiver(app):
    return FileTransferClient(app, "eli", chunk_bytes=_TEST_CHUNK)


class TestTransfer:
    def test_small_file_round_trip(self, sender, receiver):
        data = b"a tiny but precious file"
        ticket = sender.send_file("notes.txt", "eli", data)
        assert ticket.chunks == 1
        assert receiver.download(ticket) == data

    def test_multi_chunk_round_trip(self, sender, receiver):
        data = bytes(range(256)) * ((_TEST_CHUNK * 2 + 1024) // 256)
        ticket = sender.send_file("big.bin", "eli", data)
        assert ticket.chunks == 3
        assert receiver.download(ticket) == data

    def test_default_chunk_size_is_generous(self, app):
        """At the deployed 64 MiB chunk size a 1 GB file is 15 chunks."""
        client = FileTransferClient(app, "dana")
        assert -(-10**9 // client.chunk_bytes) == 15
        assert CHUNK_BYTES == 64 * 1024 * 1024

    def test_acknowledge_deletes_temporary_storage(self, provider, app, sender, receiver):
        data = bytes(2 * _TEST_CHUNK)
        ticket = sender.send_file("f.bin", "eli", data)
        receiver.download(ticket)
        deleted = receiver.acknowledge(ticket)
        assert deleted == ticket.chunks + 1  # chunks + metadata
        bucket = f"{app.instance_name}-drop"
        assert list(provider.s3.raw_scan(bucket)) == []

    def test_tickets_are_unique(self, sender):
        t1 = sender.offer("a.txt", "eli", b"x")
        t2 = sender.offer("b.txt", "eli", b"y")
        assert t1.ticket != t2.ticket

    def test_bad_offer_rejected(self, provider, app, sender):
        from repro.errors import ProtocolError
        from repro.net.http import HttpRequest

        response = sender._request(
            HttpRequest("POST", f"/{app.instance_name}/xfer/offer", {}, b'{"filename": "x"}')
        )
        assert response.status == 400

    def test_unknown_action_404(self, provider, app, sender):
        from repro.net.http import HttpRequest

        response = sender._request(
            HttpRequest("POST", f"/{app.instance_name}/xfer/frobnicate", {})
        )
        assert response.status == 404


class TestOutageQueue:
    """Chunks that cannot go out during an outage queue and drain later."""

    def test_partial_upload_drains_after_outage(self, provider, sender, receiver):
        data = bytes(range(256)) * (8 * _TEST_CHUNK // 256)
        ticket = sender.offer("big.bin", "eli", data)
        assert ticket.chunks == 8
        provider.faults.schedule_outage(
            provider.home_region.name, provider.clock.now + ms(200), seconds(20)
        )
        assert sender.upload(ticket, data) == 2
        assert [index for _t, index, _c in sender.outbox] == list(range(2, 8))

        # Outrun the outage and the breaker's reset timeout, then drain.
        provider.clock.advance(seconds(60))
        assert sender.drain_outbox() == 6
        assert sender.outbox == []
        tracker = sender.tracker
        assert (tracker.attempts, tracker.failures, tracker.retries) == (14, 5, 5)
        assert tracker.failure_kinds == {"RegionUnavailable": 5}
        assert (tracker.queued, tracker.drained) == (6, 6)
        assert sender.breaker.trips == 1
        assert receiver.download(ticket) == data


class TestMemoryBuffering:
    def test_chunks_tracked_in_function_memory(self, provider, app):
        """The 1024 MB allocation exists to buffer chunks (§6.1)."""
        client = FileTransferClient(app, "dana", chunk_bytes=MIB)
        data = bytes(MIB)
        client.send_file("f.bin", "eli", data)
        name = f"{app.instance_name}-handler"
        peaks = provider.lambda_.metrics.get(f"{name}.peak_memory_mb")
        base = peaks.min()
        assert peaks.max() >= base + 1  # the 1 MiB chunk passed through memory


class TestPrivacy:
    def test_chunks_encrypted_at_rest(self, provider, app, sender):
        secret = b"PDF-of-the-secret-contract" * 1000
        sender.send_file("contract.pdf", "eli", secret)
        bucket = f"{app.instance_name}-drop"
        for _key, raw in provider.s3.raw_scan(bucket):
            assert b"secret-contract" not in raw

    def test_full_audit_clean(self, provider, app, sender, receiver):
        auditor = PrivacyAuditor(provider)
        secret = b"the secret file body 9000"
        auditor.protect(secret)
        ticket = sender.send_file("s.bin", "eli", secret)
        assert receiver.download(ticket) == secret
        assert auditor.findings(buckets=[f"{app.instance_name}-drop"]) == []
