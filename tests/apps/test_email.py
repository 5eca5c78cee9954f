"""DIY email: ingest, spam, encryption at rest, send, user controls."""

import pytest

from repro.apps.email import EmailClient
from repro.cloud.iam import Principal
from repro.core.threatmodel import PrivacyAuditor
from repro.protocols.mime import Address, EmailMessage
from repro.protocols.smtp import SmtpClient
from repro.units import seconds


def _incoming(subject="Lunch?", body="Meet at noon.", sender="bob@example.com"):
    return EmailMessage(
        Address(sender), (Address("carol@carol.diy"),), subject, body
    ).serialize()


@pytest.fixture
def client(email_setup):
    _app, service, _keys = email_setup
    return EmailClient(service)


class TestInbound:
    def test_delivery_stores_encrypted_copy(self, provider, email_setup):
        app, service, _keys = email_setup
        provider.ses.deliver_inbound("carol.diy", _incoming())
        results = service.inbound_invocations()
        assert len(results) == 1
        assert results[0].value["spam"] is False
        stored_key = results[0].value["stored"]
        assert stored_key.startswith("inbox/")
        raw = provider.s3.get_object(
            Principal("root", None), service.mail_bucket, stored_key
        ).data
        assert b"Meet at noon." not in raw

    def test_client_reads_and_decrypts(self, provider, email_setup, client):
        provider.ses.deliver_inbound("carol.diy", _incoming())
        entries = client.fetch_folder("inbox")
        assert len(entries) == 1
        assert entries[0].message.subject == "Lunch?"
        assert entries[0].message.body == "Meet at noon."
        assert entries[0].spam_status == "No"

    def test_spam_routed_to_spam_folder(self, provider, email_setup, client):
        spam = _incoming(
            subject="FREE MONEY WINNER!!!",
            body="act now! winner! lottery! click here for $9 million wire transfer!!",
            sender="x1234567@scam.biz",
        )
        provider.ses.deliver_inbound("carol.diy", spam)
        assert client.fetch_folder("inbox") == []
        entries = client.fetch_folder("spam")
        assert len(entries) == 1
        assert entries[0].spam_status == "Yes"

    def test_spam_headers_stamped(self, provider, email_setup, client):
        provider.ses.deliver_inbound("carol.diy", _incoming())
        entry = client.fetch_folder("inbox")[0]
        assert "X-Spam-Score" in entry.message.extra_headers


class TestAttachments:
    def test_attachment_round_trips_through_the_service(self, provider, email_setup, client):
        from repro.protocols.mime import Attachment

        message = EmailMessage(
            Address("bob@example.com"), (Address("carol@carol.diy"),),
            "Paper draft", "Attached.",
            attachments=(Attachment("draft.txt", "text/plain", b"DIY hosting rocks"),),
        )
        provider.ses.deliver_inbound("carol.diy", message.serialize())
        entry = client.fetch_folder("inbox")[0]
        assert len(entry.message.attachments) == 1
        assert entry.message.attachments[0].filename == "draft.txt"
        assert entry.message.attachments[0].data == b"DIY hosting rocks"

    def test_attachment_bytes_are_ciphertext_at_rest(self, provider, email_setup, client):
        from repro.protocols.mime import Attachment

        _app, service, _keys = email_setup
        message = EmailMessage(
            Address("bob@example.com"), (Address("carol@carol.diy"),),
            "s", "b",
            attachments=(Attachment("f.bin", "application/octet-stream",
                                    b"attachment-secret-payload"),),
        )
        provider.ses.deliver_inbound("carol.diy", message.serialize())
        for _key, raw in provider.s3.raw_scan(service.mail_bucket):
            assert b"attachment-secret-payload" not in raw


class TestSmtpFrontEnd:
    def test_federated_sender_delivers_via_smtp(self, provider, email_setup, client):
        _app, service, _keys = email_setup
        server = service.smtp_server()
        reply = SmtpClient(server).send_message(
            "bob@example.com", ["carol@carol.diy"], _incoming()
        )
        assert reply.code == 250
        assert len(client.fetch_folder("inbox")) == 1

    def test_mail_for_other_domain_rejected(self, email_setup):
        _app, service, _keys = email_setup
        server = service.smtp_server()
        reply = SmtpClient(server).send_message(
            "bob@example.com", ["someone@elsewhere.org"], _incoming()
        )
        assert reply.code == 554


class TestOutbound:
    def test_send_goes_through_ses(self, provider, email_setup, client):
        message = EmailMessage(
            Address("carol@carol.diy"), (Address("bob@example.com"),),
            "Re: Lunch?", "Noon works.",
        )
        stored = client.send(message)
        assert stored.startswith("sent/")
        assert len(provider.ses.outbox) == 1
        assert provider.ses.outbox[0].recipients == ("bob@example.com",)

    def test_sent_copy_is_encrypted_and_readable(self, provider, email_setup, client):
        message = EmailMessage(
            Address("carol@carol.diy"), (Address("bob@example.com"),),
            "Secret plans", "The plans themselves.",
        )
        client.send(message)
        _app, service, _keys = email_setup
        for _key, raw in provider.s3.raw_scan(service.mail_bucket):
            assert b"The plans themselves." not in raw
        sent = client.fetch_folder("sent")
        assert sent[0].message.subject == "Secret plans"


class TestOutageQueue:
    """Sends during a regional outage queue locally and drain afterwards."""

    def test_sends_queue_through_outage_and_drain(self, provider, email_setup, client):
        provider.faults.schedule_outage(
            provider.home_region.name, provider.clock.now, seconds(20)
        )
        subjects = [f"queued {i}" for i in range(8)]
        for subject in subjects:
            message = EmailMessage(
                Address("carol@carol.diy"), (Address("bob@example.com"),), subject, "b"
            )
            assert client.send(message) is None
            provider.clock.advance(seconds(2))
        assert [m.subject for m in client.outbox] == subjects

        # Outrun the outage and the breaker's reset timeout, then drain.
        provider.clock.advance(seconds(60))
        assert client.drain_outbox() == 8
        assert client.outbox == []
        tracker = client.tracker
        # The first send's 5 failures trip the breaker; the other 7 are
        # refused without an attempt, and every drained send is one.
        assert (tracker.attempts, tracker.failures, tracker.retries) == (13, 5, 5)
        assert tracker.failure_kinds == {"RegionUnavailable": 5}
        assert (tracker.queued, tracker.drained) == (8, 8)
        assert client.breaker.trips == 1
        sent = client.fetch_folder("sent")
        assert sorted(entry.message.subject for entry in sent) == subjects


class TestUserControls:
    def test_delete_really_deletes(self, provider, email_setup, client):
        provider.ses.deliver_inbound("carol.diy", _incoming())
        entry = client.fetch_folder("inbox")[0]
        client.delete(entry.key)
        assert client.fetch_folder("inbox") == []

    def test_export_covers_all_folders(self, provider, email_setup, client):
        provider.ses.deliver_inbound("carol.diy", _incoming())
        client.send(EmailMessage(
            Address("carol@carol.diy"), (Address("b@x.com"),), "s", "b"
        ))
        export = client.export_mailbox()
        folders = {key.split("/")[0] for key in export}
        assert folders == {"inbox", "sent"}


class TestPrivacy:
    def test_full_audit_clean(self, provider, email_setup, client):
        _app, service, _keys = email_setup
        auditor = PrivacyAuditor(provider)
        secret = "the content of a private letter"
        auditor.protect(secret.encode())
        # Note: inbound SMTP delivery itself is plaintext on the real
        # Internet (SMTP has no mandatory TLS); the DIY claim is about
        # what the *cloud* stores, so deliver and then audit storage.
        provider.ses.deliver_inbound("carol.diy", _incoming(body=secret))
        entries = client.fetch_folder("inbox")
        assert entries[0].message.body == secret
        assert auditor.findings(buckets=[service.mail_bucket]) == []
