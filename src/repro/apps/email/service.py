"""Owner-side email service setup.

Publishes the owner's public key into the mail store (public material;
stored in the clear), registers the SES inbound hook for the owner's
domain, and exposes an SMTP front end so federated senders can deliver
through the classic §4 trigger ("a message arriving at port 25").
"""

from __future__ import annotations

from typing import List, Optional

from repro.apps.email.server import PUBKEY_KEY
from repro.cloud.lambda_.triggers import InboundEmailTrigger
from repro.core.app import DIYApp
from repro.crypto.keys import KeyPair
from repro.errors import ConfigurationError
from repro.protocols.smtp import SmtpServer, SmtpTransaction
from repro.runtime.owner import app_storage, owner_store

__all__ = ["EmailService_"]


class EmailService_:
    """One user's deployed email service (trailing underscore avoids
    clashing with the cloud-side :class:`repro.cloud.ses.EmailService`)."""

    def __init__(self, app: DIYApp, owner_keys: KeyPair, domain: Optional[str] = None):
        if app.manifest.app_id != "diy-email":
            raise ConfigurationError(f"not an email app: {app.manifest.app_id}")
        self.app = app
        self.provider = app.provider
        self.owner_keys = owner_keys
        self.domain = domain or f"{app.owner}.diy"

        # Publish the public key so the inbound function can encrypt to it.
        self.store().put(PUBKEY_KEY, owner_keys.public.data)
        # Register the SES → Lambda inbound hook.
        self.trigger = InboundEmailTrigger(
            self.provider.lambda_,
            f"{app.instance_name}-inbound",
            self.provider.ses,
            self.domain,
        )

    def store(self):
        """The owner-side view of the deployed mailbox store."""
        return owner_store(self.app)

    @property
    def storage(self) -> str:
        return app_storage(self.app)

    @property
    def mail_bucket(self) -> str:
        return f"{self.app.instance_name}-{self.app.manifest.store.bucket}"

    @property
    def send_route(self) -> str:
        return f"/{self.app.instance_name}/send"

    # -- the SMTP front end ------------------------------------------------

    def smtp_server(self) -> SmtpServer:
        """An SMTP session endpoint for federated senders.

        Each completed transaction is delivered through SES into the
        inbound Lambda hook; the hook's spam verdict cannot bounce the
        message at SMTP time (it has already been accepted), matching
        store-then-classify behaviour.
        """

        def deliver(transaction: SmtpTransaction) -> bool:
            accepted = False
            for recipient in transaction.recipients:
                recipient_domain = recipient.rsplit("@", 1)[-1].lower()
                if recipient_domain == self.domain:
                    self.provider.ses.deliver_inbound(recipient_domain, transaction.data)
                    accepted = True
            return accepted

        return SmtpServer(f"mx.{self.domain}", deliver)

    def inbound_invocations(self) -> List:
        """Results of every inbound-hook invocation so far."""
        return list(self.trigger.results)
