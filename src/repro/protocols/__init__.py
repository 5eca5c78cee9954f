"""Wire protocols the DIY applications speak.

§2's target applications come with existing federated protocols — SMTP
for email, XMPP for chat — and the paper's prototype tunnels XMPP
through HTTPS (§6.2). This package implements the protocol substrate:

- :mod:`repro.protocols.mime` — RFC 5322 messages with basic MIME
  multipart support.
- :mod:`repro.protocols.smtp` — an SMTP server state machine (the
  "message arriving at port 25" trigger of §4).
- :mod:`repro.protocols.xmpp` — XMPP stanzas (message/presence/iq).
- :mod:`repro.protocols.bosh` — the XMPP-over-HTTP binding the chat
  prototype uses.
- :mod:`repro.protocols.rtp` — RTP-style framing for the video relay.
- :mod:`repro.protocols.spam` — a SpamAssassin-style rule scorer
  (§6.1: "DIY could also support features like spam detection").
"""
