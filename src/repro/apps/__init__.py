"""The DIY applications (§2's target list, one per Table 2 row).

- :mod:`repro.apps.chat` — the §6.2 prototype: XMPP over HTTPS with SQS
  long-polling.
- :mod:`repro.apps.email` — SMTP ingest, spam scoring, PGP-style
  encryption into S3, SES outbound.
- :mod:`repro.apps.filetransfer` — AirDrop-style private file drops.
- :mod:`repro.apps.iot` — a smart-home controller with dashboards and
  alerts.
- :mod:`repro.apps.video` — the EC2-hosted conference relay.

Each package exports a manifest factory (for the app store / deployer)
and a client class.
"""
