"""repro — a reproduction of "DIY Hosting for Online Privacy" (HotNets 2017).

Deploy It Yourself (DIY) hosts personal online applications — chat,
email, file transfer, IoT control, video conferencing — on serverless
platforms, storing only *encrypted* data outside a tiny trusted
computing base (the function's container and a key manager).

The package exports only :class:`~repro.cloud.provider.CloudProvider`
(a simulated AWS account: Lambda, S3, KMS, SQS, SES, EC2, IAM, API
gateway), :class:`~repro.units.Money`, :func:`~repro.units.usd` and
``__version__``; everything else is imported from where it lives:

- ``from repro.core import Deployer`` and ``from repro.core.app import
  DIYApp`` — one-call DIY deployment (Figure 1);
- the applications under :mod:`repro.apps` (``from repro.apps.chat
  import ChatService``, ...);
- ``from repro.core.costmodel import CostModel`` — regenerates the
  paper's cost tables;
- :mod:`repro.tcb` and :mod:`repro.core.threatmodel` — the checkable
  privacy invariants.

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured results.
"""

from repro._version import __version__
from repro.cloud.provider import CloudProvider
from repro.units import Money, usd

__all__ = ["__version__", "CloudProvider", "Money", "usd"]
