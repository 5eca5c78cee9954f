"""DIY core: the paper's contribution.

- :mod:`repro.core.app` / :mod:`repro.core.deployment` — Figure 1's
  architecture: a serverless function + event trigger + KMS key +
  encrypted storage, wired up in one call and torn down (with data
  deletion or migration) just as easily.
- :mod:`repro.core.costmodel` — the §5/§6.1 cost analysis engine that
  regenerates Tables 1 and 2.
- :mod:`repro.core.threatmodel` — §3.3's TCB accounting and the
  checkable plaintext-containment invariant.
- :mod:`repro.core.attestation` — the SGX-style remote attestation
  sketched in §3.3/§8.2.
- :mod:`repro.core.appstore` — §8.1's one-click app store.
- :mod:`repro.core.client` — the user-side secure channel to a
  function endpoint.
"""

from repro.core.deployment import Deployer

__all__ = ["Deployer"]
