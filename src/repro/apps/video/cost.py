"""Video-call cost arithmetic (§6.1's two claims).

Two published numbers, each with its own accounting (documented in
EXPERIMENTS.md):

- "$0.11 for an hour-long HD call": one hour of t2.medium plus the
  *outbound* half of the 3 Mbps relay traffic, no free-tier offset.
- Table 2's "$0.84/month": per-call compute ($0.01 ≈ 15 min of
  t2.medium) plus monthly storage (1 GB) and ~10 GB/month of transfer
  with the first GB free.

Both price through :class:`~repro.cloud.billing.Invoice` at the 2017
price book.
"""

from __future__ import annotations

from repro.cloud.billing import BillingMeter, Invoice, UsageKind
from repro.cloud.pricing import PRICES_2017
from repro.core.costmodel import CostEstimate, CostModel, VIDEO_WORKLOAD
from repro.units import Money

__all__ = ["HD_CALL_MBPS", "hd_call_transfer_gb", "hd_call_cost", "monthly_video_cost"]

# "we assume Skype's recommended bandwidth of 3 Mbps for HD video calls"
HD_CALL_MBPS = 3.0


def hd_call_transfer_gb(call_minutes: float, mbps: float = HD_CALL_MBPS) -> float:
    """Total GB relayed during a call at the given stream rate."""
    return mbps * 1e6 / 8 * call_minutes * 60 / 1e9


def hd_call_cost(call_minutes: float = 60.0) -> Money:
    """One call's cost: per-second instance billing + outbound transfer."""
    meter = BillingMeter()
    meter.record(UsageKind.EC2_INSTANCE_SECONDS, call_minutes * 60, VIDEO_WORKLOAD.instance_type)
    # Half the relayed bytes leave the cloud.
    meter.record(UsageKind.TRANSFER_OUT_GB, hd_call_transfer_gb(call_minutes) / 2)
    return Invoice(meter, PRICES_2017, apply_free_tier=False).total()


def monthly_video_cost() -> CostEstimate:
    """Table 2's video row: one 15-minute call per day."""
    return CostModel().estimate_vm(VIDEO_WORKLOAD)
