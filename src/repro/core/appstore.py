"""The DIY app store (§8.1).

"Users may be able to install DIY applications with one click via an
'app store'-like interface ... The app store would also handle
application resources (e.g., setting up serverless functions,
configuring storage, installing keys, etc) on behalf of the user and
report their total resource consumption in a centralized UI."

:class:`AppStore` is that marketplace: developers publish audited
manifests (listings carry a review status and a sandbox policy), users
install with one call (the store drives the :class:`Deployer`), update
in place, uninstall with data deletion, and read a per-app resource
report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.cloud.provider import CloudProvider
from repro.core.app import AppManifest, DIYApp
from repro.core.attestation import measure_function
from repro.core.deployment import Deployer
from repro.errors import AppStoreError
from repro.units import Money

__all__ = ["AppListing", "InstalledApp", "AppStore"]


@dataclass(frozen=True)
class AppListing:
    """One published app version in the marketplace."""

    manifest: AppManifest
    developer: str
    reviewed: bool = False
    measurements: Tuple[bytes, ...] = ()  # per-function code hashes

    @property
    def listing_id(self) -> str:
        return f"{self.manifest.app_id}@{self.manifest.version}"


@dataclass
class InstalledApp:
    """One user's installation record."""

    app: DIYApp
    listing: AppListing
    installed_at: int


class AppStore:
    """Marketplace + installer + resource-accounting UI for one provider."""

    def __init__(self, provider: CloudProvider):
        self.provider = provider
        self._deployer = Deployer(provider)
        self._catalog: Dict[str, AppListing] = {}  # listing id → listing
        self._latest: Dict[str, str] = {}  # app id → latest version
        self._installed: Dict[Tuple[str, str], InstalledApp] = {}  # (user, app id)

    # -- publishing (the developer side) ----------------------------------

    def publish(self, manifest: AppManifest, developer: str) -> AppListing:
        """Submit an app version for listing; measured but not yet reviewed."""
        listing = AppListing(
            manifest=manifest,
            developer=developer,
            measurements=tuple(measure_function(spec.handler) for spec in manifest.functions),
        )
        if listing.listing_id in self._catalog:
            raise AppStoreError(f"{listing.listing_id} is already published")
        self._catalog[listing.listing_id] = listing
        return listing

    def review(self, listing_id: str, approve: bool = True) -> AppListing:
        """The §8.1 audit step ("as in the iOS app review process")."""
        listing = self._get_listing(listing_id)
        reviewed = AppListing(listing.manifest, listing.developer, approve, listing.measurements)
        self._catalog[listing_id] = reviewed
        if approve:
            current = self._latest.get(listing.manifest.app_id)
            if current is None or current < listing.manifest.version:
                self._latest[listing.manifest.app_id] = listing.manifest.version
        return reviewed

    def catalog(self) -> List[AppListing]:
        """What users browse: reviewed listings only."""
        return sorted(
            (l for l in self._catalog.values() if l.reviewed),
            key=lambda l: l.listing_id,
        )

    def _get_listing(self, listing_id: str) -> AppListing:
        try:
            return self._catalog[listing_id]
        except KeyError:
            raise AppStoreError(f"no such listing {listing_id!r}") from None

    def latest_listing(self, app_id: str) -> AppListing:
        version = self._latest.get(app_id)
        if version is None:
            raise AppStoreError(f"no reviewed version of {app_id!r}")
        return self._get_listing(f"{app_id}@{version}")

    # -- installing (the user side) -------------------------------------------

    def install(self, app_id: str, user: str) -> InstalledApp:
        """One-click install: deploy the latest reviewed version for ``user``."""
        listing = self.latest_listing(app_id)
        if not listing.reviewed:
            raise AppStoreError(f"{listing.listing_id} has not passed review")
        if (user, app_id) in self._installed:
            raise AppStoreError(f"{user} already has {app_id} installed")
        app = self._deployer.deploy(listing.manifest, owner=user)
        record = InstalledApp(app, listing, self.provider.clock.now)
        self._installed[(user, app_id)] = record
        return record

    def update(self, app_id: str, user: str) -> InstalledApp:
        """Update to the latest reviewed version, preserving data.

        The :class:`Deployer` replaces the old functions the same way it
        installs them; buckets, queues, and the user's key stay — an
        update must never cost the user her data.
        """
        record = self._get_installed(user, app_id)
        listing = self.latest_listing(app_id)
        if listing.manifest.version == record.listing.manifest.version:
            return record
        new_app = self._deployer.update(record.app, listing.manifest)
        updated = InstalledApp(new_app, listing, self.provider.clock.now)
        self._installed[(user, app_id)] = updated
        return updated

    def uninstall(self, app_id: str, user: str) -> None:
        """Remove the app "and any corresponding data" (§8.1)."""
        record = self._get_installed(user, app_id)
        self._deployer.teardown(record.app)
        del self._installed[(user, app_id)]

    def _get_installed(self, user: str, app_id: str) -> InstalledApp:
        try:
            return self._installed[(user, app_id)]
        except KeyError:
            raise AppStoreError(f"{user} does not have {app_id} installed") from None

    def installed_apps(self, user: str) -> List[InstalledApp]:
        return [rec for (u, _), rec in sorted(self._installed.items()) if u == user]

    # -- the resource accounting UI -----------------------------------------

    def resource_report(self, user: str) -> Dict[str, Dict[str, object]]:
        """Per-app usage and worst-case cost, "similar to the storage
        management interfaces on current smartphones"."""
        report: Dict[str, Dict[str, object]] = {}
        for record in self.installed_apps(user):
            app = record.app
            report[record.listing.manifest.app_id] = {
                "version": record.listing.manifest.version,
                "usage": app.resource_usage(),
                "monthly_cost": app.monthly_cost(),
                "stored_objects": app.stored_object_count(),
                "regions": [r.name for r in app.regions_holding_data()],
            }
        return report

    def total_monthly_cost(self, user: str) -> Money:
        from repro.units import ZERO

        total = ZERO
        for record in self.installed_apps(user):
            total = total + record.app.monthly_cost()
        return total
