"""Object store: semantics, metering, and the attacker's raw view."""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.cloud.billing import UsageKind
from repro.cloud.iam import Policy, Principal
from repro.cloud.provider import CloudProvider
from repro.cloud.s3 import Bucket
from repro.errors import AccessDenied, NoSuchBucket, NoSuchKey, PayloadTooLarge
from repro.units import GB, hours


@pytest.fixture
def s3(provider):
    provider.s3.create_bucket("mail", provider.home_region)
    return provider.s3


class TestObjectLifecycle:
    def test_put_get_round_trip(self, s3, root):
        s3.put_object(root, "mail", "inbox/1", b"ciphertext")
        assert s3.get_object(root, "mail", "inbox/1").data == b"ciphertext"

    def test_get_missing_key(self, s3, root):
        with pytest.raises(NoSuchKey):
            s3.get_object(root, "mail", "ghost")

    def test_missing_bucket(self, s3, root):
        with pytest.raises(NoSuchBucket):
            s3.put_object(root, "ghost", "k", b"v")

    def test_versioning(self, s3, root):
        s3.put_object(root, "mail", "k", b"v1")
        s3.put_object(root, "mail", "k", b"v2")
        assert s3.get_object(root, "mail", "k").data == b"v2"
        assert s3.get_object(root, "mail", "k", version=1).data == b"v1"

    def test_missing_version(self, s3, root):
        s3.put_object(root, "mail", "k", b"v1")
        with pytest.raises(NoSuchKey):
            s3.get_object(root, "mail", "k", version=9)

    def test_delete(self, s3, root):
        s3.put_object(root, "mail", "k", b"v")
        s3.delete_object(root, "mail", "k")
        with pytest.raises(NoSuchKey):
            s3.get_object(root, "mail", "k")

    def test_list_with_prefix(self, s3, root):
        s3.put_object(root, "mail", "inbox/1", b"a")
        s3.put_object(root, "mail", "inbox/2", b"b")
        s3.put_object(root, "mail", "sent/1", b"c")
        assert s3.list_objects(root, "mail", "inbox/") == ["inbox/1", "inbox/2"]

    def test_oversized_object_rejected(self, s3, root):
        class FakeBytes(bytes):
            def __len__(self):
                return 6 * 1024**4

        with pytest.raises(PayloadTooLarge):
            s3.put_object(root, "mail", "k", FakeBytes())


class TestAccessControl:
    def test_unauthorized_get_denied(self, provider, s3, root):
        s3.put_object(root, "mail", "k", b"v")
        role = provider.iam.create_role("no-grants")
        with pytest.raises(AccessDenied):
            s3.get_object(Principal("fn", role), "mail", "k")

    def test_scoped_grant_works(self, provider, s3, root):
        s3.put_object(root, "mail", "inbox/1", b"v")
        role = provider.iam.create_role("scoped")
        role.attach(Policy.allow("p", ["s3:GetObject"], ["arn:diy:s3:::mail/inbox/*"]))
        principal = Principal("fn", role)
        assert s3.get_object(principal, "mail", "inbox/1").data == b"v"
        with pytest.raises(AccessDenied):
            s3.put_object(principal, "mail", "inbox/2", b"v")


class TestMetering:
    def test_requests_metered(self, provider, s3, root):
        s3.put_object(root, "mail", "k", b"v")
        s3.get_object(root, "mail", "k")
        assert provider.meter.total(UsageKind.S3_PUT) == 1
        assert provider.meter.total(UsageKind.S3_GET) == 1

    def test_storage_accrues_over_time(self, provider, s3, root):
        s3.put_object(root, "mail", "k", bytes(GB))
        provider.clock.advance(hours(730))  # a full billing month
        s3.put_object(root, "mail", "k2", b"")  # forces accrual
        assert provider.meter.total(UsageKind.S3_STORAGE_GB_MONTH) == pytest.approx(1.0, rel=0.01)

    def test_short_lived_object_bills_partial_month(self, provider, s3, root):
        s3.put_object(root, "mail", "k", bytes(GB))
        provider.clock.advance(hours(365))
        s3.delete_object(root, "mail", "k")
        provider.clock.advance(hours(365))
        s3.delete_bucket("mail")
        assert provider.meter.total(UsageKind.S3_STORAGE_GB_MONTH) == pytest.approx(0.5, rel=0.01)


class TestAttackerView:
    def test_raw_scan_sees_all_bytes_without_iam(self, s3, root):
        s3.put_object(root, "mail", "a", b"blob-one")
        s3.put_object(root, "mail", "a", b"blob-two")  # old versions too
        scanned = list(s3.raw_scan("mail"))
        assert ("a", b"blob-one") in scanned
        assert ("a", b"blob-two") in scanned

    def test_stored_bytes(self, s3, root):
        s3.put_object(root, "mail", "a", bytes(100))
        assert s3.stored_bytes("mail") == 100


def _summed_bytes(bucket: Bucket) -> int:
    """The reference definition: sum the newest version of every key."""
    return sum(versions[-1].nbytes for versions in bucket.objects.values() if versions)


_BUCKETS = ("mail", "drop")
_steps = st.lists(
    st.tuples(
        st.sampled_from(("put", "put", "delete", "delete_bucket")),
        st.sampled_from(_BUCKETS),
        st.sampled_from(("a", "b", "c", "d")),
        st.integers(0, 4096),  # object size
        st.integers(0, hours(200)),  # virtual micros before the step
    ),
    max_size=40,
)


def _run(steps, check_counts):
    """Apply ``steps`` to a fresh store; the storage meter after each one."""
    provider = CloudProvider(name="aws-sim", seed=1234)
    s3, root = provider.s3, Principal("root", None)
    metered = []
    for op, bucket, key, size, wait in steps:
        provider.clock.advance(wait)
        if op == "delete_bucket":
            s3.delete_bucket(bucket)
        else:
            if not s3.bucket_exists(bucket):
                s3.create_bucket(bucket, provider.home_region)
            if op == "put":
                s3.put_object(root, bucket, key, bytes(size))
            else:
                s3.delete_object(root, bucket, key)
        if check_counts:
            for name in _BUCKETS:
                if s3.bucket_exists(name):
                    held = s3.bucket(name)
                    assert held.current_bytes() == _summed_bytes(held)
        metered.append(provider.meter.total(UsageKind.S3_STORAGE_GB_MONTH))
    return metered


@settings(max_examples=60, deadline=None)
@given(steps=_steps)
def test_running_byte_count_matches_the_summed_definition(steps):
    metered = _run(steps, check_counts=True)
    with mock.patch.object(Bucket, "current_bytes", _summed_bytes):
        reference = _run(steps, check_counts=False)
    assert metered == reference  # the same floats, added in the same order
