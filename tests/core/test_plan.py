"""The DeploymentPlan config plane: validation, JSON stability, function environment."""

import json

import pytest
from hypothesis import given, strategies as st

from repro.cloud.pricing import PRICES_2017, PriceBook, register_price_book, resolve_price_book
from repro.errors import ConfigurationError
from repro.plan import (
    ACCOUNTING_MODES,
    DEFAULT_PLAN,
    MEMORY_SIZES,
    DeploymentPlan,
)
from repro.runtime.store import STORAGE_BACKENDS


class TestValidation:
    def test_default_plan_is_the_legacy_behaviour(self):
        assert DEFAULT_PLAN.storage == "s3"
        assert DEFAULT_PLAN.memory_mb is None
        assert DEFAULT_PLAN.cached is True
        assert DEFAULT_PLAN.poll_wait_seconds == 20.0
        assert DEFAULT_PLAN.accounting == "billed"
        assert DEFAULT_PLAN.include_free_tier is True
        assert DEFAULT_PLAN.prices is PRICES_2017

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            DeploymentPlan(storage="floppy")

    def test_undeployable_memory_rejected(self):
        for bad in (64, 100, 129, 1600):
            with pytest.raises(ConfigurationError):
                DeploymentPlan(memory_mb=bad)

    def test_every_deployable_memory_accepted(self):
        for memory_mb in MEMORY_SIZES:
            assert DeploymentPlan(memory_mb=memory_mb).memory_mb == memory_mb

    def test_poll_wait_bounds(self):
        with pytest.raises(ConfigurationError):
            DeploymentPlan(poll_wait_seconds=0)
        with pytest.raises(ConfigurationError):
            DeploymentPlan(poll_wait_seconds=21)
        assert DeploymentPlan(poll_wait_seconds=1.0).poll_wait_seconds == 1.0

    def test_unknown_accounting_rejected(self):
        with pytest.raises(ConfigurationError):
            DeploymentPlan(accounting="wishful")
        for mode in ACCOUNTING_MODES:
            DeploymentPlan(accounting=mode)

    def test_unknown_price_book_rejected_at_construction(self):
        with pytest.raises(ConfigurationError):
            DeploymentPlan(price_book="1999")

    def test_replace_revalidates(self):
        plan = DeploymentPlan()
        assert plan.replace(storage="dynamo").storage == "dynamo"
        with pytest.raises(ConfigurationError):
            plan.replace(storage="floppy")
        # The original is frozen and untouched.
        assert plan.storage == "s3"

    def test_storage_components_follow_the_backend(self):
        assert DeploymentPlan().storage_put_component() == "s3.put"
        assert DeploymentPlan().storage_get_component() == "s3.get"
        dynamo = DeploymentPlan(storage="dynamo")
        assert dynamo.storage_put_component() == "dynamo.put"
        assert dynamo.storage_get_component() == "dynamo.get"


class TestJsonRoundTrip:
    def test_default_plan_json_bytes_are_pinned(self):
        assert DEFAULT_PLAN.to_json() == (
            '{"accounting":"billed","cached":true,"memory_mb":null,'
            '"poll_wait_seconds":20.0,"price_book":"2017","storage":"s3"}'
        )

    def test_round_trip_is_byte_identical(self):
        plans = [
            DEFAULT_PLAN,
            DeploymentPlan(memory_mb=448, storage="dynamo", cached=False,
                           poll_wait_seconds=5.0, accounting="marginal"),
        ]
        for plan in plans:
            text = plan.to_json()
            again = DeploymentPlan.from_json(text)
            assert again == plan
            assert again.to_json() == text

    def test_round_trip_through_generic_json(self):
        plan = DeploymentPlan(memory_mb=640, storage="dynamo")
        assert DeploymentPlan.from_dict(json.loads(plan.to_json())) == plan

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown plan fields"):
            DeploymentPlan.from_dict({"storage": "s3", "turbo": True})

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigurationError):
            DeploymentPlan.from_json("not json")
        with pytest.raises(ConfigurationError):
            DeploymentPlan.from_json("[1, 2]")


valid_plans = st.builds(
    DeploymentPlan,
    memory_mb=st.none() | st.sampled_from(MEMORY_SIZES),
    storage=st.sampled_from(STORAGE_BACKENDS),
    cached=st.booleans(),
    poll_wait_seconds=st.integers(1, 20)
    | st.floats(0, 20, exclude_min=True, allow_nan=False),
    accounting=st.sampled_from(ACCOUNTING_MODES),
    price_book=st.just("2017"),
)

# JSON values of every type but the field's own.
_json_values = {
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(-(2**40), 2**40),
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "str": st.text(max_size=8),
    "list": st.lists(st.integers(0, 9), max_size=3),
    "dict": st.dictionaries(st.text(max_size=3), st.integers(0, 9), max_size=2),
}


def _json_except(*kinds):
    return st.one_of(*(strategy for kind, strategy in _json_values.items() if kind not in kinds))


_wrong_types = {
    "cached": _json_except("bool"),
    "poll_wait_seconds": _json_except("int", "float"),
    "memory_mb": _json_except("null", "int"),
    "storage": _json_except("str"),
    "accounting": _json_except("str"),
    "price_book": _json_except("str"),
}
_bad_fields = st.sampled_from(sorted(_wrong_types)).flatmap(
    lambda name: st.tuples(st.just(name), _wrong_types[name])
)


class TestJsonProperties:
    @given(plan=valid_plans)
    def test_round_trip_is_the_identity_and_byte_stable(self, plan):
        text = plan.to_json()
        again = DeploymentPlan.from_json(text)
        assert again == plan
        assert again.to_json() == text

    @given(plan=valid_plans, bad=_bad_fields)
    def test_every_wrong_field_type_raises_naming_the_field(self, plan, bad):
        name, value = bad
        payload = json.loads(plan.to_json())
        payload[name] = value
        with pytest.raises(ConfigurationError, match=name):
            DeploymentPlan.from_json(json.dumps(payload))

    @pytest.mark.parametrize("text, field", [
        ('{"cached":"no"}', "cached"),
        ('{"cached":1}', "cached"),
        ('{"poll_wait_seconds":"5"}', "poll_wait_seconds"),
        ('{"poll_wait_seconds":true}', "poll_wait_seconds"),
        ('{"memory_mb":448.0}', "memory_mb"),
        ('{"storage":["s3"]}', "storage"),
        ('{"accounting":null}', "accounting"),
        ('{"price_book":2017}', "price_book"),
    ])
    def test_known_bad_plans_fail_loudly(self, text, field):
        with pytest.raises(ConfigurationError, match=field):
            DeploymentPlan.from_json(text)


class TestEnvBridge:
    def test_environment_encodes_the_backend(self):
        assert DEFAULT_PLAN.environment() == (("DIY_STORAGE", "s3"),)
        assert DeploymentPlan(storage="dynamo").environment() == (
            ("DIY_STORAGE", "dynamo"),
        )


class TestPriceBookRegistry:
    def test_2017_book_registered(self):
        assert resolve_price_book("2017") is PRICES_2017

    def test_unknown_book_lists_known_names(self):
        with pytest.raises(ConfigurationError, match="2017"):
            resolve_price_book("2038")

    def test_register_and_resolve_through_a_plan(self):
        book = PriceBook(lambda_per_million_requests=PRICES_2017.lambda_per_million_requests * 2)
        register_price_book("test-hike", book)
        plan = DeploymentPlan(price_book="test-hike")
        assert plan.prices is book
        # Re-registering the identical book is idempotent...
        register_price_book("test-hike", book)
        # ...but a conflicting book under the same name is rejected.
        with pytest.raises(ConfigurationError):
            register_price_book("test-hike", PRICES_2017)

    def test_register_rejects_junk(self):
        with pytest.raises(ConfigurationError):
            register_price_book("", PRICES_2017)
        with pytest.raises(ConfigurationError):
            register_price_book("not-a-book", {"lambda": 1})
