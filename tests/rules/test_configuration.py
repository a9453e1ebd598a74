"""Configuration rules (paper Section 3.1): pure client-side validation."""

import pytest

from repro.errors import RuleError
from repro.rules.configuration import (
    Configurator,
    ExactlyOneOf,
    Excludes,
    OptionCatalog,
    Requires,
)


@pytest.fixture
def car():
    """The paper's example domain: body styles and features."""
    catalog = OptionCatalog(
        ["sedan", "cabriolet", "sunroof", "trailer_hitch", "v6", "v8"]
    )
    configurator = Configurator(catalog)
    configurator.add_rule(Excludes("cabriolet", "sunroof"))
    configurator.add_rule(Requires("trailer_hitch", "v8"))
    configurator.add_rule(ExactlyOneOf(["sedan", "cabriolet"]))
    configurator.add_rule(ExactlyOneOf(["v6", "v8"]))
    return configurator


class TestOptionCatalog:
    def test_bits_are_distinct_powers_of_two(self):
        catalog = OptionCatalog(["a", "b", "c"])
        bits = [catalog.bit(name) for name in ("a", "b", "c")]
        assert bits == [1, 2, 4]

    def test_duplicate_definition_rejected(self):
        catalog = OptionCatalog(["a"])
        with pytest.raises(RuleError):
            catalog.define("A")  # case-insensitive

    def test_unknown_option_rejected(self):
        with pytest.raises(RuleError):
            OptionCatalog().bit("ghost")

    def test_mask_roundtrip(self):
        catalog = OptionCatalog(["a", "b", "c"])
        mask = catalog.mask_of(["a", "c"])
        assert catalog.names_of(mask) == ["a", "c"]

    def test_capacity_limit(self):
        catalog = OptionCatalog([f"o{i}" for i in range(63)])
        with pytest.raises(RuleError):
            catalog.define("one_too_many")


class TestValidation:
    def test_paper_example_cabriolet_sunroof(self, car):
        """'it is not possible to choose a cabriolet together with a
        sunroof'."""
        violations = car.violations(["cabriolet", "sunroof", "v6"])
        assert any("exclude" in message for message in violations)

    def test_valid_configuration_returns_mask(self, car):
        mask = car.validate(["sedan", "sunroof", "v6"])
        assert mask == car.catalog.mask_of(["sedan", "sunroof", "v6"])

    def test_requires(self, car):
        violations = car.violations(["sedan", "trailer_hitch", "v6"])
        assert any("requires" in message for message in violations)
        assert car.violations(["sedan", "trailer_hitch", "v8"]) == []

    def test_exactly_one_of(self, car):
        assert car.violations(["v6"])  # no body style selected
        assert car.violations(["sedan", "cabriolet", "v6"])  # two of them

    def test_validate_raises_with_all_violations(self, car):
        with pytest.raises(RuleError) as excinfo:
            car.validate(["cabriolet", "sunroof", "trailer_hitch", "v6"])
        message = str(excinfo.value)
        assert "exclude" in message
        assert "requires" in message

    def test_valid_completions(self, car):
        completions = car.valid_completions(["cabriolet", "v6"])
        assert "sunroof" not in completions
        assert "trailer_hitch" not in completions  # would require v8

    def test_no_rules_everything_valid(self):
        configurator = Configurator(OptionCatalog(["a", "b"]))
        assert configurator.violations(["a", "b"]) == []


class TestPDMClientIntegration:
    """A caller validates the selection, then hands the client the mask."""

    def test_client_rejects_invalid_configuration(self, small_scenario, car):
        with pytest.raises(RuleError):
            car.validate(["cabriolet", "sunroof", "v6"])
        # Validation happened before any message crossed the WAN.
        assert small_scenario.link.stats.messages == 0

    def test_client_binds_validated_mask(self, small_scenario, car):
        from repro.pdm.operations import PDMClient
        from repro.rules.presets import USER_OPTIONS_VAR

        client = PDMClient(
            small_scenario.connection,
            user_env={USER_OPTIONS_VAR: car.validate(["sedan", "v6"])},
        )
        assert client.user_env[USER_OPTIONS_VAR] == car.catalog.mask_of(
            ["sedan", "v6"]
        )
