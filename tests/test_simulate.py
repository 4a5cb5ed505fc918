import dataclasses
import json
import math
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dispdecomp.decompose as decompose_module
import dispdecomp.regress as regress_module
import dispdecomp.simulate as simulate_module
from dispdecomp import (
    ADJUSTED_METHOD,
    METHODS,
    SCENARIOS,
    CdaSettings,
    DecompositionResult,
    EstimationError,
    IntermediateEquation,
    MediatorEquation,
    OutcomeEquation,
    ScenarioConfig,
    SemCoefficients,
    baseline_pathway_contribution,
    compute_truths,
    config_from_json,
    adjust,
    decompose_cda,
    decompose_dic,
    decompose_kob,
    default_coefficients,
    generate,
    implied_moments,
    intermediate_pathway_contribution,
    oracle_explained_bias,
    oracle_sensitivity_params,
    run_harness,
)
from dispdecomp._streams import substream
from dispdecomp.regress import GRAM_TOL

# Population values of the three estimands under the default coefficients,
# derived by hand from the structural equations (path algebra over the
# confounder-free system; exact rationals).
DIC_TRUTH = (0.26, -0.24, 0.50)
KOB_TRUTH = {
    "none": (0.26, -0.24, 0.50),
    "c-only": (0.09, -0.26, 0.35),
    "x-only": (0.656, -0.144, 0.80),
    "cx": (0.387, -0.188, 0.575),
}
CDA_TRUTH = {
    "none": (0.26, -0.24, 0.50),
    "c-only": (0.26, -0.24, 0.50),
    "x-only": (0.656, -0.144, 0.80),
    "cx": (0.656, -0.144, 0.80),
}
# Confounded scenarios share the cx structure once loadings are stripped.
for _s in ("xm-conf", "my-conf", "both"):
    KOB_TRUTH[_s] = KOB_TRUTH["cx"]
    CDA_TRUTH[_s] = CDA_TRUTH["cx"]

BASELINE_PATHWAY = {"c-only": -0.17, "cx": -0.269}
INTERMEDIATE_PATHWAY = {"x-only": 0.396, "cx": 0.396}

# Population sensitivity parameters of the my-conf confounder: the mediator
# residual picks up 0.25 of 1.25 total, the outcome residual 0.2 of 1.2.
MY_CONF_R2_YU = 1.0 / 6.0
MY_CONF_R2_MU = 0.2
MY_CONF_BIAS = -0.072  # 0.5 * (0.5 / 1.25) * (-0.36)

# Each scenario's variables, written out apart from the package's own table:
# (C exists, X1..Xk exist, the variables among X, M and Y that U loads on).
STRUCTURE = {
    "none": (False, False, ""),
    "c-only": (True, False, ""),
    "x-only": (False, True, ""),
    "cx": (True, True, ""),
    "xm-conf": (True, True, "XM"),
    "my-conf": (True, True, "MY"),
    "both": (True, True, "XMY"),
}


def reference_generate(config, rep_index):
    """generate written out by hand, equation by equation: the columns and roles.

    Terms are added in generate's order, so the columns must match its
    bytes; absent parents add nothing.
    """
    coefs = config.coefficients
    n = config.n
    rng = substream(config.seed, rep_index, 0)
    has_c, has_x, loads = STRUCTURE[config.scenario]
    has_u = bool(loads)

    r = (rng.random(n) < coefs.p_r).astype(np.float64)
    columns = {"R": r}
    c = np.zeros(n)
    if has_c:
        b = coefs.baseline
        c = b.intercept + b.on_group * r + rng.normal(0.0, b.noise_sd, n)
        columns["C"] = c
    u = rng.normal(0.0, 1.0, n) if has_u else np.zeros(n)
    k = len(coefs.intermediate) if has_x else 0
    xs = [f"X{i}" for i in range(1, k + 1)]
    x_cols = []
    for name, eq in zip(xs, coefs.intermediate):
        x = (
            eq.intercept
            + eq.on_group * r
            + eq.on_baseline * c
            + eq.on_confounder * u
            + rng.normal(0.0, eq.noise_sd, n)
        )
        x_cols.append(x)
        columns[name] = x
    med = coefs.mediator
    m = med.intercept + med.on_group * r + med.on_confounder * u + rng.normal(0.0, med.noise_sd, n)
    if has_c:
        m = m + med.on_baseline * c
    for a, x in zip(med.on_intermediate, x_cols):
        m = m + a * x
    columns["M"] = m
    out = coefs.outcome
    y = (
        out.intercept
        + out.on_group * r
        + out.on_mediator * m
        + out.on_confounder * u
        + rng.normal(0.0, out.noise_sd, n)
    )
    if has_c:
        y = y + out.on_baseline * c
    for b_x, x in zip(out.on_intermediate, x_cols):
        y = y + b_x * x
    columns["Y"] = y
    return columns, (("C",) if has_c else ()), tuple(xs)


def reference_implied_moments(config, group=None, confounded=True):
    """implied_moments written out by hand: (names, mean, cov).

    The confounder-free twin zeroes every loading; U is a root of mean 0
    and variance 1.
    """
    coefs = config.coefficients
    if not confounded:
        coefs = dataclasses.replace(
            coefs,
            intermediate=tuple(
                dataclasses.replace(eq, on_confounder=0.0) for eq in coefs.intermediate
            ),
            mediator=dataclasses.replace(coefs.mediator, on_confounder=0.0),
            outcome=dataclasses.replace(coefs.outcome, on_confounder=0.0),
        )
    has_c, has_x, loads = STRUCTURE[config.scenario]
    has_u = bool(loads) and confounded
    names, mean, cov = [], np.empty(0), np.empty((0, 0))

    def add(name, mean_value, cross, var):
        nonlocal mean, cov
        k = len(names)
        new_cov = np.zeros((k + 1, k + 1))
        new_cov[:k, :k] = cov
        new_cov[:k, k] = cross
        new_cov[k, :k] = cross
        new_cov[k, k] = var
        names.append(name)
        mean, cov = np.append(mean, mean_value), new_cov

    def add_linear(name, intercept, weights, noise_sd):
        w = np.zeros(len(names))
        for parent, coef in weights.items():
            w[names.index(parent)] = coef
        cross = cov @ w
        add(name, intercept + float(w @ mean), cross, float(w @ cross) + noise_sd**2)

    if group is None:
        add("R", coefs.p_r, np.zeros(0), coefs.p_r * (1.0 - coefs.p_r))
    else:
        add("R", float(group), np.zeros(0), 0.0)
    if has_c:
        add_linear("C", coefs.baseline.intercept, {"R": coefs.baseline.on_group}, coefs.baseline.noise_sd)
    if has_u:
        add("U", 0.0, np.zeros(len(names)), 1.0)
    k = len(coefs.intermediate) if has_x else 0
    xs = [f"X{i}" for i in range(1, k + 1)]
    for name, eq in zip(xs, coefs.intermediate):
        w = {"R": eq.on_group}
        if has_c:
            w["C"] = eq.on_baseline
        if has_u:
            w["U"] = eq.on_confounder
        add_linear(name, eq.intercept, w, eq.noise_sd)
    med = coefs.mediator
    w = {"R": med.on_group}
    if has_c:
        w["C"] = med.on_baseline
    if has_u:
        w["U"] = med.on_confounder
    for name, coef in zip(xs, med.on_intermediate):
        w[name] = coef
    add_linear("M", med.intercept, w, med.noise_sd)
    out = coefs.outcome
    w = {"R": out.on_group, "M": out.on_mediator}
    if has_c:
        w["C"] = out.on_baseline
    if has_u:
        w["U"] = out.on_confounder
    for name, coef in zip(xs, out.on_intermediate):
        w[name] = coef
    add_linear("Y", out.intercept, w, out.noise_sd)
    return names, mean, cov


def random_config_json(rng, scenario, k):
    """A JSON config with k intermediates, random coefficients and every allowed loading."""

    def coef():
        return round(float(rng.uniform(-1.0, 1.0)), 3)

    def sd():
        return round(float(rng.uniform(0.5, 2.0)), 3)

    loads = STRUCTURE[scenario][2]

    def loading(variable):
        return {"on_confounder": coef()} if variable in loads else {}

    coefficients = {
        "p_r": round(float(rng.uniform(0.3, 0.7)), 3),
        "baseline": {"intercept": coef(), "on_group": coef(), "noise_sd": sd()},
        "intermediate": [
            {"intercept": coef(), "on_group": coef(), "on_baseline": coef(), "noise_sd": sd(), **loading("X")}
            for _ in range(k)
        ],
        "mediator": {
            "intercept": coef(), "on_group": coef(), "on_baseline": coef(),
            "on_intermediate": [coef() for _ in range(k)], "noise_sd": sd(), **loading("M"),
        },
        "outcome": {
            "intercept": coef(), "on_group": coef(), "on_baseline": coef(), "on_mediator": coef(),
            "on_intermediate": [coef() for _ in range(k)], "noise_sd": sd(), **loading("Y"),
        },
    }
    seed = int(rng.integers(0, 1000))
    return json.dumps({"scenario": scenario, "n": 50, "reps": 2, "seed": seed, "coefficients": coefficients})


def random_configs():
    """63 configs: every scenario with k = 1, 2 and 5 intermediates, three draws each."""
    rng = np.random.default_rng(20)
    return [
        config_from_json(random_config_json(rng, scenario, k))
        for scenario in SCENARIOS
        for k in (1, 2, 5)
        for _ in range(3)
    ]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


def key_paths(value, path=()):
    """The path to value and to everything nested in it, as dict keys and list indices."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from key_paths(item, path + (key,))


class TestScenarioHelpers:
    @pytest.mark.parametrize("name", ["mystery", "Both"])
    def test_unknown_scenario_raises(self, name):
        expected = f"unknown scenario {name!r}, expected one of {SCENARIOS}"
        with pytest.raises(ValueError) as info:
            default_coefficients(name)
        assert str(info.value) == expected


class TestOneModel:
    """generate and implied_moments against their hand-written references."""

    @staticmethod
    def assert_generate_matches(config, rep):
        data = generate(config, rep)
        columns, baseline, intermediate = reference_generate(config, rep)
        assert list(data.columns) == list(columns)
        for name, column in columns.items():
            assert data.column(name).tobytes() == column.tobytes(), name
        assert data.roles.baseline == baseline
        assert data.roles.intermediate == intermediate

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_generate_on_default_scenarios(self, scenario):
        config = ScenarioConfig(scenario, n=200, reps=2, seed=11)
        for rep in (0, 1):
            self.assert_generate_matches(config, rep)

    def test_generate_on_random_configs(self):
        configs = random_configs()
        assert len(configs) >= 50
        assert {len(c.coefficients.intermediate) for c in configs} == {1, 2, 5}
        for i, config in enumerate(configs):
            self.assert_generate_matches(config, i % 3)

    @staticmethod
    def assert_blocks_match(config, reps):
        """Each replication of reps, drawn in blocks as run_harness draws
        them, against the reference byte for byte."""
        size = block_size(config.n)
        for start in range(reps.start, reps.stop, size):
            block = range(start, min(start + size, reps.stop))
            columns = simulate_module._draw_block(config, block)
            for k, rep in enumerate(block):
                expected, _, _ = reference_generate(config, rep)
                assert list(columns) == list(expected)
                for name, column in expected.items():
                    assert columns[name][k].tobytes() == column.tobytes(), (rep, name)

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_blocks_on_default_scenarios(self, scenario):
        config = ScenarioConfig(scenario, n=1000, reps=41, seed=11)
        assert block_size(config.n) == 32
        self.assert_blocks_match(config, range(1, 41))

    def test_blocks_on_random_configs(self):
        for config in random_configs():
            self.assert_blocks_match(dataclasses.replace(config, n=1000), range(1, 41))

    def test_implied_moments(self):
        for config in [ScenarioConfig(s) for s in SCENARIOS] + random_configs():
            for group in (None, 0, 1):
                for confounded in (True, False):
                    mom = implied_moments(config, group=group, confounded=confounded)
                    names, mean, cov = reference_implied_moments(config, group, confounded)
                    assert mom.names == names
                    assert np.array_equal(mom.mean, mean)
                    assert np.array_equal(mom.cov, cov)


class TestCoefficients:
    def test_default_loading_patterns(self):
        for scenario in SCENARIOS:
            coefs = default_coefficients(scenario)
            lam_x = {eq.on_confounder for eq in coefs.intermediate}
            lam_m = coefs.mediator.on_confounder
            lam_y = coefs.outcome.on_confounder
            expect_x = 0.5 if scenario in ("xm-conf", "both") else 0.0
            expect_m = 0.5 if "M" in STRUCTURE[scenario][2] else 0.0
            expect_y = 0.5 if scenario in ("my-conf", "both") else 0.0
            assert lam_x == {expect_x}, scenario
            assert lam_m == expect_m, scenario
            assert lam_y == expect_y, scenario

    def test_validation(self):
        with pytest.raises(ValueError, match="p_r"):
            SemCoefficients(p_r=0.0)
        with pytest.raises(ValueError, match="noise sds"):
            SemCoefficients(mediator=MediatorEquation(noise_sd=0.0))
        with pytest.raises(ValueError, match="on_intermediate lengths"):
            SemCoefficients(mediator=MediatorEquation(on_intermediate=(0.2, 0.2)))

    def test_lists_coerced_to_tuples(self):
        coefs = SemCoefficients(
            intermediate=[IntermediateEquation()],
            mediator=MediatorEquation(on_intermediate=[0.3]),
            outcome=OutcomeEquation(on_intermediate=[0.1]),
        )
        assert isinstance(coefs.intermediate, tuple)
        assert coefs.mediator.on_intermediate == (0.3,)
        assert coefs.outcome.on_intermediate == (0.1,)


class TestScenarioConfig:
    def test_basic_validation(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            ScenarioConfig("mystery")
        with pytest.raises(ValueError, match="n must be >= 50"):
            ScenarioConfig("none", n=49)
        with pytest.raises(ValueError, match="reps must be >= 1"):
            ScenarioConfig("none", reps=0)

    @pytest.mark.parametrize(
        "field, value",
        [("n", 100.5), ("n", True), ("n", "100"), ("reps", True), ("reps", 2.0), ("seed", 1.5), ("seed", None)],
    )
    def test_n_reps_and_seed_must_be_integers(self, field, value):
        with pytest.raises(ValueError) as info:
            ScenarioConfig("none", **{field: value})
        assert str(info.value) == f"{field} must be an integer, got {value!r}"

    def test_numpy_integers_are_integers(self):
        config = ScenarioConfig("none", n=np.int64(60), reps=np.int32(2), seed=np.uint64(3))
        assert (config.n, config.reps, config.seed) == (60, 2, 3)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("n", 10**7 + 1, "n must be <= 10000000, got 10000001"),
            ("n", 10**20, "n must be <= 10000000, got 100000000000000000000"),
            ("reps", 10**6 + 1, "reps must be <= 1000000, got 1000001"),
        ],
    )
    def test_n_and_reps_have_upper_bounds(self, field, value, message):
        # The config is refused when it is built, before generate allocates.
        with pytest.raises(ValueError) as info:
            ScenarioConfig("none", **{field: value})
        assert str(info.value) == message

    @pytest.mark.parametrize("field, low, high", [("n", 50, 10**7), ("reps", 1, 10**6)])
    def test_a_value_too_long_to_write_is_described_by_its_digit_count(self, field, low, high):
        # 10**5000 has more digits than str() writes (4300 by default).
        with pytest.raises(ValueError) as info:
            ScenarioConfig("none", **{field: 10**5000})
        assert str(info.value) == f"{field} must be <= {high}, got an integer of 5001 digits, too many to show"
        with pytest.raises(ValueError) as info:
            ScenarioConfig("none", **{field: -(10**5000)})
        assert str(info.value) == (
            f"{field} must be >= {low}, got a negative integer of 5001 digits, too many to show"
        )

    def test_the_bounds_themselves_are_accepted(self):
        config = ScenarioConfig("none", n=10**7, reps=10**6)
        assert (config.n, config.reps) == (10**7, 10**6)

    def test_defaults_filled(self):
        config = ScenarioConfig("my-conf")
        assert config.coefficients == default_coefficients("my-conf")
        assert (config.n, config.reps, config.seed) == (2000, 200, 0)

    def test_forbidden_loadings(self):
        with pytest.raises(ValueError, match="forbids a confounder loading on X1"):
            ScenarioConfig("cx", coefficients=default_coefficients("both"))
        with pytest.raises(ValueError, match="forbids a confounder loading on X1"):
            ScenarioConfig("my-conf", coefficients=default_coefficients("both"))
        with pytest.raises(ValueError, match="forbids a confounder loading on Y"):
            ScenarioConfig("xm-conf", coefficients=default_coefficients("my-conf"))
        with pytest.raises(ValueError, match="forbids a confounder loading on M"):
            ScenarioConfig(
                "none",
                coefficients=SemCoefficients(mediator=MediatorEquation(on_confounder=0.5)),
            )

    def test_loading_override_within_scenario_allowed(self):
        coefs = dataclasses.replace(
            default_coefficients("my-conf"),
            outcome=OutcomeEquation(on_confounder=-0.5),
        )
        config = ScenarioConfig("my-conf", coefficients=coefs)
        assert config.coefficients.outcome.on_confounder == -0.5


class TestConfigFromJson:
    def test_minimal(self):
        config = config_from_json('{"scenario": "cx"}')
        assert config == ScenarioConfig("cx")

    def test_deep_merge_overrides(self):
        config = config_from_json(
            '{"scenario": "none", "n": 500, "seed": 7,'
            ' "coefficients": {"outcome": {"on_mediator": 0.7}}}'
        )
        assert config.n == 500
        assert config.seed == 7
        assert config.coefficients.outcome.on_mediator == 0.7
        assert config.coefficients.mediator == MediatorEquation()

    def test_confounded_defaults_preserved_by_partial_override(self):
        config = config_from_json(
            '{"scenario": "my-conf", "coefficients": {"mediator": {"on_group": -0.8}}}'
        )
        assert config.coefficients.mediator.on_group == -0.8
        assert config.coefficients.mediator.on_confounder == 0.5
        assert config.coefficients.outcome.on_confounder == 0.5

    def test_intermediate_list_resizes_couplings(self):
        config = config_from_json(
            '{"scenario": "x-only", "coefficients": {"intermediate": [{}, {}]}}'
        )
        assert len(config.coefficients.intermediate) == 2
        assert config.coefficients.mediator.on_intermediate == (0.2, 0.2)
        assert config.coefficients.outcome.on_intermediate == (0.25, 0.25)
        data = generate(config, 0)
        assert set(data.columns) == {"R", "X1", "X2", "M", "Y"}

    def test_errors(self):
        with pytest.raises(ValueError, match="invalid JSON"):
            config_from_json("{nope")
        with pytest.raises(ValueError, match="JSON object"):
            config_from_json("[1, 2]")
        with pytest.raises(ValueError, match="must name a scenario"):
            config_from_json('{"n": 100}')
        with pytest.raises(ValueError, match="unknown scenario"):
            config_from_json('{"scenario": "zz"}')
        with pytest.raises(ValueError, match="unknown key 'foo' in scenario config"):
            config_from_json('{"scenario": "cx", "foo": 1}')
        with pytest.raises(ValueError, match="unknown key 'bad' in mediator"):
            config_from_json('{"scenario": "cx", "coefficients": {"mediator": {"bad": 1}}}')
        with pytest.raises(ValueError, match="unknown key 'zap' in coefficients"):
            config_from_json('{"scenario": "cx", "coefficients": {"zap": {}}}')
        with pytest.raises(ValueError, match="non-empty JSON array"):
            config_from_json('{"scenario": "cx", "coefficients": {"intermediate": []}}')
        with pytest.raises(ValueError, match="forbids a confounder loading on M"):
            config_from_json(
                '{"scenario": "cx", "coefficients": {"mediator": {"on_confounder": 0.5}}}'
            )


    @pytest.mark.parametrize(
        "entry, message",
        [
            ('"n": "100"', 'n must be a JSON integer, got "100"'),
            ('"n": 100.5', "n must be a JSON integer, got 100.5"),
            ('"reps": true', "reps must be a JSON integer, got true"),
            ('"seed": "7"', 'seed must be a JSON integer, got "7"'),
            ('"coefficients": {"p_r": "0.5"}', 'p_r must be a JSON number, got "0.5"'),
            ('"coefficients": {"baseline": 5}', "baseline must be a JSON object, got 5"),
            ('"coefficients": {"baseline": [1]}', "baseline must be a JSON object, got [1]"),
            ('"coefficients": {"intermediate": [5]}', "intermediate[0] must be a JSON object, got 5"),
            (
                '"coefficients": {"intermediate": [{}, {"on_group": "x"}]}',
                'intermediate[1].on_group must be a JSON number, got "x"',
            ),
            ('"coefficients": {"mediator": {"on_group": false}}', "mediator.on_group must be a JSON number, got false"),
            (
                '"coefficients": {"outcome": {"on_intermediate": 0.2}}',
                "outcome.on_intermediate must be a JSON array of numbers, got 0.2",
            ),
            (
                '"coefficients": {"outcome": {"on_intermediate": [0.1, null, 0.3]}}',
                "outcome.on_intermediate[1] must be a JSON number, got null",
            ),
            # json.loads parses these, but they are not JSON numbers.
            ('"coefficients": {"baseline": {"noise_sd": Infinity}}', "baseline.noise_sd must be a JSON number, got Infinity"),
            ('"coefficients": {"outcome": {"on_mediator": NaN}}', "outcome.on_mediator must be a JSON number, got NaN"),
            (
                '"coefficients": {"mediator": {"on_intermediate": [-Infinity]}}',
                "mediator.on_intermediate[0] must be a JSON number, got -Infinity",
            ),
            ('"coefficients": {"p_r": NaN}', "p_r must be a JSON number, got NaN"),
            ('"coefficients": {"p_r": 1e400}', "p_r must be a JSON number, got Infinity"),
            ('"coefficients": 5', "coefficients must be a JSON object, got 5"),
            ('"coefficients": null', "coefficients must be a JSON object, got null"),
            (
                '"coefficients": {"intermediate": []}',
                "intermediate must be a non-empty JSON array of equation objects, got []",
            ),
            (
                '"coefficients": {"intermediate": {"on_group": 0.4}}',
                'intermediate must be a non-empty JSON array of equation objects, got {"on_group": 0.4}',
            ),
        ],
    )
    def test_values_of_the_wrong_type_name_their_key_path(self, entry, message):
        with pytest.raises(ValueError) as info:
            config_from_json('{"scenario": "cx", %s}' % entry)
        assert str(info.value) == message

    def test_a_document_that_is_not_an_object_names_its_value(self):
        with pytest.raises(ValueError) as info:
            config_from_json("[1, 2]")
        assert str(info.value) == "scenario config must be a JSON object, got [1, 2]"

    @pytest.mark.parametrize(
        "entry, message",
        [
            ('"n": {}', "n must be a JSON integer, got {}"),
            ('"seed": -{}', "seed must be a JSON integer, got {}"),
            ('"coefficients": {{"p_r": {}}}', "p_r must be a JSON number, got {}"),
            ('"coefficients": {{"intermediate": [{{"on_group": {}}}]}}', "intermediate[0].on_group must be a JSON number, got {}"),
            ('"coefficients": {{"intermediate": {}}}', "intermediate must be a non-empty JSON array of equation objects, got {}"),
            ('"coefficients": {{"mediator": {{"on_intermediate": [0, {}, 0]}}}}', "mediator.on_intermediate[1] must be a JSON number, got {}"),
        ],
    )
    def test_an_integer_too_long_to_read_names_its_key_path(self, entry, message):
        # int() reads at most sys.get_int_max_str_digits() (4300) digits.
        digits = "1" + "0" * 5000
        with pytest.raises(ValueError) as info:
            config_from_json('{"scenario": "cx", ' + entry.format(digits) + "}")
        assert str(info.value) == message.format("an integer of 5001 digits, too many to read")

    def test_a_document_that_is_a_long_integer_names_its_length(self):
        with pytest.raises(ValueError) as info:
            config_from_json("9" * 5000)
        assert str(info.value) == "scenario config must be a JSON object, got an integer of 5000 digits, too many to read"

    def test_n_beyond_its_bound_names_the_key(self):
        with pytest.raises(ValueError) as info:
            config_from_json('{"scenario": "none", "n": 100000000000000000000, "reps": 1}')
        assert str(info.value) == "n must be <= 10000000, got 100000000000000000000"

    def test_json_nested_too_deeply_is_a_value_error(self):
        with pytest.raises(ValueError) as info:
            config_from_json("[" * 100_000)
        assert str(info.value) == "invalid JSON scenario config: nested too deeply"

    def test_values_nested_near_the_recursion_limit_raise_value_error(self):
        # Some depths parse but are too deep to quote in the type error;
        # wherever that band lies on this stack, the range covers it.
        for depth in range(800, 1000):
            with pytest.raises(ValueError):
                config_from_json('{"scenario": "cx", "n": %s}' % ("[" * depth + "]" * depth))

    def test_every_dataclass_field_round_trips(self):
        configs = [ScenarioConfig(s) for s in SCENARIOS] + random_configs()
        assert len(configs) == 70
        for config in configs:
            assert config_from_json(json.dumps(dataclasses.asdict(config))) == config

    @settings(max_examples=500)
    @given(scenario=st.sampled_from(SCENARIOS), data=st.data())
    def test_any_json_value_at_any_key_gives_a_config_or_a_value_error(self, scenario, data):
        # Floats include NaN and the infinities, which json.dumps writes and json.loads reads.
        doc = {"config": json.loads(json.dumps(dataclasses.asdict(ScenarioConfig(scenario))))}
        paths = data.draw(st.lists(st.sampled_from(list(key_paths(doc))[1:]), max_size=3, unique=True))
        for path in sorted(paths, key=len, reverse=True):  # innermost first: every container still exists
            container = doc
            for key in path[:-1]:
                container = container[key]
            container[path[-1]] = data.draw(JSON_VALUES)
        try:
            config = config_from_json(json.dumps(doc["config"]))
        except ValueError:
            return
        assert isinstance(config, ScenarioConfig)

    def test_integer_beyond_the_float_range_is_rejected(self):
        huge = str(10**400)
        with pytest.raises(ValueError) as info:
            config_from_json('{"scenario": "cx", "coefficients": {"outcome": {"on_group": %s}}}' % huge)
        assert str(info.value) == f"outcome.on_group must be a JSON number, got {huge}"

    def test_integral_numbers_are_accepted_where_numbers_are(self):
        config = config_from_json(
            '{"scenario": "cx", "coefficients": {"mediator": {"on_group": -1, "on_intermediate": [1, 0.5, 0]}}}'
        )
        assert config.coefficients.mediator.on_group == -1
        assert config.coefficients.mediator.on_intermediate == (1, 0.5, 0)

    def test_readme_example_is_accepted(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n### simulate\n", 1)[1].split("\n### ", 1)[0]
        example = section.split("```json\n", 1)[1].split("```", 1)[0]
        config = config_from_json(example)
        doc = json.loads(example)
        assert (config.scenario, config.n, config.reps, config.seed) == tuple(
            doc[key] for key in ("scenario", "n", "reps", "seed")
        )
        assert config.coefficients.p_r == doc["coefficients"]["p_r"]
        assert len(config.coefficients.intermediate) == len(doc["coefficients"]["intermediate"])

    def test_unhashable_scenario_is_unknown(self):
        with pytest.raises(ValueError, match=r"unknown scenario \['cx'\]"):
            config_from_json('{"scenario": ["cx"]}')


def _intermediate_noise_at_1(coefs):
    intermediate = list(coefs.intermediate)
    intermediate[1] = dataclasses.replace(intermediate[1], noise_sd=1e160)
    return dataclasses.replace(coefs, intermediate=tuple(intermediate))


class TestImpliedMoments:
    def test_matches_large_sample(self):
        config = ScenarioConfig("both", n=200_000, reps=1, seed=12)
        data = generate(config, 0)
        mom = implied_moments(config)
        names = ["R", "C", "X1", "X2", "X3", "M", "Y"]
        for name in names:
            npt.assert_allclose(
                mom.mean_of(name), data.column(name).mean(), atol=0.02
            )
        intercept, slopes, resid_var = mom.project("Y", ["R", "X1", "X2", "X3", "C", "M"])
        cols = [data.column(c) for c in ["R", "X1", "X2", "X3", "C", "M"]]
        design = np.column_stack([np.ones(config.n), *cols])
        y = data.column("Y")
        coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
        npt.assert_allclose(intercept, coef[0], atol=0.03)
        for i, name in enumerate(["R", "X1", "X2", "X3", "C", "M"]):
            npt.assert_allclose(slopes[name], coef[i + 1], atol=0.02)
        resid = y - design @ coef
        npt.assert_allclose(resid_var, resid.var(), rtol=0.05)

    def test_group_conditioning(self):
        config = ScenarioConfig("cx", n=200_000, reps=1, seed=13)
        data = generate(config, 0)
        mask1 = data.group_mask(1)
        mom1 = implied_moments(config, group=1)
        assert mom1.mean_of("R") == 1.0
        npt.assert_allclose(mom1.mean_of("M"), data.column("M")[mask1].mean(), atol=0.02)
        npt.assert_allclose(mom1.mean_of("Y"), data.column("Y")[mask1].mean(), atol=0.02)

    def test_confounder_free_twin_drops_u(self):
        config = ScenarioConfig("my-conf")
        confounded = implied_moments(config, confounded=True)
        twin = implied_moments(config, confounded=False)
        _, _, var_conf = confounded.project("M", ["R", "X1", "X2", "X3", "C"])
        _, _, var_twin = twin.project("M", ["R", "X1", "X2", "X3", "C"])
        npt.assert_allclose(var_conf, 1.25, rtol=1e-12)
        npt.assert_allclose(var_twin, 1.0, rtol=1e-12)


class TestTruths:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_frozen_values(self, scenario):
        truths = compute_truths(ScenarioConfig(scenario))
        npt.assert_allclose(
            (truths.dic.initial, truths.dic.explained, truths.dic.unexplained),
            DIC_TRUTH,
            rtol=1e-9,
        )
        npt.assert_allclose(
            (truths.kob.initial, truths.kob.explained, truths.kob.unexplained),
            KOB_TRUTH[scenario],
            rtol=1e-9,
        )
        npt.assert_allclose(
            (truths.cda.initial, truths.cda.explained, truths.cda.unexplained),
            CDA_TRUTH[scenario],
            rtol=1e-9,
        )

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_additivity(self, scenario):
        truths = compute_truths(ScenarioConfig(scenario))
        for t in (truths.dic, truths.kob, truths.cda):
            npt.assert_allclose(t.initial, t.explained + t.unexplained, atol=1e-12)

    def test_confounded_scenarios_share_cx_truths(self):
        cx = compute_truths(ScenarioConfig("cx"))
        for scenario in ("xm-conf", "my-conf", "both"):
            assert compute_truths(ScenarioConfig(scenario)) == cx

    def test_methods_coincide_without_intermediates(self):
        for scenario in ("none", "c-only"):
            truths = compute_truths(ScenarioConfig(scenario))
            for quantity in ("initial", "explained", "unexplained"):
                npt.assert_allclose(
                    truths.dic.quantity(quantity),
                    truths.cda.quantity(quantity),
                    rtol=1e-12,
                )

    def test_for_method(self):
        truths = compute_truths(ScenarioConfig("cx"))
        assert truths.for_method("DIC") == truths.dic
        assert truths.for_method("CDA_adjusted") == truths.cda
        with pytest.raises(ValueError, match="unknown method"):
            truths.for_method("XYZ")


class TestNoiseOverflow:
    @pytest.mark.parametrize(
        "edit, key, name",
        [
            (lambda c: dataclasses.replace(c, outcome=dataclasses.replace(c.outcome, noise_sd=1e160)), "outcome", "Y"),
            (_intermediate_noise_at_1, "intermediate[1]", "X2"),
        ],
    )
    def test_a_noise_sd_whose_square_overflows_is_a_value_error(self, edit, key, name):
        config = ScenarioConfig("my-conf", n=100, reps=2, coefficients=edit(default_coefficients("my-conf")))
        message = f"coefficients.{key}.noise_sd = 1e+160 is too large: the variance of {name} overflows"
        for call in (compute_truths, run_harness, lambda c: run_harness(c, sensitivity=True)):
            with pytest.raises(ValueError) as info:
                call(config)
            assert str(info.value) == message
            assert not isinstance(info.value, EstimationError)

    @pytest.mark.parametrize(
        "equation, field, key, name",
        [("outcome", "on_mediator", "outcome", "Y"), ("mediator", "on_group", "mediator", "M")],
    )
    def test_coefficients_whose_moments_overflow_are_a_value_error(self, equation, field, key, name):
        coefs = default_coefficients("cx")
        edited = dataclasses.replace(getattr(coefs, equation), **{field: 1e200})
        config = ScenarioConfig("cx", n=100, reps=2, coefficients=dataclasses.replace(coefs, **{equation: edited}))
        message = f"coefficients.{key} are too large: the implied mean or covariances of {name} overflow"
        calls = (implied_moments, compute_truths, run_harness, lambda c: run_harness(c, sensitivity=True))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for call in calls:
                with pytest.raises(ValueError) as info:
                    call(config)
                assert str(info.value) == message
                assert not isinstance(info.value, EstimationError)


class TestPathways:
    @pytest.mark.parametrize("scenario,expected", sorted(BASELINE_PATHWAY.items()))
    def test_baseline_pathway_frozen(self, scenario, expected):
        npt.assert_allclose(
            baseline_pathway_contribution(ScenarioConfig(scenario)), expected, rtol=1e-9
        )

    @pytest.mark.parametrize("scenario,expected", sorted(INTERMEDIATE_PATHWAY.items()))
    def test_intermediate_pathway_frozen(self, scenario, expected):
        npt.assert_allclose(
            intermediate_pathway_contribution(ScenarioConfig(scenario)), expected, rtol=1e-9
        )

    @pytest.mark.parametrize("scenario", ["c-only", "cx"])
    def test_kob_initial_differs_by_baseline_pathway(self, scenario):
        config = ScenarioConfig(scenario)
        truths = compute_truths(config)
        npt.assert_allclose(
            truths.kob.initial - truths.cda.initial,
            baseline_pathway_contribution(config),
            atol=1e-12,
        )

    @pytest.mark.parametrize("scenario", ["x-only", "cx"])
    def test_cda_initial_differs_by_intermediate_pathway(self, scenario):
        config = ScenarioConfig(scenario)
        truths = compute_truths(config)
        npt.assert_allclose(
            truths.cda.initial - truths.dic.initial,
            intermediate_pathway_contribution(config),
            atol=1e-12,
        )


class TestOracles:
    def test_my_conf_sensitivity_params_frozen(self):
        params = oracle_sensitivity_params(ScenarioConfig("my-conf"))
        npt.assert_allclose(params.r2_yu, MY_CONF_R2_YU, rtol=1e-9)
        npt.assert_allclose(params.r2_mu, MY_CONF_R2_MU, rtol=1e-9)
        assert params.sign == +1

    def test_xm_conf_has_no_outcome_channel(self):
        params = oracle_sensitivity_params(ScenarioConfig("xm-conf"))
        assert params.r2_yu == 0.0
        assert 0.0 < params.r2_mu < 1.0

    def test_unconfounded_scenarios_get_zeros(self):
        assert oracle_sensitivity_params(ScenarioConfig("cx")).r2_yu == 0.0
        assert oracle_sensitivity_params(ScenarioConfig("cx")).r2_mu == 0.0
        assert oracle_sensitivity_params(ScenarioConfig("cx")).sign == +1

    def test_sign_follows_loading_product(self):
        coefs = dataclasses.replace(
            default_coefficients("my-conf"),
            outcome=dataclasses.replace(
                default_coefficients("my-conf").outcome, on_confounder=-0.5
            ),
        )
        params = oracle_sensitivity_params(ScenarioConfig("my-conf", coefficients=coefs))
        assert params.sign == -1
        npt.assert_allclose(params.r2_yu, MY_CONF_R2_YU, rtol=1e-9)

    def test_explained_bias_frozen(self):
        npt.assert_allclose(
            oracle_explained_bias(ScenarioConfig("my-conf")), MY_CONF_BIAS, rtol=1e-9
        )
        assert oracle_explained_bias(ScenarioConfig("xm-conf")) == 0.0
        assert oracle_explained_bias(ScenarioConfig("cx")) == 0.0
        assert oracle_explained_bias(ScenarioConfig("both")) < 0.0

    def test_my_conf_bias_matches_large_sample_gap(self):
        # One very large replication: the causal estimator's explained
        # portion should sit near truth + oracle bias.
        config = ScenarioConfig("my-conf", n=200_000, reps=1, seed=3)
        data = generate(config, 0)
        res = decompose_cda(data, CdaSettings(mc_draws_per_unit=20, seed=1))
        truths = compute_truths(config)
        observed_bias = res.explained - truths.cda.explained
        npt.assert_allclose(observed_bias, MY_CONF_BIAS, atol=0.02)


class TestGenerate:
    EXPECTED_COLUMNS = {
        "none": {"R", "M", "Y"},
        "c-only": {"R", "C", "M", "Y"},
        "x-only": {"R", "X1", "X2", "X3", "M", "Y"},
        "cx": {"R", "C", "X1", "X2", "X3", "M", "Y"},
    }
    for _s in ("xm-conf", "my-conf", "both"):
        EXPECTED_COLUMNS[_s] = EXPECTED_COLUMNS["cx"]

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_columns_and_roles(self, scenario):
        config = ScenarioConfig(scenario, n=100, reps=1)
        data = generate(config, 0)
        assert set(data.columns) == self.EXPECTED_COLUMNS[scenario]
        assert data.n == 100
        assert data.roles.group == "R"
        assert data.roles.outcome == "Y"
        assert data.roles.mediator == "M"
        has_c, has_x, _ = STRUCTURE[scenario]
        assert data.roles.baseline == (("C",) if has_c else ())
        expected_x = ("X1", "X2", "X3") if has_x else ()
        assert data.roles.intermediate == expected_x

    def test_deterministic_per_replication(self):
        config = ScenarioConfig("cx", n=60, reps=3, seed=5)
        a = generate(config, 1)
        b = generate(config, 1)
        c = generate(config, 2)
        npt.assert_array_equal(a.column("Y"), b.column("Y"))
        assert not np.array_equal(a.column("Y"), c.column("Y"))
        d = generate(dataclasses.replace(config, seed=6), 1)
        assert not np.array_equal(a.column("Y"), d.column("Y"))

    def test_rep_index_validated(self):
        with pytest.raises(ValueError, match="rep_index"):
            generate(ScenarioConfig("none"), -1)

    def test_numpy_integers_are_replication_indices(self):
        config = ScenarioConfig("cx", n=60, reps=3, seed=5)
        npt.assert_array_equal(generate(config, np.int64(2)).column("Y"), generate(config, 2).column("Y"))

    def test_group_is_binary_balanced(self):
        data = generate(ScenarioConfig("none", n=2000), 0)
        r = data.column("R")
        assert set(np.unique(r)) == {0.0, 1.0}
        assert 0.4 < r.mean() < 0.6


class TestRunHarness:
    def test_deterministic_and_worker_invariant(self):
        config = ScenarioConfig("cx", n=80, reps=8, seed=2)
        a = run_harness(config)
        b = run_harness(config)
        c = run_harness(config, workers=4)
        assert a == b
        assert a == c

    def test_sensitivity_report_is_worker_invariant(self):
        config = ScenarioConfig("my-conf", n=80, reps=6, seed=3)
        assert run_harness(config, sensitivity=True) == run_harness(config, sensitivity=True, workers=3)

    def test_cell_layout_and_accessors(self):
        config = ScenarioConfig("c-only", n=60, reps=4, seed=1)
        report = run_harness(config)
        assert report.methods == METHODS
        assert len(report.cells) == 9
        cell = report.cell("KOB", "explained")
        assert cell.method == "KOB"
        assert cell.quantity == "explained"
        assert len(cell.estimates) == 4
        npt.assert_allclose(cell.mean, np.mean(cell.estimates), rtol=1e-12)
        assert cell.covered == (cell.lower <= cell.truth <= cell.upper)
        with pytest.raises(KeyError):
            report.cell("KOB", "total")

    def test_adjusted_cells_share_cda_truth(self):
        config = ScenarioConfig("my-conf", n=80, reps=4, seed=6)
        report = run_harness(config, sensitivity=True)
        assert report.methods == METHODS + (ADJUSTED_METHOD,)
        truths = compute_truths(config)
        for quantity in ("initial", "explained", "unexplained"):
            adj = report.cell(ADJUSTED_METHOD, quantity)
            raw = report.cell("CDA", quantity)
            assert adj.truth == raw.truth == truths.cda.quantity(quantity)
        # tau is the unadjusted total, so the initial cells coincide.
        npt.assert_array_equal(
            report.cell(ADJUSTED_METHOD, "initial").estimates,
            report.cell("CDA", "initial").estimates,
        )

    def test_single_replication_degenerates(self):
        config = ScenarioConfig("none", n=60, reps=1, seed=8)
        report = run_harness(config)
        assert report.warnings == ("interval unreliable: fewer than 20 replications",)
        cell = report.cell("DIC", "initial")
        assert cell.lower == cell.upper == cell.mean == cell.estimates[0]
        assert math.isnan(cell.mc_standard_error)

    def test_warning_threshold(self):
        config = ScenarioConfig("none", n=60, reps=19, seed=8)
        assert run_harness(config).warnings != ()
        config20 = dataclasses.replace(config, reps=20)
        assert run_harness(config20).warnings == ()

    def test_validation(self):
        config = ScenarioConfig("none", n=60, reps=2)
        with pytest.raises(ValueError, match="workers"):
            run_harness(config, workers=0)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda config: generate(config, 1.5), "rep_index must be an integer, got 1.5"),
            (lambda config: generate(config, True), "rep_index must be an integer, got True"),
            (lambda config: generate(config, "1"), "rep_index must be an integer, got '1'"),
            (lambda config: generate(config, -1), "rep_index must be >= 0, got -1"),
            (lambda config: run_harness(config, workers=1.5), "workers must be an integer, got 1.5"),
            (lambda config: run_harness(config, workers=True), "workers must be an integer, got True"),
            (lambda config: run_harness(config, workers="2"), "workers must be an integer, got '2'"),
            (lambda config: run_harness(config, workers=0), "workers must be >= 1, got 0"),
        ],
        ids=["index-float", "index-bool", "index-str", "index-negative", "workers-float", "workers-bool", "workers-str", "workers-zero"],
    )
    def test_integer_arguments_are_checked(self, call, message):
        with pytest.raises(ValueError) as info:
            call(ScenarioConfig("none", n=60, reps=2))
        assert str(info.value) == message

    def test_replication_failures_are_tagged(self, monkeypatch):
        def boom(data, settings):
            raise EstimationError("synthetic failure")

        monkeypatch.setitem(decompose_module._ESTIMATORS, "KOB", boom)
        config = ScenarioConfig("none", n=60, reps=2, seed=1)
        with pytest.raises(EstimationError, match="replication 0: synthetic failure"):
            run_harness(config)

    def test_empty_group_one_names_the_replication(self):
        coefs = dataclasses.replace(default_coefficients("cx"), p_r=1e-6)
        config = ScenarioConfig("cx", n=60, reps=5, coefficients=coefs)
        with pytest.raises(EstimationError) as info:
            run_harness(config)
        assert str(info.value) == "replication 0: group 1 has no rows"

    def test_group_one_too_small_names_the_replication(self):
        # Group 1 needs 6 rows for the KOB model on X1..X3, C and M.
        coefs = dataclasses.replace(default_coefficients("cx"), p_r=0.15)
        config = ScenarioConfig("cx", n=60, reps=40, coefficients=coefs)
        sizes = []
        while not sizes or sizes[-1] >= 6:
            sizes.append(int(generate(config, len(sizes)).group_mask(1).sum()))
        k = len(sizes) - 1
        assert k > 0 and sizes[k] > 0
        with pytest.raises(EstimationError) as info:
            run_harness(config)
        assert str(info.value).startswith(
            f"replication {k}: group 1: insufficient observations: {sizes[k]} rows for 6"
        )

    def test_percentile_rule_matches_order_statistics(self):
        config = ScenarioConfig("none", n=60, reps=40, seed=9)
        report = run_harness(config)
        cell = report.cell("DIC", "initial")
        ordered = np.sort(cell.estimates)
        assert cell.lower == ordered[0]  # ceil(0.025 * 40) = 1
        assert cell.upper == ordered[38]  # ceil(0.975 * 40) = 39


class TestHarnessDispatch:
    def test_estimators_run_in_the_calling_thread(self, monkeypatch):
        threads = set()
        dic = decompose_module._ESTIMATORS["DIC"]

        def record(data, settings):
            threads.add(threading.get_ident())
            return dic(data, settings)

        monkeypatch.setitem(decompose_module._ESTIMATORS, "DIC", record)
        run_harness(ScenarioConfig("none", n=60, reps=8), workers=4)
        assert threads == {threading.get_ident()}

    def test_default_cda_derives_no_seed(self, monkeypatch):
        # The exact expectation makes no draw, so it needs no stream.
        def no_stream(*args):
            raise AssertionError("stream derived for a CDA without draws")

        monkeypatch.setattr(decompose_module, "substream", no_stream)
        report = run_harness(ScenarioConfig("both", n=60, reps=2), sensitivity=True)
        assert report.methods == METHODS + (ADJUSTED_METHOD,)


def block_size(n):
    """Replications whose fits run_harness solves together at this n."""
    return max(1, simulate_module._BLOCK_ROWS // n)


def fresh_copy_estimates(config, rep, params):
    """Every harness estimate of replication rep, each estimator and the
    adjustment run by its public function on its own copy of the data, so
    every fit is fit_ols's and none is shared."""
    cda = decompose_cda(generate(config, rep))
    results = {
        "DIC": decompose_dic(generate(config, rep)),
        "KOB": decompose_kob(generate(config, rep)),
        "CDA": cda,
    }
    out = {(method, q): result.quantity(q) for method, result in results.items() for q in DecompositionResult.QUANTITIES}
    if params is not None:
        adjusted = adjust(cda, generate(config, rep), params)
        values = (adjusted.tau, adjusted.delta_adjusted, adjusted.zeta_adjusted)
        out.update({(ADJUSTED_METHOD, q): v for q, v in zip(DecompositionResult.QUANTITIES, values)})
    return out


def gram_bound(config, rep):
    """How far a harness estimate may be from its fresh-copy value.

    An accepted Gram fit and fit_ols are each within GRAM_TOL of the exact
    solution: coefficients times their column norms, relative to that
    vector's norm (regress._GramFits). So each coefficient-times-mean term
    of an estimate is within about 2 * GRAM_TOL * S of its fit_ols value, S
    the largest |value| in the replication's columns. An estimate has at
    most ten such terms.
    """
    data = generate(config, rep)
    scale = max(float(np.max(np.abs(column))) for column in data.columns.values())
    return 10 * 2 * GRAM_TOL * scale


def assert_harness_matches_fresh_copies(config, report, params, fallbacks=()):
    """Replication 0 and the replications in fallbacks run the public
    estimators, so they are equal bit for bit; the later ones, computed
    from their block's Gram solves, are within gram_bound."""
    for rep in range(config.reps):
        bound = gram_bound(config, rep)
        for (method, q), expected in fresh_copy_estimates(config, rep, params).items():
            actual = report.cell(method, q).estimates[rep]
            if rep == 0 or rep in fallbacks:
                assert actual == expected, (rep, method, q)
            else:
                assert abs(actual - expected) <= bound, (rep, method, q)


def counting_fits(monkeypatch):
    """Lists that gather each fit_ols call, and each model's count of
    replicates that _GramFits accepts."""
    qr_calls, accepted = [], []
    fit_ols, gram_init = decompose_module.fit_ols, regress_module._GramFits.__init__

    def counting_qr(*args, **kwargs):
        qr_calls.append(args)
        return fit_ols(*args, **kwargs)

    def counting_gram(self, *args):
        gram_init(self, *args)
        accepted.append(int(self.accepted.sum()))

    # Every fit, the sensitivity adjustment's too, goes through decompose._fit.
    monkeypatch.setattr(decompose_module, "fit_ols", counting_qr)
    monkeypatch.setattr(regress_module._GramFits, "__init__", counting_gram)
    return qr_calls, accepted


class TestSharedFits:
    # n = 1000 gives blocks of 32 replications: 1..32 fill one block and
    # 33..35 start the next.
    N, REPS = 1000, 35

    def test_reps_run_a_full_block(self):
        assert self.REPS - 1 > block_size(self.N) > 1

    @pytest.mark.parametrize(
        "scenario, sensitivity, per_replication",
        [("both", True, 7), ("none", False, 6), ("cx", False, 6)],
    )
    def test_fits_per_replication(self, monkeypatch, scenario, sensitivity, per_replication):
        # Replication 0 runs on fit_ols; the fits it made name the models
        # that every later replication takes from its block's Gram solves.
        qr_calls, accepted = counting_fits(monkeypatch)
        run_harness(ScenarioConfig(scenario, n=self.N, reps=self.REPS), sensitivity=sensitivity)
        assert len(qr_calls) == per_replication
        assert sum(accepted) == (self.REPS - 1) * per_replication

    @pytest.mark.parametrize("scenario", ["both", "c-only"])
    def test_estimates_equal_those_on_fresh_copies(self, scenario):
        config = ScenarioConfig(scenario, n=self.N, reps=self.REPS, seed=4)
        report = run_harness(config, sensitivity=True)
        assert_harness_matches_fresh_copies(config, report, oracle_sensitivity_params(config))


def _outcome_intercept(coefs, value):
    return dataclasses.replace(coefs, outcome=dataclasses.replace(coefs.outcome, intercept=value))


def _intermediate_noise(coefs, sd):
    return dataclasses.replace(
        coefs, intermediate=tuple(dataclasses.replace(eq, noise_sd=sd) for eq in coefs.intermediate)
    )


class TestBlockFits:
    @pytest.mark.parametrize(
        "edit",
        [
            lambda c: _outcome_intercept(c, 1e7),
            lambda c: _intermediate_noise(c, 1e-6),
            lambda c: _outcome_intercept(c, 1e153),
        ],
        ids=["outcome-intercept-1e7", "x-noise-sd-1e-6", "outcome-intercept-1e153"],
    )
    def test_fit_ols_takes_the_fits_gram_cannot_promise(self, monkeypatch, edit):
        # Y near 1e7 is nearly collinear with the intercept, and X1..X3 with
        # one another: the conditioning check rejects those models. Y near
        # 1e153 makes Gram matrices that overflow, which are rejected too
        # (with no warning: warnings are errors here). A replication with a
        # rejected model runs all six fits on fit_ols, so every later one does.
        config = ScenarioConfig("cx", n=500, reps=40, coefficients=edit(default_coefficients("cx")))
        assert block_size(config.n) >= config.reps - 1
        qr_calls, _ = counting_fits(monkeypatch)
        report = run_harness(config)
        later = len(qr_calls) - 6
        assert later == (config.reps - 1) * 6
        monkeypatch.undo()
        assert_harness_matches_fresh_copies(config, report, None, fallbacks=range(config.reps))

    def test_a_replication_does_not_depend_on_its_block(self):
        # At n = 1000, replications 33..36 make a short last block of the
        # shorter run and sit in a full block of the longer one.
        config = ScenarioConfig("both", n=1000, reps=37, seed=6)
        assert block_size(config.n) == 32
        short = run_harness(config, sensitivity=True)
        long = run_harness(dataclasses.replace(config, reps=config.reps + 40), sensitivity=True)
        for cell in short.cells:
            assert long.cell(cell.method, cell.quantity).estimates[: config.reps] == cell.estimates

    @pytest.mark.parametrize(
        "bad_estimate, bad_generate, named",
        [
            (9, 20, 9),  # the estimator fails first, in the block of the bad data
            (None, 20, 20),
            (25, 20, 20),  # replication 25's estimators never run
            (None, 1, 1),  # the first of a block
            (32, 33, 32),  # the last of a block, then the first of the next
            (33, None, 33),
        ],
    )
    def test_the_first_failure_in_index_order_is_named(self, monkeypatch, bad_estimate, bad_generate, named):
        config = ScenarioConfig("cx", n=1000, reps=40, seed=2)
        assert block_size(config.n) == 32
        draw_block = simulate_module._draw_block

        def drawing(config, reps):
            columns = draw_block(config, reps)
            for k, rep in enumerate(reps):
                if rep == bad_generate:
                    columns["Y"][k, 0] = np.nan
                if rep == bad_estimate:
                    # Five group-1 rows: the group-1 Gram matrices are singular, so
                    # the replication falls back, and fit_ols rejects KOB's model.
                    r = columns["R"][k]
                    r[np.flatnonzero(r == 1.0)[5:]] = 0.0
            return columns

        monkeypatch.setattr(simulate_module, "_draw_block", drawing)
        with pytest.raises(EstimationError) as info:
            run_harness(config)
        if named == bad_estimate:
            failure = "group 1: insufficient observations: 5 rows for 6 design columns"
        else:
            failure = "column 'Y' contains missing or non-finite values"
        assert str(info.value) == f"replication {named}: {failure}"

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["C", "X1", "M", "Y"])
    def test_a_non_finite_value_in_the_middle_of_a_block_is_named(self, monkeypatch, name, value):
        # The value makes the pooled Gram matrices of replication 17 non-finite,
        # so its models are rejected and its own Dataset raises.
        config = ScenarioConfig("cx", n=1000, reps=40, seed=2)
        assert block_size(config.n) == 32
        draw_block = simulate_module._draw_block

        def drawing(config, reps):
            columns = draw_block(config, reps)
            for k, rep in enumerate(reps):
                if rep == 17:
                    columns[name][k, 500] = value
            return columns

        monkeypatch.setattr(simulate_module, "_draw_block", drawing)
        with pytest.raises(EstimationError) as info:
            run_harness(config, sensitivity=True)
        assert str(info.value) == f"replication 17: column {name!r} contains missing or non-finite values"

    @pytest.mark.parametrize("group", [0, 1])
    def test_a_later_replication_with_an_empty_group_is_named(self, monkeypatch, group):
        # The empty group's Gram matrices are zero, so its models are
        # rejected; the error is the one the replication's own Dataset raises.
        config = ScenarioConfig("none", n=100, reps=20, seed=3)
        draw_block = simulate_module._draw_block

        def drawing(config, reps):
            columns = draw_block(config, reps)
            for k, rep in enumerate(reps):
                if rep == 7:
                    columns["R"][k] = 1.0 - group
            return columns

        monkeypatch.setattr(simulate_module, "_draw_block", drawing)
        with pytest.raises(EstimationError) as info:
            run_harness(config)
        assert str(info.value) == f"replication 7: group {group} has no rows"

    def test_a_replication_that_falls_back_equals_the_public_estimators(self, monkeypatch):
        # One model of replication 5 is rejected, so that replication runs
        # the public estimators on its own data, bit for bit; the rest of
        # its block still comes from the Gram solves.
        config = ScenarioConfig("both", n=1000, reps=12, seed=5)
        qr_calls, accepted = counting_fits(monkeypatch)
        gram_init = regress_module._GramFits.__init__

        def rejecting(self, *args):
            gram_init(self, *args)
            if len(accepted) == 1:  # the block's first model
                self.accepted[5 - 1] = False

        monkeypatch.setattr(regress_module._GramFits, "__init__", rejecting)
        report = run_harness(config, sensitivity=True)
        assert len(qr_calls) == 2 * 7
        monkeypatch.undo()
        params = oracle_sensitivity_params(config)
        assert_harness_matches_fresh_copies(config, report, params, fallbacks={5})

    def test_one_replication_per_block_gives_the_same_report(self, monkeypatch):
        config = ScenarioConfig("both", n=1000, reps=40, seed=7)
        assert block_size(config.n) == 32
        default = run_harness(config, sensitivity=True)
        monkeypatch.setattr(simulate_module, "_BLOCK_ROWS", 1)
        assert block_size(config.n) == 1
        assert run_harness(config, sensitivity=True) == default

    def test_each_model_is_solved_once_per_scenario(self, monkeypatch):
        # The Gram matrices of all 199 later replications (2 * 8^2 floats
        # each) fit in _BLOCK_ROWS floats, so each of the seven models gets
        # one _GramFits over them all, however many blocks drew them.
        _, accepted = counting_fits(monkeypatch)
        run_harness(ScenarioConfig("both", n=2000, reps=200), sensitivity=True)
        assert accepted == [199] * 7

    def test_solves_in_several_chunks_give_the_same_report(self, monkeypatch):
        config = ScenarioConfig("both", n=1000, reps=40, seed=7)
        default = run_harness(config, sensitivity=True)
        _, accepted = counting_fits(monkeypatch)
        # Blocks of 3 replications, and solves of 3000 // (2 * 8^2) = 23, so
        # a solve ends inside a block (replications 22..24).
        monkeypatch.setattr(simulate_module, "_BLOCK_ROWS", 3000)
        assert block_size(config.n) == 3
        assert run_harness(config, sensitivity=True) == default
        assert accepted == [23] * 7 + [16] * 7

    def test_peak_memory_holds_one_block(self):
        # The traced peak of this run was 2.67 MB when every replication
        # was its own Dataset. A block's stacked columns and the scenario's
        # Gram matrices may add to that, but not a second block of columns
        # (about 4.9 MB).
        run_harness(ScenarioConfig("both", n=50, reps=2), sensitivity=True)
        tracemalloc.start()
        try:
            run_harness(ScenarioConfig("both", n=2000, reps=200), sensitivity=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * 2.67e6

    def test_peak_memory_per_row(self):
        # The traced peak is 27.0 to 27.1 float64 values per row at n = 5e4,
        # 2e5 and 1e6, as ScenarioConfig's docstring says: replication 0's
        # columns and fits, held while its last fit_ols factors a design.
        # Later replications, drawn once replication 0's Dataset is released,
        # peak at 18. Keeping that Dataset alive reads 31, and a QR of the
        # C-ordered design, copied twice by scipy, reads 30; both break it.
        n = 50_000
        run_harness(ScenarioConfig("both", n=50, reps=2), sensitivity=True)
        tracemalloc.start()
        try:
            run_harness(ScenarioConfig("both", n=n, reps=3), sensitivity=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 28 * 8 * n

    def test_adjustment_near_the_edge_of_the_pooled_mediator_model(self, monkeypatch):
        # M is within 1.5% of the span of R, X1..X3 and C. The pooled
        # outcome model's Gram matrix holds the pooled mediator model's, so
        # by eigenvalue interlacing the mediator model is never the worse
        # conditioned: in the replications where the outcome model passes,
        # the mediator model is within about ten times of its own limit,
        # and in the rest the replication falls back. Its residual sd comes
        # from the quadratic form w'Gw, whose rounding error is about
        # (p + 1)^2 * eps * |v|^2 (v: w times the column norms), while the
        # form is at least lambda_min * |v|^2 of the column-scaled Gram
        # matrix. Acceptance holds (p + 1) * eps / lambda_min below
        # GRAM_TOL / 2, so the sd is within about GRAM_TOL relative, and the
        # bias, proportional to 1 / sd, too.
        coefs = default_coefficients("my-conf")
        coefs = dataclasses.replace(
            coefs, mediator=dataclasses.replace(coefs.mediator, noise_sd=0.015, on_confounder=0.015)
        )
        config = ScenarioConfig("my-conf", n=1000, reps=33, seed=1, coefficients=coefs)
        qr_calls, _ = counting_fits(monkeypatch)
        report = run_harness(config, sensitivity=True)
        fallbacks = len(qr_calls) // 7 - 1
        assert 0 < fallbacks < config.reps - 1
        monkeypatch.undo()
        assert_harness_matches_fresh_copies(config, report, oracle_sensitivity_params(config))
