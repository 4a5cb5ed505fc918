import dataclasses
import json
import math
import threading
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dispdecomp.decompose as decompose_module
from dispdecomp import (
    ADJUSTED_METHOD,
    METHODS,
    SCENARIOS,
    CdaSettings,
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


class TestSharedFits:
    @pytest.mark.parametrize(
        "scenario, sensitivity, per_replication",
        [("both", True, 7), ("none", False, 6), ("cx", False, 6)],
    )
    def test_fits_per_replication(self, monkeypatch, scenario, sensitivity, per_replication):
        calls = []
        fit_ols = decompose_module.fit_ols

        def counting(*args, **kwargs):
            calls.append(args)
            return fit_ols(*args, **kwargs)

        # Every fit, the sensitivity adjustment's too, goes through decompose._fit.
        monkeypatch.setattr(decompose_module, "fit_ols", counting)
        run_harness(ScenarioConfig(scenario, n=200, reps=3), sensitivity=sensitivity)
        assert len(calls) == 3 * per_replication

    @pytest.mark.parametrize("scenario", ["both", "c-only"])
    def test_estimates_equal_those_on_fresh_copies(self, scenario):
        # Every estimator and the adjustment run on their own copy of the
        # replication's data, so none of them sees another's fits.
        config = ScenarioConfig(scenario, n=200, reps=3, seed=4)
        report = run_harness(config, sensitivity=True)
        params = oracle_sensitivity_params(config)
        for rep in range(config.reps):
            cda = decompose_cda(generate(config, rep))
            adjusted = adjust(cda, generate(config, rep), params)
            expected = {
                "DIC": decompose_dic(generate(config, rep)),
                "KOB": decompose_kob(generate(config, rep)),
                "CDA": cda,
            }
            for method, result in expected.items():
                for q in ("initial", "explained", "unexplained"):
                    assert report.cell(method, q).estimates[rep] == result.quantity(q)
            assert report.cell(ADJUSTED_METHOD, "initial").estimates[rep] == adjusted.tau
            assert report.cell(ADJUSTED_METHOD, "explained").estimates[rep] == adjusted.delta_adjusted
            assert report.cell(ADJUSTED_METHOD, "unexplained").estimates[rep] == adjusted.zeta_adjusted
