import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cinecho.config import (
    DEFAULTS,
    config_hash,
    format_config,
    geometry_from,
    lesion_from,
    load_config,
    parse_config,
    pipeline_from,
)
from cinecho.errors import FormatError
from cinecho.observer import lg_channel_bank, train_mscho_from_responses
from cinecho.stacks import GEOMETRY_PRESETS, generate_background, \
    generate_dataset
from cinecho.trial import PipelineConfig, split_dataset


class TestParse:
    def test_empty_text_gives_defaults(self):
        assert parse_config("") == DEFAULTS

    def test_override_and_comment(self):
        config = parse_config(
            "percept.ssr = 14      # coarser sampling\n"
            "\n"
            "# a full-line comment\n"
            "display.l_max = 500\n")
        assert config["percept.ssr"] == 14.0
        assert config["display.l_max"] == 500.0
        assert config["display.l_min"] == DEFAULTS["display.l_min"]

    def test_unknown_key_names_source_line(self):
        with pytest.raises(FormatError, match=r"run\.txt:3: unknown key"):
            parse_config("percept.ssr = 7\n\npercept.ssrr = 7\n",
                         source="run.txt")

    def test_repeated_key_names_both_lines(self):
        with pytest.raises(FormatError, match=r"run\.txt:4: key 'percept\.ssr' "
                           r"repeats the one on line 2"):
            parse_config("# sampling\npercept.ssr = 7\ntrial.seed = 3\n"
                         "percept.ssr = 14\n", source="run.txt")

    def test_line_faults_raise_before_bad_values(self):
        # every line is read before any value is coerced
        with pytest.raises(FormatError, match=r"<config>:3: unknown key"):
            parse_config("percept.ssr = seven  # bad value\n\nnope = 1\n")

    def test_missing_equals_sign(self):
        with pytest.raises(FormatError, match=r"<config>:1: expected"):
            parse_config("percept.ssr 7\n")

    def test_type_coercion_follows_default(self):
        config = parse_config("observer.n_channels = 9\n"
                              "percept.taper = off\n"
                              "sweep.values = 1, 2.5, 7\n"
                              "generator.preset = dataset_a\n")
        assert config["observer.n_channels"] == 9
        assert isinstance(config["observer.n_channels"], int)
        assert config["percept.taper"] is False
        assert config["sweep.values"] == (1.0, 2.5, 7.0)
        assert config["generator.preset"] == "dataset_a"

    def test_bad_int(self):
        with pytest.raises(FormatError, match="expected an integer"):
            parse_config("trial.n_readers = 2.5\n")

    def test_bad_float(self):
        with pytest.raises(FormatError, match="expected a number"):
            parse_config("percept.ssr = seven\n")

    def test_bad_bool(self):
        with pytest.raises(FormatError, match="expected a boolean"):
            parse_config("percept.taper = maybe\n")

    def test_bad_tuple(self):
        with pytest.raises(FormatError, match="comma-separated"):
            parse_config("sweep.values = 1, two, 3\n")

    def test_load_config_none_is_defaults(self):
        assert load_config(None) == DEFAULTS

    def test_load_config_reads_file(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("trial.seed = 99\n", encoding="utf-8")
        assert load_config(path)["trial.seed"] == 99

    def test_load_config_error_names_file(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("nope = 1\n", encoding="utf-8")
        with pytest.raises(FormatError, match="run.txt:1"):
            load_config(path)


class TestCanonicalForm:
    def test_round_trip(self):
        config = parse_config("percept.ssr = 14\nsweep.values = 1,5,9\n")
        assert parse_config(format_config(config)) == config

    def test_round_trip_defaults(self):
        assert parse_config(format_config(dict(DEFAULTS))) == DEFAULTS

    def test_sorted_one_key_per_line(self):
        lines = format_config(dict(DEFAULTS)).splitlines()
        keys = [line.split(" = ")[0] for line in lines]
        assert keys == sorted(DEFAULTS)

    def test_float_values_survive_exactly(self):
        config = dict(DEFAULTS)
        config["percept.slice_rate"] = 0.1 + 0.2  # not representable as 0.3
        again = parse_config(format_config(config))
        assert again["percept.slice_rate"] == config["percept.slice_rate"]


def _writable(text: str) -> bool:
    return "#" not in text and text == text.strip() \
        and len(text.splitlines()) <= 1


def _value_like(default):
    """Values of the type of a DEFAULTS entry, strings only writable ones."""
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        return st.integers(-2 ** 63, 2 ** 63)
    if isinstance(default, float):
        return st.floats(allow_nan=False)
    if isinstance(default, tuple):
        return st.lists(st.floats(allow_nan=False), max_size=6).map(tuple)
    return st.text().filter(_writable)


_CONFIGS = st.fixed_dictionaries(
    {key: _value_like(default) for key, default in DEFAULTS.items()})
_STRING_KEYS = sorted(key for key, default in DEFAULTS.items()
                      if isinstance(default, str))
# a comment sign or a line break anywhere, or whitespace at either edge
_UNWRITABLE = st.one_of(
    st.tuples(st.text(), st.sampled_from("#\n\r\x0b\x0c\x1c\x85\u2028"),
              st.text()).map("".join),
    st.tuples(st.sampled_from(" \t\xa0"), st.text()).map("".join),
    st.tuples(st.text(), st.sampled_from(" \t\xa0")).map("".join))


class TestRoundTrip:
    @settings(deadline=None)
    @given(_CONFIGS)
    def test_parse_reads_back_what_format_writes(self, config):
        assert parse_config(format_config(config)) == config

    @settings(deadline=None, max_examples=150)
    @given(data=st.data())
    def test_any_one_line_edit_parses_or_raises_format_error(self, data):
        lines = format_config(dict(DEFAULTS)).splitlines()
        keys = [ln.partition(" = ")[0] for ln in lines]
        text = st.text(st.characters(blacklist_categories=("Cs",)),
                       max_size=20)
        value = st.one_of(
            text, st.integers().map(str), st.floats().map(repr),
            st.lists(st.floats(), max_size=4).map(
                lambda floats: ",".join(map(repr, floats))))
        line = st.one_of(text, st.builds("{} = {}".format,
                                         st.sampled_from(keys), value))
        at = data.draw(st.integers(0, len(lines)), label="at")
        replace_line = at < len(lines) and data.draw(st.booleans(),
                                                     label="replace")
        lines[at:at + replace_line] = [data.draw(line, label="line")]
        try:
            parse_config("\n".join(lines) + "\n")
        except FormatError:
            pass

    @settings(deadline=None)
    @given(st.sampled_from(_STRING_KEYS), _UNWRITABLE)
    def test_unwritable_strings_raise_naming_the_key(self, key, text):
        config = dict(DEFAULTS)
        config[key] = text
        with pytest.raises(FormatError, match=key):
            format_config(config)

    @pytest.mark.parametrize("text", ["runs/#3/manifest.csv", "a\nb",
                                      " runs/x", "runs/x\t", "a\u2028b"])
    def test_examples_of_unwritable_strings(self, text):
        config = dict(DEFAULTS)
        config["trial.dataset"] = text
        with pytest.raises(FormatError, match="trial.dataset"):
            format_config(config)
        with pytest.raises(FormatError, match="trial.dataset"):
            config_hash(config)


class TestHash:
    def test_stable_across_calls(self):
        assert config_hash(dict(DEFAULTS)) == config_hash(dict(DEFAULTS))

    def test_twelve_hex_digits(self):
        digest = config_hash(dict(DEFAULTS))
        assert len(digest) == 12
        assert all(c in "0123456789abcdef" for c in digest)

    def test_sensitive_to_any_value(self):
        base = config_hash(dict(DEFAULTS))
        for key in ("percept.ssr", "trial.seed", "display.mapping"):
            changed = dict(DEFAULTS)
            changed[key] = (changed[key] + 1
                            if not isinstance(changed[key], str)
                            else "log_luminance")
            assert config_hash(changed) != base

    def test_insertion_order_irrelevant(self):
        forward = dict(DEFAULTS)
        backward = {k: DEFAULTS[k] for k in reversed(list(DEFAULTS))}
        assert config_hash(forward) == config_hash(backward)


class TestBuilders:
    def test_display_from_defaults(self):
        dm = pipeline_from(dict(DEFAULTS)).display
        assert dm.l_min == 1.05
        assert dm.l_max == 1000.0
        assert dm.bit_depth == 10
        assert dm.mapping == "linear_luminance"

    def test_pipeline_from_defaults(self):
        pipeline = pipeline_from(dict(DEFAULTS))
        assert pipeline.ssr == 7.0
        assert pipeline.slice_rate == 25.0
        assert pipeline.n_channels == 15
        assert pipeline.combiner == "hotelling"

    def test_lesion_from_kind_defaults_resolved(self):
        lesion = lesion_from(dict(DEFAULTS))
        assert lesion.kind == "microcalc"
        # zero diameter/sigma_z in the config resolve to the kind defaults
        assert lesion.diameter_px == 8.0
        assert lesion.sigma_z == 1.0

    def test_geometry_from_preset(self):
        assert geometry_from(dict(DEFAULTS)) == GEOMETRY_PRESETS["dataset_b"]
        config = dict(DEFAULTS)
        config["generator.preset"] = "dataset_a"
        assert geometry_from(config) == GEOMETRY_PRESETS["dataset_a"]

    def test_geometry_from_unknown_preset(self):
        config = dict(DEFAULTS)
        config["generator.preset"] = "dataset_c"
        with pytest.raises(FormatError, match="unknown preset"):
            geometry_from(config)

    def test_model_defaults_are_the_config_defaults(self):
        # the README and the acceptance criteria build models from the
        # model defaults, the CLI from DEFAULTS: they must be one run
        assert pipeline_from(dict(DEFAULTS)) == PipelineConfig()

    @pytest.mark.parametrize("function, name, key", [
        (split_dataset, "min_per_class", "trial.min_per_class"),
        (lg_channel_bank, "n_channels", "observer.n_channels"),
        (lg_channel_bank, "spread", "observer.spread"),
        (train_mscho_from_responses, "combiner", "observer.combiner"),
        (generate_background, "texture", "generator.texture"),
        (generate_background, "beta", "generator.beta"),
        (generate_dataset, "texture", "generator.texture"),
        (generate_dataset, "beta", "generator.beta")],
        ids=lambda v: getattr(v, "__name__", None))
    def test_keyword_default_is_the_config_default(self, function, name,
                                                   key):
        default = inspect.signature(function).parameters[name].default
        assert default == DEFAULTS[key]
        assert type(default) is type(DEFAULTS[key])
