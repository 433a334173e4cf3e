"""Property test of the config schema: any YAML-shaped config file ends a
command with exit 0 or 3 and at most one line on stderr, and a file holding
an unknown or mistyped key always exits 3."""

import contextlib
import io

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from offlang.cli import EXIT_CONFIG, EXIT_OK, main

# The schema as documented in README.md: each key and the types it accepts.
# "float" also takes an int; "str_list" etc. are lists holding only that type.
OPTIONAL_STR = ("str", "null")
TOP = {
    "language": ("str",), "seed": ("int",), "normalize": ("bool", "null"),
    "train_file": OPTIONAL_STR, "scored_file": OPTIONAL_STR, "test_file": OPTIONAL_STR,
    "gold_file": OPTIONAL_STR, "weak_file": OPTIONAL_STR, "holdout_fraction": ("float",),
}
SECTIONS = {
    "encoder": {
        "hidden_size": ("int",), "num_layers": ("int",), "num_heads": ("int",),
        "ffn_size": ("int",), "max_len": ("int",), "vocab_cap": ("int",),
        "dropout": ("float",),
    },
    "train": {
        "epochs": ("int",), "batch_size": ("int", "null"), "learning_rate": ("float", "null"),
    },
    "weaklabel": {"hi_threshold": ("float",), "lo_threshold": ("float",), "per_class_count": ("int",)},
    "augment": {
        "provider": ("str",), "translations": OPTIONAL_STR, "endpoint": OPTIONAL_STR,
        "pivots": ("str", "str_list", "null"), "policy": ("str",), "cache": OPTIONAL_STR,
    },
    "grid": {
        "learning_rates": ("str", "float_list", "null"),
        "batch_sizes": ("str", "int_list", "null"),
    },
    "normalize_maps": {"emoji_map": OPTIONAL_STR, "slang_map": OPTIONAL_STR, "lexicon": OPTIONAL_STR},
}


def type_of(value) -> set[str]:
    """The schema type names that value satisfies."""
    if value is None:
        return {"null"}
    if isinstance(value, bool):
        return {"bool"}
    if isinstance(value, int):
        return {"int", "float"}
    if isinstance(value, float):
        return {"float"}
    if isinstance(value, str):
        return {"str"}
    if isinstance(value, list):
        items = [type_of(v) for v in value]
        return {f"{t}_list" for t in ("str", "int", "float") if all(t in i for i in items)}
    return set()


def fits(value, allowed: tuple[str, ...]) -> bool:
    return bool(type_of(value) & set(allowed))


texts = st.text(alphabet="abdefr,0.5 ", max_size=6) | st.sampled_from(
    ["fail_fast", "skip_on_error", "fr,de", "0.01,0.02", "8"]
)
floats = st.floats(-2.0, 2.0, allow_nan=False)
ints = st.integers(-3, 400)
OF_TYPE = {
    "str": texts, "int": ints, "float": floats | ints, "bool": st.booleans(), "null": st.none(),
    "str_list": st.lists(texts, max_size=3), "int_list": st.lists(ints, max_size=3),
    "float_list": st.lists(floats | ints, max_size=3),
}
scalars = st.one_of(st.none(), st.booleans(), ints, floats, texts)
anything = scalars | st.lists(scalars, max_size=3)
unknown_keys = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=9).filter(
    lambda k: k not in TOP and k not in SECTIONS
)
rarely = st.integers(0, 5).map(lambda n: n == 5)  # seldom true


@st.composite
def mapping(draw, schema: dict) -> dict:
    """Some keys of schema, each with a value of one of its types or, rarely,
    of any type, and rarely an unknown key."""
    keys = draw(st.lists(st.sampled_from(sorted(schema)), unique=True, max_size=3))
    out = {}
    for key in keys:
        typed = st.sampled_from(schema[key]).flatmap(OF_TYPE.get)
        out[key] = draw(anything if draw(rarely) else typed)
    if draw(rarely):
        out[draw(unknown_keys)] = draw(anything)
    return out


@st.composite
def configs(draw):
    config = draw(mapping(TOP))
    for name in draw(st.lists(st.sampled_from(sorted(SECTIONS)), unique=True, max_size=3)):
        config[name] = draw(anything if draw(rarely) else mapping(SECTIONS[name]))
    return config


def badly_typed(config: dict) -> bool:
    """Whether config holds an unknown key, a value of a type its key does not
    take, or a section that is not a mapping."""
    for key, value in config.items():
        if key in SECTIONS:
            if not isinstance(value, dict):
                return True
            schema = SECTIONS[key]
            if any(k not in schema or not fits(v, schema[k]) for k, v in value.items()):
                return True
        elif key not in TOP or not fits(value, TOP[key]):
            return True
    return False


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("schema")
    (d / "train.tsv").write_text("1\thello there\tOFF\n2\tgood day\tNOT\n", encoding="utf-8")
    scored = [f"s{i}\ttweet {i}\t{c}" for i, c in enumerate((0.95, 0.9, 0.05, 0.1))]
    (d / "scored.tsv").write_text("\n".join(scored) + "\n", encoding="utf-8")
    return d


# weaklabel's flags set every key whose value could make the stage itself
# fail, so a file that passes the schema checks runs to exit 0.
COMMANDS = {
    "stats": ["--input", "train.tsv"],
    "weaklabel": ["--input", "scored.tsv", "--hi", "0.8", "--lo", "0.2", "--per-class", "1"],
}


def run_with_config(inputs, command: str, config_name: str) -> tuple[int, str]:
    """main's exit code and stderr for command run on the inputs with the
    named config file."""
    argv = [command, "--config", str(inputs / config_name), "--out-dir", str(inputs / "out")]
    argv += [str(inputs / f) if f.endswith(".tsv") else f for f in COMMANDS[command]]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


@settings(
    max_examples=80, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(config=configs())
def test_every_config_ends_in_a_documented_exit(inputs, config):
    (inputs / "run.yaml").write_text(yaml.safe_dump(config), encoding="utf-8")
    assert yaml.safe_load((inputs / "run.yaml").read_text(encoding="utf-8")) == config
    for command in COMMANDS:
        code, err = run_with_config(inputs, command, "run.yaml")
        assert code in (EXIT_OK, EXIT_CONFIG), (command, code, err)
        assert len(err.splitlines()) <= 1, err
        if badly_typed(config):
            assert code == EXIT_CONFIG, (command, config)


def test_freeze_encoders_is_an_unknown_key(inputs):
    (inputs / "frozen.yaml").write_text("train: {freeze_encoders: true}\n", encoding="utf-8")
    for command in COMMANDS:
        code, err = run_with_config(inputs, command, "frozen.yaml")
        assert code == EXIT_CONFIG, command
        assert err == "configuration error: unknown config key train.freeze_encoders\n"
