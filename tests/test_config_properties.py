"""Property tests of the config schema.

Valid configs are generated with every section and optional key either
present or absent; parse -> dump -> parse must give back the same
RunConfig. Malformed configs are generated from valid ones; parsing them
must raise ConfigError (exit code 2) and never any other exception, and
every subcommand run on them must exit 2 or 3; exit 2 writes nothing.
Valid configs that a command rejects in its own work (a section it needs
is absent, its data file is malformed) exit 2 and write nothing too.
"""

import contextlib
import copy
import io
import string
from dataclasses import fields

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from magnoncavity import cli
from magnoncavity.config import dump_config, parse_config
from magnoncavity.derived import SCALING_MODELS, DerivedParams
from magnoncavity.errors import ConfigError
from magnoncavity.fitting import LOSSES
from magnoncavity.scattering import OBSERVABLES

PROPERTY = settings(deadline=None)
QUANTITIES = [f.name for f in fields(DerivedParams)]

positive = st.floats(min_value=1e-6, max_value=1e12)
non_negative = st.one_of(st.just(0.0), positive)
finite = st.floats(allow_nan=False, allow_infinity=False)


def written(numbers):
    """Numbers as YAML numbers or as numeric strings; both are accepted."""
    return numbers.flatmap(lambda x: st.sampled_from([x, repr(x)]))


@st.composite
def grids(draw, min_start=-1e9):
    start = draw(st.floats(min_value=min_start, max_value=1e12))
    count = draw(st.integers(min_value=1, max_value=5))
    if count == 1:
        grid = {"start": start, "stop": start}
        return draw(st.sampled_from([grid, {**grid, "count": 1}]))
    return {"start": start, "stop": start + draw(st.floats(min_value=1.0, max_value=1e12)), "count": count}


field_maps = st.one_of(
    st.none(),
    st.fixed_dictionaries({}, optional={"kind": st.just("kittel")}),
    st.just({"kind": "msm20"}),
    st.integers(min_value=1, max_value=6).flatmap(
        lambda j: st.fixed_dictionaries({"kind": st.just("walker"), "i": st.sampled_from([j, j + 1]), "j": st.just(j)})
    ),
    st.fixed_dictionaries({"kind": st.just("fixed"), "frequency": written(positive)}),
)


def modes(label):
    return st.fixed_dictionaries(
        {"label": st.just(label), "gamma": written(positive)},
        optional={"g": non_negative, "delta": non_negative, "beta": positive, "field_map": field_maps},
    )


materials = st.fixed_dictionaries(
    {},
    optional={
        "mu0_Ms": positive,
        "gamma_e": positive,
        "verdet": finite,
        "spin": finite,
        "diameter": positive,
        "xi": st.floats(min_value=1e-6, max_value=1.0),
    },
)
opticals = st.fixed_dictionaries({}, optional={"wavelength": positive, "power": non_negative})


def fits(labels):
    names = ["f_c", "kappa_e", "kappa_i"] + [
        f"{field}.{label}" for label in labels for field in ("g", "gamma", "f_m", "delta", "beta")
    ]
    bounds = st.tuples(st.floats(-1e12, 1e12), st.floats(1.0, 1e12)).map(lambda p: [p[0], p[0] + abs(p[0]) + p[1]])
    return st.fixed_dictionaries(
        {"free": st.dictionaries(st.sampled_from(names), bounds, min_size=1)},
        optional={
            "B": finite,
            "observable": st.sampled_from(["s21", "s11"] + [f"s31.{label}" for label in labels]),
            "loss": st.sampled_from(LOSSES),
        },
    )


def subsets(entries, full):
    """Mappings with every one of ``entries`` if ``full``, else with any subset of them."""
    return st.fixed_dictionaries(entries) if full else st.fixed_dictionaries({}, optional=entries)


# valid modes_table pairs [i, j]: i >= 1 and -i <= j <= i
index_pairs = st.integers(1, 9).flatmap(lambda i: st.tuples(st.just(i), st.integers(-i, i)).map(list))


@st.composite
def configs(draw, full=False):
    """Valid config mappings; ``full`` ones have every section and sub-section and at least one mode."""
    min_modes = 1 if full else 0
    labels = draw(st.lists(st.text(string.ascii_lowercase, min_size=1, max_size=6), min_size=min_modes, max_size=3, unique=True))
    system = {
        "cavity": draw(
            st.fixed_dictionaries(
                {"f_c": written(positive), "kappa_e": written(positive)}, optional={"kappa_i": non_negative}
            )
        )
    }
    if labels or draw(st.booleans()):
        system["modes"] = [draw(modes(label)) for label in labels]
    system.update(draw(subsets({"material": materials, "optical": opticals}, full)))
    # reference labels must name modes: a config without modes has only empty references
    cells = st.dictionaries(st.sampled_from(QUANTITIES), written(finite))
    references = st.dictionaries(st.sampled_from(labels), cells) if labels else st.just({})
    sections = {
        "sweep": subsets({"field": grids(), "frequency": grids()}, full),
        "observable": st.sampled_from(OBSERVABLES),
        "seed": st.integers(min_value=-(2**31), max_value=2**31),  # a retired key: accepted and ignored
        "modes_table": st.fixed_dictionaries(
            {
                "field": grids(min_start=1e-6),  # the Walker solver needs B_ext > 0
                "indices": st.lists(index_pairs, min_size=1, max_size=4),
            },
            optional={"sign_branch": st.sampled_from(["plus", "minus"])},
        ),
        # a full derive section always has a reference mapping, which may be empty
        "derive": st.fixed_dictionaries(
            {"cavity_volume": positive, **({"reference": references} if full else {})},
            optional={
                "g_B": st.one_of(st.none(), positive),
                **({} if full else {"reference": st.one_of(st.none(), references)}),
            },
        ),
        "fit": fits(labels),
        "scaling": st.fixed_dictionaries(
            {"model": st.sampled_from(sorted(SCALING_MODELS))},
            optional={"include": st.one_of(st.none(), st.lists(st.sampled_from([True, False, 0, 1]), max_size=5))},
        ),
    }
    return {"system": system, **draw(subsets(sections, full))}


@PROPERTY
@given(configs())
def test_parse_dump_parse_round_trip(data):
    config = parse_config(data)
    dumped = dump_config(config)
    again = parse_config(yaml.safe_load(yaml.safe_dump(dumped)))
    assert again == config
    assert dump_config(again) == dumped


DELETE = object()
not_mapping = st.one_of(st.none(), st.integers(), st.text(max_size=3), st.lists(st.integers(), max_size=2))
not_list = st.one_of(st.none(), st.integers(), st.text(max_size=3), st.dictionaries(st.text(max_size=2), st.integers()))
non_numbers = st.one_of(
    st.none(),
    st.text(alphabet="abc", min_size=1, max_size=3),
    st.lists(st.floats(), max_size=2),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), "1e999"]),
)
not_number = st.one_of(non_numbers, st.just(10**400))  # an integer too large for a float
not_integer = st.one_of(non_numbers, st.just("2.5"), st.floats(min_value=0.1, max_value=0.9).map(lambda x: 3.0 + x))
not_positive = st.one_of(not_number, st.floats(max_value=0.0, allow_nan=False, allow_infinity=False))


def words_except(*allowed):
    return st.one_of(st.none(), st.text(max_size=8).filter(lambda s: s not in allowed))


def required(bad):
    return st.one_of(st.just(DELETE), bad)


# (path of a mapping, key in it, values that key may not take); DELETE
# removes a required key.
BREAKS = [
    ((), "system", required(not_mapping)),
    (("system",), "cavity", required(not_mapping)),
    (("system", "cavity"), "f_c", required(not_positive)),
    (("system", "cavity"), "kappa_e", required(not_positive)),
    (("system", "cavity"), "kappa_i", st.one_of(not_number, st.floats(max_value=-1e-9, min_value=-1e9))),
    (("system",), "modes", not_list),
    (("system",), "material", not_mapping),
    (("system",), "optical", not_mapping),
    (("system", "material"), "xi", st.one_of(not_number, st.floats(min_value=1.01, max_value=10.0))),
    (("system", "optical"), "wavelength", not_positive),
    (("system", "modes", 0), "label", st.one_of(st.just(DELETE), st.none(), st.just(""))),
    (("system", "modes", 0), "gamma", required(not_positive)),
    (("system", "modes", 0), "g", st.one_of(not_number, st.floats(max_value=-1e-9, min_value=-1e9))),
    (("system", "modes", 0), "field_map", st.one_of(st.integers(), st.text(max_size=3), st.lists(st.integers()))),
    ((), "sweep", not_mapping),
    (("sweep",), "field", not_mapping),
    (("sweep",), "frequency", not_mapping),
    (("sweep", "frequency"), "start", required(not_number)),
    (("sweep", "frequency"), "count", st.one_of(not_integer, st.integers(max_value=0))),
    ((), "observable", words_except(*OBSERVABLES)),
    ((), "modes_table", not_mapping),
    (("modes_table",), "field", required(not_mapping)),
    # a start <= 0 below a valid grid's start, or off a single-point grid's stop
    (("modes_table", "field"), "start", st.floats(min_value=-1e9, max_value=0.0)),
    (
        ("modes_table",),
        "indices",
        st.one_of(
            st.just(DELETE),
            not_list,
            st.just([]),
            st.just([[1, 2, 3]]),
            # a pair outside i >= 1, -i <= j <= i, after valid ones
            st.sampled_from([[0, 0], [2, 3], [3, -4], [-1, 0]]).map(lambda bad: [[1, 1], [2, -1], bad]),
        ),
    ),
    (("modes_table",), "sign_branch", words_except("plus", "minus")),
    ((), "derive", not_mapping),
    (("derive",), "cavity_volume", required(not_positive)),
    (("derive",), "g_B", st.one_of(non_numbers.filter(lambda v: v is not None), st.floats(max_value=0.0))),
    (("derive",), "reference", st.one_of(st.integers(), st.text(max_size=3), st.lists(st.integers()))),
    # generated labels are lowercase letters only, so no mode is labeled "ghost_mode"
    (("derive", "reference"), "ghost_mode", st.dictionaries(st.sampled_from(QUANTITIES), written(finite))),
    # an unknown quantity is rejected whatever its label
    (
        ("derive", "reference"),
        "typo",
        st.dictionaries(st.text(max_size=8).filter(lambda s: s not in QUANTITIES), written(finite), min_size=1),
    ),
    ((), "fit", not_mapping),
    (("fit",), "free", st.one_of(st.just(DELETE), not_mapping, st.just({}))),
    # f_c is a free name of every config; its bounds must rise
    (("fit", "free"), "f_c", st.tuples(finite, finite).map(lambda p: [max(p), min(p)])),
    (("fit",), "loss", words_except(*LOSSES)),
    ((), "scaling", not_mapping),
    (("scaling",), "model", st.one_of(st.just(DELETE), words_except(*SCALING_MODELS))),
    (
        ("scaling",),
        "include",
        st.lists(st.one_of(st.text(max_size=3), st.floats(0.1, 0.9), st.integers(2, 9), st.none()), min_size=1),
    ),
]


def _node(data, path):
    for key in path:
        data = data[key]
    return data


def _broken(data, path, key, value):
    """A copy of ``data`` with ``key`` of the mapping at ``path`` set to ``value``, or deleted for DELETE."""
    broken = copy.deepcopy(data)
    if value is DELETE:  # only required keys are deleted, and a full config has them all
        del _node(broken, path)[key]
    else:
        _node(broken, path)[key] = value
    return broken


def _location(path) -> str:
    """``path`` as a config error names it, e.g. system.modes[0]."""
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path).lstrip(".")


@settings(max_examples=10, deadline=None)
@pytest.mark.parametrize("path, key, bad", BREAKS, ids=[".".join(map(str, p + (k,))) for p, k, _ in BREAKS])
@given(data=configs(full=True), draw=st.data())
def test_malformed_sections_raise_config_error(path, key, bad, data, draw):
    broken = _broken(data, path, key, draw.draw(bad))
    with pytest.raises(ConfigError) as info:
        parse_config(broken)
    assert str(info.value).startswith(_location(path))  # rejected for this break, not another


junk = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(),
        st.text(max_size=4),
        st.sampled_from([10**400, "1e999", "nan"]),
    ),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6,
)


def _paths(data, prefix=()):
    """Every key path in a nested mapping/list."""
    items = data.items() if isinstance(data, dict) else enumerate(data) if isinstance(data, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


@PROPERTY
@given(configs(), st.data())
def test_any_value_anywhere_parses_or_is_a_config_error(data, draw):
    path = draw.draw(st.sampled_from(list(_paths(data))))
    broken = copy.deepcopy(data)
    _node(broken, path[:-1])[path[-1]] = draw.draw(junk)
    try:
        parse_config(broken)
    except ConfigError:
        pass


COMMANDS = ("spectrum", "map", "modes", "derive", "fit", "scaling")
not_yaml = st.sampled_from(["system: [1, 2", "{a: 1", "key: 'unclosed", "\t- x", "a: !!python/object:os.system x"])
not_a_mapping = st.one_of(st.just(""), st.integers().map(str), st.lists(st.integers(), max_size=2).map(yaml.safe_dump))


@settings(max_examples=40, deadline=None)
@given(data=configs(full=True), draw=st.data(), command=st.sampled_from(COMMANDS))
def test_every_command_exits_2_or_3_on_a_malformed_config(tmp_path_factory, data, draw, command):
    if draw.draw(st.booleans()):
        path, key, bad = draw.draw(st.sampled_from(BREAKS))
        text = yaml.safe_dump(_broken(data, path, key, draw.draw(bad)))
    else:
        text = draw.draw(st.one_of(not_yaml, not_a_mapping))
    work = tmp_path_factory.getbasetemp()
    config = work / "malformed.yaml"
    config.write_text(text, encoding="utf-8")
    out = work / "out.csv"
    out.unlink(missing_ok=True)  # left by an earlier example
    # the data file is never read: the config is rejected first
    argv = [command, str(config), "--data", str(work / "absent.csv")]
    argv = argv if command in ("fit", "scaling") else argv[:2]
    if draw.draw(st.booleans()):
        argv += ["--out", str(out)]
    # hypothesis runs every example in one call of this test, so stdout is captured here, not by capsys
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = cli.main(argv)
    assert code in (2, 3)
    if code == 2:  # a config error writes nothing
        assert stdout.getvalue() == ""
        assert not out.exists()


def _data_columns(data, command):
    """The columns `command` requires of its data file under the config mapping ``data``."""
    if command == "scaling":
        return ["diameter_m", "value"]
    field, _, label = data.get("fit", {}).get("observable", "s21").partition(".")
    column = field if field in ("s21", "s11") else f"s31_{label}"
    return ["f_hz", f"re_{column}", f"im_{column}"]


# Faults that parse_config accepts and the command itself rejects: (command,
# section path and key deleted from the config or None, data-file fault or
# None, what the error says).
COMMAND_BREAKS = {
    "map_without_sweep_field": ("map", (("sweep",), "field"), None, "config must provide sweep.field"),
    "modes_without_section": ("modes", ((), "modes_table"), None, "config must provide a modes_table section"),
    "derive_without_section": ("derive", ((), "derive"), None, "config must provide a derive section"),
    "fit_without_section": ("fit", ((), "fit"), None, "config must provide a fit section"),
    "scaling_without_section": ("scaling", ((), "scaling"), None, "config must provide a scaling section"),
    "fit_data_lacks_a_column": ("fit", None, "lacks_column", "lacks columns"),
    "scaling_data_lacks_a_column": ("scaling", None, "lacks_column", "lacks columns"),
    "scaling_data_bad_include_cell": ("scaling", None, "bad_include", "include must be 0 or 1, got"),
}


@settings(max_examples=10, deadline=None)
@pytest.mark.parametrize("case", sorted(COMMAND_BREAKS))
@given(data=configs(full=True), draw=st.data())
def test_a_command_that_rejects_a_parsed_config_exits_2_and_writes_nothing(tmp_path_factory, case, data, draw):
    command, deleted, data_fault, message = COMMAND_BREAKS[case]
    if deleted is not None:
        data = _broken(data, *deleted, DELETE)
    parse_config(data)  # the config itself is valid
    columns = _data_columns(data, command)
    rows = [[repr(draw.draw(positive)) for _ in columns] for _ in range(draw.draw(st.integers(1, 3)))]
    if data_fault == "lacks_column":
        dropped = draw.draw(st.integers(0, len(columns) - 1))
        columns = columns[:dropped] + columns[dropped + 1 :]
        rows = [row[:dropped] + row[dropped + 1 :] for row in rows]
    elif data_fault == "bad_include":
        columns = columns + ["include"]
        rows = [row + ["1"] for row in rows]
        rows[draw.draw(st.integers(0, len(rows) - 1))][-1] = draw.draw(st.sampled_from(["2", "-1", "0.5", "yes", ""]))
    work = tmp_path_factory.getbasetemp()
    config = work / "parsed.yaml"
    config.write_text(yaml.safe_dump(data), encoding="utf-8")
    points = work / "points.csv"
    points.write_text("\n".join(",".join(row) for row in [columns] + rows) + "\n", encoding="utf-8")
    out = work / "out.csv"
    out.unlink(missing_ok=True)  # left by an earlier example
    argv = [command, str(config)] + (["--data", str(points)] if command in ("fit", "scaling") else [])
    if draw.draw(st.booleans()):
        argv += ["--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()) as stdout, contextlib.redirect_stderr(io.StringIO()) as stderr:
        code = cli.main(argv)
    assert code == 2
    assert message in stderr.getvalue()  # rejected for this fault, not another
    assert stdout.getvalue() == ""
    assert not out.exists()
