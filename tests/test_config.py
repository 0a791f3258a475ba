from pathlib import Path

import numpy as np
import pytest
import yaml

import magnoncavity as mc
from magnoncavity import cli
from magnoncavity.config import GridSpec, dump_config, parse_config
from magnoncavity.errors import ConfigError

MINIMAL = {
    "system": {
        "cavity": {"f_c": 10.632e9, "kappa_e": 2.1e6, "kappa_i": 0.6e6},
        "modes": [
            {"label": "kittel", "g": 28.6e6, "gamma": 2.3e6, "delta": 3.61e-3,
             "field_map": {"kind": "kittel"}, "walker_indices": [1, 1]},
        ],
        "material": {"diameter": 0.45e-3},
        "optical": {"wavelength": 1.55e-6, "power": 15e-3},
    },
    "sweep": {
        "field": {"start": 0.3797, "stop": 0.3818, "count": 5},
        "frequency": {"start": 10.5e9, "stop": 10.8e9, "count": 301},
    },
    "observable": "s21_power",
    "seed": 7,
}


def test_parse_minimal_config():
    config = parse_config(MINIMAL)
    assert config.system.cavity.kappa_t == 2.7e6
    assert config.system.modes[0].label == "kittel"
    assert config.system.modes[0].beta == 1.0  # default amplification
    assert "walker_indices" not in dump_config(config)["system"]["modes"][0]  # accepted, ignored
    assert config.field_grid.count == 5
    assert "seed" not in dump_config(config)  # accepted, ignored
    f = config.frequency_grid.values()
    assert f.size == 301 and f[0] == 10.5e9 and f[-1] == 10.8e9


def test_numeric_strings_are_coerced():
    # YAML 1.1 reads exponents without a sign as strings; the loader
    # must accept them anyway
    raw = yaml.safe_load(
        """
        system:
          cavity: {f_c: 10.632e9, kappa_e: 2.1e6, kappa_i: 0.6e6}
          modes: []
        """
    )
    assert isinstance(raw["system"]["cavity"]["f_c"], str)
    config = parse_config(raw)
    assert config.system.cavity.f_c == 10.632e9


def test_round_trip_is_semantically_identical():
    config = parse_config(MINIMAL)
    again = parse_config(dump_config(config))
    assert again == config


def test_round_trip_with_all_sections():
    data = dict(MINIMAL)
    data["modes_table"] = {
        "field": {"start": 0.30, "stop": 0.45, "count": 4},
        "indices": [[1, 1], [2, 0]],
        "sign_branch": "plus",
    }
    data["derive"] = {"cavity_volume": 1.6e-6, "g_B": 0.0329, "reference": {"kittel": {"N": 1.51e17}}}
    data["fit"] = {"free": {"f_c": [10.0e9, 11.0e9]}, "B": 0.38, "observable": "s21", "loss": "complex_residual"}
    data["scaling"] = {"model": "linear_in_sqrtV", "include": [True, False, True]}
    config = parse_config(data)
    assert parse_config(dump_config(config)) == config
    assert config.scaling.include == (True, False, True)
    assert config.derive.g_B == 0.0329


def test_grid_validation():
    with pytest.raises(ConfigError):
        GridSpec(start=1.0, stop=0.5, count=3)
    with pytest.raises(ConfigError):
        GridSpec(start=1.0, stop=2.0, count=0)
    with pytest.raises(ConfigError):
        GridSpec(start=1.0, stop=2.0, count=1)  # single point must be degenerate
    assert GridSpec(start=1.0, stop=1.0, count=1).values().tolist() == [1.0]


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("system"),
        lambda d: d["system"].pop("cavity"),
        lambda d: d["system"]["cavity"].update(kappa_e="not a number"),
        lambda d: d.update(observable="s41_power"),
        lambda d: d["system"]["modes"].append({"g": 1e6, "gamma": 1e6}),  # no label
        lambda d: d["system"]["modes"][0].update(gamma=-1.0),
        lambda d: d["sweep"].update(field={"start": 0.4, "stop": 0.3, "count": 5}),
        lambda d: d["system"]["modes"][0].update(field_map={"kind": "walker", "i": 3, "j": 0}),
        lambda d: d["system"].update(modes=None),
        lambda d: d["system"].update(modes=5),
        lambda d: d["system"].update(material=3),
        lambda d: d["system"].update(optical="x"),
        lambda d: d.update(modes_table={"field": {"start": 0.3, "stop": 0.4, "count": 2}, "indices": [5, [1, 1]]}),
        lambda d: d.update(scaling={"model": "linear_in_sqrtV", "include": 5}),
        lambda d: d.update(derive={"cavity_volume": 1.6e-6, "reference": [1, 2]}),
        lambda d: d.update(derive={"cavity_volume": 1.6e-6, "reference": {"kittel": {"N": "many"}}}),
        lambda d: d.update(fit={"free": {"g.kittel": [1e6, 1e9]}, "observable": "s41"}),
        lambda d: d.update(fit={"free": {"g.kittel": [1e6, 1e9]}, "observable": "s31"}),
        lambda d: d.update(fit={"free": {"g.kittel": [1e6, 1e9]}, "observable": "s31.ghost"}),
        lambda d: d.update(fit={"free": {"g.ghost": [1e6, 1e9]}}),
        lambda d: d.update(fit={"free": {"q_factor": [1.0, 2.0]}}),
        lambda d: d.update(fit={"free": {"gamma": [1e4, 1e8]}}),  # a mode parameter needs a label
        lambda d: d.update(fit={"free": {"f_c.kittel": [10.0e9, 11.0e9]}}),
        lambda d: d["system"]["modes"][0].update(label=None),
        lambda d: d.update(scaling={"model": "linear_in_sqrtV", "include": ["0", "false", 0.5, None]}),
        lambda d: d["system"]["cavity"].update(f_c=10**400),  # a YAML integer too large for a float
    ],
)
def test_malformed_configs_raise_config_error(mutate):
    import copy

    data = copy.deepcopy(MINIMAL)
    mutate(data)
    with pytest.raises(ConfigError):
        parse_config(data)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d["system"]["modes"][0].update(field_map={"kind": "walker", "i": 1.5, "j": 1}),
         "system.modes[0].field_map.i: expected an integer, got 1.5"),
        (lambda d: d["system"]["cavity"].pop("f_c"), "system.cavity: missing f_c"),
        (lambda d: d["sweep"].update(field={"start": 0.4, "stop": 0.3, "count": 5}),
         "sweep.field: grid range must be non-degenerate (stop > start)"),
        (lambda d: d.update(scaling={"model": "linear_in_sqrtV", "include": [True, 2]}),
         "scaling.include[1]: expected true, false, 0 or 1, got 2"),
        (lambda d: d.update(derive={"cavity_volume": 1.6e-6, "reference": {"kittel": {"Nspins": 1.51e17}}}),
         "derive.reference.kittel.Nspins: unknown quantity; expected one of g_B, N, C, V_m, n, G, delta"),
        (lambda d: d.update(derive={"cavity_volume": 1.6e-6, "reference": {"kitel": {"N": 1.51e17}}}),
         "derive.reference.kitel: no mode labeled 'kitel'"),
        (lambda d: d.update(modes_table={"field": {"start": 0.3, "stop": 0.4, "count": 2}, "indices": [[1, 1], [2, -3]]}),
         "modes_table.indices[1]: mode index j must satisfy -i <= j <= i, got (2, -3)"),
        (lambda d: d.update(modes_table={"field": {"start": 0.3, "stop": 0.4, "count": 2}, "indices": [[2, 2], [1.5, 1]]}),
         "modes_table.indices[1][0]: expected an integer, got 1.5"),
        (lambda d: d.update(modes_table={"field": {"start": 0.3, "stop": 0.4, "count": 2}, "indices": [[2, 2], [1, 1, 0]]}),
         "modes_table.indices[1]: expected an [i, j] pair, got [1, 1, 0]"),
        (lambda d: d.update(modes_table={"field": {"start": 0.3, "stop": 0.4, "count": 2}, "indices": 5}),
         "modes_table.indices: expected a non-empty list of [i, j] pairs, got 5"),
        (lambda d: d.update(modes_table={"field": {"start": 0.3, "stop": 0.4, "count": 2}, "indices": []}),
         "modes_table.indices: expected a non-empty list of [i, j] pairs, got []"),
        (lambda d: d.update(derive={"cavity_volume": 0.0}), "derive.cavity_volume: must be positive, got 0.0"),
        (lambda d: d.update(derive={"cavity_volume": -1.0e-6}), "derive.cavity_volume: must be positive, got -1e-06"),
        (lambda d: d.update(derive={"cavity_volume": 1.6e-6, "g_B": -1.0}), "derive.g_B: must be positive, got -1.0"),
        (lambda d: d.update(derive={"cavity_volume": 1.6e-6, "g_B": 0.0}), "derive.g_B: must be positive, got 0.0"),
        (lambda d: d.update(fit={"free": {"f_c": [10.7e9, 10.6e9]}}),
         "fit.free.f_c: bounds must satisfy lower < upper, got [10700000000.0, 10600000000.0]"),
        (lambda d: d.update(fit={"free": {"g.kittel": [1e6, 1e9], "f_c": [10.6e9, 10.6e9]}}),
         "fit.free.f_c: bounds must satisfy lower < upper, got [10600000000.0, 10600000000.0]"),
    ],
    ids=[
        "field_map", "cavity", "sweep", "include", "reference_quantity", "reference_label", "index_pair",
        "index_element", "index_pair_length", "indices_not_a_list", "indices_empty", "cavity_volume_zero",
        "cavity_volume_negative", "g_B_negative", "g_B_zero", "free_bounds_reversed", "free_bounds_equal",
    ],
)
def test_errors_name_their_path_once(mutate, message):
    import copy

    data = copy.deepcopy(MINIMAL)
    mutate(data)
    with pytest.raises(ConfigError) as info:
        parse_config(data)
    assert str(info.value) == message


def test_absent_keys_take_the_dataclass_defaults():
    data = {
        "system": {"cavity": {"f_c": 10.6e9, "kappa_e": 2e6}, "modes": [{"label": "m", "gamma": 1e6}]},
        "sweep": {"field": {"start": 0.38, "stop": 0.38}},
    }
    system = mc.HybridSystem(
        cavity=mc.CavityParams(f_c=10.6e9, kappa_e=2e6, kappa_i=0.0),
        modes=(mc.MagnonMode(label="m", g=0.0, gamma=1e6),),
    )
    assert parse_config(data) == mc.RunConfig(system=system, field_grid=GridSpec(start=0.38, stop=0.38))


def test_unknown_keys_are_ignored():
    import copy

    data = copy.deepcopy(MINIMAL)
    data["field_grid"] = {"start": 1.0}  # a field name, not a config key
    data["system"]["cavity"]["q_factor"] = 5000
    data["sweep"]["time"] = None
    assert parse_config(data) == parse_config(MINIMAL)


@pytest.mark.parametrize("observable", ["s21", "s11", "s31.kittel"])
def test_fit_section_accepts_every_observable_and_parameter_kind(observable):
    import copy

    data = copy.deepcopy(MINIMAL)
    names = ["f_c", "kappa_e", "kappa_i", "g.kittel", "gamma.kittel", "f_m.kittel", "delta.kittel", "beta.kittel"]
    data["fit"] = {"free": {name: [1e-3, 1e12] for name in names}, "observable": observable}
    config = parse_config(data)
    assert config.fit.observable == observable
    assert sorted(config.fit.free) == sorted(names)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d["sweep"]["frequency"].update(count=2.7),
        lambda d: d["sweep"]["field"].update(count=0.9),
        lambda d: d["sweep"]["field"].update(count="1.5"),
        lambda d: d["sweep"]["field"].update(count=float("nan")),
        lambda d: d["sweep"]["field"].update(count=float("inf")),
        lambda d: d.update(modes_table={"field": {"start": 0.3, "stop": 0.4, "count": 2}, "indices": [[1.5, 1]]}),
    ],
)
def test_integer_fields_reject_fractions(mutate):
    import copy

    data = copy.deepcopy(MINIMAL)
    mutate(data)
    with pytest.raises(ConfigError, match="expected an integer"):
        parse_config(data)


def test_integer_fields_accept_integral_floats_and_strings():
    import copy

    data = copy.deepcopy(MINIMAL)
    data["sweep"]["frequency"]["count"] = 4.01e+2
    data["sweep"]["field"]["count"] = "5"
    data["modes_table"] = {"field": {"start": 0.3, "stop": 0.4, "count": 2.0}, "indices": [["2", 1.0]]}
    config = parse_config(data)
    assert config.frequency_grid.count == 401 and type(config.frequency_grid.count) is int
    assert config.field_grid.count == 5
    assert config.modes_table.field_grid.count == 2
    assert config.modes_table.indices == ((2, 1),)
    assert all(type(v) is int for v in config.modes_table.indices[0])
    data["sweep"]["field"]["count"] = "3e0"
    assert parse_config(data).field_grid.count == 3


@pytest.mark.parametrize(
    "text, message",
    [
        ("field: {start: 0.3, stop: 0.3, count: true}\n  indices: [[1, 1]]",
         "modes_table.field.count: expected an integer, got True"),
        ("field: {start: 0.3, stop: 0.3, count: 1}\n  indices: [[true, true]]",
         "modes_table.indices[0][0]: expected an integer, got True"),
        ("field: {start: false, stop: 0.3, count: 2}\n  indices: [[1, 1]]",
         "modes_table.field.start: expected a number, got False"),
    ],
    ids=["count", "indices", "start"],
)
def test_yaml_booleans_are_not_numbers(tmp_path, capsys, text, message):
    # YAML's true and false load as Python bools, which are ints: a number or an integer of a config rejects them,
    # and `modes` exits 2 before any row
    path = tmp_path / "booleans.yaml"
    path.write_text(f"system:\n  cavity: {{f_c: 10.632e+9, kappa_e: 2.1e+6}}\nmodes_table:\n  {text}\n")
    assert cli.main(["modes", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"config error: {message}\n"


def test_derive_reference_cells_are_numbers():
    import copy

    data = copy.deepcopy(MINIMAL)
    data["derive"] = {"cavity_volume": 1.6e-6, "reference": {"kittel": {"N": "1.51e17", "C": 132, "g_B": 0.0329}}}
    assert parse_config(data).derive.reference == {"kittel": {"N": 1.51e17, "C": 132.0, "g_B": 0.0329}}
    data["derive"]["reference"] = None
    assert parse_config(data).derive.reference == {}


def test_fit_section_validation():
    import copy

    data = copy.deepcopy(MINIMAL)
    data["fit"] = {"free": {}}
    with pytest.raises(ConfigError):
        parse_config(data)
    data["fit"] = {"free": {"f_c": [1.0]}}
    with pytest.raises(ConfigError):
        parse_config(data)
    data["fit"] = {"free": {"f_c": [1.0, 2.0]}, "loss": "nope"}
    with pytest.raises(ConfigError):
        parse_config(data)


def test_scaling_section_validation():
    import copy

    data = copy.deepcopy(MINIMAL)
    data["scaling"] = {"model": "sqrt"}
    with pytest.raises(ConfigError):
        parse_config(data)


def test_load_config_from_file(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(MINIMAL))
    config = mc.load_config(path)
    assert config.system.cavity.f_c == 10.632e9
    with pytest.raises(ConfigError):
        mc.load_config(tmp_path / "missing.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("system: [unclosed")
    with pytest.raises(ConfigError):
        mc.load_config(bad)
    bad.write_text("seed: " + "1" * 5000)  # beyond Python's int() digit limit
    with pytest.raises(ConfigError):
        mc.load_config(bad)


def test_shipped_configs_parse(repo_configs=None):
    config_dir = Path(__file__).resolve().parent.parent / "configs"
    for path in sorted(config_dir.glob("*.yaml")):
        config = mc.load_config(path)
        assert config.system.cavity.f_c > 0, path.name


ROOT = Path(__file__).resolve().parent.parent
YAML_FILES = sorted([*(ROOT / "configs").glob("*.yaml"), *(ROOT / "bench" / "inputs").glob("*.yaml")])


def loaders_used(monkeypatch):
    """The loader class of each yaml.load call from here on, in a list."""
    used = []
    load = yaml.load
    monkeypatch.setattr(yaml, "load", lambda stream, Loader: used.append(Loader) or load(stream, Loader))
    return used


def force_pure_python_yaml(monkeypatch):
    """PyYAML as installed without libyaml: no CSafeLoader."""
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML is built without libyaml: one loader only")
@pytest.mark.parametrize("path", YAML_FILES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_libyaml_and_the_pure_python_loader_give_the_same_data(monkeypatch, path):
    text = path.read_text(encoding="utf-8")
    libyaml = yaml.CSafeLoader
    assert yaml.load(text, Loader=libyaml) == yaml.load(text, Loader=yaml.SafeLoader)
    used = loaders_used(monkeypatch)
    fast = dump_config(mc.load_config(path))
    force_pure_python_yaml(monkeypatch)
    assert dump_config(mc.load_config(path)) == fast
    assert used == [libyaml, yaml.SafeLoader]


@pytest.mark.parametrize("loader", ["libyaml", "pure_python"])
@pytest.mark.parametrize(
    "text",
    [
        b"system: [unclosed\n",
        b"system: cavity: 1\n",
        b"system:\n\t- 1\n",
        b"\x07system: 1\n",
        b"- &a 1\n- *b\n",
        b"system: !!python/object/apply:os.system ['true']\n",
        b"seed: " + b"1" * 5000 + b"\n",
        b"\xff\xfesystem: 1\n",
    ],
    ids=["unclosed", "nested_mapping", "tab", "control_character", "unknown_alias", "python_tag", "long_int",
         "not_utf_8"],
)
def test_a_malformed_file_exits_2_under_either_loader(tmp_path, monkeypatch, capsys, loader, text):
    if loader == "pure_python":
        force_pure_python_yaml(monkeypatch)
    elif not yaml.__with_libyaml__:
        pytest.skip("PyYAML is built without libyaml")
    path = tmp_path / "bad.yaml"
    path.write_bytes(text)
    used = loaders_used(monkeypatch)
    assert cli.main(["derive", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"config error: config file {path} is not valid YAML: ")
    assert used == [yaml.SafeLoader if loader == "pure_python" else yaml.CSafeLoader]
