"""The scenario file schema: unknown keys and sections, value bounds, the
refused [pod:*] sections, and the README's INI block, which must parse,
show the defaults and name every key."""

import inspect
import json
import math
import re
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from convergesim import cli, mlcore, podlayer
from convergesim.orchestrator import ConfigError, ScenarioConfig, load_config

README = Path(__file__).resolve().parent.parent / "README.md"
PACKAGED_ANCHORS = README.parent / "src" / "convergesim" / "data" / "network_anchors.json"
BASE = "[experiment]\nkind = taxonomy\nseed = 1\n"


@pytest.fixture
def readme_ini(tmp_path):
    blocks = re.findall(r"```ini\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    path = tmp_path / "readme.ini"
    path.write_text(blocks[0])
    return path


def write(tmp_path, text):
    path = tmp_path / "scenario.ini"
    path.write_text(text)
    return path


# One value per schema key, each unlike its default on BASE: the INI text,
# then the value its field must hold
NON_DEFAULT = {
    ("experiment", "kind"): ("hybrid", "hybrid"),
    ("experiment", "seed"): ("2", 2),
    ("experiment", "iterations"): ("3", 3),
    ("experiment", "sizes"): ("4 8", (4, 8)),
    ("experiment", "anchors"): (str(PACKAGED_ANCHORS), str(PACKAGED_ANCHORS)),
    ("cluster", "nodes"): ("40", 40),
    ("cluster", "cores_per_node"): ("8", 8),
    ("taxonomy", "nodes"): ("8", 8),
    ("taxonomy", "gang_min"): ("2", 2),
    ("taxonomy", "gang_max"): ("4", 4),
    ("taxonomy", "jobs_per_scheduler"): ("10", 10),
    ("taxonomy", "decision_cost"): ("0.0025", 0.0025),
    ("taxonomy", "deadlock_horizon"): ("30", 30.0),
    ("hybrid", "train_count"): ("10", 10),
    ("hybrid", "test_count"): ("5", 5),
    ("hybrid", "dim_min"): ("2", 2),
    ("hybrid", "dim_max"): ("4", 4),
    ("hybrid", "train_width"): ("2", 2),
    ("hybrid", "noise_sigma"): ("0.1", 0.1),
    ("hybrid", "sim_nodes"): ("2", 2),
    ("hybrid", "service_nodes"): ("2", 2),
    ("models", "learning_rate"): ("0.02", 0.02),
    ("models", "alpha"): ("2.0", 2.0),
    ("models", "beta"): ("3.0", 3.0),
    ("models", "aggressiveness"): ("0.5", 0.5),
    ("models", "epsilon"): ("0.2", 0.2),
    ("output", "directory"): ("elsewhere", "elsewhere"),
}


def schema_fields() -> dict:
    """(section, key) -> the ScenarioConfig field it sets, for every key."""
    return {f.metadata["ini"]: f.name for f in fields(ScenarioConfig)}


def test_value_table_names_every_schema_key():
    assert sorted(NON_DEFAULT) == sorted(schema_fields())


@pytest.mark.parametrize("section, key", sorted(NON_DEFAULT))
def test_every_schema_key_reaches_its_field(tmp_path, section, key):
    # the README block sets every key to its default, so only a value
    # unlike the default shows that the parser keeps the key
    text, value = NON_DEFAULT[section, key]
    sections = {"experiment": {"kind": "taxonomy", "seed": "1"}}  # BASE
    sections.setdefault(section, {})[key] = text
    cfg = load_config(write(tmp_path, "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for name, keys in sections.items())))
    default = ScenarioConfig(experiment="taxonomy", seed=1)
    names = schema_fields()
    expected = {name: getattr(default, name) for name in names.values()}
    assert expected[names[section, key]] != value
    expected[names[section, key]] = value
    assert {name: getattr(cfg, name) for name in names.values()} == expected


@pytest.mark.parametrize("section", [
    "[hybrid]\ntrain_cout = 5\n",
    "iteration = 3\n",  # still in BASE's [experiment]
    "[cluster]\nnode = 4\n",
    "[taxonomy]\ndecision_cost_s = 0.01\n",
    "[models]\nlearning = 0.1\n",
    "[output]\ndir = elsewhere\n",
    "[cluster]\nbypass_nic = false\n",  # the NIC is on every node
])
def test_unknown_key_in_known_section_is_config_error(tmp_path, section):
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(write(tmp_path, BASE + section))


@pytest.mark.parametrize("key", ["decision_cost", "deadlock_horizon"])
@pytest.mark.parametrize("value", ["0", "-1", "inf", "nan"])
def test_taxonomy_times_must_be_finite_and_positive(tmp_path, key, value):
    # an infinite horizon or a NaN decision cost let a taxonomy run go on forever
    with pytest.raises(ConfigError, match=key):
        load_config(write(tmp_path, BASE + f"[taxonomy]\n{key} = {value}\n"))


@pytest.mark.parametrize("section, key, value", [
    ("experiment", "iterations", "0"),
    ("taxonomy", "nodes", "1"),
    ("taxonomy", "jobs_per_scheduler", "0"),
    ("hybrid", "train_count", "0"),
    ("hybrid", "test_count", "0"),
    ("hybrid", "train_width", "0"),
    ("hybrid", "sim_nodes", "0"),
    ("hybrid", "service_nodes", "0"),
    ("hybrid", "noise_sigma", "-1"),
    ("hybrid", "noise_sigma", "nan"),
    ("hybrid", "noise_sigma", "inf"),
])
def test_value_below_its_bound_is_config_error(tmp_path, section, key, value):
    # such values used to fail only at run time, or (noise_sigma) to be ignored
    header = "" if section == "experiment" else f"[{section}]\n"  # BASE opens [experiment]
    with pytest.raises(ConfigError, match=re.escape(f"[{section}] {key} must be")):
        load_config(write(tmp_path, BASE + f"{header}{key} = {value}\n"))


@pytest.mark.parametrize("key", ["nodes", "cores_per_node"])
def test_cluster_count_below_one_is_config_error(tmp_path, capsys, key):
    # the cluster was checked only when the run started: exit 2, not 1
    path = write(tmp_path, BASE + f"[cluster]\n{key} = 0\n")
    with pytest.raises(ConfigError, match="must be >= 1"):
        load_config(path)
    assert cli.main(["run", "--config", str(path)]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("values, key", [
    ("cpu_limit = 0", "cpu_limit"),  # used to divide by zero at run time
    ("cpu_limit = inf", "cpu_limit"),
    ("cpu_limit = nan", "cpu_limit"),
])
def test_pod_cpu_values_must_be_finite(tmp_path, values, key):
    # a scenario file can no longer set a pod's values, so the rule is
    # PodSpec's own
    with pytest.raises(ConfigError, match=re.escape("[pod:x]")):
        load_config(write(tmp_path, BASE + f"[pod:x]\n{values}\n"))
    name, value = (part.strip() for part in values.split("="))
    with pytest.raises(ValueError, match=f"{key} must be finite"):
        podlayer.PodSpec(name="x", **{name: float(value)})


@pytest.mark.parametrize("key, value, param", [
    ("alpha", "-1", "alpha"),  # used to fail only when the service created the model
    ("alpha", "0", "alpha"),
    ("learning_rate", "nan", "learning_rate"),  # these failed the first train
    ("learning_rate", "inf", "learning_rate"),
    ("beta", "inf", "beta"),
    ("aggressiveness", "-1", "C"),  # these ran under an undefined update rule
    ("aggressiveness", "nan", "C"),
    ("epsilon", "-5", "epsilon"),
    ("epsilon", "inf", "epsilon"),
])
def test_bad_model_value_is_config_error(tmp_path, capsys, key, value, param):
    path = write(tmp_path, BASE + f"[models]\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=f"bad \\[models\\] value .*{param} must be"):
        load_config(path)
    assert cli.main(["run", "--config", str(path)]) == 1
    assert "config error" in capsys.readouterr().err


def test_model_values_at_their_bounds_are_accepted(tmp_path):
    cfg = load_config(write(tmp_path, BASE + "[models]\nlearning_rate = 1e-300\n"
                            "alpha = 1e-300\nbeta = 1e300\naggressiveness = inf\n"
                            "epsilon = 0\n"))
    assert cfg.model_params["passive_aggressive"] == {"C": float("inf"), "epsilon": 0.0}


def test_model_update_that_overflows_is_a_runtime_error(tmp_path, capsys):
    # whether an update overflows depends on the run's data, so no config
    # check refuses this rate: the run fails its train request instead
    path = write(tmp_path, "[cluster]\nnodes = 5\n[experiment]\nkind = hybrid\nseed = 1\n"
                 "[hybrid]\ntrain_count = 20\ntest_count = 2\n"
                 "[models]\nlearning_rate = 1e300\n")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error: train failed for model linear_sgd" in err
    assert "error=ValueError" in err and "ServiceResponse(" not in err
    assert not out.exists()


def test_missing_anchors_file_is_config_error(tmp_path, capsys):
    # `calibrate --anchors` already said so; `run` failed with exit 2
    path = write(tmp_path, BASE + f"anchors = {tmp_path / 'none.json'}\n")
    with pytest.raises(ConfigError, match="anchor file .*none.json does not exist"):
        load_config(path)
    assert cli.main(["run", "--config", str(path)]) == 1
    assert "config error" in capsys.readouterr().err


def anchors_text(edit):
    """The packaged anchor file, as JSON text, after `edit` of its dict."""
    raw = json.loads(PACKAGED_ANCHORS.read_text())
    edit(raw)
    return json.dumps(raw)


@pytest.mark.parametrize("text, message", [
    ("{ not json", "is not JSON"),
    (anchors_text(lambda raw: raw.pop("allreduce_multiplier")),
     "key allreduce_multiplier is missing"),
    (anchors_text(lambda raw: raw["paths"]["tap_relay"].update(bw_1b=3e10)),
     "inconsistent anchors for path tap_relay"),
    (anchors_text(lambda raw: raw["allreduce_multiplier"]["4"].update(min=-3.6)),
     "allreduce multiplier bands must satisfy 0 < min <= max"),
    (anchors_text(lambda raw: raw["paths"]["os_bypass"].pop("bw_4mib")),
     "key paths.os_bypass.bw_4mib is missing or not a finite number"),
    (anchors_text(lambda raw: raw["paths"]["os_bypass"].update(latency_1b=float("nan"))),
     "key paths.os_bypass.latency_1b is missing or not a finite number"),
    (anchors_text(lambda raw: raw["allreduce_multiplier"].update(x={"min": 1, "max": 2})),
     "allreduce_multiplier key 'x' is not a node count"),
], ids=["not_json", "no_multiplier", "inconsistent", "negative_band", "no_bandwidth", "nan",
        "bad_nodes"])
def test_malformed_anchors_file_is_config_error(tmp_path, capsys, text, message):
    # the file is checked when the config loads, even for a scenario that
    # never reads the network, and `calibrate` applies the same rule
    anchors = tmp_path / "anchors.json"
    anchors.write_text(text)
    path = write(tmp_path, BASE + f"anchors = {anchors}\n")
    with pytest.raises(ConfigError, match=f"anchor file {re.escape(str(anchors))}"):
        load_config(path)
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(path)
    assert cli.main(["run", "--config", str(path)]) == 1
    assert cli.main(["calibrate", "--anchors", str(anchors)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all(line.startswith("config error: anchor file") and message in line
               for line in err)


def test_counts_at_their_bounds_are_accepted(tmp_path):
    cfg = load_config(write(tmp_path, BASE + "iterations = 1\n"
                            "[taxonomy]\nnodes = 2\njobs_per_scheduler = 1\n"
                            "[hybrid]\ntrain_count = 1\ntest_count = 1\ntrain_width = 1\n"
                            "sim_nodes = 1\nservice_nodes = 1\nnoise_sigma = 0\n"))
    assert (cfg.taxonomy_nodes, cfg.sim_nodes, cfg.noise_sigma) == (2, 1, 0.0)


def test_repeated_size_is_config_error(tmp_path, capsys):
    # sizes = 4 4 used to run and write a bundle whose aggregate check failed
    path = write(tmp_path, "[experiment]\nkind = scaling_study\nseed = 1\n"
                 "iterations = 3\nsizes = 4 4\n")
    with pytest.raises(ConfigError, match=re.escape("[experiment] sizes must be distinct")):
        load_config(path)
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_pod_section_is_config_error(tmp_path, capsys):
    # the scenarios apply their own pod sets; this section used to declare
    # an extra deployment that nothing read
    path = write(tmp_path, BASE + "[pod:x]\nreplicas = 2\n")
    with pytest.raises(ConfigError, match=re.escape("[pod:x]")):
        load_config(path)
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "config error: [pod:x]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_noise_sigma_that_can_overflow_exp_is_config_error(tmp_path, capsys):
    # 1000 used to exit 2 with "math range error" when a draw overflowed exp
    path = write(tmp_path, BASE + "[hybrid]\nnoise_sigma = 1000\n")
    with pytest.raises(ConfigError, match=re.escape("noise_sigma must be >= 0 and <= 58")):
        load_config(path)
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert load_config(write(tmp_path, BASE + "[hybrid]\nnoise_sigma = 58\n")).noise_sigma == 58
    # the bound's derivation: numpy's normal draws |z| < R + sqrt(106 ln 2)
    max_z = 3.6541528853610088 + math.sqrt(106 * math.log(2))
    assert 58 * max_z < math.log(sys.float_info.max) < 59 * max_z


@pytest.mark.parametrize("key, value", [("deadlock_horizon", "1e300"),
                                        ("decision_cost", "1e-300")])
def test_taxonomy_rounds_are_bounded(tmp_path, key, value):
    # either value ran the two-level hoarding case for ever
    with pytest.raises(ConfigError, match=re.escape("must be <= 10000000 rounds")):
        load_config(write(tmp_path, BASE + f"[taxonomy]\n{key} = {value}\n"))
    load_config(write(tmp_path, BASE + "[taxonomy]\ndeadlock_horizon = 12500\n"))  # 10^7


def test_malformed_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, BASE + "[experiment]\nseed = 2\n"))


def test_scenario_file_that_is_not_utf8_is_config_error(tmp_path, capsys):
    # the decode error escaped load_config: exit 2, not 1
    path = tmp_path / "scenario.ini"
    path.write_bytes(BASE.encode() + b"# caf\xe9\n")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 1
    assert f"config error: malformed config file {path}: " in capsys.readouterr().err
    assert not out.exists()


def test_unknown_section_is_ignored(tmp_path):
    cfg = load_config(write(tmp_path, BASE + "[notes]\nanything = goes\n"))
    assert cfg.experiment == "taxonomy"


def test_readme_ini_block_is_accepted(readme_ini):
    load_config(readme_ini)


def test_readme_ini_values_are_the_defaults(readme_ini):
    cfg = load_config(readme_ini)
    default = ScenarioConfig(experiment=cfg.experiment, seed=cfg.seed)
    for f in fields(ScenarioConfig):
        if not f.metadata["model"]:  # those default to None; checked below
            assert getattr(cfg, f.name) == getattr(default, f.name), f.name
    for variant, params in cfg.model_params.items():
        signature = inspect.signature(mlcore.MODEL_VARIANTS[variant])
        for name, value in params.items():
            assert value == signature.parameters[name].default, (variant, name)


def test_readme_ini_block_names_every_schema_key(readme_ini):
    # a commented `# key = ...` line counts: the block documents the key
    named, section = {}, None
    for line in readme_ini.read_text().splitlines():
        if header := re.match(r"\[([^\]]+)\]", line):
            section = header[1]
            named[section] = []
        elif key := re.match(r"#?\s*(\w+)\s*=", line):
            named[section].append(key[1])
    schema = {}
    for section, key in schema_fields():
        schema.setdefault(section, []).append(key)
    assert {section: sorted(keys) for section, keys in named.items()} == {
        section: sorted(keys) for section, keys in schema.items()}
