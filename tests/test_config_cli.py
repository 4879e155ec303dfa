"""Config parsing, overrides, and the CLI surface (exit codes, files)."""

import copy
import json
import multiprocessing
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dgossip import cli
from dgossip.cli import main
from dgossip.config import (
    AlgorithmKind,
    ConfigError,
    ExperimentConfig,
    _strip_comment,
    apply_override,
    config_from_dict,
    config_to_dict,
    load_config,
    parse_config_text,
    parse_scalar,
    validated,
)
from dgossip.engine import run_experiment
from dgossip.topology import TopologyKind, TopologySpec, build_mixing

BASE_CONFIG = """\
# desk-scale logistic run
algorithm = "oled_sgd"
beta = 0.2
m = 8
rounds = 6
local_steps = 3
seed = 1
targets = [0.5, 0.7]

[topology]
kind = "ring"

[model]
kind = "logistic"

[optimizer]
eta0 = 0.1
decay = 0.998
batch_size = 8

[partition]
scheme = "dirichlet"
alpha = 0.5

[data]
classes = 3
dim = 6
per_class = 40
spread = 0.8
test_per_class = 20
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "experiment.toml"
    path.write_text(BASE_CONFIG)
    return path


class TestParsing:
    def test_scalars(self):
        assert parse_scalar("true") is True
        assert parse_scalar("false") is False
        assert parse_scalar("42") == 42
        assert parse_scalar("0.3") == 0.3
        assert parse_scalar("1e6") == 1e6
        assert parse_scalar('"ring"') == "ring"
        assert parse_scalar("ring") == "ring"
        assert parse_scalar("[1, 2, 3]") == [1, 2, 3]
        assert parse_scalar("[0.5, 0.7]") == [0.5, 0.7]
        assert parse_scalar("[]") == []

    def test_sections_and_comments(self):
        tree = parse_config_text(BASE_CONFIG)
        assert tree["algorithm"] == "oled_sgd"
        assert tree["targets"] == [0.5, 0.7]
        assert tree["topology"]["kind"] == "ring"
        assert tree["optimizer"]["eta0"] == 0.1

    def test_hash_inside_string_kept(self):
        tree = parse_config_text('name = "a#b"  # trailing comment\n')
        assert tree["name"] == "a#b"

    @staticmethod
    def stripped_by_character(line):
        """The line up to its first '#' outside a quoted string, one character at a time."""
        out, in_string = [], False
        for ch in line:
            if ch == '"':
                in_string = not in_string
            if ch == "#" and not in_string:
                break
            out.append(ch)
        return "".join(out)

    @settings(max_examples=300, deadline=None)
    @given(line=st.text(st.sampled_from('ab =#"[],.\t') | st.characters(), max_size=30))
    def test_comment_strip_matches_the_character_loop(self, line):
        assert _strip_comment(line) == self.stripped_by_character(line)

    def test_bad_line_reports_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("a = 1\nnot a pair\n")

    @pytest.mark.parametrize(
        "text, named",
        [
            ("[]\na = 1\n", "line 1: empty section name"),
            ("a = 1\n[a]\nb = 2\n", "line 2: a collides with a value"),
            ("a = 1\n = 3\n", "line 2: missing key"),
        ],
    )
    def test_bad_text_names_its_line(self, text, named):
        with pytest.raises(ConfigError, match=named):
            parse_config_text(text)

    def test_override(self):
        tree = parse_config_text(BASE_CONFIG)
        apply_override(tree, "optimizer.lambda=0.1")
        apply_override(tree, "beta", "0.4")
        assert tree["optimizer"]["lambda"] == 0.1
        assert tree["beta"] == 0.4


class TestConfigFromDict:
    def test_full_tree(self):
        cfg = config_from_dict(parse_config_text(BASE_CONFIG))
        assert cfg.algorithm is AlgorithmKind.OLED_SGD
        assert cfg.beta == 0.2
        assert cfg.m == 8
        assert cfg.topology.kind.value == "ring"
        assert cfg.optimizer.batch_size == 8
        assert cfg.targets == (0.5, 0.7)

    def test_unknown_key_is_named(self):
        tree = parse_config_text(BASE_CONFIG)
        tree["optimizer"]["lambdaa"] = 0.1
        with pytest.raises(ConfigError, match="optimizer.lambdaa"):
            config_from_dict(tree)
        tree2 = parse_config_text(BASE_CONFIG)
        tree2["betaa"] = 0.1
        with pytest.raises(ConfigError, match="betaa"):
            config_from_dict(tree2)

    def test_method_conflict_rejected(self):
        tree = parse_config_text(BASE_CONFIG)
        tree["optimizer"]["method"] = "sam"
        with pytest.raises(ConfigError, match="method"):
            config_from_dict(tree)

    def test_implied_method_is_not_a_config_key(self):
        # the method follows from the algorithm alone, so a file may not set it even to that value
        tree = parse_config_text(BASE_CONFIG)
        tree["optimizer"]["method"] = "sgd"
        with pytest.raises(ConfigError, match="unknown config key: optimizer.method"):
            config_from_dict(tree)

    def test_type_errors_name_the_key(self):
        tree = parse_config_text(BASE_CONFIG)
        tree["rounds"] = "many"
        with pytest.raises(ConfigError, match="rounds"):
            config_from_dict(tree)

    def test_round_trip_identity(self):
        cfg = validated(config_from_dict(parse_config_text(BASE_CONFIG)))
        assert config_from_dict(config_to_dict(cfg)) == cfg

    @pytest.mark.parametrize("algorithm", list(AlgorithmKind))
    def test_a_file_and_python_build_the_same_config(self, algorithm):
        # the dataclasses carry the defaults; a file adds only the ring and the derived method, m and seed
        built = ExperimentConfig(algorithm=algorithm, m=8, topology=TopologySpec(TopologyKind.RING, 8))
        read = config_from_dict({"algorithm": algorithm.value, "m": 8, "topology": {"kind": "ring"}})
        assert validated(built) == validated(read)

    def test_round_trip_central_kind(self):
        tree = parse_config_text(BASE_CONFIG)
        tree["algorithm"] = "fedavg_central"
        tree.pop("topology")
        cfg = validated(config_from_dict(tree))
        assert cfg.topology is None
        assert config_from_dict(config_to_dict(cfg)) == cfg


PRESETS = sorted((Path(__file__).parents[1] / "configs").glob("*.toml"))
PRESET_TREES = [parse_config_text(path.read_text()) for path in PRESETS]


def _dotted_keys(tree: dict, prefix: str = "") -> list[str]:
    keys = []
    for key, value in tree.items():
        keys.append(prefix + key)
        if isinstance(value, dict):
            keys += _dotted_keys(value, f"{prefix}{key}.")
    return keys


# every file key of a config with a topology, plus keys that are not file keys
FUZZ_KEYS = _dotted_keys(config_to_dict(load_config(str(PRESETS[0])))) + [
    "bogus", "optimizer.lam", "topology.m", "model.bogus", "data.bogus.deeper",
]
FUZZ_VALUES = st.sampled_from(
    [
        float("nan"), float("inf"), -float("inf"), 0, 0.0, -1, -0.5, 1, 2, 0.3, 16,
        True, False, "", "x", "ring", "random_k", "sam", "mlp", "csv", "pathological",
        "fedavg_central", "DFedAvgM", [], [0], [1, 2], [0.5, 0.7], ["a"], {}, {"q": 1},
        10**23, -(10**23), 2**63,
    ]
) | st.integers(-3, 300) | st.floats(-2.0, 2.0)


def _set(tree: dict, dotted: str, value) -> None:
    node = tree
    for part in dotted.split(".")[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            return  # a scalar already sits where the section would be
    node[dotted.split(".")[-1]] = value


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(range(len(PRESET_TREES))),
    st.lists(st.tuples(st.sampled_from(FUZZ_KEYS), FUZZ_VALUES), max_size=4),
)
def test_config_trees_parse_or_name_the_error(preset, overrides):
    """Any tree either parses, validates and round-trips, or raises ConfigError.

    Only the config layer runs: no problem is built, so no drawn size allocates.
    """
    tree = copy.deepcopy(PRESET_TREES[preset])
    for dotted, value in overrides:
        _set(tree, dotted, copy.deepcopy(value))
    drawn = repr(tree)
    try:
        cfg = config_from_dict(tree)
        assert config_from_dict(config_to_dict(cfg)) == cfg
        cfg = validated(cfg)
    except ConfigError:
        return
    finally:
        assert repr(tree) == drawn  # the caller's tree is left whole
    assert config_from_dict(config_to_dict(cfg)) == cfg
    json.dumps(config_to_dict(cfg), allow_nan=False)


# integers whose every product a config accepts is tiny or far past any array
CLI_INTS = [-1, 0, 1, 2, 3, 64, 2**62, 2**63 - 1, 10**23]
CLI_VALUES = [str(v) for v in CLI_INTS] + [
    "nan", "inf", "-inf", "0.5", "x", '"ring"', '"random_k"', '"mlp"', '"quadratic"', '"csv"',
    '"sam"', '"pathological"', '"fedavg_central"', "true", "[]", "{}", "[0]", "[1, 2]", "[64]",
    f"[{2**62}]",
]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(PRESETS),
    st.lists(st.tuples(st.sampled_from(FUZZ_KEYS), st.sampled_from(CLI_VALUES)), max_size=3),
)
def test_cli_run_ends_in_a_documented_exit_code(preset, overrides):
    """Two rounds of any preset under any overrides end in 0, 2, 3 or 4, never a traceback."""
    argv = ["run", "--config", str(preset)]
    for key, value in overrides + [("rounds", "2")]:  # the last override wins
        argv += ["--set", f"{key}={value}"]
    with tempfile.TemporaryDirectory() as out, warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # a diverging run overflows first
        assert main(argv + ["--out", out]) in (0, 2, 3, 4)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from([k.value for k in TopologyKind] + ["tree"]), min_size=1, max_size=2),
    st.lists(st.sampled_from(CLI_INTS), min_size=1, max_size=2),
    st.sampled_from(CLI_INTS),
    st.sampled_from(CLI_INTS),
    st.booleans(),
)
def test_cli_topo_report_ends_in_a_documented_exit_code(kinds, sizes, k, seed, missing_dir):
    """Any kinds, sizes, k and seed end in 0, 2, 3 or 4, also with --out in a missing directory."""
    with tempfile.TemporaryDirectory() as out:
        argv = [  # "--m=-1,2": argparse reads a separate "-1,2" as an option
            "topo-report", f"--kinds={','.join(kinds)}", f"--m={','.join(map(str, sizes))}",
            f"--k={k}", f"--seed={seed}",
            "--out", str(Path(out, "missing" if missing_dir else "", "psi.csv")),
        ]
        assert main(argv) in (0, 2, 3, 4)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(CLI_INTS),
    st.sampled_from(CLI_INTS),
    st.sampled_from([None] + CLI_INTS),
    st.sampled_from(["oled_sgd", "dfedavg", "fedavg_central", "fedsam_central"]),
    st.sampled_from(["0", "1", "2"]),
)
def test_cli_stability_ends_in_a_documented_exit_code(client, sample, label, algorithm, rounds):
    """Any swap, label and algorithm end in 0, 2, 3 or 4; at 0 rounds no swap is ever drawn."""
    argv = [
        "stability", "--config", str(Path(__file__).parents[1] / "configs" / "logistic_dirichlet.toml"),
        f"--client={client}", f"--sample={sample}",
        "--set", f"algorithm={algorithm}", "--set", f"rounds={rounds}",
    ]
    if label is not None:
        argv += [f"--replace-label={label}"]
    with tempfile.TemporaryDirectory() as out:
        assert main(argv + ["--out", out]) in (0, 2, 3, 4)


class TestCmdRun:
    def test_happy_path(self, config_file, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_file), "--out", str(out)]) == 0
        assert (out / "metrics.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["beta"] == 0.2
        assert summary["rounds"] == 6
        # echoed config re-parses to the identical experiment
        cfg = validated(config_from_dict(parse_config_text(BASE_CONFIG)))
        assert config_from_dict(summary["config"]) == cfg

    def test_refuses_overwrite_without_force(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_file), "--out", str(out)]) == 0
        assert main(["run", "--config", str(config_file), "--out", str(out)]) == 4
        assert "refusing to overwrite" in capsys.readouterr().err
        assert main(["run", "--config", str(config_file), "--out", str(out), "--force"]) == 0

    def test_beta_validation_exit_code(self, config_file, tmp_path, capsys):
        code = main(
            ["run", "--config", str(config_file), "--out", str(tmp_path / "o"), "--set", "beta=1.2"]
        )
        assert code == 2
        assert "beta" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["exp", "fully_connected", "random-k", "Ring", " ring"])
    def test_topology_kind_other_than_its_value_exits_2_naming_it(self, tmp_path, capsys, kind):
        path = tmp_path / "experiment.toml"
        path.write_text(BASE_CONFIG.replace('kind = "ring"', f'kind = "{kind}"'))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert f"unknown topology kind {kind!r}" in capsys.readouterr().err

    def test_lambda_override_echoed(self, config_file, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "run", "--config", str(config_file), "--out", str(out),
                "--set", "algorithm=oled_sam", "--set", "optimizer.lambda=0.1",
            ]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["optimizer"]["lambda"] == 0.1

    @pytest.mark.parametrize("via", ["set", "env"])
    def test_seed_takes_the_whole_unsigned_64_bit_range(self, config_file, tmp_path, capsys, monkeypatch, via):
        # the config layer and validated share one seed bound, [0, 2**64)
        def run(seed, out):
            argv = ["run", "--config", str(config_file), "--out", str(tmp_path / out), "--set", "rounds=1"]
            if via == "env":
                monkeypatch.setenv("DGOSSIP_SEED", str(seed))
                return main(argv)
            return main(argv + ["--set", f"seed={seed}"])

        assert run(2**64 - 1, "top") == 0
        assert json.loads((tmp_path / "top" / "summary.json").read_text())["config"]["seed"] == 2**64 - 1
        for seed in (2**64, -1):
            capsys.readouterr()
            assert run(seed, "bad") == 2
            assert "seed" in capsys.readouterr().err
            assert not (tmp_path / "bad").exists()

    def test_env_seed_override(self, config_file, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("DGOSSIP_SEED", "777")
        assert main(["run", "--config", str(config_file), "--out", str(out1)]) == 0
        monkeypatch.delenv("DGOSSIP_SEED")
        assert main(["run", "--config", str(config_file), "--out", str(out2)]) == 0
        s1 = json.loads((out1 / "summary.json").read_text())
        s2 = json.loads((out2 / "summary.json").read_text())
        assert s1["config"]["seed"] == 777
        assert s2["config"]["seed"] == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exit_code(self, tmp_path, capsys):
        path = tmp_path / "diverge.toml"
        path.write_text(
            'algorithm = "dfedavg"\nm = 4\nrounds = 5\nlocal_steps = 5\n'
            '[topology]\nkind = "ring"\n[model]\nkind = "quadratic"\np = 4\n'
            "[optimizer]\neta0 = 1e200\ndecay = 1.0\n"
        )
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
        assert "round" in capsys.readouterr().err

    def test_missing_config_is_io_error(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.toml"), "--out", str(tmp_path)]) == 4

    def test_non_utf8_config_exits_2_naming_it(self, tmp_path, capsys):
        path = tmp_path / "bad.toml"
        path.write_bytes(b"beta = \xff\n")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert str(path) in capsys.readouterr().err

    def test_non_utf8_csv_exits_2_naming_it(self, config_file, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"f1,label\n1.0,0\n\xff,1\n")
        argv = ["run", "--config", str(config_file), "--out", str(tmp_path / "o")]
        assert main(argv + ["--set", "data.source=csv", "--set", f"data.path={path}"]) == 2
        assert str(path) in capsys.readouterr().err

    def test_a_ring_past_a_dense_w_validates_and_builds(self):
        # W is held as its neighbour table, so m = 10**5 needs no (m, m) array
        tree = parse_config_text(BASE_CONFIG)
        tree.update(m=10**5, model={"kind": "quadratic", "p": 1})
        index, weight = build_mixing(validated(config_from_dict(tree)).topology).neighbours
        assert index.shape == weight.shape == (10**5, 3)

    def test_worker_flag_does_not_change_outputs(self, config_file, tmp_path):
        out1, out2 = tmp_path / "w1", tmp_path / "w4"
        assert main(["run", "--config", str(config_file), "--out", str(out1)]) == 0
        assert main(
            ["run", "--config", str(config_file), "--out", str(out2), "--workers", "4"]
        ) == 0
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()

    def test_non_integer_workers_is_config_error(self, config_file, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["run", "--config", str(config_file), "--out", str(out), "--workers", "abc"]) == 2
        assert "--workers" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_workers_is_config_error(self, config_file, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["run", "--config", str(config_file), "--out", str(out), "--workers", "0"]) == 2
        assert "--workers" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_rejects_bad_workers(self, config_file, tmp_path, capsys):
        code = main(
            ["sweep", "--config", str(config_file), "--out", str(tmp_path / "s"),
             "--key", "beta", "--values", "0.0,0.1", "--workers", "-1"]
        )
        assert code == 2
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, expected", [(None, 1), ("3", 3), ("auto", len(os.sched_getaffinity(0)))])
    def test_run_and_sweep_pass_workers_to_the_engine(self, monkeypatch, config_file, tmp_path, flag, expected):
        seen = []

        def spy(cfg, **kwargs):
            seen.append(kwargs["workers"])
            return run_experiment(cfg, **kwargs)

        monkeypatch.setattr(cli, "run_experiment", spy)
        extra = [] if flag is None else ["--workers", flag]
        assert main(["run", "--config", str(config_file), "--out", str(tmp_path / "r"), *extra]) == 0
        assert main(["sweep", "--config", str(config_file), "--out", str(tmp_path / "s"),
                     "--key", "beta", "--values", "0.0,0.1", *extra]) == 0
        assert seen == [expected] * 3

    def test_stability_checks_workers(self, config_file, tmp_path, capsys):
        argv = ["stability", "--config", str(config_file), "--out", str(tmp_path / "s"),
                "--client", "0", "--sample", "0", "--workers"]
        assert main([*argv, "0"]) == 2
        assert "--workers" in capsys.readouterr().err
        assert main([*argv, "2"]) == 0

    @pytest.mark.parametrize("flag", ["2", "auto"])
    def test_workers_past_one_without_fork_is_config_error(self, monkeypatch, config_file, tmp_path, capsys, flag):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        out = tmp_path / "o"
        assert main(["run", "--config", str(config_file), "--out", str(out), "--workers", flag]) == 2
        assert "--workers 2 needs the 'fork' start method" in capsys.readouterr().err
        assert not out.exists()
        assert main(["run", "--config", str(config_file), "--out", str(out), "--workers", "1"]) == 0

    @pytest.mark.parametrize("command", ["run", "sweep", "stability"])
    def test_no_help_calls_workers_inert(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "--workers" in text and "speed do not depend" not in text and "compatibility" not in text

    @pytest.mark.parametrize(
        "command, sets, env_seed, named",
        [
            ("run", ["optimizer.eta0=0"], None, "eta0"),
            ("run", ["optimizer.batch_size=0"], None, "batch_size"),
            ("run", ["optimizer.decay=2"], None, "decay"),
            ("run", ["topology.kind=random_k", "topology.k=0"], None, "k=0"),
            ("run", ["partition.alpha=nan"], None, "partition.alpha"),
            ("run", ["partition.alpha=inf"], None, "partition.alpha"),
            ("run", ["m=16", "data.per_class=2"], None, "data.per_class"),
            ("run", ["model.kind=mlp", "model.hidden=[0]"], None, "model.hidden"),
            ("run", [], "abc", "DGOSSIP_SEED"),
            ("run", ["topology.kind=random_k", "topology.seed=-1"], None, "topology.seed"),
            ("stability", ["data.source=csv", "data.path={csv}"], None, "data.test_path"),
            ("run", ["optimizer.batch_size=100000000000000000000000"], None, "optimizer.batch_size"),
            ("run", ["data.per_class=100000000000000000000000"], None, "data.per_class"),
            ("run", ["model=3"], None, "model must be a section"),
            ("run", ["optimizer=[]"], None, "optimizer must be a section"),
            ("run", ["local_steps=4611686018427387904"], None, "local_steps * m * optimizer.batch_size"),
            ("run", ["optimizer.batch_size=9223372036854775807"], None,
             "local_steps * m * optimizer.batch_size"),
            ("run", ["data.per_class=4611686018427387904"], None, "data.per_class + data.test_per_class"),
            ("run", ["model.kind=mlp", "model.hidden=[4611686018427387904]"], None, "m * model parameters"),
            ("run", ["model.kind=quadratic", "model.p=0"], None, "model.p"),
            ("run", ["model.kind=quadratic", "model.p=1", "topology.kind=full", "m=50000"], None,
             "(2 * 49999 + 1)"),
            ("topo-report", ["--kinds", "ring", "--m", "1099511627776"], None, "--m"),
            ("topo-report", ["--kinds", "random_k", "--m", "8", "--seed", "-1"], None, "--seed"),
            ("run", ["data.source=csv", "data.path={csv}", "data.test_path={dir}/wide.csv"], None,
             "data.test_path"),
            ("run", ["data.source=csv", "data.path={csv}", "data.test_path={dir}/label2.csv"], None,
             "data.test_path"),
            ("run", ["data.source=csv", "data.path={csv}", "data.test_path={dir}/nan.csv"], None, "nan.csv:3"),
            ("run", ["data.source=csv", "data.path={dir}/inf.csv"], None, "inf.csv:3"),
            ("run", ["topology.kind=random_k", "topology.k=30000", "m=50000"], None,
             "m * (2 * topology.k + 1) = 3000050000 exceeds 2**31"),
            ("run", ["data.source=csv", "data.path={dir}/biglabel.csv"], None,
             "data.path: m * model parameters"),
            ("run", ["data.test_per_class=-3"], None, "data.test_per_class must be >= 1"),
            ("run", ["data.dim=0"], None, "data.dim must be >= 1"),
            ("run", ["data.classes=1"], None, "data.classes must be >= 2"),
            ("run", ["data.per_class=0"], None, "data.per_class must be >= 1"),
            ("run", ["data.spread=-1"], None, "data.spread must be >= 0"),
            ("run", ["model.kind=quadratic", "model.heterogeneity=-2"], None, "model.heterogeneity must be >= 0"),
            ("run", ["data.source=csv", "data.path={dir}/hugelabel.csv"], None, "hugelabel.csv:3"),
            ("run", ["data.source=csv", "data.path={csv}", "data.test_path={dir}/hugelabel.csv"], None,
             "hugelabel.csv:3"),
            ("run", ["foo"], None, "override must look like key=value, got 'foo'"),
            ("run", ["=3"], None, "override key is empty"),
            ("run", ["seed.x=1"], None, "override 'seed.x' descends into a scalar"),
            ("run", ["m=0"], None, "m must be >= 1"),
            ("run", ["rounds=-1"], None, "rounds must be >= 0"),
            ("run", ["local_steps=0"], None, "local_steps must be >= 1"),
            ("run", ["eval_every=0"], None, "eval_every must be >= 1"),
            ("run", ["algorithm=foo"], None, "unknown algorithm 'foo'"),
            ("run", ["model.kind=foo"], None, "model.kind"),
            ("run", ["partition.scheme=foo"], None, "partition.scheme"),
            ("run", ["data.source=foo"], None, "data.source"),
            ("run", ["data.source=csv"], None, "data.path must name a CSV file"),
            ("run", ["data.source=csv", "data.path={dir}/empty.csv"], None, "empty.csv: empty dataset"),
            ("run", ["data.source=csv", "data.path={dir}/onecolumn.csv"], None,
             "onecolumn.csv:2: need at least one feature and a label"),
            ("run", ["data.source=csv", "data.path={dir}/badlabel.csv"], None, "badlabel.csv:3: parse failure"),
            ("topo-report", ["--kinds", "ring", "--m", ","], None, "--m"),
            ("run", ["partition.alpha=1e308"], None, "partition.alpha"),  # Dir(alpha) draws all-zero shares
            ("run", ["partition.alpha=0"], None, "partition.alpha"),
            ("run", ["algorithm=OLED-SAM"], None, "unknown algorithm 'OLED-SAM'"),
            ("run", ["algorithm=Oled_Sgd"], None, "unknown algorithm 'Oled_Sgd'"),
        ],
    )
    def test_bad_value_exits_2_naming_it(
        self, config_file, tmp_path, capsys, monkeypatch, command, sets, env_seed, named
    ):
        csv = tmp_path / "train.csv"
        csv.write_text("f1,f2,label\n" + "".join(f"{i % 5}.5,{i % 3}.0,{i % 2}\n" for i in range(40)))
        bad_csvs = {  # against train.csv: 2 features, labels 0 and 1
            "wide.csv": "f1,f2,f3,label\n1.0,2.0,3.0,0\n",
            "label2.csv": "f1,f2,label\n1.0,2.0,0\n1.0,2.0,2\n",
            "nan.csv": "f1,f2,label\n1.0,2.0,0\nnan,2.0,1\n",
            "inf.csv": "f1,f2,label\n1.0,2.0,0\ninf,2.0,1\n",
            # the largest label sets the class count: 3e9 classes would not fit the model
            "biglabel.csv": csv.read_text().replace(",1\n", ",3000000000\n", 1),
            "hugelabel.csv": "f1,f2,label\n1.0,2.0,0\n1.0,2.0,100000000000000000000\n",  # past int64
            "empty.csv": "",
            "onecolumn.csv": "label\n0\n1\n",
            "badlabel.csv": "f1,f2,label\n1.0,2.0,0\n1.0,2.0,one\n",
        }
        for name, text in bad_csvs.items():
            (tmp_path / name).write_text(text)
        if env_seed is not None:
            monkeypatch.setenv("DGOSSIP_SEED", env_seed)
        if command == "topo-report":  # takes its flags, not a config
            argv = [command, *sets, "--out", str(tmp_path / "o")]
        else:
            argv = [command, "--config", str(config_file), "--out", str(tmp_path / "o")]
            for pair in sets:
                argv += ["--set", pair.format(csv=csv, dir=tmp_path)]
        if command == "stability":
            argv += ["--client", "0", "--sample", "0"]
        assert main(argv) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestCmdSweep:
    @pytest.mark.parametrize(
        "key, values, sets",
        [
            ("beta", "0.1,1.5", []),  # rejected by validation
            ("partition.classes_per_client", "2,5", ["partition.scheme=pathological"]),  # by the build
        ],
    )
    def test_bad_later_value_runs_no_cell(self, config_file, tmp_path, capsys, key, values, sets):
        out = tmp_path / "s"
        argv = ["sweep", "--config", str(config_file), "--out", str(out), "--key", key, "--values", values]
        for pair in sets:
            argv += ["--set", pair]
        assert main(argv) == 2
        assert key.split(".")[-1] in capsys.readouterr().err
        assert not out.exists()

    def test_beta_sweep_and_degeneracy(self, config_file, tmp_path):
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep", "--config", str(config_file), "--out", str(out),
                "--key", "beta", "--values", "0.0,0.2",
            ]
        )
        assert code == 0
        rows = (out / "sweep.csv").read_text().strip().split("\n")
        assert rows[0] == "value,best_acc,rounds_to_first_target,final_delta_t,status"
        assert len(rows) == 3
        # beta = 0 cell must match a plain dfedavg run
        dfed_out = tmp_path / "dfed"
        assert main(
            [
                "run", "--config", str(config_file), "--out", str(dfed_out),
                "--set", "algorithm=dfedavg", "--set", "beta=0.0",
            ]
        ) == 0
        cell = json.loads((out / "beta=0.0" / "summary.json").read_text())
        ref = json.loads((dfed_out / "summary.json").read_text())
        assert cell["best_acc"] == ref["best_acc"]
        assert cell["final"]["train_loss"] == ref["final"]["train_loss"]

    def test_refuses_overwrite_without_force(self, config_file, tmp_path, capsys):
        out = tmp_path / "s"
        argv = ["sweep", "--config", str(config_file), "--out", str(out), "--key", "beta", "--values", "0.1"]
        assert main(argv) == 0
        table = (out / "sweep.csv").read_text()
        (out / "beta=0.1" / "summary.json").unlink()
        (out / "sweep.csv").write_text("kept\n")
        assert main(argv) == 4
        assert "sweep.csv" in capsys.readouterr().err
        assert (out / "sweep.csv").read_text() == "kept\n"
        assert not (out / "beta=0.1" / "summary.json").exists()  # no cell ran
        assert main([*argv, "--force"]) == 0
        assert (out / "sweep.csv").read_text() == table
        assert (out / "beta=0.1" / "summary.json").exists()

    def test_empty_sweep_rejected(self, config_file, tmp_path, capsys):
        code = main(
            [
                "sweep", "--config", str(config_file), "--out", str(tmp_path / "s"),
                "--key", "beta", "--values", " , ",
            ]
        )
        assert code == 2
        assert "empty sweep" in capsys.readouterr().err

    def test_local_steps_axis(self, config_file, tmp_path):
        out = tmp_path / "sweepk"
        code = main(
            [
                "sweep", "--config", str(config_file), "--out", str(out),
                "--key", "local_steps", "--values", "1,2,5",
            ]
        )
        assert code == 0
        rows = (out / "sweep.csv").read_text().strip().split("\n")
        assert len(rows) == 4

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_cell_marked_and_sweep_continues(self, tmp_path):
        path = tmp_path / "quad.toml"
        path.write_text(
            'algorithm = "dfedavg"\nm = 4\nrounds = 5\nlocal_steps = 5\n'
            '[topology]\nkind = "ring"\n[model]\nkind = "quadratic"\np = 4\n'
            "[optimizer]\ndecay = 1.0\n"
        )
        out = tmp_path / "s"
        code = main(
            [
                "sweep", "--config", str(path), "--out", str(out),
                "--key", "optimizer.eta0", "--values", "0.05,1e200",
            ]
        )
        assert code == 0
        rows = (out / "sweep.csv").read_text().strip().split("\n")[1:]
        assert rows[0].endswith(",ok")
        assert rows[1].endswith(",diverged")

    def test_unknown_axis_key(self, config_file, tmp_path, capsys):
        code = main(
            [
                "sweep", "--config", str(config_file), "--out", str(tmp_path / "s"),
                "--key", "optimizer.etaa", "--values", "0.1",
            ]
        )
        assert code == 2
        assert "etaa" in capsys.readouterr().err


class TestCmdTopoReport:
    def test_values(self, capsys):
        assert main(["topo-report", "--kinds", "full,ring", "--m", "32,4"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "kind,m,psi,beta_theory_bound,beta_star,psi_tilde_at_beta_star"
        table = {tuple(row.split(",")[:2]): row.split(",") for row in lines[1:]}
        assert abs(float(table[("full", "32")][2])) <= 1e-12
        assert float(table[("ring", "4")][2]) == pytest.approx(1 / 3, abs=1e-9)

    def test_grid_requires_square(self, capsys):
        assert main(["topo-report", "--kinds", "grid", "--m", "15"]) == 2
        assert "perfect square" in capsys.readouterr().err

    def test_kinds_are_stripped_of_whitespace(self, capsys):
        assert main(["topo-report", "--kinds", " full , ring ", "--m", "4"]) == 0
        assert [row.split(",")[0] for row in capsys.readouterr().out.strip().split("\n")[1:]] == ["full", "ring"]

    def test_unknown_kind(self, capsys):
        assert main(["topo-report", "--kinds", "tree", "--m", "4"]) == 2
        assert "tree" in capsys.readouterr().err

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs RLIMIT_AS")
    def test_psi_out_of_memory_exits_2_naming_m(self):
        # psi takes a dense (m, m) W, 6.7 GiB at m=30000: past a 4 GiB address space
        import resource

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

        child = "import sys; from dgossip.cli import main; sys.exit(main(sys.argv[1:]))"
        src = str(Path(__file__).parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-c", child, "topo-report", "--kinds", "ring", "--m", "30000"],
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
            preexec_fn=limit, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert "--m 30000" in proc.stderr

    def test_file_output(self, tmp_path):
        out = tmp_path / "topo.csv"
        assert main(["topo-report", "--kinds", "exponential", "--m", "16", "--out", str(out)]) == 0
        assert out.read_text().startswith("kind,m,psi")


class TestCmdStability:
    def test_writes_trace_with_zero_prefix(self, config_file, tmp_path):
        out = tmp_path / "stab"
        code = main(
            [
                "stability", "--config", str(config_file), "--out", str(out),
                "--client", "0", "--sample", "1", "--replace-label", "2",
                "--set", "rounds=12", "--set", "optimizer.batch_size=2",
            ]
        )
        assert code == 0
        rows = (out / "stability.csv").read_text().strip().split("\n")
        assert rows[0] == "t,step_of_first_draw_flag,mean_param_distance,heldout_loss_gap"
        assert len(rows) == 13
        for row in rows[1:]:
            t, flag, dist, gap = row.split(",")
            if flag == "0":
                assert float(dist) == 0.0

    def test_identical_twin_by_default(self, config_file, tmp_path):
        out = tmp_path / "stab0"
        code = main(
            [
                "stability", "--config", str(config_file), "--out", str(out),
                "--client", "1", "--sample", "0", "--set", "rounds=5",
            ]
        )
        assert code == 0
        rows = (out / "stability.csv").read_text().strip().split("\n")[1:]
        assert all(float(r.split(",")[2]) == 0.0 for r in rows)

    def test_refuses_overwrite_without_force(self, config_file, tmp_path, capsys, monkeypatch):
        out = tmp_path / "stab"
        argv = [
            "stability", "--config", str(config_file), "--out", str(out),
            "--client", "0", "--sample", "1", "--set", "rounds=3",
        ]
        assert main(argv) == 0
        trace = (out / "stability.csv").read_text()
        (out / "stability.csv").write_text("kept\n")
        probed = []
        probe = cli.stability_probe
        monkeypatch.setattr(cli, "stability_probe", lambda *a: probed.append(a) or probe(*a))
        assert main(argv) == 4
        assert "stability.csv" in capsys.readouterr().err
        assert (out / "stability.csv").read_text() == "kept\n"
        assert probed == []  # refused before the probe ran
        assert main([*argv, "--force"]) == 0
        assert (out / "stability.csv").read_text() == trace
        assert len(probed) == 1

    def test_bad_indices(self, config_file, tmp_path, capsys):
        code = main(
            [
                "stability", "--config", str(config_file), "--out", str(tmp_path / "s"),
                "--client", "99", "--sample", "0",
            ]
        )
        assert code == 2
        assert "client" in capsys.readouterr().err


@pytest.mark.parametrize("module", ["dgossip", "dgossip.cli"])
def test_python_m_runs_the_cli(module, config_file, tmp_path):
    # `python -m dgossip` and `python -m dgossip.cli` reach cli.entry and its exit codes
    proc = subprocess.run(
        [sys.executable, "-m", module, "run", "--config", str(config_file),
         "--out", str(tmp_path / "out"), "--set", "nosuch.key=1"],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "nosuch" in proc.stderr
    assert not (tmp_path / "out").exists()
