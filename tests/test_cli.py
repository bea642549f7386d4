import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from asgdsim import InvalidConfigError, cli
from asgdsim.cli import ExperimentConfig, main, parse_deltas, run_config
from asgdsim.objectives import make_quadratic
from asgdsim.report import write_csv, write_json


def tiny_config(**overrides):
    base = {
        "seed": 3,
        "objective": {"family": "quadratic", "dim": 3,
                      "lambda_min": 1.0, "lambda_max": 2.0},
        "workers": [{"time": "constant", "delta": 1.0},
                    {"time": "constant", "delta": 2.0}],
        "policy": {"kind": "max_concurrency"},
        "stop": {"max_iterations": 60},
        "stepsize": {"kind": "constant", "eta": 0.2},
    }
    base.update(overrides)
    return base


def write_config(tmp_path, data, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestConfigParsing:
    def test_round_trip_is_lossless(self):
        cfg = ExperimentConfig.from_dict(tiny_config())
        assert ExperimentConfig.from_dict(cfg.data).data == cfg.data

    def test_round_trip_keeps_optional_blocks(self):
        data = tiny_config(
            noise_sigma=0.5, replicas=3, x0=[1.0, 0.0, -1.0],
            tuning={"criterion": "min_T_to_eps", "values": [0.1, 0.2]},
            stop={"max_iterations": 60, "grad_tol": 1e-6},
        )
        cfg = ExperimentConfig.from_dict(data)
        assert ExperimentConfig.from_dict(cfg.data).data == cfg.data
        assert cfg.data["x0"] == [1.0, 0.0, -1.0]

    def test_data_omits_absent_optionals(self):
        out = ExperimentConfig.from_dict(tiny_config()).data
        assert "tuning" not in out and "x0" not in out

    def test_unknown_key_names_the_config(self):
        with pytest.raises(InvalidConfigError, match="unknown keys.*stepsizes"):
            ExperimentConfig.from_dict(tiny_config(stepsizes={}))

    def test_error_messages_carry_the_field_path(self):
        with pytest.raises(InvalidConfigError, match="config.seed"):
            ExperimentConfig.from_dict(tiny_config(seed=-1))
        with pytest.raises(InvalidConfigError, match="config.noise_sigma"):
            ExperimentConfig.from_dict(tiny_config(noise_sigma=-0.1))
        with pytest.raises(InvalidConfigError, match="config.objective.family"):
            ExperimentConfig.from_dict(tiny_config(
                objective={"family": "cubic", "dim": 3,
                           "lambda_min": 1.0, "lambda_max": 2.0}))
        with pytest.raises(InvalidConfigError, match="config.x0"):
            ExperimentConfig.from_dict(tiny_config(x0=[1.0, 2.0]))

    def test_needs_stepsize_or_tuning(self):
        data = tiny_config()
        del data["stepsize"]
        with pytest.raises(InvalidConfigError, match="stepsize"):
            ExperimentConfig.from_dict(data)

    def test_bad_sub_blocks_fail_at_load_time(self):
        with pytest.raises(InvalidConfigError):
            ExperimentConfig.from_dict(tiny_config(workers=[]))
        with pytest.raises(InvalidConfigError):
            ExperimentConfig.from_dict(tiny_config(policy={"kind": "round_robin"}))
        with pytest.raises(InvalidConfigError):
            ExperimentConfig.from_dict(tiny_config(stop={"max_iterations": 0}))

    def test_int_is_accepted_where_float_expected(self):
        data = tiny_config(stepsize={"kind": "constant", "eta": 1})
        cfg = ExperimentConfig.from_dict(data)
        assert cfg.stepsize.eta == 1.0
        assert isinstance(cfg.stepsize.eta, float)

    def test_run_config_executes(self):
        cfg = ExperimentConfig.from_dict(tiny_config())
        trace = run_config(cfg, master_seed=3)
        assert len(trace) == 60
        assert trace.ledger.concurrency_log[0] == 2


EXAMPLE = Path(__file__).resolve().parents[1] / "configs" / "example.json"
SRC = str(Path(cli.__file__).resolve().parents[1])  # the directory holding asgdsim


# each entry edits configs/example.json into one bad input and names the
# field the error message must point at
BAD_EXAMPLES = {
    "nan_delta": (lambda d: d["workers"][0].update(delta=math.nan), "config.workers[0].delta"),
    "inf_lambda_max": (lambda d: d["objective"].update(lambda_max=math.inf),
                       "config.objective.lambda_max"),
    "dim_1": (lambda d: d["objective"].update(dim=1), "config.objective"),
    "overflowing_lambda_max": (lambda d: d["objective"].update(lambda_max=1e308),
                               "config.objective"),
    "negative_grad_tol": (lambda d: d["stop"].update(grad_tol=-1.0), "config.stop.grad_tol"),
    "negative_last_k_tol": (lambda d: d["stop"].update(last_k_tol=-0.5),
                            "config.stop.last_k_tol"),
    "string_require_quiescent": (lambda d: d["stop"].update(require_quiescent="false"),
                                 "config.stop.require_quiescent"),
    "negative_delta": (lambda d: d["workers"][0].update(delta=-1.0),
                       "config.workers[0]: delta must be positive"),
    # rng.lognormal overflows to inf above mu = log(float max), about 709.78
    "overflowing_lognormal_mu": (
        lambda d: d.update(workers=[{"time": "lognormal", "mu": 710, "sigma": 0.1,
                                     "count": 2}]),
        "config.workers[0]: lognormal mu"),
    # rng.lognormal returns exactly 0.0 far below mu = log(smallest normal), about -708.40
    "underflowing_lognormal_mu": (
        lambda d: d.update(workers=[{"time": "lognormal", "mu": -800, "sigma": 0.1,
                                     "count": 3}]),
        "config.workers[0]: lognormal mu"),
    "minibatch_smaller_than_fleet": (
        lambda d: d.update(policy={"kind": "minibatch", "batch_size": 3}),
        "config.policy.batch_size"),
    "nan_tuning_value": (lambda d: d["tuning"].update(values=[math.nan, 0.1]),
                         "config.tuning.values[0]"),
    "string_points_per_decade": (lambda d: d["tuning"].update(points_per_decade="2"),
                                 "config.tuning.points_per_decade"),
    "negative_tuning_low": (lambda d: d["tuning"].update(low=-1), "config.tuning.low"),
    "unknown_criterion": (lambda d: d["tuning"].update(criterion="fastest"),
                          "config.tuning.criterion"),
    # stepsize rules name the offending field after the block's path
    "negative_eta": (lambda d: d["stepsize"].update(eta=-1), "config.stepsize: eta"),
    "bad_mode": (lambda d: d["stepsize"].update(kind="delay_adaptive", mode="clip"),
                 "config.stepsize: mode"),
    # a non-positive threshold calls the first iterate diverged
    "negative_diverge_above": (lambda d: d["stop"].update(diverge_above=-1),
                               "config.stop.diverge_above"),
    "zero_diverge_above": (lambda d: d["stop"].update(diverge_above=0),
                           "config.stop.diverge_above"),
    # a relative drop of 1 or more is never met, so every run would stall
    "stall_improvement_above_one": (
        lambda d: d["stop"].update(last_k_tol=1e-3, stall_window=50, stall_improvement=2.0),
        "config.stop.stall_improvement"),
    "negative_stall_improvement": (lambda d: d["stop"].update(stall_improvement=-0.1),
                                   "config.stop.stall_improvement"),
    # a repeated point would overwrite its first copy in the tuning report
    "repeated_tuning_value": (lambda d: d["tuning"].update(values=[0.1, 0.3, 0.1]),
                              "config.tuning.values[2]"),
    # each value is a lockstep column, and a list is bounded as a log grid is
    "tuning_values_past_the_bound": (
        lambda d: d["tuning"].update(values=[float(v) for v in range(1, cli.MAX_GRID_POINTS + 2)]),
        "config.tuning.values"),
    # 10^14 doubles (727 TiB) exceed a 64-bit address space: numpy refuses before allocating
    "objective_too_large_to_allocate": (lambda d: d["objective"].update(dim=10**7),
                                        "config.objective"),
    # integers past what a float or a numpy shape can hold
    "eta_past_the_float_range": (lambda d: d["stepsize"].update(eta=10**400),
                                 "config.stepsize.eta"),
    "points_per_decade_past_the_bound": (lambda d: d["tuning"].update(points_per_decade=10**18),
                                         "config.tuning.points_per_decade"),
    "dim_past_the_bound": (lambda d: d["objective"].update(dim=10**20), "config.objective.dim"),
    # high / low overflows to inf, an endless grid
    "grid_span_overflows": (lambda d: d["tuning"].update(low=1e-300, high=1e300),
                            "config.tuning"),
    "concurrency_past_the_bound": (
        lambda d: d.update(policy={"kind": "uniform_client_sampling",
                                   "concurrency": cli.MAX_FLEET + 1}),
        "config.policy.concurrency"),
    # the theoretical stepsize refuses what its formula cannot compute in floats
    "theoretical_sigma_squared_overflows": (
        lambda d: d.update(noise_sigma=1e308, stepsize={"kind": "theoretical"}),
        "config.stepsize"),
    "theoretical_sigma_squared_underflows": (
        lambda d: d.update(noise_sigma=1e-320, stepsize={"kind": "theoretical"}),
        "config.stepsize"),
    "theoretical_noise_product_overflows": (
        lambda d: d.update(noise_sigma=1e154, stepsize={"kind": "theoretical"}),
        "config.stepsize"),
    "theoretical_concurrency_past_the_float_range": (
        lambda d: d.update(stepsize={"kind": "theoretical", "concurrency": 10**400}),
        "config.stepsize"),
    "theoretical_eta_underflows_to_zero": (
        lambda d: d.update(stepsize={"kind": "theoretical", "max_delay": 1e308}),
        "config.stepsize"),
    "theoretical_eta_overflows_to_inf": (
        lambda d: d.update(stepsize={"kind": "theoretical", "lipschitz": 1e-320}),
        "config.stepsize"),
    # one-step runs, so that a missing bound costs 1,001 short runs, not 1,001 long ones
    "replicas_past_the_bound": (
        lambda d: d.update(replicas=cli.MAX_REPLICAS + 1, stop={"max_iterations": 1}),
        "config.replicas"),
}


class TestConfigBoundary:
    @pytest.mark.parametrize("name", sorted(BAD_EXAMPLES))
    def test_bad_example_exits_1_naming_the_field(self, name, tmp_path, capsys):
        edit, field_path = BAD_EXAMPLES[name]
        data = json.loads(EXAMPLE.read_text())
        edit(data)
        cfg = write_config(tmp_path, data)
        assert main(["simulate", cfg, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "invalid configuration" in err and field_path in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", ['{"seed": 1' + "0" * 5000 + "}", "[" * 100_000],
                             ids=["integer_of_5001_digits", "nesting_too_deep"])
    def test_json_python_cannot_decode_exits_1(self, text, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(text)
        assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "config is not valid JSON" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # a fleet just past the bound: refused before the list is built
    @pytest.mark.parametrize("counts", [[cli.MAX_FLEET + 1], [1, cli.MAX_FLEET]],
                             ids=["one_group", "two_groups"])
    def test_fleet_past_the_bound_is_refused(self, counts):
        data = json.loads(EXAMPLE.read_text())
        data["workers"] = [{"time": "constant", "delta": 1.0, "count": c} for c in counts]
        with pytest.raises(InvalidConfigError,
                           match=rf"config\.workers\[{len(counts) - 1}\]\.count"):
            ExperimentConfig.from_dict(data)

    @pytest.mark.parametrize("flag", [True, False])
    def test_require_quiescent_takes_json_booleans(self, flag):
        cfg = ExperimentConfig.from_dict(
            tiny_config(stop={"max_iterations": 60, "require_quiescent": flag}))
        assert cfg.stop.require_quiescent is flag


def _leaves(node, where=()):
    """Key paths of every scalar in a parsed JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _leaves(value, where + (key,))
        else:
            yield where + (key,), value


def _mutations(value):
    """Values that no field of the example config accepts in place of ``value``."""
    yield "nan", math.nan
    yield "inf", math.inf
    yield "-inf", -math.inf
    if isinstance(value, (int, float)) and value != 0:  # -0.0 is still zero
        yield "negated", -value
    yield "string", "1"
    yield "list", [value]
    yield "true", True


def _label(where):
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in where)


MUTATIONS = [
    pytest.param(where, bad, id=f"{_label(where)[1:]}={name}")
    for where, value in _leaves(json.loads(EXAMPLE.read_text()))
    for name, bad in _mutations(value)
] + [
    pytest.param(("stop", "require_quiescent"), bad, id=f"stop.require_quiescent={bad!r}")
    for bad in ("false", 1)
]


# one valid config per kind of every block that has kinds, each with all of its keys
KIND_CONFIGS = {
    "quadratic": tiny_config(
        stop={"max_iterations": 60, "grad_tol": 1e-9, "last_k_tol": 1e-9, "last_k": 5,
              "diverge_above": 1e9, "require_quiescent": True, "stall_window": 50,
              "stall_improvement": 0.01},
        tuning={"criterion": "min_final_error", "values": [0.1, 0.2]},
        noise_sigma=0.0, x0=[0.0, 1.0, 0.0], replicas=1),
    "logistic": tiny_config(objective={"family": "logistic", "n_samples": 20, "dim": 3,
                                       "seed": 1}),
    "heterogeneous": tiny_config(
        objective={"family": "heterogeneous", "dim": 3, "lambda_min": 1.0, "lambda_max": 2.0,
                   "n_clients": 2, "zeta": 0.5, "seed": 2},
        policy={"kind": "uniform_client_sampling", "concurrency": 2}),
    "lognormal": tiny_config(workers=[{"time": "lognormal", "mu": 0.0, "sigma": 0.5,
                                       "count": 2}]),
    "straggler": tiny_config(workers=[{"time": "straggler", "delta": 1.0, "slow_factor": 4.0,
                                       "straggle_prob": 0.1, "count": 1},
                                      {"time": "constant", "delta": 2.0, "count": 1}]),
    "minibatch": tiny_config(policy={"kind": "minibatch", "batch_size": 2}),
    "sampled_minibatch": tiny_config(policy={"kind": "sampled_minibatch", "batch_size": 3}),
    "delay_adaptive": tiny_config(stepsize={"kind": "delay_adaptive", "eta": 0.1,
                                            "lipschitz": 4.0, "concurrency": 2, "mode": "drop"}),
    "theoretical": tiny_config(stepsize={"kind": "theoretical", "lipschitz": 4.0,
                                         "max_delay": 2.0, "concurrency": 2,
                                         "initial_gap": 1.0}),
    "log_grid": tiny_config(tuning={"criterion": "min_T_to_eps", "low": 0.01, "high": 1.0,
                                    "points_per_decade": 2}),
}


def _objects(node, where=()):
    """Key paths of every JSON object in a parsed JSON document, the document first."""
    if isinstance(node, dict):
        yield where
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        if isinstance(value, (dict, list)):
            yield from _objects(value, where + (key,))


# keys that one kind of a block reads and another does not, and misspelt keys that
# used to run as if they were absent: (config, block, key, value)
OTHER_KIND_KEYS = {
    "mode_on_constant_stepsize": ("quadratic", ("stepsize",), "mode", "drop"),
    "concurrency_on_max_concurrency": ("quadratic", ("policy",), "concurrency", 2),
    "zeta_on_quadratic": ("quadratic", ("objective",), "zeta", 0.5),
    "n_samples_on_quadratic": ("quadratic", ("objective",), "n_samples", 20),
    "lambda_min_on_logistic": ("logistic", ("objective",), "lambda_min", 1.0),
    "delta_on_lognormal": ("lognormal", ("workers", 0), "delta", 1.0),
    "eta_on_theoretical": ("theoretical", ("stepsize",), "eta", 0.1),
    "batch_size_on_uniform_client_sampling": ("heterogeneous", ("policy",), "batch_size", 2),
    "grad_tl_in_stop": ("quadratic", ("stop",), "grad_tl", 1e-3),
    "cout_in_workers": ("quadratic", ("workers", 0), "cout", 9),
    "mod_on_delay_adaptive": ("delay_adaptive", ("stepsize",), "mod", "drop"),
}

KEY_OUTSIDE_THE_TABLE = [
    pytest.param(name, where, "bogus_key", 1, id=f"{name}:config{_label(where)}")
    for name, data in KIND_CONFIGS.items() for where in _objects(data)
] + [pytest.param(*case, id=label) for label, case in OTHER_KIND_KEYS.items()]


class TestUnknownKeys:
    """Every JSON object of a config refuses a key outside its table."""

    @pytest.mark.parametrize("name", sorted(KIND_CONFIGS))
    def test_every_kind_loads_with_all_its_keys(self, name):
        ExperimentConfig.from_dict(KIND_CONFIGS[name])

    @pytest.mark.parametrize("name,where,key,value", KEY_OUTSIDE_THE_TABLE)
    def test_key_outside_the_table_exits_1_naming_the_block(self, name, where, key, value,
                                                            tmp_path, capsys):
        data = json.loads(json.dumps(KIND_CONFIGS[name]))
        block = data
        for step in where:
            block = block[step]
        block[key] = value
        assert main(["simulate", write_config(tmp_path, data),
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"invalid configuration: config{_label(where)}: unknown keys ['{key}']" in err, err
        assert not (tmp_path / "out").exists()


class TestConfigMutations:
    """Every leaf of configs/example.json, set to one bad value at a time."""

    @pytest.mark.parametrize("where,bad", MUTATIONS)
    def test_mutated_example_exits_1_naming_the_field(self, where, bad, tmp_path, capsys):
        data = json.loads(EXAMPLE.read_text())
        *parents, key = where
        block = data
        for step in parents:
            block = block[step]
        block[key] = bad
        assert main(["simulate", write_config(tmp_path, data),
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        block_path = "config" + _label(parents)
        assert "invalid configuration" in err and "Traceback" not in err
        assert block_path in err and key in err.split(block_path, 1)[1], err
        assert not (tmp_path / "out").exists()


# command lines whose number list is bad in one way; the error must name the flag
BAD_FLAG_LISTS = {
    "slow_factor_not_a_number": ["scaling", "--preset", "quadratic", "--slow-factors", "1,x,4"],
    "infinite_slow_factor": ["scaling", "--preset", "quadratic", "--slow-factors", "inf,1,2"],
    "single_slow_factor": ["scaling", "--preset", "quadratic", "--slow-factors", "4"],
    "delta_not_a_number": ["speedup", "--deltas", "1,a", "--concurrency", "1"],
    "nan_delta": ["speedup", "--deltas", "nan,1", "--concurrency", "1"],
    "zero_delta_count": ["speedup", "--deltas", "1:0,2", "--concurrency", "1"],
    "speed_sum_overflows": ["speedup", "--deltas", "1e308,1e308", "--concurrency", "2"],
    "delta_count_past_the_bound": ["speedup", "--deltas", f"1:{cli.MAX_FLEET + 1}",
                                   "--concurrency", "1"],
}


# command lines with one numeric flag outside its domain, and that flag
BAD_FLAG_VALUES = {
    "infinite_epsilon": (["scaling", "--preset", "quadratic", "--epsilon", "inf"], "--epsilon"),
    "nan_epsilon": (["scaling", "--preset", "quadratic", "--epsilon", "nan"], "--epsilon"),
    "negative_epsilon": (["scaling", "--preset", "quadratic", "--epsilon", "-1"], "--epsilon"),
    "zero_max_iterations": (["scaling", "--preset", "quadratic", "--max-iterations", "0"],
                            "--max-iterations"),
    "zero_points_per_decade": (["scaling", "--preset", "quadratic",
                                "--points-per-decade", "0"], "--points-per-decade"),
    "points_per_decade_past_the_bound": (["scaling", "--preset", "quadratic",
                                          "--points-per-decade", "10001"],
                                         "--points-per-decade"),
    "negative_scaling_seed": (["scaling", "--preset", "quadratic", "--seed", "-1"], "--seed"),
    "one_mc_sample": (["speedup", "--deltas", "1,2", "--concurrency", "1",
                       "--oracle", "monte_carlo", "--mc-samples", "1"], "--mc-samples"),
    "zero_mc_samples": (["speedup", "--deltas", "1,2", "--concurrency", "1",
                         "--oracle", "monte_carlo", "--mc-samples", "0"], "--mc-samples"),
    "negative_mc_samples": (["speedup", "--deltas", "1,2", "--concurrency", "1",
                             "--oracle", "monte_carlo", "--mc-samples", "-5"], "--mc-samples"),
    "negative_speedup_seed": (["speedup", "--deltas", "1,2", "--concurrency", "1",
                               "--seed", "-1"], "--seed"),
    "zero_concurrency": (["speedup", "--deltas", "1,2", "--concurrency", "0"], "--concurrency"),
    "negative_verify_seed": (["verify", "--seed", "-3"], "--seed"),
    "negative_fuzz_configs": (["verify", "--fuzz-configs", "-5"], "--fuzz-configs"),
    "zero_fuzz_configs": (["verify", "--fuzz-configs", "0"], "--fuzz-configs"),
    "negative_simulate_seed": (["simulate", str(EXAMPLE), "--seed", "-1"], "--seed"),
    "negative_tune_seed": (["tune", str(EXAMPLE), "--seed", "-1"], "--seed"),
    "negative_compare_seed": (["compare", str(EXAMPLE), "--seed", "-1"], "--seed"),
}


class TestFlagLists:
    @pytest.mark.parametrize("name", sorted(BAD_FLAG_LISTS))
    def test_bad_list_exits_1_naming_the_flag(self, name, tmp_path, capsys):
        argv = BAD_FLAG_LISTS[name]
        flag = next(arg for arg in argv if arg in ("--slow-factors", "--deltas"))
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "invalid configuration" in err and flag in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", sorted(BAD_FLAG_VALUES))
    def test_bad_value_exits_1_naming_the_flag(self, name, tmp_path, capsys):
        argv, flag = BAD_FLAG_VALUES[name]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "invalid configuration" in err and flag in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_sampling_past_the_budget_exits_1(self, tmp_path, capsys):
        # two clients at 10^8 lanes fall back to 10^5 x 10^8 rank draws
        assert main(["speedup", "--deltas", "1,2", "--concurrency", "100000000",
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "--mc-samples" in err and "rank draws" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestStandardJson:
    def test_diverged_run_writes_null_not_infinity(self, tmp_path):
        data = json.loads(EXAMPLE.read_text())
        data["stepsize"]["eta"] = 50
        data["stop"]["diverge_above"] = 1e308
        assert main(["simulate", write_config(tmp_path, data),
                     "--out", str(tmp_path / "out")]) == 2

        def reject(constant):
            raise AssertionError(f"non-standard JSON constant {constant}")

        summary = json.loads((tmp_path / "out" / "metrics.json").read_text(),
                             parse_constant=reject)
        assert summary["stop_reason"] == "diverged"
        assert summary["error_last30"] is None and summary["final_grad_norm"] is None

    def test_write_json_refuses_nan(self, tmp_path):
        with pytest.raises(ValueError):
            write_json(tmp_path / "x.json", {"value": math.nan})


class TestCsvCells:
    def test_numpy_and_python_floats_by_repr_and_bools_as_bits(self, tmp_path):
        path = tmp_path / "x.csv"
        write_csv(path, ["a", "b", "c", "d", "e"],
                  [(np.float64(1.5), 0.1, True, np.float64(0.1) * 3, False)])
        assert path.read_text() == "a,b,c,d,e\n1.5,0.1,1,0.30000000000000004,0\n"


class TestParseDeltas:
    def test_plain_list(self):
        assert parse_deltas("1,3,5") == [1.0, 3.0, 5.0]

    def test_counted_groups(self):
        deltas = parse_deltas("10:900,60:100")
        assert len(deltas) == 1000
        assert deltas[:900] == [10.0] * 900 and deltas[900:] == [60.0] * 100

    def test_mixed_and_spaced(self):
        assert parse_deltas(" 2 , 7:2 ") == [2.0, 7.0, 7.0]

    def test_empty_spec_rejected(self):
        with pytest.raises(InvalidConfigError):
            parse_deltas(" , ")

    # just past the bound, so that nothing large is built if the bound is missing
    @pytest.mark.parametrize("spec", [f"1:{cli.MAX_FLEET + 1}", f"2,1:{cli.MAX_FLEET}"])
    def test_count_past_the_bound_rejected(self, spec):
        with pytest.raises(InvalidConfigError, match="--deltas"):
            parse_deltas(spec)


class TestExitCodes:
    def test_simulate_success(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tiny_config())
        assert main(["simulate", cfg, "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "trace.csv").exists()
        assert (tmp_path / "out" / "metrics.json").exists()
        assert (tmp_path / "out" / "config.json").exists()

    def test_simulate_missed_target_exits_2(self, tmp_path):
        data = tiny_config(stop={"max_iterations": 5, "grad_tol": 1e-14})
        cfg = write_config(tmp_path, data)
        assert main(["simulate", cfg, "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("command", ["simulate", "tune"])
    def test_short_run_writes_nothing_to_stderr(self, command, tmp_path, capsys):
        # 5 iterations leave 6 iterates, fewer than the 30 of error_last30
        data = tiny_config(stop={"max_iterations": 5},
                           tuning={"criterion": "min_final_error", "values": [0.1, 0.2]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, write_config(tmp_path, data),
                         "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""

    def test_invalid_config_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tiny_config(policy={"kind": "nope"}))
        assert main(["simulate", cfg, "--out", str(tmp_path / "out")]) == 1
        assert "invalid configuration" in capsys.readouterr().err

    def test_unreadable_json_exits_1(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 1

    def test_usage_error_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate"])  # missing config and --out
        assert exc.value.code == 1
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1
        with pytest.raises(SystemExit) as exc:
            main(["scaling", "--preset", "quadratic", "--threads", "2", "--out", "unused"])
        assert exc.value.code == 1

    def test_tuning_failure_exits_2(self, tmp_path):
        # every grid value diverges on a cap-only stop? no: make the target
        # unreachable and the grid hopeless instead
        data = tiny_config(
            stop={"max_iterations": 10, "grad_tol": 1e-15},
            tuning={"values": [1e6, 1e7]},  # both far past 2/L
        )
        cfg = write_config(tmp_path, data)
        out = tmp_path / "tuned"
        assert main(["tune", cfg, "--out", str(out)]) == 2
        payload = json.loads((out / "tuning.json").read_text())
        assert payload["failed"] is True
        assert len(payload["points"]) == 2


class TestConfigCommandRefusals:
    """A config command that cannot run its config exits 1 before it makes --out."""

    def test_tune_refuses_a_theoretical_stepsize(self, tmp_path, capsys):
        data = tiny_config(stepsize={"kind": "theoretical"},
                           stop={"max_iterations": 60, "grad_tol": 1e-6})
        out = tmp_path / "out"
        assert main(["tune", write_config(tmp_path, data), "--out", str(out)]) == 1
        assert "config.stepsize: the theoretical stepsize cannot be grid-tuned" \
            in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("overrides,path", [
        ({"objective": {"family": "heterogeneous", "dim": 3, "lambda_min": 1.0,
                        "lambda_max": 2.0, "n_clients": 2, "zeta": 0.5},
          "policy": {"kind": "uniform_client_sampling", "concurrency": 1},
          "stop": {"max_iterations": 60, "grad_tol": 1e-6}},
         "config.objective: compare runs homogeneous fleets"),
        ({"stop": {"max_iterations": 60}}, "config.stop: compare needs grad_tol or last_k_tol"),
    ], ids=["heterogeneous_objective", "stop_without_target"])
    def test_compare_refuses(self, overrides, path, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["compare", write_config(tmp_path, tiny_config(**overrides)),
                     "--out", str(out)]) == 1
        assert path in capsys.readouterr().err
        assert not out.exists()

    def test_compare_grid_that_never_reaches_the_target_exits_2(self, tmp_path, capsys):
        data = tiny_config(workers=[{"time": "constant", "delta": 1.0}],
                           stop={"max_iterations": 50, "grad_tol": 1e-12},
                           tuning={"values": [0.1]})
        assert main(["compare", write_config(tmp_path, data),
                     "--out", str(tmp_path / "out")]) == 2
        assert "asgdsim: tuning failed" in capsys.readouterr().err


class TestReproducibility:
    def test_simulate_outputs_are_byte_identical(self, tmp_path):
        data = tiny_config(noise_sigma=0.3,
                           workers=[{"time": "lognormal", "mu": 0.0, "sigma": 0.5,
                                     "count": 3}])
        cfg = write_config(tmp_path, data)
        for d in ("a", "b"):
            assert main(["simulate", cfg, "--out", str(tmp_path / d)]) == 0
        for name in ("trace.csv", "metrics.json", "config.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()

    def test_seed_override_changes_the_run(self, tmp_path):
        data = tiny_config(noise_sigma=0.3)
        cfg = write_config(tmp_path, data)
        main(["simulate", cfg, "--out", str(tmp_path / "a")])
        main(["simulate", cfg, "--out", str(tmp_path / "b"), "--seed", "99"])
        a = json.loads((tmp_path / "a" / "metrics.json").read_text())
        b = json.loads((tmp_path / "b" / "metrics.json").read_text())
        assert a["final_grad_norm"] != b["final_grad_norm"]

    def test_speedup_outputs_are_byte_identical(self, tmp_path):
        args = ["speedup", "--deltas", "10:9,60:1", "--concurrency", "4",
                "--oracle", "monte_carlo", "--mc-samples", "2000"]
        for d in ("a", "b"):
            assert main(args + ["--out", str(tmp_path / d)]) == 0
        assert (tmp_path / "a" / "speedup.json").read_bytes() == \
               (tmp_path / "b" / "speedup.json").read_bytes()
        assert (tmp_path / "a" / "weights.csv").read_bytes() == \
               (tmp_path / "b" / "weights.csv").read_bytes()


class TestSubcommands:
    def test_replicas_write_suffixed_files(self, tmp_path):
        data = tiny_config(replicas=2, noise_sigma=0.1)
        cfg = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert main(["simulate", cfg, "--out", str(out)]) == 0
        for r in (0, 1):
            assert (out / f"trace_r{r}.csv").exists()
            assert (out / f"metrics_r{r}.json").exists()
        seeds = {json.loads((out / f"metrics_r{r}.json").read_text())["master_seed"]
                 for r in (0, 1)}
        assert seeds == {3, 4}

    def test_tune_writes_best_run(self, tmp_path, capsys):
        data = tiny_config(
            stop={"max_iterations": 500, "grad_tol": 1e-8},
            tuning={"values": [0.05, 0.2, 0.5]},
        )
        cfg = write_config(tmp_path, data)
        out = tmp_path / "tuned"
        assert main(["tune", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "tuning.json").read_text())
        assert payload["best_eta"] in (0.05, 0.2, 0.5)
        assert len(payload["points"]) <= 3
        best = json.loads((out / "best_metrics.json").read_text())
        assert best["converged"] is True
        assert (out / "best_trace.csv").exists()

    def test_tune_builds_the_objective_once(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return make_quadratic(*args, **kwargs)

        monkeypatch.setattr(cli, "make_quadratic", counted)
        data = tiny_config(stop={"max_iterations": 500, "grad_tol": 1e-8},
                           tuning={"values": [0.05, 0.2, 0.5]})
        assert main(["tune", write_config(tmp_path, data), "--out", str(tmp_path / "t")]) == 0
        assert len(calls) == 1

    def test_tune_adaptive_bounds_use_the_rule_that_ran(self, tmp_path):
        # two workers, so the policy's concurrency (2) differs from the rule's (1)
        data = tiny_config(
            stop={"max_iterations": 2000, "grad_tol": 1e-6},
            stepsize={"kind": "delay_adaptive", "lipschitz": 5.0, "concurrency": 1},
            tuning={"values": [0.1, 0.2]},
        )
        out = tmp_path / "tuned"
        assert main(["tune", write_config(tmp_path, data), "--out", str(out)]) == 0
        bounds = json.loads((out / "tuning.json").read_text())["adaptive_eta_bounds"]
        assert bounds == {"plain_bound": 0.05, "concurrency_bound": 0.05, "eta": 0.05}

    def test_speedup_payload_matches_closed_form(self, tmp_path):
        out = tmp_path / "s"
        assert main(["speedup", "--deltas", "10:90,60:10",
                     "--concurrency", "10", "--out", str(out)]) == 0
        payload = json.loads((out / "speedup.json").read_text())
        assert payload["n_clients"] == 100
        assert payload["async_time"] == pytest.approx(15.0)
        assert payload["oracle"]["fell_back"] is True  # 100^10 draws
        assert payload["speedup_ratio"] == pytest.approx(
            payload["minibatch_time"] / payload["async_time"])

    def test_scaling_smoke(self, tmp_path, capsys):
        out = tmp_path / "scale"
        code = main(["scaling", "--preset", "quadratic",
                     "--slow-factors", "1,4,16",
                     "--epsilon", "1e-6", "--max-iterations", "20000",
                     "--points-per-decade", "2", "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "scaling.json").read_text())
        assert [p["slow_factor"] for p in payload["points"]] == [1.0, 4.0, 16.0]
        assert payload["fit"] is not None
        assert (out / "scaling.csv").exists()
        assert (out / "scaling.svg").read_text().startswith("<svg")

    def test_scaling_fits_no_line_through_one_delay(self, tmp_path, capsys):
        # every point sees max delay 3, so sqrt(max delay) takes a single value
        out = tmp_path / "scale"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["scaling", "--preset", "quadratic", "--slow-factors", "2.1,2.2,2.3",
                         "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "scaling.json").read_text())
        assert {p["observed_max_delay"] for p in payload["points"]} == {3}
        assert payload["fit"] is None
        assert "scaling: warning: fewer than 2 distinct x values; no fit computed" \
            in capsys.readouterr().err
        assert not [w for w in caught if issubclass(w.category, np.exceptions.RankWarning)]

    def test_failed_sweep_names_its_slow_factor(self, tmp_path, capsys):
        code = main(["scaling", "--preset", "quadratic", "--slow-factors", "1,4,16",
                     "--max-iterations", "3", "--out", str(tmp_path / "scale")])
        assert code == 2
        assert "tuning failed: slow factor 1, epsilon 1e-14:" in capsys.readouterr().err

    def test_importing_the_cli_leaves_verify_unloaded(self):
        # verify is imported inside cmd_verify, so no other command pays for it
        code = "import sys, asgdsim.cli; print('asgdsim.verify' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, env=os.environ | {"PYTHONPATH": SRC})
        assert done.stdout.strip() == "False"

    def test_verify_smoke(self, tmp_path, capsys):
        out = tmp_path / "v"
        assert main(["verify", "--fuzz-configs", "10", "--out", str(out)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines and all(line.startswith("[PASS]") for line in lines)
        payload = json.loads((out / "verify.json").read_text())
        assert payload["all_passed"] is True

    @pytest.mark.parametrize("argv,seed", [([], 20260816), (["--seed", "0"], 0)])
    def test_verify_passes_its_seed_to_the_checks(self, argv, seed, monkeypatch):
        from asgdsim import verify

        seen = []
        monkeypatch.setattr(verify, "run_all",
                            lambda fuzz_configs, seed: seen.append(seed) or [])
        assert main(["verify", "--fuzz-configs", "1"] + argv) == 0
        assert seen == [seed]

    def test_compare_tunes_under_the_configured_criterion(self, tmp_path):
        data = json.loads(EXAMPLE.read_text())
        data["tuning"]["criterion"] = "min_final_error"
        out = tmp_path / "cmp"
        assert main(["compare", write_config(tmp_path, data), "--out", str(out)]) == 0
        tuning = json.loads((out / "comparison.json").read_text())["tuning"]
        assert [tuning[name]["criterion"] for name in ("async", "minibatch")] == \
            ["min_final_error"] * 2

    def test_compare_smoke(self, tmp_path):
        data = tiny_config(
            workers=[{"time": "constant", "delta": 1.0},
                     {"time": "constant", "delta": 5.0}],
            stop={"max_iterations": 2000, "grad_tol": 1e-6},
            tuning={"values": [0.05, 0.2, 0.5]},
        )
        cfg = write_config(tmp_path, data)
        out = tmp_path / "cmp"
        assert main(["compare", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "comparison.json").read_text())
        assert set(payload["policies"]) == {
            "async_constant", "async_adaptive_scale", "async_adaptive_drop",
            "minibatch"}
        for report in payload["policies"].values():
            assert report["converged"] is True
        assert (out / "curves.csv").exists()
        assert (out / "compare.svg").exists()
