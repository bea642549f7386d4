"""Golden output digests: every file the CLI writes for a few small, fixed runs.

Determinism is checked elsewhere run-against-run; these digests pin the bytes
themselves, so a refactor that moves a single float in any output fails here.
A change that is meant to alter outputs re-pins the affected entries (print
``command_digests(name, tmp_path)`` for the new values) and says why.

The runs are small enough to keep the file at a few seconds.  Every CLI policy,
every worker time model, noise on and off, the heterogeneous family and the
logistic family appear at least once.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from asgdsim import (
    ConstantStepsize,
    ConstantTime,
    CustomSelection,
    DelayAdaptiveStepsize,
    LogNormalTime,
    MaxConcurrency,
    MiniBatch,
    NoiseModel,
    SampledMiniBatch,
    StopRule,
    StragglerTime,
    UniformClientSampling,
    constant_fleet,
    make_heterogeneous,
    make_quadratic,
    run_heterogeneous,
    run_homogeneous,
)
from asgdsim.cli import main


def _config(**overrides):
    base = {
        "seed": 5,
        "objective": {"family": "quadratic", "dim": 5, "lambda_min": 1.0, "lambda_max": 2.0},
        "workers": [{"time": "constant", "delta": 1.0, "count": 3}],
        "policy": {"kind": "max_concurrency"},
        "stop": {"max_iterations": 300},
        "noise_sigma": 0.0,
        "stepsize": {"kind": "constant", "eta": 0.1},
    }
    base.update(overrides)
    return base


CONFIGS = {
    # 20 clients of two speeds, one uniform client draw per applied gradient,
    # noisy gradients; the run ends on the cap with 6 jobs in flight.
    "heterogeneous_noisy": _config(
        objective={"family": "heterogeneous", "dim": 4, "lambda_min": 1.0,
                   "lambda_max": 2.0, "n_clients": 20, "zeta": 1.0},
        workers=[{"time": "constant", "delta": 1.0, "count": 15},
                 {"time": "constant", "delta": 6.0, "count": 5}],
        policy={"kind": "uniform_client_sampling", "concurrency": 6},
        stop={"max_iterations": 400},
        noise_sigma=0.1,
    ),
    # reaches its gradient tolerance while the straggler's job is still in
    # flight, so the ledger holds unapplied work and an excluded next job
    "straggler_in_flight": _config(
        workers=[{"time": "constant", "delta": 1.0, "count": 2},
                 {"time": "straggler", "delta": 1.0, "slow_factor": 25.0,
                  "straggle_prob": 0.3},
                 {"time": "lognormal", "mu": 0.0, "sigma": 0.4}],
        stop={"max_iterations": 3000, "grad_tol": 1e-6},
    ),
    # batches drawn with replacement on a logistic problem, delay-adaptive
    # steps, two replicas
    "sampled_minibatch": _config(
        objective={"family": "logistic", "n_samples": 30, "dim": 4},
        workers=[{"time": "lognormal", "mu": 0.0, "sigma": 0.5, "count": 4}],
        policy={"kind": "sampled_minibatch", "batch_size": 3},
        stop={"max_iterations": 240},
        noise_sigma=0.05,
        stepsize={"kind": "delay_adaptive", "eta": 0.5},
        replicas=2,
    ),
    "tune": _config(
        workers=[{"time": "constant", "delta": 1.0, "count": 3},
                 {"time": "straggler", "delta": 1.0, "slow_factor": 8.0,
                  "straggle_prob": 0.2}],
        stop={"max_iterations": 2000, "grad_tol": 1e-6},
        stepsize={"kind": "delay_adaptive", "eta": 0.1},
        tuning={"values": [0.03, 0.1, 0.3, 1.0]},
    ),
    "compare": _config(
        objective={"family": "quadratic", "dim": 3, "lambda_min": 1.0, "lambda_max": 2.0},
        workers=[{"time": "constant", "delta": 1.0}, {"time": "constant", "delta": 4.0}],
        stop={"max_iterations": 2000, "grad_tol": 1e-6},
        tuning={"values": [0.05, 0.2, 0.5]},
    ),
}

COMMANDS = {
    "simulate/heterogeneous_noisy": ["simulate", "{heterogeneous_noisy}"],
    "simulate/straggler_in_flight": ["simulate", "{straggler_in_flight}"],
    "simulate/sampled_minibatch": ["simulate", "{sampled_minibatch}"],
    "tune": ["tune", "{tune}"],
    "compare": ["compare", "{compare}"],
    "scaling": ["scaling", "--preset", "quadratic", "--slow-factors", "1,4,16",
                "--epsilon", "1e-6", "--max-iterations", "20000",
                "--points-per-decade", "2", "--seed", "3"],
    "speedup": ["speedup", "--deltas", "1:5,4:2", "--concurrency", "3",
                "--oracle", "monte_carlo", "--mc-samples", "500", "--seed", "2"],
    "verify": ["verify", "--fuzz-configs", "10", "--seed", "0"],
}

GOLDEN = {
    "compare": {
        "compare.svg": "6ba6d809869569f538331d6a315c1e72b7650999829e366aa51d6ae7053d07f6",
        "comparison.json": "3ebed6cc113113bd1a27a18395d45ae97d5ac88844d3f7609a28c9432245e2d0",
        "curves.csv": "3c9f1509b073365481711989ec3f5a1ec52cd9d09e2df171a7b8e46d30f5e1e0",
    },
    "scaling": {
        "scaling.csv": "a1aca0e0b2925f7324007f5e4b483b3696f87a55a64ed11b908c106cb6a3ebb5",
        "scaling.json": "7aac7c1450ddbc2d16027bbaf2987f3f5ec47ef941a4469dc00712940d98b4a2",
        "scaling.svg": "98ed4bf718650ca9d30457f5d315901d24b9eb3c80c9a4ce9627cf72c2670794",
    },
    "simulate/heterogeneous_noisy": {
        "config.json": "b1791ccb4c53e1c9aaa4e4c60c859d7229e1497e651c089a7639429307ddc189",
        "metrics.json": "c51b96ad4ad1f7bd9b13e69657734cb85a145550e96c7a161ad1258eeda38010",
        "trace.csv": "ad5ca14dffbc906348d680e2e32f90201d1167c567dee3b494d3646d93a032cc",
    },
    "simulate/sampled_minibatch": {
        "config.json": "6797d4059c0d7d1d05a45aac1b2c4d53702ec85c7d3a9d6720910be7528a1e77",
        "metrics_r0.json": "783bc58f5fc8f36c9158cb498233f212ffaf1a0eb1679e8740a7ec88b3a9a9fb",
        "metrics_r1.json": "e3953e94cf51e9575e49d1d4cbf4efd9c5889c91b8649fc000ad1c3da3e26d61",
        "trace_r0.csv": "9777cafa07672ae6cdb8db843d30376c59657ea10944e162410355e9948feeaf",
        "trace_r1.csv": "0817959c436a1851b6b42bd3b1987cef8550d725a33ada381829df9c7a778d88",
    },
    "simulate/straggler_in_flight": {
        "config.json": "f5b4a759db4eac20632cc5e23500d211a9468242511abcfd749bce5a0518c0b5",
        "metrics.json": "e22842a5ff0af36feb1474c53b1424a541abee8b6a1841e7a1b3db2b34ba2227",
        "trace.csv": "e08d6789ec308f56d8d87a53092897f84fc3fea8c419d79dd04017368e7ba0cf",
    },
    "speedup": {
        "speedup.json": "d4b684f8864c0c34e3b75b38dc34f0c7b59093ca079d2a9ea3ea09317aa91372",
        "weights.csv": "19099edf800c00b084b9a57b40b134ae7213eb69d7194d7a101e5780b329a9f7",
    },
    "tune": {
        "best_metrics.json": "98ff61fbe61adf13c26a79bc4ce77aafe03e0a5d9429d5aa071fb67b4c5c8d58",
        "best_trace.csv": "b5f2d9837eda955941a1913a3c29da408365a4ef50ba398b2993a3b337df28bd",
        "tuning.json": "4e878d524d98d70a20d7ddaab24ba2b932b1895a1c038601241c6bcf06b361b6",
    },
    "verify": {
        "verify.json": "eace58fd878d32650f6ec3e2c2ed7876ab1c3a93f9886046936fd85ca602bbee",
    },
}


def command_digests(name, tmp_path):
    """Run one pinned command; return {output file name: SHA-256}."""
    paths = {}
    for key, data in CONFIGS.items():
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(json.dumps(data))
    out = tmp_path / "out"
    argv = [arg.format(**paths) for arg in COMMANDS[name]] + ["--out", str(out)]
    assert main(argv) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_outputs_match_pinned_digests(name, tmp_path):
    assert command_digests(name, tmp_path) == GOLDEN[name]


# ---------------------------------------------------------------------------
# engine-level replay digests: every RunTrace array and the ledger, for each
# policy, including the ones no CLI config can build


def _pick_idle(step, busy, rng):
    """Hand a random prefix of the idle workers a job; never starve the queue."""
    idle = [w for w, jobs in enumerate(busy) if jobs == 0]
    take = int(rng.integers(0, len(idle) + 1))
    if take == 0 and sum(busy) == 0:
        take = 1
    return idle[:take]


def _engine_cases():
    mixed = [LogNormalTime(0.0, 0.5), StragglerTime(1.0, 10.0, 0.3), LogNormalTime(0.2, 0.8),
             ConstantTime(2.0)]
    quad = make_quadratic(4, 1.0, 2.0, seed=7)
    noisy = NoiseModel(0.2)
    stop = StopRule(max_iterations=150)

    def homogeneous(workers, policy, stop=stop):
        return lambda: run_homogeneous(
            quad, noisy, workers, policy, DelayAdaptiveStepsize(0.3, 2.0, 2), np.ones(4), stop,
            master_seed=11)

    table = ((0,), (), (0, 1), (), (0, 2), (0,), (1,), (), (0, 1), (2,))

    return {
        "max_concurrency_noisy_straggler": homogeneous(mixed, MaxConcurrency()),
        "minibatch": homogeneous(mixed, MiniBatch()),
        "sampled_minibatch_above_fleet": homogeneous(mixed, SampledMiniBatch(batch_size=7)),
        "uniform_sampling_homogeneous_queued": homogeneous(
            constant_fleet([1.0, 2.5, 4.0]), UniformClientSampling(concurrency=6)),
        "custom_table": homogeneous(constant_fleet([1.0, 2.0, 3.0]), CustomSelection(
            select=lambda step, busy, rng: table[step] if step < len(table) else ()),
            stop=StopRule(max_iterations=12)),  # the table runs dry after step 9
        "custom_callback_rng": homogeneous(mixed, CustomSelection(select=_pick_idle)),
        "heterogeneous": lambda: run_heterogeneous(
            make_heterogeneous(quad, 4, 1.0, seed=3), noisy, mixed, 5,
            ConstantStepsize(0.1), np.zeros(4), stop, master_seed=11),
    }


def trace_digest(trace):
    """SHA-256 over every array, scalar and ledger field of a RunTrace, with the
    trace CSV's worker, delay, hand-out and concurrency columns read from its
    ledger under the labels and dtypes they had as trace fields."""
    digest = hashlib.sha256()
    ledger = trace.ledger
    columns = {
        "worker_ids": np.array(ledger.applied_clients, dtype=int),
        "delays": np.array(ledger.applied_delays, dtype=int),
        "stepsizes": trace.stepsizes,
        "grad_norms": trace.grad_norms,
        "objective_values": trace.objective_values,
        "sim_times": trace.sim_times,
        "n_assigned": np.diff(ledger.concurrency_log) + 1,
        "concurrency": np.array(ledger.concurrency_log[:-1], dtype=int),
        "final_x": trace.final_x,
    }
    for name, column in columns.items():
        column = np.ascontiguousarray(column)
        digest.update(f"{name}:{column.dtype}:{column.shape}".encode())
        digest.update(column.tobytes())
    scalars = (trace.final_value, trace.final_grad_norm, float(trace.sim_times[-1]),
               trace.stop_reason, trace.converged, trace.diverged)
    digest.update(repr(scalars).encode())
    digest.update(json.dumps(dataclasses.asdict(trace.ledger), sort_keys=True).encode())
    return digest.hexdigest()


ENGINE_GOLDEN = {
    "custom_callback_rng": "7482be1b9d5a92f3d5da917446f944c5f728556ed7737761b2f0513d96e3e4ea",
    "custom_table": "aadb1882af5c8de6a6d83bcc07d7cc380ffb10eba42defc889af361c0a2bb057",
    "heterogeneous": "935d2a947db357bc3261ef2ea174eeacea4dfa4e65643f91bbce295052e819dd",
    "max_concurrency_noisy_straggler":
        "6c8dd58f5fff9eedc55852a8fa71f301a981d9823e1259a6bb9a3061ce67c905",
    "minibatch": "c291ee83bf9cdff1a48fb42877ec7b0b36c443dd6256c831f40f453968b279c0",
    "sampled_minibatch_above_fleet":
        "bc1bd8c891799d537d9636bc42057a3cca20750d71b9ad633e90493a25809e02",
    "uniform_sampling_homogeneous_queued":
        "a9c159d04c9cfff6b57feb724c542942b89cfe38d08e47b887d8107a8cfd382c",
}


@pytest.mark.parametrize("name", sorted(_engine_cases()))
def test_engine_replay_matches_pinned_digest(name):
    assert trace_digest(_engine_cases()[name]()) == ENGINE_GOLDEN[name]
