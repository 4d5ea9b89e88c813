"""Command-line interface.

Subcommands: gen-data, train, eval, sweep, mode-demo, grad-check.
Exit codes: 0 success, 1 usage/config error or a sweep with a failed cell,
2 numerical failure, 130 interrupted (SIGINT).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from . import harness, theory
from .data import load_dataset, replace_file, save_dataset
from .ensemble import (METHODS, TrainConfig, check_method_params, gradient_max_rel_error,
                       load_ensemble, method_of, save_ensemble, train)
from .envs import ENV_IDS, generate_dataset, make_env
from .errors import (
    ConfigError,
    DegenerateBaselineError,
    DimensionMismatchError,
    SwarmBCError,
    TiedModeError,
    TrainingDivergedError,
    check_range,
    cut,
)
from .metrics import RunRecord, write_trajectory_csv

USAGE_EXIT = 1
NUMERICAL_EXIT = 2
INTERRUPT_EXIT = 130  # 128 + SIGINT, as a shell reports it
# ``swarmbc eval``'s log: a sweep's results row, but for the --seed master seed
EVAL_SCHEMA = "swarmbc.eval.v1"
EVAL_COLUMNS = tuple("master_seed" if c == "seed" else c for c in harness.RESULTS_COLUMNS)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the CLI contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _echo(text: str):
    """Print a line to stdout. Once its reader is gone (``swarmbc sweep |
    head``), stdout goes to the null device: the output ends, the command
    does not."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


# ``swarmbc train``'s flag for each training key of a sweep config, in config order
TRAINING_FLAGS = {key: "--" + key.replace("_", "-") for key in harness.TRAIN_KEYS}


def _load(loader, path):
    """``loader(path)``, with a missing, malformed or inconsistent file as a
    ConfigError that names it once (the loaders index into whatever JSON the
    file holds, and the constructors they call check its values)."""
    try:
        return loader(path)
    except OSError as exc:  # its text repeats the path
        raise ConfigError(f"cannot load {path}: {exc.strerror or exc}") from None
    except (ValueError, KeyError, TypeError, AttributeError, OverflowError, RecursionError,
            SwarmBCError) as exc:
        raise ConfigError(f"cannot load {path}: {exc}") from None


def _env_of(what: str, env_id, shaped):
    """``make_env(env_id)``, if ``shaped`` (a model or a dataset header,
    called ``what``) has its (obs_dim, action_kind, action_dim)."""
    env = make_env(env_id)
    dims, spec = ((s.obs_dim, s.action_kind, s.action_dim) for s in (shaped, env.spec))
    if dims != spec:
        raise DimensionMismatchError(f"{what} has (obs_dim, action_kind, action_dim) "
                                     f"{dims}, env {env_id} has {spec}")
    return env


def _check_flags(args, **lowest):
    """A ConfigError for the first flag named in ``lowest`` below its floor.
    gen-data, train and grad-check seed numpy with ``--seed`` itself; eval
    and sweep hash theirs with ``harness.fan_out_seed``, which takes any int."""
    for name, low in lowest.items():
        check_range(f"--{name}", getattr(args, name), low)


def cmd_gen_data(args) -> int:
    _check_flags(args, seed=0, episodes=1)
    out = Path(args.out)
    if out.exists() and not args.force:
        raise ConfigError(f"{out} exists; rerun with --force to overwrite")
    env = make_env(args.env)
    dataset = generate_dataset(env, args.episodes, args.seed)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_dataset(dataset, out)
    _echo(f"wrote {len(dataset)} samples ({args.episodes} episodes) to {out}")
    return 0


def _resolve_method_params(method, tau, n):
    """``--tau`` and ``--n``, defaulting to what a sweep uses for ``method``."""
    default_tau, default_n = harness.method_params(harness.ExperimentConfig(), method)
    return (default_tau if tau is None else tau), (default_n if n is None else n)


def cmd_train(args) -> int:
    _check_flags(args, seed=0)
    tau, n = _resolve_method_params(args.method, args.tau, args.n)
    check_method_params(args.method, tau, n)
    config = TrainConfig(**{key: harness.parse_setting(key, getattr(args, key), flag)
                            for key, flag in TRAINING_FLAGS.items()
                            if getattr(args, key) is not None})
    out = Path(args.out)
    history_path = Path(args.history) if args.history else out.with_suffix(".history.csv")
    for flag, path in (("--out", out), ("--history", history_path)):
        if path.resolve() == Path(args.data).resolve():
            raise ConfigError(f"{flag} names the dataset {args.data}; choose another path")
    if history_path.resolve() == out.resolve():
        raise ConfigError(f"--history names the model file {out}; choose another path")
    dataset = _load(load_dataset, args.data)
    # eval runs the model on the env the header names
    _load(lambda _: _env_of("header", dataset.meta.env, dataset.meta), args.data)
    ens, history = train(dataset, n, tau, config, seed=args.seed)
    ens.meta["method"] = args.method

    out.parent.mkdir(parents=True, exist_ok=True)
    save_ensemble(ens, out)

    harness.write_table(history_path, ["epoch", "bc_term", "swarm_term", "total"], [
        [epoch, repr(h.bc_term), repr(h.swarm_term), repr(h.total)]
        for epoch, h in enumerate(history)
    ])
    final = history[-1]
    _echo(
        f"trained {args.method} (tau={ens.tau}, N={n}) for {len(history)} epochs; "
        f"final loss {final.total:.6f} (bc {final.bc_term:.6f}, "
        f"swarm {final.swarm_term:.6f})"
    )
    _echo(f"model: {out}\nhistory: {history_path}")
    return 0


def cmd_eval(args) -> int:
    _check_flags(args, episodes=1)
    if args.model:
        ens = _load(load_ensemble, args.model)
        tau, n = ens.tau, ens.n_members
        method = method_of(tau, n)
        env_id = args.env or ens.meta.get("env")
        if env_id is None:
            raise ConfigError("model has no env metadata; pass --env")
        if args.env and ens.meta.get("env") and args.env != ens.meta["env"]:
            trained = cut(repr(ens.meta["env"]))
            raise ConfigError(f"model was trained on {trained}, not {args.env!r}")
        env = _env_of("model", env_id, ens)
        policy, n_ep = ens, ens.meta.get("n_expert_episodes", 0)
    elif not args.env:
        raise ConfigError("--expert needs --env")
    else:
        env_id, env = args.env, make_env(args.env)
        policy = lambda obs, _: env.expert_action(obs)
        method, tau, n, n_ep = "expert", 0.0, 1, 0

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = out_dir / "eval_results.csv"  # a log: evaluating twice repeats a row
    # a malformed row is an error; a torn last row is dropped
    harness.read_table(results, EVAL_COLUMNS, RunRecord.parse, EVAL_SCHEMA)
    cfg = harness.ExperimentConfig(
        envs=(env_id,), eval_episodes=args.episodes, master_seed=args.seed
    )
    baselines = harness.load_or_compute_baselines(cfg, out_dir)
    try:
        trajs, mean_return, mean_diff = harness.evaluate(
            env, policy, harness.fan_out_seed(args.seed, "eval", env_id), args.episodes,
            baselines[env_id])
    except FloatingPointError as exc:
        raise ConfigError(f"evaluating {args.model or 'the expert'}: {exc}") from None
    for old in out_dir.glob("traj_ep*.csv"):  # an earlier run's, maybe of more episodes
        old.unlink()
    for i, traj in enumerate(trajs):
        write_trajectory_csv(traj, out_dir / f"traj_ep{i:03d}.csv")

    record = RunRecord(env_id, method, n_ep, tau, n, args.seed, mean_return, mean_diff)
    harness.append_row(results, record.row(), EVAL_COLUMNS, EVAL_SCHEMA)

    d_text = "" if mean_diff is None else f", mean action difference {mean_diff:.6f}"
    _echo(
        f"{env_id} {method}: mean scaled return {mean_return:.4f} over "
        f"{args.episodes} episodes{d_text}"
    )
    _echo(f"trajectories and results in {out_dir}")
    return 0


def cmd_sweep(args) -> int:
    _check_flags(args, workers=1)
    if args.write_config:
        path = Path(args.write_config)
        if path.exists() and not args.force:
            raise ConfigError(f"{path} exists; rerun with --force to overwrite")
        replace_file(path, harness.config_text(harness.ExperimentConfig()))
        _echo(f"wrote default config to {path}")
        return 0
    cfg = (
        harness.parse_config_file(args.config)
        if args.config
        else harness.ExperimentConfig()
    )
    out = Path(args.out)
    store = harness.run_sweep(cfg, out, workers=args.workers, force=args.force, log=_echo)
    _echo(f"{len(store.records)} records in {out / 'results.csv'}")
    # the run attempted every cell without a record, and logged each that failed
    failed = sum(not store.has(cell) for cell in harness.enumerate_cells(cfg))
    if failed:
        print(f"error: {failed} cells failed; see {out / 'failures.csv'} (a rerun retries them)",
              file=sys.stderr)
        return USAGE_EXIT
    return 0


def cmd_mode_demo(args) -> int:
    _check_flags(args, cells=3)
    try:
        n_list = harness.CONFIG_KEYS["n_grid"](args.n_list)
    except ValueError as exc:
        raise ConfigError(f"--n-list: {exc}") from None
    if args.density == "uniform":
        density = theory.uniform_grid_density(n_cells=args.cells)
    else:
        density = theory.gaussian_grid_density(
            n_cells=args.cells, mean=args.mean, std=args.std
        )
    report = theory.concentration_report(density, args.tau, n_list)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    harness.write_table(out, ["N", "mode_mass"], [[n, repr(mass)] for n, mass in report])
    _echo(f"{'N':>4}  mode_mass")
    for n, mass in report:
        _echo(f"{n:>4}  {mass:.6f}")
    _echo(f"wrote {out}")
    return 0


def cmd_grad_check(args) -> int:
    _check_flags(args, seed=0, trials=1)
    check_range("--step", args.step, 0, math.inf, above=True)
    worst = gradient_max_rel_error(
        n_trials=args.trials, seed=args.seed, step=args.step
    )
    _echo(f"max relative error over {args.trials} random ensembles: {worst:.3e}")
    if not worst < 1e-4:
        print("FAIL: exceeds 1e-4", file=sys.stderr)
        return NUMERICAL_EXIT
    _echo("PASS: below 1e-4")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="swarmbc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="record expert demonstrations to JSONL")
    p.add_argument("--env", required=True, choices=ENV_IDS)
    p.add_argument("--episodes", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train bc/ensemble/swarm on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="model file (JSON)")
    p.add_argument("--history", default=None, help="loss-history CSV path")
    group = p.add_argument_group(
        "training settings", "the training keys of a sweep config, read as a config reads them")
    for key, flag in TRAINING_FLAGS.items():
        group.add_argument(flag, dest=key)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a model (or the expert) on an env")
    policy = p.add_mutually_exclusive_group(required=True)
    policy.add_argument("--model", default=None)
    policy.add_argument("--expert", action="store_true", help="evaluate the scripted expert")
    p.add_argument("--env", default=None, choices=ENV_IDS)
    p.add_argument("--episodes", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="eval_out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="run the full experiment grid")
    p.add_argument("--config", default=None, help="key = value config file")
    p.add_argument("--out", default="sweep_out")
    # the cores this process may run on; macOS has no sched_getaffinity
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    p.add_argument("--workers", type=int, default=cores,
                   help="cell processes (default: the cores it may run on, %(default)s)")
    p.add_argument("--force", action="store_true", help="rerun completed cells")
    p.add_argument("--write-config", default=None, metavar="PATH",
                   help="write the default config file and exit")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("mode-demo", help="mode-concentration sweep on a grid density")
    p.add_argument("--density", choices=("gauss", "uniform"), default="gauss")
    p.add_argument("--cells", type=int, default=101)
    p.add_argument("--mean", type=float, default=0.15)
    p.add_argument("--std", type=float, default=0.25)
    p.add_argument("--tau", type=float, default=0.4, help="window edge length")
    p.add_argument("--n-list", default="1,2,4,8,16,32")
    p.add_argument("--out", default="mode_demo.csv")
    p.set_defaults(func=cmd_mode_demo)

    p = sub.add_parser("grad-check", help="finite-difference check of the backward pass")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step", type=float, default=1e-5)
    p.set_defaults(func=cmd_grad_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TrainingDivergedError, DegenerateBaselineError, TiedModeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_EXIT
    except (SwarmBCError, OSError) as exc:  # OSError: e.g. an unwritable output path
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except KeyboardInterrupt:  # sweeps resume; no traceback
        print("interrupted; rerun the same command to resume", file=sys.stderr)
        return INTERRUPT_EXIT


if __name__ == "__main__":
    sys.exit(main())
