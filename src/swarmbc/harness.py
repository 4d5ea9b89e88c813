"""End-to-end experiment harness.

A sweep enumerates cells (env x method x dataset size x seed, plus
regularizer-strength and ensemble-size ablations), trains and evaluates
each one, and appends rows to an on-disk results store. Cell seeds are
stable hashes of the master seed and the cell coordinates, so cells are
order-independent, resumable, and byte-reproducible. Datasets and
evaluation start states are shared across methods within a seed index,
which makes the method comparisons paired.
"""

from __future__ import annotations

import csv
import hashlib
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import svg
from .ensemble import METHODS, TrainConfig, train
from .envs import ENV_IDS, generate_dataset, make_env
from .errors import ConfigError
from .metrics import RunRecord, baseline_returns, rollouts, scaled_return

RESULTS_SCHEMA = "swarmbc.results.v1"
BASELINES_SCHEMA = "swarmbc.baselines.v1"
FINGERPRINT_FILE = "config.sha256"
RESULTS_COLUMNS = (
    "env",
    "method",
    "n_expert_episodes",
    "tau",
    "n_members",
    "seed",
    "scaled_return",
    "action_diff",
)


@dataclass
class ExperimentConfig:
    envs: tuple = ENV_IDS
    methods: tuple = ("bc", "ensemble", "swarm")
    episode_counts: tuple = (1, 2, 3, 4, 5, 6, 7, 8)
    n_seeds: int = 5
    eval_episodes: int = 20
    tau: float = 0.25
    n_members: int = 4
    tau_grid: tuple = (0.0, 0.25, 0.5, 0.75, 1.0)
    n_grid: tuple = (2, 4, 6, 8)
    ablations: bool = True
    master_seed: int = 0
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        for name in ("envs", "methods", "episode_counts", "tau_grid", "n_grid"):
            if not getattr(self, name):
                raise ConfigError(f"{name} must be non-empty")
        for env in self.envs:
            if env not in ENV_IDS:
                raise ConfigError(f"unknown env {env!r}")
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r}")
        if self.n_seeds < 1 or self.eval_episodes < 1:
            raise ConfigError("n_seeds and eval_episodes must be >= 1")
        if self.n_members < 1:
            raise ConfigError("n_members must be >= 1")
        if "swarm" in self.methods and self.tau <= 0:
            raise ConfigError("swarm method requires tau > 0")
        if any(t < 0 for t in self.tau_grid):
            raise ConfigError("tau_grid values must be >= 0")
        if any(n < 2 for n in self.n_grid):
            raise ConfigError("n_grid values must be >= 2")
        if any(e < 1 for e in self.episode_counts):
            raise ConfigError("episode_counts must be >= 1")


@dataclass(frozen=True)
class Cell:
    env: str
    method: str
    n_episodes: int
    tau: float
    n_members: int
    seed_index: int

    def key(self):
        return (
            self.env,
            self.method,
            self.n_episodes,
            repr(float(self.tau)),
            self.n_members,
            self.seed_index,
        )


def config_fingerprint(cfg: ExperimentConfig) -> str:
    """sha256 of the config's dataclass repr: every field, training
    hyperparameters included, floats written exactly."""
    return hashlib.sha256(repr(cfg).encode("utf-8")).hexdigest()


def fan_out_seed(master_seed: int, *parts) -> int:
    """Stable 63-bit seed from the master seed and arbitrary cell coordinates."""
    text = "|".join([str(int(master_seed))] + [str(p) for p in parts])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def cell_seeds(cfg: ExperimentConfig, cell: Cell):
    """(dataset, train, eval) seeds. Dataset and eval seeds ignore the
    method and hyperparameters so method comparisons are paired."""
    ms = cfg.master_seed
    data = fan_out_seed(ms, "data", cell.env, cell.n_episodes, cell.seed_index)
    tr = fan_out_seed(
        ms, "train", cell.env, cell.method, repr(float(cell.tau)),
        cell.n_members, cell.n_episodes, cell.seed_index,
    )
    ev = fan_out_seed(ms, "eval", cell.env, cell.seed_index)
    return data, tr, ev


def method_params(cfg: ExperimentConfig, method: str):
    if method == "bc":
        return 0.0, 1
    if method == "ensemble":
        return 0.0, cfg.n_members
    if method == "swarm":
        return cfg.tau, cfg.n_members
    raise ConfigError(f"unknown method {method!r}")


def enumerate_cells(cfg: ExperimentConfig) -> list:
    """All cells of the sweep in their canonical order, deduplicated."""
    cells = []
    for env in cfg.envs:
        for method in cfg.methods:
            tau, n = method_params(cfg, method)
            for n_ep in cfg.episode_counts:
                for k in range(cfg.n_seeds):
                    cells.append(Cell(env, method, n_ep, tau, n, k))
    if cfg.ablations:
        env = cfg.envs[0]
        n_ep = max(cfg.episode_counts)
        for tau in cfg.tau_grid:
            method = "swarm" if tau > 0 else "ensemble"
            for k in range(cfg.n_seeds):
                cells.append(Cell(env, method, n_ep, tau, cfg.n_members, k))
        for n in cfg.n_grid:
            for k in range(cfg.n_seeds):
                cells.append(Cell(env, "swarm", n_ep, cfg.tau, n, k))
    seen, unique = set(), []
    for c in cells:
        if c.key() not in seen:
            seen.add(c.key())
            unique.append(c)
    return unique


def trace_size(cfg: ExperimentConfig) -> int:
    """Dataset size whose evaluation episodes get per-timestep d traces
    (the smallest: that is where member disagreement is most visible)."""
    return min(cfg.episode_counts)


def _wants_trace(cfg: ExperimentConfig, cell: Cell) -> bool:
    return (
        cell.n_members >= 2
        and cell.n_episodes == trace_size(cfg)
        and cell.method in ("ensemble", "swarm")
        and cell.tau in (0.0, cfg.tau)
        and cell.n_members == cfg.n_members
    )


def evaluate(env, policy, eval_seed: int, n_episodes: int, baseline, record_members: bool):
    """The evaluation loop of sweep cells and ``swarmbc eval``: ``n_episodes``
    seeded episodes in lockstep. Returns ``(trajectories, mean scaled
    return, mean action difference or None)``."""
    seeds = np.random.SeedSequence(eval_seed).spawn(n_episodes)
    trajs = rollouts(env, policy, seeds, record_members=record_members)
    r_random, r_expert = baseline
    returns = [scaled_return(t.episode_return, r_random, r_expert) for t in trajs]
    diffs = [t.mean_action_difference for t in trajs if t.action_diffs is not None]
    return trajs, float(np.mean(returns)), float(np.mean(diffs)) if diffs else None


def run_cell(cfg: ExperimentConfig, cell: Cell, baselines: dict):
    """Train and evaluate one cell. Returns ``(RunRecord, d_trace | None)``
    where the trace is the per-timestep mean d over the eval episodes."""
    env = make_env(cell.env)
    data_seed, train_seed, eval_seed = cell_seeds(cfg, cell)
    dataset = generate_dataset(env, cell.n_episodes, data_seed)
    ens, _ = train(dataset, cell.n_members, cell.tau, cfg.train, train_seed)

    trajs, mean_return, mean_diff = evaluate(
        env, ens, eval_seed, cfg.eval_episodes, baselines[cell.env],
        record_members=cell.n_members >= 2,
    )
    record = RunRecord(
        env=cell.env,
        method=cell.method,
        n_expert_episodes=cell.n_episodes,
        tau=cell.tau,
        n_members=cell.n_members,
        seed=cell.seed_index,
        scaled_return=mean_return,
        action_diff=mean_diff,
    )

    d_traces = [t.action_diffs for t in trajs if t.action_diffs is not None]
    trace = None
    if d_traces and _wants_trace(cfg, cell):
        t_max = max(len(d) for d in d_traces)
        padded = np.full((len(d_traces), t_max), np.nan)
        for i, d in enumerate(d_traces):
            padded[i, : len(d)] = d
        trace = np.nanmean(padded, axis=0)
    return record, trace


class ResultsStore:
    """Append-only CSV of run records plus a baseline cache, keyed by
    (env, method, n_expert_episodes, tau, n_members, seed)."""

    def __init__(self, path):
        self.path = Path(path)
        self.records: list[RunRecord] = []
        self._keys = set()
        if self.path.exists() and self.path.stat().st_size == 0:
            # what a crash leaves before the first buffered header reaches disk
            self.path.unlink()
        if self.path.exists():
            self._load()

    def _load(self):
        """Read every complete row. An unterminated last row is what an
        interrupted append leaves: it is dropped with a warning and cut from
        the file, so its cell reruns and the next append starts a fresh line."""
        text = self.path.read_bytes().decode()
        first = text.split("\n", 1)[0].strip()
        if first != f"# schema={RESULTS_SCHEMA}":
            raise ConfigError(f"{self.path}: unexpected schema line {first!r}")
        complete = text[: text.rfind("\n") + 1]
        if len(complete) < len(text):
            warnings.warn(
                f"{self.path}: dropping unterminated last row "
                f"{text[len(complete):]!r} (interrupted write)",
                RuntimeWarning,
            )
            with open(self.path, "r+b") as f:
                f.truncate(len(complete.encode()))
        for row in csv.DictReader(complete.splitlines()[1:]):
            try:
                rec = RunRecord(
                    env=row["env"],
                    method=row["method"],
                    n_expert_episodes=int(row["n_expert_episodes"]),
                    tau=float(row["tau"]),
                    n_members=int(row["n_members"]),
                    seed=int(row["seed"]),
                    scaled_return=float(row["scaled_return"]),
                    action_diff=float(row["action_diff"]) if row["action_diff"] else None,
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"{self.path}: malformed row {row}: {exc}") from None
            self.records.append(rec)
            self._keys.add(self._key(rec))

    @staticmethod
    def _key(rec: RunRecord):
        return (
            rec.env,
            rec.method,
            rec.n_expert_episodes,
            repr(float(rec.tau)),
            rec.n_members,
            rec.seed,
        )

    def has(self, cell: Cell) -> bool:
        return cell.key() in self._keys

    def append(self, rec: RunRecord):
        key = self._key(rec)
        if key in self._keys:
            return  # completed cells are a no-op
        new_file = not self.path.exists()
        with open(self.path, "a", newline="") as f:
            writer = csv.writer(f, lineterminator="\n")
            if new_file:
                f.write(f"# schema={RESULTS_SCHEMA}\n")
                writer.writerow(RESULTS_COLUMNS)
            writer.writerow(
                [
                    rec.env,
                    rec.method,
                    rec.n_expert_episodes,
                    repr(float(rec.tau)),
                    rec.n_members,
                    rec.seed,
                    repr(float(rec.scaled_return)),
                    "" if rec.action_diff is None else repr(float(rec.action_diff)),
                ]
            )
        self.records.append(rec)
        self._keys.add(key)

    def select(self, **conditions) -> list[RunRecord]:
        out = []
        for rec in self.records:
            if all(getattr(rec, k) == v for k, v in conditions.items()):
                out.append(rec)
        return out


def load_or_compute_baselines(cfg: ExperimentConfig, out_dir: Path) -> dict:
    """Per-env (r_random, r_expert), cached in baselines.csv. A cached row is
    used only if its episode count and seed are the ones this config would
    use; any other env is recomputed and the file rewritten."""
    path = Path(out_dir) / "baselines.csv"

    def seed_of(env_id):
        return fan_out_seed(cfg.master_seed, "baseline", env_id)

    cache = {}
    if path.exists():
        with open(path, newline="") as f:
            first = f.readline().strip()
            if first != f"# schema={BASELINES_SCHEMA}":
                raise ConfigError(f"{path}: unexpected schema line {first!r}")
            for row in csv.DictReader(f):
                key = (int(row["n_episodes"]), int(row["seed"]))
                if key == (cfg.eval_episodes, seed_of(row["env"])):
                    cache[row["env"]] = (float(row["r_random"]), float(row["r_expert"]))
    missing = [e for e in cfg.envs if e not in cache]
    for env_id in missing:
        cache[env_id] = baseline_returns(
            make_env(env_id), n_episodes=cfg.eval_episodes, seed=seed_of(env_id)
        )
    if missing:
        with open(path, "w", newline="") as f:
            f.write(f"# schema={BASELINES_SCHEMA}\n")
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(["env", "n_episodes", "seed", "r_random", "r_expert"])
            for env_id in sorted(cache):
                r_rand, r_exp = cache[env_id]
                writer.writerow(
                    [
                        env_id,
                        cfg.eval_episodes,
                        seed_of(env_id),
                        repr(r_rand),
                        repr(r_exp),
                    ]
                )
    return cache


def _trace_path(out_dir: Path, cell: Cell) -> Path:
    name = f"{cell.env}__{cell.method}__ep{cell.n_episodes}__seed{cell.seed_index}.csv"
    return Path(out_dir) / "traces" / name


def _write_trace(path: Path, trace: np.ndarray):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["t", "d_mean"])
        for t, d in enumerate(trace):
            writer.writerow([t, repr(float(d))])


def _cell_worker(args):
    cfg, cell, baselines = args
    try:
        record, trace = run_cell(cfg, cell, baselines)
        return "ok", cell, record, trace
    except Exception as exc:  # cell failures must not kill the sweep
        return "error", cell, f"{type(exc).__name__}: {exc}", None


def run_sweep(cfg: ExperimentConfig, out_dir, workers: int = 1,
              force: bool = False, log=None) -> ResultsStore:
    """Run every cell of the sweep into ``out_dir`` (resumable), then write
    summary tables and SVG charts. Returns the populated store.

    ``out_dir`` keeps the config's fingerprint beside ``results.csv``;
    resuming under a different config is a ``ConfigError``. At the end,
    ``failures.csv`` keeps only the cells that still have no result.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    results_path = out_dir / "results.csv"
    fingerprint_path = out_dir / FINGERPRINT_FILE
    if force:
        for p in [results_path, out_dir / "baselines.csv", out_dir / "failures.csv",
                  fingerprint_path]:
            p.unlink(missing_ok=True)
        for p in (out_dir / "traces").glob("*.csv"):
            p.unlink()

    fingerprint = config_fingerprint(cfg)
    if fingerprint_path.exists() and fingerprint_path.read_text().strip() != fingerprint:
        raise ConfigError(
            f"{out_dir} holds a sweep run under a different config; rerun with "
            "--force to replace its results, or choose a new --out"
        )
    store = ResultsStore(results_path)
    fingerprint_path.write_text(fingerprint + "\n")
    baselines = load_or_compute_baselines(cfg, out_dir)
    cells = enumerate_cells(cfg)
    pending = [c for c in cells if not store.has(c)]
    if log:
        log(f"sweep: {len(cells)} cells, {len(pending)} to run")

    def handle(outcome):
        status, cell, payload, trace = outcome
        if status == "ok":
            if trace is not None:
                _write_trace(_trace_path(out_dir, cell), trace)
            store.append(payload)
            if log:
                d = "" if payload.action_diff is None else f" d={payload.action_diff:.4f}"
                log(
                    f"  {cell.env} {cell.method} ep={cell.n_episodes} "
                    f"tau={cell.tau} N={cell.n_members} seed={cell.seed_index}: "
                    f"R={payload.scaled_return:.3f}{d}"
                )
        else:
            _record_failure(out_dir, cell, payload)
            if log:
                log(f"  FAILED {cell}: {payload}")

    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            jobs = [(cfg, c, baselines) for c in pending]
            for outcome in pool.map(_cell_worker, jobs):
                handle(outcome)
    else:
        for cell in pending:
            handle(_cell_worker((cfg, cell, baselines)))

    _prune_failures(out_dir, store)
    write_summaries(cfg, store, out_dir)
    return store


FAILURE_COLUMNS = ("env", "method", "n_episodes", "tau", "n_members", "seed", "error")


def _record_failure(out_dir: Path, cell: Cell, message: str):
    path = Path(out_dir) / "failures.csv"
    new_file = not path.exists()
    with open(path, "a", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        if new_file:
            writer.writerow(FAILURE_COLUMNS)
        writer.writerow(
            [cell.env, cell.method, cell.n_episodes, repr(float(cell.tau)),
             cell.n_members, cell.seed_index, message]
        )


def _prune_failures(out_dir: Path, store: ResultsStore):
    """Drop the failure rows of cells that have since succeeded; delete the
    file once no row is left."""
    path = Path(out_dir) / "failures.csv"
    if not path.exists():
        return
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    open_rows = [
        r for r in rows
        if not store.has(Cell(r["env"], r["method"], int(r["n_episodes"]), float(r["tau"]),
                              int(r["n_members"]), int(r["seed"])))
    ]
    if not open_rows:
        path.unlink()
    elif len(open_rows) < len(rows):
        with open(path, "w", newline="") as f:
            writer = csv.DictWriter(f, FAILURE_COLUMNS, lineterminator="\n")
            writer.writeheader()
            writer.writerows(open_rows)


def _mean_std(values):
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.mean()), float(arr.std())


def write_summaries(cfg: ExperimentConfig, store: ResultsStore, out_dir):
    """Summary CSVs and charts: scaled return vs dataset size per env,
    disagreement traces, and the two ablation tables."""
    out_dir = Path(out_dir)

    for env in cfg.envs:
        rows = []
        chart = []
        for method in cfg.methods:
            tau, n = method_params(cfg, method)
            xs, means, los, his = [], [], [], []
            for n_ep in cfg.episode_counts:
                recs = store.select(
                    env=env, method=method, n_expert_episodes=n_ep,
                    tau=tau, n_members=n,
                )
                if not recs:
                    continue
                mean, std = _mean_std([r.scaled_return for r in recs])
                rows.append([env, n_ep, method, repr(mean), repr(std), len(recs)])
                xs.append(n_ep)
                means.append(mean)
                los.append(mean - std)
                his.append(mean + std)
            if xs:
                chart.append(svg.Series(method, xs, means, lo=los, hi=his))
        if rows:
            rows.sort(key=lambda r: (r[1], cfg.methods.index(r[2])))
            with open(out_dir / f"returns_{env}.csv", "w", newline="") as f:
                writer = csv.writer(f, lineterminator="\n")
                writer.writerow(
                    ["env", "n_expert_episodes", "method",
                     "scaled_return_mean", "scaled_return_std", "n_runs"]
                )
                writer.writerows(rows)
        if chart:
            svg.line_chart(
                out_dir / f"returns_{env}.svg", chart,
                title=f"Scaled return vs expert episodes ({env})",
                x_label="expert episodes in dataset",
                y_label="mean scaled return",
            )

    _write_trace_summaries(cfg, out_dir)

    if cfg.ablations:
        _write_ablations(cfg, store, out_dir)


def _read_trace(path: Path):
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        return np.array([float(row["d_mean"]) for row in reader])


def _write_trace_summaries(cfg: ExperimentConfig, out_dir: Path):
    n_ep = trace_size(cfg)
    for env in cfg.envs:
        per_method = {}
        for method in ("ensemble", "swarm"):
            if method not in cfg.methods:
                continue
            traces = []
            for k in range(cfg.n_seeds):
                tau, n = method_params(cfg, method)
                path = _trace_path(out_dir, Cell(env, method, n_ep, tau, n, k))
                if path.exists():
                    traces.append(_read_trace(path))
            if traces:
                t_max = max(len(t) for t in traces)
                padded = np.full((len(traces), t_max), np.nan)
                for i, t in enumerate(traces):
                    padded[i, : len(t)] = t
                per_method[method] = np.nanmean(padded, axis=0)
        if not per_method:
            continue
        t_max = max(len(v) for v in per_method.values())
        with open(out_dir / f"action_diff_{env}.csv", "w", newline="") as f:
            writer = csv.writer(f, lineterminator="\n")
            methods = sorted(per_method)
            writer.writerow(["t"] + [f"d_{m}_mean" for m in methods])
            for t in range(t_max):
                row = [t]
                for m in methods:
                    v = per_method[m]
                    row.append(repr(float(v[t])) if t < len(v) else "")
                writer.writerow(row)
        series = [
            svg.Series(m, list(range(len(v))), list(v))
            for m, v in sorted(per_method.items())
        ]
        svg.line_chart(
            out_dir / f"action_diff_{env}.svg", series,
            title=f"Member disagreement over an episode ({env}, {n_ep} expert ep)",
            x_label="timestep",
            y_label="mean action difference d",
        )


def _write_ablations(cfg: ExperimentConfig, store: ResultsStore, out_dir: Path):
    env = cfg.envs[0]
    n_ep = max(cfg.episode_counts)

    rows, xs, means, los, his = [], [], [], [], []
    for tau in cfg.tau_grid:
        method = "swarm" if tau > 0 else "ensemble"
        recs = store.select(
            env=env, method=method, n_expert_episodes=n_ep,
            tau=tau, n_members=cfg.n_members,
        )
        if not recs:
            continue
        mean, std = _mean_std([r.scaled_return for r in recs])
        rows.append([env, n_ep, repr(float(tau)), repr(mean), repr(std), len(recs)])
        xs.append(tau)
        means.append(mean)
        los.append(mean - std)
        his.append(mean + std)
    if rows:
        with open(out_dir / "ablation_tau.csv", "w", newline="") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(
                ["env", "n_expert_episodes", "tau",
                 "scaled_return_mean", "scaled_return_std", "n_runs"]
            )
            writer.writerows(rows)
        svg.line_chart(
            out_dir / "ablation_tau.svg",
            [svg.Series("swarm", xs, means, lo=los, hi=his)],
            title=f"Regularizer strength ablation ({env}, {n_ep} expert ep)",
            x_label="tau",
            y_label="mean scaled return",
        )

    rows, xs, means, los, his = [], [], [], [], []
    for n in cfg.n_grid:
        recs = store.select(
            env=env, method="swarm", n_expert_episodes=n_ep,
            tau=cfg.tau, n_members=n,
        )
        if not recs:
            continue
        mean, std = _mean_std([r.scaled_return for r in recs])
        rows.append([env, n_ep, n, repr(mean), repr(std), len(recs)])
        xs.append(n)
        means.append(mean)
        los.append(mean - std)
        his.append(mean + std)
    if rows:
        with open(out_dir / "ablation_n.csv", "w", newline="") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(
                ["env", "n_expert_episodes", "n_members",
                 "scaled_return_mean", "scaled_return_std", "n_runs"]
            )
            writer.writerows(rows)
        svg.line_chart(
            out_dir / "ablation_n.svg",
            [svg.Series("swarm", xs, means, lo=los, hi=his)],
            title=f"Ensemble size ablation ({env}, {n_ep} expert ep)",
            x_label="ensemble size N",
            y_label="mean scaled return",
        )


# --- config file -----------------------------------------------------------

CONFIG_KEYS = {
    "envs": "comma list of env ids",
    "methods": "comma list from bc, ensemble, swarm",
    "episode_counts": "comma list of dataset sizes (expert episodes)",
    "n_seeds": "seeds per cell",
    "eval_episodes": "evaluation episodes per cell",
    "tau": "regularizer coefficient for the swarm method",
    "n_members": "ensemble size for ensemble/swarm methods",
    "tau_grid": "comma list for the tau ablation",
    "n_grid": "comma list for the ensemble-size ablation",
    "ablations": "true/false",
    "master_seed": "integer master seed",
    "epochs": "training epoch budget",
    "batch_size": "minibatch size",
    "learning_rate": "optimizer learning rate",
    "patience": "early-stop patience (epochs)",
    "min_improvement": "relative loss improvement that resets patience",
    "hidden_dims": "comma list of hidden layer widths",
    "normalize_swarm": "true/false: divide the pairwise sum by K*N(N-1)/2",
}


def _as_bool(key, text):
    t = text.strip().lower()
    if t in ("true", "1", "yes", "on"):
        return True
    if t in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"{key}: expected true/false, got {text!r}")


def parse_config_text(text: str) -> ExperimentConfig:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ConfigError(
                f"line {lineno}: unknown key {key!r} "
                f"(known: {', '.join(sorted(CONFIG_KEYS))})"
            )
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = val

    def split_list(text):
        items = [t.strip() for t in text.split(",")]
        return [t for t in items if t]

    cfg_kwargs = {}
    train_kwargs = {}
    try:
        for key, val in values.items():
            if key == "envs":
                cfg_kwargs["envs"] = tuple(split_list(val))
            elif key == "methods":
                cfg_kwargs["methods"] = tuple(split_list(val))
            elif key == "episode_counts":
                cfg_kwargs["episode_counts"] = tuple(int(t) for t in split_list(val))
            elif key == "n_seeds":
                cfg_kwargs["n_seeds"] = int(val)
            elif key == "eval_episodes":
                cfg_kwargs["eval_episodes"] = int(val)
            elif key == "tau":
                cfg_kwargs["tau"] = float(val)
            elif key == "n_members":
                cfg_kwargs["n_members"] = int(val)
            elif key == "tau_grid":
                cfg_kwargs["tau_grid"] = tuple(float(t) for t in split_list(val))
            elif key == "n_grid":
                cfg_kwargs["n_grid"] = tuple(int(t) for t in split_list(val))
            elif key == "ablations":
                cfg_kwargs["ablations"] = _as_bool(key, val)
            elif key == "master_seed":
                cfg_kwargs["master_seed"] = int(val)
            elif key == "epochs":
                train_kwargs["epochs"] = int(val)
            elif key == "batch_size":
                train_kwargs["batch_size"] = int(val)
            elif key == "learning_rate":
                train_kwargs["learning_rate"] = float(val)
            elif key == "patience":
                train_kwargs["patience"] = int(val)
            elif key == "min_improvement":
                train_kwargs["min_rel_improvement"] = float(val)
            elif key == "hidden_dims":
                train_kwargs["hidden_dims"] = tuple(int(t) for t in split_list(val))
            elif key == "normalize_swarm":
                train_kwargs["normalize_swarm"] = _as_bool(key, val)
    except ValueError as exc:
        raise ConfigError(f"bad value: {exc}") from None

    return ExperimentConfig(train=TrainConfig(**train_kwargs), **cfg_kwargs)


def parse_config_file(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(path.read_text())


def default_config_text() -> str:
    """A config file with every key at its default, for --write-config."""
    cfg = ExperimentConfig()
    tr = cfg.train
    lines = [
        "# swarmbc sweep configuration (key = value; '#' starts a comment)",
        f"envs = {', '.join(cfg.envs)}",
        f"methods = {', '.join(cfg.methods)}",
        f"episode_counts = {', '.join(map(str, cfg.episode_counts))}",
        f"n_seeds = {cfg.n_seeds}",
        f"eval_episodes = {cfg.eval_episodes}",
        f"tau = {cfg.tau}",
        f"n_members = {cfg.n_members}",
        f"tau_grid = {', '.join(map(str, cfg.tau_grid))}",
        f"n_grid = {', '.join(map(str, cfg.n_grid))}",
        f"ablations = {str(cfg.ablations).lower()}",
        f"master_seed = {cfg.master_seed}",
        f"epochs = {tr.epochs}",
        f"batch_size = {tr.batch_size}",
        f"learning_rate = {tr.learning_rate}",
        f"patience = {tr.patience}",
        f"min_improvement = {tr.min_rel_improvement}",
        f"hidden_dims = {', '.join(map(str, tr.hidden_dims))}",
        f"normalize_swarm = {str(tr.normalize_swarm).lower()}",
    ]
    return "\n".join(lines) + "\n"
