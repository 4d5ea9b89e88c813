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

import contextlib
import csv
import fcntl
import hashlib
import io
import multiprocessing
import os
import signal
import socket
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import svg
from .ensemble import METHODS, TrainConfig, check_tau, train
from .envs import ENV_IDS, make_env
from .errors import ConfigError
from .metrics import RunRecord, rollouts, scaled_return, scripted_rollouts

RESULTS_SCHEMA = "swarmbc.results.v1"
BASELINES_SCHEMA = "swarmbc.baselines.v1"
FINGERPRINT_FILE = "config.sha256"
LOCK_FILE = "sweep.lock"
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
BASELINES_COLUMNS = ("env", "n_episodes", "seed", "r_random", "r_expert")
FAILURE_COLUMNS = ("env", "method", "n_episodes", "tau", "n_members", "seed", "error")
TRACE_COLUMNS = ("t", "d_mean")


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
        for tau in self.tau_grid:
            check_tau(tau)
        if any(n < 2 for n in self.n_grid):
            raise ConfigError("n_grid values must be >= 2")
        if any(e < 1 for e in self.episode_counts):
            raise ConfigError("episode_counts must be >= 1")
        for _, method, _, tau, n_members in _cell_groups(self):  # ablations included
            check_method_params(method, tau, n_members)


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

    @classmethod
    def parse(cls, row):
        """The cell whose ``key()`` is the first six fields of a table row."""
        env, method, n_episodes, tau, n_members, seed_index = row[:6]
        return cls(env, method, int(n_episodes), float(tau), int(n_members), int(seed_index))


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


def tau_method(tau: float) -> str:
    """The method of an ensemble trained with regularizer strength ``tau``."""
    return "swarm" if tau > 0 else "ensemble"


def check_method_params(method: str, tau: float, n_members: int):
    """The one rule for (method, tau, N): bc is a single policy and ensemble
    N >= 2 policies, both with tau = 0; swarm is N >= 2 policies with tau > 0."""
    check_tau(tau)
    if not (n_members == 1 if method == "bc" else n_members >= 2):
        raise ConfigError(f"{method} with N = {n_members}: bc trains a single policy, "
                          "ensemble and swarm need N >= 2")
    if not (tau > 0 if method == "swarm" else tau == 0):
        raise ConfigError(f"{method} with tau = {tau}: bc and ensemble take tau = 0, "
                          "swarm needs tau > 0")


def method_params(cfg: ExperimentConfig, method: str):
    if method == "bc":
        return 0.0, 1
    if method == "ensemble":
        return 0.0, cfg.n_members
    if method == "swarm":
        return cfg.tau, cfg.n_members
    raise ConfigError(f"unknown method {method!r}")


def _cell_groups(cfg: ExperimentConfig):
    """(env, method, n_episodes, tau, N) of each group of seed cells, in order."""
    for env in cfg.envs:
        for method in cfg.methods:
            for n_ep in cfg.episode_counts:
                yield (env, method, n_ep, *method_params(cfg, method))
    if cfg.ablations:
        env, n_ep = cfg.envs[0], max(cfg.episode_counts)
        for tau in cfg.tau_grid:
            yield env, tau_method(tau), n_ep, tau, cfg.n_members
        for n in cfg.n_grid:
            yield env, "swarm", n_ep, cfg.tau, n


def enumerate_cells(cfg: ExperimentConfig) -> list:
    """All cells of the sweep in their canonical order, deduplicated."""
    cells = (Cell(*group, k) for group in _cell_groups(cfg) for k in range(cfg.n_seeds))
    return list({c.key(): c for c in cells}.values())


def trace_size(cfg: ExperimentConfig) -> int:
    """Dataset size whose evaluation episodes get per-timestep d traces
    (the smallest: that is where member disagreement is most visible)."""
    return min(cfg.episode_counts)


def _wants_trace(cfg: ExperimentConfig, cell: Cell) -> bool:
    return (cell.method != "bc" and cell.n_episodes == trace_size(cfg)
            and (cell.tau, cell.n_members) == method_params(cfg, cell.method))


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


def run_cell(cfg: ExperimentConfig, cell: Cell, inputs):
    """Train and evaluate one cell on its scripted ``inputs``: its env's
    ``(r_random, r_expert)`` and its expert ``Dataset`` (``scripted_inputs``).
    Returns ``(RunRecord, d_trace | None)`` where the trace is the
    per-timestep mean d over the eval episodes."""
    baseline, dataset = inputs
    _, train_seed, eval_seed = cell_seeds(cfg, cell)
    ens, _ = train(dataset, cell.n_members, cell.tau, cfg.train, train_seed)

    trajs, mean_return, mean_diff = evaluate(
        make_env(cell.env), ens, eval_seed, cfg.eval_episodes, baseline,
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
    trace = _ragged_mean(d_traces) if d_traces and _wants_trace(cfg, cell) else None
    return record, trace


def _ragged_mean(traces) -> np.ndarray:
    """Per-timestep mean of traces of different lengths: each timestep
    averages the traces that reach it."""
    padded = np.full((len(traces), max(len(t) for t in traces)), np.nan)
    for i, t in enumerate(traces):
        padded[i, : len(t)] = t
    return np.nanmean(padded, axis=0)


# --- on-disk tables ---------------------------------------------------------
# Every CSV a sweep reads back starts with a preamble (an optional
# ``# schema=`` line, then the header row); each row after it ends in a
# newline. A crash can only cut a file at its end: a file cut inside its
# preamble is absent, and an unterminated last row is dropped. Files that are
# rewritten rather than appended to are replaced atomically.

def _csv_text(rows, schema=None) -> str:
    buf = io.StringIO()
    buf.write(f"# schema={schema}\n" if schema else "")
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def read_table(path: Path, columns, parse, schema=None) -> list:
    """``parse`` of every complete row of the table at ``path``. A missing
    file, or one cut inside its preamble, is no rows (a cut file is
    removed); an unterminated last row is dropped with a warning and cut
    from the file, so the next append starts a fresh line. Any other
    preamble, or a row ``parse`` rejects, is a ``ConfigError``."""
    head = _csv_text([columns], schema).encode()
    data = path.read_bytes() if path.exists() else b""
    if len(data) < len(head) and head.startswith(data):
        path.unlink(missing_ok=True)
        return []
    if not data.startswith(head):
        raise ConfigError(f"{path}: expected the preamble {head.decode()!r}, got "
                          f"{data[:len(head)].decode(errors='replace')!r}")
    end = data.rfind(b"\n") + 1
    while data.count(b'"', 0, end) % 2:  # that newline is inside a quoted field
        end = data.rfind(b"\n", 0, end - 1) + 1
    if end < len(data):
        warnings.warn(f"{path}: dropping unterminated last row {data[end:]!r} "
                      "(interrupted write)", RuntimeWarning)
        with open(path, "r+b") as f:
            f.truncate(end)
    out = []
    for row in csv.reader(io.StringIO(data[len(head):end].decode())):
        try:
            out.append(parse(row))
        except (IndexError, ValueError) as exc:
            raise ConfigError(f"{path}: malformed row {row}: {exc}") from None
    return out


def append_row(path: Path, row, columns, schema=None):
    """Append one row, writing the preamble first if the file is new."""
    with open(path, "a", encoding="utf-8", newline="") as f:
        f.write(_csv_text([columns, row], schema) if f.tell() == 0 else _csv_text([row]))


def replace_file(path: Path, text: str):
    """Write ``text`` to ``path`` through a temporary file and ``os.replace``,
    so a crash leaves the old file or the new one, never a mix."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8", newline="")
    os.replace(tmp, path)


def write_table(path: Path, columns, rows, schema=None):
    replace_file(path, _csv_text([columns, *rows], schema))


def _record_key(rec: RunRecord):
    return Cell(rec.env, rec.method, rec.n_expert_episodes, rec.tau, rec.n_members,
                rec.seed).key()


def _parse_record(row) -> RunRecord:
    cell = Cell.parse(row)
    scaled_return, action_diff = row[6:]
    return RunRecord(
        env=cell.env, method=cell.method, n_expert_episodes=cell.n_episodes,
        tau=cell.tau, n_members=cell.n_members, seed=cell.seed_index,
        scaled_return=float(scaled_return),
        action_diff=float(action_diff) if action_diff else None,
    )


def _result_row(rec: RunRecord) -> list:
    diff = "" if rec.action_diff is None else repr(float(rec.action_diff))
    return [*_record_key(rec), repr(float(rec.scaled_return)), diff]


def read_results(path: Path) -> list[RunRecord]:
    """Every complete row of a results CSV (sweep or ``swarmbc eval``)."""
    return read_table(path, RESULTS_COLUMNS, _parse_record, RESULTS_SCHEMA)


def append_result(path: Path, rec: RunRecord):
    """Append one row to a results CSV (sweep or ``swarmbc eval``)."""
    append_row(path, _result_row(rec), RESULTS_COLUMNS, RESULTS_SCHEMA)


class ResultsStore:
    """Append-only CSV of run records, one per (env, method,
    n_expert_episodes, tau, n_members, seed), indexed by cell in file order.
    A repeated identical row is dropped with a warning and the file
    rewritten; two different rows for one cell are a ``ConfigError``."""

    def __init__(self, path):
        self.path = Path(path)
        self._index = {}  # Cell.key() -> (row, record), in file order
        records = read_results(self.path)
        for rec in records:
            row = _result_row(rec)
            kept = self._index.setdefault(_record_key(rec), (row, rec))[0]
            if kept != row:
                raise ConfigError(f"{self.path}: two different rows for one cell: "
                                  f"{kept} and {row}")
        if len(self._index) < len(records):
            warnings.warn(f"{self.path}: dropping {len(records) - len(self._index)} "
                          "repeated row(s)", RuntimeWarning)
            write_table(self.path, RESULTS_COLUMNS, [row for row, _ in self._index.values()],
                        RESULTS_SCHEMA)

    @property
    def records(self) -> list[RunRecord]:
        return [rec for _, rec in self._index.values()]

    def has(self, cell: Cell) -> bool:
        return cell.key() in self._index

    def get(self, cell: Cell):
        """The cell's record, or None."""
        return self._index.get(cell.key(), (None, None))[1]

    def append(self, rec: RunRecord):
        key = _record_key(rec)
        if key in self._index:
            return  # completed cells are a no-op
        append_result(self.path, rec)  # written first: a failed write leaves the cell open
        self._index[key] = _result_row(rec), rec


def dataset_key(cfg: ExperimentConfig, cell: Cell):
    """(env, n_episodes, data seed): the cells of one key train on one dataset."""
    return cell.env, cell.n_episodes, cell_seeds(cfg, cell)[0]


def load_or_compute_baselines(cfg: ExperimentConfig, out_dir: Path) -> dict:
    """Per-env (r_random, r_expert): ``scripted_inputs`` without cells."""
    return scripted_inputs(cfg, out_dir, ())[0]


def scripted_inputs(cfg: ExperimentConfig, out_dir: Path, cells):
    """``(baselines, datasets)``: the per-env (r_random, r_expert) and the
    ``Dataset`` of each ``dataset_key`` of ``cells``, from one
    ``scripted_rollouts`` call per env that lacks either. Baselines are cached
    in baselines.csv; a cached row is used only if its episode count and seed
    are the ones this config would use, else it is recomputed and the file
    rewritten."""
    path = Path(out_dir) / "baselines.csv"

    def seed_of(env_id):
        return fan_out_seed(cfg.master_seed, "baseline", env_id)

    def parse(row):
        env, n_episodes, seed, r_random, r_expert = row
        return env, (int(n_episodes), int(seed)), (float(r_random), float(r_expert))

    cache = {env: returns
             for env, key, returns in read_table(path, BASELINES_COLUMNS, parse, BASELINES_SCHEMA)
             if key == (cfg.eval_episodes, seed_of(env))}
    missing = [e for e in cfg.envs if e not in cache]
    keys = dict.fromkeys(dataset_key(cfg, c) for c in cells)
    datasets = {}
    for env_id in cfg.envs:
        wanted = [key for key in keys if key[0] == env_id]
        baseline = [(cfg.eval_episodes, seed_of(env_id))] if env_id in missing else []
        if wanted or baseline:
            returns, built = scripted_rollouts(make_env(env_id), baseline,
                                              [key[1:] for key in wanted])
            cache.update(zip([env_id], returns))
            datasets.update(zip(wanted, built))
    if missing:
        write_table(path, BASELINES_COLUMNS, [
            [env_id, cfg.eval_episodes, seed_of(env_id), repr(r_rand), repr(r_exp)]
            for env_id, (r_rand, r_exp) in sorted(cache.items())
        ], BASELINES_SCHEMA)
    return cache, datasets


def _trace_path(out_dir: Path, cell: Cell) -> Path:
    name = f"{cell.env}__{cell.method}__ep{cell.n_episodes}__seed{cell.seed_index}.csv"
    return Path(out_dir) / "traces" / name


def _write_trace(path: Path, trace: np.ndarray):
    path.parent.mkdir(parents=True, exist_ok=True)
    write_table(path, TRACE_COLUMNS, [[t, repr(float(d))] for t, d in enumerate(trace)])


def _cell_worker(args):
    cfg, cell, inputs = args
    try:
        record, trace = run_cell(cfg, cell, inputs)
        return "ok", cell, record, trace
    except Exception as exc:  # cell failures must not kill the sweep
        return "error", cell, f"{type(exc).__name__}: {exc}", None


def _pool(workers: int, lock: int) -> ProcessPoolExecutor:
    """Workers ignore SIGINT, which Ctrl-C sends to the whole process group:
    the parent alone stops the sweep, once the running cells end. A forked
    worker closes its copy of ``lock``, the sweep lock's descriptor, so that
    the lock ends with the parent, and ends itself, mid-cell too, once the
    parent is gone."""
    return ProcessPoolExecutor(workers, initializer=_init_worker,
                               initargs=(lock, os.fstat(lock)))


def _init_worker(lock: int, lock_stat):
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    with contextlib.suppress(OSError):  # not forked: the number names another file, or none
        if os.path.samestat(os.fstat(lock), lock_stat):
            os.close(lock)
    threading.Thread(target=_exit_when_orphaned, daemon=True).start()


def _exit_when_orphaned():
    """End this worker once the process that started it has died, under any
    start method: its sentinel, a pipe that process holds open, then reads
    EOF. A forked worker also holds the pipes of the workers forked before
    it, so they end one after another, the last started first."""
    multiprocessing.parent_process().join()
    os._exit(1)


def _isolated_cell_worker(args, lock: int):
    """Run one cell in a fresh one-process pool, so that a worker that dies
    is pinned on the cell it was running. The pool starts its process the
    way the sweep's pool does, so the rerun meets what killed the worker."""
    try:
        with _pool(1, lock) as pool:
            return pool.submit(_cell_worker, args).result()
    except BrokenProcessPool:
        return "error", args[1], "BrokenProcessPool: the worker process died", None


@contextlib.contextmanager
def sweep_lock(out_dir: Path):
    """Hold an exclusive ``flock`` on ``out_dir``'s lock file, which names this
    process and host, while the block runs; yields its descriptor. The kernel
    drops the lock when the holder ends, however it ends. A held lock is a
    ``ConfigError`` naming its holder; a file no process holds is taken over
    with a warning."""
    path = out_dir / LOCK_FILE
    while True:
        left = path.exists()
        fd = os.open(path, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            holder = os.read(fd, 256).decode(errors="replace").strip() or "?"
            os.close(fd)
            raise ConfigError(f"{out_dir} is in use by another sweep ({holder}: pid and "
                              f"host in {path}); wait for it to end") from None
        with contextlib.suppress(FileNotFoundError):
            if os.path.samestat(os.fstat(fd), os.stat(path)):
                break
        os.close(fd)  # its holder removed the file before this process locked it
    try:
        if left:
            holder = os.read(fd, 256).decode(errors="replace").split() or ["?"]
            warnings.warn(f"{path}: taking over the lock of pid {holder[0]}, which is gone",
                          RuntimeWarning)
        os.ftruncate(fd, 0)
        os.pwrite(fd, f"{os.getpid()} {socket.gethostname()}\n".encode(), 0)
        yield fd
    finally:
        path.unlink(missing_ok=True)  # before the unlock, so that it is this sweep's file
        os.close(fd)


def run_sweep(cfg: ExperimentConfig, out_dir, workers: int = 1,
              force: bool = False, log=None) -> ResultsStore:
    """Run every cell of the sweep into ``out_dir`` (resumable), then write
    summary tables and SVG charts. Returns the populated store.

    One sweep at a time writes ``out_dir``: it holds ``sweep_lock`` until it
    returns. ``out_dir`` keeps the config's fingerprint beside
    ``results.csv``; resuming under a different config is a ``ConfigError``.
    If a worker process dies, the cells it left unreported rerun one process
    each, and the cell that kills its process is recorded as failed. At the
    end, ``failures.csv`` keeps only the cells that still have no result.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with sweep_lock(out_dir) as lock:
        return _locked_sweep(cfg, out_dir, workers, force, log, lock)


def _locked_sweep(cfg: ExperimentConfig, out_dir: Path, workers: int, force: bool, log,
                  lock: int):
    results_path = out_dir / "results.csv"
    fingerprint_path = out_dir / FINGERPRINT_FILE
    if force:  # every file a sweep writes, so that none of the old config's remain
        summaries = [p for name in ("returns", "action_diff", "ablation") for ext in ("csv", "svg")
                     for p in out_dir.glob(f"{name}_*.{ext}")]
        for p in [results_path, out_dir / "baselines.csv", out_dir / "failures.csv",
                  fingerprint_path, *(out_dir / "traces").glob("*.csv"), *summaries]:
            p.unlink(missing_ok=True)

    fingerprint = config_fingerprint(cfg)
    if fingerprint_path.exists() and fingerprint_path.read_text().strip() != fingerprint:
        raise ConfigError(
            f"{out_dir} holds a sweep run under a different config; rerun with "
            "--force to replace its results, or choose a new --out"
        )
    store = ResultsStore(results_path)
    _prune_failures(out_dir, store)  # also repairs a torn row before any append
    replace_file(fingerprint_path, fingerprint + "\n")
    cells = enumerate_cells(cfg)
    pending = [c for c in cells if not store.has(c)]
    baselines, datasets = scripted_inputs(cfg, out_dir, pending)
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

    jobs = [(cfg, c, (baselines[c.env], datasets[dataset_key(cfg, c)])) for c in pending]
    if workers > 1:
        done = 0
        try:
            with _pool(workers, lock) as pool:
                for outcome in pool.map(_cell_worker, jobs):
                    handle(outcome)
                    done += 1
        except BrokenProcessPool:
            if log:
                log(f"a worker process died; rerunning {len(jobs) - done} cells "
                    "one process each")
            for job in jobs[done:]:
                handle(_isolated_cell_worker(job, lock))
    else:
        for job in jobs:
            handle(_cell_worker(job))

    _prune_failures(out_dir, store)
    write_summaries(cfg, store, out_dir)
    return store


def _record_failure(out_dir: Path, cell: Cell, message: str):
    append_row(Path(out_dir) / "failures.csv", [*cell.key(), message], FAILURE_COLUMNS)


def _prune_failures(out_dir: Path, store: ResultsStore):
    """Drop the failure rows of cells that have since succeeded; delete the
    file once no row is left."""
    path = Path(out_dir) / "failures.csv"
    rows = read_table(path, FAILURE_COLUMNS, lambda row: (Cell.parse(row), row))
    open_rows = [row for cell, row in rows if not store.has(cell)]
    if not open_rows:
        path.unlink(missing_ok=True)
    elif len(open_rows) < len(rows):
        write_table(path, FAILURE_COLUMNS, open_rows)


def _write_summary(path: Path, columns, groups, row_key=None, **chart):
    """``path``.csv and ``path``.svg: the mean and std of scaled return of
    each group of runs. ``groups`` holds ``(series label, x, leading row
    fields, records)``; groups without records are left out, and so are
    both files if every group is empty."""
    rows, series = [], {}
    for label, x, lead, recs in groups:
        if not recs:
            continue
        arr = np.asarray([r.scaled_return for r in recs], dtype=np.float64)
        mean, std = float(arr.mean()), float(arr.std())
        rows.append([*lead, repr(mean), repr(std), len(recs)])
        s = series.setdefault(label, svg.Series(label, [], [], lo=[], hi=[]))
        s.xs.append(x)
        s.ys.append(mean)
        s.lo.append(mean - std)
        s.hi.append(mean + std)
    if not rows:
        return
    write_table(path.with_name(path.name + ".csv"),
                [*columns, "scaled_return_mean", "scaled_return_std", "n_runs"],
                sorted(rows, key=row_key) if row_key else rows)
    replace_file(path.with_name(path.name + ".svg"),
                 svg.line_chart(list(series.values()), y_label="mean scaled return", **chart))


def write_summaries(cfg: ExperimentConfig, store: ResultsStore, out_dir):
    """Summary CSVs and charts: scaled return vs dataset size per env,
    disagreement traces, and the two ablation tables."""
    out_dir = Path(out_dir)

    def runs(*group):  # in seed order, whatever the order of results.csv
        found = (store.get(Cell(*group, k)) for k in range(cfg.n_seeds))
        return [rec for rec in found if rec is not None]

    for env in cfg.envs:
        _write_summary(
            out_dir / f"returns_{env}", ["env", "n_expert_episodes", "method"],
            [(method, n_ep, [env, n_ep, method],
              runs(env, method, n_ep, *method_params(cfg, method)))
             for method in cfg.methods for n_ep in cfg.episode_counts],
            row_key=lambda row: (row[1], cfg.methods.index(row[2])),
            title=f"Scaled return vs expert episodes ({env})",
            x_label="expert episodes in dataset",
        )

    _write_trace_summaries(cfg, out_dir)

    if cfg.ablations:
        env, n_ep = cfg.envs[0], max(cfg.episode_counts)
        _write_summary(
            out_dir / "ablation_tau", ["env", "n_expert_episodes", "tau"],
            [("swarm", tau, [env, n_ep, repr(float(tau))],
              runs(env, tau_method(tau), n_ep, tau, cfg.n_members))
             for tau in cfg.tau_grid],
            title=f"Regularizer strength ablation ({env}, {n_ep} expert ep)",
            x_label="tau",
        )
        _write_summary(
            out_dir / "ablation_n", ["env", "n_expert_episodes", "n_members"],
            [("swarm", n, [env, n_ep, n], runs(env, "swarm", n_ep, cfg.tau, n))
             for n in cfg.n_grid],
            title=f"Ensemble size ablation ({env}, {n_ep} expert ep)",
            x_label="ensemble size N",
        )


def _write_trace_summaries(cfg: ExperimentConfig, out_dir: Path):
    n_ep = trace_size(cfg)
    for env in cfg.envs:
        per_method = {}
        for method in ("ensemble", "swarm"):
            if method not in cfg.methods:
                continue
            tau, n = method_params(cfg, method)
            paths = [_trace_path(out_dir, Cell(env, method, n_ep, tau, n, k))
                     for k in range(cfg.n_seeds)]
            traces = [np.array(read_table(p, TRACE_COLUMNS, lambda row: float(row[1])))
                      for p in paths if p.exists()]
            if traces:
                per_method[method] = _ragged_mean(traces)
        if not per_method:
            continue
        methods = sorted(per_method)
        write_table(out_dir / f"action_diff_{env}.csv", ["t", *(f"d_{m}_mean" for m in methods)], [
            [t, *(repr(float(per_method[m][t])) if t < len(per_method[m]) else ""
                  for m in methods)]
            for t in range(max(len(v) for v in per_method.values()))
        ])
        series = [
            svg.Series(m, list(range(len(v))), list(v))
            for m, v in sorted(per_method.items())
        ]
        replace_file(out_dir / f"action_diff_{env}.svg", svg.line_chart(
            series,
            title=f"Member disagreement over an episode ({env}, {n_ep} expert ep)",
            x_label="timestep",
            y_label="mean action difference d",
        ))


# --- config file -----------------------------------------------------------

def _items(parse):
    """Parser of a comma list whose items ``parse`` reads; empty items are
    dropped."""
    return lambda text: tuple(parse(t) for t in (s.strip() for s in text.split(",")) if t)


def _tau(text):
    return check_tau(float(text))


def _as_bool(text):
    t = text.strip().lower()
    if t in ("true", "1", "yes", "on"):
        return True
    if t in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected true/false, got {text!r}")


# Every key of the config file, in ``--write-config`` order: its value parser
# and the field it sets, on ExperimentConfig or (as ``train.``) on its
# TrainConfig. README "Sweep configuration" says what each key means.
CONFIG_KEYS = {
    "envs": (_items(str), "envs"),
    "methods": (_items(str), "methods"),
    "episode_counts": (_items(int), "episode_counts"),
    "n_seeds": (int, "n_seeds"),
    "eval_episodes": (int, "eval_episodes"),
    "tau": (_tau, "tau"),
    "n_members": (int, "n_members"),
    "tau_grid": (_items(_tau), "tau_grid"),
    "n_grid": (_items(int), "n_grid"),
    "ablations": (_as_bool, "ablations"),
    "master_seed": (int, "master_seed"),
    "epochs": (int, "train.epochs"),
    "batch_size": (int, "train.batch_size"),
    "learning_rate": (float, "train.learning_rate"),
    "patience": (int, "train.patience"),
    "min_improvement": (float, "train.min_rel_improvement"),
    "hidden_dims": (_items(int), "train.hidden_dims"),
    "normalize_swarm": (_as_bool, "train.normalize_swarm"),
}


def parse_config_text(text: str) -> ExperimentConfig:
    kwargs = {"": {}, "train": {}}  # ExperimentConfig and TrainConfig arguments
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
        parse, target = CONFIG_KEYS[key]
        owner, _, name = target.rpartition(".")
        if name in kwargs[owner]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            kwargs[owner][name] = parse(val)
            if owner == "train":  # TrainConfig's checks, each on its own line
                TrainConfig(**{name: kwargs[owner][name]})
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from None
    return ExperimentConfig(train=TrainConfig(**kwargs["train"]), **kwargs[""])


def parse_config_file(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(path.read_text())


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(map(str, value))
    return str(value).lower() if isinstance(value, bool) else str(value)


def default_config_text() -> str:
    """A config file with every key at its default, for --write-config."""
    cfg = ExperimentConfig()
    lines = ["# swarmbc sweep configuration (key = value; '#' starts a comment)"]
    lines += [f"{key} = {_format_value(attrgetter(target)(cfg))}"
              for key, (_, target) in CONFIG_KEYS.items()]
    return "\n".join(lines) + "\n"
