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
import os
import warnings
from dataclasses import astuple, dataclass, field, fields
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import svg
from .data import replace_file
from .ensemble import METHODS, Ensemble, TrainConfig, check_tau, train
from .envs import ENV_IDS, make_env
from .errors import ConfigError
from .metrics import Cell, RunRecord, rollouts, scaled_return, scripted_rollouts

RESULTS_SCHEMA = "swarmbc.results.v1"
BASELINES_SCHEMA = "swarmbc.baselines.v1"
CONFIG_FILE = "config.cfg"
LOCK_FILE = "sweep.lock"
RESULTS_COLUMNS = tuple(f.name for f in fields(RunRecord))
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
            values = getattr(self, name)
            if not values:
                raise ConfigError(f"{name} must be non-empty")
            if len(set(values)) < len(values):
                raise ConfigError(f"{name} repeats a value: {', '.join(map(str, values))}")
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
        self.tau, self.tau_grid = check_tau(self.tau), tuple(map(check_tau, self.tau_grid))
        if any(n < 2 for n in self.n_grid):
            raise ConfigError("n_grid values must be >= 2")
        if any(e < 1 for e in self.episode_counts):
            raise ConfigError("episode_counts must be >= 1")
        for _, (_, method, _, tau, n_members) in _cell_groups(self):  # ablations included
            check_method_params(method, tau, n_members)


def fan_out_seed(master_seed: int, *parts) -> int:
    """Stable 63-bit seed from the master seed and arbitrary cell coordinates."""
    text = "|".join([str(int(master_seed))] + [str(p) for p in parts])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def cell_seeds(cfg: ExperimentConfig, cell: Cell):
    """(dataset, train, eval) seeds. Dataset and eval seeds ignore the
    method and hyperparameters so method comparisons are paired."""
    ms = cfg.master_seed
    data = fan_out_seed(ms, "data", cell.env, cell.n_expert_episodes, cell.seed)
    tr = fan_out_seed(
        ms, "train", cell.env, cell.method, repr(float(cell.tau)),
        cell.n_members, cell.n_expert_episodes, cell.seed,
    )
    ev = fan_out_seed(ms, "eval", cell.env, cell.seed)
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
    """``(summary, (env, method, n_episodes, tau, N))`` of each group of seed
    cells, in order. ``summary`` names the summary the group is a point of:
    ``returns_<env>`` for the method x dataset size grid, ``ablation_tau`` and
    ``ablation_n`` for the ablations, on the first env at the largest size."""
    for env in cfg.envs:
        for method in cfg.methods:
            for n_ep in cfg.episode_counts:
                yield f"returns_{env}", (env, method, n_ep, *method_params(cfg, method))
    if cfg.ablations:
        env, n_ep = cfg.envs[0], max(cfg.episode_counts)
        for tau in cfg.tau_grid:
            yield "ablation_tau", (env, tau_method(tau), n_ep, tau, cfg.n_members)
        for n in cfg.n_grid:
            yield "ablation_n", (env, "swarm", n_ep, cfg.tau, n)


def enumerate_cells(cfg: ExperimentConfig) -> list:
    """All cells of the sweep in their canonical order, deduplicated."""
    cells = (Cell(*group, k) for _, group in _cell_groups(cfg) for k in range(cfg.n_seeds))
    return list({c.key(): c for c in cells}.values())


def _wants_trace(cfg: ExperimentConfig, cell: Cell) -> bool:
    """Whether the evaluation episodes of ``cell`` get a per-timestep d trace:
    the ensemble and swarm cells of the returns grid on the smallest dataset
    size, where member disagreement is most visible."""
    return (cell.method in cfg.methods and cell.method != "bc"
            and cell.n_expert_episodes == min(cfg.episode_counts)
            and (cell.tau, cell.n_members) == method_params(cfg, cell.method))


def evaluate(env, policy, eval_seed: int, n_episodes: int, baseline):
    """The evaluation loop of sweep cells and ``swarmbc eval``: ``n_episodes``
    seeded episodes in lockstep, recording member outputs when ``policy`` is
    an Ensemble of N >= 2. Returns ``(trajectories, mean scaled return, mean
    action difference or None)``."""
    seeds = np.random.SeedSequence(eval_seed).spawn(n_episodes)
    members = isinstance(policy, Ensemble) and policy.n_members >= 2
    trajs = rollouts(env, policy, seeds, record_members=members)
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
        make_env(cell.env), ens, eval_seed, cfg.eval_episodes, baseline)
    record = RunRecord(*astuple(cell), mean_return, mean_diff)
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


def _decode(path: Path, data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None


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
    for row in csv.reader(io.StringIO(_decode(path, data[len(head):end]))):
        try:
            out.append(parse(row))
        except (IndexError, ValueError) as exc:
            raise ConfigError(f"{path}: malformed row {row}: {exc}") from None
    return out


def append_row(path: Path, row, columns, schema=None):
    """Append one row, writing the preamble first if the file is new."""
    with open(path, "a", encoding="utf-8", newline="") as f:
        f.write(_csv_text([columns, row], schema) if f.tell() == 0 else _csv_text([row]))


def write_table(path: Path, columns, rows, schema=None):
    replace_file(path, _csv_text([columns, *rows], schema))


def read_results(path: Path) -> list[RunRecord]:
    """Every complete row of a sweep's results CSV."""
    return read_table(path, RESULTS_COLUMNS, RunRecord.parse, RESULTS_SCHEMA)


class ResultsStore:
    """Append-only CSV of run records, one per (env, method,
    n_expert_episodes, tau, n_members, seed), indexed by cell in file order.
    A repeated identical row is dropped with a warning and the file
    rewritten; two different rows for one cell are a ``ConfigError``."""

    def __init__(self, path):
        self.path = Path(path)
        self._index = {}  # Cell.key() -> record, in file order
        records = read_results(self.path)
        for rec in records:
            kept = self._index.setdefault(rec.key(), rec)
            if kept is not rec and kept.row() != rec.row():
                raise ConfigError(f"{self.path}: two different rows for one cell: "
                                  f"{kept.row()} and {rec.row()}")
        if len(self._index) < len(records):
            warnings.warn(f"{self.path}: dropping {len(records) - len(self._index)} "
                          "repeated row(s)", RuntimeWarning)
            write_table(self.path, RESULTS_COLUMNS, (rec.row() for rec in self._index.values()),
                        RESULTS_SCHEMA)

    @property
    def records(self) -> list[RunRecord]:
        return list(self._index.values())

    def has(self, cell: Cell) -> bool:
        return cell.key() in self._index

    def get(self, cell: Cell):
        """The cell's record, or None."""
        return self._index.get(cell.key())

    def append(self, rec: RunRecord):
        if rec.key() in self._index:
            return  # completed cells are a no-op
        # written first: a failed write leaves the cell open
        append_row(self.path, rec.row(), RESULTS_COLUMNS, RESULTS_SCHEMA)
        self._index[rec.key()] = rec


def dataset_key(cfg: ExperimentConfig, cell: Cell):
    """(env, n_episodes, data seed): the cells of one key train on one dataset."""
    return cell.env, cell.n_expert_episodes, cell_seeds(cfg, cell)[0]


def load_or_compute_baselines(cfg: ExperimentConfig, out_dir: Path) -> dict:
    """Per-env (r_random, r_expert): ``scripted_inputs`` without cells."""
    return scripted_inputs(cfg, out_dir, ())[0]


def scripted_inputs(cfg: ExperimentConfig, out_dir: Path, cells):
    """``(baselines, datasets)``: the per-env (r_random, r_expert) and the
    ``Dataset`` of each ``dataset_key`` of ``cells``, from one
    ``scripted_rollouts`` call per env. The baselines are written to
    baselines.csv for the reader; no run reads them back."""
    keys = dict.fromkeys(dataset_key(cfg, c) for c in cells)
    baselines, datasets, rows = {}, {}, []
    for env_id in cfg.envs:
        seed = fan_out_seed(cfg.master_seed, "baseline", env_id)
        wanted = [key for key in keys if key[0] == env_id]
        baselines[env_id], built = scripted_rollouts(
            make_env(env_id), (cfg.eval_episodes, seed), [key[1:] for key in wanted])
        datasets.update(zip(wanted, built))
        rows.append([env_id, cfg.eval_episodes, seed, *map(repr, baselines[env_id])])
    write_table(Path(out_dir) / "baselines.csv", BASELINES_COLUMNS, sorted(rows),
                BASELINES_SCHEMA)
    return baselines, datasets


def _trace_path(out_dir: Path, cell: Cell) -> Path:
    name = f"{cell.env}__{cell.method}__ep{cell.n_expert_episodes}__seed{cell.seed}.csv"
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


def _pool(workers: int, lock: int):
    """Workers ignore SIGINT, which Ctrl-C sends to the whole process group:
    the parent alone stops the sweep, once the running cells end. A forked
    worker closes its copy of ``lock``, the sweep lock's descriptor, so that
    the lock ends with the parent, and ends itself, mid-cell too, once the
    parent is gone. The pool machinery is imported only where a pool runs,
    so that a serial process never loads it."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(workers, initializer=_init_worker,
                               initargs=(lock, os.fstat(lock)))


def _init_worker(lock: int, lock_stat):
    import signal
    import threading

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
    import multiprocessing

    multiprocessing.parent_process().join()
    os._exit(1)


def _isolated_cell_worker(args, lock: int):
    """Run one cell in a fresh one-process pool, so that a worker that dies
    is pinned on the cell it was running. The pool starts its process the
    way the sweep's pool does, so the rerun meets what killed the worker."""
    from concurrent.futures.process import BrokenProcessPool

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
        os.pwrite(fd, f"{os.getpid()} {os.uname().nodename}\n".encode(), 0)
        yield fd
    finally:
        path.unlink(missing_ok=True)  # before the unlock, so that it is this sweep's file
        os.close(fd)


def run_sweep(cfg: ExperimentConfig, out_dir, workers: int = 1,
              force: bool = False, log=None) -> ResultsStore:
    """Run every cell of the sweep into ``out_dir`` (resumable), then write
    summary tables and SVG charts. Returns the populated store.

    One sweep at a time writes ``out_dir``: it holds ``sweep_lock`` until it
    returns. ``out_dir`` keeps the config as a config file beside
    ``results.csv``; resuming under a different config, or results without
    that file, is a ``ConfigError``.
    If a worker process dies, the cells it left unreported rerun one process
    each, and the cell that kills its process is recorded as failed.
    ``failures.csv`` lists the cells that failed in this run, one row each.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with sweep_lock(out_dir) as lock:
        return _locked_sweep(cfg, out_dir, workers, force, log, lock)


def _locked_sweep(cfg: ExperimentConfig, out_dir: Path, workers: int, force: bool, log,
                  lock: int):
    results_path, config_path = out_dir / "results.csv", out_dir / CONFIG_FILE
    if force:  # every file a run may leave as it was, so that none of the old config's remain
        summaries = [p for name in ("returns", "action_diff", "ablation") for ext in ("csv", "svg")
                     for p in out_dir.glob(f"{name}_*.{ext}")]
        for p in [results_path, config_path, out_dir / "config.sha256",  # an older swarmbc's
                  *(out_dir / "traces").glob("*.csv"), *summaries]:
            p.unlink(missing_ok=True)

    text = kept = config_text(parse_config_text(config_text(cfg)))  # as read back: 1 is 1.0
    if config_path.exists():
        try:
            kept = config_text(parse_config_file(config_path))
        except ConfigError as exc:
            raise ConfigError(f"{exc}; it is the config of the sweep in {out_dir}: rerun with "
                              "--force to replace its results, or choose a new --out") from None
    # config_text writes one line per key in one order, so the texts differ line by line
    changed = [f"{old.replace(' = ', ': ', 1)} in {config_path}, {new.split(' = ', 1)[1]} now"
               for old, new in zip(kept.splitlines(), text.splitlines()) if old != new]
    if changed:
        changed[3:] = [f"and {len(changed) - 3} more"] if len(changed) > 3 else []
        raise ConfigError(f"{out_dir} holds a sweep run under a different config "
                          f"({'; '.join(changed)}); rerun with --force to replace its "
                          "results, or choose a new --out")
    store = ResultsStore(results_path)
    if store.records and not config_path.exists():
        raise ConfigError(f"{out_dir} holds results but no {CONFIG_FILE} naming their config; "
                          "rerun with --force to replace them, or choose a new --out")
    (out_dir / "failures.csv").unlink(missing_ok=True)  # every cell without a result reruns
    replace_file(config_path, text)
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
                    f"  {cell.env} {cell.method} ep={cell.n_expert_episodes} "
                    f"tau={cell.tau} N={cell.n_members} seed={cell.seed}: "
                    f"R={payload.scaled_return:.3f}{d}"
                )
        else:
            _record_failure(out_dir, cell, payload)
            if log:
                log(f"  FAILED {cell}: {payload}")

    jobs = [(cfg, c, (baselines[c.env], datasets[dataset_key(cfg, c)])) for c in pending]
    if workers > 1 and jobs:  # a pool even for one job, so that a dying cell ends only itself
        from concurrent.futures.process import BrokenProcessPool

        done = 0
        try:
            with _pool(min(workers, len(jobs)), lock) as pool:
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

    write_summaries(cfg, store, out_dir)
    return store


def _record_failure(out_dir: Path, cell: Cell, message: str):
    append_row(Path(out_dir) / "failures.csv", [*cell.key(), message], FAILURE_COLUMNS)


def _write_summary(path: Path, columns, groups, **chart):
    """``path``.csv and ``path``.svg: the mean and std of scaled return of
    each group of runs, rows and points in order of x (groups of equal x in
    their given order). ``groups`` holds ``(series label, x, leading row
    fields, records)``; groups without records are left out, and so are
    both files if every group is empty."""
    groups = [group for group in groups if group[3]]
    if not groups:
        return
    series = {label: svg.Series(label, [], [], lo=[], hi=[]) for label, *_ in groups}
    rows = []
    for label, x, lead, recs in sorted(groups, key=itemgetter(1)):
        arr = np.asarray([r.scaled_return for r in recs], dtype=np.float64)
        mean, std = float(arr.mean()), float(arr.std())
        rows.append([*lead, repr(mean), repr(std), len(recs)])
        s = series[label]
        s.xs.append(x)
        s.ys.append(mean)
        s.lo.append(mean - std)
        s.hi.append(mean + std)
    write_table(path.with_name(path.name + ".csv"),
                [*columns, "scaled_return_mean", "scaled_return_std", "n_runs"], rows)
    replace_file(path.with_name(path.name + ".svg"),
                 svg.line_chart(list(series.values()), y_label="mean scaled return", **chart))


def write_summaries(cfg: ExperimentConfig, store: ResultsStore, out_dir):
    """Summary CSVs and charts: one per summary of ``_cell_groups`` (scaled
    return vs dataset size per env, the two ablations), and the disagreement
    traces."""
    out_dir = Path(out_dir)

    def runs(group):  # in seed order, whatever the order of results.csv
        found = (store.get(Cell(*group, k)) for k in range(cfg.n_seeds))
        return [rec for rec in found if rec is not None]

    summaries = {}
    for summary, group in _cell_groups(cfg):
        summaries.setdefault(summary, []).append(group)
    for summary, groups in summaries.items():
        env, _, n_ep, _, _ = groups[0]
        if summary == "ablation_tau":
            column, x_label = "tau", "tau"
            title = f"Regularizer strength ablation ({env}, {n_ep} expert ep)"
            points = [("swarm", tau, repr(float(tau))) for _, _, _, tau, _ in groups]
        elif summary == "ablation_n":
            column, x_label = "n_members", "ensemble size N"
            title = f"Ensemble size ablation ({env}, {n_ep} expert ep)"
            points = [("swarm", n, n) for *_, n in groups]
        else:
            column, x_label = "method", "expert episodes in dataset"
            title = f"Scaled return vs expert episodes ({env})"
            points = [(method, n, method) for _, method, n, _, _ in groups]
        _write_summary(out_dir / summary, ["env", "n_expert_episodes", column],
                       [(label, x, [group[0], group[2], value], runs(group))
                        for group, (label, x, value) in zip(groups, points)],
                       title=title, x_label=x_label)
    _write_trace_summaries(cfg, out_dir)


def _write_trace_summaries(cfg: ExperimentConfig, out_dir: Path):
    """``action_diff_<env>``: each method's d trace, the ragged mean over the
    seeds of the cells ``_wants_trace`` selects."""
    traces = {}  # (env, n_episodes) -> method -> traces, in seed order
    for cell in enumerate_cells(cfg):
        path = _trace_path(out_dir, cell)
        if _wants_trace(cfg, cell) and path.exists():
            trace = np.array(read_table(path, TRACE_COLUMNS, lambda row: float(row[1])))
            by_method = traces.setdefault((cell.env, cell.n_expert_episodes), {})
            by_method.setdefault(cell.method, []).append(trace)
    for (env, n_ep), by_method in traces.items():
        per_method = {m: _ragged_mean(by_method[m]) for m in sorted(by_method)}
        columns = ["t", *(f"d_{m}_mean" for m in per_method)]
        write_table(out_dir / f"action_diff_{env}.csv", columns, [
            [t, *(repr(float(v[t])) if t < len(v) else "" for v in per_method.values())]
            for t in range(max(map(len, per_method.values())))
        ])
        series = [svg.Series(m, list(range(len(v))), list(v)) for m, v in per_method.items()]
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


# Every key of the config file, in ``--write-config`` order, and its value
# parser. A key is the name of the field it sets: a field of TrainConfig for
# the ``TRAIN_KEYS``, of ExperimentConfig for the others. README "Sweep
# configuration" says what each key means.
CONFIG_KEYS = {
    "envs": _items(str),
    "methods": _items(str),
    "episode_counts": _items(int),
    "n_seeds": int,
    "eval_episodes": int,
    "tau": _tau,
    "n_members": int,
    "tau_grid": _items(_tau),
    "n_grid": _items(int),
    "ablations": _as_bool,
    "master_seed": int,
    "epochs": int,
    "batch_size": int,
    "learning_rate": float,
    "patience": int,
    "min_improvement": float,
    "hidden_dims": _items(int),
    "normalize_swarm": _as_bool,
}
TRAIN_KEYS = tuple(f.name for f in fields(TrainConfig))


def parse_setting(key: str, text: str, where: str):
    """The value of ``key`` = ``text``, parsed by ``CONFIG_KEYS``; a training
    value is checked by TrainConfig. A bad value is a ``ConfigError`` naming
    ``where`` it came from (``line 3``, ``--epochs``)."""
    try:
        value = CONFIG_KEYS[key](text)
        if key in TRAIN_KEYS:
            TrainConfig(**{key: value})
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"{where}: bad value for {key!r}: {exc}") from None
    return value


def parse_config_text(text: str) -> ExperimentConfig:
    settings = {}
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
        if key in settings:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        settings[key] = parse_setting(key, val, f"line {lineno}")
    training = {key: settings.pop(key) for key in TRAIN_KEYS if key in settings}
    return ExperimentConfig(train=TrainConfig(**training), **settings)


def parse_config_file(path) -> ExperimentConfig:
    """The config in the file at ``path``; every ``ConfigError`` names the file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    text = _decode(path, path.read_bytes())
    try:
        return parse_config_text(text)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _format_value(value) -> str:
    if isinstance(value, (tuple, list)):
        return ", ".join(map(str, value))
    return str(value).lower() if isinstance(value, bool) else str(value)


def config_text(cfg: ExperimentConfig) -> str:
    """The config file of ``cfg``: every key, in ``CONFIG_KEYS`` order, floats
    written exactly. ``--write-config`` writes it for the defaults, and a
    sweep keeps it as its ``CONFIG_FILE``."""
    lines = ["# swarmbc sweep configuration (key = value; '#' starts a comment)"]
    lines += [f"{key} = {_format_value(getattr(cfg.train if key in TRAIN_KEYS else cfg, key))}"
              for key in CONFIG_KEYS]
    return "\n".join(lines) + "\n"
