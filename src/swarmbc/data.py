"""Expert demonstration datasets and their JSON-lines file format.

A dataset file starts with one header record::

    {"env": "point_reach", "episodes": 4, "seed": 7,
     "obs_dim": 4, "action_dim": 2, "action_kind": "continuous"}

followed by one ``{"s": [...], "a": [...]}`` record per sample. Floats are
written with Python's shortest round-trip representation, so a load/save
cycle is lossless at 64-bit precision.

``replace_file`` is the package's one writer of whole files; it lives here
because every module that writes one imports this one.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, DimensionMismatchError, check_keys, check_range

ACTION_KINDS = ("continuous", "discrete")

# Keeps (s - mean) / std well defined on near-constant observation dims.
STD_FLOOR = 1e-8


@dataclass
class DatasetMeta:
    """A dataset file's header, checked on construction."""

    env: str
    episodes: int
    seed: int
    obs_dim: int
    action_dim: int
    action_kind: str

    def __post_init__(self):
        for name, low in (("episodes", 1), ("seed", 0), ("obs_dim", 1), ("action_dim", 1)):
            value = getattr(self, name)
            if type(value) is not int:  # not a bool or a float either
                raise ConfigError(f"{name} must be an int, got {value!r}")
            check_range(name, value, low)
        if self.action_kind not in ACTION_KINDS:
            raise ConfigError(f"unknown action_kind {self.action_kind!r}")


@dataclass
class Dataset:
    """Ordered (state, expert-action) samples plus normalization statistics.

    Discrete expert actions are stored one-hot, so ``actions`` is always a
    float matrix of shape (n_samples, action_dim). The normalization stats
    are computed from these samples only, at construction time.
    """

    states: np.ndarray
    actions: np.ndarray
    meta: DatasetMeta
    obs_mean: np.ndarray = field(init=False)
    obs_std: np.ndarray = field(init=False)

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=np.float64)
        self.actions = np.asarray(self.actions, dtype=np.float64)
        if self.states.ndim != 2 or self.actions.ndim != 2:
            raise DimensionMismatchError("states and actions must be 2-D arrays")
        if len(self.states) != len(self.actions):
            raise DimensionMismatchError(
                f"{len(self.states)} states vs {len(self.actions)} actions"
            )
        for name, array, dim in (("state", self.states, "obs_dim"),
                                 ("action", self.actions, "action_dim")):
            if array.shape[1] != getattr(self.meta, dim):
                raise DimensionMismatchError(
                    f"{name} dim {array.shape[1]} != meta {dim} {getattr(self.meta, dim)}")
        for name in ("states", "actions"):
            if not np.isfinite(getattr(self, name)).all():
                raise ConfigError(f"{name} hold a non-finite number")
        if not len(self.states):  # its statistics would be NaN
            raise ConfigError("a dataset needs at least one sample")
        with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned of
            self.obs_mean = self.states.mean(axis=0)
            self.obs_std = np.maximum(self.states.std(axis=0), STD_FLOOR)
        if not np.isfinite(self.obs_std).all():  # a mean that overflows makes a NaN std
            raise ConfigError("states are too large: their std overflows a float")

    def __len__(self) -> int:
        return len(self.states)


def replace_file(path, text: str):
    """Write ``text`` to ``path`` through a temporary file and ``os.replace``,
    so a crash leaves the old file or the new one, never a mix. A failed
    write removes its temporary file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8", newline="")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_dataset(dataset: Dataset, path) -> None:
    lines = [json.dumps(asdict(dataset.meta))]
    lines += [json.dumps({"s": s.tolist(), "a": a.tolist()})
              for s, a in zip(dataset.states, dataset.actions)]
    replace_file(path, "\n".join(lines) + "\n")


def load_dataset(path) -> Dataset:
    with open(path) as f:
        lines = [(n, line) for n, line in enumerate(f, start=1) if line.strip()]
    if not lines:
        raise ConfigError("empty dataset file")
    keys = [f.name for f in fields(DatasetMeta)]
    header = check_keys("header", json.loads(lines[0][1]), keys)
    meta = DatasetMeta(**{key: header[key] for key in keys})
    recs = [check_keys(f"line {n}", json.loads(line), ("s", "a")) for n, line in lines[1:]]
    if not recs:
        raise ConfigError("no samples after header")
    return Dataset(states=np.array([rec["s"] for rec in recs], dtype=np.float64),
                   actions=np.array([rec["a"] for rec in recs], dtype=np.float64), meta=meta)
