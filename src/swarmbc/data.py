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

from .errors import ConfigError, DimensionMismatchError

ACTION_KINDS = ("continuous", "discrete")

# Keeps (s - mean) / std well defined on near-constant observation dims.
STD_FLOOR = 1e-8


@dataclass
class DatasetMeta:
    env: str
    episodes: int
    seed: int
    obs_dim: int
    action_dim: int
    action_kind: str


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
        if self.states.shape[1] != self.meta.obs_dim:
            raise DimensionMismatchError(
                f"state dim {self.states.shape[1]} != meta obs_dim {self.meta.obs_dim}"
            )
        if self.actions.shape[1] != self.meta.action_dim:
            raise DimensionMismatchError(
                f"action dim {self.actions.shape[1]} != meta action_dim "
                f"{self.meta.action_dim}"
            )
        if self.meta.action_kind not in ACTION_KINDS:
            raise ConfigError(f"unknown action_kind {self.meta.action_kind!r}")
        for name in ("states", "actions"):
            if not np.isfinite(getattr(self, name)).all():
                raise ConfigError(f"{name} hold a non-finite number")
        self.obs_mean = self.states.mean(axis=0)
        self.obs_std = np.maximum(self.states.std(axis=0), STD_FLOOR)

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
        lines = [line for line in f if line.strip()]
    if not lines:
        raise ConfigError("empty dataset file")
    header = json.loads(lines[0])
    keys = fields(DatasetMeta)  # each f.type is its annotation as text
    missing = {f.name for f in keys} - header.keys()
    if missing:
        raise ConfigError(f"header missing keys {sorted(missing)}")
    meta = DatasetMeta(**{f.name: int(header[f.name]) if f.type == "int" else header[f.name]
                          for f in keys})
    states, actions = [], []
    for line in lines[1:]:
        rec = json.loads(line)
        states.append(rec["s"])
        actions.append(rec["a"])
    if not states:
        raise ConfigError("no samples after header")
    return Dataset(
        states=np.array(states, dtype=np.float64),
        actions=np.array(actions, dtype=np.float64),
        meta=meta,
    )
