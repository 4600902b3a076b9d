"""Experiment configuration: JSON schema, validation, bundled demos."""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields
from importlib import resources
from pathlib import Path

from .corruption import CorruptionSpec
from .detection import EdgeDecisionParams
from .errors import ConfigError, DataError, NumericalError
from .ltisim import GenerativeModel, model_from_dict, model_to_dict
from .spectral import WelchParams

EXPERIMENT_KEYS = frozenset({
    "model", "model_path", "corruption", "trajectory_length", "seed", "burn_in",
    "welch", "decision",
})
MODEL_KEYS = frozenset({"labels", "edges", "self_dynamics", "noise_variance"})
EDGE_KEYS = frozenset({"a", "b", "ab", "ba"})
CORRUPTION_KEYS = frozenset(f.name for f in fields(CorruptionSpec))
HASH_CHUNK = 1 << 20  # bytes per read when a file is hashed


def is_count(value) -> bool:
    """True for an integer >= 0 that is not a bool: a count or a seed."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one pipeline run needs, with provenance-friendly echo."""

    model: GenerativeModel
    corruption: tuple[CorruptionSpec, ...]
    trajectory_length: int
    seed: int
    burn_in: int = 10_000
    welch: WelchParams = WelchParams()
    decision: EdgeDecisionParams = EdgeDecisionParams()

    def __post_init__(self):
        if not is_count(self.seed):
            raise ConfigError(f"seed must be an integer >= 0, got {self.seed!r}")
        if self.trajectory_length < 1:
            raise ConfigError("trajectory_length must be >= 1")
        if self.burn_in < 0:
            raise ConfigError("burn_in must be >= 0")
        if self.welch.segment_count(self.trajectory_length) < 8:
            raise ConfigError(
                f"trajectory_length {self.trajectory_length} too short for "
                f"Welch segments of {self.welch.segment_length}"
            )
        for spec in self.corruption:
            if not 0 <= spec.node < self.model.n_nodes:
                raise ConfigError(f"corruption references unknown node {spec.node}")

    def to_dict(self) -> dict:
        return {
            "model": model_to_dict(self.model),
            "corruption": [s.to_dict(self.model.labels) for s in self.corruption],
            "trajectory_length": self.trajectory_length,
            "seed": self.seed,
            "burn_in": self.burn_in,
            "welch": asdict(self.welch),
            "decision": asdict(self.decision),
        }


def refuse_unknown_keys(payload: dict, known: frozenset[str], where: str) -> None:
    """ConfigError unless `payload` is an object whose keys are all known."""
    if not isinstance(payload, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ConfigError(f"unknown {where} key(s): {', '.join(map(repr, unknown))}")


def welch_and_decision(payload: dict) -> tuple[WelchParams, EdgeDecisionParams]:
    """The `welch` and `decision` blocks of an experiment or sweep config."""
    try:
        return (
            WelchParams(**payload.get("welch", {})),
            EdgeDecisionParams(**payload.get("decision", {})),
        )
    except (DataError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid welch or decision block: {exc}") from exc


def _checked_model(payload: dict) -> GenerativeModel:
    """The model block, inline or from `model_path`, with its keys and each
    `edges[]` entry's keys checked."""
    refuse_unknown_keys(payload, MODEL_KEYS, "model")
    for i, edge in enumerate(payload.get("edges", [])):
        refuse_unknown_keys(edge, EDGE_KEYS, f"edges[{i}]")
    return model_from_dict(payload)


def config_from_dict(payload: dict, base_dir: Path | None = None) -> ExperimentConfig:
    try:
        refuse_unknown_keys(payload, EXPERIMENT_KEYS, "config")
        if "model" in payload and "model_path" in payload:
            raise ConfigError("config gives both 'model' and 'model_path'; give one")
        if "model" in payload:
            model = _checked_model(payload["model"])
        elif "model_path" in payload:
            path = Path(payload["model_path"])
            if base_dir is not None and not path.is_absolute():
                path = base_dir / path
            if not path.exists():
                raise ConfigError(f"model file not found: {path}")
            model = _checked_model(json.loads(path.read_text()))
        else:
            raise ConfigError("config needs 'model' or 'model_path'")
        entries = payload.get("corruption", [])
        for i, entry in enumerate(entries):
            refuse_unknown_keys(entry, CORRUPTION_KEYS, f"corruption[{i}]")
        corruption = tuple(CorruptionSpec.from_dict(e, model.labels) for e in entries)
        welch, decision = welch_and_decision(payload)
        return ExperimentConfig(
            model=model,
            corruption=corruption,
            trajectory_length=int(payload["trajectory_length"]),
            seed=payload.get("seed", 0),
            burn_in=int(payload.get("burn_in", 10_000)),
            welch=welch,
            decision=decision,
        )
    except ConfigError:
        raise
    except (DataError, NumericalError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed configuration: {exc}") from exc


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    return config_from_dict(payload, base_dir=path.parent)


def bundled_config_path(name: str) -> Path:
    """Path of a configuration shipped inside the package."""
    ref = resources.files("treespect").joinpath("configs", f"{name}.json")
    with resources.as_file(ref) as path:
        if not path.exists():
            raise ConfigError(f"no bundled config named {name!r}")
        return Path(path)


def read_chunks(path: str | Path):
    """Yield a file's bytes in order through one reused HASH_CHUNK buffer;
    each chunk is valid only until the next one is read."""
    buf = bytearray(HASH_CHUNK)
    view = memoryview(buf)
    with Path(path).open("rb", buffering=0) as fh:
        while size := fh.readinto(buf):
            yield view[:size]


def sha256_parts(parts) -> str:
    """Hex SHA-256 of the concatenation of the byte buffers in `parts`."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.hexdigest()


def sha256_file(path: str | Path) -> str:
    return sha256_parts(read_chunks(path))
