"""Experiment configuration: JSON schema, validation, bundled demos."""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields
from importlib import resources
from pathlib import Path

from .corruption import CorruptionSpec
from .errors import ConfigError, DataError, NumericalError
from .ltisim import DEFAULT_BURN_IN, GenerativeModel, model_from_dict, model_to_dict
from .spectral import MIN_WELCH_SEGMENTS, FrequencyGrid

EXPERIMENT_KEYS = frozenset({
    "model", "model_path", "corruption", "trajectory_length", "seed", "burn_in",
    "welch",
})
# each model key and the JSON type of its value
MODEL_TYPES = {"labels": list, "edges": list, "self_dynamics": dict, "noise_variance": dict}
EDGE_KEYS = frozenset({"a", "b", "ab", "ba"})
CORRUPTION_KEYS = frozenset(f.name for f in fields(CorruptionSpec))
WELCH_KEYS = frozenset({"segment_length"})
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
    welch: FrequencyGrid
    burn_in: int = DEFAULT_BURN_IN

    def __post_init__(self):
        if not is_count(self.seed):
            raise ConfigError(f"seed must be an integer >= 0, got {self.seed!r}")
        if not is_count(self.trajectory_length) or self.trajectory_length < 1:
            raise ConfigError(
                f"trajectory_length must be an integer >= 1, got {self.trajectory_length!r}"
            )
        if not is_count(self.burn_in):
            raise ConfigError(f"burn_in must be an integer >= 0, got {self.burn_in!r}")
        check_welch_length(self.trajectory_length, self.welch)
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
        }


def refuse_unknown_keys(payload: dict, known: frozenset[str], where: str) -> None:
    """ConfigError unless `payload` is an object whose keys are all known."""
    if not isinstance(payload, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ConfigError(f"unknown {where} key(s): {', '.join(map(repr, unknown))}")


def welch_params(payload: dict) -> FrequencyGrid:
    """The Welch grid of an experiment or sweep config's `welch` block: its
    `segment_length`, 1024 if absent, which a config admits only as a power
    of two >= 16 (the grid and `estimate_cpsd` take any even length >= 16)."""
    block = payload.get("welch", {})
    refuse_unknown_keys(block, WELCH_KEYS, "welch")
    L = block.get("segment_length", 1024)
    if not is_count(L) or L < 16 or L & (L - 1):
        raise ConfigError(
            f"invalid welch block: segment_length must be a power of two >= 16, got {L!r}"
        )
    return FrequencyGrid(L)


def check_welch_length(trajectory_length: int, welch: FrequencyGrid) -> None:
    """ConfigError unless `trajectory_length` samples fill `MIN_WELCH_SEGMENTS` of `welch`."""
    if welch.segment_count(trajectory_length) < MIN_WELCH_SEGMENTS:
        raise ConfigError(
            f"trajectory_length {trajectory_length} too short for "
            f"Welch segments of {welch.segment_length}"
        )


def read_json(path: Path, what: str):
    """The JSON value in the file at `path`; a ConfigError naming `what`
    and the path if the file is missing, unreadable or not JSON."""
    if not path.exists():
        raise ConfigError(f"{what} not found: {path}")
    try:
        return json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc.strerror}") from exc


def _checked_model(payload: dict) -> GenerativeModel:
    """The model block, inline or from `model_path`, with its keys, the
    JSON type of each key's value and each `edges[]` entry's keys checked."""
    refuse_unknown_keys(payload, frozenset(MODEL_TYPES), "model")
    for key, kind in MODEL_TYPES.items():
        if key in payload and not isinstance(payload[key], kind):
            raise ConfigError(f"model {key!r} must be a JSON {'array' if kind is list else 'object'}")
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
            model = _checked_model(read_json(path, "model file"))
        else:
            raise ConfigError("config needs 'model' or 'model_path'")
        entries = payload.get("corruption", [])
        for i, entry in enumerate(entries):
            refuse_unknown_keys(entry, CORRUPTION_KEYS, f"corruption[{i}]")
        corruption = tuple(CorruptionSpec.from_dict(e, model.labels) for e in entries)
        welch = welch_params(payload)
        return ExperimentConfig(
            model=model,
            corruption=corruption,
            trajectory_length=payload["trajectory_length"],
            seed=payload.get("seed", 0),
            burn_in=payload.get("burn_in", DEFAULT_BURN_IN),
            welch=welch,
        )
    except ConfigError:
        raise
    except (DataError, NumericalError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed configuration: {exc}") from exc


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    return config_from_dict(read_json(path, "config file"), base_dir=path.parent)


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
