"""Experiment configuration: JSON schema, validation, bundled demos."""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace
from importlib import resources
from pathlib import Path

from .corruption import CorruptionSpec
from .detection import EdgeDecisionParams
from .errors import ConfigError, DataError, NumericalError
from .ltisim import GenerativeModel, load_model, model_from_dict, model_to_dict
from .spectral import WelchParams

EXPERIMENT_KEYS = frozenset({
    "model", "model_path", "corruption", "trajectory_length", "seed", "burn_in",
    "welch", "decision", "outputs",
})
OUTPUT_KEYS = frozenset({"panel_format", "spectra_csv"})


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
    panel_format: str = "bin"
    spectra_csv: bool = False

    def __post_init__(self):
        if self.trajectory_length < 1:
            raise ConfigError("trajectory_length must be >= 1")
        if self.burn_in < 0:
            raise ConfigError("burn_in must be >= 0")
        if self.panel_format not in ("bin", "csv"):
            raise ConfigError(f"unknown panel format {self.panel_format!r}")
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
            "outputs": {"panel_format": self.panel_format, "spectra_csv": self.spectra_csv},
        }

    def with_overrides(
        self, seed: int | None = None, panel_format: str | None = None
    ) -> "ExperimentConfig":
        cfg = self
        if seed is not None:
            cfg = replace(cfg, seed=seed)
        if panel_format is not None:
            cfg = replace(cfg, panel_format=panel_format)
        return cfg


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


def config_from_dict(payload: dict, base_dir: Path | None = None) -> ExperimentConfig:
    try:
        refuse_unknown_keys(payload, EXPERIMENT_KEYS, "config")
        if "model" in payload:
            model = model_from_dict(payload["model"])
        elif "model_path" in payload:
            path = Path(payload["model_path"])
            if base_dir is not None and not path.is_absolute():
                path = base_dir / path
            if not path.exists():
                raise ConfigError(f"model file not found: {path}")
            model = load_model(path)
        else:
            raise ConfigError("config needs 'model' or 'model_path'")
        corruption = tuple(
            CorruptionSpec.from_dict(entry, model.labels)
            for entry in payload.get("corruption", [])
        )
        welch, decision = welch_and_decision(payload)
        outputs = payload.get("outputs", {})
        refuse_unknown_keys(outputs, OUTPUT_KEYS, "outputs")
        return ExperimentConfig(
            model=model,
            corruption=corruption,
            trajectory_length=int(payload["trajectory_length"]),
            seed=int(payload.get("seed", 0)),
            burn_in=int(payload.get("burn_in", 10_000)),
            welch=welch,
            decision=decision,
            panel_format=str(outputs.get("panel_format", "bin")),
            spectra_csv=bool(outputs.get("spectra_csv", False)),
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


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
