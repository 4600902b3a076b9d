import csv
import hashlib
import json
import os
import shutil
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from treespect import cli, spectral, streams
from treespect.cli import main, run_stages
from treespect.config import bundled_config_path, config_from_dict, load_config, welch_params
from treespect.ltisim import model_to_dict
from treespect.panel import TimeSeriesPanel, panel_header, save_panel
from treespect.spectral import estimate_cpsd, save_spectra_binary
from treespect.streams import apply_corruption, simulate

from conftest import chain7, rtsp_file, two_sided, whole_channel_corruption

# small, fast experiment: clean 7-chain, short record
TINY = {
    "model": model_to_dict(chain7()[0]),
    "corruption": [],
    "trajectory_length": 120_000,
    "seed": 5,
    "burn_in": 2_000,
    "welch": {"segment_length": 128},
}
CORRUPTION = {"node": "4", "kind": "random_delay", "p": 0.7, "t1": -2, "t2": 0}

CHAIN_EDGES = sorted([[str(i), str(i + 1)] for i in range(1, 7)])


def write_tiny(tmp_path, **overrides) -> Path:
    payload = {**TINY, **overrides}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


def manifest_without_timestamp(path: Path) -> dict:
    payload = json.loads(path.read_text())
    payload.pop("timestamp")
    return payload


def test_pipeline_tiny_clean_recovers_chain(tmp_path):
    cfg = write_tiny(tmp_path)
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
    detection = json.loads((out / "detection.json").read_text())
    assert detection["corrupt"] == []
    assert detection["leaves"] == ["1", "7"]
    topology = json.loads((out / "topology.json").read_text())
    assert topology["is_tree"] is True
    assert sorted([e["a"], e["b"]] for e in topology["edges"]) == CHAIN_EDGES
    for stage in ("simulate", "corrupt", "spectra", "detect", "learn"):
        assert (out / f"manifest_{stage}.json").exists()


def test_pipeline_tiny_corrupted_recovers_chain(tmp_path):
    cfg = write_tiny(tmp_path, corruption=[CORRUPTION])
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
    detection = json.loads((out / "detection.json").read_text())
    assert detection["corrupt"] == ["4"]
    assert detection["leaves"] == ["1", "7"]
    topology = json.loads((out / "topology.json").read_text())
    assert topology["diagnostics"] == []
    assert sorted([e["a"], e["b"]] for e in topology["edges"]) == CHAIN_EDGES
    adopted = [t for t in topology["placements"] if t["adopted"]]
    assert adopted and all(t["margin"] == t["w"] / topology["thresholds"]["phase"] < 1 for t in adopted)


@pytest.mark.parametrize("corruption", [[], [CORRUPTION]], ids=["clean", "corrupted"])
def test_pipeline_equals_stage_composition(tmp_path, corruption):
    cfg = write_tiny(tmp_path, corruption=corruption)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["pipeline", "--config", str(cfg), "--out", str(a)]) == 0
    for stage in ("simulate", "corrupt", "spectra", "detect", "learn"):
        assert main([stage, "--config", str(cfg), "--out", str(b)]) == 0
    for name in (
        "panel_clean.bin", "panel_corrupt.bin", "spectra_corrupt.rtsm",
        "detection.json", "detection.dot", "topology.json", "topology.dot",
    ):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    for stage in ("simulate", "corrupt", "spectra", "detect", "learn"):
        ma = manifest_without_timestamp(a / f"manifest_{stage}.json")
        mb = manifest_without_timestamp(b / f"manifest_{stage}.json")
        assert ma == mb


def test_rerun_is_byte_identical(tmp_path):
    cfg = write_tiny(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["pipeline", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["pipeline", "--config", str(cfg), "--out", str(b)]) == 0
    assert (a / "detection.json").read_bytes() == (b / "detection.json").read_bytes()
    assert (a / "panel_clean.bin").read_bytes() == (b / "panel_clean.bin").read_bytes()


def test_seed_override_changes_data(tmp_path):
    cfg = write_tiny(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(b), "--seed", "99"]) == 0
    assert (a / "panel_clean.bin").read_bytes() != (b / "panel_clean.bin").read_bytes()


STAGE_FILES = {
    "simulate": ([], ["panel_clean.bin"]),
    "corrupt": (["panel_clean.bin"], ["panel_corrupt.bin"]),
    "spectra": (["panel_corrupt.bin"], ["spectra_corrupt.rtsm"]),
    "detect": (["spectra_corrupt.rtsm"], ["detection.dot", "detection.json"]),
    "learn": (["detection.json", "spectra_corrupt.rtsm"], ["topology.dot", "topology.json"]),
}


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def assert_manifests_hash_files(out: Path, stages=tuple(STAGE_FILES)):
    for stage in stages:
        inputs, outputs = STAGE_FILES[stage]
        manifest = json.loads((out / f"manifest_{stage}.json").read_text())
        assert sorted(manifest["inputs"]) == inputs, stage
        assert sorted(manifest["outputs"]) == outputs, stage
        for name, digest in {**manifest["inputs"], **manifest["outputs"]}.items():
            assert digest == file_sha256(out / name), (stage, name)


def test_manifest_hashes_are_file_hashes(tmp_path):
    cfg = write_tiny(tmp_path, corruption=[CORRUPTION])
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
    assert_manifests_hash_files(out)


def test_corrupt_hashes_the_panel_it_reads(tmp_path):
    # a digest carried forward from manifest_simulate.json would miss the swap
    cfg = write_tiny(tmp_path, trajectory_length=20_000, burn_in=100)
    out, other = tmp_path / "run", tmp_path / "other"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(other), "--seed", "6"]) == 0
    shutil.copyfile(other / "panel_clean.bin", out / "panel_clean.bin")
    assert main(["corrupt", "--config", str(cfg), "--out", str(out)]) == 0
    simulated = json.loads((out / "manifest_simulate.json").read_text())
    corrupt = json.loads((out / "manifest_corrupt.json").read_text())
    swapped = file_sha256(other / "panel_clean.bin")
    assert corrupt["inputs"] == {"panel_clean.bin": swapped}
    assert simulated["outputs"]["panel_clean.bin"] != swapped


def test_spectra_hashes_the_panel_it_reads(tmp_path):
    cfg = write_tiny(tmp_path, trajectory_length=20_000, burn_in=100, corruption=[CORRUPTION])
    out, other = tmp_path / "run", tmp_path / "other"
    for stage in ("simulate", "corrupt"):
        assert main([stage, "--config", str(cfg), "--out", str(out)]) == 0
        assert main([stage, "--config", str(cfg), "--out", str(other), "--seed", "6"]) == 0
    shutil.copyfile(other / "panel_corrupt.bin", out / "panel_corrupt.bin")
    assert main(["spectra", "--config", str(cfg), "--out", str(out)]) == 0
    corrupted = json.loads((out / "manifest_corrupt.json").read_text())
    spectra = json.loads((out / "manifest_spectra.json").read_text())
    swapped = file_sha256(other / "panel_corrupt.bin")
    assert spectra["inputs"] == {"panel_corrupt.bin": swapped}
    assert corrupted["outputs"]["panel_corrupt.bin"] != swapped


def test_pipeline_hashes_each_panel_once(tmp_path, monkeypatch):
    # the stages stream panels through the files and never load a whole
    # one; the corrupt and spectra stages take their input's digest from
    # the stage that wrote it, so each panel's SHA-256 is computed once
    def refuse(path, *args, **kwargs):
        raise AssertionError(f"loaded {path}")

    digests = []
    real_sha256 = hashlib.sha256

    class Recorded:
        def __init__(self, data=b""):
            self._hash = real_sha256(data)

        def update(self, data):
            self._hash.update(data)

        def hexdigest(self):
            digests.append(self._hash.hexdigest())
            return digests[-1]

    monkeypatch.setattr("treespect.cli.load_panel", refuse)
    monkeypatch.setattr(hashlib, "sha256", Recorded)
    cfg = write_tiny(tmp_path, corruption=[CORRUPTION])
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
    monkeypatch.undo()
    for name in ("panel_clean.bin", "panel_corrupt.bin"):
        assert digests.count(file_sha256(out / name)) == 1, name
    assert_manifests_hash_files(out)


def test_a_failed_panel_hash_fails_the_run(tmp_path, monkeypatch):
    # like read_chunks, this raises once iterated, which is on the thread
    # that hashes the panel
    def unreadable(path):
        raise OSError(f"cannot read {path}")
        yield

    monkeypatch.setattr(cli, "read_chunks", unreadable)
    cfg = write_tiny(tmp_path, trajectory_length=20_000, burn_in=100)
    with pytest.raises(OSError, match="cannot read .*panel_clean.bin"):
        main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "run")])


# one of each kind whose state crosses a block edge: a delay window that
# looks both back and ahead, drop runs, and an FIR filter with noise
STREAMED = [
    {"node": "2", "kind": "random_delay", "p": 0.6, "t1": -3, "t2": 4},
    {"node": "4", "kind": "packet_drop", "p": 0.7},
    {"node": "6", "kind": "noisy_filter", "taps": [0.6, -0.3, 0.2], "noise_variance": 0.05},
]


def test_streamed_stages_equal_whole_record_computation(tmp_path, monkeypatch):
    # small odd blocks split Welch segments, delay windows and drop runs;
    # the files the stages stream must hold the bytes of the whole-record
    # computation, and the spectra those of the in-memory estimate
    monkeypatch.setattr(streams, "BLOCK", 9_973)
    monkeypatch.setattr(streams, "ROW_BLOCK", 9_967)
    cfg = write_tiny(tmp_path, trajectory_length=1_000_000, corruption=STREAMED)
    out = tmp_path / "run"
    for stage in ("simulate", "corrupt", "spectra"):
        assert main([stage, "--config", str(cfg), "--out", str(out)]) == 0
    config = load_config(cfg)
    panel = simulate(config.model, config.trajectory_length, config.seed, config.burn_in)
    assert rtsp_file(panel) == (out / "panel_clean.bin").read_bytes()

    expected = panel.data.copy()
    for spec in config.corruption:
        rng = np.random.default_rng([config.seed, spec.node])
        expected[spec.node] = whole_channel_corruption(panel.data[spec.node], spec, rng)
    corrupted = apply_corruption(panel, config.corruption, config.seed)
    assert corrupted.data.tobytes() == expected.tobytes()
    assert rtsp_file(corrupted) == (out / "panel_corrupt.bin").read_bytes()

    save_spectra_binary(estimate_cpsd(corrupted, config.welch), tmp_path / "memory.rtsm")
    assert (tmp_path / "memory.rtsm").read_bytes() == (out / "spectra_corrupt.rtsm").read_bytes()


def pipeline_peak(tmp_path, length: int) -> int:
    """Peak traced memory of a pipeline run through detect.  The three
    corruptions sit within two hops of each other and of the leaves, so on
    a long record the support is complete and learn rightly exits 5."""
    tmp_path.mkdir()
    cfg = load_config(write_tiny(tmp_path, trajectory_length=length, corruption=STREAMED))
    tracemalloc.start()
    try:
        run_stages(("simulate", "corrupt", "spectra", "detect"), cfg, tmp_path / "run")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pipeline_memory_does_not_grow_with_the_record(tmp_path, monkeypatch):
    # with F, the Welch workspace, cut to 0.5 MB and 16384-sample blocks, a
    # panel is more than twice F; the peak stays under one panel, and
    # nothing grows with the record: Welch reads tile spans into buffers of
    # its own, so a record four times as long adds under 1 MiB (one of its
    # rows is 16 MiB)
    monkeypatch.setattr(spectral, "WORKSPACE", 2**15)
    monkeypatch.setattr(streams, "BLOCK", 2**14)
    monkeypatch.setattr(streams, "ROW_BLOCK", 2**14)
    t = 2**19
    n, bins = 7, TINY["welch"]["segment_length"] // 2 + 1
    f_bytes = bins * n * (spectral.WORKSPACE // (n * bins)) * 16
    panel_bytes_t = n * t * 8
    assert panel_bytes_t > 2 * f_bytes
    short = pipeline_peak(tmp_path / "short", t)
    long = pipeline_peak(tmp_path / "long", 4 * t)
    assert short < panel_bytes_t
    assert long < 4 * panel_bytes_t
    assert long - short < 2**20


def test_a_failed_stage_leaves_the_manifests_before_it(tmp_path):
    # on this long record learn exits 5 (see pipeline_peak); the stages
    # before it still leave manifests that hash their files
    cfg = write_tiny(tmp_path, trajectory_length=2**21, corruption=STREAMED)
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 5
    assert not (out / "manifest_learn.json").exists()
    assert_manifests_hash_files(out, ("simulate", "corrupt", "spectra", "detect"))


def test_non_finite_sample_in_a_panel_file_exits_3(tmp_path, capsys):
    # a NaN written into a panel file is refused by the stage that reads it,
    # which leaves no output file behind
    cfg = write_tiny(tmp_path, trajectory_length=20_000, burn_in=100, corruption=[CORRUPTION])
    out = tmp_path / "run"
    header = len(panel_header(7, 1, [str(i) for i in range(1, 8)]))
    for stage, name, output in (
        ("corrupt", "panel_clean.bin", "panel_corrupt.bin"),
        ("spectra", "panel_corrupt.bin", "spectra_corrupt.rtsm"),
    ):
        for upstream in ("simulate", "corrupt"):
            assert main([upstream, "--config", str(cfg), "--out", str(out)]) == 0
        (out / output).unlink(missing_ok=True)
        path = out / name
        blob = bytearray(path.read_bytes())
        offset = header + (5 * 20_000 + 12_345) * 8  # channel 6, sample 12345
        blob[offset:offset + 8] = struct.pack("<d", float("nan"))
        path.write_bytes(bytes(blob))
        assert main([stage, "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "non-finite" in err and "Traceback" not in err
        assert sorted(p.name for p in out.iterdir() if p.suffix in (".bin", ".rtsm", ".part")) \
            == sorted({"panel_clean.bin", "panel_corrupt.bin"} - {output})


def test_pipeline_hands_spectra_over_in_memory(tmp_path, monkeypatch):
    # detect and learn take the spectra stage's estimate, so one run
    # inverts it once; their manifests still hash the spectra file
    def refuse(path, *args, **kwargs):
        raise AssertionError(f"read {path}")

    monkeypatch.setattr("treespect.cli.load_spectra_binary", refuse)
    cfg = write_tiny(tmp_path, corruption=[CORRUPTION])
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
    assert_manifests_hash_files(out)


@pytest.mark.parametrize("seed", [-3, True, 1.5, "3"])
def test_config_seed_not_a_count_exits_2(tmp_path, capsys, seed):
    cfg = write_tiny(tmp_path, seed=seed)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"seed must be an integer >= 0, got {seed!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value, low",
    [
        ("trajectory_length", 1000000.7, 1),
        ("trajectory_length", "1000000", 1),
        ("trajectory_length", True, 1),
        ("trajectory_length", 0, 1),
        ("burn_in", True, 0),
        ("burn_in", 2.5, 0),
        ("burn_in", -1, 0),
    ],
)
def test_config_length_not_a_count_exits_2(tmp_path, capsys, key, value, low):
    cfg = write_tiny(tmp_path, **{key: value})
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"{key} must be an integer >= {low}, got {value!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("shift", [{"t1": -2.5}, {"t2": True}, {"t1": "-2"}])
def test_non_integer_delay_shift_exits_2(tmp_path, capsys, shift):
    cfg = write_tiny(tmp_path, corruption=[{**CORRUPTION, **shift}])
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "integer shifts t1, t2" in err
    assert "Traceback" not in err
    assert not out.exists()


def edited_quick_config(tmp_path, edit) -> Path:
    """The bundled chain7_quick config with `edit` applied to its payload."""
    payload = json.loads(bundled_config_path("chain7_quick").read_text())
    edit(payload)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


NOISY_FILTER = {"node": "4", "kind": "noisy_filter", "taps": [1.0, -0.45], "noise_variance": 0.25}


@pytest.mark.parametrize("entry, message", [
    ({**NOISY_FILTER, "noise_variance": float("nan")}, "finite noise_variance >= 0, got nan"),
    ({**NOISY_FILTER, "taps": [1.0, float("nan")]}, "finite taps, got [1.0, nan]"),
    ({**NOISY_FILTER, "taps": [float("inf"), 0.5]}, "finite taps, got [inf, 0.5]"),
    ({**CORRUPTION, "p": True}, "random_delay needs probability 0 < p <= 1, got p=True"),
    ({"node": "4", "kind": "packet_drop", "p": True},
     "packet_drop needs probability 0 < p <= 1, got p=True"),
], ids=["filter-nan-variance", "filter-nan-tap", "filter-inf-tap", "delay-bool-p", "drop-bool-p"])
def test_bad_corruption_value_exits_2_at_load(tmp_path, capsys, entry, message):
    cfg = edited_quick_config(tmp_path, lambda payload: payload.update(corruption=[entry]))
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()


def _set_first_coupling(value):
    return lambda payload: payload["model"]["edges"][0].update(ab=value)


def _set_first_self_dynamics(value):
    return lambda payload: payload["model"]["self_dynamics"].update({"1": [value]})


@pytest.mark.parametrize("edit, message", [
    (_set_first_coupling(float("nan")), "coupling 1->2 must be finite and nonzero, got nan"),
    (_set_first_coupling(float("-inf")), "coupling 1->2 must be finite and nonzero, got -inf"),
    (_set_first_self_dynamics(float("nan")), "self_dynamics of node 1 must be finite, got [nan]"),
    (_set_first_self_dynamics(float("inf")), "self_dynamics of node 1 must be finite, got [inf]"),
], ids=["coupling-nan", "coupling-inf", "self-dynamics-nan", "self-dynamics-inf"])
def test_non_finite_model_coefficient_exits_2_naming_it(tmp_path, capsys, edit, message):
    cfg = edited_quick_config(tmp_path, edit)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "NaNs" not in err  # numpy's eigenvalue error never reaches the user
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("magnitude_threshold", float("nan")),
        ("magnitude_threshold", float("inf")),
        ("magnitude_threshold", "0.05"),
        ("magnitude_threshold", None),
        ("phase_threshold", True),
        ("phase_threshold", -0.1),
    ],
)
def test_decision_threshold_not_a_positive_number_exits_2(tmp_path, capsys, key, value):
    # the decision rule follows from the Welch segment count; no config sets
    # a threshold, so any decision block is refused as an unknown key
    decision = {"magnitude_threshold": 0.05, "phase_threshold": 0.1, key: value}
    cfg = write_tiny(tmp_path, decision=decision)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "unknown config key(s): 'decision'" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("value", [1024.0, 1e3, "1024", True, 1000])
def test_segment_length_not_a_power_of_two_int_exits_2(tmp_path, capsys, value):
    cfg = write_tiny(tmp_path, welch={"segment_length": value})
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"segment_length must be a power of two >= 16, got {value!r}" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_noise_variance_exits_2_at_load(tmp_path, capsys, value):
    model = TINY["model"]
    variances = {**model["noise_variance"], "3": value}
    cfg = write_tiny(tmp_path, model={**model, "noise_variance": variances})
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert "noise variances must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "pipeline", "sweep"])
def test_negative_seed_override_exits_2(tmp_path, capsys, command):
    if command == "sweep":
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"instances": 1, "nodes": [7, 7], "corrupt": [1, 1]}))
    else:
        cfg = write_tiny(tmp_path)
    out = tmp_path / "run"
    assert main([command, "--config", str(cfg), "--out", str(out), "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert "seed must be an integer >= 0, got -1" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_model_and_model_path_exits_2(tmp_path, capsys):
    cfg = write_tiny(tmp_path, model_path="/nonexistent/model.json")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "'model'" in err and "'model_path'" in err


def test_format_flag_exits_2(tmp_path, capsys):
    cfg = write_tiny(tmp_path, trajectory_length=20_000, burn_in=100)
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(cfg), "--out", str(out), "--format", "bin"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["pipeline", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2
    assert "not found" in capsys.readouterr().err


def test_invalid_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["pipeline", "--config", str(bad), "--out", str(tmp_path)]) == 2
    short = write_tiny(tmp_path, trajectory_length=100)
    assert main(["pipeline", "--config", str(short), "--out", str(tmp_path)]) == 2


def misspelt(entry: dict, key: str, typo: str) -> dict:
    return {typo if k == key else k: v for k, v in entry.items()}


MODEL = TINY["model"]
MISSPELT_MODEL = misspelt(MODEL, "noise_variance", "nosie_variance")


@pytest.mark.parametrize("overrides, key", [
    ({"ridge": 0.0}, "ridge"),
    ({"welch": {"window": "hann"}}, "window"),
    ({"outputs": {"panel_format": "bin"}}, "outputs"),
    ({"model": MISSPELT_MODEL}, "nosie_variance"),
    ({"model": MISSPELT_MODEL, "model_path": "model.json"}, "nosie_variance"),
    ({"model": {**MODEL, "edges": [misspelt(MODEL["edges"][0], "ab", "abb")]}}, "abb"),
    ({"corruption": [misspelt(CORRUPTION, "p", "probability")]}, "probability"),
], ids=[
    "ridge", "welch-window", "outputs", "model-noise-variance",
    "model-file-noise-variance", "edge-ab", "corruption-p",
])
def test_unknown_config_key_exits_2(tmp_path, capsys, overrides, key):
    payload = {**TINY, **overrides}
    if "model_path" in payload:  # the model block comes from its own file
        (tmp_path / payload["model_path"]).write_text(json.dumps(payload.pop("model")))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(payload))
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"'{key}'" in capsys.readouterr().err
    assert not out.exists()



@pytest.mark.parametrize("key, value, expected", [
    ("labels", "1234567", "array"),
    ("edges", {}, "array"),
    ("self_dynamics", [0.0] * 7, "object"),
    ("noise_variance", [1.0] * 7, "object"),
    ("noise_variance", None, "object"),
], ids=["labels-string", "edges-object", "self-dynamics-array", "noise-variance-array",
        "noise-variance-null"])
@pytest.mark.parametrize("source", ["inline", "model_path"])
def test_model_value_of_the_wrong_json_type_exits_2(
    tmp_path, capsys, key, value, expected, source
):
    model = {**MODEL, key: value}
    if source == "inline":
        cfg = write_tiny(tmp_path, model=model)
    else:
        (tmp_path / "model.json").write_text(json.dumps(model))
        cfg = tmp_path / "config.json"
        payload = {k: v for k, v in TINY.items() if k != "model"}
        cfg.write_text(json.dumps({**payload, "model_path": "model.json"}))
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"model '{key}' must be a JSON {expected}" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["pipeline", "sweep"])
def test_config_directory_or_out_file_exits_2_naming_the_path(
    tmp_path, capsys, monkeypatch, command
):
    if command == "sweep":
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"instances": 1, "nodes": [7, 7], "corrupt": [1, 1]}))
    else:
        cfg = write_tiny(tmp_path)
    assert main([command, "--config", str(tmp_path), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert f"cannot read {'sweep config' if command == 'sweep' else 'config file'} {tmp_path}" in err
    assert "Traceback" not in err
    # --out is checked before any stage or sweep row runs
    ran = []
    monkeypatch.setitem(cli.STAGES, "simulate", lambda *a: ran.append(a))
    monkeypatch.setattr(cli, "_sweep_row", lambda task: ran.append(task))
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    assert main([command, "--config", str(cfg), "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert f"--out {taken} is not a usable directory" in err
    assert "Traceback" not in err
    assert ran == [] and taken.read_text() == "not a directory"

def test_missing_upstream_artifact_exits_3(tmp_path):
    cfg = write_tiny(tmp_path)
    assert main(["detect", "--config", str(cfg), "--out", str(tmp_path / "empty")]) == 3


@pytest.mark.parametrize("stage, name, content", [
    ("spectra", "panel_corrupt.bin", None),
    ("detect", "spectra_corrupt.rtsm", None),
    ("learn", "detection.json", None),
    ("learn", "detection.json", b"\xff\xfe{}"),
], ids=["panel_dir", "spectra_dir", "report_dir", "report_not_utf8"])
def test_stage_input_that_is_no_readable_file_exits_3(tmp_path, capsys, stage, name, content):
    # a directory, or a report that is not UTF-8, in place of a stage's input
    cfg, out, _ = spectra_of_tiny(tmp_path)
    path = out / name
    path.unlink(missing_ok=True)
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    assert main([stage, "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert str(path) in err and "Traceback" not in err


def test_truncated_spectra_exits_3(tmp_path, capsys):
    cfg = write_tiny(tmp_path, trajectory_length=20_000, burn_in=100)
    out = tmp_path / "run"
    for stage in ("simulate", "corrupt", "spectra"):
        assert main([stage, "--config", str(cfg), "--out", str(out)]) == 0
    spectra = out / "spectra_corrupt.rtsm"
    full = spectra.read_bytes()
    for size in (10, 1000, len(full) - 1):
        spectra.write_bytes(full[:size])
        assert main(["detect", "--config", str(cfg), "--out", str(out)]) == 3
        assert "truncated" in capsys.readouterr().err


def write_rtsm(path: Path, labels, freqs, values, flagged) -> None:
    """An RTSM file holding these arrays, whatever grid they lie on."""
    blob = json.dumps(list(labels)).encode()
    path.write_bytes(
        b"RTSM"
        + struct.pack("<QQI", freqs.size, values.shape[1], len(blob))
        + blob
        + freqs.astype("<f8").tobytes()
        + flagged.astype("u1").tobytes()
        + values.astype("<c16").tobytes()
    )


def spectra_of_tiny(tmp_path):
    """The config, output directory and spectra of a short tiny run."""
    cfg = write_tiny(tmp_path, trajectory_length=20_000, burn_in=100)
    out = tmp_path / "run"
    for stage in ("simulate", "corrupt", "spectra"):
        assert main([stage, "--config", str(cfg), "--out", str(out)]) == 0
    return cfg, out, spectral.load_spectra_binary(out / "spectra_corrupt.rtsm")


def test_two_sided_spectra_file_exits_3(tmp_path, capsys):
    # an RTSM file in the earlier layout, holding both halves of the grid
    cfg, out, half = spectra_of_tiny(tmp_path)
    write_rtsm(out / "spectra_corrupt.rtsm", half.labels, *two_sided(half))
    assert main(["detect", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "[0, pi]" in err and "Traceback" not in err


@pytest.mark.parametrize("case", ["one_ulp", "odd_segment", "eight_bins"])
def test_spectra_file_off_the_welch_grid_exits_3(tmp_path, capsys, case):
    # the loader accepts only the frequency array of the Welch bins of
    # segment length 2 (f - 1), f >= 9 bins, byte for byte
    cfg, out, s = spectra_of_tiny(tmp_path)
    freqs, flagged, values = s.grid.frequencies.copy(), s.flagged, s.values
    if case == "one_ulp":
        freqs[5] = np.nextafter(freqs[5], np.inf)
    else:  # the 33 bins of a 65-sample segment, or the 8 of a 14-sample one
        L = 65 if case == "odd_segment" else 14
        freqs = 2.0 * np.pi * np.arange(L // 2 + 1) / L
        flagged, values = flagged[:freqs.size], values[:freqs.size]
    spectra = out / "spectra_corrupt.rtsm"
    write_rtsm(spectra, s.labels, freqs, values, flagged)
    assert main(["detect", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert str(spectra) in err and "Traceback" not in err
    assert ("need >= 9" if case == "eight_bins" else "not the") in err


@pytest.mark.parametrize("stage", ["detect", "learn"])
def test_spectra_file_of_another_segment_length_exits_3(tmp_path, capsys, stage):
    # the decision rule counts the Welch segments of the config's length, so
    # a spectrum of another length would be cut at another band
    cfg, out, _ = spectra_of_tiny(tmp_path)
    assert main(["detect", "--config", str(cfg), "--out", str(out)]) == 0
    manifests = {p: p.read_bytes() for p in out.glob("manifest_*.json")}
    capsys.readouterr()
    cfg = write_tiny(tmp_path, trajectory_length=20_000, burn_in=100, welch={"segment_length": 256})
    assert main([stage, "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert (
        f"{out / 'spectra_corrupt.rtsm'} holds spectra of Welch segment length 128, "
        "but the config's segment_length is 256"
    ) in err
    assert "Traceback" not in err
    assert {p: p.read_bytes() for p in out.glob("manifest_*.json")} == manifests


@pytest.mark.parametrize("case", ["no_channels", "one_channel", "duplicate_label"])
def test_spectra_file_that_is_no_panel_layout_exits_3(tmp_path, capsys, case):
    # the loader applies the panel's layout rule: >= 2 channels, unique labels
    cfg, out, s = spectra_of_tiny(tmp_path)
    labels, values = list(s.labels), s.values
    if case == "duplicate_label":
        labels[1] = labels[0]
    else:
        keep = 0 if case == "no_channels" else 1
        labels, values = labels[:keep], values[:, :keep, :keep]
    spectra = out / "spectra_corrupt.rtsm"
    write_rtsm(spectra, labels, s.grid.frequencies, values, s.flagged)
    assert main(["detect", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert str(spectra) in err and "Traceback" not in err
    assert ("duplicate" if case == "duplicate_label" else "need >= 2 channels") in err


@pytest.mark.parametrize("stage, name", [
    ("corrupt", "panel_clean.bin"), ("spectra", "panel_corrupt.bin"),
])
@pytest.mark.parametrize("labels, n, message", [
    ([], 0, "need >= 2 channels"),
    (["1"], 1, "need >= 2 channels"),
    (["1", "1"], 2, "duplicate"),
    (["1"], 2, "label count"),
], ids=["no_channels", "one_channel", "duplicate_label", "label_count"])
def test_panel_file_that_is_no_panel_layout_exits_3(
    tmp_path, capsys, stage, name, labels, n, message
):
    # a panel file is held to the same layout rule, and its refusal names it
    cfg = write_tiny(tmp_path, trajectory_length=20_000, burn_in=100)
    out = tmp_path / "run"
    out.mkdir()
    panel = out / name
    panel.write_bytes(panel_header(n, 100, labels) + bytes(8 * n * 100))
    assert main([stage, "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert str(panel) in err and message in err and "Traceback" not in err


def test_non_finite_spectra_exits_3(tmp_path, capsys):
    # one NaN in an unflagged bin of a chain7_quick spectra file is refused
    # when the file is read, before inversion can fail on it
    from treespect.ltisim import analytic_psd
    from treespect.spectral import FrequencyGrid, SpectralMatrix, save_spectra_binary

    cfg = bundled_config_path("chain7_quick")
    model, _ = chain7()
    psd = analytic_psd(model, FrequencyGrid.welch_bins(256))
    values = psd.values.copy()
    values[40, 2, 5] = np.nan
    out = tmp_path / "run"
    out.mkdir()
    save_spectra_binary(
        SpectralMatrix(psd.grid, values, psd.labels), out / "spectra_corrupt.rtsm"
    )
    assert main(["detect", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "non-finite" in err and "bin 40" in err and "Traceback" not in err


def test_non_finite_in_memory_spectra_exit_3_at_detect(tmp_path, capsys, monkeypatch):
    # `pipeline` hands the spectra estimate to detect in memory, where no file
    # check sees it: a NaN in an unflagged bin is refused when it is inverted
    def estimate_with_nan(reader, params):
        s = estimate_cpsd(reader, params)
        values = s.values.copy()
        values[40, 2, 5] = np.nan
        return spectral.SpectralMatrix(s.grid, values, s.labels, s.flagged)

    monkeypatch.setattr("treespect.cli.estimate_cpsd", estimate_with_nan)
    cfg = write_tiny(tmp_path, trajectory_length=20_000, burn_in=100)
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert "[spectra]" in captured.out and "[detect]" not in captured.out
    assert "non-finite" in captured.err and "bin 40" in captured.err
    assert "Traceback" not in captured.err


def test_truncated_panel_exits_3(tmp_path, capsys):
    cfg = write_tiny(tmp_path, trajectory_length=20_000, burn_in=100)
    out = tmp_path / "run"
    for stage in ("simulate", "corrupt"):
        assert main([stage, "--config", str(cfg), "--out", str(out)]) == 0
    panel = out / "panel_corrupt.bin"
    panel.write_bytes(panel.read_bytes()[:1000])
    assert main(["spectra", "--config", str(cfg), "--out", str(out)]) == 3
    assert "truncated" in capsys.readouterr().err


def flipped(blob: bytes, offset: int) -> bytes:
    return blob[:offset] + bytes([blob[offset] ^ 0xFF]) + blob[offset + 1:]


def test_corrupt_label_blob_exits_3(tmp_path, capsys):
    cfg = write_tiny(tmp_path, trajectory_length=20_000, burn_in=100)
    out = tmp_path / "run"
    for stage in ("simulate", "corrupt", "spectra"):
        assert main([stage, "--config", str(cfg), "--out", str(out)]) == 0
    # label blobs start after magic + header: byte 24 (RTSM), byte 32 (RTSP)
    spectra, panel = out / "spectra_corrupt.rtsm", out / "panel_corrupt.bin"
    good = panel.read_bytes()
    assert good[32:37] == b'["1",'
    for path, blob, stage in (
        (spectra, flipped(spectra.read_bytes(), 24), "detect"),
        (panel, flipped(good, 32), "spectra"),
        # same length and valid JSON, but one label is a number
        (panel, good[:33] + b" 1 " + good[36:], "spectra"),
    ):
        path.write_bytes(blob)
        assert main([stage, "--config", str(cfg), "--out", str(out)]) == 3
        assert "label blob" in capsys.readouterr().err


def test_trailing_bytes_exit_3(tmp_path, capsys):
    cfg = write_tiny(tmp_path, trajectory_length=20_000, burn_in=100)
    out = tmp_path / "run"
    for stage in ("simulate", "corrupt", "spectra"):
        assert main([stage, "--config", str(cfg), "--out", str(out)]) == 0
    for artifact, stage in (("spectra_corrupt.rtsm", "detect"), ("panel_corrupt.bin", "spectra")):
        path = out / artifact
        path.write_bytes(path.read_bytes() + b"\0\0")
        assert main([stage, "--config", str(cfg), "--out", str(out)]) == 3
        assert "trailing bytes" in capsys.readouterr().err


def test_malformed_panel_header_exits_3(tmp_path, capsys):
    cfg = write_tiny(tmp_path, trajectory_length=20_000, burn_in=100)
    out = tmp_path / "run"
    for stage in ("simulate", "corrupt"):
        assert main([stage, "--config", str(cfg), "--out", str(out)]) == 0
    clean, corrupt = out / "panel_clean.bin", out / "panel_corrupt.bin"
    good_clean, good = clean.read_bytes(), corrupt.read_bytes()
    # bytes 20..28 of an RTSP header hold the sample interval, always 1.0
    assert struct.unpack("<d", good[20:28]) == (1.0,)
    for path, blob, stage, message in (
        (clean, flipped(good_clean, 0), "corrupt", "bad magic"),
        (corrupt, flipped(good, 0), "spectra", "bad magic"),
        (corrupt, b"1,2,3,4,5,6,7\n0,0,0,0,0,0,0\n", "spectra", "bad magic"),
        (corrupt, good[:20] + struct.pack("<d", 0.5) + good[28:], "spectra", "interval"),
    ):
        path.write_bytes(blob)
        assert main([stage, "--config", str(cfg), "--out", str(out)]) == 3
        assert message in capsys.readouterr().err


def test_malformed_detection_report_exits_3(tmp_path):
    cfg = write_tiny(tmp_path, trajectory_length=20_000, burn_in=100)
    out = tmp_path / "run"
    for stage in ("simulate", "corrupt", "spectra", "detect"):
        assert main([stage, "--config", str(cfg), "--out", str(out)]) == 0
    report = out / "detection.json"
    good = json.loads(report.read_text())
    for bad in (
        report.read_text()[:50],
        json.dumps({**good, "support_edges": 7}),
        json.dumps({**good, "support_edges": "1-2"}),
        json.dumps({**good, "evidence": []}),
        json.dumps([good]),
    ):
        report.write_text(bad)
        assert main(["learn", "--config", str(cfg), "--out", str(out)]) == 3


def test_detection_report_in_the_phase_score_layout_exits_3(tmp_path, capsys):
    cfg = write_tiny(tmp_path, trajectory_length=20_000, burn_in=100)
    out = tmp_path / "run"
    for stage in ("simulate", "corrupt", "spectra", "detect"):
        assert main([stage, "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "detection.json").read_text())
    assert set(report["thresholds"]) == {"band", "phase"}
    # the layout before margins: no thresholds, a magnitude score per edge
    # and a phase score per evidence row
    del report["thresholds"]
    for e in report["support_edges"]:
        e["magnitude_score"] = e.pop("band")
        del e["margin"]
    for rows in report["evidence"].values():
        for row in rows:
            row["phase_score"] = row.pop("w")
            del row["margin"]
    (out / "detection.json").write_text(json.dumps(report))
    assert main(["learn", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "malformed detection report: missing" in err
    assert "Traceback" not in err
    assert not (out / "topology.json").exists()


def test_degenerate_data_exits_4(tmp_path):
    cfg = write_tiny(tmp_path, trajectory_length=20_000)
    out = tmp_path / "run"
    out.mkdir()
    flat = TimeSeriesPanel(
        np.zeros((7, 20_000)) + np.arange(7)[:, None],
        tuple(str(i + 1) for i in range(7)),
    )
    save_panel(flat, out / "panel_corrupt.bin")
    assert main(["spectra", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["detect", "--config", str(cfg), "--out", str(out)]) == 4


def test_all_corrupt_detection_exits_5(tmp_path):
    cfg = write_tiny(tmp_path)
    out = tmp_path / "run"
    for stage in ("simulate", "corrupt", "spectra", "detect"):
        assert main([stage, "--config", str(cfg), "--out", str(out)]) == 0
    # doctor the report so every node is corrupt: reconstruction must refuse
    report = json.loads((out / "detection.json").read_text())
    report["corrupt"] = [str(i + 1) for i in range(7)]
    (out / "detection.json").write_text(json.dumps(report))
    assert main(["learn", "--config", str(cfg), "--out", str(out)]) == 5


def test_bundled_quick_config_pipeline(tmp_path):
    cfg = bundled_config_path("chain7_quick")
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
    detection = json.loads((out / "detection.json").read_text())
    assert detection["corrupt"] == ["4"]
    assert detection["leaf_edges"] == [["1", "2"], ["6", "7"]]
    topology = json.loads((out / "topology.json").read_text())
    assert sorted([e["a"], e["b"]] for e in topology["edges"]) == CHAIN_EDGES
    provs = {(e["a"], e["b"]): e["provenance"] for e in topology["edges"]}
    assert provs[("3", "4")] == "placement_edge"


def test_bundled_clean_config_detects_nothing(tmp_path):
    cfg = bundled_config_path("chain7_clean")
    out = tmp_path / "run"
    for stage in ("simulate", "corrupt", "spectra", "detect"):
        assert main([stage, "--config", str(cfg), "--out", str(out)]) == 0
    detection = json.loads((out / "detection.json").read_text())
    assert detection["corrupt"] == []


def test_bundled_configs_load():
    for name in ("chain7", "chain7_quick", "chain7_clean"):
        cfg = load_config(bundled_config_path(name))
        assert cfg.model.n_nodes == 7
    assert load_config(bundled_config_path("chain7")).trajectory_length == 10_000_000


def test_config_echo_loads_back():
    # the manifests echo cfg.to_dict(); the strict loader must accept it
    for name in ("chain7", "chain7_quick", "chain7_clean"):
        echo = load_config(bundled_config_path(name)).to_dict()
        assert config_from_dict(echo).to_dict() == echo


def test_sweep_tiny_and_empty(tmp_path):
    sweep_cfg = tmp_path / "sweep.json"
    sweep_cfg.write_text(
        json.dumps(
            {
                "instances": 2,
                "nodes": [7, 8],
                "corrupt": [1, 1],
                "trajectories": ["analytic"],
                "seed": 4,
            }
        )
    )
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(sweep_cfg), "--out", str(out)]) == 0
    rows = (out / "sweep_summary.csv").read_text().strip().splitlines()
    assert rows[0].startswith("instance,")
    assert len(rows) == 3
    assert all("True" in r for r in rows[1:])

    empty_cfg = tmp_path / "empty.json"
    empty_cfg.write_text(json.dumps({"instances": 0}))
    assert main(["sweep", "--config", str(empty_cfg), "--out", str(out)]) == 0
    assert (out / "sweep_summary.csv").read_text().strip().splitlines()[0].startswith("instance,")


def test_sweep_invalid_welch_block_exits_2(tmp_path):
    sweep_cfg = tmp_path / "sweep.json"
    sweep_cfg.write_text(
        json.dumps({"instances": 1, "welch": {"segment_length": 100}, "seed": 4})
    )
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(sweep_cfg), "--out", str(out)]) == 2
    assert not (out / "sweep_summary.csv").exists()


def test_sweep_trajectory_too_short_for_welch_exits_2(tmp_path, capsys):
    # 1000 samples make 6 segments of 256, under the 8 Welch needs: the sweep
    # refuses the length before any row runs, as a pipeline config does
    message = "trajectory_length 1000 too short for Welch segments of 256"
    welch = {"segment_length": 256}
    cfg = write_tiny(tmp_path, trajectory_length=1000, welch=welch)
    assert main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    assert message in capsys.readouterr().err
    sweep_cfg = tmp_path / "sweep.json"
    sweep_cfg.write_text(
        json.dumps({"instances": 1, "trajectories": ["analytic", 1000], "welch": welch})
    )
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(sweep_cfg), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not (out / "sweep_summary.csv").exists()


@pytest.mark.parametrize("welch, message", [
    ({"window": "hann"}, "unknown welch key(s): 'window'"),
    (256, "welch must be a JSON object"),
    ({"segment_length": 96}, "segment_length must be a power of two >= 16, got 96"),
], ids=["unknown-key", "not-an-object", "even-not-a-power-of-two"])
def test_welch_block_refused_by_pipeline_and_sweep(tmp_path, capsys, welch, message):
    cfg = write_tiny(tmp_path, welch=welch)
    sweep_cfg = tmp_path / "sweep.json"
    sweep_cfg.write_text(json.dumps({"instances": 1, "welch": welch}))
    for command, path in (("pipeline", cfg), ("sweep", sweep_cfg)):
        out = tmp_path / command
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()


def test_sweep_invalid_decision_block_exits_2(tmp_path, capsys):
    # any decision block: the rule follows from each row's segment count
    sweep_cfg = tmp_path / "sweep.json"
    sweep_cfg.write_text(
        json.dumps({"instances": 1, "decision": {"phase_threshold": 0.1}, "seed": 4})
    )
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(sweep_cfg), "--out", str(out)]) == 2
    assert "unknown sweep config key(s): 'decision'" in capsys.readouterr().err
    assert not (out / "sweep_summary.csv").exists()
    assert not (out / "sweep_summary.csv").exists()


def test_sweep_unknown_key_exits_2(tmp_path, capsys):
    sweep_cfg = tmp_path / "sweep.json"
    out = tmp_path / "sweep"
    for payload, key in (
        ({"instance": 2, "seed": 4}, "instance"),
        ({"instances": "x"}, "instances"),
        ({"instances": 1, "nodes": [7]}, "nodes"),
        # a 0- or 1-node tree makes no panel
        ({"instances": 3, "nodes": [0, 1], "corrupt": [0, 0]}, "nodes"),
        # a 7-node tree hosts one corrupt node at most, a 5- or 6-node tree none
        ({"instances": 1, "nodes": [7, 7], "corrupt": [2, 3]}, "corrupt"),
        ({"instances": 3, "nodes": [5, 6], "corrupt": [1, 1]}, "corrupt"),
        # checked before any row runs, so no pool worker fails on it
        ({"instances": 1, "trajectories": ["1e5"]}, "trajectories"),
    ):
        sweep_cfg.write_text(json.dumps(payload))
        argv = ["sweep", "--config", str(sweep_cfg), "--out", str(out), "--threads", "2"]
        assert main(argv) == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not (out / "sweep_summary.csv").exists()


def sweep_rows(tmp_path, payload) -> list[dict]:
    """The rows of a one-thread sweep over `payload`, which must exit 0."""
    sweep_cfg = tmp_path / "sweep.json"
    sweep_cfg.write_text(json.dumps(payload))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(sweep_cfg), "--out", str(out)]) == 0
    with (out / "sweep_summary.csv").open() as fh:
        return list(csv.DictReader(fh))


@pytest.mark.xfail(strict=True, reason=(
    "a silent wrong tree: placement adopts 2-4 in place of 3-4 with no "
    "diagnostic; open under ROADMAP item 2 (say so when an alignment is "
    "close) and item 5 (a phase-consistency check after placement)"
))
def test_readme_sweep_row_that_is_not_recovered_ends_in_a_diagnostic():
    # row 2 of the README sweep at seed 2 and 10^5 samples: a 9-node tree
    # whose one corrupt node, index 4, is detected; placement then joins it
    # to node 2, not to its true neighbour 3
    welch = welch_params({"welch": {"segment_length": 256}})
    row = cli._sweep_row((2, 9, 1, 100_000, 2, welch, False))
    assert row["recovered"] or row["n_diagnostics"] > 0


def test_sweep_corrupt_zero_draws_no_corrupt_node(tmp_path):
    rows = sweep_rows(tmp_path, {"instances": 3, "nodes": [7, 9], "corrupt": [0, 0], "seed": 1})
    assert len(rows) == 3
    assert all(r["n_corrupt"] == "0" and r["recovered"] == "True" for r in rows)


def test_sweep_rows_on_trees_too_small_end_in_errors_or_diagnostics(tmp_path):
    # 2- and 3-node trees: a row that does not recover says why
    rows = sweep_rows(tmp_path, {
        "instances": 4, "nodes": [2, 3], "corrupt": [0, 0],
        "trajectories": ["analytic", 20_000], "seed": 1,
    })
    assert len(rows) == 8 and {r["n_nodes"] for r in rows} == {"2", "3"}
    for r in rows:
        assert r["n_corrupt"] == "0"
        failed = r["recovered"] != "True"
        assert failed == (int(r["n_diagnostics"]) > 0 or r["error"] != "")
        assert r["error"] in ("", "DataError", "NumericalError", "AssumptionViolation")


def fake_process_pool(monkeypatch, cpus):
    """Replace the sweep's process pool with one that records its
    `max_workers` and maps in this process, so no worker is ever forked."""
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr("treespect.cli.ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    return sizes


@pytest.mark.parametrize(
    "threads, cpus, sizes",
    [(5000, 64, [2]), (5000, 1, []), (2, 64, [2]), (1, 64, [])],
)
def test_sweep_pool_sized_by_rows_and_cores(tmp_path, monkeypatch, threads, cpus, sizes):
    made = fake_process_pool(monkeypatch, cpus)
    sweep_cfg = tmp_path / "sweep.json"
    sweep_cfg.write_text(json.dumps({"instances": 2, "nodes": [7, 8], "corrupt": [1, 1]}))
    out = tmp_path / "sweep"
    argv = ["sweep", "--config", str(sweep_cfg), "--out", str(out), "--threads", str(threads)]
    assert main(argv) == 0
    assert made == sizes
    assert len((out / "sweep_summary.csv").read_text().strip().splitlines()) == 3


@pytest.mark.parametrize("threads", [0, -3])
def test_sweep_threads_below_one_exits_2(tmp_path, monkeypatch, capsys, threads):
    made = fake_process_pool(monkeypatch, 64)
    sweep_cfg = tmp_path / "sweep.json"
    sweep_cfg.write_text(json.dumps({"instances": 2, "nodes": [7, 8], "corrupt": [1, 1]}))
    out = tmp_path / "sweep"
    argv = ["sweep", "--config", str(sweep_cfg), "--out", str(out), "--threads", str(threads)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"--threads must be an integer >= 1, got {threads}" in err
    assert "Traceback" not in err
    assert made == []
    assert not out.exists()


def test_sweep_negative_control_rows_report_the_instance_size(tmp_path):
    # an adversarial instance has at least 9 nodes whatever n its row drew
    rows = sweep_rows(tmp_path, {
        "instances": 2, "nodes": [7, 7], "corrupt": [1, 1],
        "trajectories": ["analytic"], "seed": 3, "violate_assumption": True,
    })
    assert [(r["n_nodes"], r["n_corrupt"]) for r in rows] == [("9", "2")] * 2


def test_sweep_negative_controls_reported_not_crashed(tmp_path):
    sweep_cfg = tmp_path / "sweep.json"
    sweep_cfg.write_text(
        json.dumps(
            {
                "instances": 2,
                "nodes": [9, 11],
                "trajectories": ["analytic"],
                "seed": 6,
                "violate_assumption": True,
            }
        )
    )
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(sweep_cfg), "--out", str(out)]) == 0
    rows = (out / "sweep_summary.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 2
    for row in rows:
        assert "True" not in row.split(",")[4]  # never a silent success
        assert row.rstrip().split(",")[-2] or row.rstrip().split(",")[-1]
