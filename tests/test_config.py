"""Config parsing, validation, and hash discipline."""

from __future__ import annotations

from dataclasses import replace

import pytest

from conftest import build_toy_experiment
from judgeval.cli import main
from judgeval.config import load_config
from judgeval.errors import ConfigError
from judgeval.pipeline import Experiment
from judgeval.trec_io import Modality


def test_load_config_resolves_relative_paths(toy_experiment):
    config = load_config(toy_experiment)
    assert config.corpus.is_absolute()
    assert config.corpus.exists()
    assert config.dataset == "toy"
    assert config.models == ["mock-judge"]
    assert [str(m) for m in config.modalities] == ["full", "summ:80", "summ:120"]
    assert config.seed == 42
    assert config.summarizer_model == "mock-judge"
    assert config.bootstrap_samples == 500


def test_missing_config_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.ini")


def test_seed_is_mandatory(tmp_path):
    config_path = build_toy_experiment(tmp_path)
    text = config_path.read_text().replace("seed = 42\n", "")
    config_path.write_text(text)
    with pytest.raises(ConfigError, match="seed"):
        load_config(config_path)


def test_bad_modality_rejected(tmp_path):
    config_path = build_toy_experiment(tmp_path)
    text = config_path.read_text().replace("summ:80", "summary-eighty")
    config_path.write_text(text)
    with pytest.raises(ConfigError):
        load_config(config_path)


def test_http_backend_requires_endpoint(tmp_path):
    config_path = build_toy_experiment(tmp_path)
    text = config_path.read_text().replace("backend = mock", "backend = http")
    config_path.write_text(text)
    with pytest.raises(ConfigError, match="endpoint"):
        load_config(config_path)


def test_empty_models_rejected(tmp_path):
    config_path = build_toy_experiment(tmp_path)
    text = config_path.read_text().replace("models = mock-judge", "models = ")
    config_path.write_text(text)
    with pytest.raises(ConfigError):
        load_config(config_path)


def test_config_hash_ignores_output_dir_but_tracks_everything_else(toy_experiment):
    config = load_config(toy_experiment)
    base = config.config_hash()
    assert replace(config, output_dir=config.output_dir / "elsewhere").config_hash() == base
    assert replace(config, seed=43).config_hash() != base
    assert replace(config, rbo_p=0.8).config_hash() != base
    assert replace(config, binarize_threshold=2).config_hash() != base
    assert (
        replace(config, modalities=[Modality.parse("full")]).config_hash() != base
    )
    assert replace(config, gain="exponential").config_hash() != base


def test_max_in_flight_is_honoured_and_left_out_of_the_hash(tmp_path):
    config_path = build_toy_experiment(tmp_path)
    base = load_config(config_path).config_hash()
    text = config_path.read_text()
    for section, line in (
        ("gateway", "max_in_flight = 3"),
        ("experiment", "summary_slack = 3.0"),
        ("experiment", "judge_max_output_tokens = 8"),
    ):
        config_path.write_text(text.replace(f"[{section}]\n", f"[{section}]\n{line}\n"))
        assert line in config_path.read_text()
        config = load_config(config_path)
        assert config.config_hash() == base
        in_flight = 3 if "max_in_flight" in line else 1
        assert Experiment(config).gateway.max_in_flight == in_flight


def test_duplicate_modalities_rejected(toy_experiment):
    config = load_config(toy_experiment)
    with pytest.raises(ConfigError):
        replace(config, modalities=[Modality.parse("full"), Modality.parse("full")])


@pytest.mark.parametrize(
    "section, option",
    [
        ("metrics", "bootstrap_samples"),
        ("metrics", "ndcg_k"),
        ("experiment", "pool_depth"),
        ("gateway", "max_attempts"),
        ("gateway", "max_in_flight"),
    ],
)
def test_non_positive_counts_rejected_at_load(tmp_path, capsys, section, option):
    config_path = build_toy_experiment(tmp_path)
    text = config_path.read_text().replace("bootstrap_samples = 500\n", "")
    config_path.write_text(text.replace(f"[{section}]\n", f"[{section}]\n{option} = 0\n"))
    with pytest.raises(ConfigError, match=option):
        load_config(config_path)
    assert main(["run", "--config", str(config_path)]) == 2
    assert option in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # rejected before any stage ran
