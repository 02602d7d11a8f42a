"""Config parsing, validation, and hash discipline."""

from __future__ import annotations

import configparser
import re
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import build_toy_experiment
from judgeval.cli import main
from judgeval.config import SECTIONS, load_config
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


def _http_config(tmp_path, endpoint: str) -> Path:
    config_path = build_toy_experiment(tmp_path)
    text = config_path.read_text().replace(
        "backend = mock\n", f"backend = http\nendpoint = {endpoint}\n"
    )
    config_path.write_text(text)
    return config_path


@pytest.mark.parametrize(
    "endpoint",
    [
        "localhost:9/v1", "ftp://127.0.0.1:9/v1", "http:///v1", "not a url",
        "http://127.0.0.1:x/v1", "http://127.0.0.1:65536/v1", "http://127.0.0.1:0/v1",
    ],
)
def test_http_endpoint_that_is_not_an_http_url_is_a_config_error(tmp_path, capsys, endpoint):
    # each would otherwise fail every request, most of them after minutes of retries
    config_path = _http_config(tmp_path, endpoint)
    with pytest.raises(ConfigError):
        load_config(config_path)
    assert main(["run", "--config", str(config_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "endpoint", ["http://127.0.0.1:9/v1", "HTTPS://api.example.com/v1/chat", "http://[::1]:8080/v1"]
)
def test_http_endpoint_with_a_host_loads(tmp_path, endpoint):
    assert load_config(_http_config(tmp_path, endpoint)).endpoint == endpoint


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


# Each option the toy config leaves out, spelled out at its documented default.
SPELLED_OUT_DEFAULTS = {
    "experiment": {"summarizer_model": "", "pool": "qrels", "pool_depth": "10"},
    "metrics": {"gain": "linear", "ndcg_k": "10", "rbo_p": "0.9"},
    "gateway": {
        "endpoint": "", "api_key_env": "", "max_attempts": "5", "max_in_flight": "1", "cache": "",
    },
    "prompts": {"summary_template": "", "judge_template": ""},
}


def test_options_spelled_out_at_their_defaults_load_as_when_left_out(tmp_path):
    config_path = build_toy_experiment(tmp_path)
    text = config_path.read_text() + "[prompts]\n"
    for section, options in SPELLED_OUT_DEFAULTS.items():
        lines = "".join(f"{option} = {value}\n" for option, value in options.items())
        text = text.replace(f"[{section}]\n", f"[{section}]\n{lines}")
    spelled = tmp_path / "spelled.ini"
    spelled.write_text(text)
    parser = configparser.ConfigParser()
    parser.read_string(text)
    named = {(section, option) for section in parser.sections() for option in parser[section]}
    assert named == {(section, option) for section, options in SECTIONS.items() for option in options}
    assert load_config(spelled) == load_config(config_path)
    assert load_config(spelled).config_hash() == load_config(config_path).config_hash()


def test_summarizer_model_left_out_or_empty_is_the_first_model(tmp_path):
    config_path = build_toy_experiment(tmp_path)
    text = config_path.read_text().replace("models = mock-judge", "models = judge-a, judge-b")
    config_path.write_text(text)
    config = load_config(config_path)
    assert config.summarizer_model == "judge-a"
    config_path.write_text(text.replace("[experiment]\n", "[experiment]\nsummarizer_model =\n"))
    assert load_config(config_path) == config
    # judge --model replaces the models, and the summarizer stays the configured first model
    assert replace(config, models=["judge-b"]).summarizer_model == "judge-a"
    assert replace(config, models=["judge-b"], summarizer_model="").summarizer_model == "judge-b"


def _readme_config_block() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    quick_start = readme.split("## Quick start", 1)[1]
    return quick_start.split("```ini\n", 1)[1].split("```", 1)[0]


def test_readme_config_names_every_option_once_and_loads(tmp_path):
    block = _readme_config_block()
    named, section = [], None
    for line in block.splitlines():
        if header := re.fullmatch(r"\[(\w+)\]", line.strip()):
            section = header.group(1)
        elif option := re.match(r";?\s*(\w+)\s*=", line):  # commented-out options count
            named.append((section, option.group(1)))
    assert sorted(named) == sorted(
        (section, option) for section, options in SECTIONS.items() for option in options
    )
    (tmp_path / "config.ini").write_text(block)
    config = load_config(tmp_path / "config.ini")
    assert config.corpus == tmp_path / "corpus.jsonl"


@pytest.mark.parametrize(
    "section, line, named",
    [
        ("experiment", "binarize_treshold = 2", "option [experiment] binarize_treshold"),
        ("metrics", "bootstrap_sample = 50", "option [metrics] bootstrap_sample"),
        ("DEFAULT", "bogus = 1", "option [DEFAULT] bogus"),
        ("DEFAULT", "seed = 7", "option [DEFAULT] seed"),  # an option goes in its own section
        ("gateway", "summary_slack = 3.0", "option [gateway] summary_slack"),
        ("Metrics", "", "section [Metrics]"),
        ("bogus", "ndcg_k = 5", "section [bogus]"),
    ],
)
def test_an_unknown_section_or_option_is_a_config_error(tmp_path, capsys, section, line, named):
    # a misspelled option would otherwise leave its setting at its default, unseen
    config_path = build_toy_experiment(tmp_path)
    text, header = config_path.read_text(), f"[{section}]\n"
    added = f"{header}{line}\n"
    config_path.write_text(text.replace(header, added) if header in text else added + text)
    with pytest.raises(ConfigError, match=re.escape(named)):
        load_config(config_path)
    assert main(["run", "--config", str(config_path)]) == 2
    assert capsys.readouterr().err == f"config error: unknown {named} in {config_path}\n"
    assert not (tmp_path / "out").exists()
