import json
from pathlib import Path

import pytest

from fpaudit.challenge import RandomnessSource
from fpaudit.database import load_database
from fpaudit.simulator import LatencyModel, SimProviderConfig, load_sim_config, produce
from fpaudit.transport import make_loopback
from fpaudit.versions import parse_version

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"


@pytest.fixture(scope="session")
def db():
    return load_database((FIXTURES / "php_like_db.json").read_bytes())


@pytest.fixture(scope="session")
def sim_family():
    sim, _ = load_sim_config((FIXTURES / "php_like_sim_honest.json").read_bytes())
    return sim


@pytest.fixture
def honest_endpoints(sim_family):
    def factory(source: str, seed: int = 1, base_ms: float = 1.0, jitter_ms: float = 0.0):
        cfg = SimProviderConfig(
            src_version=parse_version(source),
            latency=LatencyModel(base_ms / 1000.0, jitter_ms / 1000.0),
            seed=seed,
        )
        return make_loopback(produce(sim_family, cfg))

    return factory


@pytest.fixture
def faker_endpoints(sim_family):
    sim, cfg = load_sim_config((FIXTURES / "php_like_sim_faker.json").read_bytes())
    return make_loopback(produce(sim, cfg))


@pytest.fixture
def rng():
    return RandomnessSource(seed=1234)


@pytest.fixture
def db_doc():
    """A fresh copy of the fixture database document, free to mutate."""
    return json.loads((FIXTURES / "php_like_db.json").read_text())
