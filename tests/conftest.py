import os
from pathlib import Path

import pytest

from specsiam.signals import BandComponent, generate_synthetic_cohort, save_dataset

SRC = Path(__file__).resolve().parent.parent / "src"


def pytest_configure(config):
    """Stop when PYTHONPATH names another specsiam tree: pyproject's pythonpath puts this
    checkout's src first, so the suite would silently test this tree instead of that one."""
    for entry in filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep)):
        package = Path(entry).resolve() / "specsiam"
        if package.is_dir() and package != SRC / "specsiam":
            pytest.exit(f"PYTHONPATH entry {entry} holds the specsiam package {package}, but these tests "
                        f"import {SRC / 'specsiam'}; run them from that package's own checkout", returncode=4)


@pytest.fixture(scope="session")
def paper_shape_manifest(tmp_path_factory):
    """84 subjects (45 case / 39 control), 16 channels, 60 s at 128 Hz on disk."""
    dataset = generate_synthetic_cohort(
        n_case=45,
        n_control=39,
        m_channels=16,
        duration_s=60.0,
        sample_rate_hz=128.0,
        noise_sigma=0.5,
        seed=20,
    )
    out = tmp_path_factory.mktemp("paper_shape")
    return save_dataset(dataset, out)


SEPARABLE_CASE = (BandComponent(2.0, 2.0, 3.0), BandComponent(10.0, 10.0, 0.3))
SEPARABLE_CONTROL = (BandComponent(2.0, 2.0, 0.3), BandComponent(10.0, 10.0, 3.0))


@pytest.fixture(scope="session")
def separable_cohort():
    """16 subjects whose class spectra differ strongly in the 2 Hz and 10 Hz tones."""
    return generate_synthetic_cohort(
        n_case=8,
        n_control=8,
        m_channels=2,
        duration_s=30.0,
        sample_rate_hz=64.0,
        class_profiles=(SEPARABLE_CASE, SEPARABLE_CONTROL),
        noise_sigma=0.3,
        seed=11,
    )


@pytest.fixture()
def tiny_cohort():
    return generate_synthetic_cohort(
        n_case=3,
        n_control=3,
        m_channels=2,
        duration_s=10.0,
        sample_rate_hz=64.0,
        noise_sigma=0.2,
        seed=1,
    )
