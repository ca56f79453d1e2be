import importlib.util
from pathlib import Path

import numpy as np
import pytest

from splab.energy import FractionalParams
from splab.patches import PatchModel


@pytest.fixture(scope="session")
def params_main() -> FractionalParams:
    return FractionalParams(s=0.4, p=2.5)


@pytest.fixture(scope="session")
def model_main(params_main) -> PatchModel:
    return PatchModel(params_main, workers=2)


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(20240)


@pytest.fixture(scope="session")
def compare_reports():
    """The module of scripts/compare_reports.py."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "compare_reports.py"
    spec = importlib.util.spec_from_file_location("compare_reports", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
