"""A process loads scipy only on the paths that call it, and then only the
compiled kernels it calls.

Importing the package and the CLI loads no scipy module, and neither does a
training step whose convolutions all run direct. The first FFT-path
convolution loads scipy's pocketfft module and the first GP fit loads the
LAPACK and L-BFGS-B modules, each beside the top-level scipy package (what
`import scipy` alone loads) and without scipy.fft, scipy.linalg or
scipy.optimize. Each case runs in a fresh interpreter, since this test
process has scipy loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from specsiam._scipy import extension

SRC = Path(__file__).resolve().parent.parent / "src"
POCKETFFT = "scipy.fft._pocketfft.pypocketfft"
FLAPACK = "scipy.linalg._flapack"
LBFGSB = "scipy.optimize._lbfgsb"


def scipy_modules_after(code: str) -> set[str]:
    """The scipy modules in sys.modules once a fresh interpreter has run code."""
    report = "import json, sys\nprint(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    proc = subprocess.run([sys.executable, "-c", f"{code}\n{report}"], env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


@pytest.fixture(scope="module")
def top_level_scipy() -> set[str]:
    modules = scipy_modules_after("import scipy")
    assert "scipy" in modules and not any(m.startswith(("scipy.fft", "scipy.linalg", "scipy.optimize"))
                                          for m in modules)
    return modules


def test_importing_the_package_and_the_cli_loads_no_scipy():
    assert scipy_modules_after("import specsiam, specsiam.cli") == set()


def test_a_direct_path_training_step_loads_no_scipy():
    # the criterion-7 net: 65x29 images, filters 4/8, k=3, so both convolutions run direct
    code = """
import numpy as np
from specsiam import siamese as S
from specsiam.pairing import PairExample

config = S.NetConfig(kernel_size=3, conv1_filters=4, conv2_filters=8, output_dim=4, epochs=1)
model = S.init_model(config, (65, 29))
assert S._is_direct(model.conv1_w) and S._is_direct(model.conv2_w)
rng = np.random.default_rng(0)
images = {(s, ch): rng.random((65, 29)) for s in ("a", "b", "c") for ch in (0, 1)}
pairs = [PairExample("a", other, ch, y) for other, y in (("b", 1), ("c", 0)) for ch in (0, 1)]
before = model.conv1_w.copy()
_, losses = S.train(model, pairs, images)
assert len(losses) == 1 and not np.array_equal(before, model.conv1_w)
"""
    assert scipy_modules_after(code) == set()


def test_an_fft_path_convolution_loads_pocketfft_alone(top_level_scipy):
    code = """
import numpy as np
from specsiam import siamese as S

w = np.ones((8, 8, 5, 5))  # fan-in 200 > DIRECT_CONV_MAX_FAN_IN
assert not S._is_direct(w)
S._conv_block(np.ones((2, 8, 20, 20)), w, np.zeros(8), True)
"""
    assert scipy_modules_after(code) == top_level_scipy | {POCKETFFT}


def test_a_gp_fit_loads_lapack_and_lbfgsb_alone(top_level_scipy):
    code = """
import numpy as np
from specsiam import bayesopt

rng = np.random.default_rng(0)
bayesopt.gp_fit(rng.random((6, 2)), rng.random(6))
"""
    assert scipy_modules_after(code) == top_level_scipy | {FLAPACK, LBFGSB}


def test_the_packages_imported_later_share_the_loaded_kernels():
    code = f"""
import numpy as np
from specsiam._scipy import extension

kernels = {{name: extension(name) for name in {[POCKETFFT, FLAPACK, LBFGSB]!r}}}
import scipy.fft, scipy.linalg, scipy.optimize
from scipy.fft._pocketfft import pypocketfft
from scipy.linalg import _flapack
from scipy.optimize import _lbfgsb
assert kernels == {{{POCKETFFT!r}: pypocketfft, {FLAPACK!r}: _flapack, {LBFGSB!r}: _lbfgsb}}
assert scipy.fft._pocketfft.basic.pfft is pypocketfft
assert scipy.linalg.lapack._flapack is _flapack
assert scipy.optimize._lbfgsb_py._lbfgsb is _lbfgsb
assert all(extension(name) is module for name, module in kernels.items())

x = np.arange(12.0).reshape(3, 4)
np.testing.assert_allclose(scipy.fft.irfft2(scipy.fft.rfft2(x), s=x.shape), x)
np.testing.assert_allclose(scipy.linalg.cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]), lower=True),
                           [[2.0, 0.0], [1.0, np.sqrt(2.0)]])
result = scipy.optimize.minimize(lambda v: ((v - 0.25) ** 2).sum(), np.zeros(2), method="L-BFGS-B",
                                 bounds=[(0.0, 1.0)] * 2)
np.testing.assert_allclose(result.x, [0.25, 0.25], atol=1e-6)
"""
    assert {"scipy.fft", "scipy.linalg", "scipy.optimize"} <= scipy_modules_after(code)


def test_a_missing_kernel_is_an_import_error_naming_it():
    with pytest.raises(ImportError, match="scipy.linalg._no_such_ext") as error:
        extension("scipy.linalg._no_such_ext")
    assert error.value.name == "scipy.linalg._no_such_ext"
