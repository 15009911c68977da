"""A process loads scipy only on the paths that call it.

Importing the package and the CLI loads no scipy module, and neither does a
training step whose convolutions all run direct. The first FFT-path
convolution loads scipy.fft, and the first GP fit loads scipy.linalg. Each
case runs in a fresh interpreter, since this test process has scipy loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def scipy_modules_after(code: str) -> list[str]:
    """The scipy modules in sys.modules once a fresh interpreter has run code."""
    report = "import json, sys\nprint(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    proc = subprocess.run([sys.executable, "-c", f"{code}\n{report}"], env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_package_and_the_cli_loads_no_scipy():
    assert scipy_modules_after("import specsiam, specsiam.cli") == []


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
    assert scipy_modules_after(code) == []


def test_an_fft_path_convolution_loads_scipy_fft():
    code = """
import numpy as np
from specsiam import siamese as S

w = np.ones((8, 8, 5, 5))  # fan-in 200 > DIRECT_CONV_MAX_FAN_IN
assert not S._is_direct(w)
S._conv_block(np.ones((2, 8, 20, 20)), w, np.zeros(8), True)
"""
    assert "scipy.fft" in scipy_modules_after(code)


def test_a_gp_fit_loads_scipy_linalg():
    code = """
import numpy as np
from specsiam import bayesopt

rng = np.random.default_rng(0)
bayesopt.gp_fit(rng.random((6, 2)), rng.random(6))
"""
    assert "scipy.linalg" in scipy_modules_after(code)
