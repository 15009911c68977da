"""One compiled scipy module, loaded without its package.

The network and the Bayesian optimizer call three compiled scipy routines:
pocketfft's transforms, LAPACK's potrf/potrs/trtrs and L-BFGS-B's setulb.
Importing them through scipy.fft, scipy.linalg or scipy.optimize runs those
packages' __init__s, which load a few hundred modules the program never
calls. extension() loads the module's file alone, beside the top-level scipy
package (which places scipy's shared libraries), and registers it under its
real name, so a later `from scipy.linalg import _flapack` or `import
scipy.linalg` uses the same module object. (Until then the module is not an
attribute of its package: `scipy.linalg._flapack` resolves only through an
import statement.)
"""

import importlib.machinery
import importlib.util
import os
import sys

_EXTENSIONS = (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES)


def extension(name: str):
    """The compiled module `name`, e.g. "scipy.linalg._flapack"; ImportError if there is none."""
    module = sys.modules.get(name)
    if module is not None:
        return module
    import scipy

    directory = os.path.join(os.path.dirname(scipy.__file__), *name.split(".")[1:-1])
    spec = importlib.machinery.FileFinder(directory, _EXTENSIONS).find_spec(name)
    if spec is None:
        raise ImportError(f"no compiled module {name} in {directory}", name=name)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:  # as the import system does: no half-initialized module stays registered
        del sys.modules[name]
        raise
    return module
