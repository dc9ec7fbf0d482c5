import re
from pathlib import Path

from setuptools import find_packages, setup

# Single-source the version from the package (src/repro/__init__.py).
_INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
VERSION = re.search(
    r'^__version__ = "([^"]+)"', _INIT.read_text(encoding="utf-8"), re.M
).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "Reproduction of Mahoney's PODS 2012 'Approximate Computation "
        "and Implicit Regularization' with a batched diffusion engine, "
        "a parallel NCP runner, and the `repro` workbench CLI"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    # scipy 1.8 added maximum_flow(method=...), which MQI calls.
    install_requires=["numpy", "scipy>=1.8"],
    entry_points={
        "console_scripts": [
            "repro=repro.cli:main",
        ],
    },
)
