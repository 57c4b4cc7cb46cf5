"""The package's public surface is the layers, as the README lists them.

``import nomalink`` gives the configs, the transmit, channel and receive
layer functions and the two runs. Each layer module's ``__all__`` holds its
share of those names and its public constants; the command-line front end,
``nomalink.cli``, is not a layer and keeps its own entry points.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import nomalink

README = Path(__file__).resolve().parents[1] / "README.md"
FRONT_ENDS = {"cli", "__main__"}


def _readme_surface():
    """(module, name) of each name in the list under README "Library use", in order."""
    section = README.read_text().split("## Library use", 1)[1]
    listing = re.search(r"^- `.*?(?=\n\n)", section, re.M | re.S).group(0)
    surface = []
    for item in re.split(r"^- ", listing, flags=re.M)[1:]:
        module, names = item.split(":", 1)
        surface += [(module.strip("`"), name) for name in re.findall(r"`(\w+)`", names)]
    return surface


def _layer_modules():
    names = [m.name for m in pkgutil.iter_modules(nomalink.__path__)]
    return [importlib.import_module(f"nomalink.{n}") for n in names if n not in FRONT_ENDS]


def test_the_package_exports_the_readme_list_in_order():
    names = [name for _, name in _readme_surface()]
    assert len(names) == 21
    assert nomalink.__all__ == ["__version__", *names]


def test_every_exported_name_resolves_to_its_module_export():
    for module_name, name in _readme_surface():
        module = importlib.import_module(f"nomalink.{module_name}")
        assert name in module.__all__, f"{module_name}.{name}"
        assert getattr(nomalink, name) is getattr(module, name)
    assert isinstance(nomalink.__version__, str)


def test_a_layer_module_exports_only_package_names_and_constants():
    modules = _layer_modules()
    assert {m.__name__ for m in modules} >= {
        f"nomalink.{m}" for m in ("channel", "frame_codec", "noma", "receiver", "scenario")
    }
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
            assert name in nomalink.__all__ or name.isupper(), f"{module.__name__}.{name}"
