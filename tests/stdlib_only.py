"""Import every module of the monosing package and name the modules the
imports pulled in from outside the standard library.

Run as ``python tests/stdlib_only.py`` in a fresh interpreter; it exits 1
and lists them when there are any.  The modules loaded before the first
import are left out: site hooks may preload packages of their own.
"""

import sys

BEFORE = set(sys.modules)

import importlib  # noqa: E402
import pkgutil  # noqa: E402


def foreign_imports():
    """The top-level packages, outside the standard library and monosing,
    of the modules that importing every monosing module loaded."""
    import monosing

    for info in pkgutil.walk_packages(monosing.__path__, "monosing."):
        importlib.import_module(info.name)
    allowed = sys.stdlib_module_names | {"monosing"}
    return sorted({name.split(".")[0] for name in set(sys.modules) - BEFORE} - allowed)


if __name__ == "__main__":
    foreign = foreign_imports()
    if foreign:
        print("monosing imports modules outside the standard library:", *foreign)
        sys.exit(1)
    print("monosing imports only the standard library")
