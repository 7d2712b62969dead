"""Print the size counts that ROADMAP aim 2 tracks for src/thermocasimir.

    python tools/aim2_counts.py

- non-blank lines of src/thermocasimir/*.py;
- names in each module's ``__all__`` and their total;
- the size of the package root's ``__all__`` (0 when it has none);
- public parameters of every callable in a module ``__all__`` (a class counts
  as its constructor, ``self`` excluded) and how many of them are defaulted;
- the numerics knobs a configuration may set (``config.DEFAULT_NUMERICS``).

The package is imported from the src/ directory beside this script.
"""
import importlib
import inspect
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "thermocasimir"


def source_lines():
    return sum(1 for path in sorted(PACKAGE.glob("*.py"))
               for line in path.read_text().splitlines() if line.strip())


def parameters(obj):
    """(public, defaulted) parameters of a callable; (0, 0) for a constant."""
    if not callable(obj):
        return 0, 0
    params = [p for p in inspect.signature(obj).parameters.values()
              if p.name != "self"]
    return len(params), sum(p.default is not inspect.Parameter.empty for p in params)


def main():
    sys.path.insert(0, str(SRC))
    root = importlib.import_module("thermocasimir")
    modules = sorted(path.stem for path in PACKAGE.glob("*.py")
                     if not path.stem.startswith("_"))
    print(f"non-blank src lines: {source_lines()}")
    names = public = defaulted = 0
    for stem in modules:
        module = importlib.import_module(f"thermocasimir.{stem}")
        exported = getattr(module, "__all__", [])
        if exported:
            print(f"  thermocasimir.{stem}.__all__: {len(exported)}")
        names += len(exported)
        for name in exported:
            n_public, n_defaulted = parameters(getattr(module, name))
            public += n_public
            defaulted += n_defaulted
    print(f"module __all__ names: {names}")
    print(f"package __all__: {len(getattr(root, '__all__', []))}")
    print(f"public parameters: {public}")
    print(f"defaulted parameters: {defaulted}")
    config = importlib.import_module("thermocasimir.config")
    print(f"numerics knobs: {len(config.DEFAULT_NUMERICS)}")


if __name__ == "__main__":
    main()
