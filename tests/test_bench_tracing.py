"""The benchmark's span tracer must still find every function it wraps, so a
rename in ``ocran`` fails here rather than in a traced benchmark run."""

import importlib.util
import pathlib
import sys

import ocran.cli  # noqa: F401  (imports every traced module)

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def ocran_namespaces():
    """A copy of each loaded ocran module's attributes."""
    return {
        name: dict(vars(mod))
        for name, mod in sys.modules.items()
        if mod is not None and (name == "ocran" or name.startswith("ocran."))
    }


def test_tracer_wraps_every_layer_and_restores_the_originals():
    tracing = load_tracing()
    owners = {}
    for _, module_name, path, _ in tracing.LAYERS:
        owner_path, _, attr = path.rpartition(".")
        if owner_path:
            owner = getattr(sys.modules[module_name], owner_path)
            owners[path] = (owner, attr, owner.__dict__[attr])
    before = ocran_namespaces()

    tracer = tracing.Tracer()
    try:
        tracer.install()  # inside the try: a failed install is still undone
        for _, module_name, path, _ in tracing.LAYERS:
            owner_path, _, attr = path.rpartition(".")
            if owner_path:
                owner, attr, original = owners[path]
                assert owner.__dict__[attr].__wrapped__ is original, path
            else:
                wrapped = getattr(sys.modules[module_name], attr)
                assert wrapped.__wrapped__ is before[module_name][attr], path
        sys.modules["ocran.core"].enumerate_constraint_pairs(1, 1)
        assert len(tracer.name) == 1  # one span recorded
    finally:
        tracer.uninstall()

    after = ocran_namespaces()
    for name, namespace in before.items():
        for key, value in namespace.items():
            assert after[name][key] is value, f"{name}.{key} not restored"
    for path, (owner, attr, original) in owners.items():
        assert owner.__dict__[attr] is original, f"{path} not restored"
