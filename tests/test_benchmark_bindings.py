"""The traced benchmark wraps program functions by name, from outside the package.

``benchmarks/layers.instrument`` looks each traced function up where its
consumer binds it (``LipkinModel.hamiltonian_many``, ``zenodrive.cli.metric_many``
...).  Running it here makes a rename fail the test suite rather than the
traced benchmark run.  The benchmark files are only read.
"""
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_traced_benchmark_bindings_resolve_and_unwrap(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import layers
    from spans import Tracer

    import zenodrive.cli as cli
    from zenodrive.models import LipkinModel

    tracer = Tracer("bindings")
    try:
        layers.instrument(tracer)
        patched = list(tracer._patched)
    finally:
        tracer.unwrap_all()
    bound = {(owner, attr) for owner, attr, _ in patched}
    assert (LipkinModel, "hamiltonian_many") in bound
    assert (cli, "metric_many") in bound
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original
        if isinstance(owner, type):
            # a method the class only inherits would be wrapped where no caller looks
            assert original.__qualname__ == f"{owner.__qualname__}.{attr}"
