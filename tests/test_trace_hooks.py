"""The benchmark's tracer (``perfbench/spans.py``) wraps kpotent callables
by name, where their callers look them up.  A name that moves would make
every traced benchmark run fail, so traced requests are run here: one of
each subcommand must record every span the benchmark's layer metrics read,
and the program must be left exactly as it was found."""

import importlib.util
from pathlib import Path

import kpotent
from kpotent import SquareMatrix, cli, potency, report, represent
from kpotent.algebra import AlgebraElement
from kpotent.fields import Lifted

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces():
    """Every kpotent module and every class defined in one."""
    modules = [m for m in vars(kpotent).values()
               if type(m) is type(kpotent) and m.__name__.startswith("kpotent.")]
    classes = {id(v): v for m in modules for v in vars(m).values()
               if isinstance(v, type) and v.__module__.startswith("kpotent.")}
    return modules + list(classes.values())


def _snapshot():
    return {id(space): dict(vars(space)) for space in _namespaces()}


def test_tracer_hooks_resolve_and_are_restored(capsys):
    spans = _load_spans()
    before = _snapshot()
    tracer = spans.Tracer()
    spans.install(tracer, kpotent)
    try:
        code = cli.main(["verify", "--field", "f5", "--algebra", "quat", "--params",
                         "-1,-1", "--coords", "2,3,1,3", "--matrices"])
    finally:
        tracer.uninstall()
    out = capsys.readouterr().out
    assert code == 0 and "left potency transport: ok" in out
    calls, _ = tracer.layers()
    assert calls["cli"] == 1 and calls["potency.classify"] == 1
    assert calls["represent.rep"] == 2 and calls["represent.matmul"] > 0
    assert calls["fields.parse"] > 0
    # every patched attribute is back, and no wrapper is left behind
    after = _snapshot()
    assert after.keys() == before.keys()
    for key, names in before.items():
        assert names.keys() == after[key].keys()
        assert all(after[key][name] is value for name, value in names.items())
    assert AlgebraElement.__mul__ is Lifted.__mul__
    assert SquareMatrix.__mul__ is SquareMatrix.__matmul__ is Lifted.__mul__
    assert cli.classify is potency.classify
    assert report.left_rep is cli.left_rep is represent.left_rep


# one request of each subcommand, shaped like the benchmark's workloads
REQUESTS = [
    ["verify", "--field", "f13", "--algebra", "oct", "--params", "-1,-1,-1",
     "--coords", "2,1,0,3,0,0,4,1", "--matrices", "--format", "json"],
    ["rep", "--field", "q[sqrt2]", "--params", "1,-1", "--coords", "1,1/2,0,1s",
     "--rep", "rho"],
    ["generate", "rotor", "--k", "5", "--direction", "1,0,0", "--field", "q[sqrt5]",
     "--format", "json"],
    ["generate", "idempotent", "--field", "q", "--params", "1,1",
     "--direction", "1,1,1"],
    ["search", "--field", "f11", "--params", "2,3", "--format", "csv"],
    ["search", "--field", "f5", "--algebra", "oct", "--params", "-1,-1,-1",
     "--mode", "sample", "--budget", "200", "--seed", "7", "--format", "csv"],
    ["paper-report", "--format", "json"],
]

# the span names that perfbench/spans.py's layer_metrics reads
LAYER_SPANS = (
    "cli", "fields.parse", "algebra.mul", "represent.rep", "represent.matmul",
    "represent.block_check", "potency.classify", "potency.generate",
    "search.exhaustive", "search.sample", "rng.below", "report",
)


def test_every_subcommand_records_every_layer_span():
    spans = _load_spans()
    tracer = spans.Tracer()
    spans.install(tracer, kpotent)
    try:
        codes = [cli.main(argv) for argv in REQUESTS]
    finally:
        tracer.uninstall()
    assert codes == [0] * len(REQUESTS)
    calls, _ = tracer.layers()
    assert set(tracer.names) == set(LAYER_SPANS)
    assert {name for name in LAYER_SPANS if not calls.get(name)} == set()
    metrics = spans.layer_metrics(tracer, 1.0)
    for name in ("search.exhaustive.elements", "search.sample.draws",
                 "algebra.cd_mul.calls", "fields.elem_ops", "report.findings"):
        assert metrics[name] > 0, name
