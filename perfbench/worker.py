"""Benchmark-owned worker processes that call polycodes' Python API.

    python perfbench/worker.py api [--trace]   long-lived API session
    python perfbench/worker.py replay SPEC     one traced replay of a CLI job

Both need `src` on PYTHONPATH. The API session reads one JSON job per
line on stdin and answers one JSON line per job on stdout, with the
call-to-return time of the job. The replay runs one CLI job's public
functions bottom-up (polytope, then faces, then codes, then checks), so
that each call finds the layers below it cached and holds mostly its own
layer's work, and prints the recorded spans as one JSON object.

Tracing wraps the public functions named in LAYERS wherever a polycodes
module binds them, so a call a report makes internally is recorded as a
child span of the report. Spans live in memory until the job ends.
Counts come only from returned values.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path

import polycodes  # noqa: F401  (imports every module before install)
from polycodes.constructors import parse_recipe
from polycodes.errors import BudgetExceeded

# (module, function, span name)
LAYERS = (
    ("polytope", "polytope_from_json", "polytope.from_json"),
    ("polytope", "faces_of_codim", "polytope.faces_of_codim"),
    ("polytope", "fh_vectors", "polytope.fh_vectors"),
    ("polytope", "vertex_neighbors", "polytope.vertex_neighbors"),
    ("facecodes", "face_code", "facecodes.face_code"),
    ("gf2", "is_self_dual", "gf2.is_self_dual"),
    ("gf2", "min_distance", "gf2.min_distance"),
    ("gf2", "weight_enumerator", "gf2.weight_enumerator"),
    ("facecodes", "find_coloring", "facecodes.find_coloring"),
    ("facecodes", "colorability_report", "facecodes.colorability_report"),
    ("facecodes", "self_duality_report", "facecodes.self_duality_report"),
    ("morse", "generic_height", "morse.generic_height"),
    ("morse", "vertex_indices", "morse.vertex_indices"),
    ("morse", "extract_basis", "morse.extract_basis"),
    ("screen", "realizability_screen", "screen.realizability_screen"),
)

# The seed commit's exhaustive-enumeration cap. Codewords an exhaustive
# walk visits are counted for codes up to this dimension only, so the
# count keeps its meaning when a later algorithm answers larger codes.
EXHAUSTIVE_DIM = 28


class Tracer:
    """Spans as [name, start, end, parent index]; counts by metric name."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}

    def span(self, name: str, fn, *args):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else None])
        self.stack.append(index)
        try:
            return fn(*args)
        finally:
            self.stack.pop()
            self.spans[index][2] = time.perf_counter()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def take(self) -> dict:
        out = {"spans": self.spans, "counts": self.counts}
        self.spans, self.counts = [], {}
        return out


class Untraced:
    def span(self, name, fn, *args):
        return fn(*args)

    def count(self, name, n=1):
        pass


def install(tracer: Tracer) -> dict[str, object]:
    """Wrap every layer function in every polycodes module that binds it.

    Returns the unwrapped functions by span name.
    """
    modules = [m for name, m in sys.modules.items() if name == "polycodes" or name.startswith("polycodes.")]
    originals = {}
    for mod_name, fn_name, span_name in LAYERS:
        original = getattr(importlib.import_module(f"polycodes.{mod_name}"), fn_name)
        originals[span_name] = original

        def wrapper(*args, _fn=original, _name=span_name):
            return tracer.span(_name, _fn, *args)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
    return originals


class Layers:
    """The public functions, reached through their modules so that wrapped ones are traced."""

    def __init__(self, tracer, originals) -> None:
        self.t = tracer
        self.traced = isinstance(tracer, Tracer)
        self.faces_unwrapped = originals.get("polytope.faces_of_codim")
        self.pt = importlib.import_module("polycodes.polytope")
        self.fc = importlib.import_module("polycodes.facecodes")
        self.gf2 = importlib.import_module("polycodes.gf2")
        self.morse = importlib.import_module("polycodes.morse")
        self.screen = importlib.import_module("polycodes.screen")
        self.verify = importlib.import_module("polycodes.verify")
        self.corpus = importlib.import_module("polycodes.corpus")

    def load(self, spec):
        if spec["json"]:
            P = self.pt.polytope_from_json(Path(spec["source"]).read_text())
        else:
            P = self.build(spec["source"])
        return P

    def build(self, recipe):
        """Build from recipe text, or from a parsed Recipe as the corpus holds it."""
        if isinstance(recipe, str):
            P = self.t.span("constructors.build", lambda: parse_recipe(recipe).build())
        else:
            P = self.t.span("constructors.build", recipe.build)
        self.t.count("constructors.build.vertices", P.num_vertices)
        return P

    def faces(self, P, ks) -> None:
        for k in ks:
            faces = self.pt.faces_of_codim(P, k)
            self.t.count("polytope.faces_of_codim.faces", len(faces))
            if not self.traced:
                continue
            start = time.perf_counter()
            self.faces_unwrapped(P, k)
            self.t.count("polytope.faces_of_codim.hit_s", time.perf_counter() - start)
            self.t.count("polytope.faces_of_codim.hit_calls")

    def codes(self, P, ks):
        out = []
        for k in ks:
            fc = self.fc.face_code(P, k)
            self.t.count("facecodes.face_code.generators", len(fc.faces))
            self.t.count("facecodes.face_code.rank", fc.code.dim)
            out.append(fc)
        return out

    def exhaustive(self, metric: str, code) -> None:
        if code.dim <= EXHAUSTIVE_DIM:
            self.t.count(metric, 2**code.dim - 1)


def replay(layers: Layers, spec: dict) -> None:
    """Run one CLI subcommand's public functions bottom-up."""
    cmd, k = spec["cmd"], spec.get("k")
    if cmd == "verify":
        replay_verify(layers, spec["suite"])
        return
    if cmd == "probe":
        replay_probe(layers)
        return
    P = layers.load(spec)
    n = P.dim
    everything = range(n + 1)
    if cmd == "info":
        layers.faces(P, everything)
        layers.pt.fh_vectors(P)
        layers.pt.is_even(P)
    elif cmd == "code":
        layers.faces(P, [k])
        (fc,) = layers.codes(P, [k])
        layers.gf2.is_self_dual(fc.code)
    elif cmd == "selfdual":
        layers.faces(P, range(k, min(2 * k, n) + 1))
        layers.codes(P, [k])
        layers.fc.self_duality_report(P, k)
    elif cmd == "mindist":
        layers.faces(P, [k])
        (fc,) = layers.codes(P, [k])
        layers.exhaustive("gf2.min_distance.codewords_exhaustive", fc.code)
        try:
            layers.gf2.min_distance(fc.code)
        except BudgetExceeded:
            layers.t.count("gf2.min_distance.refused")
    elif cmd == "color":
        layers.faces(P, everything)
        if n >= 3:
            layers.codes(P, everything)
            layers.fc.colorability_report(P)
        else:
            layers.fc.find_coloring(P)
    elif cmd == "morse":
        layers.faces(P, everything)
        layers.pt.vertex_neighbors(P)
        layers.pt.fh_vectors(P)
        if layers.pt.is_even(P):
            layers.codes(P, [k])
        phi = layers.morse.generic_height(P, spec["seed"])
        layers.morse.vertex_indices(P, phi)
        layers.morse.index_histogram(P, phi)
        layers.morse.extract_basis(P, phi, k)
    else:
        raise ValueError(f"no replay for {cmd!r}")


def replay_verify(layers: Layers, suite: str) -> None:
    subjects = [(entry.label, layers.build(entry.recipe)) for entry in layers.corpus.corpus()]
    names = {suite} if suite != "all" else {"colorability", "selfdual", "duality", "morse", "conjecture"}
    # Warm only what the chosen suites read, so the replay does the job's work.
    for _, P in subjects:
        even = layers.pt.is_even(P)
        needs_codes = names & {"colorability", "selfdual", "conjecture"} or ("duality" in names and even)
        if names - {"screen"}:
            layers.faces(P, range(P.dim + 1))
        if names & {"selfdual", "morse"}:
            layers.pt.fh_vectors(P)
        if "morse" in names and P.coords is not None:
            layers.pt.vertex_neighbors(P)
        if needs_codes:
            layers.codes(P, range(P.dim + 1))
    layers.t.span(f"verify.run_suite.{suite}", layers.verify.run_suite, suite, subjects)


def replay_probe(layers: Layers) -> None:
    """Call every layer once on small inputs.

    A traced round ends with this job, so that every layer reads a
    measured time on every workload, never a constant zero. Its few
    milliseconds per layer are the floor of each reading.
    """
    P = layers.pt.polytope_from_json(layers.pt.polytope_to_json(layers.build("prism 4")))
    layers.faces(P, range(P.dim + 1))
    layers.pt.fh_vectors(P)
    layers.pt.vertex_neighbors(P)
    (fc,) = layers.codes(P, [1])
    layers.gf2.is_self_dual(fc.code)
    layers.gf2.min_distance(fc.code)
    layers.gf2.weight_enumerator(fc.code)
    layers.fc.colorability_report(P)
    layers.fc.self_duality_report(P, 1)
    phi = layers.morse.generic_height(P, 0)
    layers.morse.vertex_indices(P, phi)
    layers.morse.extract_basis(P, phi, 1)
    layers.screen.realizability_screen(8, 4, True)
    for suite in layers.verify.SUITES:
        layers.t.span(f"verify.run_suite.{suite}", layers.verify.run_suite, suite, [("prism 4", P)])


def api_call(layers: Layers, spec: dict):
    """One API job; returns its JSON-able result."""
    if spec["cmd"] == "probe":
        replay_probe(layers)
        return {}
    if spec["cmd"] == "screen":
        results = []
        for l, d, de in spec["cases"]:
            verdict = layers.screen.realizability_screen(l, d, de)
            layers.t.count("screen.realizability_screen.witnesses", verdict.witness is not None)
            results.append([l, d, de, verdict.status, verdict.witness.text() if verdict.witness else None])
        return {"results": results}
    P = layers.build(spec["source"])
    if layers.traced:
        layers.faces(P, [spec["k"]])
        (fc,) = layers.codes(P, [spec["k"]])
    else:
        fc = layers.fc.face_code(P, spec["k"])
    layers.exhaustive("gf2.weight_enumerator.codewords_exhaustive", fc.code)
    we = layers.gf2.weight_enumerator(fc.code)
    return {"counts": {str(w): c for w, c in we.counts.items()}, "doubly_even": we.doubly_even}


def serve(trace: bool) -> int:
    tracer = Tracer() if trace else Untraced()
    layers = Layers(tracer, install(tracer) if trace else {})
    for line in sys.stdin:
        spec = json.loads(line)
        start = time.perf_counter()
        result = api_call(layers, spec)
        elapsed = time.perf_counter() - start
        reply = {"elapsed": elapsed, "result": result}
        if trace:
            reply["trace"] = tracer.take()
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["api"]:
        return serve(trace="--trace" in argv[1:])
    if argv[:1] == ["replay"] and len(argv) == 2:
        tracer = Tracer()
        layers = Layers(tracer, install(tracer))
        replay(layers, json.loads(argv[1]))
        sys.stdout.write(json.dumps(tracer.take()))
        return 0
    print(__doc__, file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
