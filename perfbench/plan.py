"""Seeded job plans for the four workloads.

A plan is a fixed list of job slots. Every round of a run executes each
slot once, in an order shuffled per round. The seed picks the free
parameters of each slot (sizes inside the slot's band,
Morse seeds, the cut vertex, the over-cap sizes) and the orders. Bands
are narrow where cost grows fast with size, so that the cost of a round,
and with it every end-to-end metric, depends little on the seed.

Large-incidence slots alternate between a recipe argument and a JSON
file written by `gen` during set-up, so that each slot takes both paths
once every two rounds and half of all polytopes arrive as JSON.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

import oracle
from oracle import Shape

WORKLOADS = ("corpus-verify", "large-incidence", "min-distance", "screen-weights")

SUITES = ("all", "colorability", "selfdual", "duality", "morse", "screen", "conjecture")

# Percentile reported as job_tail_s, fixed per workload so that a faster
# program, which only adds samples, is compared at the same percentile.
# Each leaves at least ten samples beyond it at the seed commit, and each
# falls inside one job class of its round rather than on the boundary
# between two classes of different cost, where it would jump.
TAIL_PERCENT = {
    "corpus-verify": 80,
    "large-incidence": 70,
    "min-distance": 75,
    "screen-weights": 75,
}


@dataclass(frozen=True)
class Job:
    """One unit of work: a CLI invocation or one call in the API session."""

    cmd: str
    shape: Shape | None = None
    k: int | None = None
    seed: int | None = None
    suite: str | None = None
    cases: tuple[tuple[int, int, bool], ...] = ()
    json_path: str | None = None  # set when the polytope arrives as a JSON file
    label: str = ""

    @property
    def source(self) -> str | None:
        if self.json_path:
            return self.json_path
        return self.shape.recipe if self.shape else None

    def argv(self) -> list[str]:
        """Arguments after `python -m polycodes.cli`."""
        if self.cmd == "verify":
            return ["verify", "--corpus", "--suite", self.suite, "--json"]
        out = [self.cmd, self.source]
        if self.k is not None:
            out += ["-k", str(self.k)]
        if self.seed is not None:
            out += ["--seed", str(self.seed)]
        return out + ["--json"]

    def spec(self) -> dict:
        """What a worker process needs to replay the job."""
        return {
            "cmd": self.cmd,
            "source": self.source,
            "json": self.json_path is not None,
            "k": self.k,
            "seed": self.seed,
            "suite": self.suite,
            "cases": [list(c) for c in self.cases],
        }


@dataclass
class Plan:
    workload: str
    seed: int
    slots: list[Job]
    api: bool = False
    json_slots: bool = False

    def __post_init__(self) -> None:
        # Which slots take the JSON path in even rounds.
        self._phase = random.Random(f"phase:{self.workload}:{self.seed}").randrange(2)

    def json_recipes(self) -> list[str]:
        return sorted({job.shape.recipe for job in self.slots}) if self.json_slots else []

    def round(self, r: int) -> list[Job]:
        """Jobs of round r, in a seeded order; the same (seed, r) gives the same list."""
        jobs = []
        for i, job in enumerate(self.slots):
            if job.cmd == "screen":
                cases = list(job.cases)
                random.Random(f"cases:{self.seed}:{r}:{i}").shuffle(cases)
                job = replace(job, cases=tuple(cases))
            if self.json_slots and (i + r + self._phase) % 2 == 0:
                job = replace(job, json_path=json_path(job.shape.recipe))
            jobs.append(job)
        random.Random(f"round:{self.workload}:{self.seed}:{r}").shuffle(jobs)
        return jobs


def json_path(recipe: str) -> str:
    slug = "".join(c if c.isalnum() else "_" for c in recipe)
    return f"perfbench/work/{slug}.json"


def _even_in(rng: random.Random, lo: int, hi: int) -> int:
    return 2 * rng.randint((lo + 1) // 2, hi // 2)


def _corpus_verify(rng: random.Random) -> list[Job]:
    return [Job("verify", suite=s, label=f"verify {s}") for s in SUITES]


def _large_incidence(rng: random.Random) -> list[Job]:
    def prism_job(cmd, lo, hi, **kw):
        return Job(cmd, oracle.prism(_even_in(rng, lo, hi)), label=f"{cmd} prism", **kw)

    def product_job(cmd, lo, hi, **kw):
        a, b = _even_in(rng, lo, hi), _even_in(rng, lo, hi)
        return Job(cmd, oracle.polygon_product(a, b), label=f"{cmd} product", **kw)

    return [
        # The cube family: the information, elimination and Morse paths at
        # 256 to 1024 vertices.
        Job("info", oracle.cube(10), label="info cube"),
        Job("code", oracle.cube(9), k=4, label="code cube"),
        Job("selfdual", oracle.cube(9), k=4, label="selfdual cube"),
        Job("morse", oracle.cube(8), k=4, seed=rng.randrange(1000), label="morse cube"),
        # Prisms over 200- to 600-gons: long, thin incidence. One band of
        # 100 per slot, so the seed moves a slot's cost by little.
        prism_job("info", 200, 300),
        prism_job("code", 300, 400, k=1),
        prism_job("selfdual", 400, 500, k=1),
        prism_job("morse", 500, 600, k=1, seed=rng.randrange(1000)),
        # Products of two even 20- to 40-gons: 4-dimensional, 400 to 1600
        # vertices, again one narrow band per slot.
        product_job("code", 20, 26, k=2),
        product_job("morse", 28, 34, k=1, seed=rng.randrange(1000)),
        product_job("info", 34, 40),
        # Odd prisms are not colorable, so the coloring search is exhaustive.
        *(Job("color", oracle.prism(m), label=f"color prism {m}") for m in (15, 17, 19)),
    ]


def _min_distance(rng: random.Random) -> list[Job]:
    jobs = [Job("mindist", oracle.prism(m), k=1, label=f"mindist prism {m}") for m in range(16, 23)]
    jobs += [
        Job("mindist", oracle.cube(5), k=2, label="mindist RM(2,5)"),
        Job("mindist", oracle.cube(6), k=2, label="mindist RM(2,6)"),
        Job("mindist", oracle.square_times_cube(3), k=2, label="mindist square x cube 3"),
        # All vertices of the cube are alike, so the cut vertex changes the
        # input but not the answer or the cost.
        Job("mindist", oracle.cut_cube(5, rng.randrange(32)), k=2, label="mindist vcut cube 5"),
        # Known answers above the enumeration cap: refused at the seed commit.
        Job("mindist", oracle.prism(_even_in(rng, 200, 260)), k=1, label="mindist over-cap prism"),
        Job("mindist", oracle.polygon(_even_in(rng, 62, 80)), k=1, label="mindist over-cap polygon"),
    ]
    return jobs


def screen_grid() -> list[tuple[int, int, bool]]:
    """The screen_grid sweep: even lengths up to 40, even distances up to 12."""
    return [
        (l, d, de)
        for de in (False, True)
        for l in range(2, 41, 2)
        for d in range(2, min(12, l) + 1, 2)
    ]


def _screen_weights(rng: random.Random) -> list[Job]:
    grid = tuple(screen_grid())
    jobs = [Job("screen", cases=grid, label="screen sweep") for _ in range(2)]
    jobs += [Job("weights", oracle.prism(m), k=1, label=f"weights prism {m}") for m in range(16, 21)]
    jobs += [
        Job("weights", oracle.cube(5), k=2, label="weights RM(2,5)"),
        Job("weights", oracle.cube(6), k=2, label="weights RM(2,6)"),
    ]
    return jobs


_SLOT_LISTS = {
    "corpus-verify": _corpus_verify,
    "large-incidence": _large_incidence,
    "min-distance": _min_distance,
    "screen-weights": _screen_weights,
}


def make_plan(workload: str, seed: int) -> Plan:
    rng = random.Random(f"sizes:{workload}:{seed}")
    return Plan(
        workload=workload,
        seed=seed,
        slots=_SLOT_LISTS[workload](rng),
        api=workload == "screen-weights",
        json_slots=workload == "large-incidence",
    )
