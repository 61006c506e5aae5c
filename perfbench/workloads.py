"""Seeded job decks for the two benchmark workloads.

Each workload is a fixed *deck* of CLI jobs.  The deck's shape (which
spectral families, step counts and level counts appear, and in what
order) is the same for every seed, so run-to-run cost stays comparable;
the seed draws the physical parameters inside each slot.  The same seed
gives byte-identical INI files.  The timed loop cycles through the deck.

Deck shapes and why:

* ``rates`` -- ``mlsbath rates`` on the three-level system.  Five
  trajectory slots use rectangular and Lorentzian spectra, whose
  correlator is closed form, so history-sum stepping dominates: two at
  n = 2500 steps and three at n = 5000.  Three power-Gaussian slots
  (ohmicity -1, 0 and 1) build a 51-point correlator table (dt = 0.01,
  t_max = 0.5) by per-point adaptive quadrature, which dominates their
  cost.  Sorted by cost, the n = 2500 jobs hold the median and the
  n = 5000 jobs the 75th percentile.
* ``rpa`` -- ``mlsbath rpa`` on three-level and multilevel (M <= 10)
  systems with all three families.  Slots are labelled ``off-resonant``
  (a rectangular support holding no pole of any channel) or
  ``in-support`` (a pole inside or at the edge of the support; every
  Lorentzian and power-Gaussian density has one).  Sorted by cost, the
  Lorentzians hold the median and the three-level power-Gaussians p75,
  each in the middle of its group.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("rates", "rpa")
DEFAULT_SEED = 0

OFF_RESONANT = "off-resonant"
IN_SUPPORT = "in-support"


@dataclass(frozen=True)
class Job:
    """One CLI invocation: ``mlsbath <command> --config <ini> --out <dir>``."""

    workload: str
    index: int
    command: str
    ini: str
    label: str = ""

    @property
    def name(self) -> str:
        return f"{self.workload}-{self.index:02d}"

    def argv(self, config: Path, out: Path) -> list[str]:
        return [self.command, "--config", str(config), "--out", str(out)]


def _num(x: float) -> str:
    """Short, exact text for a drawn parameter (six decimals)."""
    return repr(round(float(x), 6))


def _ini(sections: list[tuple[str, list[tuple[str, object]]]]) -> str:
    lines = []
    for name, items in sections:
        lines.append(f"[{name}]")
        lines += [f"{key} = {value}" for key, value in items]
        lines.append("")
    return "\n".join(lines)


def _three_level() -> tuple[str, list]:
    return ("system", [("kind", "three-level")])


def _multilevel(levels: int) -> tuple[str, list]:
    return ("system", [("kind", "multilevel"), ("levels", levels), ("delta", "8.0")])


def _rect_or_lor(kind: str, area: float, center: float, width: float) -> tuple[str, list]:
    return (
        "spectrum",
        [("kind", kind), ("area", _num(area)), ("center", _num(center)), ("width", _num(width))],
    )


def _power_gaussian(area: float, ohmicity: int, cutoff: float) -> tuple[str, list]:
    return (
        "spectrum",
        [
            ("kind", "power-gaussian"),
            ("area", _num(area)),
            ("ohmicity", ohmicity),
            ("cutoff", _num(cutoff)),
        ],
    )


def _evolution(t_max: float, dt: float, t_lo: float) -> list[tuple[str, list]]:
    return [
        ("evolution", [("t_max", t_max), ("dt", dt), ("corrector_iterations", 2)]),
        ("fit", [("t_lo", t_lo), ("t_hi", t_max)]),
    ]


def _rates(rng: random.Random) -> list[tuple[str, str, str]]:
    # Sorted by cost, the deck has three groups, each at least twice as
    # costly as the one below: three power-Gaussian jobs (ranks 1-3,
    # ~0.35 s), two n = 2500 trajectories (ranks 4-5, ~0.8 s) and three
    # n = 5000 trajectories (ranks 6-8, ~1.9 s).  The median falls in the
    # middle of the n = 2500 group and p75 inside the n = 5000 group, so
    # neither jumps between groups as the machine's speed drifts.  The
    # kinds alternate so that all see the same stretches of machine
    # time.  A power-Gaussian slot's quadrature cost depends on its
    # cutoff, so the cutoff varies by only 3% around the slot's base value.
    slots = [
        ("rectangular", 2500), (-1, 1.5), ("rectangular", 5000), (0, 2.5),
        ("lorentzian", 2500), ("lorentzian", 5000), (1, 1.5), ("rectangular", 5000),
    ]
    deck = []
    for kind, size in slots:
        if isinstance(kind, str):
            area = rng.uniform(2.0, 10.0)
            center = rng.uniform(-2.0, 6.0)
            width = rng.uniform(4.0, 12.0)
            spectrum = _rect_or_lor(kind, area, center, width)
            evolution = _evolution(2.5, 2.5 / size, 1.0)
        else:
            spectrum = _power_gaussian(10.0, kind, size * rng.uniform(0.97, 1.03))
            evolution = _evolution(0.5, 0.01, 0.2)
        deck.append(("rates", _ini([_three_level(), spectrum] + evolution), ""))
    return deck


def _rpa(rng: random.Random) -> list[tuple[str, str, str]]:
    # Poles: three-level at omega = 0, 1, 2; M levels up to omega = M - 1.
    # The quadrature cost and the outcome class depend on where the
    # center (or cutoff) sits, so each slot jitters it by 3% around a
    # base value chosen inside a region where the outcome does not flip.
    area = 5.0 * math.pi

    def near(base: float) -> float:
        return base * rng.uniform(0.97, 1.03)

    def rect(system, center, label):
        spectrum = _rect_or_lor("rectangular", area, near(center), 1.0)
        return ("rpa", _ini([system, spectrum]), label)

    def lor(center):
        spectrum = _rect_or_lor("lorentzian", area, near(center), 1.0)
        return ("rpa", _ini([_three_level(), spectrum]), IN_SUPPORT)

    def pg(system, ohmicity, cutoff):
        spectrum = _power_gaussian(area, ohmicity, near(cutoff))
        return ("rpa", _ini([system, spectrum]), IN_SUPPORT)

    # Sorted by cost, the deck has four groups: six rectangular jobs
    # (ranks 1-6, 0.01-0.2 s), five Lorentzians (ranks 7-11, ~0.25 s),
    # five three-level power-Gaussians (ranks 12-16, ~0.4 s) and two
    # M = 6 power-Gaussians (~1 s).  The median falls in the middle of
    # the Lorentzians and p75 in the middle of the three-level
    # power-Gaussians, so neither sits on the edge between two groups.
    # M = 6 is the largest power-Gaussian system: at M = 10 one job
    # costs ~2 s, a third of a whole deck.  M = 10 stays with an
    # off-resonant support.
    # Far-detuned Lorentzians are left out: whether their N comes back
    # positive flips as the center moves by 0.25, so valid_frac would
    # depend on the seed.
    return [
        rect(_three_level(), 7.0, OFF_RESONANT),
        lor(0.8),
        pg(_three_level(), -1, 2.5),
        rect(_multilevel(6), 11.0, OFF_RESONANT),
        lor(0.9),
        pg(_three_level(), 1, 3.0),
        rect(_three_level(), 0.8, IN_SUPPORT),
        pg(_multilevel(6), 0, 2.0),
        lor(1.0),
        rect(_three_level(), 9.0, OFF_RESONANT),
        pg(_three_level(), 0, 2.0),
        lor(1.1),
        rect(_multilevel(10), 15.0, OFF_RESONANT),
        pg(_three_level(), 0, 3.0),
        pg(_multilevel(6), 1, 3.0),
        lor(1.2),
        pg(_three_level(), 1, 2.5),
        rect(_three_level(), 10.0, OFF_RESONANT),
    ]


_BUILDERS = {"rates": _rates, "rpa": _rpa}


def make_deck(workload: str, seed: int) -> list[Job]:
    """The workload's job deck for ``seed``; raises KeyError for an unknown workload."""
    builder = _BUILDERS[workload]
    rng = random.Random(f"{workload}:{seed}")
    return [
        Job(workload, k, command, ini, label)
        for k, (command, ini, label) in enumerate(builder(rng))
    ]


def write_deck(deck: list[Job], directory: Path) -> list[Path]:
    """Write each job's INI file; returns the paths in deck order."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for job in deck:
        path = directory / f"{job.name}.ini"
        path.write_bytes(job.ini.encode())
        paths.append(path)
    return paths
