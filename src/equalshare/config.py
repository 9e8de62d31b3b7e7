"""Experiment configuration documents.

A config is a JSON object with the keys game, learner, schedule, T, seeds
and out (default "."), e.g.

    {"game": {"name": "majority3"}, "learner": {"kind": "hedge", "eta": 1.0},
     "schedule": {"kind": "fixed", "y": [0.49, 0.51]}, "T": 10000,
     "seeds": {"count": 10, "base": 0}, "out": "results/"}

Each section has one parser (PARSERS), in the module that owns its format,
which takes only the fields its kind reads.  Every problem is collected
before refusing, so a config error reports the full list at once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .arena import Schedule, schedule_from_json
from .games import SymmetricGame, check_fields, game_from_json
from .learners import LearnerSpec, learner_from_json


class ConfigError(ValueError):
    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@dataclass
class ExperimentConfig:
    game: SymmetricGame
    learner: LearnerSpec
    schedule: Schedule
    T: int
    seeds: list[int]
    out: str = "."


def _positive_int(value) -> int:
    if not isinstance(value, int) or value < 1:
        raise ValueError(f"must be a positive integer, got {value!r}")
    return value


def seeds_from_json(doc) -> list[int]:
    """Seed documents: a non-empty list of ints, or {"count": N, "base": B}
    for the N >= 1 seeds from the int B (default 0)."""
    if isinstance(doc, dict):
        check_fields(doc, ("count", "base"), "a seed range")
        count, base = doc.get("count"), doc.get("base", 0)
        if isinstance(count, int) and count >= 1 and isinstance(base, int):
            return list(range(base, base + count))
    elif isinstance(doc, list) and doc and all(isinstance(s, int) for s in doc):
        return doc
    raise ValueError(f"must be a non-empty list of ints or {{count, base}} of ints, count >= 1, got {doc!r}")


# every key but "out" (default ".") is required
PARSERS = {"game": game_from_json, "learner": learner_from_json, "schedule": schedule_from_json,
           "T": _positive_int, "seeds": seeds_from_json}


def parse_config(doc: dict) -> ExperimentConfig:
    problems = []
    unknown = sorted(set(doc) - {*PARSERS, "out"})
    if unknown:
        problems.append(f"unknown top-level fields {unknown}")
    parsed = {}
    for key, parse in PARSERS.items():
        if key not in doc:
            problems.append(f"missing {key!r}")
            continue
        try:
            parsed[key] = parse(doc[key])
        except Exception as exc:  # every problem is reported, not just the first
            problems.append(f"{key}: {exc}")
    if problems:
        raise ConfigError(problems)
    return ExperimentConfig(**parsed, out=doc.get("out", "."))


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(json.load(fh))
