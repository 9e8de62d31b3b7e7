"""Experiment configuration documents.

A config is a JSON object with the keys game, learner, schedule, T, seeds
and out (default "."), e.g.

    {"game": {"name": "majority3"}, "learner": {"kind": "hedge", "eta": 1.0},
     "schedule": {"kind": "fixed", "y": [0.49, 0.51]}, "T": 10000,
     "seeds": {"count": 10, "base": 0}, "out": "results/"}

Each section has one parser (PARSERS), in the module that owns its format,
which takes only the fields its kind reads, each of its JSON type: T, seeds,
horizons and game sizes are integers (a bool or a float is refused), eta and
v_budget numbers.  Every problem is collected before refusing, so a config
error reports the full list at once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .arena import Schedule, schedule_from_json
from .games import SymmetricGame, check_fields, game_from_json, is_json
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
    if not is_json(value, int) or value < 1:
        raise ValueError(f"must be a positive integer, got {value!r}")
    return value


def seeds_from_json(doc) -> list[int]:
    """Seed documents (numpy's seeds, so ints >= 0): a non-empty list of distinct
    ints, or {"count": N, "base": B} for the N >= 1 seeds from B (default 0)."""
    if isinstance(doc, dict):
        check_fields(doc, ("count", "base"), "a seed range")
        count, base = doc.get("count"), doc.get("base", 0)
        if is_json(count, int) and count >= 1 and is_json(base, int) and base >= 0:
            return list(range(base, base + count))
    elif isinstance(doc, list) and doc and all(is_json(s, int) and s >= 0 for s in doc) and len(set(doc)) == len(doc):
        return doc
    raise ValueError(f"must be a non-empty list of distinct ints >= 0 or {{count >= 1, base >= 0}} of ints, got {doc!r}")


# every key but "out" (default ".") is required
PARSERS = {"game": game_from_json, "learner": learner_from_json, "schedule": schedule_from_json,
           "T": _positive_int, "seeds": seeds_from_json}


def parse_config(doc: dict) -> ExperimentConfig:
    if not is_json(doc, dict):
        raise ConfigError([f"a config must be a JSON object, got {doc!r}"])
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
