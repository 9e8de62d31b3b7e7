"""Experiment configuration documents.

A config is a JSON object:

    {
      "game": {"name": "majority3"} | {"name": "sdg", "n": 30} | {"custom": ...},
      "learner": {"kind": "hedge" | "saol" | "clone", "eta": 1.0, "rule": "sqrt_decay"},
      "schedule": {"kind": "fixed", "y": [0.49, 0.51]},
      "T": 10000,
      "seeds": [0, 1, 2] | {"count": 10, "base": 0},
      "out": "results/"
    }

Validation collects every problem before refusing, so a config error
reports the full list at once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .arena import Schedule, schedule_from_json
from .games import SymmetricGame, game_from_json
from .learners import LearnerSpec


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


def parse_config(doc: dict) -> ExperimentConfig:
    problems = []
    game = learner = schedule = None

    if "game" not in doc:
        problems.append("missing 'game'")
    else:
        try:
            game = game_from_json(doc["game"])
        except Exception as exc:
            problems.append(f"game: {exc}")

    if "learner" not in doc:
        problems.append("missing 'learner'")
    else:
        spec = dict(doc["learner"])
        kind = spec.pop("kind", None)
        try:
            learner = LearnerSpec(
                kind,
                eta=float(spec.pop("eta", 1.0)),
                rule=spec.pop("rule", "sqrt_decay"),
                horizon=spec.pop("horizon", None),
            )
            if spec:
                problems.append(f"learner: unknown fields {sorted(spec)}")
        except Exception as exc:
            problems.append(f"learner: {exc}")

    if "schedule" not in doc:
        problems.append("missing 'schedule'")
    else:
        try:
            schedule = schedule_from_json(doc["schedule"])
        except Exception as exc:
            problems.append(f"schedule: {exc}")

    T = doc.get("T")
    if not isinstance(T, int) or T < 1:
        problems.append(f"T must be a positive integer, got {T!r}")

    seeds_doc = doc.get("seeds")
    seeds: list[int] = []
    if isinstance(seeds_doc, list) and seeds_doc and all(isinstance(s, int) for s in seeds_doc):
        seeds = seeds_doc
    elif isinstance(seeds_doc, dict) and isinstance(seeds_doc.get("count"), int) and seeds_doc["count"] > 0:
        base = int(seeds_doc.get("base", 0))
        seeds = list(range(base, base + seeds_doc["count"]))
    else:
        problems.append(f"seeds must be a non-empty list of ints or {{count, base}}, got {seeds_doc!r}")

    if problems:
        raise ConfigError(problems)
    return ExperimentConfig(game, learner, schedule, T, seeds, doc.get("out", "."))


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(json.load(fh))
