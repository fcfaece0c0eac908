"""Oracles of real accuracies, loaded only by ``explore --oracle table:<csv>``
(a measured-accuracy replay) and ``external:<cmd>`` (a command)."""

from __future__ import annotations

import json

from .errors import OracleError, UnknownModel, reading
from .explore import replacement_key
from .ir import ModelSpec, model_to_json


class TableOracle:
    """Replays measured accuracies keyed by the replacement vector (O/S string)."""

    def __init__(self, table: dict[str, float]):
        for key, accuracy in table.items():
            if not 0.0 <= accuracy <= 1.0:
                raise OracleError(f"table accuracy {accuracy} for replacement "
                                  f"vector {key!r} is outside [0, 1]")
        self.table = dict(table)

    @classmethod
    def from_csv(cls, path: str) -> "TableOracle":
        import csv
        table = {}
        with reading(path), open(path) as fh:
            for row in csv.DictReader(fh):
                table[row["replacement_vector"].strip()] = float(row["accuracy"])
        return cls(table)

    def evaluate(self, model: ModelSpec, budget: int = 1) -> float:
        key = replacement_key(model)
        if key not in self.table:
            raise UnknownModel(f"no table entry for replacement vector {key!r}")
        return self.table[key]


class ExternalOracle:
    """Shells out: the command receives the model JSON on stdin and prints
    an accuracy in [0, 1].  The command is split once (``shlex.split``): one
    that cannot be split or has no words is an OracleError."""

    def __init__(self, command: str):
        import shlex
        self.command = command
        try:
            self.argv = shlex.split(command)
        except ValueError as exc:
            raise OracleError(f"oracle command `{command}` failed: {exc}") from None
        if not self.argv:
            raise OracleError(f"oracle command `{command}` has no words")

    def evaluate(self, model: ModelSpec, budget: int = 1) -> float:
        import subprocess
        payload = json.dumps({"model": model_to_json(model), "budget": budget})
        try:
            proc = subprocess.run(self.argv, input=payload,
                                  capture_output=True, text=True, check=True)
            accuracy = float(proc.stdout.strip())
        except subprocess.CalledProcessError as exc:
            raise OracleError(f"oracle command `{self.command}` exited with "
                              f"status {exc.returncode}") from exc
        except (OSError, ValueError) as exc:
            raise OracleError(f"oracle command `{self.command}` failed: {exc}") from exc
        if not 0.0 <= accuracy <= 1.0:
            raise OracleError(f"oracle command `{self.command}` printed accuracy "
                              f"{accuracy}, outside [0, 1]")
        return accuracy
