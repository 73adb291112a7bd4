"""Exception hierarchy shared by every module in the package, and the JSON input rules."""

import json
from pathlib import Path


class AgstabError(Exception):
    """Base class for all package-specific failures."""


class InputError(AgstabError):
    """Malformed user input (files, JSON payloads, option values)."""


def read_json(source, what: str):
    """The JSON value in a file (a str or Path path, or a resources Traversable).

    The only reader of JSON files: read and decode failures are input errors.
    """
    if isinstance(source, str):
        source = Path(source)
    try:
        return json.loads(source.read_text(encoding="utf-8"))
    except OSError as exc:
        raise InputError(f"cannot read {what} {source}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise InputError(f"{what} {source} is not valid JSON: {exc}") from exc


def json_str(value, what: str) -> str:
    """value itself if it is a JSON string; anything else is an input error."""
    if not isinstance(value, str):
        raise InputError(f"{what} must be a string, got {value!r}")
    return value


def json_int(value, what: str) -> int:
    """value itself if it is a JSON integer; bools, floats and strings are input errors."""
    if type(value) is not int:
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value


def json_object(value, keys: tuple[str, ...], what: str) -> dict:
    """value itself if it is a JSON object with no key outside keys; anything else is an input error."""
    if not isinstance(value, dict):
        raise InputError(f"{what} must be an object, got {value!r}")
    for key in value:
        if key not in keys:
            raise InputError(f"{what} has an unknown key {key!r} (allowed: {', '.join(keys)})")
    return value


def json_list(value, what: str) -> list:
    """value itself if it is a JSON list (a tuple also passes); anything else is an input error."""
    if not isinstance(value, (list, tuple)):
        raise InputError(f"{what} must be a list, got {value!r}")
    return value


def json_int_list(value, what: str) -> tuple[int, ...]:
    """A JSON list of integers as a tuple; the first entry that is not one is an input error."""
    items = json_list(value, what)
    for x in items:
        if type(x) is not int:
            json_int(x, f"an entry of {what}")
    return tuple(items)


class ZeroConstantTerm(AgstabError):
    """Series inversion needs an invertible (nonzero) constant coefficient."""


class NonzeroConstant(AgstabError):
    """Plethystic exponential requires a series with zero constant term."""


class NonIntegralCoefficient(AgstabError):
    """A series that must have integer coefficients does not."""


class CapExceeded(AgstabError):
    """A group enumeration grew past its element cap.

    The message names the cone (when known), the stage, the cap and the
    elements needed at that point; they are also kept as attributes.
    """

    def __init__(self, cone: str | None, stage: str, cap: int, elements: int):
        self.cone, self.stage, self.cap, self.elements = cone, stage, cap, elements
        where = "" if cone is None else f"cone {cone!r}: "
        super().__init__(f"{where}{stage} exceeded its cap of {cap} elements: it needs at least {elements}")


class DegreeMismatch(AgstabError):
    """Permutations of different degrees were combined."""


class SearchBudgetExceeded(AgstabError):
    """The automorphism backtracking search exceeded its node budget.

    The message names the cone, the stage and the work counters at the
    point of failure; they are also kept as attributes.
    """

    def __init__(self, cone: str, stage: str, budget: int, counters: dict[str, int]):
        self.cone, self.stage, self.budget, self.counters = cone, stage, budget, dict(counters)
        done = ", ".join(f"{value} {name}" for name, value in counters.items())
        super().__init__(f"cone {cone!r}: {stage} exceeded its budget of {budget} nodes ({done})")


class VerificationFailed(AgstabError):
    """A declared automorphism generator is not realizable, or they generate too small a group."""


class InconsistentAction(AgstabError):
    """A permutation does not induce a linear action on the cone's span."""
