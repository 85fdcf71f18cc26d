"""Named example substitutions and JSON (de)serialization.

The built-in names cover the substitutions every command-line example
uses: ``tm`` (two-letter, marked, permutive), ``ex42`` (three-letter,
left-marked only, delay 5), ``ex46`` (three-letter, unmarked, delay 6)
and the parametric family ``gtm:b,m``.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import ConstructionError, PreconditionError
from .gtm import gtm_substitution
from .substitution import Substitution, make_substitution

_BUILTINS: dict[str, tuple[tuple[int, ...], ...]] = {
    "tm": ((0, 1), (1, 0)),
    "ex42": ((0, 0, 1), (1, 2, 0), (2, 0, 1)),
    "ex46": ((0, 2, 1), (0, 1, 0), (2, 1, 0)),
}


def builtin_names() -> tuple[str, ...]:
    return tuple(_BUILTINS) + ("gtm:b,m",)


def gtm_parameters(name: str) -> tuple[int, int] | None:
    """(b, m) of a ``gtm:b,m`` name, or None for any other name."""
    if not name.startswith("gtm:"):
        return None
    try:
        b_text, m_text = name[4:].split(",")
        return int(b_text), int(m_text)
    except ValueError as exc:
        raise PreconditionError(f"cannot parse gtm parameters from {name!r}") from exc


def builtin_substitution(name: str) -> Substitution:
    """Resolve a built-in name, including the parametric gtm:b,m form."""
    if name in _BUILTINS:
        return make_substitution(_BUILTINS[name])
    params = gtm_parameters(name)
    if params is not None:
        return gtm_substitution(*params)
    raise PreconditionError(
        f"unknown substitution name {name!r}; built-ins: {', '.join(builtin_names())}"
    )


def substitution_from_dict(obj) -> Substitution:
    """Build a substitution from its JSON object form."""
    if not isinstance(obj, dict):
        raise ConstructionError("substitution description must be a JSON object")
    try:
        alphabet = obj["alphabet"]
        images = obj["images"]
    except KeyError as exc:
        raise ConstructionError(f"substitution description misses key {exc}") from exc
    # JSON true is a bool, and bool is an int in Python
    if not isinstance(alphabet, int) or isinstance(alphabet, bool):
        raise ConstructionError("alphabet size must be an integer")
    if not isinstance(images, list) or not all(isinstance(img, list) for img in images):
        raise ConstructionError("images must be a list of letter lists")
    return make_substitution([tuple(img) for img in images], alphabet_size=alphabet)


def substitution_to_dict(subst: Substitution, name: str | None = None) -> dict:
    """JSON object form of a substitution; round-trips through the parser."""
    obj: dict = {"alphabet": subst.size, "images": [list(img) for img in subst.images]}
    if name is not None:
        obj["name"] = name
    return obj


def load_substitution(path: str | Path) -> tuple[Substitution, str | None]:
    """Read a substitution JSON file; returns the substitution and its name."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise PreconditionError(f"cannot read substitution file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConstructionError(f"substitution file {path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConstructionError(f"invalid JSON in {path}: {exc}") from exc
    subst = substitution_from_dict(obj)
    name = obj.get("name")
    return subst, name if isinstance(name, str) else None


def resolve_substitution(source: str) -> tuple[Substitution, str]:
    """Accept a built-in name or a file path; returns the substitution and a label."""
    if source in _BUILTINS or source.startswith("gtm:"):
        return builtin_substitution(source), source
    path = Path(source)
    if path.exists():
        subst, name = load_substitution(path)
        return subst, name or path.stem
    raise PreconditionError(
        f"{source!r} is neither a built-in substitution nor an existing file"
    )
