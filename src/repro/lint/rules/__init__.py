"""Built-in rule families — importing this package registers every rule."""

from repro.lint.rules import (  # noqa: F401  (registration side effects)
    determinism,
    hygiene,
    lock_discipline,
    obs_discipline,
    stdlib_only,
)
