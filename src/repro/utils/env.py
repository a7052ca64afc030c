"""Scoped environment overrides for settings that must reach forked workers.

Fault plans, retry policies and kernel or sampler choices travel through
the environment (``REPRO_FAULTS``, ``REPRO_RETRY``, ``REPRO_KERNEL``,
``REPRO_SAMPLER_BATCH``), so a worker forked inside the scope inherits
them. :func:`env_overrides` sets them for one block (``None`` unsets a
variable) and puts the previous values back on every exit, an exception
included.

Example::

    >>> import os
    >>> with env_overrides({"REPRO_EXAMPLE": "1"}):
    ...     os.environ["REPRO_EXAMPLE"]
    '1'
    >>> "REPRO_EXAMPLE" in os.environ
    False
    >>> os.environ["REPRO_EXAMPLE"] = "2"
    >>> with env_overrides({"REPRO_EXAMPLE": None}):
    ...     "REPRO_EXAMPLE" in os.environ
    False
    >>> os.environ.pop("REPRO_EXAMPLE")
    '2'
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Mapping, Optional


@contextmanager
def env_overrides(overrides: Mapping[str, Optional[str]]) -> Iterator[None]:
    """Set ``overrides`` in ``os.environ`` for the block, then restore.

    A value of ``None`` unsets the variable for the block.
    """
    saved = {name: os.environ.get(name) for name in overrides}
    try:
        _apply(overrides)
        yield
    finally:
        _apply(saved)


def _apply(values: Mapping[str, Optional[str]]) -> None:
    for name, value in values.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value


__all__ = ["env_overrides"]
