"""Boolean environment-variable toggles, parsed consistently.

Every ``REPRO_SIM_*`` escape hatch (``REPRO_SIM_NO_FASTPATH``,
``REPRO_SIM_NO_NATIVE``) is a boolean *flag*: the
user either asked for the toggle or did not. The obvious
``os.environ.get(NAME)`` truthiness check gets the common negative
spellings wrong — ``REPRO_SIM_NO_FASTPATH=0`` or ``=false`` would
*disable* the fast path, the opposite of what the user wrote — so every
toggle resolves through :func:`env_flag` instead.
"""

import os
from typing import Mapping, Optional

FALSE_WORDS = frozenset({"", "0", "false", "no", "off"})
"""Values (case-insensitive, whitespace-stripped) that mean *unset*."""


def env_flag(name: str, environ: Optional[Mapping[str, str]] = None) -> bool:
    """True when the environment variable ``name`` is set to a truthy value.

    Unset counts as False, as does any spelling a user plausibly means
    "no" by: empty string, ``0``, ``false``, ``no``, ``off`` (any case,
    surrounding whitespace ignored). Everything else — ``1``, ``true``,
    ``yes``, arbitrary text — counts as set. ``environ`` defaults to
    ``os.environ`` and exists for tests.
    """
    if environ is None:
        environ = os.environ
    value = environ.get(name)
    if value is None:
        return False
    return value.strip().lower() not in FALSE_WORDS
