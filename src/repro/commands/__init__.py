"""Handlers of the ``python -m repro`` verbs other than ``run``.

:mod:`repro.cli` builds the whole parser and holds ``run``'s handler
(``"repro.cli:_cmd_run"``); every other verb names its handler as
``"repro.commands.<family>:<function>"`` and :func:`repro.cli.main`
imports that family's module only when one of its verbs runs:

- :mod:`repro.commands.sweep` -- ``sweep``, ``report``, ``profile``;
- :mod:`repro.commands.graph` -- ``graph build/ls/gc``, ``generate``;
- :mod:`repro.commands.service` -- ``serve``, ``worker``, ``submit``,
  ``status``, ``fetch``, ``trace``, ``top``;
- :mod:`repro.commands.stream` -- ``stream session/ls/apply/query/
  compact/close``;
- :mod:`repro.commands.info` -- ``info``, ``resources``, ``validate``.
"""
