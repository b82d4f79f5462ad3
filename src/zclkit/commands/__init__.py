"""One module per command of the command line, so a command compiles only its own handler.

``cli`` imports ``commands.<name>`` for the command it runs.  A command on
an algebra has ``run(alg, args)``, ``analyze`` and ``builtins`` have
``run(args)``; each returns the report's ``result`` payload and whether the
result is conclusive (exit 0) or not (exit 2).  Failures are raised as
``ZclkitError``.  The witness and analysis payloads, each shared by two
commands, have modules of their own.  No module here imports ``cli``: under
``python -m zclkit.cli`` it runs as ``__main__``, so importing it again would
compile it twice.
"""
