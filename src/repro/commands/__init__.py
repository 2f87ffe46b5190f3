"""One module per ``repro`` subcommand (the paper's Sections 3-5 and the
tooling around them).

``repro <command>`` imports ``repro.commands.<command>`` and calls its
``run(args, emit)``, which returns the process exit code.  A cold start
therefore compiles only the handler it runs; the parser and the helpers
the handlers share stay in :mod:`repro.cli`.
"""
