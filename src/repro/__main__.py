"""``python -m repro`` entry point."""

import sys

if sys.argv[1:] == ["--version"]:
    # the cheapest cold-start probe: answered before the CLI, and with it
    # the analysis pipeline, is imported (`main` knows the flag too)
    from repro import __version__

    print(f"repro {__version__}")
    raise SystemExit(0)

from repro.cli import main

raise SystemExit(main())
