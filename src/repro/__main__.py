"""``python -m repro`` — the unified ``repro`` command line."""

from repro.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
