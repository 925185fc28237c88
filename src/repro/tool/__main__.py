"""``python -m repro.tool``: an alias of ``python -m repro`` (:mod:`repro.cli`)."""

if __name__ == "__main__":  # pragma: no cover
    import sys

    from repro.cli import main

    sys.exit(main())
