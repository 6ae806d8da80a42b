import gc
import sys

from .cli import main

if __name__ == "__main__":
    # What import built lives as long as the process; frozen, the run's
    # collections no longer walk it.  Only here: in-process callers of
    # cli.main keep collecting their own garbage.
    gc.freeze()
    sys.exit(main())
