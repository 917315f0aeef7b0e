import os
import sys

from .cli import main


def run() -> int:
    """``main``, exiting 1 with no traceback when the reader closes stdout early."""
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe raises here, not in the flush at exit
    except BrokenPipeError:  # Python's documented remedy: point stdout at devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(run())
