"""Run the heckeblocks command line in-process and capture what it prints."""

import io
import os
from contextlib import redirect_stderr, redirect_stdout
from typing import NamedTuple
from unittest import mock

from heckeblocks.cli import main


class Result(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str
    exception: BaseException | None  # raised by main, other than SystemExit

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


def invoke(args, env=None) -> Result:
    """main(args) with os.environ updated by env; an uncaught exception
    gives exit code 1, as it would for the process."""
    stdout, stderr = io.StringIO(), io.StringIO()
    exit_code, exception = 0, None
    with mock.patch.dict(os.environ, env or {}), \
            redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            main(list(args), prog_name="heckeblocks")
        except SystemExit as exc:
            code = exc.code
            exit_code = code if isinstance(code, int) else int(code is not None)
        except Exception as exc:
            exit_code, exception = 1, exc
    return Result(exit_code, stdout.getvalue(), stderr.getvalue(), exception)
