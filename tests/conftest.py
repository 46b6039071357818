"""The ``runner`` fixture: the ``insa`` command run in-process, its streams captured."""

import contextlib
import io
from types import SimpleNamespace

import pytest


class _Capture(io.StringIO):
    """One captured stream; each write also goes to a log shared with the other."""

    def __init__(self, log):
        super().__init__()
        self.log = log

    def write(self, text):
        self.log.append(text)
        return super().write(text)


class Runner:
    def invoke(self, cli, args):
        """Run ``cli.main(args)``: its exit code, stdout, stderr, and both
        interleaved in write order as ``output``.  Other exceptions propagate."""
        log = []
        out, err = _Capture(log), _Capture(log)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                cli.main(args=args, prog_name="insa")
            except SystemExit as exit_:
                code = exit_.code
        return SimpleNamespace(
            exit_code=code, stdout=out.getvalue(), stderr=err.getvalue(), output="".join(log)
        )


@pytest.fixture()
def runner():
    return Runner()
