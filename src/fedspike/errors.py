"""The one error base of the package.

Every failure that an input can cause (a config file, a dataset manifest, an
event file, a weight file, a wire frame, a misbehaving peer) is raised as a
FedspikeError subclass. Each carries a short upper-case code naming the fault,
and its message says where the fault is. The command line prints one as
"error: CODE: message" and exits 1.
"""


class FedspikeError(Exception):
    """A named failure: code names the fault, the message says where it is."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
