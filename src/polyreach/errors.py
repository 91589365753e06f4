"""The common base of the package's input errors.

It lives apart from the analysis modules, so that the command line can
catch every such error without loading any of them.
"""


class PolyreachError(ValueError):
    """Malformed input: a bad formula, model or complex."""
