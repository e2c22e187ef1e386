"""Exception types shared across the package."""


class ExttateError(Exception):
    pass


class DomainError(ExttateError):
    """Mathematically invalid request (CLI exit status 1)."""


class ZeroModuleError(DomainError):
    """A resolution asked of the zero module."""


class WindowError(DomainError):
    """A slice window is too small; carries the width that would suffice."""

    def __init__(self, msg, required=None):
        super().__init__(msg)
        self.required = required


class ParseError(ExttateError):
    """Malformed input file (CLI exit status 2); cites the line."""

    def __init__(self, msg, line=None, column=None):
        loc = ""
        if line is not None:
            loc = " (line %d%s)" % (line, ", column %d" % column if column else "")
        super().__init__(msg + loc)
        self.line = line
        self.column = column
