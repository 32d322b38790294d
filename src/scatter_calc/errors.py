"""Common base class for all library errors."""


class ScatterCalcError(Exception):
    """Base class for every error raised by scatter-calc."""


class InvalidInput(ScatterCalcError):
    """Input from outside the program has the wrong shape; names the field."""

    def __init__(self, field_name: str, detail: str):
        super().__init__(f"invalid {field_name}: {detail}")
        self.field_name = field_name
