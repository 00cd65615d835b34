"""The one error type the package raises for any refusal.

There is one type because no caller needs to tell refusals apart by class:
each message names what was refused and, for a file, its ``path:line`` or
field. It derives from ValueError so ``except ValueError`` keeps working.
"""


class ViewretError(ValueError):
    """A refusal of an input, argument or file by this package."""
