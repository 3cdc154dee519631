"""API-hygiene fixtures: the errors-taxonomy rule (the test config tags
this module's public surface as taxonomy-bound)."""


class QueryError(Exception):
    """Stand-in for the repro.core.errors taxonomy."""


def bad_raise(value):
    if value < 0:
        raise ValueError("negative")    # API002 (line 11)
    return value


def good_raise(value):
    if value > 1:
        raise QueryError("too large")   # ok: taxonomy error
    return value
