import pytest

import ctctag as c
from ctctag.errors import named


def _raise(exc):
    raise exc


@pytest.mark.parametrize("error", [c.ShapeError, c.UnknownToken, c.EmptyReference])
def test_named_keeps_the_type_and_puts_the_prefix_first(error):
    with pytest.raises(error) as caught:
        named("data/x.ctcl: ", _raise, error("bad width"))
    assert type(caught.value) is error
    assert str(caught.value) == "data/x.ctcl: bad width"


@pytest.mark.parametrize("exc", [ValueError("not ours"), OSError(2, "No such file")])
def test_named_passes_any_other_exception_through(exc):
    with pytest.raises(type(exc)) as caught:
        named("data/x.ctcl: ", _raise, exc)
    assert caught.value is exc


def test_named_returns_what_fn_returns():
    assert named("unused: ", divmod, 7, 2) == (3, 1)
