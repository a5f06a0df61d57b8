"""One way in for a point.

Every layer that takes a point reads it through ``loss._residuals_at``, so
every refusal of a point is a ValueError in one of two forms, naming the
point as the layer's signature spells it."""

import math
import warnings

import numpy as np
import pytest

from rankwalk import (Breakpoints, RegressionData, cell_gradient, cell_lp, eval_loss, eval_loss_bruteforce,
                      ggd_minimize, line_search, minimize, residuals, verify_certificate)
from rankwalk import breakpoints as find_breakpoints
from rankwalk.cli import main

LAYERS = {  # name of the point, and a call of the layer at the point b
    "minimize": ("beta0", lambda data, alpha, b: minimize(data, alpha, beta0=b)),
    "ggd_minimize": ("beta0", lambda data, alpha, b: ggd_minimize(data, alpha, beta0=b)),
    "cell_lp": ("at", lambda data, alpha, b: cell_lp(data, alpha, (0, 1, 2), at=b)),
    "cell_gradient": ("beta", lambda data, alpha, b: cell_gradient(data, alpha, b)),
    "verify_certificate": ("beta", lambda data, alpha, b: verify_certificate(
        data, alpha, b, minimize(data, alpha).certificate)),
    "eval_loss": ("beta", lambda data, alpha, b: eval_loss(data, alpha, b)),
    "eval_loss_bruteforce": ("beta", lambda data, alpha, b: eval_loss_bruteforce(data, alpha, b)),
    "residuals": ("beta", lambda data, alpha, b: residuals(data, b)),
    "breakpoints": ("beta_star", lambda data, alpha, b: find_breakpoints(data, b, [1.0])),
    "line_search": ("beta_star", lambda data, alpha, b: line_search(
        data, alpha, b, [1.0], Breakpoints([[0, 1]], [1.0]))),
    "rankwalk eval": ("--beta", None),
}

POINTS = {  # a bad point of the worked instance (p = 1), and the form of its refusal
    "nan": ([math.nan], "{} must be a finite vector of width p"),
    "width": ([1.0, 2.0], "{} must be a finite vector of width p"),
    "overflow_up": ([1e308], "the residuals at {} are not finite"),
    "overflow_down": ([-1e308], "the residuals at {} are not finite"),
}


def _refusal(layer, data, alpha, b, tmp_path, capsys) -> str:
    """The message the layer refuses ``b`` with, read from stderr for the CLI."""
    if layer == "rankwalk eval":  # on the worked instance's file
        path, scores = tmp_path / "worked.csv", tmp_path / "scores.txt"
        path.write_text("y,x1\n0,0\n1,1\n0,2\n")
        scores.write_text("-1 0 1\n")
        code = main(["eval", str(path), "--scores", f"file={scores}", "--beta=" + ",".join(map(repr, b))])
        out, err = capsys.readouterr()
        assert code == 1 and out == "" and err.startswith("error: ")
        return err[len("error: "):].rstrip("\n")
    with pytest.raises(ValueError) as info:
        LAYERS[layer][1](data, alpha, b)
    assert type(info.value) is ValueError
    return str(info.value)


@pytest.mark.parametrize("case", POINTS)
@pytest.mark.parametrize("layer", LAYERS)
def test_each_layer_refuses_a_bad_point_by_name(worked, tmp_path, capsys, layer, case):
    """With no NumPy warning on the way, and no other layer's message: the
    tie tolerance, the cell LP and the line search never see the point."""
    data, alpha = worked
    b, form = POINTS[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = _refusal(layer, data, alpha, b, tmp_path, capsys)
    assert message == form.format(LAYERS[layer][0])


def test_none_is_the_origin_only_where_a_layer_has_a_default(worked):
    data, alpha = worked
    zero = np.zeros(1)
    here, there = cell_lp(data, alpha, (0, 1, 2)), cell_lp(data, alpha, (0, 1, 2), at=zero)
    assert (here.point.tobytes(), here.value) == (there.point.tobytes(), there.value)
    assert minimize(data, alpha).f_opt == minimize(data, alpha, beta0=zero).f_opt
    assert ggd_minimize(data, alpha).f == ggd_minimize(data, alpha, beta0=zero).f
    for layer in ("cell_gradient", "eval_loss", "residuals", "breakpoints", "line_search"):
        with pytest.raises(ValueError, match=f"^{LAYERS[layer][0]} must be a finite vector of width p$"):
            LAYERS[layer][1](data, alpha, None)


def test_residuals_pass_through_when_they_are_of_the_same_data(worked):
    data, alpha = worked
    res = residuals(data, [0.5])
    assert residuals(data, res) is res
    assert cell_gradient(data, alpha, res).tobytes() == cell_gradient(data, alpha, [0.5]).tobytes()
    other = residuals(RegressionData(np.ones((2, 1)), np.zeros(2)), [0.5])
    for layer in ("cell_lp", "cell_gradient", "residuals", "breakpoints"):
        with pytest.raises(ValueError, match=f"^{LAYERS[layer][0]} must be a finite vector of width p$"):
            LAYERS[layer][1](data, alpha, other)
