import dataclasses
import gc
import inspect
import json
import warnings

import numpy as np
import pytest

import rankwalk
from rankwalk import LpNumericError
from rankwalk.cli import main
from rankwalk.oracle import ORACLE_LIMIT

WORKED_CSV = "y,x1\n0,0\n1,1\n0,2\n"


@pytest.fixture
def worked_csv(tmp_path):
    path = tmp_path / "worked.csv"
    path.write_text(WORKED_CSV)
    scores = tmp_path / "scores.txt"
    scores.write_text("-1 0 1\n")
    return str(path), str(scores)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fit_worked(worked_csv, capsys):
    data, scores = worked_csv
    code, out, _ = run(capsys, "fit", data, "--scores", f"file={scores}")
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"] == "minimizer"
    assert payload["F_opt"] == pytest.approx(1.0, abs=1e-9)
    assert payload["beta_opt"] == pytest.approx([0.0], abs=1e-9)


def test_fit_closes_the_weights_file(worked_csv, capsys):
    data, scores = worked_csv
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, _ = run(capsys, "fit", data, "--scores", f"file={scores}")
        gc.collect()
    assert code == 0
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_fit_trace_builds_no_G(worked_csv, capsys, tmp_path, monkeypatch):
    """G is n x n: a fit never builds it, traced or not.  The trace writes
    the certificate as its weighted orderings."""
    data, scores = worked_csv
    fits = []
    monkeypatch.setattr(rankwalk.cli, "minimize", lambda *args: fits.append(rankwalk.minimize(*args)) or fits[-1])
    code, out, _ = run(capsys, "fit", data, "--scores", f"file={scores}", "--init", "-2")
    assert code == 0 and json.loads(out)["outcome"] == "minimizer"
    assert "G" not in vars(fits[-1].certificate)
    trace_path = tmp_path / "trace.json"
    code, traced, _ = run(capsys, "fit", data, "--scores", f"file={scores}", "--init", "-2", "--trace", str(trace_path))
    assert code == 0 and traced == out
    assert "G" not in vars(fits[-1].certificate)
    cert = fits[-1].certificate
    assert json.loads(trace_path.read_text())["certificate"] == {"decomposition": [
        {"lambda": w, "pi": (pi + 1).tolist()} for w, pi in zip(cert.weights.tolist(), cert.orders)]}


def test_fit_trace_schema(worked_csv, capsys, tmp_path):
    data, scores = worked_csv
    trace_path = tmp_path / "trace.json"
    code, out, _ = run(capsys, "fit", data, "--scores", f"file={scores}",
                       "--init", "-2", "--trace", str(trace_path))
    assert code == 0
    trace = json.loads(trace_path.read_text())
    assert set(trace) == {"iterations", "outcome", "beta_opt", "F_opt", "certificate", "ray"}
    assert trace["outcome"] == "minimizer"
    assert trace["ray"] is None
    assert 1 <= len(trace["iterations"]) <= 3
    for rec in trace["iterations"]:
        assert set(rec) == {"pi", "beta_star", "F_star", "direction", "d_star"}
        assert sorted(rec["pi"]) == [1, 2, 3]  # ranks are reported 1-based
    f_seq = [rec["F_star"] for rec in trace["iterations"]]
    assert all(b < a for a, b in zip(f_seq, f_seq[1:]))
    cert = trace["certificate"]
    assert set(cert) == {"decomposition"}
    assert sum(term["lambda"] for term in cert["decomposition"]) == pytest.approx(1.0)
    for term in cert["decomposition"]:
        assert sorted(term["pi"]) == [1, 2, 3]


def test_fit_trace_round_trips_exactly(worked_csv, capsys, tmp_path):
    """Serialized loss values survive a JSON round trip bit for bit."""
    from rankwalk import ScoreVector, minimize
    from rankwalk.cli import read_csv

    data_path, scores = worked_csv
    trace_path = tmp_path / "trace.json"
    code, _, _ = run(capsys, "fit", data_path, "--scores", f"file={scores}",
                     "--init", "-2", "--trace", str(trace_path))
    assert code == 0
    reread = json.loads(trace_path.read_text())
    direct = minimize(read_csv(data_path), ScoreVector([-1.0, 0.0, 1.0]),
                      beta0=np.array([-2.0]))
    assert [rec["F_star"] for rec in reread["iterations"]] == [
        it.f_star for it in direct.trace.iterations]


def test_fit_deterministic(worked_csv, capsys):
    data, scores = worked_csv
    _, first, _ = run(capsys, "fit", data, "--scores", f"file={scores}", "--init", "ls")
    _, second, _ = run(capsys, "fit", data, "--scores", f"file={scores}", "--init", "ls")
    assert first == second


def test_fit_unbounded_exit_code(tmp_path, capsys):
    data = tmp_path / "one.csv"
    data.write_text("y,x1\n0,1\n")
    scores = tmp_path / "w.txt"
    scores.write_text("1\n")
    trace_path = tmp_path / "trace.json"
    code, out, _ = run(capsys, "fit", str(data), "--scores", f"file={scores}",
                       "--trace", str(trace_path))
    assert code == 2
    payload = json.loads(out)
    assert payload["outcome"] == "unbounded"
    assert set(payload["ray"]) == {"point", "direction"}
    trace = json.loads(trace_path.read_text())
    assert trace["outcome"] == "unbounded"
    assert trace["beta_opt"] is None and trace["F_opt"] is None and trace["certificate"] is None


def test_fit_intercept_only_constant(tmp_path, capsys):
    data = tmp_path / "flat.csv"
    data.write_text("y,x1\n0,1\n1,1\n0,1\n")
    code, out, _ = run(capsys, "fit", str(data), "--scores", "sign")
    assert code == 0
    assert json.loads(out)["F_opt"] == pytest.approx(1.0, abs=1e-9)


def test_fit_builtin_scores(worked_csv, capsys):
    data, _ = worked_csv
    for scores in ("sign", "wilcoxon", "vdw"):
        code, out, _ = run(capsys, "fit", data, "--scores", scores)
        assert code == 0
        assert json.loads(out)["outcome"] == "minimizer"


def test_csv_errors_carry_line_numbers(tmp_path, capsys):
    bad_header = tmp_path / "a.csv"
    bad_header.write_text("y,x2\n0,0\n")
    code, _, err = run(capsys, "fit", str(bad_header))
    assert code == 1 and "line 1" in err

    short_row = tmp_path / "b.csv"
    short_row.write_text("y,x1,x2\n0,1,2\n3,4\n")
    code, _, err = run(capsys, "fit", str(short_row))
    assert code == 1 and "line 3" in err

    bad_number = tmp_path / "c.csv"
    bad_number.write_text("y,x1\n0,1\n2,fast\n")
    code, _, err = run(capsys, "fit", str(bad_number))
    assert code == 1 and "line 3" in err and "x1" in err

    empty = tmp_path / "d.csv"
    empty.write_text("")
    code, _, err = run(capsys, "fit", str(empty))
    assert code == 1 and "empty" in err

    headers_only = tmp_path / "e.csv"
    headers_only.write_text("y,x1\n")
    code, _, err = run(capsys, "fit", str(headers_only))
    assert code == 1 and "no data rows" in err

    code, _, err = run(capsys, "fit", str(tmp_path / "missing.csv"))
    assert code == 1


def test_blank_csv_lines_skipped(tmp_path, capsys):
    data = tmp_path / "gaps.csv"
    data.write_text("y,x1\n0,0\n\n1,1\n  ,\n0,2\n")
    scores = tmp_path / "w.txt"
    scores.write_text("0,0,1")
    code, out, _ = run(capsys, "fit", str(data), "--scores", f"file={scores}")
    assert code == 0  # three data rows survive, the noise lines do not
    assert json.loads(out)["F_opt"] == pytest.approx(0.0, abs=1e-9)


def test_scores_flag_errors(worked_csv, capsys, tmp_path):
    data, _ = worked_csv
    code, _, err = run(capsys, "fit", data, "--scores", "cauchy")
    assert code == 1 and "unknown --scores" in err

    wrong_count = tmp_path / "two.txt"
    wrong_count.write_text("1 2")
    code, _, err = run(capsys, "fit", data, "--scores", f"file={wrong_count}")
    assert code == 1 and "2 weights for 3" in err

    code, _, err = run(capsys, "fit", data, "--scores", "file=/nonexistent/w.txt")
    assert code == 1


def test_scores_file_with_a_word_is_an_error(worked_csv, capsys, tmp_path):
    data, _ = worked_csv
    words = tmp_path / "words.txt"
    words.write_text("-1 zero 1\n")
    code, out, err = run(capsys, "fit", data, "--scores", f"file={words}")
    assert code == 1 and out == ""
    assert err == f"error: {words}: could not convert string to float: 'zero'\n"


def test_scores_file_is_normalized(worked_csv, capsys, tmp_path):
    data, _ = worked_csv
    shuffled = tmp_path / "shuffled.txt"
    shuffled.write_text("1, -1, 0\n")
    code, out, _ = run(capsys, "fit", data, "--scores", f"file={shuffled}")
    assert code == 0
    assert json.loads(out)["F_opt"] == pytest.approx(1.0, abs=1e-9)


def test_init_flag_errors(worked_csv, capsys):
    data, scores = worked_csv
    code, _, err = run(capsys, "fit", data, "--scores", f"file={scores}", "--init", "1,2")
    assert code == 1 and err == "error: beta0 must be a finite vector of width p\n"
    code, _, err = run(capsys, "fit", data, "--scores", f"file={scores}", "--init", "north")
    assert code == 1 and "--init" in err


@pytest.mark.parametrize("command, flag", [("fit", "--init"), ("check", "--init"), ("compare", "--init"),
                                           ("eval", "--beta")])
def test_a_point_that_is_no_vector_names_its_flag(worked_csv, capsys, command, flag):
    data, _ = worked_csv
    code, out, err = run(capsys, command, data, flag, "north")
    assert code == 1 and out == ""
    assert err == f"error: {flag} must be zero, ls, or a comma-separated vector (got 'north')\n"


@pytest.mark.parametrize("command, flag", [("fit", "--init"), ("eval", "--beta")])
@pytest.mark.parametrize("value", ["1e308", "-1e308"])
def test_a_point_whose_residuals_overflow_is_named(worked_csv, capsys, command, flag, value):
    """A finite point whose residuals are not finite is refused as such,
    before any layer runs and with no NumPy warning."""
    data, _ = worked_csv
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, command, data, f"{flag}={value}")
    assert code == 1 and out == ""
    name = "beta0" if command == "fit" else "--beta"
    assert err == f"error: the residuals at {name} are not finite\n"


def test_eval_worked(worked_csv, capsys):
    data, scores = worked_csv
    code, out, _ = run(capsys, "eval", data, "--scores", f"file={scores}", "--beta", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["F"] == 1.0
    assert payload["pi"] == [1, 3, 2]

    code, out, _ = run(capsys, "eval", data, "--scores", f"file={scores}", "--beta", "-1")
    payload = json.loads(out)
    assert payload["F"] == 2.0
    assert payload["pi"] == [1, 2, 3]


def test_eval_beta_zero_is_the_origin(worked_csv, capsys):
    """``--beta zero`` is read as ``--init`` reads it: the origin."""
    data, scores = worked_csv
    code, out, _ = run(capsys, "eval", data, "--scores", f"file={scores}", "--beta", "zero")
    assert code == 0
    assert json.loads(out) == {"F": 1.0, "pi": [1, 3, 2]}


def test_check_worked(worked_csv, capsys):
    data, scores = worked_csv
    code, out, _ = run(capsys, "check", data, "--scores", f"file={scores}")
    assert code == 0
    report = json.loads(out)
    assert report["agree"] is True
    assert report["walk"]["F_opt"] == pytest.approx(report["oracle"]["value"], abs=1e-7)
    assert report["certificate"]["ok"] is True


def test_check_reaches_the_oracle_limit(tmp_path, capsys):
    rows = "\n".join(f"{i % 3},1,{i}" for i in range(ORACLE_LIMIT))
    data = tmp_path / "limit.csv"
    data.write_text("y,x1,x2\n" + rows + "\n")
    code, out, _ = run(capsys, "check", str(data))
    assert code == 0
    report = json.loads(out)
    assert report["agree"] is True and report["oracle"]["outcome"] == "minimizer"


def test_check_refuses_large_instances(tmp_path, capsys):
    rows = "\n".join(f"{i % 3},{i}" for i in range(ORACLE_LIMIT + 1))
    data = tmp_path / "big.csv"
    data.write_text("y,x1\n" + rows + "\n")
    code, _, err = run(capsys, "check", str(data))
    assert code == 1 and "refuses" in err


def test_check_help_names_the_oracle_limit(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    assert f"(n <= {ORACLE_LIMIT})" in " ".join(capsys.readouterr().out.split())


def test_compare_worked(worked_csv, capsys):
    data, scores = worked_csv
    code, out, _ = run(capsys, "compare", data, "--scores", f"file={scores}",
                       "--init", "-2", "--seed", "7", "--perturbation", "prolong")
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"outcome", "walk", "ggd", "gap"}
    assert report["gap"] >= -1e-9
    assert set(report["ggd"]) == {"iterations", "F", "stop_reason", "perturbations"}
    baseline = rankwalk.ggd_minimize(rankwalk.RegressionData([[0.0], [1.0], [2.0]], [0.0, 1.0, 0.0]),
                                     [-1.0, 0.0, 1.0], [-2.0],
                                     rankwalk.GgdConfig(perturbation="prolong", seed=7))
    assert report["ggd"]["stop_reason"] == baseline.trace.stop_reason
    assert report["ggd"]["iterations"] == baseline.trace.n_iterations
    assert report["ggd"]["perturbations"] == baseline.trace.n_perturbations > 0


def test_compare_unbounded(tmp_path, capsys):
    data = tmp_path / "one.csv"
    data.write_text("y,x1\n0,1\n")
    scores = tmp_path / "w.txt"
    scores.write_text("1")
    code, out, _ = run(capsys, "compare", str(data), "--scores", f"file={scores}")
    assert code == 2
    assert json.loads(out)["outcome"] == "unbounded"


def test_usage_errors_exit_one_not_two(capsys):
    assert run(capsys, "fit")[0] == 1           # missing data argument
    assert run(capsys, "melt", "x.csv")[0] == 1  # unknown command
    assert run(capsys, "compare", "x.csv", "--perturbation", "sideways")[0] == 1
    assert run(capsys, "fit", "x.csv", "--direction", "first")[0] == 1  # the option is gone


@pytest.mark.parametrize("flag", ["--tie-tol"])
def test_nonfinite_tolerances_are_errors(worked_csv, capsys, flag):
    data, scores = worked_csv
    for value in ("nan", "inf"):
        code, out, err = run(capsys, "fit", data, "--scores", f"file={scores}", flag, value)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "finite" in err


def test_no_caller_sets_the_lp_tolerance(worked_csv, capsys):
    """The simplex tolerance is ``lp.LP_TOL``: no public callable takes an
    ``lp_tol``, each config keeps only the fields a caller sets, and the
    command line has no ``--lp-tol``."""
    takers = [name for name in rankwalk.__all__ if callable(obj := getattr(rankwalk, name))
              and not (isinstance(obj, type) and issubclass(obj, BaseException))  # no signature to read
              and "lp_tol" in inspect.signature(obj).parameters]
    assert takers == []
    assert {f.name for f in dataclasses.fields(rankwalk.WoaConfig)} == {"tie_tol", "max_iter"}
    assert {f.name for f in dataclasses.fields(rankwalk.GgdConfig)} == {"perturbation", "seed", "max_iter", "tie_tol"}
    data, scores = worked_csv
    assert run(capsys, "fit", data, "--scores", f"file={scores}")[0] == 0
    code, out, err = run(capsys, "fit", data, "--scores", f"file={scores}", "--lp-tol", "1e-9")
    assert code == 1 and out == "" and "--lp-tol" in err


def test_log_env_handling(worked_csv, capsys, monkeypatch):
    data, scores = worked_csv
    monkeypatch.setenv("RANKWALK_LOG", "chatty")
    code, _, err = run(capsys, "eval", data, "--scores", f"file={scores}", "--beta", "0")
    assert code == 0
    assert "unknown RANKWALK_LOG" in err
    monkeypatch.setenv("RANKWALK_LOG", "off")
    code, _, err = run(capsys, "eval", data, "--scores", f"file={scores}", "--beta", "0")
    assert code == 0
    assert "unknown" not in err


@pytest.mark.parametrize("layer,name", [("cell_lp", "cell_lp"), ("_descent_search", "descent_search")])
def test_fit_reports_the_layer_of_a_numeric_failure(worked_csv, capsys, monkeypatch, layer, name):
    def failing(*args, **kwargs):
        raise LpNumericError("pivot budget exhausted")

    monkeypatch.setattr(rankwalk.woa, layer, failing)
    data, scores = worked_csv
    code, out, err = run(capsys, "fit", data, "--scores", f"file={scores}")
    assert code == 1 and out == ""
    assert name in err and "pivot budget exhausted" in err
