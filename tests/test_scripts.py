import importlib.util
import pathlib

from cubefactors.construct import OverlapError

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rmin_survey_reports_a_bad_dimension_like_the_cli(capsys):
    rc = _load("rmin_survey").main(["--kind", "construction", "--dims", "5"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == "error: full construction requires d >= 7\n"


def test_rmin_survey_reports_an_overlap_as_a_failure(monkeypatch, capsys):
    survey = _load("rmin_survey")

    def overlap(*args):
        raise OverlapError("overlapping swap regions: factor slot written twice")

    monkeypatch.setattr(survey, "build_factorisation", overlap)
    rc = survey.main(["--kind", "construction", "--dims", "7", "--seeds", "1"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: overlapping swap regions: ")


def test_rmin_survey_prints_the_witness_and_subsets_checked(capsys):
    rc = _load("rmin_survey").main(["--kind", "directional", "--dims", "5"])
    header, line = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert header.split()[-3:] == ["subsets", "vertex", "witness"]
    fields = line.split()
    assert fields[:4] == ["directional", "5", "0", "5"]
    assert fields[5:] == ["5", "16", "1,2,3,4"]
