import importlib.util
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "gauge_survey", ROOT / "tools" / "gauge_survey.py")
gauge_survey = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gauge_survey)


def test_cheapest_gauge_prints_one_line(capsys):
    assert gauge_survey.main(["fkm3d dt=1.5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    match = re.fullmatch(
        r"fkm3d dt=1\.5 +8\^3 +deficiency (\d+\.\d{4})  hot +(\d+) +"
        r"(\d+\.\d{2}) s", lines[0])
    assert match
    deficiency, hot = float(match[1]), int(match[2])
    # the 8^3 level relaxes one seed and keeps a hot spot, which is what
    # makes `smooth_gauge` refuse it
    assert deficiency > gauge_survey.HOT and hot > 0


def test_unknown_name_exits_1(capsys):
    assert gauge_survey.main(["fkm3d dt=9"]) == 1
    assert "unknown gauge" in capsys.readouterr().err
