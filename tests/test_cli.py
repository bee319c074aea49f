"""Command-line front end: config parsing, commands, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from subcurv import calculus as ca
from subcurv import smp
from subcurv.calculus import CoordSystem
from subcurv.cli import (
    ConfigError,
    _csv,
    _Value,
    dumps_report,
    format_number,
    main,
    parse_config,
    scenario_from_config,
    scenario_to_config,
    write_scenario_csv,
)
from subcurv.brackets import MAX_BRACKET_WORDS
from subcurv.core import GridSpec, SubriemannianStructure
from subcurv.heisenberg import drift_graph_structure, standard_drift

HEIS1 = """
[structure]
kind = heisenberg
n = 1

[function negz]
expr = -z
box = -1:1, -1:1, -1:1

[function parab]
expr = x1^2 + y1^2
box = -1:1, -1:1, -1:1
"""

CYL1 = """
# punctured-group chart with a radial paraboloid
[structure]
kind = cylinder
n = 1

[function phi]
expr = x1^2 + y1^2 - z
box = 0.5:1.0, -0.5:0.5, 0.2:1.2
"""

CUSTOM_FLAT = """
[structure]
kind = custom
coords = x, y
cometric.0.0 = 1
cometric.1.1 = 1
density = 1
box = -1:1, -1:1

[function lin]
expr = x
box = -1:1, -1:1

[function bowl]
expr = x^2 + y^2
box = -1:1, -1:1
"""

# ``curvature --function bowl --grid 3`` on CUSTOM_FLAT: H = 1/r, masked
# at the singular origin
BOWL_CSV = """\
x,y,H
-1,-1,0.70710678118654768
-1,0,1
-1,1,0.70710678118654768
0,-1,1
0,0,
0,1,1
1,-1,0.70710678118654768
1,0,1
1,1,0.70710678118654768
"""


# ``curvature --function ball --p 1/2 --grid 4``: axes of unequal values, one
# masked point (the origin)
FLAT3 = """\
[structure]
kind = custom
coords = x, y, z
cometric.0.0 = 1
cometric.1.1 = 1
cometric.2.2 = 1
density = 1

[function ball]
expr = x^2 + y^2 + z^2
box = -1:2, -2:1, -1:2
"""

# A small scenario: v's expr is on line 11 and grid on line 18.
SCENARIO = """
[structure]
kind = heisenberg
n = 1

[function u]
expr = x1^2 + y1^2
box = 0.5:1.5, -0.5:0.5

[function v]
expr = x1^2 + y1^2 + 1
box = 0.5:1.5, -0.5:0.5

[scenario]
operator = generic
u = u
v = v
grid = 5
"""


# for the config refusals: a bare heisenberg(1), and the argv of each command
_H1 = "[structure]\nkind = heisenberg\nn = 1\n"
_AT_ORIGIN = ["curvature", "--function", "f", "--at", "0,0,0"]
_RUN = ["scenario", "run", "--out", os.devnull]


def run_cli(args, env=None):
    e = dict(os.environ)
    if env:
        e.update(env)
    return subprocess.run(
        [sys.executable, "-m", "subcurv.cli"] + args,
        capture_output=True,
        text=True,
        env=e,
        timeout=120,  # a hung command fails its test instead of stalling the suite
    )


def run_main_quietly(argv) -> tuple:
    """``main(argv)`` in this process: (exit code, what it wrote to stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture
def cfg(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


class TestConfigParsing:
    def test_sections_and_keys(self):
        doc = parse_config(HEIS1)
        assert doc.structure_raw == {"kind": "heisenberg", "n": "1"}
        assert set(doc.functions) == {"negz", "parab"}

    def test_comments_and_blank_lines(self):
        doc = parse_config("# top\n[structure]\nkind = heisenberg # tail\nn = 1\n")
        assert doc.structure_raw["kind"] == "heisenberg"

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[bogus]\n")

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="outside"):
            parse_config("kind = heisenberg\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("[structure]\nkind = heisenberg\nkind = cylinder\n")

    def test_bad_expression_reported(self):
        doc = parse_config("[structure]\nkind = heisenberg\nn = 1\n"
                           "[function f]\nexpr = x1 +* 2\n")
        S = doc.structure()
        with pytest.raises(ConfigError, match="function"):
            doc.function("f", S.coords)

    def test_one_bad_expression_on_two_lines_names_each_line(self):
        # parsed trees are memoized by text, but a refusal is not, and its
        # message takes the line from the value it was given
        doc = parse_config("[structure]\nkind = heisenberg\nn = 1\n"
                           "[function f]\nexpr = x1 +* 2\n\n[function g]\nexpr = x1 +* 2\n")
        coords = doc.structure().coords
        for _ in range(2):
            for name, line in (("f", 5), ("g", 8)):
                with pytest.raises(ConfigError) as info:
                    doc.function(name, coords)
                assert str(info.value) == (
                    f"line {line}: function {name!r}: unexpected token '*' (at offset 4)")

    def test_custom_structure(self):
        doc = parse_config(CUSTOM_FLAT)
        S = doc.structure()
        assert S.dim == 2
        assert S.degeneracy == 0

    def test_compact_kind_spelling(self):
        doc = parse_config("[structure]\nkind = heisenberg(2)\n")
        assert doc.structure().dim == 5
        doc2 = parse_config("[structure]\nkind = cylinder(1)\n")
        assert doc2.structure().dim == 3
        doc3 = parse_config("[structure]\nkind = graph_F(2)\nF = -x2, x1\n")
        assert doc3.structure().dim == 3

    def test_quoted_expression_values(self):
        doc = parse_config(
            '[structure]\nkind = heisenberg\nn = 1\n'
            '[function f]\nexpr = "x1^2 + y1^2"\n'
        )
        S = doc.structure()
        f = doc.function("f", S.coords)
        assert f((2.0, 1.0, 0.0)) == 5.0


def reference_dumps(obj, indent=0):
    """The report writer as a plain recursion, each value formatted where it
    is met: the bytes ``dumps_report`` must write."""
    if type(obj) is float:
        return format_number(obj)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, (list, tuple)):
        brackets, items = "[]", [reference_dumps(v, indent + 1) for v in obj]
    elif isinstance(obj, dict):
        brackets, items = "{}", [
            json.dumps(str(k), ensure_ascii=False) + ": " + reference_dumps(v, indent + 1)
            for k, v in obj.items()
        ]
    else:
        return format_number(obj)
    if not items:
        return brackets
    inner = "\n" + "  " * (indent + 1)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + "  " * indent + brackets[1]


# floats with repeats and signed zeros, and equal values of the other types
_REPORT_FLOATS = st.sampled_from([0.0, -0.0, 1.0, 0.1, 1 / 3, -2.5, 1e300, 5e-324]) | st.floats(
    allow_nan=False, allow_infinity=False)
_REPORT_LEAVES = (st.none() | st.booleans() | st.integers(-3, 3) | st.integers() | _REPORT_FLOATS
                  | st.text(max_size=3) | st.text(max_size=3).map(_Value))
_REPORT_TREES = st.recursive(
    _REPORT_LEAVES | st.lists(_REPORT_FLOATS, max_size=8) | st.lists(_REPORT_FLOATS, max_size=8).map(tuple)
    | st.lists(st.integers(-3, 3) | st.integers(), max_size=8),
    lambda kids: st.lists(kids, max_size=5) | st.lists(kids, max_size=5).map(tuple)
    | st.dictionaries(st.text(max_size=3), kids, max_size=4),
    max_leaves=40,
)


class TestFormatting:
    def test_17_significant_digits(self):
        assert format_number(1 / 3) == "0.33333333333333331"
        assert format_number(2 / 5 ** 0.25) == "1.337480609952844"
        assert format_number(4.0) == "4"

    def test_negative_zero_normalized(self):
        assert format_number(-0.0) == "0"

    def test_report_serialization_shape(self):
        out = dumps_report({"a": [1.5, None, True], "b": {"c": "x"}})
        parsed = json.loads(out)
        assert parsed == {"a": [1.5, None, True], "b": {"c": "x"}}

    def test_report_bytes(self):
        obj = {
            "empty": {},
            "none": [],
            "nested": [[0.1, -0.0], {"k\u00e9y\"": (False, 3)}],
            "t\u00e9xt": "gr\u00fc\u00dfe \u2603\n",
            "null": None,
        }
        assert dumps_report(obj) == (
            '{\n'
            '  "empty": {},\n'
            '  "none": [],\n'
            '  "nested": [\n'
            '    [\n'
            '      0.10000000000000001,\n'
            '      0\n'
            '    ],\n'
            '    {\n'
            '      "k\u00e9y\\"": [\n'
            '        false,\n'
            '        3\n'
            '      ]\n'
            '    }\n'
            '  ],\n'
            '  "t\u00e9xt": "gr\u00fc\u00dfe \u2603\\n",\n'
            '  "null": null\n'
            '}'
        )

    @settings(max_examples=200, deadline=None)
    @given(obj=_REPORT_TREES, indent=st.integers(0, 2))
    @example(obj={"a": [1, True], "b": [1.0, 1], "c": [0.0, False], "d": [[], (), {}]}, indent=0)
    @example(obj=[[-0.0, 0.0, -0.0, 0.1, 0.1], (1, 2, 1), (True, False), [None, 1.0], ()], indent=1)
    @example(obj=[_Value("x"), "x", 1.0, [1.0, 1.0], {_Value("k"): (0.5, 0.5)}], indent=0)
    def test_report_bytes_are_the_recursive_reference(self, obj, indent):
        assert dumps_report(obj, indent) == reference_dumps(obj, indent)

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_number_is_refused(self, value):
        with pytest.raises(ValueError, match="non-finite number"):
            format_number(value)
        with pytest.raises(ValueError, match="non-finite number"):
            dumps_report({"a": [1.0, value]})

    # equal numbers of different types, and repeats, in one writer call
    MIXED = [True, 1, 1.0, 0, 0.0, -0.0, False, 0.1, 0.1, 1 / 3, -0.0, 1, True, 1.0, None, 1 / 3]

    def test_csv_bytes_are_format_number_per_cell(self):
        # _csv writes each grid point's coordinates, then the columns of floats
        # and None through one memo (equal floats 0.0 and -0.0, and repeats,
        # share it), then the text columns as they are
        floats = [x for x in self.MIXED if type(x) is not int and type(x) is not bool]
        for grid, numbers, texts in (
            (GridSpec([(0.0, 1.0, 2), (-1.0, 1.0, 5)]), [floats, floats[::-1]],
             [[f"{x}" for x in range(len(floats))]]),
            (GridSpec([(0.0, 0.3, 4), (-3.0, 0.0, 4)]), [[1.0, 0.0, -0.0, None] * 4], []),
        ):
            header = [f"h{i}" for i in range(len(grid.shape) + len(numbers) + len(texts))]
            expected = "".join(
                ",".join([*map(format_number, point),
                          *(v if type(v) is str else "" if v is None else format_number(v) for v in row)]) + "\n"
                for point, row in zip(grid, zip(*numbers, *texts))
            )
            assert _csv(header, grid, numbers, texts) == ",".join(header) + "\n" + expected
        lines = _csv(["x", "h"], GridSpec([(0.0, 9.0, 10)]), [floats]).splitlines()[1:7]
        assert [line.split(",")[1] for line in lines] == [
            "1", "0", "0", "0.10000000000000001", "0.10000000000000001", "0.33333333333333331"]

    def test_report_bytes_are_format_number_per_cell(self):
        obj = {"a": self.MIXED, "b": [self.MIXED[::-1], {"c": -0.0, "d": 0, "e": False}]}
        out = dumps_report(obj)
        assert json.loads(out) == json.loads(json.dumps(obj))
        cells = ["null" if v is None else format_number(v) for v in self.MIXED]
        assert out.startswith('{\n  "a": [\n    ' + ",\n    ".join(cells) + "\n  ],")
        assert out.endswith('"c": 0,\n      "d": 0,\n      "e": false\n    }\n  ]\n}')

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_csv_refuses_a_non_finite_cell_after_finite_ones(self, value):
        # columns: a later row, the same row twice, and between finite cells of a row
        for columns in ([[1.0, 1.0, value]], [[value], [value]], [[2.0], [value], [2.0]]):
            grid = GridSpec([(0.0, 1.0, len(columns[0]))])
            with pytest.raises(ValueError, match="non-finite number"):
                _csv(["x"] + ["h"] * len(columns), grid, columns)
        with pytest.raises(ValueError, match="non-finite number"):
            dumps_report([1.0, value, value])

    @pytest.mark.parametrize("value", [{1}, object(), Fraction(1, 3), b"x"])
    def test_unsupported_type_is_refused(self, value):
        with pytest.raises(TypeError, match=f"cannot serialize {type(value).__name__}"):
            dumps_report({"a": [value]})


class TestCurvatureCommand:
    def test_single_point_value(self, cfg):
        path = cfg("cyl.cfg", CYL1)
        r = run_cli(["curvature", "--config", path, "--function", "phi",
                     "--p", "0", "--at", "0.7,-0.4,0.65"])
        assert r.returncode == 0
        assert float(r.stdout.strip()) == pytest.approx(2 / 5 ** 0.25, rel=1e-12)
        assert len(r.stdout.strip()) >= 16  # 17 significant digits

    def test_single_point_value_goes_to_out(self, cfg, tmp_path, capsys):
        path, out = cfg("cyl.cfg", CYL1), tmp_path / "h.txt"
        argv = ["curvature", "--config", path, "--function", "phi", "--p", "0", "--at", "0.7,-0.4,0.65"]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        assert main([*argv, "--out", str(out)]) == 0
        assert capsys.readouterr().out == "" and out.read_text(encoding="utf-8") == printed

    def test_flat_level_sets(self, cfg):
        path = cfg("flat.cfg", CUSTOM_FLAT)
        r = run_cli(["curvature", "--config", path, "--function", "lin",
                     "--at", "0.3,0.4"])
        assert r.returncode == 0
        assert float(r.stdout.strip()) == 0.0

    def test_singular_point_exit_code(self, cfg):
        path = cfg("h1.cfg", HEIS1)
        r = run_cli(["curvature", "--config", path, "--function", "negz",
                     "--at", "0,0,0"])
        assert r.returncode == 3
        assert "singular point" in r.stderr

    def test_grid_mode_csv(self, cfg, tmp_path):
        path = cfg("h1.cfg", HEIS1)
        out = str(tmp_path / "grid.csv")
        r = run_cli(["curvature", "--config", path, "--function", "parab",
                     "--p", "1", "--grid", "5", "--format", "csv",
                     "--out", out])
        assert r.returncode == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "x1,y1,z,H"
        assert len(lines) == 1 + 5 ** 3
        # the operator with p = 1 returns 4 wherever it is defined
        values = {line.split(",")[-1] for line in lines[1:]}
        assert values <= {"4", ""}

    def test_grid_mode_bytes_with_a_masked_point(self, cfg, tmp_path):
        path = cfg("flat.cfg", CUSTOM_FLAT)
        out = tmp_path / "grid"
        argv = ["curvature", "--config", path, "--function", "bowl", "--grid", "3",
                "--out", str(out)]
        assert main(argv + ["--format", "csv"]) == 0
        assert out.read_bytes() == BOWL_CSV.encode()
        assert main(argv + ["--format", "json"]) == 0
        rows = [line.split(",") for line in BOWL_CSV.splitlines()[1:]]
        values = ",\n".join(
            "    {\n      \"point\": [\n"
            f"        {x},\n        {y}\n      ],\n      \"H\": {h or 'null'}\n    }}"
            for x, y, h in rows
        )
        axis = "      [\n        -1,\n        1,\n        3\n      ]"
        assert out.read_text() == (
            '{\n  "schema_version": "1",\n  "function": "bowl",\n  "p": "0",\n'
            f'  "grid": {{\n    "axes": [\n{axis},\n{axis}\n    ]\n  }},\n'
            f'  "values": [\n{values}\n  ]\n}}\n'
        )

    def test_grid_mode_bytes_on_three_axes(self, cfg, tmp_path):
        # three axes of unequal values: each coordinate column repeats its
        # values in row-major order; H is masked at the singular origin
        path = cfg("flat3.cfg", FLAT3)
        out = tmp_path / "grid"
        argv = ["curvature", "--config", path, "--function", "ball", "--p", "1/2", "--grid", "4",
                "--out", str(out)]
        assert main(argv + ["--format", "csv"]) == 0
        lines = out.read_text().splitlines()
        assert lines[:3] == ["x,y,z,H", "-1,-2,-1,2.2590050090246123", "-1,-2,0,2.3643540225079396"]
        assert len(lines) == 1 + 4 ** 3 and [line for line in lines if line.endswith(",")] == ["0,0,0,"]
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "e6ffcf38c211a99a1604987115b03fc793b8ef65cd7c32810a4759206c96cf8a")
        assert main(argv + ["--format", "json"]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "d6152260efd3e9636197401a605b20a3e5fcd24282044fb1210042c15eabdd6b")

    def test_grid_mode_json_deterministic(self, cfg, tmp_path):
        path = cfg("h1.cfg", HEIS1)
        out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        for out in (out1, out2):
            r = run_cli(["curvature", "--config", path, "--function", "parab",
                         "--p", "1", "--grid", "5", "--out", out])
            assert r.returncode == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()
        d = json.load(open(out1))
        assert d["schema_version"] == "1"
        assert len(d["values"]) == 5 ** 3

    def test_config_error_exit_code(self, cfg):
        path = cfg("bad.cfg", "[structure]\nkind = nosuch\n")
        r = run_cli(["curvature", "--config", path, "--function", "f",
                     "--at", "0"])
        assert r.returncode == 2
        assert "config error" in r.stderr

    def test_missing_file_exit_code(self):
        r = run_cli(["curvature", "--config", "/nonexistent.cfg",
                     "--function", "f", "--at", "0"])
        assert r.returncode == 2

    def test_eps_sing_env_override(self, cfg):
        path = cfg("h1.cfg", HEIS1)
        # huge threshold marks every point singular
        r = run_cli(["curvature", "--config", path, "--function", "parab",
                     "--at", "0.5,0.5,0.0"], env={"SUBCURV_EPS_SING": "100"})
        assert r.returncode == 3


class TestRankCommand:
    def test_frames_mode(self, cfg, tmp_path):
        path = cfg("h1.cfg", HEIS1)
        out = str(tmp_path / "rank.json")
        r = run_cli(["rank", "--config", path, "--at", "0.2,0.3,0.1",
                     "--out", out])
        assert r.returncode == 0
        d = json.load(open(out))
        assert d["rank"] == 3 and d["depth"] == 2
        assert d["hormander"].startswith("yes")
        assert d["two_form_rank"] == 2
        assert "fails" in d["two_form_verdict"]

    def test_surface_mode(self, cfg, tmp_path):
        text = "[structure]\nkind = heisenberg\nn = 2\n[function vert]\nexpr = x1 - 3/10\n"
        path = cfg("h2.cfg", text)
        out = str(tmp_path / "rank.json")
        r = run_cli(["rank", "--config", path, "--surface", "vert",
                     "--at", "0.3,0.1,-0.2,0.4,0.15", "--out", out])
        assert r.returncode == 0
        d = json.load(open(out))
        assert d["rank"] == 4 and d["target_rank"] == 4
        assert d["hormander"].startswith("yes")

    def test_fields_mode(self, cfg, tmp_path):
        text = CUSTOM_FLAT + "\n[field ex]\ncomponents = 1, 0\n"
        path = cfg("flat.cfg", text)
        out = str(tmp_path / "rank.json")
        r = run_cli(["rank", "--config", path, "--fields", "ex",
                     "--at", "0.1,0.2", "--out", out])
        assert r.returncode == 0
        d = json.load(open(out))
        assert d["rank"] == 1
        assert d["hormander"].startswith("no")

    def test_missing_frames_exit_code(self, cfg):
        path = cfg("flat.cfg", CUSTOM_FLAT)
        r = run_cli(["rank", "--config", path, "--surface", "lin",
                     "--at", "0.1,0.2"])
        assert r.returncode == 4
        assert "frames" in r.stderr

    def test_bracket_word_bound_names_the_point_once(self, cfg, monkeypatch):
        # the bound's own message names the point; rank must not wrap it again
        monkeypatch.setattr("subcurv.brackets.MAX_BRACKET_WORDS", 8)
        path = cfg("commuting.cfg", HEIS1 + (
            "\n[field a]\ncomponents = 1, 0, 0\n\n[field b]\ncomponents = 0, 1, 0\n"))
        code, err = run_main_quietly(["rank", "--config", path, "--fields", "a", "b",
                                      "--depth", "22"])
        assert (code, err) == (3, "evaluation error: rank 2 of 3 at point (0.0, 0.0, 0.0) "
                                  "not reached within MAX_BRACKET_WORDS = 8 bracket words\n")

    def test_graph_structure_two_form(self, cfg, tmp_path):
        text = "[structure]\nkind = graph_F\nm = 4\nF = -x2, x1, -x4, x3\n"
        path = cfg("gf.cfg", text)
        out = str(tmp_path / "rank.json")
        r = run_cli(["rank", "--config", path, "--at", "0.5,0.5,0.5,0.5,0",
                     "--out", out])
        assert r.returncode == 0
        d = json.load(open(out))
        assert d["two_form_rank"] == 4
        assert "holds" in d["two_form_verdict"]


class TestScenarioCommand:
    def test_list(self):
        # each builtin once, described by the text its report carries
        r = run_cli(["scenario", "list"])
        assert r.returncode == 0 and r.stderr == ""
        described = [f"{name}  -  {smp.run_scenario(smp.builtin_scenario(name)).as_dict()['description']}"
                     for name in smp.builtin_names()]
        assert r.stdout.splitlines() == described

    def test_unknown_name(self):
        r = run_cli(["scenario", "run", "nosuch"])
        assert r.returncode == 2
        known = ", ".join(smp.builtin_names())
        assert r.stderr == f"config error: unknown scenario 'nosuch'; known: {known}\n"

    @pytest.mark.parametrize(
        "name,expected",
        [
            ("h1-counterexample", "counterexample-detected;rank-condition-failed"),
            ("translate-coincide", "coincide-near-touching"),
            ("hyperplane-z", "coincide-near-touching"),
        ],
    )
    def test_builtin_runs(self, name, expected, tmp_path):
        out = str(tmp_path / "report.json")
        r = run_cli(["scenario", "run", name, "--out", out])
        assert r.returncode == 0
        d = json.load(open(out))
        assert d["classification"] == expected
        assert d["schema_version"] == "2"

    def test_byte_determinism_and_jobs(self, tmp_path):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        c = str(tmp_path / "c.json")
        assert run_cli(["scenario", "run", "h1-counterexample", "--out", a]).returncode == 0
        assert run_cli(["scenario", "run", "h1-counterexample", "--out", b]).returncode == 0
        assert run_cli(["scenario", "run", "h1-counterexample", "--out", c,
                        "--jobs", "4"]).returncode == 0
        ba, bb, bc = (open(p, "rb").read() for p in (a, b, c))
        assert ba == bb == bc

    def test_csv_table(self, tmp_path):
        out = str(tmp_path / "r.json")
        csv_path = str(tmp_path / "r.csv")
        r = run_cli(["scenario", "run", "h1-counterexample", "--out", out,
                     "--csv", csv_path])
        assert r.returncode == 0
        lines = open(csv_path).read().splitlines()
        assert lines[0] == "x1,x2,v_minus_u,H_u,H_v,singular_u,singular_v"
        assert len(lines) == 1 + 65 * 65

    def test_radial_scenario_from_config(self, cfg, tmp_path):
        text = """
[function small]
expr = 1/2*r^2

[function big]
expr = r^2

[scenario]
name = radial-pair
operator = radial_cylinder
n = 1
u = small
v = big
box = 0.5:1.5
grid = 17
"""
        path = cfg("radial.cfg", text)
        out = str(tmp_path / "r.json")
        r = run_cli(["scenario", "run", "--config", path, "--out", out])
        assert r.returncode == 0
        d = json.load(open(out))
        assert d["classification"] == "hypothesis-violated"
        expected = 2 / 5 ** 0.25 - 1 / 2 ** 0.25
        assert d["curvature_gap"]["max"] == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("name", smp.builtin_names())
    def test_config_round_trip_reproduces_report(self, name, tmp_path):
        sc = smp.builtin_scenario(name)
        cfg_path = tmp_path / "sc.cfg"
        cfg_path.write_text(scenario_to_config(sc))
        a = str(tmp_path / "registry.json")
        b = str(tmp_path / "config.json")
        assert run_cli(["scenario", "run", name, "--out", a]).returncode == 0
        assert run_cli(["scenario", "run", "--config", str(cfg_path),
                        "--out", b]).returncode == 0
        assert open(a, "rb").read() == open(b, "rb").read()


class TestExitCodeContract:
    def test_deeply_nested_expression_is_config_error(self, cfg):
        nested = HEIS1.replace("expr = -z", "expr = " + "(" * 300 + "z" + ")" * 300)
        path = cfg("deep.cfg", nested)
        proc = run_cli(["curvature", "--config", path, "--function", "negz",
                        "--at", "0.5,0.5,0.5"])
        assert proc.returncode == 2
        assert "nested deeper" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_all_documented_codes_reachable(self, cfg):
        # 0: success
        assert run_cli(["scenario", "list"]).returncode == 0
        # 2: config error
        assert run_cli(["curvature", "--config", "/nope", "--function", "f",
                        "--at", "0"]).returncode == 2
        # 3: evaluation error at a singular point
        path = cfg("h1.cfg", HEIS1)
        assert run_cli(["curvature", "--config", path, "--function", "negz",
                        "--at", "0,0,0"]).returncode == 3
        # 4: missing frames
        flat = cfg("flat.cfg", CUSTOM_FLAT)
        assert run_cli(["rank", "--config", flat, "--surface", "lin",
                        "--at", "0,0"]).returncode == 4

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", [["curvature", "--function", "negz"], ["rank"]],
                             ids=["curvature", "rank"])
    def test_non_finite_point_is_config_error(self, cfg, command, value):
        path = cfg("h1.cfg", HEIS1)
        code, err = run_main_quietly([command[0], "--config", path, *command[1:],
                                      f"--at=0.5,{value},0"])
        assert code == 2
        assert f"config error: bad point '0.5,{value},0': not a finite number" in err

    def test_rk4_step_count_over_the_bound_is_config_error(self, cfg):
        # 1e308 / step overflows to inf, so no step count exists
        text = _SIZED.format(op="la_graph", u="1/3", box="-0.5:0.5, -0.5:0.5") + "T = 1e308\n"
        code, err = run_main_quietly(["scenario", "run", "--config", cfg("long.cfg", text),
                                      "--out", os.devnull])
        assert code == 2
        assert ("config error: line 15: [scenario]: |T| / step asks for inf RK4 steps, "
                "over the bound of 1000000") in err

    def test_rank_threshold_overflow_names_the_point(self, cfg):
        # at x1 = 1e160 the frame rows' norm overflows, so no pivot threshold exists
        path = cfg("h1.cfg", HEIS1)
        code, err = run_main_quietly(["rank", "--config", path, "--at", "1e160,0,0"])
        assert code == 3
        assert ("evaluation error: rank undefined at point (1e+160, 0.0, 0.0): "
                "pivot threshold outside the float range") in err

    def test_scenario_template_runs(self, cfg, capsys):
        path = cfg("ok.cfg", SCENARIO)
        assert main(["scenario", "run", "--config", path, "--out", os.devnull]) == 0

    @pytest.mark.parametrize("writer", ["scenario-out", "scenario-csv", "curvature-out",
                                        "curvature-at-out", "rank-out", "out-is-a-directory"])
    def test_unwritable_output_is_config_error(self, cfg, tmp_path, writer):
        missing, report = str(tmp_path / "no" / "such" / "x.out"), str(tmp_path / "report.json")
        h1 = cfg("h1.cfg", HEIS1)
        bad = str(tmp_path) if writer == "out-is-a-directory" else missing
        argv = {
            "scenario-out": ["scenario", "run", "hyperplane-z", "--out", bad],
            "scenario-csv": ["scenario", "run", "hyperplane-z", "--out", report, "--csv", bad],
            "curvature-out": ["curvature", "--config", h1, "--function", "negz", "--grid", "3",
                              "--out", bad],
            "curvature-at-out": ["curvature", "--config", h1, "--function", "negz", "--at", "0.5,0.5,0",
                                 "--out", bad],
            "rank-out": ["rank", "--config", h1, "--at", "0.5,0.5,0", "--out", bad],
            "out-is-a-directory": ["scenario", "run", "hyperplane-z", "--out", bad],
        }[writer]
        code, err = run_main_quietly(argv)
        assert code == 2
        assert err.startswith(f"config error: cannot write {bad}: ") and err.count("\n") == 1
        if writer == "scenario-csv":  # the report written before the CSV stays whole
            with open(report, encoding="utf-8") as fh:
                assert json.loads(fh.read())["classification"]

    def test_config_that_is_not_utf8_is_config_error_naming_the_byte(self, tmp_path):
        path = tmp_path / "utf16.cfg"
        path.write_bytes(b"\xff\xfe" + SCENARIO.encode("utf-16-le"))
        code, err = run_main_quietly(["scenario", "run", "--config", str(path), "--out", os.devnull])
        assert code == 2
        assert err == f"config error: cannot read config {path}: not UTF-8 at byte 0 (invalid start byte)\n"
        # the offset counts bytes of the file, past the decoder's first chunk too
        path.write_bytes(SCENARIO.encode("utf-8") + b"#" * 10000 + b"\n# caf\xe9\n")
        code, err = run_main_quietly(["scenario", "run", "--config", str(path), "--out", os.devnull])
        assert code == 2 and f"not UTF-8 at byte {len(SCENARIO.encode()) + 10006} " in err

    @pytest.mark.parametrize(
        "old, new, line, needle",
        [
            ("grid = 5", "grid = 0", 18, "grid must be"),
            ("grid = 5", "grid = abc", 18, "grid must be"),
            ("grid = 5", "grid = 5, 0", 18, "grid must be"),
            ("grid = 5", "grid = 5\neps_touch = abc", 19, "eps_touch must be a number"),
            ("grid = 5", "grid = 5\np = 1/0", 19, "p must be a rational"),
            ("grid = 5", "grid = 5\np = -1", 19, "p must be >= 0"),
            ("grid = 5", "grid = 5\nrank_depth = two", 19, "rank_depth must be an integer"),
            ("grid = 5", "grid = 5\nT = nan", 19, "T must be a number"),
            ("grid = 5", "grid = 5\neps_h = inf", 19, "eps_h must be a number"),
            ("y1^2 + 1\n", "y1^2 + 2^100000\n", 11, "outside the float range"),
            ("y1^2 + 1\n", "y1^2 + 10^1000000\n", 11, "outside the float range"),
            ("y1^2 + 1\n", "y1^2 + 1e5000000\n", 11, "exponent beyond"),
        ],
        ids=["grid-zero", "grid-abc", "grid-axis-zero", "eps-touch-abc",
             "p-zero-denominator", "p-negative", "rank-depth-word", "T-nan", "eps-h-inf",
             "power-overflow", "power-too-large-to-build", "literal-exponent"],
    )
    def test_bad_value_is_config_error_naming_its_line(self, cfg, capsys, old, new, line, needle):
        assert old in SCENARIO
        path = cfg("bad.cfg", SCENARIO.replace(old, new))
        assert main(["scenario", "run", "--config", path, "--out", os.devnull]) == 2
        err = capsys.readouterr().err
        assert f"line {line}: " in err and needle in err

    def test_indefinite_custom_cometric_is_config_error(self, cfg, capsys):
        # |dphi|*^2 = 1 - 4 < 0 used to be clamped and reported as a
        # singular point (exit 3)
        bad = CUSTOM_FLAT.replace("cometric.1.1 = 1", "cometric.1.1 = -1")
        bad += "\n[function phi]\nexpr = x + 2*y\nbox = -1:1, -1:1\n"
        path = cfg("indefinite.cfg", bad)
        assert main(["curvature", "--config", path, "--function", "phi",
                     "--at", "0.1,0.2"]) == 2
        err = capsys.readouterr().err
        assert "not PSD" in err and "cometric.1.1 is" in err

    @pytest.mark.parametrize("box", ["1000:2000, 1000:2000, -1:1", "1e5:2e5, 1e5:2e5, -1:1"])
    def test_heisenberg_cometric_far_from_the_origin_is_psd(self, cfg, box):
        # heisenberg(1)'s own cometric has rank 2; its 3x3 minor is zero and
        # once rounded to -1.7e-10 (-4.4e-06 at 1e5), below an absolute bound
        path = cfg("h1.cfg", (
            "[structure]\nkind = custom\ncoords = x, y, z\n"
            "cometric.0.0 = 1\ncometric.0.2 = y\ncometric.1.1 = 1\n"
            "cometric.1.2 = -x\ncometric.2.2 = x^2 + y^2\n"
            f"box = {box}\n\n[function phi]\nexpr = z + x\n"
        ))
        code, err = run_main_quietly(["curvature", "--config", path, "--function", "phi",
                                      "--at", "1500,1500,0"])
        assert (code, err) == (0, "")

    def test_indefinite_cometric_without_a_box_is_config_error_naming_the_point(
        self, cfg, capsys, tmp_path
    ):
        # no box, so nothing probes the cometric at load: the norm itself
        # must refuse |dphi|*^2 = 1 - 4 instead of clamping it to 0
        bad = CUSTOM_FLAT.replace("cometric.1.1 = 1", "cometric.1.1 = -1")
        bad = bad.replace("box = -1:1, -1:1\n", "")
        bad += "\n[function phi]\nexpr = x + 2*y\nbox = -1:1, -1:1\n"
        path = cfg("indefinite.cfg", bad)
        assert main(["curvature", "--config", path, "--function", "phi",
                     "--at", "0.1,0.2"]) == 2
        err = capsys.readouterr().err
        assert "not PSD at (0.1, 0.2)" in err and "|dphi|*^2 is -3" in err
        # the grid and the scenario sweep use the same rule: the graph
        # x = 2y has |dphi|*^2 = 1 - 4 at every chart point, and the sweep
        # names the graph and its ambient point, chart y = -1 lifted to x = -2
        bad += (
            "\n[function u]\nexpr = 2*y\nbox = -1:1\n"
            "\n[function v]\nexpr = 2*y + 1\n"
            "\n[scenario]\noperator = generic\ngraph_dir = x\nu = u\nv = v\ngrid = 3\n"
        )
        path = cfg("indefinite-grid.cfg", bad)
        out, csv = tmp_path / "out", tmp_path / "out.csv"
        grid = ["curvature", "--config", path, "--function", "phi", "--grid", "2",
                "--out", str(out)]
        runs = [
            (grid + ["--format", "json"], "error: cometric not PSD at (-1.0, -1.0)"),
            (grid + ["--format", "csv"], "error: cometric not PSD at (-1.0, -1.0)"),
            (["scenario", "run", "--config", path, "--out", str(out), "--csv", str(csv)],
             "error: graph u: cometric not PSD at (-2.0, -1.0)"),
        ]
        for argv, needle in runs:
            code, err = run_main_quietly(argv)
            assert code == 2, argv
            assert f"{needle}: |dphi|*^2 is -3" in err
            assert not out.exists() and not csv.exists()

    def test_newton_step_out_of_the_domain_leaves_the_point_unrefined(self, cfg, tmp_path):
        # every point touches, and Newton on 1e-7*x1^(3/2) steps from x1 to
        # -x1, where the gradient kernel raises
        path = cfg("newton.cfg", SCENARIO.replace(
            "y1^2 + 1\n", "y1^2 + 0.0000001*(x1^(3/2) + y1^2)\n"))
        out = tmp_path / "out.json"
        code, err = run_main_quietly(["scenario", "run", "--config", path, "--out", str(out)])
        assert code == 0, err
        d = json.loads(out.read_text())
        [cluster] = d["touching_clusters"]
        assert d["touching_count"] == cluster["cells"] == 25
        rep = cluster["representative"]
        assert rep["index"] == [2, 2] and not rep["refined"]
        assert rep["refined_point"] == rep["point"]

    def test_norm_domain_hole_names_the_graph_and_the_point(self, cfg, tmp_path):
        # no box, so nothing probes the cometric at load
        text = (
            "[structure]\nkind = custom\ncoords = x, y\ncometric.0.0 = sqrt(x - 0.7)\n"
            "cometric.1.1 = 1\n\n[function phi]\nexpr = x^2 - y\nbox = 0.5:1.5, -1:1\n"
            "\n[function u]\nexpr = x^2\n\n[function v]\nexpr = x^2 + 1\n"
            "\n[scenario]\noperator = generic\nu = u\nv = v\nbox = 0.5:1.5\ngrid = 5\n"
        )
        path = cfg("hole.cfg", text)
        out = str(tmp_path / "out")
        hole = "non-integer power 0.5 of non-positive base -0.19999999999999996"
        runs = [
            (["scenario", "run", "--config", path, "--out", out],
             f"graph u: |dphi|*^2 undefined at chart point (0.5,): {hole}"),
            (["curvature", "--config", path, "--function", "phi", "--grid", "3", "--out", out],
             f"|dphi|*^2 undefined at chart point (0.5, -1.0): {hole}"),
        ]
        for argv, needle in runs:
            code, err = run_main_quietly(argv)
            assert code == 3 and needle in err, err

    @pytest.mark.parametrize("structure, quantity", [
        ("cometric.0.0 = sqrt(x - 0.7)\ncometric.1.1 = 1\n", "|dphi|*^2"),
        ("cometric.0.0 = 1\ncometric.1.1 = 1\ndensity = sqrt(x - 0.7)\n", "H"),
    ], ids=["norm-hole", "H-hole"])
    def test_curvature_at_names_the_point_and_the_quantity(self, cfg, structure, quantity):
        text = ("[structure]\nkind = custom\ncoords = x, y\n" + structure
                + "\n[function phi]\nexpr = x^2 + y\n")
        path = cfg("at.cfg", text)
        code, err = run_main_quietly(["curvature", "--config", path, "--function", "phi",
                                      "--at", "0.5,0.2"])
        hole = "non-integer power 0.5 of non-positive base -0.19999999999999996"
        assert code == 3
        assert f"evaluation error: {quantity} undefined at chart point (0.5, 0.2): {hole}" in err

    def test_bracket_words_past_the_bound_are_evaluation_errors(self, cfg):
        # the rank of commuting fields never reaches its target; 2^23 - 2 words
        # (rank) and 3 + 9 + ... + 3^30 words (scenario run) would never end
        path = cfg("commuting.cfg", HEIS1 + (
            "\n[field a]\ncomponents = 1, 0, 0\n\n[field b]\ncomponents = 0, 1, 0\n"))
        r = run_cli(["rank", "--config", path, "--fields", "a", "b", "--depth", "22",
                     "--out", os.devnull])
        assert r.returncode == 3
        assert ("rank 2 of 3 at point (0.0, 0.0, 0.0) not reached within "
                f"MAX_BRACKET_WORDS = {MAX_BRACKET_WORDS} bracket words") in r.stderr
        # a flat graph_F: the three tangent fields of the plane u = x1 + x2 commute
        path = cfg("flat3.cfg", (
            "[structure]\nkind = graph_F\nm = 3\nF = 0, 0, 0\n\n"
            "[function u]\nexpr = x1 + x2\n\n[function v]\nexpr = x1 + x2\n\n"
            "[scenario]\noperator = graph_HF\nu = u\nv = v\nbox = 0:1, 0:1, 0:1\n"
            "grid = 3\nrank_depth = 30\n"))
        r = run_cli(["scenario", "run", "--config", path, "--out", os.devnull])
        assert r.returncode == 3
        assert "rank 2 of 3 at point (0.0, 0.0, 0.0, 0.0) not reached" in r.stderr

    def test_rank_evaluation_error_names_the_point(self, cfg):
        text = CUSTOM_FLAT.replace("box = -1:1, -1:1\n", "") + (
            "\n[field a]\ncomponents = sqrt(x - 0.5), 1\n\n[field b]\ncomponents = 1, x\n")
        path = cfg("rank.cfg", text)
        code, err = run_main_quietly(["rank", "--config", path, "--fields", "a", "b",
                                      "--out", os.devnull])
        assert code == 3
        assert "at point (0.1, 0.2): non-integer power 0.5 of non-positive base -0.4" in err

    @pytest.mark.parametrize("box", ["-0.5:1", "0:1"])
    def test_radial_box_reaching_r_nonpositive_is_config_error(self, cfg, box):
        # the radial chart is r > 0; project(lift(r)) = |r| would measure
        # propagation at the wrong radius
        text = ("[function u]\nexpr = r^2/2 + 1/5\n\n[scenario]\noperator = radial_cylinder\n"
                f"n = 1\nu = u\nv = u\nbox = {box}\ngrid = 5\n")
        path = cfg("radial.cfg", text)
        code, err = run_main_quietly(["scenario", "run", "--config", path, "--out", os.devnull])
        assert code == 2
        assert "[scenario]: the radial chart needs r > 0" in err

    @pytest.mark.parametrize("graph", ["u", "v"])
    def test_domain_hole_in_a_graph_names_the_graph_and_the_point(self, cfg, graph):
        # sqrt(y1) over y1 in [-0.5, 0.5]: the first grid point is a hole
        text = SCENARIO.replace("expr = x1^2 + y1^2\n", "expr = x1^2 + sqrt(y1)\n", 1)
        if graph == "v":
            text = text.replace("u = u\nv = v", "u = v\nv = u")
        path = cfg("hole.cfg", text)
        code, err = run_main_quietly(["scenario", "run", "--config", path, "--out", os.devnull])
        assert code == 3
        assert f"graph {graph} undefined at chart point (0.5, -0.5)" in err

    @pytest.mark.parametrize(
        "u, v, box, needle",
        [
            ("a*b", "a*b + 1", "1e200:2e200, 1e200:2e200",
             "graph u undefined at chart point (1e+200, 1e+200): non-finite value inf"),
            ("1", "a*b", "1e200:2e200, 1e200:2e200",
             "graph v undefined at chart point (1e+200, 1e+200): non-finite value inf"),
            ("-a", "a", "1e308:1.5e308, 0:1",
             "v - u undefined at chart point (1e+308, 0.0): non-finite value inf"),
        ],
        ids=["u-overflows", "v-overflows", "difference-overflows"],
    )
    def test_non_finite_graph_value_names_the_graph_and_the_point(self, cfg, u, v, box, needle):
        # a product or difference that overflows raises nothing: inf (or
        # inf - inf = nan) reached the writer
        text = (
            "[structure]\nkind = custom\ncoords = a, b, c\ncometric.2.2 = 1\ndegeneracy = 2\n"
            f"\n[function u]\nexpr = {u}\n\n[function v]\nexpr = {v}\n"
            f"\n[scenario]\noperator = generic\nu = u\nv = v\nbox = {box}\ngrid = 2\n"
        )
        path = cfg("overflow.cfg", text)
        code, err = run_main_quietly(["scenario", "run", "--config", path, "--out", os.devnull])
        assert code == 3
        assert f"evaluation error: {needle}" in err

    @pytest.mark.parametrize(
        "u, box, needle",
        [
            # 5.75^400 is finite and 6^400 is not
            ("x1^400", "5:6, -0.5:0.5", "graph u undefined at chart point (6.0, -0.5)"),
            ("x1^2", "1e200:2e200, -0.5:0.5", "graph u undefined at chart point (1e+200, -0.5)"),
            # u is finite, and x1^198 in its squared norm is not
            ("x1^100", "1000:1001, -0.5:0.5",
             "graph u: |dphi|*^2 undefined at chart point (1000.0, -0.5)"),
        ],
        ids=["value-power", "value-square", "norm"],
    )
    def test_overflow_in_a_graph_names_the_graph_and_the_point(self, cfg, u, box, needle):
        text = SCENARIO.replace("expr = x1^2 + y1^2\nbox = 0.5:1.5, -0.5:0.5",
                                f"expr = {u}\nbox = {box}", 1)
        path = cfg("overflow.cfg", text)
        code, err = run_main_quietly(["scenario", "run", "--config", path, "--out", os.devnull])
        assert code == 3
        assert f"evaluation error: {needle}: outside the float range ((34, " in err, err

    @pytest.mark.parametrize(
        "command, point",
        [(["--grid", "3", "--out", os.devnull], "(1000.0, -1.0, -1.0)"),
         (["--at", "1000,0,0"], "(1000.0, 0.0, 0.0)")],
        ids=["grid", "at"],
    )
    def test_overflow_in_the_norm_names_the_point(self, cfg, command, point):
        text = HEIS1.replace("expr = -z\nbox = -1:1, -1:1, -1:1",
                             "expr = x1^100 - z\nbox = 1000:1001, -1:1, -1:1")
        path = cfg("overflow.cfg", text)
        code, err = run_main_quietly(["curvature", "--config", path, "--function", "negz"]
                                     + command)
        assert code == 3
        assert f"|dphi|*^2 undefined at chart point {point}: outside the float range" in err, err

    def test_custom_structure_undefined_on_its_box(self, cfg, capsys):
        bad = CUSTOM_FLAT.replace("density = 1", "density = 1/x")
        path = cfg("hole.cfg", bad)
        assert main(["curvature", "--config", path, "--function", "lin",
                     "--at", "0.5,0.5"]) == 2
        assert "line 8: [structure]: cometric or density undefined" in capsys.readouterr().err

    @pytest.mark.parametrize("text, argv, message", [
        ("[function f]\nexpr = x\n", ["curvature", "--function", "f", "--at", "0"],
         "no [structure] section"),
        (_H1 + "\n[function f]\nbox = -1:1, -1:1, -1:1\n", _AT_ORIGIN, "function 'f' has no expr"),
        (_H1, ["rank", "--fields", "a"], "no [field a] section"),
        (_H1 + "\n[field a]\n", ["rank", "--fields", "a"], "field 'a' has no components"),
        (_H1 + "\n[field a]\ncomponents = 1, 0\n", ["rank", "--fields", "a"],
         "line 6: field 'a' has 2 components for 3 coordinates"),
        ("[structure\n", _AT_ORIGIN, "line 1: unterminated section header"),
        ("[structure]\nkind heisenberg\n", _AT_ORIGIN, "line 2: expected key = value"),
        ("[structure]\n= heisenberg\n", _AT_ORIGIN, "line 2: empty key"),
        ("[structure]\nkind = graph_F\nm = 2\nF = x2,\n", _AT_ORIGIN,
         "line 4: [structure] F: empty expression in list"),
        (_H1 + "\n[function f]\nexpr = z\nbox = -1:1, -1:1, 2\n", _AT_ORIGIN,
         "line 7: box interval '2' must be lo:hi"),
        (_H1 + "\n[function f]\nexpr = z\nbox = a:1, -1:1, -1:1\n", _AT_ORIGIN,
         "line 7: bad box interval 'a:1'"),
        ("[structure]\nkind = heisenberg\n", _AT_ORIGIN, "[structure]: missing n"),
        ("[structure]\nn = 1\n", _AT_ORIGIN, "[structure]: missing kind"),
        ("[structure]\nkind = graph_F\nm = 2\n", _AT_ORIGIN,
         "[structure]: graph_F needs F = expr, expr, ..."),
        ("[structure]\nkind = graph_F\nm = 2\nF = x2\n", _AT_ORIGIN,
         "line 4: [structure]: F has 1 components for m=2"),
        ("[structure]\nkind = custom\n", _AT_ORIGIN,
         "[structure]: custom needs coords = name, name, ..."),
        ("[structure]\nkind = custom\ncoords = x, y\ncometric.1 = 1\n", _AT_ORIGIN,
         "line 4: [structure]: bad cometric key 'cometric.1'"),
        ("[structure]\nkind = custom\ncoords = x, y\ncometric.a.0 = 1\n", _AT_ORIGIN,
         "line 4: [structure]: bad cometric key 'cometric.a.0'"),
        ("[structure]\nkind = custom\ncoords = x, y\ncometric.0.5 = 1\n", _AT_ORIGIN,
         "line 4: [structure]: cometric index out of range in cometric.0.5"),
        (SCENARIO.replace("operator = generic\n", ""), _RUN, "[scenario]: missing operator"),
        ("[structure]\nkind = custom\ncoords = x, y\ncometric.0.0 = 1\n\n[scenario]\noperator = graph_HF\n",
         _RUN, "line 7: [scenario]: graph_HF needs a graph_F structure"),
        (SCENARIO + "graph_dir = w\n", _RUN, "line 19: [scenario]: unknown graph_dir 'w'"),
        (_H1, _RUN, "no [scenario] section"),
        (SCENARIO.replace("u = u\n", ""), _RUN, "[scenario]: missing u"),
        (SCENARIO.replace("box = 0.5:1.5, -0.5:0.5\n", "", 1), _RUN,
         "[scenario]: no box (set box= or give u a box)"),
        (HEIS1, ["curvature", "--function", "negz", "--at", "0,0"],
         "point has 2 coordinates, chart needs 3"),
        (None, ["scenario", "run"], "scenario run needs a NAME or --config"),
        # a [structure] key the kind does not read, and a size given twice
        (_H1 + "box = -1:1, -1:1, -1:1\n", ["curvature", "--function", "f", "--grid", "3"],
         "line 4: [structure]: kind heisenberg does not read box"),
        (_H1.replace("heisenberg", "cylinder") + "density = 2\nm = 3\n", _AT_ORIGIN,
         "line 4: [structure]: kind cylinder does not read density"),
        (_H1.replace("heisenberg", "cylinder") + "m = 3\n", _AT_ORIGIN,
         "line 4: [structure]: kind cylinder does not read m"),
        (_H1 + "cometric.0.0 = 1\n", _AT_ORIGIN,
         "line 4: [structure]: kind heisenberg does not read cometric.0.0"),
        ("[structure]\nkind = graph_F\nm = 2\nF = -x2, x1\nbox = 0:1, 0:1, 0:1\n", _AT_ORIGIN,
         "line 5: [structure]: kind graph_F does not read box"),
        ("[structure]\nkind = custom\ncoords = x, y\nn = 2\n", _AT_ORIGIN,
         "line 4: [structure]: kind custom does not read n"),
        ("[structure]\nkind = heisenberg(2)\nn = 1\n", _AT_ORIGIN,
         "line 3: [structure]: size given twice, in kind heisenberg(2) and as n"),
        ("[structure]\nm = 2\nkind = graph_F(2)\nF = -x2, x1\n", _AT_ORIGIN,
         "line 2: [structure]: size given twice, in kind graph_F(2) and as m"),
        ("[structure]\nkind = custom(2)\ncoords = x, y\n", _AT_ORIGIN,
         "line 2: [structure]: kind custom does not read n"),
        ("[structure]\nkind = heisenberg(x)\n", _AT_ORIGIN,
         "line 2: [structure]: n must be an integer, got 'x'"),
        # a structure box follows the rule of a function box
        ("[structure]\nkind = custom\ncoords = x, y, z\ncometric.0.0 = 1\nbox = -1:1, 1:-1, -1:1\n",
         ["curvature", "--function", "f", "--grid", "3", "--format", "csv"],
         "line 5: [structure]: empty interval (1.0, -1.0)"),
        ("[structure]\nkind = custom\ncoords = x, y\nbox = -1:1\n", _AT_ORIGIN,
         "line 4: [structure]: box has 1 intervals, chart needs 2"),
        # a coordinate name that no expression can write
        ("[structure]\nkind = custom\ncoords = x, , z\n", _AT_ORIGIN,
         "line 3: [structure] coords: '' is not a name: unexpected token '' (at offset 0)"),
        ("[structure]\nkind = custom\ncoords = x, sqrt, z\n", _AT_ORIGIN,
         "line 3: [structure] coords: 'sqrt' is not a name: expected '(', got '' (at offset 4)"),
        ("[structure]\nkind = custom\ncoords = x, 2y, z\n", _AT_ORIGIN,
         "line 3: [structure] coords: '2y' is not a name: unexpected trailing input 'y' (at offset 1)"),
        ("[structure]\nkind = custom\ncoords = x, y, x+y\n", _AT_ORIGIN,
         "line 3: [structure] coords: 'x+y' is not a name"),
    ], ids=["no-structure", "no-expr", "no-field", "no-components", "component-count",
            "unterminated-header", "no-equals", "empty-key", "empty-list-entry", "box-not-lo-hi",
            "box-not-a-number", "missing-key", "no-kind", "graph-F-without-F", "F-count",
            "custom-without-coords", "cometric-key-parts", "cometric-key-index",
            "cometric-index-range", "no-operator", "graph-HF-without-graph-F", "graph-dir",
            "no-scenario", "no-u", "no-box", "point-length", "run-without-a-scenario",
            "heisenberg-box", "cylinder-density", "cylinder-m", "heisenberg-cometric", "graph-F-box",
            "custom-n", "size-twice-n", "size-twice-m", "compact-custom", "compact-size-not-integer",
            "structure-empty-interval",
            "structure-box-length", "coords-empty", "coords-sqrt", "coords-not-identifier",
            "coords-sum"])
    def test_every_config_refusal_is_pinned(self, cfg, text, argv, message):
        # the whole of stderr: one line, the value's config line where it has one
        config = [] if text is None else ["--config", cfg("refused.cfg", text)]
        assert run_main_quietly([*argv, *config]) == (2, f"config error: {message}\n")

    @pytest.mark.parametrize("structure, message", [
        ("coords = x, x\ncometric.0.0 = 1\n",
         "line 3: [structure] coords: duplicate coordinate names in ('x', 'x')"),
        ("coords = x, y\ncometric.0.1 = x\ncometric.0.0 = 1\ncometric.1.0 = y\n",
         "line 6: [structure]: cometric.1.0 differs from cometric.0.1, and the cometric is symmetric"),
        ("coords = x, y\ncometric.1.0 = 2\ncometric.0.1 = 3\n",
         "line 5: [structure]: cometric.0.1 differs from cometric.1.0, and the cometric is symmetric"),
        ("coords = x, y\ncometric.0.1 = x*y\ncometric.1.0 = y*x\ncometric.0.0 = 1\n", None),
    ], ids=["coords-twice", "mirror-differs", "mirror-differs-first-lower", "mirror-equal"])
    def test_a_name_given_twice_or_an_unequal_mirror_names_its_line(self, cfg, structure, message):
        path = cfg("custom.cfg", "[structure]\nkind = custom\n" + structure + "\n[function f]\nexpr = x\n")
        expected = (0, "") if message is None else (2, f"config error: {message}\n")
        assert run_main_quietly(["curvature", "--config", path, "--function", "f", "--at", "0,0"]) == expected

    @pytest.mark.parametrize("structure, code, message", [
        ("cometric.0.0 = 1\ncometric.1.1 = x\n", 2, "config error: [structure]: cometric not "
         "PSD at (-1.0, -1.0): principal minor of cometric.1.1 is -1.0"),
        ("cometric.0.0 = 1\ncometric.0.1 = 2\ncometric.1.1 = 1\n", 2, "config error: "
         "[structure]: cometric not PSD at (-1.0, -1.0): principal minor of cometric.0.0, "
         "cometric.0.1, cometric.1.1 is -3.0"),
        ("cometric.0.0 = 1\ncometric.1.1 = 1\ndensity = y + 1/2\n", 2,
         "config error: [structure]: volume density -0.5 not positive at (-1.0, -1.0)"),
        ("cometric.0.0 = 1\ncometric.1.1 = 1 + sqrt(x)\n", 2, "config error: line 6: "
         "[structure]: cometric or density undefined on the box: non-integer power 0.5 of "
         "non-positive base -1.0"),
        # not PSD at the first probe points, and no value at x = 0
        ("cometric.0.0 = 1 + x^-1\ncometric.1.1 = -1\n", 2, "config error: line 6: "
         "[structure]: cometric or density undefined on the box: zero raised to negative "
         "integer power -1"),
        ("cometric.0.0 = 1\ncometric.1.1 = 1\ndensity = 1/y\n", 2, "config error: line 7: "
         "[structure]: cometric or density undefined on the box: zero raised to negative "
         "integer power -1"),
        # the entry fails before the density at the same point
        ("cometric.0.0 = 1 + sqrt(y + 1/2)\ncometric.1.1 = 1\ndensity = sqrt(x)\n", 2,
         "config error: line 7: [structure]: cometric or density undefined on the box: "
         "non-integer power 0.5 of non-positive base -0.5"),
        ("cometric.0.0 = 1 + (x + 2)^2000\ncometric.1.1 = 1\n", 3,
         "evaluation error: outside the float range ((34, 'Numerical result out of range'))"),
    ], ids=["not-psd", "not-psd-2x2", "density", "entry-hole", "entry-hole-later",
            "density-hole", "entry-before-density", "overflow"])
    def test_probe_refusals_are_pinned(self, cfg, structure, code, message):
        path = cfg("probe.cfg", "[structure]\nkind = custom\ncoords = x, y\n" + structure
                   + "box = -1:1, -1:1\n\n[function phi]\nexpr = x + y\n")
        assert run_main_quietly(["curvature", "--config", path, "--function", "phi",
                                 "--at", "0.5,0.5"]) == (code, message + "\n")

    @pytest.mark.parametrize(
        "command",
        [["--at", "0.7,0.1,0.2"], ["--grid", "3", "--out", os.devnull]],
        ids=["at", "grid"],
    )
    def test_constant_overflow_while_building_the_operator(self, cfg, command):
        # (4e300)^2 leaves the float range while |dphi|*^2 is built; the
        # message names the function and its config line
        text = HEIS1.replace("expr = -z", "expr = 1e300*x1^4")
        path = cfg("big.cfg", text)
        code, err = run_main_quietly(["curvature", "--config", path, "--function", "negz"]
                                     + command)
        assert code == 3
        assert err.startswith("evaluation error: line 7: function 'negz': outside the float range while building H (")
        assert "Traceback" not in err

    def test_constant_overflow_while_building_the_scenario(self, cfg):
        path = cfg("big.cfg", SCENARIO.replace("expr = x1^2 + y1^2\n", "expr = 1e200*x1^2\n", 1))
        code, err = run_main_quietly(["scenario", "run", "--config", path, "--out", os.devnull])
        assert code == 3 and "outside the float range" in err

    @pytest.mark.parametrize("graph, old", [("u", "x2^2\n"), ("v", "x2^2 + 1\n")])
    def test_constant_overflow_while_building_h_names_the_graph(self, cfg, graph, old):
        # (2e154)^2 leaves the float range while graph_HF folds H's constants;
        # at jobs 2 the child fails and the main process sweeps v itself
        text = _OPERATOR_CONFIGS["graph_HF"].replace(f"expr = x1^2 + {old}", f"expr = x1^2 + 1e154*{old}")
        path = cfg("big.cfg", text)
        errs = []
        for jobs in ("1", "2"):
            code, err = run_main_quietly(["scenario", "run", "--config", path, "--out", os.devnull,
                                          "--jobs", jobs])
            assert code == 3
            errs.append(err)
        assert errs[0] == errs[1]
        assert errs[0].startswith(f"evaluation error: graph {graph}: outside the float range while building H (")
        assert "Traceback" not in errs[0]

    # 1e-200 squares to 0.0, so a zero norm would not be singular
    @pytest.mark.parametrize("value", ["abc", "-1", "nan", "0", "1e-200"])
    def test_bad_eps_sing_environment_is_config_error(self, cfg, monkeypatch, value):
        monkeypatch.setenv("SUBCURV_EPS_SING", value)
        path = cfg("h1.cfg", HEIS1)
        code, err = run_main_quietly(["curvature", "--config", path, "--function", "negz",
                                      "--at", "0.5,0.5,0.5"])
        assert code == 2 and "SUBCURV_EPS_SING" in err

    @pytest.mark.parametrize(
        "old, new, needle",
        [
            ("n = 1", "n = 0", "n must be >= 1"),
            ("grid = 5", "grid = 5\nrank_depth = 0", "rank_depth must be >= 1"),
            ("grid = 5", "grid = 5\nbox = 0:0, -0.5:0.5", "degenerate axis"),
            ("box = 0.5:1.5", "box = 1.5:0.5", "empty interval"),
            ("grid = 5", "grid = 5\neps_touch = -1", "eps_touch must be >= 0"),
            ("grid = 5", "grid = 5\neps_order = -1e-9", "eps_order must be >= 0"),
            ("grid = 5", "grid = 5\neps_h = -1e-7", "eps_h must be >= 0"),
            ("grid = 5", "grid = 5\neps_sing = -1e-7", "eps_sing must be > 0"),
            ("grid = 5", "grid = 5\neps_sing = 0", "eps_sing must be > 0"),
            ("grid = 5", "grid = 5\neps_sing = 1e-200", "eps_sing must be > 0 and square to a positive float"),
            ("grid = 5", "grid = 5\nmax_propagation_starts = -3",
             "max_propagation_starts must be >= 0"),
        ],
        ids=["structure-n-zero", "rank-depth-zero", "degenerate-axis",
             "empty-function-box", "eps-touch-negative", "eps-order-negative",
             "eps-h-negative", "eps-sing-negative", "eps-sing-zero", "eps-sing-square-underflows",
             "max-propagation-starts-negative"],
    )
    def test_refused_parameter_is_config_error(self, cfg, old, new, needle):
        path = cfg("bad.cfg", SCENARIO.replace(old, new, 1))
        code, err = run_main_quietly(["scenario", "run", "--config", path, "--out", os.devnull])
        assert code == 2 and needle in err

    # the key at fault: operator on line 15, v on 17, grid on 18, or the
    # key added after it on 19
    @pytest.mark.parametrize(
        "old, new, line, message",
        [
            ("grid = 5", "grid = 5, 5, 5", 18, "[scenario]: one grid count per box axis"),
            ("grid = 5", "grid = 5\nbox = 1.5:0.5, -0.5:0.5", 19,
             "[scenario]: empty interval (1.5, 0.5)"),
            ("grid = 5", "grid = 5\nbox = 0:0, -0.5:0.5", 19,
             "[scenario]: degenerate axis (0.0, 0.0) with count 5"),
            # the box comes from u, so the grid count is the key at fault
            ("box = 0.5:1.5", "box = 0:0", 18,
             "[scenario]: degenerate axis (0.0, 0.0) with count 5"),
            ("grid = 5", "grid = 5\nT = 1e300", 19,
             "[scenario]: |T| / step asks for 1e+303 RK4 steps, over the bound of 1000000"),
            ("grid = 5", "grid = 5\nstep = -1", 19, "[scenario]: step must be positive"),
            ("grid = 5", "grid = 5\nrank_depth = 0", 19, "[scenario]: rank_depth must be >= 1"),
            ("grid = 5", "grid = 5\neps_touch = -1", 19,
             "[scenario]: eps_touch must be >= 0, got -1.0"),
            ("grid = 5", "grid = 5\nmax_propagation_starts = -3", 19,
             "[scenario]: max_propagation_starts must be >= 0"),
            ("operator = generic", "operator = generic2", 15,
             "[scenario]: unknown operator 'generic2'"),
            ("v = v", "v = w", 17, "no [function w] section"),
        ],
        ids=["grid-axes", "empty-interval", "degenerate-axis", "degenerate-function-box",
             "rk4-steps", "step-negative", "rank-depth-zero", "eps-touch-negative",
             "max-propagation-starts-negative", "unknown-operator", "missing-function"],
    )
    def test_refused_scenario_parameter_names_its_line(self, cfg, old, new, line, message):
        path = cfg("bad.cfg", SCENARIO.replace(old, new, 1))
        code, err = run_main_quietly(["scenario", "run", "--config", path, "--out", os.devnull])
        assert code == 2
        assert f"config error: line {line}: {message}" in err

    @pytest.mark.parametrize("command", ["scenario", "curvature"])
    def test_grid_over_the_bound_is_refused_before_any_point(self, cfg, command):
        # 10^16 and 10^24 points: refused from the counts alone.  The child
        # runs under an address-space cap and a timeout, so a build that
        # starts listing points fails here instead of filling the memory.
        if command == "scenario":
            path = cfg("huge.cfg", SCENARIO.replace("grid = 5", "grid = 99999999"))
            argv = ["scenario", "run", "--config", path, "--out", os.devnull]
            needle = ("config error: line 18: [scenario]: grid (99999999, 99999999) asks for "
                      "9999999800000001 points, over the bound of 500000")
        else:
            argv = ["curvature", "--config", cfg("h1.cfg", HEIS1), "--function", "negz",
                    "--grid", "99999999", "--out", os.devnull]
            needle = "config error: --grid 99999999 asks for 999999970000000299999999 points"
        cap = 2 << 30
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "subcurv", *argv], capture_output=True, text=True, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
        seconds = time.perf_counter() - t0
        assert proc.returncode == 2 and needle in proc.stderr, proc.stderr[-500:]
        assert seconds < 20

    @pytest.mark.parametrize(
        "argv",
        [["curvature", "--p", "abc"], ["curvature", "--p", "1/0"], ["curvature", "--p", "-1"],
         ["curvature", "--grid", "0"], ["rank", "--depth", "0"],
         ["scenario", "run", "--jobs", "-3"], ["scenario", "run", "--jobs", "0"]],
        ids=["p-word", "p-zero-denominator", "p-negative", "grid-zero", "depth-zero",
             "jobs-negative", "jobs-zero"],
    )
    def test_bad_command_line_number_is_usage_error(self, cfg, argv, capsys):
        path = cfg("h1.cfg", HEIS1)
        rest = ["--function", "negz"] if argv[0] == "curvature" else []
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--config", path] + rest)
        assert exc.value.code == 2 and "Traceback" not in capsys.readouterr().err

    def test_custom_structure_of_heisenberg_dimension_round_trips(self):
        # diag(1, 1, 0) on (x1, y1, z) with density 1 shares the Heisenberg
        # group's coordinates and density but not its cometric
        coords = CoordSystem(("x1", "y1", "z"))
        one, zero = ca.ONE, ca.ZERO
        S = SubriemannianStructure(
            coords, [[one, zero, zero], [zero, one, zero], [zero, zero, zero]], one,
            degeneracy=1,
        )
        op = smp.GenericOperator(S, 0, 2)
        sc = smp.ComparisonScenario(
            "custom", op, ca.parse_expr("x1^2 + x1*y1", op.chart),
            ca.parse_expr("x1^2 + x1*y1 + 1", op.chart),
            box=((0.5, 1.5), (-0.5, 0.5)), grid_counts=5,
        )
        text = scenario_to_config(sc)
        assert "kind = custom" in text
        assert _outputs(scenario_from_config(parse_config(text))) == _outputs(sc)

    @pytest.mark.parametrize(
        "section, anchor, key",
        [
            ("structure", "n = 1", "nn"),
            ("function v", "expr = x1^2 + y1^2 + 1", "exrp"),
            ("field X", "components = 1, 0, 0", "component"),
            ("scenario", "grid = 5", "eps_tuoch"),
        ],
    )
    def test_unknown_key_is_config_error_naming_its_line(self, cfg, section, anchor, key):
        text = (SCENARIO + "\n[field X]\ncomponents = 1, 0, 0\n").replace(
            anchor, f"{anchor}\n{key} = 0.5"
        )
        line = text.splitlines().index(f"{key} = 0.5") + 1
        path = cfg("misspelt.cfg", text)
        code, err = run_main_quietly(["scenario", "run", "--config", path, "--out", os.devnull])
        assert code == 2
        assert f"line {line}: unknown key {key!r} in [{section}]" in err


    @pytest.mark.parametrize(
        "operator, key",
        [("generic", "n = 3"), ("graph_HF", "p = 0"), ("graph_HF", "graph_dir = x1"),
         ("graph_HF", "n = 2"), ("intrinsic", "p = 0"), ("la_graph", "graph_dir = z"),
         ("radial_cylinder", "p = 1/2")],
    )
    def test_key_the_operator_does_not_read_is_config_error_naming_its_line(
        self, cfg, operator, key
    ):
        text = _OPERATOR_CONFIGS[operator]
        path = cfg("valid.cfg", text)
        assert run_main_quietly(["scenario", "run", "--config", path, "--out", os.devnull])[0] == 0
        text = text.replace(f"operator = {operator}\n", f"operator = {operator}\n{key}\n")
        line = text.splitlines().index(key) + 1
        code, err = run_main_quietly(
            ["scenario", "run", "--config", cfg("extra.cfg", text), "--out", os.devnull])
        assert code == 2
        name = key.split(" ")[0]
        assert f"line {line}: [scenario]: operator {operator} does not read {name}" in err


# one valid config per operator; the sized ones also carry a [structure]
# section, which they do not read, as scenario_to_config writes one
_SIZED = """
[structure]
kind = heisenberg(1)

[function u]
expr = {u}

[scenario]
operator = {op}
n = 1
u = u
v = u
box = {box}
grid = 3
"""
_OPERATOR_CONFIGS = {
    "generic": SCENARIO,
    "graph_HF": SCENARIO.replace("kind = heisenberg\nn = 1", "kind = graph_F\nm = 2\nF = -x2, x1")
    .replace("x1^2 + y1^2", "x1^2 + x2^2").replace("operator = generic", "operator = graph_HF"),
    "intrinsic": _SIZED.format(op="intrinsic", u="eta2*tau", box="-0.5:0.5, -0.5:0.5"),
    "la_graph": _SIZED.format(op="la_graph", u="eta2*tau", box="-0.5:0.5, -0.5:0.5"),
    "radial_cylinder": _SIZED.format(op="radial_cylinder", u="r^2", box="0.5:1.5"),
}


def _outputs(scenario) -> tuple:
    """Report JSON and CSV text of one in-process run."""
    report = smp.run_scenario(scenario)
    return (dumps_report(report.as_dict()),
            write_scenario_csv(report, scenario.operator.chart.names))


def _generic_on_graph_F():
    op = smp.GenericOperator(drift_graph_structure(standard_drift(2), 2), 0)
    u = ca.parse_expr("x1*x2 + x2^2", op.chart)
    v = ca.parse_expr("x1*x2", op.chart)
    return smp.ComparisonScenario("generic-graph-F", op, u, v,
                                  box=((0.5, 1.5), (-0.4, 0.4)), grid_counts=9)


def _sized_pair(op, text, box, grid):
    u = ca.parse_expr(text, op.chart)
    return smp.ComparisonScenario(op.kind, op, u, u, box=box, grid_counts=grid)


class TestScenarioRoundTrip:
    @pytest.mark.parametrize(
        "make",
        [
            _generic_on_graph_F,
            lambda: _sized_pair(smp.IntrinsicOperator(2), "eta2^2/2 + tau/3 + 1/5",
                                ((-0.5, 0.5),) * 4, 3),
            lambda: _sized_pair(smp.RadialCylinderOperator(2), "r^2", ((0.5, 1.0),), 5),
        ],
        ids=["generic-on-graph-F", "intrinsic-n2", "radial-cylinder-n2"],
    )
    def test_round_trip_keeps_report_and_csv_bytes(self, make):
        sc = make()
        report, csv = _outputs(sc)
        assert json.loads(report)["rank"] is not None  # rank and propagation ran
        text = scenario_to_config(sc)
        assert _outputs(scenario_from_config(parse_config(text))) == (report, csv)

    @pytest.mark.parametrize(
        "field, text",
        [("name", "a#b"), ("description", "see # below"), ("name", "two\nlines"),
         ("description", "carriage\rreturn"), ("name", "form\x0cfeed")],
    )
    def test_text_the_reader_would_cut_is_refused(self, field, text):
        sc = smp.builtin_scenario("hyperplane-z")
        setattr(sc, field, text)
        with pytest.raises(ValueError, match=field):
            scenario_to_config(sc)

    def test_blanks_and_quotes_around_a_name_survive(self):
        sc = smp.builtin_scenario("hyperplane-z")
        sc.name = ' "quoted" name '
        sc.description = '"'
        back = scenario_from_config(parse_config(scenario_to_config(sc)))
        assert (back.name, back.description) == (sc.name, sc.description)


# sha256 of the report JSON (scenario schema "2": the touching set as
# ``touching_clusters``) and of the CSV of each builtin, regenerated by
#   PYTHONPATH=src python -m subcurv scenario run NAME --out R --csv C
#   sha256sum R C
# The CSV hashes predate schema 2: the bump left every CSV byte as it was.
GOLDEN = {
    "cylinder-sphere-paraboloid": (
        "d5edf973fb69c0539928a38d3b70075ade0461e9b769059066212a2e0579383f",
        "6c674da627c1b3d7981218bef2e718d727ed3eaf627e701db5807aed004b57c6",
    ),
    "h1-counterexample": (
        "7771672a9177c5f6ebf8f40109096c892a94439ddf75814b3e45a6aed98f1f19",
        "0fee234cab5c1634430864e43b235bff642d1f933df36c0e7526a8a4fc494abe",
    ),
    "hyperplane-z": (
        "452d8315dd0fd159eedc93b847af41b809cb9ef43b2f51641bd88d2f91359160",
        "c1eb30c2f7cb8ca09cbe11775aac068dbd8ce277aaa22df77763b63fdb937b4d",
    ),
    "translate-coincide": (
        "2a7c99f8ff7aa3a14bb279d6964a249385fde41656043af9280dafc53b5bd28b",
        "b27f43d7f048ea0269dbdb29864016faa9d55facf94e15ea2fdb9fadbf14633b",
    ),
    "vertical-hyperplane": (
        "bf451582e85a9887bd16a0580f3a9a198263d78b114c031e02425100b3c3bbb4",
        "e2af932d414d4b984fa828a0450cf9b550667a4df2c46e55b106318617db1f7c",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_builtin_report_and_csv_bytes_are_golden(name):
    sc = smp.builtin_scenario(name)
    report = smp.run_scenario(sc)
    json_bytes = (dumps_report(report.as_dict()) + "\n").encode("utf-8")
    csv_bytes = write_scenario_csv(report, sc.operator.chart.names).encode("utf-8")
    digests = tuple(hashlib.sha256(b).hexdigest() for b in (json_bytes, csv_bytes))
    assert digests == GOLDEN[name]


# ---------------------------------------------------------------------------
# Fuzz of parse_config + main: every config ends in a documented exit code
# ---------------------------------------------------------------------------


def _mostly(valid, bad):
    """Draw a valid value three times as often as a bad one."""
    return st.sampled_from(list(valid) * 3 + list(bad))


# (structure section, operator lines, chart coordinates, scenario box)
_FAMILIES = [
    ("kind = heisenberg\nn = {n}", "generic", ("x1", "y1"), "0.5:1.5, -0.5:0.5"),
    ("kind = cylinder\nn = {n}", "generic\np = {p}", ("x1", "y1"), "0.5:1.5, -0.5:0.5"),
    ("kind = heisenberg({n})", "generic\ngraph_dir = {g}", ("x1", "y1"), "0.5:1.5, -0.5:0.5"),
    ("kind = graph_F\nm = {m}\nF = x2, -x1", "graph_HF", ("x1", "x2"), "0.5:1.5, -0.5:0.5"),
    ("kind = heisenberg\nn = 1", "intrinsic\nn = {n}", ("eta2", "tau"), "-0.5:0.5, -0.5:0.5"),
    ("kind = heisenberg\nn = 1", "la_graph\nn = {n}", ("eta2", "tau"), "-0.5:0.5, -0.5:0.5"),
    ("kind = heisenberg\nn = 1", "radial_cylinder\nn = {n}", ("r", "r"), "0.5:1.5"),
    ("kind = custom\ncoords = x1, y1, z\ncometric.0.0 = 1\ncometric.1.1 = {c}\n"
     "density = {c}", "generic", ("x1", "y1"), "0.5:1.5, -0.5:0.5"),
    ("kind = custom\ncoords = x1, y1, z\ncometric.0.0 = {c}\ncometric.0.2 = y1\n"
     "cometric.1.1 = 1\ncometric.2.2 = {c}\nbox = {box}", "generic", ("x1", "y1"),
     "0.5:1.5, -0.5:0.5"),
    ("kind = nonsense", "generic", ("x1", "y1"), "0:1, 0:1"),
]
_NUMBERS = (["1", "0.5", "1e-3"], ["0", "-1", "abc", "1/0", "nan", "inf", "1e400", "1, 2"])
_EXPRS = _mostly(
    ["{a}^2 + {b}^2", "{a}*{b} - {a}", "{a}*{b}", "{a}^2 + {b}^2 + 1", "{a} + 1", "0",
     "1/{a}", "sqrt({a} - 1)"],
    ["1e200*{a}^2", "1e300*{a}^4", "2^100000", "({a}", "q + 1", "{a}^{b}", "10^400*{a}",
     "1e-300*{a}^(-9)"],
)
# at most 3 grid points per axis keeps every run small
_SCENARIO_KEYS = {
    "grid": _mostly(["1", "2", "3", "3, 2"], ["0", "abc", "-3", "2.5", "4, 0"]),
    "eps_touch": _mostly(*_NUMBERS),
    "eps_order": _mostly(*_NUMBERS),
    "eps_h": _mostly(*_NUMBERS),
    "eps_sing": _mostly(*_NUMBERS),
    "T": _mostly(["0.01", "-0.01", "0"], ["abc", "nan", "inf", "1e400"]),
    "step": _mostly(["0.005", "0.02"], ["0", "-1", "abc", "nan"]),
    "rank_depth": _mostly(["1", "2"], ["0", "-1", "x"]),
    "max_propagation_starts": _mostly(["0", "1", "2"], ["-1", "x"]),
    "box": _mostly(["0.5:1.5, -0.5:0.5", "-0.5:0.5, -0.5:0.5"],
                   ["1:0, 0:1", "nan:1, 0:1", "0:1", "a:b, 0:1", "0:0, 0:1", "0:inf, 0:1"]),
}


@st.composite
def config_texts(draw):
    structure, operator, (a, b), box = draw(st.sampled_from(_FAMILIES))
    fill = dict(
        n=draw(_mostly(["1"], ["2", "0", "-1", "abc", "1e400"])),
        m=draw(_mostly(["2"], ["1", "0", "abc"])),
        p=draw(_mostly(["0", "1", "1/2"], ["-1", "1/0", "x"])),
        g=draw(_mostly(["z"], ["x1", "q"])),
        c=draw(_mostly(["1", "1 + x1^2"], ["-1", "0", "1/x1", "sqrt(x1)", "sqrt(x1 - 0.7)"])),
        box=draw(_mostly(["0.5:1, -1:1, -1:1"], ["0:1, -1:1, -1:1", "1:0, 0:1, 0:1"])),
    )
    lines = ["[structure]", structure.format(**fill), ""]
    for name in ("u", "v"):
        lines += [f"[function {name}]", "expr = " + draw(_EXPRS).format(a=a, b=b)]
        if draw(st.booleans()):
            lines.append("box = " + draw(_SCENARIO_KEYS["box"]))
        lines.append("")
    values = {"box": box, "grid": "3", "T": "0.01", "step": "0.005"}
    for key in draw(st.lists(st.sampled_from(sorted(_SCENARIO_KEYS)), max_size=4)):
        values[key] = draw(_SCENARIO_KEYS[key])
    lines += ["[scenario]", "operator = " + operator.format(**fill), "u = u", "v = v"]
    lines += [f"{key} = {value}" for key, value in values.items()]
    return "\n".join(lines) + "\n"


_FUZZ_COMMANDS = [
    ["scenario", "run", "--config", "{cfg}", "--out", os.devnull, "--csv", os.devnull],
    ["curvature", "--config", "{cfg}", "--function", "u", "--at", "0.7, 0.1, 0.2"],
    ["curvature", "--config", "{cfg}", "--function", "v", "--grid", "3", "--out", os.devnull],
    ["rank", "--config", "{cfg}", "--depth", "2", "--out", os.devnull],
]


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(text=config_texts(), command=st.sampled_from(_FUZZ_COMMANDS))
def test_fuzzed_configs_end_in_a_documented_exit_code(tmp_path, text, command):
    path = tmp_path / "fuzz.cfg"
    path.write_text(text)
    code, err = run_main_quietly([arg.format(cfg=path) for arg in command])
    assert code in (0, 2, 3, 4), err
