import contextlib
import io
import json
import os
import random
import subprocess
import sys

import pytest

import cbsheaf
from cbsheaf import cli
from cbsheaf.cli import main
from cbsheaf.spaces import indiscrete_space, save_space, sierpinski_space, star_space
from corpus import random_preorder_space

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cbsheaf.__file__)))


@pytest.fixture
def star_file(tmp_path):
    path = tmp_path / "star.json"
    save_space(star_space(3), path)
    return str(path)


@pytest.fixture
def indiscrete_file(tmp_path):
    path = tmp_path / "pair.json"
    save_space(indiscrete_space(2), path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestRank:
    def test_expression(self, capsys):
        code, out, _ = run(capsys, "rank", "P^3")
        assert code == 0 and "rank: 4" in out

    def test_empty_literal(self, capsys):
        code, out, _ = run(capsys, "rank", "0")
        assert code == 0 and "rank: 0" in out

    def test_omega(self, capsys):
        code, out, _ = run(capsys, "rank", "E")
        assert code == 0 and "rank: omega" in out

    def test_space_file(self, capsys, star_file):
        code, out, _ = run(capsys, "rank", "--space", star_file)
        assert code == 0
        assert "rank: 2" in out and "heights:" in out and "c=1" in out

    def test_json_format(self, capsys, star_file):
        code, out, _ = run(capsys, "rank", "--space", star_file, "--format", "json")
        doc = json.loads(out)
        assert doc["rank"] == 2 and doc["heights"]["c"] == 1

    def test_requires_exactly_one_input(self, capsys, star_file):
        code, _, err = run(capsys, "rank")
        assert code == 1 and "exactly one" in err
        code, _, err = run(capsys, "rank", "P", "--space", star_file)
        assert code == 1

    def test_bad_expression_exits_one(self, capsys):
        code, _, err = run(capsys, "rank", "P+*")
        assert code == 1 and "syntax error" in err

    def test_missing_file_exits_one(self, capsys):
        code, _, err = run(capsys, "rank", "--space", "/nonexistent/nope.json")
        assert code == 1 and "error" in err


class TestDim:
    def test_infinite(self, capsys):
        code, out, _ = run(capsys, "dim", "E")
        assert code == 0 and "infinite" in out and "infinite_rank_theorem" in out

    def test_conjectured(self, capsys):
        code, out, _ = run(capsys, "dim", "B")
        assert code == 0 and "conjectured_infinite" in out and "perfect_hull_conjecture" in out

    def test_exact(self, capsys):
        code, out, _ = run(capsys, "dim", "P^2")
        assert code == 0 and "exact" in out and "injective dimension: 2" in out


class TestCategoryDim:
    def test_star(self, capsys, star_file):
        code, out, _ = run(capsys, "category-dim", "--space", star_file)
        assert code == 0
        assert "injective dimension: 1" in out and "witness" in out

    def test_non_scattered_bounds(self, capsys, indiscrete_file):
        code, out, _ = run(capsys, "category-dim", "--space", indiscrete_file)
        assert code == 0 and "bounds" in out and "unbounded" in out

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_bad_max_len(self, capsys, tmp_path, value):
        # on a in U_b the answer is exact 1; clamped to one term, the scan reports bounds 0..1
        path = tmp_path / "sierpinski.json"
        save_space(sierpinski_space(), path)
        code, out, err = run(capsys, "category-dim", "--space", str(path), "--max-len", value)
        assert code == 1 and out == "" and err == "error: max_len must be >= 1\n"
        code, out, _ = run(capsys, "category-dim", "--space", str(path), "--max-len", "2")
        assert code == 0 and "injective dimension: 1" in out

    def test_negative_random_sheaves(self, capsys, star_file):
        code, _, err = run(capsys, "category-dim", "--space", star_file, "--random-sheaves", "-1")
        assert code == 1 and err == "error: random_sheaves must be >= 0\n"


class TestMalformedInput:
    """Each malformed document exits 1 with one error line, not a traceback."""

    @pytest.mark.parametrize(
        "doc",
        [
            {"points": 5},
            ["a"],
            {"points": ["a"], "min_nbhd": {"a": 7}},
            {"points": ["a"], "min_nbhd": ["a"]},
            {"points": ["a"], "opens": [[], 3]},
        ],
    )
    def test_space_document(self, capsys, tmp_path, doc):
        path = tmp_path / "space.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "rank", "--space", str(path))
        assert code == 1 and err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "doc",
        [
            {"stalk_dims": {"a": None}},
            {"stalk_dims": {"a": 1, "b": 1}, "res": {"b->a": 7}},
            [1, 2],
            {"stalk_dims": [1]},
            {"stalk_dims": {"a": 1, "b": 1}, "res": {"b->a": [1]}},
        ],
    )
    def test_sheaf_document(self, capsys, tmp_path, doc):
        space_path, sheaf_path = tmp_path / "space.json", tmp_path / "sheaf.json"
        save_space(sierpinski_space(), space_path)
        sheaf_path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "resolve", "--space", str(space_path), "--sheaf", str(sheaf_path))
        assert code == 1 and err.startswith("error: ") and err.count("\n") == 1


    @pytest.mark.parametrize(
        "doc",
        [
            {"stalk_dims": {"zz": 3, "a": 1}},
            {"stalk_dims": {"a": 1}, "res": {"zz->zz": []}},
        ],
    )
    def test_unknown_point_in_sheaf_document(self, capsys, tmp_path, doc):
        space_path, sheaf_path = tmp_path / "space.json", tmp_path / "sheaf.json"
        save_space(sierpinski_space(), space_path)
        sheaf_path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "resolve", "--space", str(space_path), "--sheaf", str(sheaf_path))
        assert code == 1 and err.startswith("error: unknown point 'zz'") and err.count("\n") == 1


class TestModel:
    def test_model_rank_loop(self, capsys, tmp_path):
        out_file = str(tmp_path / "m.json")
        code, out, _ = run(capsys, "model", "P^2", "--branches", "2", "--out", out_file)
        assert code == 0 and "9 points" in out
        code, out, _ = run(capsys, "rank", "--space", out_file)
        assert code == 0 and "rank: 3" in out

    def test_not_modelable(self, capsys):
        code, _, err = run(capsys, "model", "F")
        assert code == 1 and "not finitely modelable" in err

    def test_surrogate(self, capsys, tmp_path):
        out_file = str(tmp_path / "s.json")
        code, out, _ = run(capsys, "model", "F", "--surrogate", "--out", out_file)
        assert code == 0 and "indiscrete" in out


class TestResolve:
    def test_star(self, capsys, star_file):
        code, out, _ = run(capsys, "resolve", "--space", star_file)
        assert code == 0
        assert "terminated: true" in out and "C0" in out and "C1" in out

    def test_non_terminating_exits_zero(self, capsys, indiscrete_file):
        code, out, _ = run(
            capsys, "resolve", "--space", indiscrete_file, "--sheaf", "constant", "--max-len", "6"
        )
        assert code == 0 and "terminated: false" in out
        assert out.count("C") >= 6

    def test_json_dump(self, capsys, indiscrete_file):
        code, out, _ = run(
            capsys,
            "resolve",
            "--space",
            indiscrete_file,
            "--max-len",
            "6",
            "--format",
            "json",
        )
        doc = json.loads(out)
        assert doc["terminated"] is False and doc["length"] == 6
        assert all(t["stalk_dims"] == {"q0": 2, "q1": 2} for t in doc["terms"])


class TestExt:
    def test_star_center(self, capsys, star_file):
        code, out, _ = run(capsys, "ext", "--space", star_file, "--point", "c")
        assert code == 0
        assert "0:0" in out and "1:2" in out

    def test_json_report(self, capsys, star_file):
        code, out, _ = run(
            capsys, "ext", "--space", star_file, "--point", "c", "--format", "json"
        )
        doc = json.loads(out)
        assert doc["ext_dims"] == {"0": 0, "1": 2}
        assert doc["verdict"]["kind"] == "exact" and doc["verdict"]["n"] == 1

    def test_sheaf_specs(self, capsys, star_file):
        code, out, _ = run(
            capsys, "ext", "--space", star_file, "--sheaf", "skyscraper:c", "--point", "c"
        )
        assert code == 0 and "0:1" in out

    def test_unknown_point(self, capsys, star_file):
        code, _, err = run(capsys, "ext", "--space", star_file, "--point", "zz")
        assert code == 1


class TestCheck:
    def test_star(self, capsys, star_file):
        code, out, _ = run(capsys, "check", "--space", star_file)
        assert code == 0
        assert "support check: ok" in out
        assert "hom pairing at closed points: ok" in out
        assert "overall: ok" in out

    def test_non_constant_sheaf_skips_nonvanishing(self, capsys, star_file):
        code, out, _ = run(capsys, "check", "--space", star_file, "--sheaf", "simple:l1")
        assert code == 0 and "overall: ok" in out


class TestDeterminism:
    def test_byte_identical_reports(self, capsys, star_file, tmp_path):
        f1, f2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
        run(capsys, "category-dim", "--space", star_file, "--out", f1)
        run(capsys, "category-dim", "--space", star_file, "--out", f2)
        assert open(f1, "rb").read() == open(f2, "rb").read()

    def test_resolve_bytes(self, capsys, star_file, tmp_path):
        f1, f2 = str(tmp_path / "d1.json"), str(tmp_path / "d2.json")
        run(capsys, "resolve", "--space", star_file, "--out", f1)
        run(capsys, "resolve", "--space", star_file, "--out", f2)
        assert open(f1, "rb").read() == open(f2, "rb").read()


class TestDecompose:
    def test_space(self, capsys, tmp_path):
        from cbsheaf.spaces import disjoint_union

        path = tmp_path / "mix.json"
        save_space(disjoint_union(star_space(2), indiscrete_space(2)), path)
        code, out, _ = run(capsys, "decompose", "--space", str(path))
        assert code == 0
        assert "scattered part: {c, l1, l2}" in out
        assert "perfect hull: {q0, q1}" in out

    def test_expression(self, capsys):
        code, out, _ = run(capsys, "decompose", "B")
        assert code == 0 and "perfect hull: non-empty" in out


def fresh_parser_call(argv):
    """Return code and stdout of argv run on a parser built for this call alone."""
    args = cli.build_parser().parse_args(argv)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = args.func(args)
    return code, out.getvalue()


def run_python(*argv):
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120
    )


@pytest.fixture
def fresh_cache():
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


class TestSharedParser:
    """main builds its parser once per process and reuses it on every call."""

    def test_twenty_calls_build_one_parser(self, capsys, monkeypatch, fresh_cache):
        builds = []
        real = cli.build_parser

        def counting_build_parser():
            builds.append(1)
            return real()

        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        for i in range(20):
            code, out, _ = run(capsys, "rank", "P^3" if i % 2 else "P^2")
            assert code == 0 and "rank: " in out
        assert len(builds) == 1

    def test_import_builds_no_parser(self):
        probe = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting_init(self, *a, **k):\n"
            "    built.append(1)\n"
            "    init(self, *a, **k)\n"
            "argparse.ArgumentParser.__init__ = counting_init\n"
            "import cbsheaf.cli\n"
            "print(len(built), cbsheaf.cli._parser.cache_info().currsize)\n"
        )
        proc = run_python("-c", probe)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "0"]

    def test_build_parser_returns_a_new_parser(self, fresh_cache):
        assert cli.build_parser() is not cli.build_parser()
        assert cli._parser() is cli._parser()
        assert cli._parser() is not cli.build_parser()

    def test_format_and_out_do_not_leak(self, capsys, star_file, tmp_path, fresh_cache):
        report = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "category-dim", "--space", star_file, "--format", "json", "--out", str(report)
        )
        assert code == 0 and json.loads(out) == json.loads(report.read_text())
        report.unlink()
        code, out, _ = run(capsys, "category-dim", "--space", star_file)
        assert code == 0 and not report.exists()
        assert out.startswith(f"space: {star_file} ")
        assert (code, out) == fresh_parser_call(["category-dim", "--space", star_file])

    def test_seed_does_not_leak(self, capsys, monkeypatch, star_file, fresh_cache):
        seeds = []
        real = cli.category_dimension

        def recording(space, **kwargs):
            seeds.append(kwargs["seed"])
            return real(space, **kwargs)

        monkeypatch.setattr(cli, "category_dimension", recording)
        run(capsys, "category-dim", "--space", star_file, "--random-sheaves", "1", "--seed", "3")
        run(capsys, "category-dim", "--space", star_file, "--random-sheaves", "1")
        assert seeds == [3, 0]

    @pytest.mark.parametrize(
        "bad",
        [
            ["category-dim", "--space", "x.json", "--max-len", "abc"],
            ["no-such-command"],
            ["rank", "--bogus"],
        ],
    )
    def test_usage_error_leaves_parser_intact(self, capsys, star_file, bad, fresh_cache):
        good = ["category-dim", "--space", star_file, "--max-len", "3"]
        first = run(capsys, *good)
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        assert "usage: cbsheaf" in capsys.readouterr().err
        assert run(capsys, *good) == first

    def test_usage_error_as_first_call(self, capsys, star_file, fresh_cache):
        with pytest.raises(SystemExit) as exc:
            main(["rank", "--bogus"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, out, _ = run(capsys, "rank", "--space", star_file)
        assert (code, out) == fresh_parser_call(["rank", "--space", star_file])

    def test_interleaved_calls_match_fresh_parsers(self, capsys, star_file, tmp_path, fresh_cache):
        spaces = [star_file]
        for k in range(2):
            path = tmp_path / f"corpus{k}.json"
            save_space(random_preorder_space(random.Random(800 + k), 4, min_points=3), path)
            spaces.append(str(path))
        model_out = str(tmp_path / "model.json")
        argvs = [
            ["rank", "P^3"],
            ["rank", "--space", star_file, "--format", "json"],
            ["decompose", "B"],
            ["dim", "P^2"],
            ["dim", "E", "--format", "json"],
            ["model", "P^2", "--branches", "3", "--out", model_out],
            ["model", "F", "--surrogate"],
            ["ext", "--space", star_file, "--point", "c"],
            ["check", "--space", star_file, "--sheaf", "simple:l1"],
        ]
        for space in spaces:
            argvs += [
                ["rank", "--space", space],
                ["decompose", "--space", space],
                ["category-dim", "--space", space, "--max-len", "4"],
                ["category-dim", "--space", space, "--max-len", "4", "--random-sheaves", "1", "--seed", "5"],
                ["resolve", "--space", space, "--max-len", "3", "--format", "json"],
                ["check", "--space", space, "--max-len", "4"],
            ]
        assert {argv[0] for argv in argvs} == {
            "rank", "decompose", "dim", "category-dim", "model", "resolve", "ext", "check"
        }
        want = [fresh_parser_call(argv) for argv in argvs]
        orders = [list(range(len(argvs))), list(reversed(range(len(argvs))))]
        for seed in range(2):
            order = list(range(len(argvs)))
            random.Random(seed).shuffle(order)
            orders.append(order)
        for order in orders:
            for i in order:
                code, out, _ = run(capsys, *argvs[i])
                assert (code, out) == want[i], argvs[i]

    def test_module_entry_point(self):
        proc = run_python("-m", "cbsheaf", "rank", "P^3")
        assert proc.returncode == 0 and "rank: 4" in proc.stdout
        proc = run_python("-m", "cbsheaf", "rank", "--bogus")
        assert proc.returncode == 2 and proc.stderr.startswith("usage: cbsheaf")
