"""Command-line behaviour: outputs, exit codes, determinism, batch mode."""

import hashlib
import json
import os
import shlex
import subprocess
import sys

import mpmath
import pytest

from hubbardtrees import cli
from hubbardtrees.cli import main

CMD = [sys.executable, "-m", "hubbardtrees.cli"]
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
# child processes do not see pytest's pythonpath setting: put src/ first on
# theirs, so the suite runs from a plain checkout
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def run(*args):
    return subprocess.run(CMD + list(args), capture_output=True, text=True, env=ENV)


# -- path -------------------------------------------------------------------------


def test_path_basilica():
    r = run("path", "--degree", "2", "--nu", "(1*)")
    assert r.returncode == 0
    assert "points=3" in r.stdout or "gaps=1" in r.stdout
    assert "gap-central" in r.stdout
    assert "(1)" in r.stdout


def test_path_airplane_depth4_has_nine_rows():
    r = run("path", "--degree", "2", "--nu", "(10*)", "--depth", "4")
    assert r.returncode == 0
    body = [ln for ln in r.stdout.splitlines()[2:] if ln.strip()]
    assert len(body) == 10  # 9 precritical-path rows + the omega limit row


def test_path_period4_gap_row():
    r = run("path", "--degree", "2", "--nu", "(101*)", "--depth", "2")
    assert r.returncode == 0
    assert "(10)" in r.stdout and "gap-central" in r.stdout


# SHA-256 of the text and JSON output of `htree path ARGS`, as printed by the
# per-symbol construction that the word-level one replaced
PATH_GOLDEN = {
    ("--prefix", "--nu", "1011011100"): (
        "763262741904eabd34fe163270669e1901afd6986c78fe9a801ba1f70f157d7d",
        "c96dd627c14d2598e77ae357914b22be56ea80f749d62f3609ba700b725a4fa4"),
    ("--gen", "feigenbaum"): (
        "21f9a5e9c29c18e3fb7ee45ad67cbac39cdda5cec7e455cba37a963e3724317c",
        "4537a7a9a34d77e4737c6e63b434f1ed3d420487d332389e86f2ab0a9249f1d9"),
    ("--degree", "3", "--nu", "(12*)"): (
        "6026609f6f392f2a185cdfef366bfca814d82ead991f0db58e160587c5d58e4b",
        "34cd2a3ca71ca5ba808823915701685cdbeb73fe41c3858a7c1993c8ee23ac7d"),
    ("--degree", "inf", "--nu", "[|1,5,*]"): (
        "64ad9d14f0903fc0d5d6c95bd87b23f681ad9c62993f4c1e56030ca2d170f119",
        "649432a3612e9f57e2de6fa9d6f416e0dc1ca6febe3823aba7882bf786635212"),
    ("--nu", "(1*)"): (
        "03c60f1e79d22a2afa53dc4326cb2955a2e63307514d4148e4ea72e20740b8da",
        "d99bf6f8638e561f876df75d6754cb29f7c52fc6a068e03bafcca1323f7130d3"),
}


@pytest.mark.parametrize("args", list(PATH_GOLDEN))
def test_path_output_is_byte_identical_to_golden(args, capsys):
    for fmt, want in zip(("text", "json"), PATH_GOLDEN[args]):
        assert main(["path", *args, "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == want, (args, fmt)


def test_path_point_budget_exits_3(monkeypatch, capsys):
    from hubbardtrees import critpath

    monkeypatch.setattr(critpath, "MAX_PATH_POINTS", 9)
    assert main(["path", "--nu", "(10*)", "--depth", "4"]) == 0
    capsys.readouterr()
    assert main(["path", "--nu", "(10*)", "--depth", "5"]) == 3
    err = capsys.readouterr().err
    assert err == "error: depth budget exhausted: P_5 of (10*) exceeds 9 points\n"


# -- tree ----------------------------------------------------------------------------


def test_tree_json_basilica():
    r = run("tree", "--nu", "(1*)", "--format", "json")
    doc = json.loads(r.stdout)
    assert len(doc["nodes"]) == 3
    assert len(doc["edges"]) == 2
    assert all(e["fatou"] for e in doc["edges"])


def test_tree_staircase_dot_leaves():
    r = run("tree", "--gen", "staircase", "--depth", "12", "--format", "dot")
    assert r.returncode == 0
    assert r.stdout.startswith("graph hubbard_tree {")
    # postcritical nodes are leaves: checked structurally via the library
    from hubbardtrees.generators import staircase
    from hubbardtrees.treebuild import build_tree

    t = build_tree(staircase(12))
    assert all(t.degree_of(v) == 1 for v in t.postcritical)


def test_tree_infinite_degree():
    r = run("tree", "--nu", "[|1,2,*]", "--degree", "inf", "--format", "json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["meta"]["degree"] == "inf"
    assert doc["meta"]["mode"] == "finite"


def test_tree_svg():
    r = run("tree", "--nu", "(10*)", "--format", "svg")
    assert r.stdout.startswith("<svg") and "</svg>" in r.stdout


# -- classify ------------------------------------------------------------------------


def test_classify_evil():
    r = run("classify", "--nu", "(10110*)", "--format", "json")
    doc = json.loads(r.stdout)
    assert doc["bifurcation"]["class"] == "non-standard"
    assert doc["admissible"] is False and doc["embedding_count"] == 0
    assert any(o["kind"] == "evil" for o in doc["orbits"])


def test_classify_rabbit():
    r = run("classify", "--nu", "(11*)", "--format", "json")
    doc = json.loads(r.stdout)
    assert doc["bifurcation"]["class"] == "standard"
    assert doc["bifurcation"]["base_period"] == 1
    assert doc["embedding_count"] == 2
    assert any(o["kind"] == "satellite" for o in doc["orbits"])


def test_classify_airplane():
    r = run("classify", "--nu", "(10*)", "--format", "json")
    doc = json.loads(r.stdout)
    assert doc["bifurcation"]["class"] == "none"
    assert doc["admissible"] is True
    assert any(o["kind"] == "primitive" for o in doc["orbits"])


# Output captured before orbit classification moved onto the tree the
# command builds: truncated trees, prefixes, generators, other degrees.
CLASSIFY_TEXT = [
    ("--nu (10110*) --depth 2",
     "nu:         (10110*)  (degree 2, truncated at 2)\n"
     "bifurcation: non-standard from period 3 (base (10*))\n"
     "orbit:      characteristic (101) period 3 arms 3 kind evil\n"
     "admissible: False  embeddings: 0 (provisional: truncated)\n"),
    ("--nu (10110*) --depth 3",
     "nu:         (10110*)  (degree 2, truncated at 3)\n"
     "bifurcation: non-standard from period 3 (base (10*))\n"
     "orbit:      characteristic (101) period 3 arms 3 kind evil\n"
     "admissible: False  embeddings: 0 (provisional: truncated)\n"),
    ("--nu (1001101*) --depth 3",
     "nu:         (1001101*)  (degree 2, truncated at 3)\n"
     "bifurcation: none\n"
     "admissible: True  embeddings: 1 (provisional: truncated)\n"),
    ("--nu 11(01) --depth 2",
     "nu:         1(10)  (degree 2, finite)\n"
     "bifurcation: not star-periodic\n"
     "orbit:      characteristic (1) period 1 arms 3 kind satellite\n"
     "admissible: True  embeddings: 2\n"
     "entropy:    0.419617624991\n"),
    ("--nu 11(01) --max-vertices 2",
     "nu:         1(10)  (degree 2, truncated at 2)\n"
     "bifurcation: not star-periodic\n"
     "orbit:      characteristic (1) period 1 arms 3 kind satellite\n"
     "admissible: True  embeddings: 2 (provisional: truncated)\n"),
    ("--nu 1101001 --prefix",
     "nu:         1101001  (degree 2, truncated at 3)\n"
     "bifurcation: not star-periodic\n"
     "admissible: True  embeddings: 2 (provisional: truncated)\n"),
    ("--gen feigenbaum --depth 16",
     "nu:         1011101010111011  (degree 2, truncated at 8)\n"
     "bifurcation: not star-periodic\n"
     "admissible: True  embeddings: 1 (provisional: truncated)\n"),
    ("--degree 3 --nu (12*) --depth 1",
     "nu:         (12*)  (degree 3, truncated at 1)\n"
     "bifurcation: none\n"
     "admissible: True  embeddings: 1 (provisional: truncated)\n"),
    ("--degree inf --nu [|1,-2,1,*] --depth 2",
     "nu:         [|1,-2,1,*]  (degree inf, truncated at 2)\n"
     "bifurcation: standard from period 2 (base [|1,*])\n"
     "admissible: True  embeddings: 1 (provisional: truncated)\n"),
]


@pytest.mark.parametrize("args,text", CLASSIFY_TEXT)
def test_classify_text_truncated_and_non_default(args, text, capsys):
    assert main(["classify"] + shlex.split(args)) == 0
    assert capsys.readouterr() == (text, "")


@pytest.mark.parametrize("nu", ["(10110*)", "(100101*)", "11(01)"])
def test_classification_builds_one_tree(nu, monkeypatch):
    from hubbardtrees import analysis, treebuild
    from hubbardtrees.symbolic import kneading

    built = []

    def counting_build(*args, **kwargs):
        built.append(args)
        return treebuild.build_tree(*args, **kwargs)

    monkeypatch.setattr(cli, "build_tree", counting_build)
    monkeypatch.setattr(analysis, "build_tree", counting_build)
    cli.classification_report(kneading(nu))
    assert len(built) == 1
    assert not hasattr(treebuild.meet, "cache_info")


# -- address --------------------------------------------------------------------------


def test_address_of_kneading():
    r = run("address", "--nu", "(10*)")
    assert r.stdout.strip() == "1 -> 2 -> 3"


def test_address_to_kneading():
    r = run("address", "--from", "1,3,4,8")
    assert r.stdout.strip() == "(1100110*)"


def test_address_infinite_prefix():
    r = run("address", "--nu", "(101)", "--max", "6")
    assert r.stdout.strip().startswith("1 -> 2 -> 4 -> 5 -> 7 -> 8")


# -- entropy ---------------------------------------------------------------------------


@pytest.mark.parametrize("nu,value", [
    ("(1*)", "0.000000000000"),
    ("1(0)", "0.693147180560"),
    ("(10*)", "0.481211825060"),
    ("(1011101*)", "0.000000000000"),
])
def test_entropy_values(nu, value):
    r = run("entropy", "--nu", nu)
    assert r.returncode == 0
    assert r.stdout.strip() == value


def test_entropy_matrix_dump():
    r = run("entropy", "--nu", "(1*)", "--matrix")
    assert "edges: 2" in r.stdout and "fatou" in r.stdout


@pytest.mark.parametrize("args", [
    ("--nu", "(10001000*)"),
    ("--nu", "(1000110*)"),
    ("--nu", "(100110*)"),
    ("--nu", "(10100*)"),
    ("--nu", "(1011000*)"),
    ("--nu", "(1100100*)"),
    ("--degree", "3", "--nu", "(10100*)"),
    ("--degree", "3", "--nu", "(12120*)"),
])
def test_entropy_last_digit_is_correctly_rounded(args, capsys):
    # each of these lies within 1e-13 of a 12-decimal rounding boundary
    assert main(["entropy", *args, "--matrix"]) == 0
    lines = capsys.readouterr().out.splitlines()
    edges = int(lines[1].split()[1])
    rows = [[int(x) for x in ln.split()] for ln in lines[2 + edges:]]
    with mpmath.workdps(40):
        rho = max(abs(e) for e in mpmath.eig(mpmath.matrix(rows))[0])
        digits = int(mpmath.nint(mpmath.log(rho) * 10 ** 12))
    assert lines[0] == f"{digits // 10 ** 12}.{digits % 10 ** 12:012d}"


_WITHOUT_NUMPY = ("import sys; sys.modules['numpy'] = None; "
                  "from hubbardtrees.cli import main; sys.exit(main(sys.argv[1:]))")


@pytest.mark.parametrize("args", [
    ("classify", "--nu", "(10*)"),
    ("entropy", "--nu", "(10*)", "--matrix"),
])
def test_cli_runs_without_numpy(args):
    blocked = subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY, *args],
                             capture_output=True, text=True, env=ENV)
    normal = run(*args)
    assert normal.returncode == 0
    assert (blocked.returncode, blocked.stdout, blocked.stderr) == (
        normal.returncode, normal.stdout, normal.stderr)


def test_cli_import_loads_no_numpy():
    r = subprocess.run([sys.executable, "-c", "import sys, hubbardtrees.cli; "
                        "print('numpy' in sys.modules)"],
                       capture_output=True, text=True, env=ENV)
    assert r.stdout == "False\n"


# -- angle ------------------------------------------------------------------------------


def test_angle_subcommand():
    r = run("angle", "--theta", "1/7")
    assert r.stdout.strip() == "(11*)"


# -- exit codes ---------------------------------------------------------------------------


def test_exit_code_parse_error():
    assert run("path", "--nu", "(12*)").returncode == 2
    assert run("classify", "--nu", "(101)").returncode == 2
    assert run("tree", "--nu", "[1|2,*]", "--degree", "inf").returncode == 2
    assert run("address", "--from", "1,3,3").returncode == 2


def test_exit_code_mode_mismatch():
    r = run("entropy", "--gen", "staircase", "--depth", "15")
    assert r.returncode == 4
    assert "error:" in r.stderr


def test_errors_are_one_line():
    for args in (["path", "--nu", "(12*)"],
                 ["entropy", "--gen", "staircase", "--depth", "15"]):
        r = run(*args)
        assert r.returncode != 0
        assert len(r.stderr.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["path", "--nu", "(10*)", "--depth", "-1"],
    ["path", "--nu", "(10*)", "--depth", "0"],
    ["tree", "--gen", "staircase", "--depth", "0"],
    ["classify", "--nu", "(10*)", "--depth", "-2"],
    ["tree", "--nu", "(10*)", "--max-vertices", "0"],
    ["address", "--nu", "(10*)", "--max", "0"],
    ["path", "--nu", "(10*)", "--depth", "two"],
])
def test_integer_options_below_one_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {argv[-2]}: expected an integer >= 1" in err


def test_integer_options_accept_one(capsys):
    assert main(["path", "--nu", "(10*)", "--depth", "1"]) == 0
    assert "stage=1" in capsys.readouterr().out
    assert main(["address", "--nu", "1(10)", "--max", "1"]) == 0
    assert capsys.readouterr().out == "1 -> ...\n"


# -- determinism ----------------------------------------------------------------------------


@pytest.mark.parametrize("args", [
    ("tree", "--nu", "(10110*)", "--format", "json"),
    ("tree", "--nu", "(10110*)", "--format", "dot"),
    ("tree", "--nu", "(10110*)", "--format", "svg"),
    ("classify", "--nu", "(100101*)", "--format", "json"),
    ("path", "--nu", "(1001*)", "--depth", "5"),
])
def test_byte_determinism(args):
    a, b = run(*args), run(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_out_flag(tmp_path):
    target = tmp_path / "tree.json"
    r = run("tree", "--nu", "(1*)", "--format", "json", "--out", str(target))
    assert r.returncode == 0 and r.stdout == ""
    assert json.loads(target.read_text())["meta"]["nu"] == "(1*)"


# -- batch ------------------------------------------------------------------------------------


def test_batch_mode(tmp_path):
    batch = tmp_path / "jobs.txt"
    batch.write_text(
        "entropy --nu \"(1*)\"\n"
        "# a comment line\n"
        "address --nu \"(10*)\"\n"
        "entropy --nu \"(10*)\"\n"
    )
    r = run("--batch", str(batch))
    assert r.returncode == 0
    blocks = r.stdout.split("###")
    assert len(blocks) == 4  # leading empty + three jobs, input order
    assert "0.000000000000" in blocks[1]
    assert "1 -> 2 -> 3" in blocks[2]
    assert "0.481211825060" in blocks[3]


def test_batch_out_writes_the_file(tmp_path):
    target = tmp_path / "entropy.txt"
    batch = tmp_path / "jobs.txt"
    batch.write_text(f"entropy --nu \"(10*)\" --out {shlex.quote(str(target))}\n")
    r = run("--batch", str(batch))
    assert r.returncode == 0
    assert r.stdout == f"### entropy --nu (10*) --out {target}\n"
    lone = tmp_path / "lone.txt"
    assert run("entropy", "--nu", "(10*)", "--out", str(lone)).returncode == 0
    assert target.read_text() == lone.read_text() == "0.481211825060\n"


def test_batch_builds_one_parser(tmp_path, monkeypatch, capsys):
    built = []

    def counting_parser():
        built.append(1)
        return real_parser()

    real_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", counting_parser)
    batch = tmp_path / "jobs.txt"
    batch.write_text("angle --theta 1/7\n" * 3)
    assert main(["--batch", str(batch)]) == 0
    assert len(built) == 1
    assert capsys.readouterr().out.count("### angle --theta 1/7\n") == 3


def test_batch_without_file_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--batch"])
    assert exc.value.code == 2
    assert "argument --batch: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("name,content", [
    ("absent.txt", None),                      # a missing file
    (".", None),                               # a directory
    ("latin1.txt", b"classify --nu 10\xe9\n"),  # not UTF-8
    ("quote.txt", b'classify --nu "(10*)\n'),  # an unclosed quote
])
def test_batch_unreadable_file_is_one_error_line(tmp_path, capsys, name, content):
    if content is not None:
        (tmp_path / name).write_bytes(content)
    assert main(["--batch", str(tmp_path / name)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# -- normalize ----------------------------------------------------------------------------------


def test_normalize_infinite_degree():
    r1 = run("tree", "--nu", "[|1,7,-4,*]", "--degree", "inf", "--normalize",
             "--format", "json")
    r2 = run("tree", "--nu", "[|1,2,3,*]", "--degree", "inf", "--format", "json")
    assert r1.returncode == 0
    assert json.loads(r1.stdout)["nodes"] == json.loads(r2.stdout)["nodes"]


def test_normalize_finite_degree_rejected():
    assert run("tree", "--nu", "(10*)", "--normalize").returncode == 2


# -- in-process main -------------------------------------------------------------------------------


def test_main_in_process(capsys):
    assert main(["address", "--nu", "(1100110*)"]) == 0
    assert capsys.readouterr().out.strip() == "1 -> 3 -> 4 -> 8"
    assert main(["classify", "--nu", "(101)"]) == 2
