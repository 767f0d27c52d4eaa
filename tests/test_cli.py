"""Command-line behaviour: outputs, exit codes, determinism, batch mode."""

import json
import shlex
import subprocess
import sys

import pytest

from hubbardtrees import cli
from hubbardtrees.cli import main

CMD = [sys.executable, "-m", "hubbardtrees.cli"]


def run(*args):
    return subprocess.run(CMD + list(args), capture_output=True, text=True)


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
