"""Command-line behaviour: outputs, exit codes, determinism, batch mode."""

import argparse
import hashlib
import json
import os
import shlex
import subprocess
import sys
import threading

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


# SHA-256 of the `tree`, `tree --format json`, `classify` and `path` output of
# truncated input, as printed while truncations were a class of their own
TRUNCATED_COMMANDS = (("tree",), ("tree", "--format", "json"), ("classify",),
                      ("path",))
TRUNCATED_GOLDEN = {
    ("--prefix", "--nu", "1011011100"): (
        "ac90afcc4cba17f7c676dc7adfad58a189d94eaf2286e8112515fbed3b247195",
        "c0334a052d3f82d4ee9af1c633e2507f5485d2eacb632cdfcd4d0cdd4c883cb5",
        "aabe6707db5605c93d94e9aeedb425d91db0986dc0500f2f73caeeb58afdfefd",
        "763262741904eabd34fe163270669e1901afd6986c78fe9a801ba1f70f157d7d"),
    ("--prefix", "--nu", "1100011111"): (
        "33512b73f2511dfb760cdde445136c34e75303482c4a2a4e00a6701f910c8047",
        "98a9511c00847508c45eaea3e7cfbd2e7e9627810eb33c00afaf811473fa9b72",
        "55e1128507aa955e47a52e9a74a1988e0abd2dc2a8be00d48809da080159739c",
        "60d7b8f8f03bd531e035d2a527d238ddc8c298bef51c5194c75fafa1f551341b"),
    ("--prefix", "--nu", "1001011000"): (
        "97f5731f85a5e920aca621639c8fc2a308ae811ee72c0f8c18810240e15c011e",
        "23307d4eb0d1adcede0be3cc642e8f24c446f01b99b4fcc2859a322c16ca6095",
        "14e9ddb1271a66ebb9d7608ba5e94d5180771a63e72e1dc507c8a9f13f8e266f",
        "a545c920af5eae2fd846648482153491554cdb7674b7831e8f631f004cd39b24"),
    ("--prefix", "--nu", "110100100010000100000"): (
        "75c8e68571d4918ae7c90204066e92b73fc2579f1e9c6c465f9dac6900d354bf",
        "18fe6a5233fe30ea295c623cc21c7c297cc80d94506b6512c7e887aac2fbc385",
        "4889b81bbe165082c6a2cf3c08cd988fe8e6d4de3f1ff8402ef09de6cb2442cd",
        "9806e34db2ecae22ad61fc01b05b8c5e3553c9af441347f71167f4434b0705ee"),
    ("--degree", "3", "--prefix", "--nu", "1201120"): (
        "284f3c9342d1d8ffe1dd457a2b5e6862e9189116de3535bcb6d658a508c30635",
        "4f55548a1ef6b6bb662ea9afa6996d88dfbded18499b5afbaaebcf789899813a",
        "ebaa2efd2a3d65663c26723219b2647c18127b097ba2afb5d65d1dfc7e89ff42",
        "79c7165abeb95e2e7f7ea7061cca902025ed62420b04410833f1a48a5cd8785f"),
    ("--degree", "inf", "--normalize", "--prefix", "--nu", "[1,5,-2,1,5,3,1,5]"): (
        "c3546f429b8e50fad173a7c86b4ae5f038ae4713cd383138083b2eff52948afa",
        "ebdd159493b71efcddb1137b02f7c50d6d296bcf7c4f1e1beca72e788e939c55",
        "541e93914c74af30793012747e76f450102bb90f211592d1b84b274875e3e2f5",
        "66bd61ad613c30cb245fab88d209f5304f0b9288e2bbad6824d0ad9a40c8a2a7"),
    ("--gen", "staircase", "--depth", "8"): (
        "d5951049eb9bc4b06fd00931dc99b3ef4066130369de2dad50385587bafaf60d",
        "e2fcaa253871b75ea1454402ff1a88a8c02a0c39fd9cb19e180a2bba3f71d966",
        "509f5c1a0b671c68731c8f3626fcacb5ce7dc6c79af8bbf2f8dae342a4588aff",
        "683125cf8db3dea0a58033921d18745e4fac1fc3235b56eae149440a623df160"),
    ("--gen", "staircase", "--depth", "11"): (
        "8a7cd9c71279837d3bad731a375fd8b3e9940434f54820be757aaee897c7871f",
        "1d884beeb5519255e024572df770206cdc31462e40d2c59ca6ee1b2578b69bf0",
        "584e10a7d3f1e83975ca806b114909c17a0134e41fd39763e6aa9ffe06817df3",
        "ccb050d7a62128669a719fe8ae9ecbe7f1a4f11010129b93860c975e5aeff363"),
    ("--gen", "staircase", "--depth", "14"): (
        "7bb320810d7b07b38fc31de6ef0e5d416f991ecdc9e5152e950fbf270ba5ec45",
        "71a8e8bee6bade725480be2d23a8b5db82331c3a31b5300711a9fb82200cb314",
        "ce4b52e4b30b7b56cd21980b17632007d8584bd8759dc6e1e6f63d1bba10ae4e",
        "311563770a8b7fc3146ab61ba0a9d71a2420c90cce31451c3c92b69ad2fc6ab8"),
    ("--gen", "feigenbaum", "--depth", "8"): (
        "05192ed5afc6b477a3291ac128402064d46a031db9113fe832eab1327066e9d6",
        "d1f57c71661e63d3d540a43a0894a31f67c84e343dfa7e249d7f88125b170675",
        "5ac4ed2c379c157e4f8ccfee016e05b9c27869e89ca6194d72ad36b835210096",
        "979281798ee86b793502dd69c00f718f829c3ead1babf751290df1593468b3e8"),
    ("--gen", "feigenbaum", "--depth", "11"): (
        "2fd2bc38967932cdc4e17aca32feda8be40777166b33d6ff782222b8c7d40676",
        "eac334e2fa90e02ff8b9262ec0aec2946c45e00d6fd8b030f19f1c929ccba261",
        "735007f126b945dfdd8469c7d00b288fbd895e52b1034c3e0d814e86fe84788c",
        "63c031cc43590d7e9107a6eaca402d7a2d32986c8f3d4fa171966da2edbc2303"),
    ("--gen", "feigenbaum", "--depth", "14"): (
        "c105a8d43bff435aeea571948f6a809f63e6141dd05ed13556b0843e35ac3098",
        "50a14ab2c3fb35a38a90837b84dc2bd360025784718f32aba13c4267c5265ad8",
        "54a4f70b04b431e5ae68227da37fb7efca687107175886cd9e7e7532d0cdd749",
        "3db03198cb8d416c34f1d6ae16d7a8fb4c3d4e3a203da6fd3cea9c7fb3f9d526"),
}


@pytest.mark.parametrize("args", list(TRUNCATED_GOLDEN))
def test_truncated_output_is_byte_identical_to_golden(args, capsys):
    for cmd, want in zip(TRUNCATED_COMMANDS, TRUNCATED_GOLDEN[args]):
        assert main([*cmd, *args]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == want, (cmd, args)


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


def test_classify_bifurcation_past_the_path_point_cap(capsys):
    # P_p of this period-20 bifurcation passes MAX_PATH_POINTS; its class
    # is read off the refinement at nu, which holds about 4p points
    assert main(["classify", "--nu", "(1000000000100000000*)"]) == 0
    out = capsys.readouterr().out
    assert "bifurcation: standard from period 10 (base (100000000*))\n" in out


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


def test_one_parser_per_process(tmp_path, monkeypatch, capsys):
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        if kwargs.get("prog") == "htree":
            built.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    batch = tmp_path / "jobs.txt"
    batch.write_text("angle --theta 1/7\n" * 3)
    for argv in (["angle", "--theta", "1/7"], ["tree", "--nu", "(10*)"],
                 ["classify", "--nu", "(101*)"], ["--batch", str(batch)],
                 ["entropy", "--nu", "(10*)"], ["path", "--nu", "(1*)"]):
        assert main(argv) == 0
    assert len(built) <= 1
    assert capsys.readouterr().out.count("### angle --theta 1/7\n") == 3


def _in_process(argv, capsys):
    """(exit code, stdout, stderr) of main(argv) in this process."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


def test_shared_parser_carries_no_state(monkeypatch, capsys):
    # the parser is built once per process: each call, errors and help
    # included, must print what a fresh process prints
    calls = [["tree", "--depth", "0"], ["bogus"], ["angle"], ["--help"]]
    calls += [[cmd, "--help"] for cmd in
              ("path", "tree", "classify", "address", "entropy", "angle")]
    calls.append(["tree", "--nu", "(10*)", "--format", "json"])
    env = {**ENV, "COLUMNS": "80"}
    procs = [subprocess.Popen(CMD + argv, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, env=env)
             for argv in calls]
    fresh = []
    for proc in procs:
        out, err = proc.communicate(timeout=60)
        fresh.append((proc.returncode, out, err))
    monkeypatch.setenv("COLUMNS", "80")
    for argv, expected in zip(calls, fresh):
        assert _in_process(argv, capsys) == expected, argv

    # the wrap width is read when help is printed, not when the parser is built
    monkeypatch.setenv("COLUMNS", "50")
    narrow = _in_process(["tree", "--help"], capsys)[1]
    monkeypatch.setenv("COLUMNS", "120")
    wide = _in_process(["tree", "--help"], capsys)[1]
    assert max(map(len, narrow.splitlines())) <= 50
    assert max(map(len, wide.splitlines())) > 50
    assert narrow != wide


def test_shared_parser_parses_from_threads():
    ap = cli.build_parser()
    argvs = [["tree", "--nu", "(10*)", "--format", "json"],
             ["classify", "--degree", "3", "--nu", "(12*)", "--depth", "4"],
             ["address", "--from", "1,2,4"],
             ["entropy", "--gen", "staircase", "--matrix"],
             ["angle", "--theta", "1/7", "--out", "x.txt"],
             ["--batch", "jobs.txt"]]
    serial = [ap.parse_args(argv) for argv in argvs]
    results = {}

    def worker(k):
        order = argvs[k:] + argvs[:k]
        results[k] = [[ap.parse_args(argv) for argv in order]
                      for _ in range(50)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for k in range(4):
        expected = serial[k:] + serial[:k]
        assert all(rounds == expected for rounds in results[k])


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
