"""Command-line interface tests, driven through run(argv)."""

from __future__ import annotations

import os
import subprocess
import sys
import time

import pytest

from twistpoly.cli import build_parser, run
from twistpoly.core import format_dm
from twistpoly.gf2 import delta_matroid_of_matrix, format_graph
from twistpoly.verify import _symmetric_from_bits, complete_graph_matrix

PAIR_DM = "2\n2\n-\n0,1\n"
REMARK_DM = "2\n2\n0\n1\n"
NON_DM = "3\n2\n-\n0,1,2\n"
K3_GF2 = "3\n011\n101\n110\n"
PATH_GRAPH = "3\n0 1\n1 2\n"


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _gf2_text(c):
    rows = ("".join(str((r >> j) & 1) for j in range(c.n)) + "\n" for r in c.rows)
    return f"{c.n}\n" + "".join(rows)


def test_check_delta_matroid(tmp_path, capsys):
    assert run(["check", _write(tmp_path, "d.dm", PAIR_DM)]) == 0
    out = capsys.readouterr().out
    assert "delta-matroid" in out
    assert "width: 2" in out
    assert "normal: yes" in out


def test_check_non_delta_matroid_is_still_success(tmp_path, capsys):
    assert run(["check", _write(tmp_path, "d.dm", NON_DM)]) == 0
    assert "not a delta-matroid" in capsys.readouterr().out


def test_twist(tmp_path, capsys):
    assert run(["twist", _write(tmp_path, "d.dm", REMARK_DM), "--set", "0"]) == 0
    assert capsys.readouterr().out == PAIR_DM
    assert run(["twist", _write(tmp_path, "e.dm", REMARK_DM), "--set", "-"]) == 0
    assert capsys.readouterr().out == REMARK_DM


def test_twist_bad_set(tmp_path, capsys):
    path = _write(tmp_path, "d.dm", PAIR_DM)
    for elems in ("7", "0,0"):
        assert run(["twist", path, "--set", elems]) == 2
        assert "error" in capsys.readouterr().err


def test_twist_poly_modes(tmp_path, capsys):
    path = _write(tmp_path, "d.dm", PAIR_DM)
    for flag in ([], ["--fast"], ["--naive"], ["--both"]):
        assert run(["twist-poly", path, *flag]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["2z^2 + 2", "coeffs: 2 0 2"]


def test_genus_poly(capsys):
    assert run(["genus-poly", "1 2 3 1 2 3"]) == 0
    assert capsys.readouterr().out.splitlines() == ["8z^2", "coeffs: 0 0 8"]


def test_from_matrix(tmp_path, capsys):
    assert run(["from-matrix", _write(tmp_path, "c.gf2", K3_GF2)]) == 0
    assert capsys.readouterr().out == "3\n4\n-\n0,1\n0,2\n1,2\n"


def test_from_graph(tmp_path, capsys):
    assert run(["from-graph", _write(tmp_path, "g.graph", PATH_GRAPH)]) == 0
    assert capsys.readouterr().out == "3\n3\n-\n0,1\n1,2\n"


def test_from_bouquet(capsys):
    assert run(["from-bouquet", "1 -1"]) == 0
    out = capsys.readouterr().out
    assert "nonorientable" in out
    assert out.endswith("1\n2\n-\n0\n")


def test_from_bouquet_chord_rows(capsys):
    assert run(["from-bouquet", "(-1, -2, 3, 4, 2, 1, 3, 4)"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "edge  positions  type"
    assert rows[1] == "1     0,5        nonorientable"
    assert rows[3] == "3     2,6        orientable"


def test_intersection_graph(tmp_path, capsys):
    assert run(["intersection-graph", _write(tmp_path, "d.dm", PAIR_DM)]) == 0
    out = capsys.readouterr().out
    assert "0 1" in out
    assert "bipartite: yes" in out
    assert "all components complete of odd order: no" in out


def test_intersection_graph_requires_normal_binary(tmp_path, capsys):
    assert run(["intersection-graph", _write(tmp_path, "d.dm", REMARK_DM)]) == 2
    assert "normal binary" in capsys.readouterr().err


def test_matrix_graph_roundtrip_via_cli(tmp_path, capsys):
    # from-matrix then intersection-graph reproduces the input matrix
    for i in range(1 << 6):
        c = _symmetric_from_bits(3, i, False)
        gf2 = _write(tmp_path, f"m{i}.gf2", _gf2_text(c))
        assert run(["from-matrix", gf2]) == 0
        dm = _write(tmp_path, f"m{i}.dm", capsys.readouterr().out)
        assert run(["intersection-graph", dm]) == 0
        graph_lines = [
            ln
            for ln in capsys.readouterr().out.splitlines()
            if ln and ln[0].isdigit()
        ]
        rows = [0] * 3
        for ln in graph_lines[1:]:
            u, v = map(int, ln.split())
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        assert tuple(rows) == c.rows


def test_parse_error_exit_code(tmp_path, capsys):
    assert run(["check", _write(tmp_path, "bad.dm", "2\n0\n")]) == 2
    assert "error" in capsys.readouterr().err
    assert run(["check", str(tmp_path / "missing.dm")]) == 2
    capsys.readouterr()


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["no-such-verb"])
    assert exc.value.code == 2


SUBCOMMANDS = [
    "check", "twist", "twist-poly", "from-matrix", "from-graph",
    "from-bouquet", "intersection-graph", "genus-poly", "verify",
]
HELP_AND_USAGE_ERRORS = [
    *([cmd, "--help"] for cmd in SUBCOMMANDS),
    *([cmd] for cmd in SUBCOMMANDS if cmd != "verify"),  # a missing positional
    ["twist", "d.dm"],
    ["twist-poly", "d.dm", "--fast", "--naive"],
    ["verify", "--suite", "nope"],
    ["verify", "--max-n", "x"],
    ["check", "d.dm", "extra"],
    ["--help"],
    [],
    ["no-such-verb"],
]


def _exit_and_output(parse, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", HELP_AND_USAGE_ERRORS, ids=" ".join)
def test_help_and_usage_errors_match_the_full_parser(argv, capsys):
    """run() builds only the invoked subcommand's parser; what it prints
    and its exit code must be what the parser with every subcommand gives."""
    full = _exit_and_output(build_parser().parse_args, argv, capsys)
    assert _exit_and_output(run, argv, capsys) == full


def test_from_graph_refuses_a_large_vertex_count_before_reading_edges(tmp_path, capsys):
    path = _write(tmp_path, "big.graph", "999999\n")
    start = time.perf_counter()
    assert run(["from-graph", path]) == 2
    assert time.perf_counter() - start < 0.05
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: ground set of size 999999 exceeds the enumeration limit of 16\n"


@pytest.mark.parametrize("tail", ["", "x\n"], ids=["valid", "malformed-last-line"])
def test_twist_poly_refuses_a_large_ground_set_after_the_header(tmp_path, capsys, tail):
    # 1.8 MB: 20 sets of 13,000 ascending elements near the top of a ground set of 10^6
    body = "".join(
        ",".join(map(str, range(740_000 + i * 13_000, 753_000 + i * 13_000))) + "\n"
        for i in range(20)
    )
    path = _write(tmp_path, "big.dm", f"1000000\n{20 + bool(tail)}\n{body}{tail}")
    start = time.perf_counter()
    assert run(["twist-poly", path]) == 2
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: ground set of size 1000000 exceeds the enumeration limit of 16\n"


def test_verify_suite(capsys):
    assert run(["verify", "--suite", "lemma4", "--max-n", "6"]) == 0
    out = capsys.readouterr().out
    assert "THEOREM lemma4 PASS checked=6 seed=-" in out


def test_verify_sweep_that_checks_nothing(capsys):
    assert run(["verify", "--suite", "lemma4", "--max-n", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert run(["verify", "--suite", "lemma4", "--max-n", "0"]) == 1
    assert "THEOREM lemma4 FAIL checked=0 seed=-" in capsys.readouterr().out


def test_verify_seed_recorded(capsys):
    assert run(["verify", "--suite", "monomial", "--max-n", "3", "--seed", "9"]) == 0
    assert "seed=9" in capsys.readouterr().out


def test_verify_interlacement_at_max_n_zero(capsys):
    assert run(["verify", "--suite", "interlacement", "--max-n", "0"]) == 1
    assert "THEOREM interlacement-oracle FAIL checked=0 seed=0" in capsys.readouterr().out


def test_verify_interlacement_at_max_n_two(capsys):
    # e = 2 has 4 same-interlacement pairs: they all agree, so the suite passes
    assert run(["verify", "--suite", "interlacement", "--max-n", "2"]) == 0
    assert "THEOREM same-interlacement-pairs PASS checked=4 seed=-" in capsys.readouterr().out


# int() reads each bad token but x and "- 5" (as 1, 0, 10, 2, -1, ...); a token
# is ASCII decimal digits, with surrounding whitespace (any, as int() strips)
# and, in a rotation or a flag value, a "-" directly before the digits
@pytest.mark.parametrize(
    "argv, text, bad, good",
    [
        (["check", "{file}"], "12\n1\n{tok}\n", ["+1", "-0", "1_0", "\u0662", "-1"],
         "\u00a01, 10"),
        (["twist", "{file}", "--set", "{tok}"], PAIR_DM, ["+1", "0_1", "\u0661"], " 1 "),
        (["from-graph", "{file}"], "12\n0 {tok}\n", ["+1", "1_0"], "10"),
        (["genus-poly", "{tok}"], "", ["\u0661 \u0662 \u0661 \u0662"], "-1 2 -1 2"),
        (["check", "{file}"], "{tok}\n1\n-\n", ["\u0662", "+2", "-2"], " 2 "),
        (["check", "{file}"], "2\n{tok}\n-\n", ["+1", "\u0661", "-1"], "1"),
        (["from-matrix", "{file}"], "{tok}\n01\n10\n", ["+2", "\u0662", "-2"], "2"),
        (["from-graph", "{file}"], "{tok}\n0 1\n", ["1_0", "+10", "-10"], "10"),
        (["verify", "--suite", "monomial", "--max-n", "{tok}", "--seed", "-3"], "",
         ["+1_0", "\u0662", "- 5", "x"], "3"),
    ],
    ids=["dm", "twist-set", "graph", "rotation", "dm-n", "dm-k", "gf2-size", "graph-count",
         "verify-max-n"],
)
def test_integer_tokens_are_ascii_digits(tmp_path, capsys, argv, text, bad, good):
    for tok in bad:
        path = _write(tmp_path, "in.txt", text.format(tok=tok))
        args = [a.format(file=path, tok=tok) for a in argv]
        if argv[0] == "verify":  # argparse refuses a flag value after its usage text
            with pytest.raises(SystemExit) as refused:
                run(args)
            assert refused.value.code == 2, tok
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("usage: "), tok
            assert captured.err.endswith(f"argument --max-n: invalid int value: {tok!r}\n")
            continue
        assert run(args) == 2, tok
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: "), tok
        assert captured.err.count("\n") == 1, tok
    path = _write(tmp_path, "in.txt", text.format(tok=good))
    assert run([a.format(file=path, tok=good) for a in argv]) == 0
    capsys.readouterr()


def test_check_single_empty_set_on_a_large_ground_set(tmp_path, capsys):
    n = 200_000
    path = _write(tmp_path, "big.dm", f"{n}\n1\n-\n")
    start = time.perf_counter()
    assert run(["check", path]) == 0
    assert time.perf_counter() - start < 1.0
    out = capsys.readouterr().out
    assert f"loops: {','.join(map(str, range(n)))}\n" in out
    assert "coloops: -\n" in out


def _python(args, **kwargs):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    return subprocess.run([sys.executable, *args], env=env, **kwargs)


def test_cli_import_does_not_load_numpy():
    code = "import sys, twistpoly.cli; sys.exit('numpy' in sys.modules)"
    assert _python(["-c", code]).returncode == 0


def test_query_commands_do_not_load_numpy(tmp_path):
    k10 = complete_graph_matrix(10)
    rotation = " ".join(map(str, [*range(1, 11), *range(1, 11)]))
    gf2_path = _write(tmp_path, "k10.gf2", _gf2_text(k10))
    graph_path = _write(tmp_path, "k10.graph", format_graph(k10))
    dm_path = _write(tmp_path, "k10.dm", format_dm(delta_matroid_of_matrix(k10)))
    commands = [
        ["from-matrix", gf2_path],
        ["from-graph", graph_path],
        ["from-bouquet", rotation],
        ["twist-poly", dm_path],
        ["genus-poly", rotation],
        ["intersection-graph", dm_path],
        ["check", dm_path],
    ]
    code = (
        "import sys\n"
        "from twistpoly.cli import run\n"
        f"codes = [run(argv) for argv in {commands!r}]\n"
        "print('CODES', codes, 'numpy' in sys.modules, file=sys.stderr)\n"
        "sys.exit(codes != [0] * len(codes) or 'numpy' in sys.modules)\n"
    )
    proc = _python(["-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _limit_address_space():
    import resource

    cap = 1_500_000_000
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


@pytest.mark.parametrize(
    "command, text",
    [
        ("check", "100000000000\n1\n-\n"),
        ("from-graph", "20000\n"),
        ("from-graph", "100000000000\n"),
        # 4 MB: n = 2000 rows of 2000 ones
        ("from-matrix", "2000\n" + ("1" * 2000 + "\n") * 2000),
        ("intersection-graph", "1000000\n1\n-\n"),
        # 91 kB: one high element per line, each line a mask of 10^6 bits
        ("check", "1000000\n13000\n" + "".join(f"{999_999 - i}\n" for i in range(13000))),
    ],
    ids=["check-n1e11", "from-graph-20000", "from-graph-1e11", "from-matrix-2000",
         "intersection-graph-n1e6", "check-n1e6-k13000"],
)
def test_large_sizes_exit_2_under_a_memory_cap(tmp_path, command, text):
    path = _write(tmp_path, "big.in", text)
    start = time.perf_counter()
    proc = _python(
        ["-m", "twistpoly.cli", command, path],
        capture_output=True,
        text=True,
        preexec_fn=_limit_address_space,
        timeout=60,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert elapsed < 1.0


def test_one_line_of_many_high_elements_reads_under_a_memory_cap(tmp_path):
    # 91 kB, one set of 13,000 elements near the top of n = 10^6: inside the
    # n*k bound, and each element's bit is as large as the whole mask
    text = "1000000\n1\n" + ",".join(str(e) for e in range(987_000, 1_000_000)) + "\n"
    path = _write(tmp_path, "wide.dm", text)
    proc = _python(
        ["-m", "twistpoly.cli", "check", path],
        capture_output=True,
        text=True,
        preexec_fn=_limit_address_space,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("n: 1000000\nfeasible sets: 1\ndelta-matroid\n")
    assert proc.stderr == ""


@pytest.mark.parametrize(
    "suite, max_n, error",
    [
        # past the running-time bound, which lies inside the enumeration limit
        ("interlacement", 17,
         "random-signed-rotations sweep bounded at 13 by its running time, got 17"),
        ("interlacement", 10**9,
         "random-signed-rotations sweep bounded at 13 by its running time, got 1000000000"),
        ("fastnaive", 17, "random-delta-matroids sweep bounded at 14 by its running time, got 17"),
        ("fastnaive", 10**5,
         "random-delta-matroids sweep bounded at 14 by its running time, got 100000"),
        ("interlacement", 14,
         "random-signed-rotations sweep bounded at 13 by its running time, got 14"),
        ("fastnaive", 15, "random-delta-matroids sweep bounded at 14 by its running time, got 15"),
        ("fastnaive", 16, "random-delta-matroids sweep bounded at 14 by its running time, got 16"),
        # past a family's bound: refused at the first size past it, before sweeping
        ("prop2", 5, "all-delta-matroids enumeration bounded at 4, got 5"),
        ("lemma5", 8, "all-delta-matroids enumeration bounded at 4, got 5"),
        ("bipartite", 8, "all-simple-graphs enumeration bounded at 6, got 7"),
        ("lemma4", 10**9, "ground set of size 17 exceeds the enumeration limit of 16"),
        ("all", 17, "all-delta-matroids enumeration bounded at 4, got 5"),
    ],
    ids=[
        "interlacement-17", "interlacement-1e9", "fastnaive-17", "fastnaive-1e5",
        "interlacement-14", "fastnaive-15", "fastnaive-16",
        "prop2-5", "lemma5-8", "bipartite-8", "lemma4-1e9", "all-17",
    ],
)
def test_verify_refuses_large_sizes_before_sweeping(suite, max_n, error):
    start = time.perf_counter()
    proc = _python(
        ["-m", "twistpoly.cli", "verify", "--suite", suite, "--max-n", str(max_n)],
        capture_output=True,
        text=True,
        preexec_fn=_limit_address_space,
        timeout=120,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == f"error: {error}\n"
    assert elapsed < 5.0


def test_delta_matroid_bound_is_checked_before_any_family_mask():
    # one family mask at n = 5 would hold 2^32 bits (512 MB)
    code = (
        "from twistpoly.verify import all_delta_matroids, count_delta_matroids\n"
        "for call in (lambda: count_delta_matroids(5), lambda: next(all_delta_matroids(5))):\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    proc = _python(
        ["-c", code], capture_output=True, text=True, preexec_fn=_limit_address_space, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "all-delta-matroids enumeration bounded at 4, got 5\n" * 2
