"""Command-line interface tests, driven through run(argv)."""

from __future__ import annotations

import os
import subprocess
import sys
import time

import pytest

from twistpoly.cli import run
from twistpoly.core import format_dm
from twistpoly.gf2 import (
    IntersectionGraph,
    delta_matroid_of_matrix,
    format_gf2,
    format_graph,
)
from twistpoly.verify import all_symmetric_matrices, complete_graph_matrix

PAIR_DM = "2\n2\n-\n0,1\n"
REMARK_DM = "2\n2\n0\n1\n"
NON_DM = "3\n2\n-\n0,1,2\n"
K3_GF2 = "3\n011\n101\n110\n"
PATH_GRAPH = "3\n0 1\n1 2\n"


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


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
    for i, c in enumerate(all_symmetric_matrices(3)):
        gf2 = _write(tmp_path, f"m{i}.gf2", f"3\n{c}\n")
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
    gf2_path = _write(tmp_path, "k10.gf2", format_gf2(k10))
    graph_path = _write(tmp_path, "k10.graph", format_graph(IntersectionGraph(k10)))
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
    ],
    ids=["check-n1e11", "from-graph-20000", "from-graph-1e11"],
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
