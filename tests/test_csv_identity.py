"""The byte comparison of scripts/csv_identity.py on temporary directories;
no campaign is started."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "csv_identity.py"
spec = importlib.util.spec_from_file_location("csv_identity", SCRIPT)
csv_identity = importlib.util.module_from_spec(spec)
spec.loader.exec_module(csv_identity)


def write(directory, files):
    directory.mkdir()
    for name, data in files.items():
        (directory / name).write_bytes(data)
    return directory


def test_differing_csvs_names_each_csv_missing_or_changed(tmp_path):
    a = write(tmp_path / "a", {"same.csv": b"t,x\n0,1\n", "moved.csv": b"t,x\n0,1\n",
                               "only_a.csv": b"t\n", "summary.txt": b"wall = 1\n"})
    b = write(tmp_path / "b", {"same.csv": b"t,x\n0,1\n", "moved.csv": b"t,x\n0,1.0\n",
                               "only_b.csv": b"t\n", "summary.txt": b"wall = 2\n"})
    assert csv_identity.differing_csvs(a, b) == ["moved.csv", "only_a.csv", "only_b.csv"]
    assert csv_identity.differing_csvs(a, a) == []


def test_summary_differs_on_every_line_but_the_wall_clock_and_out_dir(tmp_path):
    base = b"passed = True\nconfig.dim = 4\nconfig.out_dir = %s\nwall_clock_s = %s\n"
    a = write(tmp_path / "a", {"summary.txt": base % (b"a", b"1.0")})
    b = write(tmp_path / "b", {"summary.txt": base % (b"b", b"2.5")})
    moved = write(tmp_path / "c", {"summary.txt": base.replace(b"4", b"5") % (b"a", b"1.0")})
    empty = write(tmp_path / "d", {})
    assert not csv_identity.summary_differs(a, b)
    assert csv_identity.summary_differs(a, moved)
    assert csv_identity.summary_differs(a, empty)
    assert not csv_identity.summary_differs(empty, empty)


def test_configs_cover_every_workload_and_golden_case():
    from tests.test_golden import CASES

    workloads = json.loads((SCRIPT.parent.parent / "perfbench" / "workloads.json").read_text())
    names = set(csv_identity.configs())
    assert names == set(workloads["workloads"]) | {f"golden:{n}" for n in CASES}


def test_main_reports_each_config_and_seed_and_fails_on_a_difference(
    tmp_path, monkeypatch, capsys
):
    # a fake campaign writes one CSV whose bytes differ between the trees
    # only for config "b" at seed 2, and a summary that differs only for "a"
    # at seed 2 and in its wall clock; exit codes differ only for "c"
    def run(tree, command, config, seed, out):
        change = tree.name == "change"
        moved = change and config == {"n": "b"} and seed == 2
        summary = b"stat.x = %d\nwall_clock_s = %s\n" % (
            change and config == {"n": "a"} and seed == 2, tree.name.encode())
        write(out, {"x.csv": b"1\n" if moved else b"0\n", "summary.txt": summary})
        return 2 if change and config == {"n": "c"} else 0

    monkeypatch.setattr(csv_identity, "export", lambda rev, dest: dest / rev)
    monkeypatch.setattr(csv_identity, "run", run)
    monkeypatch.setattr(csv_identity, "configs",
                        lambda: {n: ("picard", {"n": n}) for n in ("a", "b", "c")})
    assert csv_identity.main(["--parent", "parent", "--change", "change",
                              "--seeds", "1", "2"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "a seed 1 (exit 0): same",
        "a seed 2 (exit 0): DIFFERS: summary.txt",
        "b seed 1 (exit 0): same",
        "b seed 2 (exit 0): DIFFERS: x.csv",
        "c seed 1 (exit 2): DIFFERS: exit 0 vs 2",
        "c seed 2 (exit 2): DIFFERS: exit 0 vs 2",
        "4 of 6 runs differ",
    ]
    monkeypatch.setattr(csv_identity, "configs", lambda: {"a": ("picard", {"n": "a"})})
    assert csv_identity.main(["--parent", "parent", "--change", "change", "--seeds", "1"]) == 0
