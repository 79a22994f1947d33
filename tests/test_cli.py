import csv
import gc
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

from halfcube import cli, complexes, faces, linalg
from halfcube.complexes import build_complex


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def complexes_equal(a, b) -> bool:
    """Same (n, k), the same cells in the same order and the same matrix entries."""
    if (a.n, a.k_cut) != (b.n, b.k_cut):
        return False
    if a.cells != b.cells:
        return False
    return [m.entries for m in a.matrices()] == [m.entries for m in b.matrices()]


def usage_error(capsys, *argv):
    """The stderr of an invocation refused as a usage error, which exits 2."""
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ")
    return err


def test_faces_table_n4(capsys):
    code, out = run_cli(capsys, "faces", "--n", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[1].split() == ["0", "8", "0", "8"]
    assert "16" in out and "0 failed" in out


def test_faces_json_schema(capsys):
    code, out = run_cli(capsys, "faces", "--n", "5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["command"] == "faces"
    assert doc["params"] == {"n": 5}
    assert all(c["status"] == "pass" for c in doc["checks"])
    dim3 = [r for r in doc["results"] if r["dim"] == 3][0]
    assert (dim3["simplex"], dim3["halfcube"]) == (80, 40)


def test_json_output_is_deterministic(capsys):
    _, out1 = run_cli(capsys, "faces", "--n", "5", "--format", "json")
    _, out2 = run_cli(capsys, "faces", "--n", "5", "--format", "json")
    assert out1 == out2


def test_faces_usage_error_below_range(capsys):
    assert "--n must be in 4..32, got 3" in usage_error(capsys, "faces", "--n", "3")
    # both bounds are faces.MAX_DIM, and the text names it
    assert "--n must be in 4..32, got 33" in usage_error(capsys, "faces", "--n", "33")
    assert "--n-max must be in 4..32, got 33" in usage_error(capsys, "verify", "--n-max", "33")


def test_betti_command(capsys):
    code, out = run_cli(capsys, "betti", "--n", "4", "--k", "3")
    assert code == 0
    assert "7" in out and "snf" in out
    code, out = run_cli(capsys, "betti", "--n", "6", "--k", "3", "--cert", "rank", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["betti"][2] == 111
    assert doc["results"]["certificate"] == "rank-agree(2,3,5)"


def test_betti_character_samples(capsys):
    code, out = run_cli(
        capsys, "betti", "--n", "4", "--k", "3", "--characters", "3", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    samples = doc["results"]["character_samples"]
    assert len(samples) == 3
    for s in samples:
        assert sorted(s["perm"]) == [1, 2, 3, 4]
        assert all(x in (1, -1) for x in s["signs"])
        assert isinstance(s["trace"], int)
    # reproducible across runs
    _, out2 = run_cli(
        capsys, "betti", "--n", "4", "--k", "3", "--characters", "3", "--format", "json"
    )
    assert out == out2


def test_betti_traces_in_table_and_csv(capsys):
    _, out = run_cli(
        capsys, "betti", "--n", "4", "--k", "3", "--characters", "3", "--format", "json"
    )
    traces = " ".join(str(s["trace"]) for s in json.loads(out)["results"]["character_samples"])
    code, out = run_cli(capsys, "betti", "--n", "4", "--k", "3", "--characters", "3", "--format", "csv")
    assert code == 0
    header, row = list(csv.reader(io.StringIO(out)))
    assert header[-1] == "traces" and row[-1] == traces
    code, out = run_cli(capsys, "betti", "--n", "4", "--k", "3", "--characters", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split()[-1] == "traces" and lines[1].endswith(traces)
    # without --characters the table and csv carry no traces column
    for fmt in ("table", "csv"):
        _, out = run_cli(capsys, "betti", "--n", "4", "--k", "3", "--format", fmt)
        assert "traces" not in out


def test_betti_budget_skip(capsys):
    code, out = run_cli(
        capsys, "betti", "--n", "6", "--k", "3", "--max-cells", "100", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["status"] == "skipped"
    assert doc["results"]["predicted"] == 111
    assert all(c["status"] == "skipped" for c in doc["checks"])


def test_skipped_betti_result_has_every_key(capsys):
    # a skipped job reports the keys of a run one, unfilled ones as null,
    # as a skipped morse job does
    _, ran = run_cli(capsys, "betti", "--n", "5", "--k", "3", "--format", "json")
    _, out = run_cli(
        capsys, "betti", "--n", "5", "--k", "3", "--max-cells", "1", "--format", "json"
    )
    ran, skipped = json.loads(ran)["results"], json.loads(out)["results"]
    assert ran["status"] == "ok" and skipped["status"] == "skipped"
    assert sorted(skipped) == sorted(ran)
    assert skipped["torsion"] is None and skipped["betti"] is None


def test_verify_budget_skips_whole_jobs(capsys, monkeypatch):
    # a job over --max-cells fetches no complex: its betti and Morse
    # reports both skip, and every other job runs as usual
    fetched = []
    get_complex = cli.get_complex

    def recording(n, k_cut, cache_dir):
        fetched.append((n, k_cut))
        return get_complex(n, k_cut, cache_dir)

    monkeypatch.setattr(cli, "get_complex", recording)
    code, out = run_cli(capsys, "verify", "--n-max", "6", "--max-cells", "500", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    jobs = {(n, k) for n in (4, 5, 6) for k in range(3, n + 1)}
    skipped = {(r["n"], r["k"]) for r in doc["results"]["betti"] if r["status"] == "skipped"}
    assert len(skipped) == 4
    morse_skipped = [r for r in doc["results"]["morse"] if r.get("status") == "skipped"]
    assert {(r["n"], r["k"]) for r in morse_skipped} == skipped
    assert all(r["pairs"] is None and r["acyclic"] is None for r in morse_skipped)
    assert sorted(fetched) == sorted(jobs - skipped)
    for n, k in jobs:
        statuses = {
            c["status"]
            for c in doc["checks"]
            if c["name"].startswith((f"betti.n={n}.k={k}.", f"morse.n={n}.k={k}."))
        }
        assert statuses == ({"skipped"} if (n, k) in skipped else {"pass"}), (n, k)


@pytest.mark.parametrize(
    "argv",
    [("betti", "--n", "5", "--k", "4"), ("morse", "--n", "5", "--k", "4"), ("verify", "--n-max", "5")],
)
def test_cell_budget_boundary(capsys, argv):
    # a job whose largest chain group holds exactly --max-cells cells runs;
    # a budget one cell below skips it, and only the jobs over it
    peak = cli._peak_cells(5, 4)
    assert peak == 160
    for budget, want in ((peak, "pass"), (peak - 1, "skipped")):
        code, out = run_cli(capsys, *argv, "--max-cells", str(budget), "--format", "json")
        assert code == 0, budget
        statuses = {}
        for c in json.loads(out)["checks"]:
            if c["name"].startswith(("betti.", "morse.")):
                job = tuple(int(part.split("=")[1]) for part in c["name"].split(".")[1:3])
                statuses.setdefault(job, set()).add(c["status"])
        assert statuses[(5, 4)] == {want}, budget
        for (n, k), got in statuses.items():
            assert got == ({"skipped"} if cli._peak_cells(n, k) > budget else {"pass"}), (budget, n, k)


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--n-max", "4", "--max-cells", "-1"),
        ("betti", "--n", "4", "--k", "3", "--max-cells", "-1"),
        ("betti", "--n", "4", "--k", "3", "--characters", "-1"),
        ("triangle", "--rows", "-1"),
    ],
)
def test_negative_counts_are_usage_errors(argv, capsys):
    assert "must be nonnegative" in usage_error(capsys, *argv)


def test_triangle_rows_above_the_limit_is_a_usage_error(capsys, monkeypatch):
    def refuse(rows_max):
        raise AssertionError(f"ran {rows_max} triangle rows")

    monkeypatch.setattr(cli, "run_triangle", refuse)
    err = usage_error(capsys, "triangle", "--rows", str(cli.MAX_ROWS + 1))
    assert f"--rows must be at most {cli.MAX_ROWS}" in err
    cli.validate_args(cli.build_parser().parse_args(["triangle", "--rows", str(cli.MAX_ROWS)]))


def test_betti_characters_above_the_limit_is_a_usage_error(capsys, monkeypatch):
    def refuse(n, k, count):
        raise AssertionError(f"sampled {count} characters")

    monkeypatch.setattr(cli, "character_samples", refuse)
    monkeypatch.setattr(cli, "get_complex", refuse)
    argv = ["betti", "--n", "5", "--k", "4", "--characters"]
    err = usage_error(capsys, *argv, str(cli.MAX_CHARACTERS + 1))
    assert f"--characters must be at most {cli.MAX_CHARACTERS}" in err
    cli.validate_args(cli.build_parser().parse_args(argv + [str(cli.MAX_CHARACTERS)]))


def test_betti_k_range_usage_error():
    with pytest.raises(SystemExit):
        cli.main(["betti", "--n", "5", "--k", "6"])
    with pytest.raises(SystemExit):
        cli.main(["betti", "--n", "5", "--k", "2"])


def test_morse_budget_skip(capsys, monkeypatch):
    # a morse job over --max-cells fetches no complex and skips its four checks
    def refuse(n, k_cut, cache_dir):
        raise AssertionError(f"fetched the ({n}, {k_cut}) complex")

    monkeypatch.setattr(cli, "get_complex", refuse)
    argv = ("morse", "--n", "5", "--k", "3", "--max-cells", "1")
    code, out = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["status"] == "skipped"
    assert [c["status"] for c in doc["checks"]] == ["skipped"] * 4
    for fmt in ("table", "csv"):
        code, out = run_cli(capsys, *argv, "--format", fmt)
        assert code == 0 and out


@pytest.mark.parametrize(
    "argv",
    [
        ("faces", "--n", "4", "--max-cells", "5"),
        ("orbits", "--n", "4", "--cache-dir", "unused"),
        ("triangle", "--rows", "3", "--max-cells", "5"),
        ("betti", "--n", "5", "--k", "4", "--cache-dir", "unused"),
        ("morse", "--n", "5", "--k", "3", "--cache-dir", "unused"),
    ],
)
def test_flags_a_command_does_not_use_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_extended_orbits_need_n4(capsys):
    # a usage error (exit 2), not a traceback with the exit code of a failed check
    with pytest.raises(SystemExit) as exc:
        cli.main(["orbits", "--n", "5", "--extended"])
    assert exc.value.code == 2
    assert "--extended" in capsys.readouterr().err


@pytest.mark.parametrize("n", [4, 5, 6])
def test_peak_cells_matches_built_complexes(n):
    # the census bound the cell budget is checked against, k = n+1 included
    for k in range(3, n + 2):
        assert cli._peak_cells(n, k) == max(build_complex(n, k).cell_counts()), k


def test_morse_command(capsys):
    code, out = run_cli(capsys, "morse", "--n", "5", "--k", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["pairs"] == 80
    assert doc["results"]["acyclic"] is True
    assert doc["results"]["unpaired"][3:] == [0, 0]
    code, out = run_cli(capsys, "morse", "--n", "4", "--k", "4", "--format", "json")
    doc = json.loads(out)
    assert doc["results"]["euler"] == 0
    assert sum((-1) ** p * u for p, u in enumerate(doc["results"]["unpaired"])) == 0


def test_morse_assembles_no_boundary_matrix(capsys, monkeypatch):
    # the matching reads cells, facets and keys alone
    argv = ("morse", "--n", "5", "--k", "3", "--format", "json")
    want = run_cli(capsys, *argv)

    def refuse(cx, *args, **kwargs):
        raise AssertionError(f"assembled the ({cx.n}, {cx.k_cut}) boundary matrices")

    monkeypatch.setattr(complexes, "boundary_matrices", refuse)
    assert run_cli(capsys, *argv) == want
    assert want[0] == 0


def test_orbits_command(capsys):
    code, out = run_cli(capsys, "orbits", "--n", "5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    dim3 = sorted((r["kind"], r["size"]) for r in doc["results"] if r["dim"] == 3)
    assert dim3 == [("halfcube", 40), ("simplex", 80)]
    code, out = run_cli(capsys, "orbits", "--n", "4", "--extended", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    dim3 = [(r["kind"], r["size"]) for r in doc["results"] if r["dim"] == 3]
    assert dim3 == [("mixed", 16)]
    # the whole report, with the n = 4 reflection's vertex table among the generators
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "86675fb7ec73d601f0bb6589b3a43b87ebe9fd08e27859edae0739c0f9f82b9f"
    )


# the SHA-256 of the whole `orbits --n N --format json` report: every orbit's
# representative, size and kind in order, and the profile checks
ORBITS_SHA256 = {
    5: "d23a5b72c14fd93adb2b87290ad85523015756081358c643cd60e776eef97f90",
    6: "cec470b4d443b19bb309e56c09d598907db2000614177703683b8a8413df855b",
    7: "b671e2642a1ba1ceed07b28dd70436b05b579a3f7651f1021eaa89838df08b23",
}


@pytest.mark.parametrize("n", sorted(ORBITS_SHA256))
def test_orbits_report_is_pinned(capsys, n):
    code, out = run_cli(capsys, "orbits", "--n", str(n), "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ORBITS_SHA256[n]


def test_faces_census_builds_no_descriptors(monkeypatch):
    # the census and its kind split count each generated batch and keep no lattice
    monkeypatch.setattr(faces, "_lattice_cache", {})
    results, checks = cli.run_faces(9)
    assert all(c["status"] == "pass" for c in checks)
    assert 9 not in faces._lattice_cache
    assert [r["total"] for r in results] == faces.face_counts(9)
    assert [(r["simplex"], r["halfcube"]) for r in results] == faces.face_counts_by_type(9)


def test_commands_build_no_face_index_or_facet_memo(capsys, monkeypatch):
    # cells and facets are keys: complexes, boundary columns, Morse pairs and
    # checks, orbits and the homology action leave each lattice its keys and
    # its key positions, and no descriptor list, all-faces index or memo
    monkeypatch.setattr(faces, "_lattice_cache", {})
    assert run_cli(capsys, "verify", "--n-max", "5")[0] == 0
    assert run_cli(capsys, "betti", "--n", "5", "--k", "4", "--characters", "1")[0] == 0
    assert run_cli(capsys, "morse", "--n", "5", "--k", "3")[0] == 0
    assert run_cli(capsys, "orbits", "--n", "5")[0] == 0
    assert sorted(faces._lattice_cache) == [4, 5]
    for lat in faces._lattice_cache.values():
        assert set(vars(lat)) == {"n", "keys", "_positions"}, sorted(vars(lat))


# run in a fresh interpreter, so that what earlier tests left allocated or
# cached cannot move the peak
CENSUS_PEAK = """
import tracemalloc
from halfcube import cli
tracemalloc.start()
results, checks = cli.run_faces(9)
_, peak = tracemalloc.get_traced_memory()
tracemalloc.stop()
assert all(c["status"] == "pass" for c in checks), checks
print(peak)
"""


def test_faces_census_peak_memory_is_one_batch():
    # tracemalloc counts Python allocations alone, so the bound holds on any host;
    # the whole n = 9 lattice takes 11.9 MB
    path = [os.path.dirname(os.path.dirname(faces.__file__)), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run(
        [sys.executable, "-c", CENSUS_PEAK], capture_output=True, text=True, env=env, check=True
    )
    peak = int(done.stdout)
    assert peak < 1 << 20, peak


def test_triangle_command_csv(capsys):
    code, out = run_cli(capsys, "triangle", "--rows", "6", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,row"
    assert lines[-1].endswith('"1 11 49 111 129 63 1"') or "1 11 49 111 129 63 1" in lines[-1]


# SHA-256 of `triangle --rows 40 --format json` stdout
TRIANGLE_40_SHA256 = "2e9109c25bece2afc2357ef519a49457c7fa03cd0a27f70f31def78e373dd055"


def test_triangle_rows_40_passes_every_check(capsys):
    # rows past 35 are where a float in the alternating sum would round
    code, out = run_cli(capsys, "triangle", "--rows", "40", "--format", "json")
    doc = json.loads(out)
    assert code == 0
    assert [c["name"] for c in doc["checks"] if c["status"] != "pass"] == []
    assert "triangle.routes_agree.n<=40" in {c["name"] for c in doc["checks"]}
    assert hashlib.sha256(out.encode()).hexdigest() == TRIANGLE_40_SHA256


def test_triangle_short_table_is_checked_on_six_rows(capsys):
    # the routes are compared on rows 0..6 from one table; the report lists rows 0..3
    code, out = run_cli(capsys, "triangle", "--rows", "3", "--format", "json")
    doc = json.loads(out)
    assert code == 0
    assert [r["row"] for r in doc["results"]] == [[1], [1, 1], [1, 3, 1], [1, 5, 7, 1]]
    names = [c["name"] for c in doc["checks"]]
    assert "triangle.routes_agree.n<=6" in names and "triangle.strehl.n<=6" in names
    assert [name for name in names if name.startswith("triangle.row.")] == [
        f"triangle.row.{n}" for n in range(4)
    ]


def test_verify_small(capsys):
    code, out = run_cli(capsys, "verify", "--n-max", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert all(c["status"] == "pass" for c in doc["checks"])
    names = {c["name"] for c in doc["checks"]}
    assert any(name.startswith("faces.") for name in names)
    assert any(name.startswith("betti.") for name in names)
    assert any(name.startswith("morse.") for name in names)
    assert any(name.startswith("orbits.") for name in names)
    assert any(name.startswith("triangle.") for name in names)


def test_cache_round_trip(tmp_path):
    cache = str(tmp_path)
    for n, k in ((n, k) for n in (4, 5) for k in range(3, n + 2)):
        cli.get_complex(n, k, cache)
        fresh = build_complex(n, k)
        fresh.matrices()
        loaded = cli.load_complex(cache, n, k)
        assert loaded is not None
        assert complexes_equal(fresh, loaded), (n, k)
        # corrupt the payload: loader must ignore it
        path = cli.cache_path(cache, n, k)
        for junk in (b"{not json", b"\xff\xfe"):
            with open(path, "wb") as fh:
                fh.write(junk)
            assert cli.load_complex(cache, n, k) is None


def test_warm_load_computes_no_sign(tmp_path, monkeypatch):
    cache = str(tmp_path)
    path = cli.save_complex(cli.get_complex(5, 4, None), cache)
    with open(path) as fh:
        assert set(json.load(fh)) == {"format_version", "orientation", "n", "k_cut", "signs"}

    def refuse(*args, **kwargs):
        raise AssertionError("a cache load computed an incidence sign")

    monkeypatch.setattr(complexes, "incidence_sign", refuse)
    loaded = cli.load_complex(cache, 5, 4)
    assert loaded is not None and loaded._matrices is not None


# SHA-256 of the cache file save_complex writes for C(5, 4), recorded while
# the matrices were held as (row, col, sign) triplets: the file format is
# unchanged by the column layout
CACHE_FILE_SHA256_5_4 = "60c9e32b0095e0503e8ce3f6224743e36befc5e88f94c34a2676f09c4c438128"


def test_cache_file_bytes_are_pinned(tmp_path, monkeypatch):
    monkeypatch.setattr(complexes, "_held", {})
    cache = str(tmp_path)
    computed = build_complex(5, 4).matrices()
    path = cli.save_complex(cli.get_complex(5, 4, None), cache)
    with open(path, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == CACHE_FILE_SHA256_5_4
    # a load with nothing held reads every sign from the file
    complexes._held.clear()
    loaded = cli.load_complex(cache, 5, 4).matrices()
    assert loaded == computed
    assert all(m.given_signs for m in loaded) and not any(m.given_signs for m in computed)


def test_concurrent_cache_writers_do_not_collide(tmp_path, monkeypatch):
    cache = str(tmp_path)
    cx = cli.get_complex(4, 3, None)
    replace = os.replace
    sources = []

    def racing_replace(src, dst):
        sources.append(src)
        if len(sources) == 1:
            cli.save_complex(cx, cache)  # a second writer of the same file finishes first
        replace(src, dst)

    monkeypatch.setattr(os, "replace", racing_replace)
    path = cli.save_complex(cx, cache)
    assert len(set(sources)) == 2
    assert os.listdir(cache) == [os.path.basename(path)]
    assert complexes_equal(cx, cli.load_complex(cache, 4, 3))

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        cli.save_complex(cx, cache)
    # a failed write removes its temp file
    assert os.listdir(cache) == [os.path.basename(path)]


def test_cache_version_mismatch_ignored(tmp_path):
    cache = str(tmp_path)
    cx = build_complex(4, 3)
    cx.matrices()
    path = cli.save_complex(cx, cache)
    with open(path) as fh:
        payload = json.load(fh)
    payload["orientation"] = "other-convention"
    with open(path, "w") as fh:
        json.dump(payload, fh)
    assert cli.load_complex(cache, 4, 3) is None


def test_no_environment_variable_sets_the_cache_dir(tmp_path, capsys, monkeypatch):
    # only --cache-dir names a cache: with HALFCUBE_CACHE_DIR set, every
    # command prints its no-cache report and writes nothing there
    argvs = [("betti", "--n", "5", "--k", "4", "--format", "json"),
             ("morse", "--n", "5", "--k", "3", "--format", "json"),
             ("verify", "--n-max", "4", "--format", "json")]
    want = [run_cli(capsys, *argv) for argv in argvs]
    monkeypatch.setenv("HALFCUBE_CACHE_DIR", str(tmp_path))
    assert [run_cli(capsys, *argv) for argv in argvs] == want
    assert os.listdir(tmp_path) == []


def test_unusable_cache_dir_is_a_usage_error(tmp_path, monkeypatch, capsys):
    # checked before any complex is fetched
    def refuse(n, k_cut, cache_dir):
        raise AssertionError(f"fetched the ({n}, {k_cut}) complex")

    monkeypatch.setattr(cli, "get_complex", refuse)
    blocker = tmp_path / "file"
    blocker.write_text("")
    for bad in (str(blocker), str(blocker / "x"), os.devnull + "/x"):
        err = usage_error(capsys, "verify", "--n-max", "4", "--cache-dir", bad)
        assert err.startswith("usage error: --cache-dir")
    # a directory that exists but cannot be written (access is stubbed, since
    # a superuser may write anywhere)
    with monkeypatch.context() as m:
        m.setattr(os, "access", lambda path, mode: False)
        err = usage_error(capsys, "verify", "--n-max", "4", "--cache-dir", str(tmp_path))
        assert err.startswith("usage error: --cache-dir") and "not writable" in err
    # a missing directory is created before any work
    made = tmp_path / "new" / "cache"
    cli.validate_args(cli.build_parser().parse_args(["verify", "--n-max", "4",
                                                     "--cache-dir", str(made)]))
    assert made.is_dir()


def test_unwritable_cache_file_is_a_warning(tmp_path, capsys):
    # a directory where one cache file goes: verify reports as without a cache,
    # names the file on stderr and writes the others
    argv = ("verify", "--n-max", "4", "--format", "json")
    _, plain = run_cli(capsys, *argv)
    cache = str(tmp_path)
    blocked = cli.cache_path(cache, 4, 3)
    os.mkdir(blocked)
    code = cli.main([*argv, "--cache-dir", cache])
    captured = capsys.readouterr()
    assert code == 0 and captured.out == plain
    assert captured.err == f"warning: cannot write cache file {blocked}: Is a directory\n"
    assert sorted(os.listdir(cache)) == sorted(
        os.path.basename(cli.cache_path(cache, 4, k)) for k in (3, 4)
    )
    assert os.path.isdir(blocked) and cli.load_complex(cache, 4, 4) is not None


# SHA-256 of `verify --n-max N --format json` stdout, as pinned in perfbench/pins.json;
# n = 7 is the first n_max whose jobs certify by rank agreement
VERIFY_SHA256 = {
    5: "b4cdba20306d35d00acd230050806ce041fae945b99ea397858426f147523c7d",
    7: "4f45a60f6934227ce4f6e094c056ac879a96a7fcbb938881dabf82417a967515",
}


def test_verify_json_is_pinned(capsys):
    code, out = run_cli(capsys, "verify", "--n-max", "5", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_SHA256[5]
    # verify runs serially; params keeps "threads": 1 for schema stability
    assert json.loads(out)["params"] == {"n_max": 5, "threads": 1}


def test_verify_twice_in_one_process_prints_the_same_report(capsys):
    # the second run finds the first one's held matrices, with their eliminations
    outs = [run_cli(capsys, "verify", "--n-max", "5", "--format", "json") for _ in range(2)]
    assert outs[0] == outs[1]
    assert outs[0][0] == 0
    assert hashlib.sha256(outs[0][1].encode()).hexdigest() == VERIFY_SHA256[5]


@pytest.mark.parametrize("n_max, eliminations", [(5, 10), (6, 18)])
def test_verify_eliminates_each_distinct_matrix_once(capsys, monkeypatch, n_max, eliminations):
    # a matrix handed on to the next complex brings its eliminations along,
    # and so does one whose rows the next complex renumbers, so only the
    # degrees each complex assembles are eliminated
    monkeypatch.setattr(complexes, "_held", {})
    calls = []
    eliminate = linalg.eliminate

    def counting(*args, **kwargs):
        calls.append(args[3])
        return eliminate(*args, **kwargs)

    monkeypatch.setattr(linalg, "eliminate", counting)
    assert run_cli(capsys, "verify", "--n-max", str(n_max), "--format", "json")[0] == 0
    # up to n = 6 every job certifies by its Smith form alone
    assert calls == [0] * eliminations


def test_verify_n7_json_is_pinned(capsys):
    code, out = run_cli(capsys, "verify", "--n-max", "7", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_SHA256[7]
    betti = json.loads(out)["results"]["betti"]
    assert {r["certificate"] for r in betti if r["n"] == 7} == {"rank-agree(2,3,5)"}


def test_verify_loads_each_cached_complex_once(tmp_path, capsys, monkeypatch):
    cache = str(tmp_path)
    argv = ("verify", "--n-max", "5", "--format", "json", "--cache-dir", cache)
    code, cold_out = run_cli(capsys, *argv)
    assert code == 0
    loads = []
    load_complex = cli.load_complex

    def counting_load(cache_dir, n, k_cut):
        cx = load_complex(cache_dir, n, k_cut)
        loads.append((n, k_cut, cx is not None))
        return cx

    monkeypatch.setattr(cli, "load_complex", counting_load)
    code, warm_out = run_cli(capsys, *argv)
    assert code == 0 and warm_out == cold_out
    # one load per (n, k) job, each n from the sphere C(n, n) down, each a hit
    assert loads == [(n, k, True) for n in (4, 5) for k in range(n, 2, -1)]


def test_failed_check_yields_nonzero_exit():
    report = {"checks": []}
    cli.check(report["checks"], "demo", 1, 2)
    assert report["checks"][0]["status"] == "fail"
    assert cli.exit_code(report) == 1
    report = {"checks": []}
    cli.skip(report["checks"], "demo", 1, "budget")
    assert cli.exit_code(report) == 0


def test_oversized_lattice_fails_fast(monkeypatch, capsys):
    def refuse(n):
        raise AssertionError(f"built the n = {n} lattice")

    # every enumeration, the census's and the lattice's, goes through _generate
    monkeypatch.setattr(faces, "_generate", refuse)
    for argv, n in ((["faces", "--n", "16"], 16), (["verify", "--n-max", "12"], 12)):
        err = usage_error(capsys, *argv)
        assert f"the n = {n} half cube has" in err
        assert f"above the limit of {faces.MAX_FACES}" in err
        assert n not in faces._lattice_cache
    # n = 11 is within the limit
    cli.validate_args(cli.build_parser().parse_args(["orbits", "--n", "11"]))
    with pytest.raises(ValueError, match="above the limit"):
        faces.build_face_lattice(12)
    with pytest.raises(ValueError, match="above the limit"):
        faces.face_census(12)


def _edit_flip_sign(payload):
    s = payload["signs"][1]
    payload["signs"][1] = ("-" if s[0] == "+" else "+") + s[1:]


def _edit_drop_sign(payload):
    payload["signs"][0] = payload["signs"][0][:-1]


def _edit_add_sign(payload):
    payload["signs"][0] += "+"


def _edit_foreign_character(payload):
    payload["signs"][-1] = "0" + payload["signs"][-1][1:]


def _edit_drop_degree(payload):
    payload["signs"].pop()


def _edit_n(payload):
    payload["n"] += 1


def _edit_k_cut(payload):
    payload["k_cut"] += 1


@pytest.mark.parametrize(
    "edit",
    [
        _edit_flip_sign,
        _edit_drop_sign,
        _edit_add_sign,
        _edit_foreign_character,
        _edit_drop_degree,
        _edit_n,
        _edit_k_cut,
    ],
)
def test_edited_cache_is_rebuilt(tmp_path, capsys, edit):
    argv = ["verify", "--n-max", "4", "--format", "json"]
    _, fresh_out = run_cli(capsys, *argv)
    cache = str(tmp_path)
    run_cli(capsys, *argv, "--cache-dir", cache)
    path = cli.cache_path(cache, 4, 3)
    with open(path) as fh:
        payload = json.load(fh)
    edit(payload)
    with open(path, "w") as fh:
        json.dump(payload, fh)
    assert cli.load_complex(cache, 4, 3) is None
    code, out = run_cli(capsys, *argv, "--cache-dir", cache)
    assert code == 0 and out == fresh_out
    # the miss rewrote the file from a fresh build
    fresh = build_complex(4, 3)
    fresh.matrices()
    assert complexes_equal(fresh, cli.load_complex(cache, 4, 3))


def test_cache_file_at_odds_with_a_held_matrix_is_a_miss(tmp_path):
    # negating a top-degree column reorients one cell: the boundary still
    # squares to zero, so only the held degree-5 matrix of C(6, 3) can tell
    cache = str(tmp_path)
    cx = build_complex(6, 4)
    fresh = [m.entries for m in cx.matrices()]
    path = cli.save_complex(cx, cache)
    with open(path) as fh:
        payload = json.load(fh)
    top = payload["signs"][4]
    first_column = sum(1 for _, c, _ in cx.matrices()[4].entries if c == 0)
    payload["signs"][4] = top[:first_column].translate(str.maketrans("+-", "-+")) + top[first_column:]
    with open(path, "w") as fh:
        json.dump(payload, fh)
    cli.get_complex(6, 3, None)
    assert cli.load_complex(cache, 6, 4) is None
    cx = cli.get_complex(6, 4, cache)  # the miss rebuilds and rewrites the file
    assert [m.entries for m in cx.matrices()] == fresh
    assert complexes_equal(cx, cli.load_complex(cache, 6, 4))


def test_reoriented_cache_file_gives_the_no_cache_report(tmp_path, capsys, monkeypatch):
    # reorienting the 3-cell at column 0 of the sphere C(5, 5), a half-cube
    # tetrahedron, negates that column of the degree-3 signs and that row of
    # the degree-4 ones, where the 4-dimensional half cubes through it have
    # entries: the boundary still squares to zero, so the file is a hit, and
    # no complex that computes its signs may reuse the file's held matrices
    monkeypatch.setattr(complexes, "_held", {})
    cache = str(tmp_path)
    argv = ("verify", "--n-max", "5", "--format", "json")
    _, fresh_out = run_cli(capsys, *argv)
    run_cli(capsys, *argv, "--cache-dir", cache)
    path = cli.cache_path(cache, 5, 5)
    mats = build_complex(5, 5).matrices()
    assert any(r == 0 for r, _, _ in mats[3].entries)

    def reorient(payload):
        _flip_signs(payload, mats[2], lambda r, c: c == 0)
        _flip_signs(payload, mats[3], lambda r, c: r == 0)

    payload = _rewrite(path, reorient)
    complexes._held.clear()  # mats, computed, would make the load a miss
    assert cli.load_complex(cache, 5, 5) is not None
    # C(5, 4) is then a miss against the held degree 3, and rebuilt; the
    # second run finds no C(5, 4) file at all
    for drop_k4 in (False, True):
        if drop_k4:
            os.remove(cli.cache_path(cache, 5, 4))
        code, out = run_cli(capsys, *argv, "--cache-dir", cache)
        assert code == 0 and out == fresh_out
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_SHA256[5]
        with open(path) as fh:  # a hit, so not rewritten
            assert json.load(fh) == payload


def _flip_signs(payload, matrix, at):
    """Negate, in a cache payload, the signs of ``matrix``'s entries at the (row, col) ``at`` accepts."""
    signs = list(payload["signs"][matrix.degree - 1])
    for i, (r, c, _) in enumerate(matrix.entries):
        if at(r, c):
            signs[i] = "+" if signs[i] == "-" else "-"
    payload["signs"][matrix.degree - 1] = "".join(signs)


def _rewrite(path, edit):
    with open(path) as fh:
        payload = json.load(fh)
    edit(payload)
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return payload


def test_file_signs_at_odds_with_a_borrowed_column_are_assembled_from_the_file(
    tmp_path, capsys, monkeypatch
):
    # C(5, 3)'s degree 3 takes its columns from C(5, 4)'s only where the
    # file's signs equal them; otherwise the degree is assembled from the
    # file, as with nothing held.  One flipped sign there then fails the
    # boundary-squared check: a miss, and the report of a run without the cache
    monkeypatch.setattr(complexes, "_held", {})
    cache = str(tmp_path)
    argv = ("verify", "--n-max", "5", "--format", "json")
    _, fresh_out = run_cli(capsys, *argv)
    run_cli(capsys, *argv, "--cache-dir", cache)
    mats = build_complex(5, 3).matrices()
    j = 7  # a simplex 3-cell, as every 3-cell of C(5, 3) is
    first = sum(map(len, mats[2].rows[:j]))
    path = cli.cache_path(cache, 5, 3)
    _rewrite(path, lambda p: _flip_signs(p, mats[2], lambda r, c: c == j and r == mats[2].rows[j][0]))
    build_complex(5, 4).matrices()
    with open(path) as fh:
        signs = json.load(fh)["signs"]
    assert signs[2][first] != mats[2].sign_text()[first]
    with pytest.raises(AssertionError, match=f"nonzero in degree 3 column {j}$"):
        complexes.boundary_matrices(build_complex(5, 3), signs)
    loads = []
    load_complex = cli.load_complex

    def recording_load(cache_dir, n, k_cut):
        cx = load_complex(cache_dir, n, k_cut)
        loads.append((n, k_cut, cx is not None))
        return cx

    monkeypatch.setattr(cli, "load_complex", recording_load)
    code, out = run_cli(capsys, *argv, "--cache-dir", cache)
    assert code == 0 and out == fresh_out
    assert [(k, hit) for n, k, hit in loads if n == 5] == [(5, True), (4, True), (3, False)]
    # the miss rewrote the file from a fresh build
    with open(path) as fh:
        assert json.load(fh)["signs"][2] == mats[2].sign_text()


def test_reoriented_simplex_in_a_cache_file_loads_as_a_hit(tmp_path, capsys, monkeypatch):
    # reorienting a 3-simplex of C(5, 3) flips one column that its degree 3
    # would take from the held C(5, 4) and one row of the degree-4 matrix
    # whose rows it would renumber: both degrees are assembled from the
    # file, which squares to zero and loads as a hit, while the report stays
    # that of no cache
    monkeypatch.setattr(complexes, "_held", {})
    cache = str(tmp_path)
    argv = ("verify", "--n-max", "5", "--format", "json")
    _, fresh_out = run_cli(capsys, *argv)
    run_cli(capsys, *argv, "--cache-dir", cache)
    mats = build_complex(5, 3).matrices()
    j = 7
    assert any(r == j for r, _, _ in mats[3].entries)

    def reorient(payload):
        _flip_signs(payload, mats[2], lambda r, c: c == j)
        _flip_signs(payload, mats[3], lambda r, c: r == j)

    path = cli.cache_path(cache, 5, 3)
    payload = _rewrite(path, reorient)
    cli.get_complex(5, 5, cache)
    cli.get_complex(5, 4, cache)
    held = dict(complexes._held)
    loaded = cli.load_complex(cache, 5, 3)
    assert loaded is not None
    got = loaded.matrices()
    assert got[2].signs[j] == tuple(-v for v in mats[2].signs[j])
    assert got[3].signs != held[(5, 4, "full", "simplex")].signs
    assert all(m.given_signs for m in got[2:4])
    code, out = run_cli(capsys, *argv, "--cache-dir", cache)
    assert code == 0 and out == fresh_out
    with open(path) as fh:  # a hit, so not rewritten
        assert json.load(fh) == payload


def test_readme_reoriented_file_borrows_beside_the_held_complex(tmp_path, capsys, monkeypatch):
    # the README's example reorients the half-cube tetrahedron at column 0
    # of the sphere C(5, 5)'s degree 3, whose row 0 of degree 4 holds the
    # entries of the 4-dimensional half cubes through it.  The file is a
    # hit; C(5, 4)'s file is then a miss against the held degree 3 and is
    # rebuilt, as computed, byte for byte; C(5, 3)'s is a hit that takes
    # its degrees from the rebuilt C(5, 4); the report is that of no cache
    monkeypatch.setattr(complexes, "_held", {})
    cache = str(tmp_path)
    argv = ("verify", "--n-max", "5", "--format", "json")
    _, fresh_out = run_cli(capsys, *argv)
    run_cli(capsys, *argv, "--cache-dir", cache)
    cx = build_complex(5, 5)
    mats = cx.matrices()
    # L((1,1,1,1,1), {1,2,3}): the even sign patterns on coordinates 1, 2, 3
    # (bit i - 1 set where coordinate i is -1), the other two at +1
    assert cx.cells[3][0] == (0b000, 0b011, 0b101, 0b110)
    assert faces.simplex_keys(3, cx.cells[3][:1]) == []
    assert [c for r, c, _ in mats[3].entries if r == 0]

    def reorient(payload):
        _flip_signs(payload, mats[2], lambda r, c: c == 0)
        _flip_signs(payload, mats[3], lambda r, c: r == 0)

    path = cli.cache_path(cache, 5, 5)
    payload = _rewrite(path, reorient)
    k4 = cli.cache_path(cache, 5, 4)
    with open(k4, "rb") as fh:
        k4_bytes = fh.read()
    loads = []
    load_complex = cli.load_complex

    def recording_load(cache_dir, n, k_cut):
        cx = load_complex(cache_dir, n, k_cut)
        loads.append((n, k_cut, cx is not None))
        return cx

    monkeypatch.setattr(cli, "load_complex", recording_load)
    code, out = run_cli(capsys, *argv, "--cache-dir", cache)
    assert code == 0 and out == fresh_out
    assert [(k, hit) for n, k, hit in loads if n == 5] == [(5, True), (4, False), (3, True)]
    with open(path) as fh:  # a hit, so not rewritten
        assert json.load(fh) == payload
    with open(k4, "rb") as fh:
        assert fh.read() == k4_bytes
    # the same, matrix by matrix: the reoriented sphere with nothing of n = 5
    # held, then C(5, 4) computed beside it, taking none of its given signs,
    # then C(5, 3) loaded beside that
    complexes._held.clear()
    sphere = cli.get_complex(5, 5, cache).matrices()
    assert sphere[2].signs[0] == tuple(-v for v in mats[2].signs[0])
    assert all(m.given_signs for m in sphere)
    assert cli.load_complex(cache, 5, 4) is None
    rebuilt = cli.get_complex(5, 4, cache).matrices()
    assert not any(m.given_signs or any(m is s for s in sphere) for m in rebuilt)
    got = cli.load_complex(cache, 5, 3).matrices()
    assert got[:2] == rebuilt[:2] and all(g is r for g, r in zip(got[:2], rebuilt))
    assert set(map(id, got[2].rows)) <= set(map(id, rebuilt[2].rows))
    assert got[3].signs is rebuilt[3].signs


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("fail", [False, True])
def test_main_pauses_cyclic_gc_and_restores_it(capsys, monkeypatch, enabled, fail):
    # the collector is off while the command runs and back as it was after,
    # whether the command's checks pass, fail or it raises
    seen = []
    run_faces = cli.run_faces

    def observing(n):
        seen.append(gc.isenabled())
        results, checks = run_faces(n)
        if fail:
            cli.check(checks, "forced", 0, 1)
        return results, checks

    monkeypatch.setattr(cli, "run_faces", observing)
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert run_cli(capsys, "faces", "--n", "5")[0] == int(fail)
        assert gc.isenabled() is enabled
        monkeypatch.setattr(cli, "run_faces", lambda n: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            cli.main(["faces", "--n", "5"])
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False]


@pytest.mark.parametrize(
    "command",
    [
        ("verify", "--n-max", "{n}"),
        ("betti", "--n", "{n}", "--k", "4", "--characters", "1"),
        ("morse", "--n", "{n}", "--k", "4"),
        ("orbits", "--n", "{n}"),
        ("faces", "--n", "{n}"),
    ],
)
def test_cyclic_garbage_does_not_grow_with_n(capsys, command):
    # what a command leaves to the cyclic collector is the same at n = 5 and
    # n = 6: the package's own work makes no reference cycles, so pausing
    # the collector during a command keeps no garbage that grows with the job
    def garbage(n):
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            run_cli(capsys, *(arg.format(n=n) for arg in command), "--format", "json")
            gc.collect()
            return len(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()

    assert garbage(5) == garbage(6)


def test_verify_checks_each_boundary_pair_once(capsys, monkeypatch):
    # every consecutive pair of every complex is certified: checked whole in
    # the sphere C(n, n), the first complex of its n, or a restriction of a
    # pair that the complex before certified: each matrix holds, at each of
    # its cells, the column of that complex's matrix of the same degree at
    # the same cell, with the same rows, by key, and signs.  No pair is
    # checked twice, and no complex below a sphere checks one
    monkeypatch.setattr(complexes, "_held", {})
    check = complexes.assert_boundary_squared_zero
    checked = {}  # (id lower, id upper) -> the place in got of the complex that checked it

    def recording(mats):
        assert len(mats) == 2
        pair = (id(mats[0]), id(mats[1]))
        assert pair not in checked
        checked[pair] = len(got) - 1
        check(mats)

    monkeypatch.setattr(complexes, "assert_boundary_squared_zero", recording)
    got = []
    get_complex = cli.get_complex

    def keeping(n, k_cut, cache_dir):
        got.append(get_complex(n, k_cut, cache_dir))
        return got[-1]

    monkeypatch.setattr(cli, "get_complex", keeping)
    code, _ = run_cli(capsys, "verify", "--n-max", "6", "--format", "json")
    assert code == 0
    assert [(cx.n, cx.k_cut) for cx in got] == [(n, k) for n in (4, 5, 6) for k in range(n, 2, -1)]

    def restricts(cx, m, prev, m0):
        d = m.degree
        return all(
            [cx.cells[d - 1][r] for r in m.rows[j]]
            == [prev.cells[d - 1][r] for r in m0.rows[prev.index[d][cell]]]
            and m.signs[j] == m0.signs[prev.index[d][cell]]
            for j, cell in enumerate(cx.cells[d])
        )

    certified = set()
    ways = []
    for i, (prev, cx) in enumerate(zip([None] + got, got)):
        mats = cx.matrices()
        for d in range(2, cx.top_dim + 1):
            a, b = mats[d - 2], mats[d - 1]
            if checked.get((id(a), id(b))) == i:
                assert cx.k_cut == cx.n, (cx.n, cx.k_cut, d)
                way = "whole"
            else:
                assert prev.n == cx.n, (cx.n, cx.k_cut, d)
                a0, b0 = prev.matrices()[d - 2 : d]
                assert (id(a0), id(b0)) in certified, (cx.n, cx.k_cut, d)
                assert restricts(cx, a, prev, a0) and restricts(cx, b, prev, b0), (cx.n, cx.k_cut, d)
                way = "held" if a is a0 and b is b0 else "restricted"
            certified.add((id(a), id(b)))
            ways.append(way)
    assert set(ways) == {"whole", "held", "restricted"}
    # the pairs of the spheres alone, fewer than the pairs of every complex
    assert len(checked) == sum(n - 2 for n in (4, 5, 6)) < len(ways)


@pytest.mark.parametrize("n_max", [6, pytest.param(7, marks=pytest.mark.slow)])
def test_clearing_leaves_a_zero_column_only_in_each_sphere_top_degree(capsys, monkeypatch, n_max):
    # swept from the sphere C(n, n) down, each elimination is cleared by the
    # degree above it to as many columns as its rank, because H(C(n, k)) lies
    # in degree k - 1 alone.  Only the top degree of each sphere, with nothing
    # above it, keeps one column that reduces to zero, once per modulus
    monkeypatch.setattr(complexes, "_held", {})
    jobs = []
    get_complex = cli.get_complex

    def tracking(n, k_cut, cache_dir):
        jobs.append((n, k_cut))
        return get_complex(n, k_cut, cache_dir)

    zero = []  # (job, modulus, ncols, columns processed minus rank) per elimination
    eliminate = linalg.eliminate

    def counting(nrows, ncols, columns, m, cleared=None):
        result, pivots = eliminate(nrows, ncols, columns, m, cleared)
        rank = result.rank if m == 0 else result[2]  # the ranks over F_p agree
        zero.append((jobs[-1], m, ncols, ncols - sum(cleared or b"") - rank))
        return result, pivots

    monkeypatch.setattr(cli, "get_complex", tracking)
    monkeypatch.setattr(linalg, "eliminate", counting)
    assert run_cli(capsys, "verify", "--n-max", str(n_max), "--format", "json")[0] == 0
    assert len(zero) == {6: 18, 7: 38}[n_max]
    assert [entry for entry in zero if entry[3]] == [
        ((n, n), m, faces.face_count(n, n - 1), 1)
        for n in range(4, n_max + 1)
        for m in ((0,) if n <= 6 else (0, 30))
    ]


def test_budgeted_verify_keeps_the_first_cut_of_n7_alone(capsys, monkeypatch):
    # under --max-cells 2500 the sweep of n = 7 skips C(7, 7) .. C(7, 4), so
    # its first kept complex, C(7, 3), finds nothing of n = 7 held and
    # assembles every column, as each sphere does, while every cut below a
    # sphere assembles none.  Each kept job reports as in the unbudgeted run
    monkeypatch.setattr(complexes, "_held", {})
    argv = ("verify", "--n-max", "7", "--format", "json")
    code, out = run_cli(capsys, *argv)
    assert code == 0
    unbudgeted = json.loads(out)["results"]
    assembling, assembled = [], {}
    facets, matrices = faces.FaceLattice.facets, complexes.boundary_matrices

    def recording_facets(lattice, key):
        if assembling:
            assembling[-1].append(key)
        return facets(lattice, key)

    def recording_matrices(cx, signs=None):
        held_n = {key[0] for key in complexes._held}
        assembling.append([])
        try:
            return matrices(cx, signs)
        finally:
            assembled[(cx.n, cx.k_cut)] = (held_n, assembling.pop())

    monkeypatch.setattr(faces.FaceLattice, "facets", recording_facets)
    monkeypatch.setattr(complexes, "boundary_matrices", recording_matrices)
    code, out = run_cli(capsys, *argv, "--max-cells", "2500")
    assert code == 0
    results = json.loads(out)["results"]
    kept = [(r["n"], r["k"]) for r in results["betti"] if r["status"] == "ok"]
    assert kept == [(n, k) for n in range(4, 7) for k in range(3, n + 1)] + [(7, 3)]
    assert list(assembled) == [(n, k) for n in range(4, 7) for k in range(n, 2, -1)] + [(7, 3)]
    assert assembled[(7, 3)][0] == {6}
    for (n, k), (_, calls) in assembled.items():
        cx = build_complex(n, k)
        every_column = sorted(key for cells in cx.cells[1:] for key in cells)
        first = k == n or (n, k) == (7, 3)  # the first complex of its n
        assert sorted(calls) == (every_column if first else []), (n, k)
    for section in ("betti", "morse"):
        want = {(r["n"], r["k"]): r for r in unbudgeted[section]}
        for r in results[section]:
            if (r["n"], r["k"]) in kept:
                assert r == want[(r["n"], r["k"])], (section, r["n"], r["k"])
