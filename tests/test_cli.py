"""End-to-end tests of the command-line harness via ``main``."""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import pytest

from rankinglab import (
    BipartiteInstance,
    CapExceeded,
    cli,
    fileformat,
    gen_random,
    lemma3_chain,
    parse_instance,
    probability,
    rng,
    serialize_instance,
    suites,
)
from rankinglab import graph, probability
from rankinglab.cli import main
from rankinglab.reporting import CSV_HEADER, fmt_cell

from .conftest import DATA
from .oracles import _gamma_ranking, bipartite_max_matching, gen_gamma_family

EXAMPLE = str(DATA / "example6.obm")

RUN_GOLDEN = (
    "matched u1 v1\n"
    "matched u2 v2\n"
    "matched u3 v4\n"
    "matched u4 v3\n"
    "matched u5 v5\n"
    "size 5\n"
)


def write_small(tmp_path):
    p = tmp_path / "small.obm"
    p.write_text("offline v1 v2\nonline u1 u2\nedge u1 v1\nedge u1 v2\nedge u2 v1\n")
    return str(p)


class TestRun:
    def test_golden_output(self, capsys):
        assert main(["run", EXAMPLE]) == 0
        assert capsys.readouterr().out == RUN_GOLDEN

    def test_byte_stable_across_invocations(self, capsys):
        main(["run", EXAMPLE])
        first = capsys.readouterr().out
        main(["run", EXAMPLE])
        assert capsys.readouterr().out == first

    def test_missing_file(self, capsys):
        assert main(["run", "/no/such/file.obm"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_malformed_file(self, tmp_path, capsys):
        p = tmp_path / "bad.obm"
        p.write_text("offline v1\nonline u1\nedge u1 v9\n")
        assert main(["run", str(p)]) == 2
        err = capsys.readouterr().err
        assert "line 3" in err and "unknown offline vertex" in err


def _read_text_outcome(path):
    """What parsing ``Path(path).read_text`` gives: the instance, or the error's type and text."""
    try:
        return parse_instance(Path(path).read_text(encoding="utf-8"))
    except Exception as e:  # noqa: BLE001 - the outcome is compared, not handled
        return type(e), str(e)


class TestLoad:
    """``cli._load`` reads a file's bytes once, as ``read_text`` would decode them."""

    EX = (DATA / "example6.obm").read_bytes()
    FILES = {
        "lf": EX,
        "crlf": EX.replace(b"\n", b"\r\n"),
        "lone cr": EX.replace(b"\n", b"\r"),
        "mixed": EX.replace(b"\n", b"\r\n", 3).replace(b"\n", b"\r", 4),
        "crlf split by a lone cr": EX.replace(b"\n", b"\r\r\n", 2),
        "last line ends in cr": EX[:-1] + b"\r",
        "leading bom": b"\xef\xbb\xbf" + EX,
        "bom after a blank line": b"\r\n\xef\xbb\xbf" + EX,
        "invalid byte early": EX[:10] + b"\xff" + EX[10:],
        "invalid after byte 8192": b"#" + b"x" * 9000 + b"\r\n" + EX + b"\xc3",
        "sequence across byte 8192": b"#" + b"x" * 8190 + b"\xe2\x82\n" + EX,
        "truncated at the end": EX + b"\xe2\x82",
        "non-ascii comment": b"# \xc3\xa9t\xc3\xa9\r\n" + EX,
        "empty": b"",
    }

    @pytest.mark.parametrize("name", FILES)
    def test_same_outcome_as_read_text(self, name, tmp_path, monkeypatch):
        path, texts = tmp_path / "f.obm", []
        path.write_bytes(self.FILES[name])
        want = _read_text_outcome(path)
        monkeypatch.setattr(cli, "parse_instance", lambda t: texts.append(t) or parse_instance(t))
        try:
            got = cli._load(str(path))
        except Exception as e:  # noqa: BLE001
            got = type(e), str(e)
        assert got == want
        # the parser is given read_text's very text, so a CRLF or CR file is as
        # plain to it as the LF file it came from
        try:
            assert texts == [path.read_text(encoding="utf-8")]
        except UnicodeDecodeError:
            assert texts == []
        if name in ("lf", "crlf", "lone cr", "mixed"):
            assert got == parse_instance(self.EX.decode())

    @pytest.mark.parametrize("path", ["./x//y.obm", "x/../x//y.obm", "."])
    def test_same_os_error_as_read_text(self, path, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "x").mkdir()
        kind, text = _read_text_outcome(path)
        with pytest.raises(OSError) as got:
            cli._load(path)
        assert (type(got.value), str(got.value)) == (kind, text)
        assert issubclass(kind, OSError) and "//" not in text

    @pytest.mark.parametrize("name", FILES)
    def test_main_reads_every_file_alike(self, name, tmp_path, capsys):
        path, plain = tmp_path / "f.obm", tmp_path / "plain.obm"
        path.write_bytes(self.FILES[name])
        want = _read_text_outcome(path)
        if not isinstance(want, tuple):  # what read_text gave, with LF line ends only
            plain.write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
        for tail in (["run"], ["check", "--suite", "lemma9", "--count", "20", "--seed", "4"]):
            rc = main([tail[0], str(path), *tail[1:]])
            got = rc, *capsys.readouterr()
            if isinstance(want, tuple):
                assert got == (2, "", f"error: {want[1]}\n")
            else:
                assert got == (main([tail[0], str(plain), *tail[1:]]), *capsys.readouterr())
                assert rc == 0

    @pytest.mark.parametrize("path", ["./x//y.obm", "x"])
    def test_main_reports_os_errors_alike(self, path, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "x").mkdir()
        _, text = _read_text_outcome(path)
        for command in ("run", "exact", "mc"):
            argv = [command, path, *(["--samples", "5"] if command == "mc" else [])]
            assert main(argv) == 2
            assert capsys.readouterr() == ("", f"error: {text}\n")


class TestExact:
    def test_small_row(self, tmp_path, capsys):
        assert main(["exact", write_small(tmp_path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == CSV_HEADER
        cells = out[1].split(",")
        assert cells[1] == "2"
        assert cells[2] == "exact"
        assert cells[3] == "3/2"
        assert cells[4] == "3/4"
        assert cells[5] == "5/9"
        assert cells[6] == "pass"
        assert cells[7] == ""

    def test_cap_exceeded(self, capsys):
        assert main(["exact", EXAMPLE, "--cap", "3"]) == 2
        assert "exceeds the enumeration cap" in capsys.readouterr().err

    def test_cap_exceeded_is_a_value_error(self, capsys):
        # an instance above the cap is an argument out of range: main lists ValueError alone
        assert issubclass(CapExceeded, ValueError)
        assert main(["exact", EXAMPLE, "--cap", "3"]) == 2
        assert capsys.readouterr() == ("", "error: 6 ranked vertices exceeds the enumeration "
                                       "cap 3; use mc_expected_size for instances this large\n")

    def test_fingerprints_the_instance_once(self, monkeypatch, capsys):
        real = fileformat.fingerprint
        calls = []

        def counting(inst):
            calls.append(inst)
            return real(inst)

        for module in (fileformat, probability, cli):
            if hasattr(module, "fingerprint"):
                monkeypatch.setattr(module, "fingerprint", counting)
        assert main(["exact", EXAMPLE]) == 0
        assert len(calls) == 1
        assert capsys.readouterr().out.splitlines()[1].startswith(real(calls[0]) + ",")


class TestMc:
    def test_row_shape(self, tmp_path, capsys):
        path = write_small(tmp_path)
        assert main(["mc", path, "--samples", "400", "--seed", "5"]) == 0
        cap = capsys.readouterr()
        out = cap.out.splitlines()
        assert out[0] == CSV_HEADER
        cells = out[1].split(",")
        assert cells[2] == "mc"
        assert cells[7] == "5"
        assert 1.0 <= float(cells[3]) <= 2.0
        assert "# stddev" in cap.err

    def test_same_seed_same_estimate(self, tmp_path, capsys):
        path = write_small(tmp_path)
        main(["mc", path, "--samples", "300", "--seed", "9"])
        first = capsys.readouterr().out.splitlines()[1].split(",")[3]
        main(["mc", path, "--samples", "300", "--seed", "9"])
        second = capsys.readouterr().out.splitlines()[1].split(",")[3]
        assert first == second

    def test_env_seed_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("RANKINGLAB_SEED", "424242")
        path = write_small(tmp_path)
        assert main(["mc", path, "--samples", "50"]) == 0
        cells = capsys.readouterr().out.splitlines()[1].split(",")
        assert cells[7] == "424242"

    def test_env_seed_not_an_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("RANKINGLAB_SEED", "abc")
        assert main(["bound", "--n", "3"]) == 2
        cap = capsys.readouterr()
        assert cap.out == ""
        assert cap.err == "error: RANKINGLAB_SEED must be an integer, got 'abc'\n"

    def test_env_seed_read_on_every_call(self, tmp_path, capsys, monkeypatch):
        path = write_small(tmp_path)
        for seed in ("11", "22"):
            monkeypatch.setenv("RANKINGLAB_SEED", seed)
            assert main(["mc", path, "--samples", "20"]) == 0
            cells = capsys.readouterr().out.splitlines()[1].split(",")
            assert cells[7] == seed

    def test_sparse_150_by_150(self, tmp_path, capsys):
        # the exhaustive matcher ran for minutes on graphs like this one
        inst = gen_random(150, 150, 0.1, 3)
        p = tmp_path / "sparse.obm"
        p.write_text(serialize_instance(inst))
        assert main(["mc", str(p), "--samples", "50", "--seed", "1"]) == 0
        cells = capsys.readouterr().out.splitlines()[1].split(",")
        assert cells[1] == str(len(bipartite_max_matching(inst.graph)))
        assert int(cells[1]) > 0

    def test_empty_graph_row(self, tmp_path, capsys):
        p = tmp_path / "empty.obm"
        p.write_text("offline v1\nonline u1\n")
        assert main(["mc", str(p), "--samples", "10", "--seed", "1"]) == 0
        cells = capsys.readouterr().out.splitlines()[1].split(",")
        assert cells[1] == "0"
        assert cells[4] == "" and cells[5] == ""
        assert cells[6] == "pass"

    def write_triangle(self, tmp_path):
        """The upper-triangular 8 x 8 instance: u_i sees v_j for every j >= i."""
        lines = ["offline " + " ".join(f"v{i}" for i in range(1, 9))]
        lines.append("online " + " ".join(f"u{i}" for i in range(1, 9)))
        lines += [f"edge u{i} v{j}" for i in range(1, 9) for j in range(i, 9)]
        p = tmp_path / "tri8.obm"
        p.write_text("\n".join(lines) + "\n")
        return str(p)

    def test_noise_below_the_bound_is_inconclusive(self, tmp_path, capsys):
        # the exact ratio is 0.665151 >= bound 0.610256; two samples read 0.5625
        path = self.write_triangle(tmp_path)
        assert main(["mc", path, "--samples", "2", "--seed", "61"]) == 0
        cells = capsys.readouterr().out.splitlines()[1].split(",")
        assert cells[4:7] == ["0.5625", "0.610255656871", "inconclusive"]

    def test_far_below_the_bound_fails(self, tmp_path, capsys):
        # one sample has no spread, so its size of 4 < 8 * 0.610256 has no
        # error estimate to be judged by: the shortfall is inconclusive
        path = self.write_triangle(tmp_path)
        assert main(["mc", path, "--samples", "1", "--seed", "32"]) == 0
        cells = capsys.readouterr().out.splitlines()[1].split(",")
        assert cells[3:7] == ["4", "0.5", "0.610255656871", "inconclusive"]

    def test_shortfall_beyond_the_spread_fails(self, tmp_path, capsys, monkeypatch):
        # 8 * 0.610256 - 2 = 2.88 exceeds 4 standard errors, 4 * 0.5 / 10 = 0.2
        estimate = probability.McEstimate(mean=2.0, stddev=0.5, samples=100, seed=3)
        monkeypatch.setattr(cli, "mc_expected_size", lambda *args: estimate)
        path = self.write_triangle(tmp_path)
        assert main(["mc", path, "--samples", "100", "--seed", "3"]) == 0
        cells = capsys.readouterr().out.splitlines()[1].split(",")
        assert cells[3:8] == ["2", "0.25", "0.610255656871", "fail", "3"]

    def test_no_spread_is_never_a_failure(self, tmp_path, capsys):
        # the exact ratio 0.665151 meets the bound; one sample, or two equal
        # ones, can read far lower (seeds 32 and 110 among them) with no spread
        path = self.write_triangle(tmp_path)
        for samples in ("1", "2"):
            for seed in range(200):
                assert main(["mc", path, "--samples", samples, "--seed", str(seed)]) == 0
                verdict = capsys.readouterr().out.splitlines()[1].split(",")[6]
                assert verdict in ("pass", "inconclusive")

    def test_worked_example_passes(self, capsys):
        assert main(["mc", EXAMPLE, "--samples", "2000", "--seed", "7"]) == 0
        assert capsys.readouterr().out.splitlines()[1].split(",")[6] == "pass"


def dist_lines(argv, capsys):
    """The CSV row without its runtime cell, and the ``dist`` lines as (size, Fraction)."""
    assert main(argv) in (0, 1)
    header, row, *rest = capsys.readouterr().out.splitlines()
    assert header == CSV_HEADER
    dist = [line.split() for line in rest]
    assert all(word == "dist" for word, _, _ in dist)
    return row.rsplit(",", 1)[0], [(int(k), Fraction(p)) for _, k, p in dist]


class TestDist:
    def test_exact_golden(self, capsys):
        _, dist = dist_lines(["exact", EXAMPLE, "--dist"], capsys)
        assert dist == [(4, Fraction(2, 5)), (5, Fraction(3, 5))]

    def test_mc_golden(self, capsys):
        _, dist = dist_lines(["mc", EXAMPLE, "--samples", "300", "--seed", "2", "--dist"], capsys)
        assert dist == [(4, Fraction(19, 50)), (5, Fraction(31, 50))]

    def test_exact_sums_to_one_with_the_row_mean(self, tmp_path, capsys):
        path = tmp_path / "r.obm"
        path.write_text(serialize_instance(gen_random(7, 7, 0.3, 9)))
        row, dist = dist_lines(["exact", str(path), "--dist"], capsys)
        assert [k for k, _ in dist] == sorted(k for k, _ in dist) and len(dist) > 2
        assert sum(p for _, p in dist) == 1
        assert sum(k * p for k, p in dist) == Fraction(row.split(",")[3])

    @pytest.mark.parametrize("samples", ["1", "777"])
    def test_mc_counts_sum_to_the_samples_with_the_row_mean(self, samples, tmp_path, capsys):
        path = tmp_path / "r.obm"
        path.write_text(serialize_instance(gen_random(60, 50, 0.05, 3)))
        row, dist = dist_lines(["mc", str(path), "--samples", samples, "--seed", "4", "--dist"], capsys)
        counts = [p * int(samples) for _, p in dist]
        assert all(c.denominator == 1 for c in counts) and sum(counts) == int(samples)
        assert [k for k, _ in dist] == sorted(k for k, _ in dist)
        mean = sum(k * c for (k, _), c in zip(dist, counts)) / int(samples)
        assert fmt_cell(float(mean)) == row.split(",")[3]

    @pytest.mark.parametrize("flags", [[], ["--dist"]])
    def test_exact_runs_one_tally(self, flags, monkeypatch, capsys):
        real, calls = probability._layers, []
        monkeypatch.setattr(probability, "_layers", lambda *a: calls.append(a) or real(*a))
        dist_lines(["exact", EXAMPLE, *flags], capsys)
        assert len(calls) == 1

    @pytest.mark.parametrize("argv", [["exact", EXAMPLE], ["mc", EXAMPLE, "--samples", "300"]])
    def test_without_the_flag_nothing_changes(self, argv, capsys):
        row, dist = dist_lines(argv, capsys)
        assert dist == []
        assert dist_lines(argv + ["--dist"], capsys)[0] == row


class TestCheck:
    @pytest.mark.parametrize(
        "text, cases",
        [
            ("offline v1 v2\nonline\n", 3),
            ("offline\nonline u1 u2\n", 3),
            ("offline\nonline\n", 0),
        ],
    )
    @pytest.mark.parametrize("suite", ["lemma5", "lemma9"])
    def test_probe_suites_on_an_empty_party(self, tmp_path, capsys, suite, text, cases):
        p = tmp_path / "one_sided.obm"
        p.write_text(text)
        assert main(["check", str(p), "--suite", suite, "--count", "3", "--seed", "1"]) == 0
        assert capsys.readouterr().out == f"suite {suite}: {cases} cases, 0 failures\n"

    def test_random_suite_passes(self, capsys):
        rc = main(
            ["check", "--suite", "ranking-matching", "--count", "5",
             "--seed", "3", "--max-side", "3"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "suite ranking-matching: 5 cases, 0 failures" in out

    def test_notes_printed(self, capsys):
        assert main(["check", "--suite", "rank-move", "--count", "5", "--seed", "2"]) == 0
        assert capsys.readouterr().out == (
            "suite rank-move: 5 cases, 0 failures\n"
            "note moved_rank_holds = 9\n"
            "note original_rank_holds = 9\n"
            "note pairs = 9\n"
        )

    def test_file_suite(self, capsys):
        rc = main(["check", EXAMPLE, "--suite", "lemma7", "--count", "1", "--seed", "1"])
        assert rc == 0
        assert "0 failures" in capsys.readouterr().out

    def test_lemma3_decides_perfectness_before_the_cap(self, tmp_path, capsys):
        # nine ranked vertices exceed the cap of 8, but the file is not perfect
        path = str(tmp_path / "r97.obm")
        argv = ["gen", "random", "--offline", "9", "--online", "7",
                "--edge-prob", "0.4", "--seed", "5", "--out", path]
        assert main(argv) == 0
        with pytest.raises(CapExceeded):
            lemma3_chain(parse_instance(Path(path).read_text()))
        for f in (path, EXAMPLE):  # example6's v6 is isolated
            capsys.readouterr()
            assert main(["check", f, "--suite", "lemma3"]) == 2
            assert capsys.readouterr().err == (
                "error: instance has no perfect matching covering both parties\n"
            )

    def test_lemma3_decides_perfectness_once_per_file(self, tmp_path, monkeypatch, capsys):
        # a perfect file, one with no perfect matching, and a perfect one above the cap
        searches = []
        real = graph._max_matching_size
        monkeypatch.setattr(graph, "_max_matching_size", lambda *a: searches.append(a) or real(*a))
        files = []
        for n in (6, 9):
            files.append(str(tmp_path / f"p{n}.obm"))
            assert main(["gen", "perfect", "--n", str(n), "--seed", "3", "--out", files[-1]]) == 0
        capsys.readouterr()
        for f, rc, err in (
            (files[0], 0, ""),
            (EXAMPLE, 2, "error: instance has no perfect matching covering both parties\n"),
            (files[1], 2, "error: 9 ranked vertices exceeds the enumeration cap 8; "
                          "use mc_expected_size for instances this large\n"),
        ):
            searches.clear()
            assert main(["check", f, "--suite", "lemma3"]) == rc
            assert capsys.readouterr().err == err
            assert len(searches) == 1, f

    def test_ratio_suite_writes_csv(self, tmp_path, capsys):
        out_csv = tmp_path / "rows.csv"
        rc = main(
            ["check", "--suite", "theorem4", "--count", "3", "--seed", "2",
             "--max-side", "4", "--out", str(out_csv)]
        )
        assert rc == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[2] == "exact" and cells[6] == "pass"

    def test_out_bytes(self, tmp_path, capsys):
        # the header alone for no rows, and every line ending in a newline, the last one too
        out = tmp_path / "rows.csv"
        argv = ["check", "--suite", "theorem4", "--seed", "1", "--out", str(out)]
        assert main([*argv, "--count", "0"]) == 0
        assert out.read_bytes() == (CSV_HEADER + "\n").encode()
        assert main([*argv, "--count", "2"]) == 0
        lines = out.read_bytes().decode().split("\n")
        assert lines[0] == CSV_HEADER and len(lines) == 4 and lines[3] == ""
        assert all(line.count(",") == CSV_HEADER.count(",") for line in lines[1:3])

    def test_ratio_suite_row_equals_exact_row(self, tmp_path, capsys):
        out_csv = tmp_path / "rows.csv"
        assert main(["check", EXAMPLE, "--suite", "theorem6", "--out", str(out_csv)]) == 0
        assert main(["exact", EXAMPLE]) == 0
        exact_lines = capsys.readouterr().out.splitlines()[-2:]
        suite_lines = out_csv.read_text().splitlines()
        assert suite_lines[0] == exact_lines[0] == CSV_HEADER
        assert len(suite_lines) == 2
        suite_row, exact_row = suite_lines[1].split(","), exact_lines[1].split(",")
        runtime = CSV_HEADER.split(",").index("runtime_ms")
        del suite_row[runtime], exact_row[runtime]
        assert suite_row == exact_row

    def test_out_rejected_for_non_ratio_suite(self, tmp_path, capsys):
        rc = main(
            ["check", "--suite", "lemma3", "--count", "1", "--seed", "1",
             "--out", str(tmp_path / "x.csv")]
        )
        assert rc == 2
        assert "produces no CSV rows" in capsys.readouterr().err

    def test_out_refused_before_the_suite_runs(self, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the suite ran")

        monkeypatch.setitem(suites.SUITES, "ranking-matching", never)
        out = tmp_path / "x.csv"
        argv = ["check", "--suite", "ranking-matching", "--max-side", "80", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: suite 'ranking-matching' produces no CSV rows\n"
        )
        assert not out.exists()
        # the argument and file checks still come first
        assert main([*argv, "--count", "-1"]) == 2
        assert capsys.readouterr().err == "error: --count must be at least 0, got -1\n"
        assert main(["check", str(tmp_path / "missing.obm"), *argv[1:]]) == 2
        assert "missing.obm" in capsys.readouterr().err

    def test_unwritable_out_refused_before_the_suite_runs(self, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the suite ran")

        monkeypatch.setitem(suites.SUITES, "theorem4", never)
        out = tmp_path / "nonexistent" / "x.csv"
        argv = ["check", "--suite", "theorem4", "--count", "3000", "--seed", "1", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{out}'\n"
        )

    def test_existing_out_kept_when_the_suite_fails(self, tmp_path, capsys, monkeypatch):
        def failing(*args, **kwargs):
            raise ValueError("bad input")

        monkeypatch.setitem(suites.SUITES, "theorem4", failing)
        out = tmp_path / "x.csv"
        out.write_text("earlier rows\n", encoding="utf-8")
        assert main(["check", "--suite", "theorem4", "--count", "3", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: bad input\n"
        assert out.read_text(encoding="utf-8") == "earlier rows\n"

    def test_unknown_suite_is_usage_error(self, capsys):
        assert main(["check", "--suite", "nope", "--count", "1"]) == 2

    def test_explicit_random_flag(self, capsys):
        rc = main(
            ["check", "--random", "--suite", "lemma9", "--count", "4",
             "--seed", "6", "--max-side", "3"]
        )
        assert rc == 0
        assert "lemma9: 4 cases, 0 failures" in capsys.readouterr().out

    def test_random_flag_with_file_rejected(self, capsys):
        rc = main(["check", EXAMPLE, "--random", "--suite", "lemma9", "--count", "1"])
        assert rc == 2
        assert "not both" in capsys.readouterr().err

    def test_negative_count_rejected(self, capsys):
        assert main(["check", "--suite", "lemma9", "--count", "-5"]) == 2
        cap = capsys.readouterr()
        assert "cases" not in cap.out
        assert "error: --count must be at least 0, got -5" in cap.err

    def test_max_side_below_one_rejected(self, capsys):
        assert main(["check", "--suite", "lemma9", "--count", "1", "--max-side", "0"]) == 2
        assert "error: --max-side must be at least 1, got 0" in capsys.readouterr().err

    def test_max_side_above_two_to_the_64_rejected(self, capsys, monkeypatch):
        # a draw budget turns the old endless rejection loop into a failure
        draws = []
        real = rng.SplitMix64.next_u64

        def budgeted(self):
            draws.append(None)
            if len(draws) > 1000:
                raise RuntimeError("the suite kept drawing")
            return real(self)

        monkeypatch.setattr(rng.SplitMix64, "next_u64", budgeted)
        argv = ["check", "--suite", "lemma9", "--count", "1", "--max-side", str(2**64 + 1)]
        assert main(argv) == 2
        assert f"error: --max-side must be at most {cli.MAX_SIDE}" in capsys.readouterr().err

    @pytest.mark.parametrize("side", [cli.MAX_SIDE + 1, 2**64, 2**64 + 1])
    def test_max_side_above_the_ceiling_rejected(self, side, capsys, monkeypatch):
        def no_draws(self):
            raise RuntimeError("the suite drew")

        monkeypatch.setattr(rng.SplitMix64, "next_u64", no_draws)
        given = [EXAMPLE] if side > 2**64 else []  # a file run: no draw could refuse the bound
        argv = ["check", *given, "--suite", "lemma9", "--count", "1", "--max-side", str(side)]
        assert main(argv) == 2
        cap = capsys.readouterr()
        assert cap.out == ""
        assert cap.err == f"error: --max-side must be at most {cli.MAX_SIDE}, got {side}\n"

    @pytest.mark.parametrize("argv", [[], ["--max-side", str(cli.MAX_SIDE)]])
    def test_max_side_default_and_ceiling_run(self, argv, capsys):
        assert main(["check", "--suite", "lemma9", "--count", "1", "--seed", "1", *argv]) == 0
        assert "lemma9: 1 cases, 0 failures" in capsys.readouterr().out


class TestBound:
    def test_exact_values(self, capsys):
        assert main(["bound", "--n", "1", "--exact"]) == 0
        assert capsys.readouterr().out == "1/2\n"
        main(["bound", "--n", "2", "--exact"])
        assert capsys.readouterr().out == "5/9\n"

    def test_float_value(self, capsys):
        main(["bound", "--n", "1"])
        assert capsys.readouterr().out == "0.5\n"

    def test_limit_gap_line(self, capsys):
        main(["bound", "--n", "100", "--limit-gap"])
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("limit_gap ")
        assert float(lines[1].split()[1]) < 0.01

    def test_bad_n(self, capsys):
        assert main(["bound", "--n", "0"]) == 2

    def test_exact_at_the_print_limit(self, capsys):
        assert main(["bound", "--n", "1370", "--exact"]) == 0
        p, q = capsys.readouterr().out.strip().split("/")
        assert Fraction(int(p), int(q)) == probability.competitive_bound_exact(1370)

    @pytest.mark.parametrize("n", [1371, 1_000_000])
    def test_exact_beyond_the_print_limit(self, n, capsys, monkeypatch):
        def not_computed(n):
            raise AssertionError("the bound was computed before the size check")

        monkeypatch.setattr(cli, "competitive_bound_exact", not_computed)
        assert main(["bound", "--n", str(n), "--exact"]) == 2
        cap = capsys.readouterr()
        assert cap.out == ""
        assert cap.err == (
            "error: --exact prints n up to 1370, the interpreter's limit of 4300 "
            "digits per integer\n"
        )


class TestGamma:
    def test_size_one_is_exactly_one(self, capsys):
        assert main(["gamma", "--n", "1"]) == 0
        assert capsys.readouterr().out == "1\n"

    def test_unsupported_size(self, capsys):
        assert main(["gamma", "--n", "5"]) == 2


class TestGen:
    def test_random_to_stdout_parses(self, capsys):
        assert main(
            ["gen", "random", "--offline", "3", "--online", "3",
             "--edge-prob", "0.5", "--seed", "4"]
        ) == 0
        inst = parse_instance(capsys.readouterr().out)
        assert len(inst.ranking) == 3 and len(inst.arrival) == 3

    def test_random_deterministic(self, capsys):
        argv = ["gen", "random", "--offline", "3", "--online", "3",
                "--edge-prob", "0.5", "--seed", "4"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first

    def test_random_to_file(self, tmp_path, capsys):
        out = tmp_path / "r.obm"
        main(["gen", "random", "--offline", "2", "--online", "2",
              "--edge-prob", "1.0", "--seed", "1", "--out", str(out)])
        assert len(parse_instance(out.read_text()).graph) == 4

    def test_perfect_has_planted_comments(self, capsys):
        assert main(["gen", "perfect", "--n", "3", "--seed", "8"]) == 0
        text = capsys.readouterr().out
        assert text.startswith("# planted perfect matching:\n")
        pairs = [
            tuple(line.split()[2:4])
            for line in text.splitlines()
            if line.startswith("# pair ")
        ]
        assert len(pairs) == 3
        inst = parse_instance(text)
        from .oracles import edge, is_matching, vertices

        planted = frozenset(edge(u, v) for u, v in pairs)
        assert is_matching(planted) and planted <= inst.graph
        assert vertices(planted) == inst.offline | inst.online

    def test_perfect_pairs_print_arrival_first_in_string_order(self, capsys):
        # the header lists (arrival, ranked) pairs sorted as strings: u10 before u2
        assert main(["gen", "perfect", "--n", "12", "--seed", "8"]) == 0
        lines = [x for x in capsys.readouterr().out.splitlines() if x.startswith("# pair ")]
        assert lines == [f"# pair u{k} v{k}" for k in sorted(range(1, 13), key=str)]

    def test_gamma_writes_family(self, tmp_path, capsys):
        out_dir = tmp_path / "fam"
        assert main(["gen", "gamma", "--n", "1", "--out-dir", str(out_dir)]) == 0
        assert "wrote 3 instances" in capsys.readouterr().out
        files = sorted(out_dir.iterdir())
        assert [f.name for f in files] == ["g0000.obm", "g0001.obm", "g0002.obm"]
        for f in files:
            parse_instance(f.read_text())

    @pytest.mark.parametrize("n", [1, 2])
    def test_gamma_files_are_the_named_family(self, tmp_path, capsys, n):
        # the named graphs through the validating constructor, first arrival order
        assert main(["gen", "gamma", "--n", str(n), "--out-dir", str(tmp_path)]) == 0
        named = [
            serialize_instance(BipartiteInstance(g, _gamma_ranking(g), arrivals[0]))
            for g, arrivals in gen_gamma_family(n)
        ]
        files = sorted(tmp_path.iterdir())
        assert [f.name for f in files] == [f"g{k:04d}.obm" for k in range(len(named))]
        assert [f.read_text(encoding="utf-8") for f in files] == named

    @pytest.mark.parametrize("n", ["0", "3"])
    def test_gamma_rejected_size_leaves_no_directory(self, tmp_path, capsys, n):
        out_dir = tmp_path / "gx" / "sub"
        assert main(["gen", "gamma", "--n", n, "--out-dir", str(out_dir)]) == 2
        assert not (tmp_path / "gx").exists()


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert main([]) == 2

    def test_missing_required_flag(self, capsys):
        assert main(["bound"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "Subcommands" not in capsys.readouterr().err
