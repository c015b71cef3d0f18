"""End-to-end tests of the command-line interface."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def toy_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "toy"
    assert main(["generate", "toy", str(path)]) == 0
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_min_support_parses_counts_and_fractions(self):
        parser = build_parser()
        args = parser.parse_args(["mine", "d", "--min-support", "50"])
        assert args.min_support == 50 and isinstance(args.min_support, int)
        args = parser.parse_args(["mine", "d", "--min-support", "0.001"])
        assert args.min_support == pytest.approx(0.001)


class TestGenerate:
    def test_toy_dataset_written(self, toy_dir):
        assert (toy_dir / "nodes.csv").exists()
        assert (toy_dir / "edges.csv").exists()

    def test_financial_with_sizes(self, tmp_path, capsys):
        assert (
            main(
                [
                    "generate",
                    "financial",
                    str(tmp_path / "fin"),
                    "--nodes",
                    "300",
                    "--edges",
                    "1500",
                    "--seed",
                    "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "|V|=300" in out and "|E|=1500" in out

    def test_pokec_small(self, tmp_path, capsys):
        assert (
            main(
                [
                    "generate",
                    "pokec",
                    str(tmp_path / "pk"),
                    "--nodes",
                    "200",
                    "--edges",
                    "1000",
                ]
            )
            == 0
        )
        assert "|E|=1000" in capsys.readouterr().out

    def test_dblp_small(self, tmp_path, capsys):
        assert (
            main(
                [
                    "generate",
                    "dblp",
                    str(tmp_path / "db"),
                    "--nodes",
                    "300",
                    "--edges",
                    "2000",
                ]
            )
            == 0
        )
        assert "|E|=2000" in capsys.readouterr().out


class TestInfo:
    def test_prints_schema_and_homophily(self, toy_dir, capsys):
        assert main(["info", str(toy_dir)]) == 0
        out = capsys.readouterr().out
        assert "EDU (homophily)" in out
        assert "assortativity" in out


class TestMine:
    def test_prints_topk(self, toy_dir, capsys):
        assert (
            main(
                [
                    "mine",
                    str(toy_dir),
                    "-k",
                    "3",
                    "--min-support",
                    "2",
                    "--min-nhp",
                    "0.5",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Top-3 GRs by nhp" in out
        assert "nhp = 100.0%" in out

    def test_homophily_override(self, toy_dir, capsys):
        assert (
            main(
                [
                    "mine",
                    str(toy_dir),
                    "-k",
                    "3",
                    "--min-support",
                    "2",
                    "--homophily",
                    "RACE",
                ]
            )
            == 0
        )
        assert "Top-3" in capsys.readouterr().out

    def test_attribute_restriction(self, toy_dir, capsys):
        assert (
            main(["mine", str(toy_dir), "-k", "3", "--attributes", "SEX"]) == 0
        )
        out = capsys.readouterr().out
        assert "EDU" not in out.split("[")[0]  # no EDU conditions in results

    def test_workers_flag_mines_in_parallel(self, toy_dir, capsys):
        assert (
            main(
                [
                    "mine",
                    str(toy_dir),
                    "-k",
                    "3",
                    "--min-support",
                    "2",
                    "--min-nhp",
                    "0.5",
                    "--workers",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Top-3 GRs by nhp" in out

    def test_workers_flag_matches_serial_output(self, toy_dir, capsys):
        args = ["mine", str(toy_dir), "-k", "3", "--min-support", "2"]
        assert main(args) == 0
        serial_out = capsys.readouterr().out
        assert main(args + ["--workers", "2"]) == 0
        parallel_out = capsys.readouterr().out
        # Serial GRMiner(k) and the parallel miner both return the exact
        # Definition 5 top-k, so the ranked tables are identical.
        serial_table = [l for l in serial_out.splitlines() if "-->" in l]
        parallel_table = [l for l in parallel_out.splitlines() if "-->" in l]
        assert len(serial_table) == 3
        assert serial_table == parallel_table

    def test_sweep_grid_through_engine(self, toy_dir, capsys, tmp_path):
        import json

        out_path = tmp_path / "sweep.json"
        assert (
            main(
                [
                    "sweep",
                    str(toy_dir),
                    "-k",
                    "3",
                    "5",
                    "--min-nhp",
                    "0.4",
                    "0.6",
                    "--min-support",
                    "2",
                    "--json",
                    str(out_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Sweep of 4 queries" in out
        assert "1 store export(s)" in out  # mined on the engine's fleet
        payload = json.loads(out_path.read_text())
        assert len(payload["rows"]) == 4
        assert payload["engine"]["queries"] == 4
        # The block is the engine's private hub's aggregate stats.
        assert payload["engine"]["networks"] == 1
        assert payload["engine"]["pool_spawns"] == 1
        # Every grid point must equal the exact answer of the same params.
        from repro.core.miner import GRMiner
        from repro.io.loaders import load_network

        network = load_network(str(toy_dir))
        for row in payload["rows"]:
            exact = GRMiner(
                network,
                k=row["k"],
                min_support=row["minSupp"],
                min_score=row["minNhp"],
                rank_by=row["rank_by"],
                push_topk=False,
            ).mine()
            assert row["grs"] == min(len(exact), row["k"])

    def test_sweep_workers_flag(self, toy_dir, capsys):
        assert (
            main(
                [
                    "sweep",
                    str(toy_dir),
                    "-k",
                    "3",
                    "--min-support",
                    "2",
                    "--min-nhp",
                    "0.5",
                    "--workers",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Sweep of 1 queries" in out

    def test_rank_by_confidence(self, toy_dir, capsys):
        assert main(["mine", str(toy_dir), "--rank-by", "confidence"]) == 0
        assert "confidence" in capsys.readouterr().out


class TestCompare:
    def test_table2_layout(self, toy_dir, capsys):
        assert (
            main(["compare", str(toy_dir), "-k", "5", "--min-support", "2"]) == 0
        )
        out = capsys.readouterr().out
        assert "Ranked by nhp" in out and "Ranked by conf" in out


class TestHomophilyCommand:
    def test_suggests_edu(self, toy_dir, capsys):
        assert main(["homophily", str(toy_dir)]) == 0
        out = capsys.readouterr().out
        assert "suggested homophily attributes: EDU" in out


class TestHub:
    @pytest.fixture(scope="class")
    def fin_dir(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-hub") / "fin"
        assert main(
            ["generate", "financial", str(path), "--nodes", "60",
             "--edges", "300", "--seed", "7"]
        ) == 0
        return path

    def test_hub_sweeps_named_networks(self, toy_dir, fin_dir, capsys, tmp_path):
        import json

        out_path = tmp_path / "hub.json"
        assert (
            main(
                [
                    "hub",
                    "--register", f"toy={toy_dir}",
                    "--register", f"fin={fin_dir}",
                    "--mine", "toy",
                    "--mine", "fin",
                    "--mine", "toy",  # interleaved + repeated: cache hits
                    "-k", "3", "5",
                    "--min-support", "2",
                    "--min-nhp", "0.5",
                    "--json", str(out_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Hub sweep: 3 network visit(s)" in out
        payload = json.loads(out_path.read_text())
        assert len(payload["rows"]) == 6  # 3 visits x 2 grid points
        assert payload["hub"]["queries"] == 6
        # The second toy visit is answered entirely from the cache.
        revisit = [r for r in payload["rows"] if r["network"] == "toy"][2:]
        assert all(r["cached"] for r in revisit)
        assert payload["hub"]["cache_hits"] == 2

    def test_hub_disk_cache_warms_a_restart(self, toy_dir, capsys, tmp_path):
        cache_path = tmp_path / "hub-results.sqlite"
        argv = [
            "hub",
            "--register", f"toy={toy_dir}",
            "-k", "4",
            "--min-support", "2",
            "--min-nhp", "0.5",
            "--disk-cache", str(cache_path),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "1 cache hit(s)" not in cold
        assert main(argv) == 0  # a fresh process over the same file
        warm = capsys.readouterr().out
        assert "1 cache hit(s) across 1 queries" in warm

    def test_hub_duplicate_grid_points_report_cached_once(
        self, toy_dir, capsys, tmp_path
    ):
        """Regression: grid points canonicalizing to one key (absolute 2
        vs fraction 0.05 of 30 edges) are mined once; the duplicate row
        must report cached=True instead of double-counting the runtime."""
        import json

        out_path = tmp_path / "dup.json"
        assert (
            main(
                [
                    "hub",
                    "--register", f"toy={toy_dir}",
                    "-k", "3",
                    "--min-support", "2", "0.05",
                    "--min-nhp", "0.5",
                    "--json", str(out_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        rows = json.loads(out_path.read_text())["rows"]
        assert [row["cached"] for row in rows] == [False, True]
        assert rows[1]["time (s)"] == 0.0
        assert rows[0]["grs"] == rows[1]["grs"]

    def test_hub_rejects_malformed_registration(self, toy_dir):
        with pytest.raises(SystemExit):
            main(["hub", "--register", "nodirspec", "-k", "3"])

