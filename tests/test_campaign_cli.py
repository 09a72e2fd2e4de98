"""Tests for the campaign runner and the telechat CLI."""

import pytest

from repro.api import CampaignPlan, Session
from repro.pipeline.campaign import CampaignCell, CampaignReport
from repro.pipeline.cli import build_parser, main
from repro.tools.diy import DiyConfig


@pytest.fixture(scope="module")
def small_report():
    """A tiny but real campaign: LB under rc11 on two contrasting arches."""
    config = DiyConfig(
        shapes=("LB",),
        orders=("rlx",),
        fences=(None,),
        deps=("po", "ctrl2"),
        variants=("load-store",),
    )
    return Session().run(CampaignPlan(
        config=config,
        arches=("aarch64", "armv7", "x86_64", "mips64"),
        opts=("-O1", "-O2"),
        compilers=("llvm", "gcc"),
        source_model="rc11",
    ))


class TestCampaign:
    def test_counts_shape(self, small_report):
        """Positive differences on Armv8/Armv7, zero on x86/MIPS."""
        assert small_report.total_positive("aarch64") > 0
        assert small_report.total_positive("armv7") > 0
        assert small_report.total_positive("x86_64") == 0
        assert small_report.total_positive("mips64") == 0

    def test_gcc_armv7_o1_extra_positives(self, small_report):
        """The §IV-D quirk: gcc -O1 on Armv7 sees MORE positives than
        clang -O1 (the deleted control dependency)."""
        gcc_o1 = small_report.cell("armv7", "-O1", "gcc").positive
        clang_o1 = small_report.cell("armv7", "-O1", "llvm").positive
        assert gcc_o1 > clang_o1

    def test_gcc_armv7_masked_at_o2(self, small_report):
        gcc_o1 = small_report.cell("armv7", "-O1", "gcc").positive
        gcc_o2 = small_report.cell("armv7", "-O2", "gcc").positive
        assert gcc_o2 < gcc_o1

    def test_negative_differences_on_strong_targets(self):
        """MIPS's SYNC-bracketed atomics forbid even the SB outcome the
        source model allows; x86 loses the LB outcome permitted by
        rc11+lb.  Both show up as negative differences."""
        config = DiyConfig(shapes=("SB", "LB"), orders=("rlx",),
                           fences=(None,), deps=("po",),
                           variants=("load-store",))
        report = Session().run(CampaignPlan(
            config=config, arches=("mips64", "x86_64"), opts=("-O2",),
            compilers=("llvm",), source_model="rc11+lb",
        ))
        assert report.total_negative("mips64") > 0
        assert report.total_negative("x86_64") > 0
        assert report.total_positive() == 0

    def test_positives_recorded_for_drilldown(self, small_report):
        assert small_report.positives
        test, arch, opt, compiler = small_report.positives[0]
        assert arch in ("aarch64", "armv7")

    def test_table_rendering(self, small_report):
        table = small_report.table()
        assert "Armv8 AArch64" in table
        assert "+ve" in table and "-ve" in table
        assert "clang/gcc" in table

    def test_rc11_lb_kills_positives(self):
        """Claim 4, at campaign scale."""
        config = DiyConfig(shapes=("LB",), orders=("rlx",), fences=(None,),
                           deps=("po",), variants=("load-store",))
        report = Session().run(CampaignPlan(
            config=config, arches=("aarch64", "ppc64"), opts=("-O2",),
            compilers=("llvm",), source_model="rc11+lb",
        ))
        assert report.total_positive() == 0

    def test_cell_records(self):
        cell = CampaignCell()
        for verdict in ("positive", "negative", "equal", "ub-masked"):
            cell.record(verdict)
        assert cell.total == 4 and cell.positive == 1 and cell.ub_masked == 1

    def test_clang_og_skipped(self, small_report):
        """clang has no -Og (the dashes in Table IV)."""
        assert ("aarch64", "-Og", "llvm") not in small_report.cells


class TestCli:
    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["examples"])
        assert args.command == "examples"

    def test_examples_smoketest(self, capsys):
        assert main(["examples"]) == 0
        out = capsys.readouterr().out
        assert "positive" in out and "rc11+lb" in out

    def test_models_listing(self, capsys):
        assert main(["models"]) == 0
        assert "rc11" in capsys.readouterr().out

    def test_shapes_listing(self, capsys):
        assert main(["shapes"]) == 0
        assert "LB" in capsys.readouterr().out

    def test_test_subcommand(self, tmp_path, capsys):
        from repro.papertests import FIG7_SOURCE

        path = tmp_path / "lb.litmus.c"
        path.write_text(FIG7_SOURCE)
        # exit code 1 = bug found (the LB positive difference)
        assert main(["test", str(path), "--arch", "aarch64"]) == 1
        assert main(["test", str(path), "--arch", "aarch64",
                     "--cmem", "rc11+lb"]) == 0

    def test_campaign_subcommand(self, capsys):
        assert main(["campaign", "--small", "--arch", "aarch64",
                     "--opt=-O2"]) == 0
        out = capsys.readouterr().out
        assert "Campaign under source model" in out
