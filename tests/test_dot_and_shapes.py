"""Tests for DOT execution rendering and the extended shape library."""

import pytest

from repro.compiler import make_profile
from repro.herd import execution_to_dot, simulate_c, simulation_to_dot
from repro.papertests import fig1_exchange, fig7_lb
from repro.toolchain import Toolchain
from repro.tools.diy import build_test, get_shape, shape_names


class TestDotRendering:
    def result(self):
        return simulate_c(fig7_lb(), "rc11", keep_executions=True)

    def interesting_execution(self):
        """An execution where some read observes a non-init write, so an
        rf edge is visible without drawing init events."""
        for execution, outcome in self.result().executions:
            if outcome.as_dict().get("P0:r0") == 1:
                return execution
        raise AssertionError("no rf-visible execution found")

    def test_single_execution_dot(self):
        dot = execution_to_dot(self.interesting_execution(), name="lb")
        assert dot.startswith("digraph lb {") and dot.endswith("}")
        assert 'label="po"' in dot and 'label="rf"' in dot

    def test_node_labels_are_herd_style(self):
        execution, _ = self.result().executions[0]
        dot = execution_to_dot(execution)
        assert "R(Rlx)[x]" in dot or "R(Rlx)[y]" in dot

    def test_init_hidden_by_default(self):
        execution, _ = self.result().executions[0]
        assert "INIT" not in execution_to_dot(execution)
        assert "INIT" in execution_to_dot(execution, include_init=True)

    def test_relation_filter(self):
        dot = execution_to_dot(self.interesting_execution(), relations=("rf",))
        assert 'label="rf"' in dot and 'label="po"' not in dot

    def test_simulation_clusters(self):
        result = simulate_c(fig1_exchange(), "rc11", keep_executions=True)
        dot = simulation_to_dot(result.executions, name="fig2")
        # one cluster per allowed execution, outcome as cluster label
        assert dot.count("subgraph cluster_") == len(result.executions)
        assert "y=2" in dot  # an outcome label

    def test_po_drawn_as_hasse_diagram(self):
        """The stored po is transitive; the drawing keeps only immediate
        successors (6 events per thread pair → 2+2 po edges, never 3+3)."""
        execution = self.interesting_execution()
        dot = execution_to_dot(execution)
        assert dot.count('label="po"') == 4


class TestExtendedShapes:
    def test_new_shapes_registered(self):
        names = shape_names()
        assert "ISA2" in names and "RWC" in names

    def test_isa2_verdicts(self):
        """ISA2 with acq/rel chain is forbidden by RC11; relaxed allowed
        on weak targets."""
        strong = build_test(get_shape("ISA2"), "ar")
        assert not simulate_c(strong, "rc11").condition_holds(strong.condition)
        relaxed = build_test(get_shape("ISA2"), "rlx")
        result = Toolchain().run_tv(relaxed, make_profile("llvm", "-O2", "ppc64"))
        # relaxed ISA2 compiled for PPC shows the stale read (MP family)
        assert result.verdict in ("positive", "equal")

    def test_rwc_runs_everywhere(self):
        litmus = build_test(get_shape("RWC"), "rlx")
        result = simulate_c(litmus, "rc11")
        assert result.outcomes
        sc = simulate_c(litmus, "sc")
        assert sc.outcomes <= result.outcomes

    def test_rwc_sc_forbidden(self):
        litmus = build_test(get_shape("RWC"), "sc")
        assert not simulate_c(litmus, "rc11").condition_holds(litmus.condition)
