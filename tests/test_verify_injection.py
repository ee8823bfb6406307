"""Failure-injection tests for the independent verifier.

The grid API makes shorts and pin theft unrepresentable, so these tests
corrupt the underlying arrays directly (white-box) and check the verifier
still catches every class of violation — the whole point of verifying
independently of the bookkeeping.
"""

import pytest

from repro.analysis import verify_routing
from repro.core import route_problem
from repro.netlist import Net, Pin, RoutingProblem
from repro.netlist.instances import small_switchbox


@pytest.fixture
def routed():
    problem = small_switchbox().to_problem()
    result = route_problem(problem)
    assert result.success
    return problem, result.grid


class TestInjectedViolations:
    def test_clean_baseline(self, routed):
        problem, grid = routed
        assert verify_routing(problem, grid).ok

    def test_stolen_pin_detected(self, routed):
        problem, grid = routed
        pin = problem.nets[0].pins[0]
        other_id = problem.net_id(problem.nets[1].name)
        grid._occ[int(pin.layer), pin.y, pin.x] = other_id  # corrupt
        report = verify_routing(problem, grid)
        assert not report.ok
        assert any("pin" in error for error in report.errors)

    def test_unknown_net_id_detected(self, routed):
        problem, grid = routed
        grid._occ[0, 2, 2] = 99  # no such net
        report = verify_routing(problem, grid)
        assert not report.ok
        assert any("unknown net id" in error for error in report.errors)

    def test_floating_via_detected(self, routed):
        problem, grid = routed
        # a via whose metal is missing on one layer
        net_id = 1
        grid._via[3, 3] = net_id
        grid._occ[0, 3, 3] = net_id
        grid._occ[1, 3, 3] = 0
        report = verify_routing(problem, grid)
        assert not report.ok
        assert any("via" in error for error in report.errors)

    def test_obstacle_overwrite_detected(self):
        from repro.geometry import Rect
        from repro.netlist.problem import Obstacle

        problem = RoutingProblem(
            6,
            6,
            nets=[Net("a", (Pin(0, 0), Pin(5, 5)))],
            obstacles=[Obstacle(Rect(2, 2, 3, 3))],
        )
        result = route_problem(problem)
        grid = result.grid
        grid._occ[0, 2, 2] = 1  # route over the obstacle
        report = verify_routing(problem, grid)
        assert not report.ok
        assert any("blocked cell" in error for error in report.errors)

    def test_severed_wire_detected(self, routed):
        problem, grid = routed
        # find a non-pin wire cell of net 1 and erase it
        pin_map = grid.pin_map()
        severed = False
        for node in list(grid.net_nodes(1)):
            if int(pin_map[int(node.layer), node.y, node.x]) == 0:
                grid._occ[int(node.layer), node.y, node.x] = 0
                severed = True
                break
        if not severed:
            pytest.skip("net 1 has no wire cells to sever")
        report = verify_routing(problem, grid)
        # severing may or may not disconnect (redundant copper), but the
        # verifier must never crash and must stay consistent
        assert isinstance(report.ok, bool)

    def test_open_after_full_erase(self, routed):
        problem, grid = routed
        pin_map = grid.pin_map()
        for node in list(grid.net_nodes(1)):
            if int(pin_map[int(node.layer), node.y, node.x]) == 0:
                grid._occ[int(node.layer), node.y, node.x] = 0
        grid._via[grid._via == 1] = 0
        report = verify_routing(problem, grid)
        assert not report.ok
        assert problem.nets[0].name in report.open_nets


class TestFaultHarnessCorruption:
    """The same violations delivered through the fault-injection harness."""

    def test_injected_claim_corruption_detected(self):
        from repro.testing import CORRUPT_OWNER, FaultInjector, FaultPlan

        problem = small_switchbox().to_problem()
        # commit #1 is later ripped up (the corruption goes with it); the
        # second committed path survives to the final grid on this box
        plan = FaultPlan(corrupt_claim_after=2)
        with FaultInjector(plan) as chaos:
            result = route_problem(problem)
        assert chaos.corrupted_nodes, "harness must have corrupted a cell"
        report = verify_routing(problem, result.grid)
        assert not report.ok
        assert any(str(CORRUPT_OWNER) in error for error in report.errors)

    def test_harness_restores_real_hooks(self):
        from repro.grid.routing_grid import RoutingGrid
        from repro.testing import FaultInjector, FaultPlan
        import repro.core.router as router_module

        real_find = router_module.find_path
        real_commit = RoutingGrid.commit_path
        with FaultInjector(FaultPlan(fail_searches_after=1)):
            assert router_module.find_path is not real_find
        assert router_module.find_path is real_find
        assert RoutingGrid.commit_path is real_commit

    def test_harness_restores_on_exception(self):
        import repro.core.router as router_module
        from repro.testing import FaultInjector, FaultPlan

        real_find = router_module.find_path
        with pytest.raises(RuntimeError):
            with FaultInjector(FaultPlan(fail_searches_after=1)):
                raise RuntimeError("boom")
        assert router_module.find_path is real_find


class TestPartialVerification:
    """Partial results verify cleanly with known-open nets waived."""

    def test_allowed_open_waives_exactly_the_named_nets(self, routed):
        problem, grid = routed
        pin_map = grid.pin_map()
        for node in list(grid.net_nodes(1)):
            if int(pin_map[int(node.layer), node.y, node.x]) == 0:
                grid._occ[int(node.layer), node.y, node.x] = 0
        grid._via[grid._via == 1] = 0
        name = problem.nets[0].name
        report = verify_routing(problem, grid, allowed_open=[name])
        assert report.ok
        assert report.waived_open == [name]
        assert name in report.open_nets  # still reported, just waived

    def test_waiver_does_not_hide_structural_damage(self, routed):
        problem, grid = routed
        pin = problem.nets[0].pins[0]
        other_id = problem.net_id(problem.nets[1].name)
        grid._occ[int(pin.layer), pin.y, pin.x] = other_id
        report = verify_routing(
            problem, grid, allowed_open=[problem.nets[0].name]
        )
        assert not report.ok  # pin theft is never waivable

    def test_verify_result_waives_router_reported_failures(self):
        from repro.analysis import verify_result
        from repro.testing import FaultInjector, FaultPlan

        problem = small_switchbox().to_problem()
        with FaultInjector(FaultPlan(fail_searches_after=3)):
            result = route_problem(problem)
        assert not result.success
        report = verify_result(problem, result)
        assert report.ok
        assert set(report.waived_open) == {
            c.net_name for c in result.failed
        }


class TestPlanesFromTheProblem:
    """The verifier reads the unrouted fabric's obstacle and pin planes off
    the problem (region mask, obstacles, pins) instead of building a whole
    reference grid.  Every check keeps its exact message."""

    @staticmethod
    def _region_problem():
        from repro.netlist.instances import obstacle_region_problem

        problem = obstacle_region_problem()
        result = route_problem(problem)
        assert result.success and verify_routing(problem, result.grid).ok
        return problem, result.grid

    def test_planes_match_a_built_grid(self):
        from repro.analysis.verify import _fresh_planes
        from repro.geometry import Rect
        from repro.grid.layers import Layer
        from repro.grid.routing_grid import OBSTACLE
        from repro.netlist.generators import woven_region_problem
        from repro.netlist.instances import obstacle_region_problem
        from repro.netlist.problem import Obstacle

        layered = RoutingProblem(
            7,
            5,
            nets=[Net("a", (Pin(0, 0), Pin(6, 4, Layer.HORIZONTAL)))],
            obstacles=[
                Obstacle(Rect(2, 1, 4, 3), Layer.HORIZONTAL),
                Obstacle(Rect(3, 2, 5, 4)),
            ],
        )
        problems = [
            layered,
            obstacle_region_problem(),
            small_switchbox().to_problem(),
        ] + [woven_region_problem(seed=s, tangle=0.6) for s in range(4)]
        for problem in problems:
            grid = problem.build_grid()
            blocked, pins = _fresh_planes(problem)
            assert (blocked == (grid.occupancy() == OBSTACLE)).all()
            assert (pins == grid.pin_map()).all()

    def test_stolen_pin_message(self):
        problem, grid = self._region_problem()
        pin = problem.nets[1].pins[1]
        grid._occ[int(pin.layer), pin.y, pin.x] = 1
        report = verify_routing(problem, grid)
        assert (
            f"pin cell stolen at ({pin.x},{pin.y}) layer {int(pin.layer)} "
            "(+0 more)"
        ) in report.errors
        assert not report.ok

    def test_overwritten_obstacle_message(self):
        problem, grid = self._region_problem()
        obstacle = problem.obstacles[0]
        x, y = obstacle.rect.x0, obstacle.rect.y0
        layer = 0 if obstacle.layer is None else int(obstacle.layer)
        grid._occ[layer, y, x] = 1
        report = verify_routing(problem, grid)
        assert report.errors == [
            f"blocked cell overwritten at ({x},{y}) layer {layer} (+0 more)"
        ]

    def test_region_violation_message(self):
        problem, grid = self._region_problem()
        # (1, 6) lies in the region's notch; claim both of its layers.
        assert not problem.region.contains((1, 6))
        grid._occ[0, 6, 1] = 2
        grid._occ[1, 6, 1] = 2
        report = verify_routing(problem, grid)
        assert report.errors == [
            "blocked cell overwritten at (1,6) layer 0 (+1 more)"
        ]
