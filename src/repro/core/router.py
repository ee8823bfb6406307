"""The Mighty rip-up-and-reroute router.

The control loop implements the paper's three-tier strategy:

1. route the connection through free fabric (hard search);
2. *weak modification* — displace a small number of blocking connections,
   but only if each one can immediately be rerouted (all-or-nothing, undone
   on failure via the grid's O(path-length) change journal);
3. *strong modification* — rip the blocking connections out, commit the
   blocked connection, and re-queue the victims.

Two invariants make the router sound and finite:

* **Connection invariant** — a connection marked ``routed`` always has its
  two endpoint pins in one connected component of its net's copper.  Ripping
  a connection can orphan *siblings* of the same net that routed through its
  copper, so every rip triggers a cascade check that un-routes (and
  re-queues) any sibling whose endpoints came apart.  With the invariant
  held for every connection, whole-net connectivity follows from the MST
  decomposition.
* **Termination invariant** — every strong modification charges the victims'
  nets against a finite rip budget; a net at budget is *frozen* and can
  never be a victim again, so the number of strong modifications is bounded
  (the paper's finite-time theorem).  The loop carries an explicit iteration
  guard that raises if the bound is ever exceeded.
"""

from __future__ import annotations

import time
from collections import deque
from typing import (
    TYPE_CHECKING,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.config import MightyConfig
from repro.errors import EngineError
from repro.core.decompose import Connection, decompose_problem
from repro.core.ordering import order_connections
from repro.core.result import RouteEvent, RouteResult, RouteStats
from repro.grid.layers import Layer
from repro.grid.path import GridPath
from repro.grid.routing_grid import GridError, RoutingGrid
from repro.maze.arena import SearchArena
from repro.maze.astar import SearchResult, find_path
from repro.maze.kernels import resolve_kernel
from repro.netlist.net import Pin
from repro.netlist.problem import RoutingProblem

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine -> router)
    from repro.engine.deadline import Deadline

Node = Tuple[int, int, int]


class MightyRouter:
    """Route a :class:`RoutingProblem` with rip-up and reroute.

    A router instance is single-use: construct, call :meth:`route`, inspect
    the returned :class:`~repro.core.result.RouteResult`.
    """

    def __init__(
        self,
        problem: RoutingProblem,
        config: Optional[MightyConfig] = None,
        arena: Optional[SearchArena] = None,
        grid: Optional[RoutingGrid] = None,
    ) -> None:
        self.problem = problem
        self.config = config or MightyConfig()
        # ``grid``, when given, already carries the copper that
        # :meth:`route` receives as ``pre_routed`` (the shard merge hands
        # its grid over); those paths are then registered, not committed.
        self._adopted_grid = grid is not None
        self._grid: RoutingGrid = grid if grid is not None else (
            problem.build_grid()
        )
        # Scratch planes shared by every search this router issues; a
        # caller running many related problems (e.g. a width sweep) may
        # pass one arena to amortise across runs.
        self._arena = arena or SearchArena()
        self._net_connections: Dict[int, List[Connection]] = {}
        self._net_rips: Dict[int, int] = {}
        self._budgets: Dict[int, int] = {}
        self._frozen: Set[int] = set()
        self._events: List[RouteEvent] = []
        self._stats = RouteStats()
        self._step = 0
        self._routed = False
        self._best_routed = -1
        self._best_snapshot = None
        # True while the *current* state is the best seen and no copy of
        # it has been taken yet; see ``_note_best_state``.
        self._best_pending = False
        self._all_connections: List[Connection] = []
        # How many of ``_all_connections`` are routed: kept in step by
        # ``_set_routed``, the one writer of ``Connection.routed`` here,
        # so no event or best-state check has to recount.
        self._routed_count = 0
        # Resolve the search-kernel backend once per router: config wins,
        # then the process default (REPRO_KERNEL / auto).  Stored as a
        # name and passed per search, so a faults-layer monkeypatch of
        # ``find_path`` still sees an ordinary keyword argument.
        self._kernel = resolve_kernel(self.config.kernel_backend).name
        # Whether any search of the most recent connection attempt hit
        # its expansion budget — read by the fail-event detail so a
        # budget trip is never logged as plain unroutability.
        self._last_attempt_exhausted = False

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def route(
        self,
        pre_routed: Optional[Dict[str, List[GridPath]]] = None,
        deadline: Optional["Deadline"] = None,
    ) -> RouteResult:
        """Run the router once and return the result.

        ``pre_routed`` maps net names to already-committed paths ("partially
        routed areas" in the paper's terms); pre-routed wiring is registered
        as ordinary connections, so the router may rip it up like anything
        else.

        ``deadline`` is an optional wall-clock budget
        (:class:`~repro.engine.deadline.Deadline`, duck-typed on
        ``expired()``).  An expired deadline never raises here: the control
        loop stops before the next connection, the best snapshot seen is
        restored, and the result comes back with ``status="partial"`` and
        ``stats.timed_out`` set — graceful degradation is the engine
        layer's contract.  A zero-second deadline returns without entering
        the control loop at all.
        """
        if self._routed:
            raise EngineError(
                "MightyRouter instances are single-use",
                context={"problem": self.problem.name},
            )
        self._routed = True
        started = time.perf_counter()

        fixed = self._pre_routed_connections(pre_routed or {})
        connections = decompose_problem(self.problem)
        all_connections = connections + fixed
        self._all_connections = all_connections
        for seq, connection in enumerate(all_connections):
            connection.seq = seq
            self._net_connections.setdefault(connection.net_id, []).append(
                connection
            )
        self._routed_count = sum(1 for c in all_connections if c.routed)
        self._budgets = {
            net_id: self.config.max_rips_per_net * len(conns)
            for net_id, conns in self._net_connections.items()
        }

        queue: Deque[Connection] = deque(
            order_connections(connections, self.config.ordering)
        )
        failed: List[Connection] = []
        retries_left = self.config.retry_passes
        max_iterations = self._iteration_bound(len(queue))

        timed_out = False
        while queue or (failed and retries_left > 0):
            if deadline is not None and deadline.expired():
                timed_out = True
                self._record(
                    "timeout",
                    "*",
                    f"deadline hit after {self._stats.iterations} iterations",
                )
                break
            if not queue:
                retries_left -= 1
                # Fresh rip budgets for the retry pass: the landscape has
                # changed, so frozen nets deserve another chance.  The pass
                # count is bounded, so termination is unaffected.
                self._net_rips.clear()
                self._frozen.clear()
                retry_batch = order_connections(failed, self.config.ordering)
                failed.clear()
                for connection in retry_batch:
                    connection.chain_depth = 0
                    connection.deferrals = 0
                    self._record("retry", connection.net_name)
                queue.extend(retry_batch)
            connection = queue.popleft()
            self._step += 1
            self._stats.iterations += 1
            if self._stats.iterations > max_iterations:
                raise EngineError(
                    "termination invariant violated: iteration bound "
                    f"{max_iterations} exceeded",
                    context={
                        "iterations": self._stats.iterations,
                        "bound": max_iterations,
                        "problem": self.problem.name,
                    },
                )
            if connection.routed:
                continue
            if not self._route_connection(connection, queue):
                failed.append(connection)
                self._record(
                    "fail",
                    connection.net_name,
                    "search budget exhausted"
                    if self._last_attempt_exhausted
                    else "",
                )
            self._note_best_state()

        self._restore_best_state()
        self._stats.connections = len(all_connections)
        self._stats.routed_connections = self._routed_count
        self._stats.failed_connections = (
            self._stats.connections - self._stats.routed_connections
        )
        self._stats.frozen_nets = len(self._frozen)
        self._stats.peak_journal_depth = self._grid.journal_peak_depth
        self._stats.kernel_backend = self._kernel
        self._stats.elapsed_s = time.perf_counter() - started
        self._stats.timed_out = timed_out
        if deadline is not None:
            self._stats.deadline_s = deadline.budget_s
        return RouteResult(
            problem=self.problem,
            grid=self._grid,
            connections=all_connections,
            failed=[c for c in all_connections if not c.routed],
            stats=self._stats,
            events=self._events,
            router=self._router_tag(),
        )

    # ------------------------------------------------------------------
    # Connection routing
    # ------------------------------------------------------------------
    def _route_connection(
        self, connection: Connection, queue: Deque[Connection]
    ) -> bool:
        terminals = self._terminals(connection)
        if terminals is None:
            self._stats.hard_routes += 1
            self._record("route", connection.net_name, "already connected")
            return True
        sources, targets = terminals

        self._last_attempt_exhausted = False
        hard = self._search(connection.net_id, sources, targets)
        if hard.found:
            self._commit(connection, hard.path)
            self._stats.hard_routes += 1
            self._record("route", connection.net_name, f"cost={hard.cost}")
            return True

        if not (self.config.enable_weak or self.config.enable_strong):
            return False

        escalation = {
            frozen_net: rips * self.config.rip_escalation
            for frozen_net, rips in self._net_rips.items()
        }
        soft = self._search(
            connection.net_id,
            sources,
            targets,
            allow_conflicts=True,
            frozen_nets=frozenset(self._frozen),
            net_penalties=escalation,
        )
        if not soft.found:
            return False
        victims = self._victims_of(soft.conflict_nodes)
        if victims is None:
            return False
        if not victims:
            # No actual conflicts: the soft search simply looked further
            # than the capped hard search.  Commit directly.
            self._commit(connection, soft.path)
            self._stats.hard_routes += 1
            self._record("route", connection.net_name, "late find")
            return True

        if (
            self.config.enable_weak
            and len(victims) <= self.config.weak_victim_limit
        ):
            if self._try_weak(connection, soft.path, victims):
                return True

        if (
            self.config.enable_strong
            and len(victims) <= self.config.strong_victim_limit
        ):
            if connection.chain_depth >= self.config.max_chain_depth:
                # Cut the chain — but a cut is a *deferral*, not a failure:
                # the connection rejoins the back of the queue at depth 0.
                # Deferrals are budget-bounded, and every eventual strong
                # modification still burns rip budget, so termination holds.
                if connection.deferrals < self.config.max_deferrals:
                    connection.deferrals += 1
                    connection.chain_depth = 0
                    queue.append(connection)
                    self._record("defer", connection.net_name)
                    return True
                return False
            self._do_strong(connection, soft.path, victims, queue)
            return True
        return False

    def _try_weak(
        self,
        connection: Connection,
        path: GridPath,
        victims: List[Connection],
    ) -> bool:
        """Displace ``victims``; keep only if everything reroutes at once.

        All-or-nothing semantics come from the grid's change journal: the
        whole attempt runs inside a transaction, and a failed attempt is
        undone in O(cells touched) — not by restoring an O(area) snapshot.
        """
        affected_nets = {victim.net_id for victim in victims}
        watched: List[Connection] = [connection]
        for net_id in affected_nets:
            watched.extend(self._net_connections.get(net_id, []))
        saved_state = [(c, c.path, c.routed) for c in watched]

        self._grid.begin_txn()
        try:
            for victim in victims:
                self._rip(victim)
            detached = self._cascade_rip(affected_nets)
            self._commit(connection, path)
            displaced = victims + detached
            displaced_ok = True
            # The reroute order is total and explicit: estimated length,
            # then position in ``displaced``.  The position is itself
            # deterministic — ``_victims_of`` ends its key with ``seq``
            # and the cascade scan follows insertion-ordered tables — so
            # no tie is ever left to sort stability or identity hashes.
            # (Re-keying ties on ``seq`` alone was measured to change the
            # routing trajectory and lose a connection on fig-channel.)
            for _, victim in sorted(
                enumerate(displaced),
                key=lambda iv: (iv[1].estimated_length, iv[0]),
            ):
                if not self._reroute_hard(victim):
                    displaced_ok = False
                    break
        except BaseException:
            self._undo_weak_attempt(saved_state)
            raise
        if displaced_ok:
            self._grid.commit_txn()
            self._stats.weak_modifications += 1
            self._record(
                "weak",
                connection.net_name,
                f"displaced {sorted(v.net_name for v in displaced)}",
            )
            return True
        # All-or-nothing: undo the whole attempt.
        self._undo_weak_attempt(saved_state)
        self._stats.weak_rejections += 1
        return False

    def _undo_weak_attempt(
        self, saved_state: List[Tuple[Connection, Optional[GridPath], bool]]
    ) -> None:
        """Roll back grid and connection flags of a weak attempt."""
        self._grid.rollback_txn()
        for conn, old_path, old_routed in saved_state:
            conn.path = old_path
            self._set_routed(conn, old_routed)

    def _do_strong(
        self,
        connection: Connection,
        path: GridPath,
        victims: List[Connection],
        queue: Deque[Connection],
    ) -> None:
        """Rip ``victims``, commit the blocked connection, re-queue victims."""
        # The rips below are the only mutations that persistently lower
        # the routed count, so this is the one place the deferred
        # best-state copy must happen before touching anything.
        self._materialize_best_state()
        for victim in victims:
            self._rip(victim)
            victim.rips += 1
            self._stats.ripped_connections += 1
            rips = self._net_rips.get(victim.net_id, 0) + 1
            self._net_rips[victim.net_id] = rips
            if rips >= self._budgets.get(victim.net_id, 0):
                self._frozen.add(victim.net_id)
        detached = self._cascade_rip({v.net_id for v in victims})
        self._commit(connection, path)
        self._stats.strong_modifications += 1
        self._record(
            "strong",
            connection.net_name,
            f"ripped {sorted(v.net_name for v in victims + detached)}",
        )
        # Victims reroute next, shortest first at the head of the queue.
        # Ties keep list position explicitly (longest-first needs the
        # length negated, so stability can no longer be relied on); the
        # position is deterministic because ``_victims_of`` seq-tiebreaks
        # the victims and the cascade scan is insertion-ordered.
        for _, victim in sorted(
            enumerate(victims + detached),
            key=lambda iv: (-iv[1].estimated_length, iv[0]),
        ):
            victim.chain_depth = connection.chain_depth + 1
            queue.appendleft(victim)

    def _reroute_hard(self, connection: Connection) -> bool:
        """Plain hard reroute used for displaced victims."""
        terminals = self._terminals(connection)
        if terminals is None:
            return True
        result = self._search(connection.net_id, *terminals)
        if not result.found:
            return False
        self._commit(connection, result.path)
        self._record("reroute", connection.net_name, "displaced")
        return True

    def _terminals(
        self, connection: Connection
    ) -> Optional[Tuple[List[Node], List[Node]]]:
        """Search sources and targets: the components of both endpoints.

        Returns ``None`` when the endpoints are already connected through
        sibling copper; the connection is then marked routed with no path
        of its own.
        """
        net_id = connection.net_id
        source_node = tuple(connection.source_node)
        target_node = tuple(connection.target_node)
        tick = time.perf_counter()
        if self._grid.same_component(net_id, source_node, target_node):
            self._stats.phase_connectivity_s += time.perf_counter() - tick
            connection.path = None
            self._set_routed(connection, True)
            return None
        sources = [
            tuple(node)
            for node in self._grid.component_nodes(net_id, source_node)
        ]
        targets = [
            tuple(node)
            for node in self._grid.component_nodes(net_id, target_node)
        ]
        self._stats.phase_connectivity_s += time.perf_counter() - tick
        return sources, targets

    def _search(
        self,
        net_id: int,
        sources: List[Node],
        targets: List[Node],
        **conflict_mode,
    ) -> SearchResult:
        """One timed, counted maze search (``conflict_mode``: soft-search
        keywords of :func:`~repro.maze.astar.find_path`)."""
        self._stats.searches += 1
        tick = time.perf_counter()
        result = find_path(
            self._grid,
            net_id,
            sources,
            targets,
            cost=self.config.cost,
            max_expansions=self.config.max_expansions_per_search,
            arena=self._arena,
            kernel=self._kernel,
            **conflict_mode,
        )
        self._stats.phase_search_s += time.perf_counter() - tick
        self._stats.expansions += result.expansions
        if result.exhausted:
            self._stats.exhausted_searches += 1
            self._last_attempt_exhausted = True
        return result

    # ------------------------------------------------------------------
    # Grid bookkeeping
    # ------------------------------------------------------------------
    def _commit(self, connection: Connection, path: GridPath) -> None:
        tick = time.perf_counter()
        self._grid.commit_path(connection.net_id, path)
        connection.path = path
        self._set_routed(connection, True)
        self._stats.phase_claims_s += time.perf_counter() - tick

    def _rip(self, connection: Connection) -> None:
        tick = time.perf_counter()
        if connection.path is not None:
            self._grid.remove_path(connection.net_id, connection.path)
        connection.path = None
        self._set_routed(connection, False)
        self._stats.phase_claims_s += time.perf_counter() - tick

    def _set_routed(self, connection: Connection, routed: bool) -> None:
        """Set ``connection.routed``, keeping the routed count in step."""
        if connection.routed != routed:
            self._routed_count += 1 if routed else -1
            connection.routed = routed

    def _cascade_rip(self, net_ids: Iterable[int]) -> List[Connection]:
        """Un-route siblings whose endpoints were split by earlier rips.

        Repeats to a fixpoint: ripping one orphaned sibling can orphan the
        next.  Cascade rips do not count against the rip budget — they are
        a bounded consequence of an already-budgeted strong modification.
        """
        detached: List[Connection] = []
        net_ids = set(net_ids)
        changed = True
        while changed:
            changed = False
            for net_id in net_ids:
                for conn in self._net_connections.get(net_id, []):
                    if not conn.routed:
                        continue
                    tick = time.perf_counter()
                    linked = self._grid.same_component(
                        net_id,
                        tuple(conn.source_node),
                        tuple(conn.target_node),
                    )
                    self._stats.phase_connectivity_s += (
                        time.perf_counter() - tick
                    )
                    if not linked:
                        self._rip(conn)
                        detached.append(conn)
                        changed = True
        return detached

    def _victims_of(
        self, conflict_nodes: Sequence[Node]
    ) -> Optional[List[Connection]]:
        """Connections whose paths cross the conflict nodes.

        The grid is the one owner of copper: each conflict node's owning
        net narrows the candidates to that net's connections, and path
        membership picks the victims among them.  Returns ``None`` when
        some conflict node lies on no connection's path — foreign copper
        with no registered connection, which pins cannot be (the search
        excludes them) but a corrupted cell is — and the plan is refused.
        """
        tick = time.perf_counter()
        by_net: Dict[int, Set[Node]] = {}
        for node in conflict_nodes:
            by_net.setdefault(self._grid.owner(node), set()).add(tuple(node))
        victims: Optional[List[Connection]] = []
        for net_id, nodes in by_net.items():
            covered: Set[Node] = set()
            for conn in self._net_connections.get(net_id, ()):
                if conn.path is not None:
                    hit = nodes.intersection(conn.path)
                    if hit:
                        victims.append(conn)
                        covered |= hit
            if covered != nodes:
                victims = None
                break
        if victims is not None:
            # ``seq`` makes the sort total, so the routing trajectory
            # never depends on table iteration order.
            victims.sort(
                key=lambda c: (c.net_name, c.estimated_length, c.seq)
            )
        self._stats.phase_victims_s += time.perf_counter() - tick
        return victims

    def _pre_routed_connections(
        self, pre_routed: Dict[str, List[GridPath]]
    ) -> List[Connection]:
        """One routed connection per pre-routed path, in sorted net name
        then path order (``seq`` follows it and orders victims).

        The paths are committed to the grid here, unless the grid was
        handed over already holding them.
        """
        fixed: List[Connection] = []
        for net_name in sorted(pre_routed):
            net_id = self.problem.net_id(net_name)
            for path in pre_routed[net_name]:
                start, end = path.start, path.end
                connection = Connection(
                    net_name=net_name,
                    net_id=net_id,
                    source_pin=Pin(start.x, start.y, Layer(start.layer)),
                    target_pin=Pin(end.x, end.y, Layer(end.layer)),
                )
                if self._adopted_grid:
                    connection.path = path
                    self._set_routed(connection, True)
                else:
                    try:
                        self._commit(connection, path)
                    except GridError as exc:
                        raise ValueError(
                            f"pre-routed path for {net_name!r} is illegal: "
                            f"{exc}"
                        ) from None
                fixed.append(connection)
        return fixed

    # ------------------------------------------------------------------
    # Best-state bookkeeping
    # ------------------------------------------------------------------
    def _note_best_state(self) -> None:
        """Record that a new completion record was reached — lazily.

        Copying the grid and the connection states on every record made
        the snapshot path O(connections²) on a cleanly-progressing run.
        The copy is deferred: the routed count can only *decrease* through a
        strong modification (weak attempts are all-or-nothing and roll
        back; searches never mutate), so ``_do_strong`` materialises the
        pending copy just before its first rip.  A run that never strong-
        modifies after its last record never copies at all — its final
        state *is* the best state.
        """
        if not self.config.keep_best_state:
            return
        if self._routed_count > self._best_routed:
            self._best_routed = self._routed_count
            self._best_pending = True

    def _materialize_best_state(self) -> None:
        """Take the deferred best-state copy while the state still is it."""
        if not self._best_pending:
            return
        self._best_pending = False
        tick = time.perf_counter()
        self._best_snapshot = (
            self._grid.clone(),
            [(c, c.path, c.routed) for c in self._all_connections],
        )
        self._stats.phase_claims_s += time.perf_counter() - tick

    def _restore_best_state(self) -> None:
        """Roll back to the best snapshot if the final state is worse."""
        if self._best_snapshot is None:
            return
        if self._routed_count >= self._best_routed:
            return
        grid, states = self._best_snapshot
        self._grid.restore(grid)
        for connection, path, was_routed in states:
            connection.path = path
            self._set_routed(connection, was_routed)
        self._record(
            "restore",
            "*",
            f"rolled back to best state ({self._best_routed} routed)",
        )

    # ------------------------------------------------------------------
    # Misc helpers
    # ------------------------------------------------------------------
    def _iteration_bound(self, initial: int) -> int:
        # Queue pops <= queue pushes.  Pushes: the initial connections (plus
        # bounded retries), and per strong modification its victims plus
        # cascade-detached siblings.  Strong modifications are bounded by the
        # total rip budget; each re-queues at most ``strong_victim_limit``
        # victims and ``strong_victim_limit * largest_net`` cascade rips.
        total_budget = sum(self._budgets.values())
        largest_net = max(
            (len(c) for c in self._net_connections.values()), default=1
        )
        per_strong = self.config.strong_victim_limit * (1 + largest_net)
        # Budgets are reset once per retry pass, so the strong-modification
        # work multiplies by the (bounded) pass count.  Chain-depth
        # deferrals add at most ``max_rips_per_net`` extra pops per
        # connection per pass.
        deferrals = initial * self.config.max_deferrals
        return (1 + self.config.retry_passes) * (
            initial + deferrals + total_budget * (2 + per_strong)
        ) + 16

    def _record(self, kind: str, net: str, detail: str = "") -> None:
        self._events.append(
            RouteEvent(
                step=self._step,
                kind=kind,
                net=net,
                detail=detail,
                open_connections=(
                    len(self._all_connections) - self._routed_count
                ),
            )
        )

    def _router_tag(self) -> str:
        if self.config.enable_weak and self.config.enable_strong:
            return "mighty"
        if self.config.enable_weak:
            return "mighty-weak"
        if self.config.enable_strong:
            return "mighty-strong"
        return "maze-sequential"


def route_problem(
    problem: RoutingProblem,
    config: Optional[MightyConfig] = None,
    pre_routed: Optional[Dict[str, List[GridPath]]] = None,
    deadline: Optional["Deadline"] = None,
    arena: Optional[SearchArena] = None,
) -> RouteResult:
    """One-shot convenience wrapper around :class:`MightyRouter`.

    ``arena`` lets a caller running many problems (sweeps, benchmarks)
    share one search arena across runs.
    """
    return MightyRouter(problem, config, arena=arena).route(
        pre_routed=pre_routed, deadline=deadline
    )
