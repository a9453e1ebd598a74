"""The PDM client: the structure-oriented user actions of the paper.

:class:`PDMClient` executes the three analysed actions — query,
single-level expand, multi-level expand — under the three strategies of
Tables 2-4 (plus the pipelined EXPAND_BATCHED strategy, which fetches a
whole frontier level per round trip over the batch protocol), and
check-out/check-in under the two deployment modes of the Section 6
discussion.  Every action returns an :class:`ActionResult`
carrying the reassembled data *and* the measured simulated response time
and traffic (delta of the link's clock and stats).

Semantics notes (aligned between all strategies; verified by the
equivalence property tests):

* Row conditions gate nodes and links; an invisible node hides its whole
  subtree (the navigational client simply never expands it, and in the
  recursive query the WHERE clauses inside the recursion prune the
  descent identically).
* Navigational strategies cannot evaluate tree conditions in SQL (paper
  Section 4.1), so ∀rows / tree-aggregate / ∃structure conditions are
  evaluated at the client after the fetch — for ∃structure this costs one
  extra round trip per candidate node, which is precisely the kind of
  latency the recursive strategy eliminates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from operator import itemgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    CheckOutError,
    CircuitOpenError,
    ExpandInterrupted,
    ReproError,
    TimeoutError,
    UnknownObjectError,
)
from repro.network.stats import TrafficStats
from repro.obs import maybe_span
from repro.pdm import queries
from repro.pdm.schema import register_stored_functions
from repro.pdm.structure import Attrs, StructureNode, build_tree
from repro.rules.conditions import ConditionClass
from repro.rules.evaluate import RowCheck, aggregate_holds, forall_holds
from repro.rules.model import Actions
from repro.rules.modificator import ExistsPlacement, QueryModificator
from repro.rules.ruletable import RuleTable
from repro.server.client import RemoteConnection
from repro.sqldb.executor import ExecutionEnv
from repro.sqldb.functions import FunctionRegistry
from repro.sqldb.render import render_select
from repro.sqldb.result import ResultSet


class ExpandStrategy(Enum):
    """The strategies compared by the paper's evaluation."""

    NAVIGATIONAL_LATE = "navigational-late"  # Table 2 baseline
    NAVIGATIONAL_EARLY = "navigational-early"  # Table 3 (approach 1)
    RECURSIVE_EARLY = "recursive-early"  # Table 4 (approach 2)
    EXPAND_BATCHED = "expand-batched"  # level-at-a-time pipelined batches


#: IN-list sizes the batched expand pads its frontier chunks to.  A fixed
#: set of shapes bounds the number of distinct SQL texts, so the server's
#: plan cache starts hitting after the first few levels; the multi-key
#: index probe deduplicates keys, which makes the padding free.
BATCH_KEY_BUCKETS: Tuple[int, ...] = (1, 4, 16, 64, 256)

#: Upper bound on keys per statement; wider frontiers are split into
#: several statements (still one round trip — they ride the same batch).
BATCH_CHUNK_KEYS = BATCH_KEY_BUCKETS[-1]

#: Lost round trips one multi-level expand re-issues before it gives up
#: with :class:`~repro.errors.ExpandInterrupted`.
MAX_RESUMES = 16

#: The columns of a homogenised child-fetch row that describe the link,
#: and the attribute names they get in a link's dict; every other column
#: describes the child node.
_LINK_COLUMNS = ("link_obid", "left", "right", "eff_from", "eff_to", "link_opt")
_LINK_ATTRS = ("type", "obid", "left", "right", "eff_from", "eff_to", "strc_opt")

#: A row-check cache entry not built yet (None means "no row rule").
_UNCOMPILED = object()


@lru_cache(maxsize=16)
def _child_row_shape(columns: Tuple[str, ...]):
    """Where link and node attributes sit in a child row with *columns*:
    ``(getter of the link values, node keys, node positions)``.

    Keys are lower-cased, and a repeated name keeps its first place and
    its last value — what ``dict(zip(keys, row))`` gives — so the split
    equals one made from :meth:`ResultSet.as_dicts`.  A client sees a
    handful of shapes (one per child-fetch text), so they are remembered.
    """
    keys = [name.lower() for name in columns]
    last = {key: position for position, key in enumerate(keys)}
    node_keys = tuple(
        key for key in dict.fromkeys(keys) if key not in _LINK_COLUMNS
    )
    return (
        itemgetter(*(last[key] for key in _LINK_COLUMNS)),
        node_keys,
        tuple(last[key] for key in node_keys),
    )


def _child_pairs(result: ResultSet) -> List[Tuple[Attrs, Attrs]]:
    """The ``(link, node)`` attribute pairs of a homogenised child-fetch
    result, built straight from the row tuples — the one place that knows
    how such a row splits, shared by the navigational and the batched
    expand."""
    if not result.rows:
        return []
    link_of, node_keys, node_at = _child_row_shape(tuple(result.columns))
    return [
        (
            dict(zip(_LINK_ATTRS, ("link",) + link_of(row))),
            dict(zip(node_keys, map(row.__getitem__, node_at))),
        )
        for row in result.rows
    ]


class CheckOutMode(Enum):
    """Deployment modes for check-out (paper Section 6)."""

    TWO_PHASE = "two-phase"  # fetch tree, then UPDATEs: extra round trips
    SERVER_PROCEDURE = "server-procedure"  # function shipping: one round trip


@dataclass
class ActionResult:
    """Outcome of one user action plus its measured cost."""

    seconds: float
    traffic: TrafficStats
    round_trips: int
    objects: List[Attrs] = field(default_factory=list)
    tree: Optional[StructureNode] = None
    checked_out: List[int] = field(default_factory=list)

    @property
    def node_count(self) -> int:
        if self.tree is not None:
            return self.tree.node_count()
        return len(self.objects)


class PDMClient:
    """A PDM user session bound to a remote connection and a rule table."""

    def __init__(
        self,
        connection: RemoteConnection,
        rule_table: Optional[RuleTable] = None,
        user: str = "scott",
        user_env: Optional[Dict[str, Any]] = None,
        default_permit: bool = True,
        exists_placement: ExistsPlacement = ExistsPlacement.INSIDE,
        configurator=None,
        selected_options: Optional[Sequence[str]] = None,
    ) -> None:
        self.connection = connection
        self.rule_table = rule_table if rule_table is not None else RuleTable()
        self.user = user
        self.user_env = dict(user_env or {})
        if configurator is not None and selected_options is not None:
            # Configuration rules are evaluated client-side on the selected
            # options only — no product data, no WAN messages (paper §3.1).
            from repro.rules.presets import USER_OPTIONS_VAR

            self.user_env[USER_OPTIONS_VAR] = configurator.validate(
                selected_options
            )
        self.default_permit = default_permit
        self.exists_placement = exists_placement
        self.modificator = QueryModificator(
            self.rule_table, self.user, self.user_env
        )
        #: What late rule checks run in: the stored functions, registered
        #: as on the server.
        self._env = ExecutionEnv(
            functions=register_stored_functions(FunctionRegistry())
        )
        #: Rendered SQL texts and compiled row checks, each keyed on the
        #: rule table's generation (the key's last element).
        self._rule_cache: Dict[Tuple[Any, ...], Any] = {}
        self._generation = self.rule_table.generation
        #: Resilience counters: how often expands re-issued a lost round
        #: trip, or degraded from recursive to batched.
        self.statistics = {
            "expand_resumes": 0,
            "recursive_fallbacks": 0,
        }

    # -- measurement plumbing ---------------------------------------------------

    @property
    def recorder(self):
        """The stack's :class:`repro.obs.TraceRecorder` (None when off)."""
        return getattr(self.connection, "recorder", None)

    def _action_span(self, name: str, **meta: Any):
        """Root span for one user action.

        Opened at the same simulated instant as :meth:`_begin` and closed
        after :meth:`_finish` reads the clock, so the root span's duration
        equals the returned ``ActionResult.seconds`` exactly.
        """
        return maybe_span(self.recorder, name, kind="pdm", **meta)

    def _begin(self) -> Tuple[TrafficStats, float, int]:
        link = self.connection.link
        return (
            link.stats.snapshot(),
            link.clock.now,
            self.connection.statistics["round_trips"],
        )

    def _finish(self, begin, **payload) -> ActionResult:
        before_stats, before_time, before_round_trips = begin
        link = self.connection.link
        return ActionResult(
            seconds=link.clock.now - before_time,
            traffic=link.stats.delta_since(before_stats),
            round_trips=self.connection.statistics["round_trips"]
            - before_round_trips,
            **payload,
        )

    # -- rule helpers ---------------------------------------------------------

    def _remember(self, key: Tuple[Any, ...], value: Any) -> Any:
        """Cache *value* under *key*, whose last element is the rule
        table's generation; a new generation first drops everything built
        from the old rules."""
        if key[-1] != self._generation:
            self._rule_cache.clear()
            self._generation = key[-1]
        self._rule_cache[key] = value
        return value

    def _permitted(self, attrs: Attrs, action: str) -> bool:
        """Late row-rule check of one fetched object: the OR of the
        relevant row rules, compiled from the predicate early evaluation
        injects; no relevant rule falls back to ``default_permit``."""
        key = (action, str(attrs.get("type")), self.rule_table.generation)
        check = self._rule_cache.get(key, _UNCOMPILED)
        if check is _UNCOMPILED:
            rules = self.rule_table.relevant(
                self.user, action, key[1], ConditionClass.ROW
            )
            check = self._remember(
                key,
                RowCheck([rule.condition for rule in rules], self.user_env)
                if rules
                else None,
            )
        if check is None:
            return self.default_permit
        return check.value(attrs, self._env) is True

    def _related_exists(self, obid, relation_table: str, related_table: str) -> bool:
        sql = (
            f"SELECT 1 FROM {relation_table} JOIN {related_table} "
            f"ON {relation_table}.right = {related_table}.obid "
            f"WHERE {relation_table}.left = ?"
        )
        return bool(self.connection.execute(sql, [obid]).rows)

    def _tree_rules(self, action: str, root_type: str, condition_class):
        return self.rule_table.relevant(
            self.user, action, root_type, condition_class
        )

    def _apply_tree_conditions_late(
        self, tree: Optional[StructureNode], action: str
    ) -> Optional[StructureNode]:
        """Client-side evaluation of tree conditions on a fetched tree,
        combined as the recursive query combines them: ∃structure prunes
        nodes (and their subtrees) first, a node of type O staying when
        any ∃structure rule on O holds; then the ∀rows rules, OR-combined,
        and the tree-aggregate rules, OR-combined, each apply
        all-or-nothing over the surviving tree."""
        if tree is None:
            return None
        root_type = str(tree.object_type)
        probes: Dict[str, list] = {}
        for rule in self._tree_rules(
            action, root_type, ConditionClass.EXISTS_STRUCTURE
        ):
            probes.setdefault(rule.condition.object_type.lower(), []).append(
                rule.condition
            )
        if probes:

            def keep(node: StructureNode) -> bool:
                conditions = probes.get(str(node.object_type).lower())
                return conditions is None or any(
                    self._related_exists(
                        node.obid, condition.relation_table, condition.related_table
                    )
                    for condition in conditions
                )

            if not keep(tree):
                return None
            tree.prune(keep)
        nodes = [node.attrs for node in tree.iter_nodes()]
        for condition_class, holds in (
            (ConditionClass.FORALL_ROWS, forall_holds),
            (ConditionClass.TREE_AGGREGATE, aggregate_holds),
        ):
            rules = self._tree_rules(action, root_type, condition_class)
            if rules and not any(
                holds(rule.condition, nodes, self._env, self.user_env)
                for rule in rules
            ):
                return None
        return tree

    # -- SQL construction --------------------------------------------------------

    def _navigational_sql(self, builder_name: str, early: bool, action: str) -> str:
        key = (builder_name, early, action, self.rule_table.generation)
        cached = self._rule_cache.get(key)
        if cached is not None:
            return cached
        builder = (
            queries.child_fetch_spec
            if builder_name == "child_fetch"
            else queries.set_query_spec
        )
        spec = builder()
        if early:
            spec = self.modificator.modify_navigational(spec, action)
        return self._remember(key, render_select(spec.to_statement()))

    def _batched_sql(self, node_type: str, key_count: int, action: str) -> str:
        """Rendered (and rule-injected) frontier fetch for one node type
        and one IN-list shape; cached so repeated shapes re-send the same
        SQL text and the server's plan cache can hit."""
        key = (
            f"batched_children_{node_type}_{key_count}",
            True,
            action,
            self.rule_table.generation,
        )
        cached = self._rule_cache.get(key)
        if cached is not None:
            return cached
        spec = queries.batched_children_spec(node_type, key_count)
        spec = self.modificator.modify_navigational(spec, action)
        return self._remember(key, render_select(spec.to_statement()))

    def _recursive_sql(self, action: str, depth_bounded: bool = False) -> str:
        key = (
            "recursive_mle_bounded" if depth_bounded else "recursive_mle",
            True,
            action,
            self.rule_table.generation,
        )
        cached = self._rule_cache.get(key)
        if cached is not None:
            return cached
        # The bound itself is a parameter; any non-None value enables the
        # depth machinery in the spec builder.
        spec = queries.recursive_mle_spec(max_depth=0 if depth_bounded else None)
        spec = self.modificator.modify_recursive(
            spec, action, exists_placement=self.exists_placement
        )
        return self._remember(key, render_select(spec.to_statement()))

    # -- object fetch --------------------------------------------------------------

    def fetch_object(self, obid: int) -> Attrs:
        """Point-fetch one object (root bootstrap; not part of the paper's
        cost model, which assumes the root "is already at the client")."""
        result = self.connection.execute(queries.fetch_object_sql("assy"), [obid])
        if result.rows:
            return result.as_dicts()[0]
        result = self.connection.execute(queries.fetch_object_sql("comp"), [obid])
        if result.rows:
            attrs = result.as_dicts()[0]
            attrs.setdefault("dec", "")
            return attrs
        raise UnknownObjectError(f"no object with obid {obid}")

    # -- the three analysed actions ---------------------------------------------------

    def query(
        self,
        product_id: int,
        strategy: ExpandStrategy = ExpandStrategy.NAVIGATIONAL_LATE,
    ) -> ActionResult:
        """The 'Query' action: all nodes of a product, no structure info."""
        early = strategy is not ExpandStrategy.NAVIGATIONAL_LATE
        with self._action_span(
            "pdm.query", strategy=strategy.value, product_id=product_id
        ):
            begin = self._begin()
            sql = self._navigational_sql("set_query", early, Actions.QUERY)
            result = self.connection.execute(sql, [product_id, product_id])
            objects = result.as_dicts()
            if not early:
                objects = [
                    attrs
                    for attrs in objects
                    if self._permitted(attrs, Actions.QUERY)
                ]
            return self._finish(begin, objects=objects)

    def single_level_expand(
        self,
        parent_obid: int,
        strategy: ExpandStrategy = ExpandStrategy.NAVIGATIONAL_LATE,
    ) -> ActionResult:
        """Expand one level below *parent_obid* (one round trip)."""
        early = strategy is not ExpandStrategy.NAVIGATIONAL_LATE
        with self._action_span(
            "pdm.single_level_expand",
            strategy=strategy.value,
            parent_obid=parent_obid,
        ):
            begin = self._begin()
            children = self._fetch_children(parent_obid, early, Actions.EXPAND)
            return self._finish(
                begin,
                objects=[child for __, child in children],
            )

    def multi_level_expand(
        self,
        root_obid: int,
        strategy: ExpandStrategy = ExpandStrategy.NAVIGATIONAL_LATE,
        root_attrs: Optional[Attrs] = None,
        max_depth: Optional[int] = None,
    ) -> ActionResult:
        """Expand the structure below *root_obid*.

        ``root_attrs`` short-circuits the root bootstrap fetch (the model
        assumes the root is client-resident); without it one extra point
        query is issued before measurement starts.  ``max_depth`` bounds
        the expansion (a partial multi-level expand); None retrieves the
        entire structure.

        The expand degrades instead of failing.  A round trip lost for
        good (the connection's retries exhausted or its circuit breaker
        open) is re-issued alone — one navigational child fetch or one
        level batch — after the breaker's cool-down has passed on the
        simulated clock; after :data:`MAX_RESUMES` such resumes the expand
        gives up with :class:`~repro.errors.ExpandInterrupted`.  A lost
        recursive response falls back to the batched levels: the same
        visible tree in the batched strategy's shape, with one level as
        the unit of loss.  The measurement covers all of it — timeouts,
        backoff, cool-downs, the fallback's extra round trips.
        """
        if root_attrs is None:
            root_attrs = self.fetch_object(root_obid)
        with self._action_span(
            "pdm.multi_level_expand",
            strategy=strategy.value,
            root_obid=root_obid,
            max_depth=max_depth,
        ):
            begin = self._begin()
            if strategy is ExpandStrategy.RECURSIVE_EARLY:
                try:
                    tree = self._expand_recursive(
                        root_obid, root_attrs, max_depth
                    )
                except (TimeoutError, CircuitOpenError):
                    self.statistics["recursive_fallbacks"] += 1
                    if self.recorder is not None:
                        self.recorder.event("pdm.recursive_fallback")
                    self._wait_for_circuit()
                    strategy = ExpandStrategy.EXPAND_BATCHED
                else:
                    return self._finish(begin, tree=tree)
            if strategy is ExpandStrategy.EXPAND_BATCHED:
                tree = self._expand_batched(root_obid, root_attrs, max_depth)
            else:
                early = strategy is ExpandStrategy.NAVIGATIONAL_EARLY
                tree = self._expand_navigational(
                    root_obid, root_attrs, early, max_depth
                )
            tree = self._apply_tree_conditions_late(
                tree, Actions.MULTI_LEVEL_EXPAND
            )
            return self._finish(begin, tree=tree)

    def _wait_for_circuit(self) -> None:
        """Advance the simulated clock until the breaker allows a trial."""
        breaker = self.connection.circuit_breaker
        clock = self.connection.link.clock
        if breaker is not None and not breaker.allow(clock.now):
            clock.advance(
                breaker.seconds_until_trial(clock.now), "circuit_wait"
            )

    def _resume(self, error: ReproError, lost: str, resumes: int) -> int:
        """Count one resume of the round trip that *error* lost (*lost*
        names it) and wait out the breaker's cool-down; returns the
        expand's new resume count.  An expand that has already resumed
        :data:`MAX_RESUMES` times gives up instead."""
        if resumes == MAX_RESUMES:
            raise ExpandInterrupted(
                f"lost {lost} after {MAX_RESUMES} resumes (simulated "
                f"t={self.connection.link.clock.now:.1f}s): {error}"
            ) from error
        self.statistics["expand_resumes"] += 1
        self._wait_for_circuit()
        return resumes + 1

    def _fetch_children(
        self, parent_obid: int, early: bool, action: str
    ) -> List[Tuple[Attrs, Attrs]]:
        """One navigational child fetch; returns (link, node) attr pairs,
        filtered by row rules (server-side when *early*)."""
        sql = self._navigational_sql("child_fetch", early, action)
        result = self.connection.execute(sql, [parent_obid, parent_obid])
        children = _child_pairs(result)
        if early:
            return children
        return [
            (link_attrs, node_attrs)
            for link_attrs, node_attrs in children
            if self._permitted(link_attrs, action)
            and self._permitted(node_attrs, action)
        ]

    @staticmethod
    def _padded_chunks(keys: List[Any]) -> List[List[Any]]:
        """Split a frontier into ≤BATCH_CHUNK_KEYS chunks, each padded (by
        repeating its first key) up to the next BATCH_KEY_BUCKETS size."""
        chunks: List[List[Any]] = []
        for start in range(0, len(keys), BATCH_CHUNK_KEYS):
            chunk = keys[start : start + BATCH_CHUNK_KEYS]
            bucket = next(
                size for size in BATCH_KEY_BUCKETS if size >= len(chunk)
            )
            chunks.append(chunk + [chunk[0]] * (bucket - len(chunk)))
        return chunks

    def _expand_navigational(
        self,
        root_obid: int,
        root_attrs: Attrs,
        early: bool,
        max_depth: Optional[int] = None,
    ) -> StructureNode:
        """BFS of single-level expands (the paper's baseline): one query
        per visible node, leaves included (unless the depth bound stops
        the descent earlier).  A lost child fetch goes back on the queue
        and is the next one re-issued."""
        root = StructureNode(attrs=dict(root_attrs))
        queue = [(root, 0)]
        resumes = 0
        while queue:
            node, depth = queue.pop()
            if max_depth is not None and depth >= max_depth:
                continue
            try:
                children = self._fetch_children(
                    node.obid, early, Actions.MULTI_LEVEL_EXPAND
                )
            except (TimeoutError, CircuitOpenError) as error:
                resumes = self._resume(
                    error, f"the child fetch of {node.obid}", resumes
                )
                queue.append((node, depth))
                continue
            for link_attrs, child_attrs in children:
                child = StructureNode(attrs=child_attrs, link=link_attrs)
                node.children.append(child)
                queue.append((child, depth + 1))
        return root

    def _expand_batched(
        self,
        root_obid: int,
        root_attrs: Attrs,
        max_depth: Optional[int] = None,
    ) -> StructureNode:
        """Level-at-a-time BFS over the pipelined batch protocol.

        Each level ships ONE :meth:`RemoteConnection.execute_batch` call
        carrying a frontier fetch per child type (chunked and padded to
        the bucket shapes), so the whole expand costs one round trip per
        level — O(depth) instead of the navigational O(node count).
        Components are leaves by construction, so only assemblies enter
        the next frontier; the deepest (all-component) level therefore
        triggers no query, and a depth-δ tree costs exactly δ trips.

        Row rules are injected server-side (Approach 1); tree conditions
        are applied late by the caller, as for the navigational paths.

        A lost level batch is re-issued for the same frontier, in a fresh
        ``pdm.expand_level`` span: the completed levels are never fetched
        again.
        """
        root = StructureNode(attrs=dict(root_attrs))
        frontier = [root] if str(root.object_type) != "comp" else []
        depth = resumes = 0
        while frontier and (max_depth is None or depth < max_depth):
            try:
                with maybe_span(
                    self.recorder,
                    "pdm.expand_level",
                    kind="pdm",
                    depth=depth,
                    parents=len(frontier),
                ) as span:
                    keys: List[Any] = []
                    seen = set()
                    for node in frontier:
                        if node.obid not in seen:
                            seen.add(node.obid)
                            keys.append(node.obid)
                    statements: List[Tuple[str, List[Any]]] = []
                    for node_type in ("assy", "comp"):
                        for chunk in self._padded_chunks(keys):
                            sql = self._batched_sql(
                                node_type,
                                len(chunk),
                                Actions.MULTI_LEVEL_EXPAND,
                            )
                            statements.append((sql, chunk))
                    batch_results = self.connection.execute_batch(statements)
                    children_by_parent: Dict[
                        Any, List[Tuple[Attrs, Attrs]]
                    ] = {}
                    for result in batch_results:
                        if isinstance(result, ReproError):
                            raise result
                        for link_attrs, node_attrs in _child_pairs(result):
                            children_by_parent.setdefault(
                                link_attrs["left"], []
                            ).append((link_attrs, node_attrs))
                    next_frontier: List[StructureNode] = []
                    for node in frontier:
                        for link_attrs, child_attrs in children_by_parent.get(
                            node.obid, ()
                        ):
                            child = StructureNode(
                                attrs=dict(child_attrs), link=dict(link_attrs)
                            )
                            node.children.append(child)
                            if str(child.object_type) != "comp":
                                next_frontier.append(child)
                    if span is not None:
                        span.meta["children"] = sum(
                            len(found)
                            for found in children_by_parent.values()
                        )
            except (TimeoutError, CircuitOpenError) as error:
                # Caught outside the level's span, so the breaker wait is
                # charged to the expand's root span.
                resumes = self._resume(
                    error,
                    f"the level-{depth} frontier batch "
                    f"({len(frontier)} parents)",
                    resumes,
                )
                continue
            frontier = next_frontier
            depth += 1
        return root

    def _expand_recursive(
        self,
        root_obid: int,
        root_attrs: Attrs,
        max_depth: Optional[int] = None,
    ) -> Optional[StructureNode]:
        """The single recursive query of Section 5.2 (one round trip)."""
        bounded = max_depth is not None
        sql = self._recursive_sql(Actions.MULTI_LEVEL_EXPAND, bounded)
        params = (
            [root_obid, max_depth, max_depth] if bounded else [root_obid]
        )
        result = self.connection.execute(sql, params)
        return build_tree(result.columns, result.rows, root_obid, root_attrs)

    # -- where-used (reverse BOM) -----------------------------------------------------

    def where_used(
        self,
        obid: int,
        strategy: ExpandStrategy = ExpandStrategy.RECURSIVE_EARLY,
    ) -> ActionResult:
        """All objects whose structure (transitively) contains *obid* —
        the classic "where-used" PDM query, e.g. before changing a shared
        component.

        The recursive strategy walks upward in one round trip; the
        navigational strategies climb parent by parent (one round trip
        per visited ancestor), exactly mirroring the expand analysis.
        Returns the ancestors as ``objects`` (attr dicts with ``obid``,
        ``via_link`` and ``distance``), nearest first; *obid* itself is
        not included.
        """
        with self._action_span(
            "pdm.where_used", strategy=strategy.value, obid=obid
        ):
            begin = self._begin()
            if strategy is ExpandStrategy.RECURSIVE_EARLY:
                result = self.connection.execute(
                    queries.where_used_recursive_sql(), [obid]
                )
                ancestors = [
                    attrs
                    for attrs in result.as_dicts()
                    if attrs["distance"] > 0
                ]
            else:
                ancestors = self._where_used_navigational(obid)
            return self._finish(begin, objects=ancestors)

    def _where_used_navigational(self, obid: int) -> List[Attrs]:
        sql = queries.where_used_parents_sql()
        ancestors: List[Attrs] = []
        seen = {obid}
        frontier = [(obid, 0)]
        while frontier:
            current, distance = frontier.pop()
            result = self.connection.execute(sql, [current])
            for row in result.as_dicts():
                parent = row["obid"]
                if parent in seen:
                    continue
                seen.add(parent)
                ancestors.append(
                    {
                        "obid": parent,
                        "via_link": row["via_link"],
                        "distance": distance + 1,
                    }
                )
                frontier.append((parent, distance + 1))
        ancestors.sort(key=lambda attrs: (attrs["distance"], attrs["obid"]))
        return ancestors

    # -- check-out / check-in (Section 6 discussion) ---------------------------------

    def check_out(
        self,
        root_obid: int,
        mode: CheckOutMode = CheckOutMode.TWO_PHASE,
        root_attrs: Optional[Attrs] = None,
    ) -> ActionResult:
        """Gain exclusive access to an entire subtree.

        TWO_PHASE retrieves the subtree (recursive query, rules applied
        under the ``check_out`` action — e.g. the ∀rows "all checked in"
        condition of paper example 2) and then updates the checked-out
        flags with one UPDATE per node table: 3 round trips.
        SERVER_PROCEDURE ships the whole operation to the server: 1.
        """
        if mode is CheckOutMode.SERVER_PROCEDURE:
            with self._action_span(
                "pdm.check_out", mode=mode.value, root_obid=root_obid
            ):
                begin = self._begin()
                obids = self.connection.call_procedure(
                    "check_out_tree", [root_obid, self.user]
                )
                return self._finish(
                    begin, checked_out=[int(o) for o in obids]
                )
        if root_attrs is None:
            root_attrs = self.fetch_object(root_obid)
        with self._action_span(
            "pdm.check_out", mode=mode.value, root_obid=root_obid
        ):
            begin = self._begin()
            sql = self._recursive_sql(Actions.CHECK_OUT)
            result = self.connection.execute(sql, [root_obid])
            tree = build_tree(
                result.columns, result.rows, root_obid, root_attrs
            )
            if tree is None:
                raise CheckOutError(
                    f"check-out of {root_obid} denied: the rule conditions "
                    f"rejected the subtree (e.g. a node is already checked "
                    f"out)"
                )
            grouped = tree.obids_by_type()
            checked: List[int] = []
            for table in ("assy", "comp"):
                obids = grouped.get(table, [])
                if not obids:
                    continue
                self.connection.execute(
                    queries.update_checkout_sql(table, len(obids), "TRUE"),
                    [self.user] + obids,
                )
                checked.extend(obids)
            return self._finish(begin, checked_out=checked, tree=tree)

    def check_in(
        self, root_obid: int, mode: CheckOutMode = CheckOutMode.TWO_PHASE
    ) -> ActionResult:
        """Release a previously checked-out subtree."""
        with self._action_span(
            "pdm.check_in", mode=mode.value, root_obid=root_obid
        ):
            begin = self._begin()
            if mode is CheckOutMode.SERVER_PROCEDURE:
                obids = self.connection.call_procedure(
                    "check_in_tree", [root_obid, self.user]
                )
                return self._finish(
                    begin, checked_out=[int(o) for o in obids]
                )
            result = self.connection.execute(
                "SELECT obid FROM assy WHERE checkedout_by = ? "
                "UNION ALL SELECT obid FROM comp WHERE checkedout_by = ?",
                [self.user, self.user],
            )
            obids = [row[0] for row in result.rows]
            released: List[int] = []
            for table in ("assy", "comp"):
                if not obids:
                    break
                self.connection.execute(
                    f"UPDATE {table} SET checkedout = FALSE, "
                    f"checkedout_by = '' WHERE checkedout_by = ?",
                    [self.user],
                )
            released = obids
            return self._finish(begin, checked_out=released)
