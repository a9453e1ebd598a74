"""Built-in query corpus: every statement the PDM layer can emit.

Used by the ``--templates`` CLI mode and by the analyzer self-check test:
the paper's Sections 4-5 argue these rewrites are correct, and the
analyzer turns that argument into an executable check — every template
must be lint-clean (nothing at WARNING or above).

The corpus comes from :mod:`repro.pdm` and :mod:`repro.rules`, imported
inside the functions, so importing :mod:`repro.analysis` does not load
the PDM layer.  Nothing below the analyzer imports it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple


def template_queries() -> List[Tuple[str, str]]:
    """(name, sql) pairs covering the PDM builders and rule rewrites."""
    from repro.pdm import queries
    from repro.pdm.operations import BATCH_KEY_BUCKETS
    from repro.rules.conditions import ExistsStructure, TreeAggregate, Const
    from repro.rules.model import Actions, Rule
    from repro.rules.modificator import ExistsPlacement, QueryModificator
    from repro.rules.presets import (
        checkout_all_checked_in_rule,
        effectivity_rule,
        make_not_buy_rule,
        structure_option_rules,
    )
    from repro.rules.ruletable import RuleTable
    from repro.sqldb.render import render_select

    templates: List[Tuple[str, str]] = []

    def add(name: str, sql: str) -> None:
        templates.append((name, sql))

    # -- plain PDM builders (Sections 2, 4.2, 5.2, 5.6) --------------------
    add("child-fetch", render_select(queries.child_fetch_spec().to_statement()))
    add("set-query", render_select(queries.set_query_spec().to_statement()))
    for node_type in ("assy", "comp"):
        for bucket in BATCH_KEY_BUCKETS:
            add(
                f"batched-children-{node_type}-{bucket}",
                render_select(
                    queries.batched_children_spec(
                        node_type, bucket
                    ).to_statement()
                ),
            )
        add(f"fetch-object-{node_type}", queries.fetch_object_sql(node_type))
    add("mle-recursive", render_select(queries.recursive_mle_spec().to_statement()))
    add(
        "mle-recursive-ordered",
        render_select(queries.recursive_mle_spec(order_by=True).to_statement()),
    )
    add(
        "mle-recursive-depth-bounded",
        render_select(
            queries.recursive_mle_spec(max_depth=3).to_statement()
        ),
    )
    add("where-used-recursive", queries.where_used_recursive_sql())
    add("where-used-parents", queries.where_used_parents_sql())
    for bucket in (1, 4):
        add(
            f"update-checkout-{bucket}",
            queries.update_checkout_sql("assy", bucket, "TRUE"),
        )

    # -- Section 4 / 5.5 rewrites ------------------------------------------
    user_env: Dict[str, object] = {"user_options": 3, "effectivity_unit": 5}
    rules = list(structure_option_rules()) + [
        effectivity_rule(),
        make_not_buy_rule(),
        checkout_all_checked_in_rule(),
        Rule(
            user="*",
            action=Actions.MULTI_LEVEL_EXPAND,
            object_type="assy",
            condition=ExistsStructure(
                object_type="assy",
                relation_table="link",
                related_table="comp",
            ),
            name="has-component",
        ),
        Rule(
            user="*",
            action=Actions.MULTI_LEVEL_EXPAND,
            object_type="assy",
            condition=TreeAggregate("COUNT", None, "<=", Const(100_000)),
            name="tree-not-too-large",
        ),
    ]

    def modificator() -> QueryModificator:
        return QueryModificator(RuleTable(rules), "scott", user_env)

    add(
        "rewrite-mle-early-inside",
        render_select(
            modificator()
            .modify_recursive(
                queries.recursive_mle_spec(),
                Actions.MULTI_LEVEL_EXPAND,
                ExistsPlacement.INSIDE,
            )
            .to_statement()
        ),
    )
    add(
        "rewrite-mle-early-outside",
        render_select(
            modificator()
            .modify_recursive(
                queries.recursive_mle_spec(),
                Actions.MULTI_LEVEL_EXPAND,
                ExistsPlacement.OUTSIDE,
            )
            .to_statement()
        ),
    )
    add(
        "rewrite-mle-checkout-forall",
        render_select(
            modificator()
            .modify_recursive(
                queries.recursive_mle_spec(), Actions.CHECK_OUT
            )
            .to_statement()
        ),
    )
    add(
        "rewrite-navigational-early",
        render_select(
            modificator()
            .modify_navigational(queries.child_fetch_spec(), Actions.EXPAND)
            .to_statement()
        ),
    )
    return templates


def table2_late_workload(nodes: int = 100) -> List[str]:
    """The Table 2 late-evaluation workload: one child-fetch round trip
    per visited node (the navigational multi-level expand), as issued by
    :class:`repro.pdm.operations.PDMClient` under NAVIGATIONAL_LATE."""
    from repro.pdm import queries
    from repro.sqldb.render import render_select

    child_fetch = render_select(queries.child_fetch_spec().to_statement())
    return [child_fetch] * nodes


def recursive_early_workload() -> List[str]:
    """The Table 4 recursive-early counterpart: one statement, total."""
    from repro.pdm import queries
    from repro.sqldb.render import render_select

    return [render_select(queries.recursive_mle_spec().to_statement())]
