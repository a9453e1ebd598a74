"""Pipeline emission: one generated loop per chain of stages.

A *pipeline* is a source's batches run through a chain of non-blocking
stages — filters, projections, joins — into a sink: the rows a consumer
takes, an aggregate's groups, a hash join's table, or the rows DISTINCT
or a set operation keeps.  :func:`pipeline` writes the whole chain as
the text of one Python function with the expression compiler's emitter
(:mod:`repro.sqldb.expressions`): one row loop, the one form with SQL's
semantics, and a column loop for a large batch, which hands the row loop
any batch it refuses.  A row reaches the next stage as local names — a
joined row as its left and found tuples, a projected one as its values —
so no row is built or gathered between two stages, only for the sink.
This is data-centric compilation (Neumann, "Efficiently Compiling
Efficient Query Plans for Modern Hardware", VLDB 2011), as Python text.
"""

from __future__ import annotations

import functools
import re
from typing import Any, Collection, List, Optional, Sequence, Tuple

from repro.errors import ExecutionError
from repro.sqldb.columnar import SMALL_BATCH
from repro.sqldb.expressions import (
    _NUM,
    IR,
    Program,
    Recipe,
    _compile,
    _Emitter,
    _row_dependent,
    _template,
    _test,
)

#: Stage and sink tags (see :func:`pipeline`).
FILTER = "filter"
RECHECK = "recheck"
PROJECT = "project"
JOIN = "join"
ROWS = "rows"
COLUMNS = "columns"
GROUPS = "groups"
BUILD = "build"
DISTINCT = "distinct"

#: The classes of SQL values; those a number (True) or a string mismatches.
_CLASSES = frozenset((int, float, bool, str, type(None)))
_OTHER = {True: {str}, False: {int, float, bool}}


def pipeline(arity: int, stages: Sequence[tuple], sink: tuple) -> Program:
    """Generate (or reuse) one loop that runs *stages* over the rows of a
    batch of *arity* slots into *sink*, and bind it to their literals.

    Each stage and the sink is ``(tag, irs, data)``:

    * ``(FILTER, (ir,), None)`` keeps the rows where *ir* is TRUE;
      ``(RECHECK, (ir,), None)`` too, but only when the loop's ``scan``
      argument is true (an index probe's own conjunct, which every row it
      probed passes);
    * ``(PROJECT, irs, None)``: the slots become *irs*;
    * ``(JOIN, keys + residual, (key count, arity, left, storage, index,
      classes))``: per row, the rows of ``storage.probe(index, keys,
      snapshot)`` — read through ``storage.live_probe(index)`` where no
      version chain is to be resolved — each appended to it where the
      residual (if any) is TRUE; a LEFT join pads a row none matches with
      NULLs.  The probes and the rows they find are added to the
      ``index_probes`` and ``rows_scanned`` counters.  Without ``storage,
      index, classes`` the rows come from a :data:`BUILD` table of the
      loop's ``state`` (none for a NULL key, all for no key).  A key is
      checked against the probed side's :func:`key_classes`;
    * the sink ``(ROWS, (), None)``: the list of the final rows;
      ``(COLUMNS, irs, None)``, after no stage: a list of the values of
      each of *irs*;
      ``(GROUPS, keys + arguments, key count)``: ``{group key: (column,
      ...)}``, each argument's values in row order (one column of
      ``None`` per row when there is no argument), the key of one key its
      value, from the group's first row the loop keeps (in a chunk with
      :func:`~repro.sqldb.columnar.group_numbers` for keys that are
      source slots, a row finds its group by a list index);
      ``(BUILD, keys, None)``: the same with the row as the
      argument; or ``(DISTINCT, (), keep)``: the rows new to the state's
      ``seen`` set (and, but for a *keep* of None, whose presence in its
      ``right`` set is *keep*), added to it once the loop is done.

    ``row(b, env, scan, state)`` runs a :class:`~repro.sqldb.columnar.Batch`
    over its columns (pivoting them) where it is large or pivoted, the
    column loop's prechecks hold and its guard does not trip, else over
    its rows.  ``state`` holds each built join's table, in order, then the
    sink's sets.
    """
    values: List[Any] = []
    templates = []
    try:
        for tag, irs, data in list(stages) + [sink]:
            if tag == JOIN and data[3:]:
                storage, index, classes = data[3:]
                runtime = (storage.probe, index) + storage.live_probe(index) + classes
                data = data[:3] + tuple(values.append(v) or len(values) - 1 for v in runtime)
            templates.append((tag, tuple([_template(ir, values) for ir in irs]), data))
        source, recipes = _pipeline_source(arity, tuple(templates))
        make = _compile(source)
    except (SyntaxError, RecursionError):
        raise ExecutionError("expression is too deeply nested to compile") from None
    exprs = tuple(ir for __, irs, __ in stages for ir in irs)
    return Program(make(*[recipe(values) for recipe in recipes]), exprs, source)


def key_columns(arity: int, irs: Sequence[IR]) -> Program:
    """The loop computing each of *irs* as a column over the rows of a
    batch of *arity* slots (a sort's keys)."""
    return pipeline(arity, [], (COLUMNS, tuple(irs), None))


class KeyClasses(frozenset):
    """:func:`key_classes`, and ``number``: a number of the probed side."""


def key_classes(values: Collection[Any]) -> KeyClasses:
    """The classes of a join key that ``=`` with any of the probed side's
    key *values* cannot make a ``TypeMismatchError``: the loop checks a
    key of another class (``expressions._unequal``)."""
    found = KeyClasses(_CLASSES.difference(*[_OTHER[kind] for kind in {isinstance(v, _NUM) for v in values if v is not None}]))
    found.number = next((v for v in values if isinstance(v, _NUM)), 0)
    return found


@functools.lru_cache(maxsize=512)
def _pipeline_source(arity: int, stages: Tuple[tuple, ...]) -> Tuple[str, Tuple[Recipe, ...]]:
    """The module text of one pipeline template (the stages, then the
    sink) and the recipes of its factory's arguments."""
    emitter = _Emitter()
    body = _indented(_loop(emitter, arity, stages))  # over the rows: SQL's semantics
    if not any(_row_dependent(ir) for __, irs, __ in stages for ir in irs):
        emitter.columns = True
        fast = _loop(emitter, arity, stages)
        if emitter.read:  # a column to read
            fast = _fast_block(emitter, fast)
            grouped = _group_slots(arity, stages)
            if grouped:  # over a chunk's group numbers, once they are built
                numbered = _fast_block(emitter, _loop(emitter, arity, stages, numbered=True))
                numbered = [f"numbers = cols[{grouped}]", "if numbers is not None:", *_indented(numbered, 1)]
                fast = numbered + ["else:"] + _indented(fast, 1)
            body = [
                "        cols = b.columns",
                f"        if cols is not None or len(b) > {SMALL_BATCH}:",  # else small, never pivoted
                "            if cols is None:",
                "                cols = b.columns = Columns(b)",
                *_indented(fast, 3),
                *body,  # what the column loop refuses
            ]
    # An uncorrelated IN (subquery) fetches its value set once per call.
    unfetched = [f"        {name} = None" for name, __ in emitter.value_sets.values()]
    unfetched += [f"        {name} = {text}" for text, name in emitter.bound.items()]
    arguments = ", ".join(f"k{index}" for index in range(len(emitter.recipes)))
    lines = [f"def make({arguments}):", "    def row(b, env, scan, state):", *unfetched, *body]
    return "\n".join(lines) + "\n    return row\n", tuple(emitter.recipes)


def _indented(lines: List[str], depth: int = 2) -> List[str]:
    return ["    " * depth + line for line in lines]


def _fast_block(emitter: _Emitter, loop: List[str]) -> List[str]:
    """The column *loop*, which ends in its ``return``, where it runs: its
    ``?`` values bound and hoisted, the kinds of the batch's columns
    (:class:`~repro.sqldb.columnar.Columns`) passing its prechecks, and
    under ``try`` where an ordering comparison guards it.  Where one of
    these fails, control falls past the lines (to the row loop)."""
    if emitter.guarded:
        loop = ["try:", *_indented(loop, 1), "except TypeError:", "    pass"]
    if emitter.prechecks:
        loop = [f"if {' and '.join(dict.fromkeys(emitter.prechecks))}:", *_indented(loop, 1)]
    kinds = sorted(emitter.kind_columns)
    loop = (["kinds = cols.kinds"] if kinds else []) + [f"y{s} = kinds[{s}]" for s in kinds] + loop
    if emitter.params:
        hoisted = [f"p{i} = env.params[{i}]" for i in sorted(emitter.params)]
        loop = [f"if len(env.params) > {max(emitter.params)}:", *_indented(hoisted + loop, 1)]
    return loop


def _group_slots(arity: int, stages: Sequence[tuple]) -> Optional[Tuple[int, ...]]:
    """The source slots a :data:`GROUPS` sink's keys read unchanged, if
    there are keys and no join (each row the sink takes is a source row)."""
    *steps, (sink, keys, count) = stages
    if sink != GROUPS or any(step[0] == JOIN for step in steps):
        return None
    sources: List[Optional[int]] = list(range(arity))
    for step, irs, __ in steps:
        if step == PROJECT:
            sources = [sources[ir[1]] if ir[0] == "slot" else None for ir in irs]
    slots = tuple(sources[ir[1]] if ir[0] == "slot" else None for ir in keys[:count])
    return slots if slots and None not in slots else None


#: A slot read out of a row tuple: ``r[3]``, ``q1[0]``.
_ITEM = re.compile(r"([a-z]\w*)\[(\d+)\]\Z")


def _tuple_text(texts: List[str]) -> str:
    """A tuple of the values of *texts*; a run of consecutive items of one
    row tuple (``q1[2], q1[3], q1[4]``) is one slice of it."""
    parts: List[Any] = []  # texts, and [tuple, first, stop] runs
    for text in texts:
        item = _ITEM.match(text)
        last = parts[-1] if parts and isinstance(parts[-1], list) else None
        if item and last and last[0] == item.group(1) and last[2] == int(item.group(2)):
            last[2] += 1
        else:
            parts.append([item.group(1), int(item.group(2)), int(item.group(2)) + 1] if item else text)
    pieces: List[str] = []
    loose: List[str] = []
    for part in parts + [None]:
        if isinstance(part, list) and part[2] - part[1] == 1:
            part = f"{part[0]}[{part[1]}]"
        if isinstance(part, str):
            loose.append(part)
            continue
        if loose or (part is None and not pieces):
            pieces.append(f"({''.join(t + ', ' for t in loose)})")
            loose = []
        if part is not None:
            pieces.append(f"{part[0]}[{part[1]}:{part[2]}]")
    return pieces[0] if len(pieces) == 1 else f"({' + '.join(pieces)})"


def _loop(emitter: _Emitter, arity: int, stages: Sequence[tuple], numbered: bool = False) -> List[str]:
    """The statements of one form of a pipeline's loop — over the rows,
    or over the columns when ``emitter.columns`` (and a :data:`GROUPS`
    sink's group numbers ``_g`` when *numbered*) — ending in its
    ``return``."""
    columns = emitter.columns
    slot_texts = [f"_{s}" if columns else f"r[{s}]" for s in range(arity)]
    slot_sources: List[Any] = list(range(arity))
    emitter.slot_texts, emitter.slot_sources = slot_texts, slot_sources
    emitter.read = set()
    emitter.row = "r"
    whole = True  # does the current row's tuple hold the source row r?
    every_row = True  # does every source row reach the current stage?
    probed = False  # does an index join count probes?
    start: List[str] = []
    body: List[str] = []
    state: List[str] = []  # the names the loop's state unpacks to
    column_texts: List[str] = []
    depth = joins = projected = 0
    sink, __, keep = stages[-1]

    def line(text: str) -> None:
        body.append("    " * depth + text)

    def emit(ir: IR) -> str:
        return emitter.emit(ir).text

    for position, (tag, irs, data) in enumerate(stages):
        if emitter.row != "r" and any(_row_dependent(ir) for ir in irs):
            line(f"r{position} = {emitter.row}")  # name the row a subquery reads
            emitter.row = f"r{position}"
        if tag in (ROWS, DISTINCT, BUILD) and not whole:  # the sink reads the renamed slots
            emitter.read.update(s for s in slot_sources if s is not None)
        if tag in (FILTER, RECHECK):
            every_row = False
            test = _test(emitter.emit(irs[0]))
            line(f"if {'scan and ' if tag == RECHECK else ''}not ({test}): continue")
        elif tag == PROJECT:
            if irs == tuple(("slot", i, ()) for i in range(len(slot_texts))):
                continue  # every slot read in place
            texts: List[str] = []
            sources: List[Any] = []
            last = stages[position + 1][0] in (ROWS, DISTINCT)
            for ir in irs:
                if ir[0] == "slot" and not last:
                    # Renamed, not read: a later stage reads it if it needs it.
                    texts.append(slot_texts[ir[1]])
                    sources.append(slot_sources[ir[1]])
                    continue
                text = emitter.emit(ir)
                if not (text.name or last):
                    projected += 1
                    line(f"e{projected} = {text.text}")
                texts.append(text.text if text.name or last else f"e{projected}")
                sources.append(emitter.source_slot(ir) if ir[0] == "slot" else None)
            slot_texts, slot_sources = texts, sources
            emitter.slot_texts, emitter.slot_sources = slot_texts, slot_sources
            emitter.row = _tuple_text(texts)
            whole = False
        elif tag == JOIN:
            count, width, left = data[:3]
            joins += 1
            q, found = f"q{joins}", f"f{joins}"
            if data[3:]:  # an index join
                probe, index, slot_row, bucket, chains, *oks = map(emitter.literal, data[3:])
                start.append(f"direct{joins} = snapshot is None or not {chains}")
                if every_row:
                    start.append("probes += len(b)")  # every source row probes
                else:
                    line("probes += 1")
                probed = True
                line(f"key{joins} = ({''.join(emit(ir) + ', ' for ir in irs[:count])})")
                line(
                    f"{found} = list(map({slot_row}, {bucket}(key{joins}, ()))) if direct{joins} "
                    f"else {probe}({index}, key{joins}, snapshot)"
                )
                line(f"found += len({found})")
                # A key that finds a row equals a value of the column's declared kind.
                for i, ok in enumerate(oks):
                    line(f"if not {found} and key{joins}[{i}].__class__ not in {ok}: _unequal(key{joins}[{i}], {ok})")
            else:  # a built table may hold both kinds: every key is checked
                keys = [f"c{joins}_{i}" for i in range(count)]
                oks = [f"ok{joins}_{i}" for i in range(count)]
                state.append(f"(tab{joins}, {''.join(ok + ', ' for ok in oks)})")
                for name, ok, ir in zip(keys, oks, irs):
                    line(f"{name} = {emit(ir)}")
                    line(f"if {name}.__class__ not in {ok}: _unequal({name}, {ok})")
                key = keys[0] if count == 1 else _tuple_text(keys)
                nulls = f"() if {' or '.join(f'{k} is None' for k in keys)} else " if keys else ""
                line(f"{found} = {nulls}tab{joins}.get({key}, ())")
            every_row = False
            slot_texts = slot_texts + [f"{q}[{i}]" for i in range(width)]
            slot_sources = slot_sources + [None] * width
            emitter.slot_texts, emitter.slot_sources = slot_texts, slot_sources
            emitter.row = f"({emitter.row} + {q})"
            test = _test(emitter.emit(irs[count])) if irs[count:] else None
            if left and test is not None:
                line(f"m{joins} = [{q} for {q} in {found} if {test}]")
                found = f"m{joins}"
            line(f"for {q} in {found}{f' or {emitter.const(((None,) * width,))}' if left else ''}:")
            depth += 1
            if test is not None and not left:
                line(f"if not ({test}): continue")
        elif tag in (ROWS, DISTINCT):
            start[:0] = ["out = []", "append = out.append"]
            line(f"append({emitter.row})")
            result = "out"
        elif tag == COLUMNS:  # one comprehension per column, below
            column_texts = [emit(ir) for ir in irs]
        else:
            count = len(irs) if tag == BUILD else data
            keys, arguments = irs[:count], irs[count:]
            adds = [emitter.row] if tag == BUILD else [emit(ir) for ir in arguments] or ["None"]
            lists = len(adds)
            if keys:
                # One key is the dict key itself; more are a tuple.
                key = emit(keys[0]) if len(keys) == 1 else _tuple_text([emit(ir) for ir in keys])
                if numbered:  # the row's group number finds its appenders
                    start[:0] = ["groups = {}", "adds = [None] * len(numbers)"]
                    line("add = adds[_g]")
                    line("if add is None:")  # a new group, keyed by this row
                    found = "adds[_g]"
                else:
                    start[:0] = ["groups = {}", "appends = {}"]
                    line(f"key = {key}")
                    line("try:")
                    line("    add = appends[key]")
                    line("except KeyError:")  # a new group
                    found, key = "appends[key]", "key"
                line(f"    held = groups[{key}] = ({'[], ' * lists})")
                if lists == 1:
                    line(f"    add = {found} = held[0].append")
                    line(f"add({adds[0]})")
                else:
                    line(f"    add = {found} = ({''.join(f'held[{i}].append, ' for i in range(lists))})")
                    body.extend("    " * depth + f"add[{i}]({value})" for i, value in enumerate(adds))
                result = "groups"
            else:
                start[:0] = [f"held = ({'[], ' * lists})"]
                start += [f"add{i} = held[{i}].append" for i in range(lists)]
                body.extend("    " * depth + f"add{i}({value})" for i, value in enumerate(adds))
                result = "{(): held} if held[0] else {}"
    end: List[str] = []
    if probed:
        start[:0] = ["probes = found = 0", "snapshot = env.snapshot"]
        end = [
            "counters = env.counters",
            'counters["index_probes"] += probes',
            'counters["rows_scanned"] += found',
        ]
    if sink == DISTINCT:
        state += ["seen"] if keep is None else ["right", "seen"]
    unpack = [f"{''.join(name + ', ' for name in state)}= state"] if state else []
    names = (["_g"] if numbered else []) + (["r"] if whole and sink in (ROWS, DISTINCT, BUILD) else [])
    names += [f"_{s}" for s in sorted(emitter.read)]
    iterables = {"_g": "numbers", "r": "b", **{f"_{s}": f"cols[{s}]" for s in emitter.read}}
    if not columns or not names:
        head = "for r in b:"
    elif len(names) == 1:
        head = f"for {names[0]} in {iterables[names[0]]}:"
    else:
        head = f"for {', '.join(names)} in zip({', '.join(map(iterables.__getitem__, names))}):"
    if sink == COLUMNS:
        picked = [
            f"cols[{ir[1]}]" if columns and ir[0] == "slot" else f"[{text} {head[:-1]}]"
            for ir, text in zip(stages[-1][1], column_texts)
        ]
        return [f"return [{', '.join(picked)}]"]
    if body != [f"append({emitter.row})"]:
        lines = unpack + start + [head] + ["    " + text for text in body] + end
    elif emitter.row == "r":  # no stage
        lines, result = unpack, "b"
    elif columns and not whole and None not in slot_sources:  # a projection of columns only
        lines, result = unpack, f"list(zip({', '.join(f'cols[{s}]' for s in slot_sources)}))"
    else:  # a bare projection
        lines, result = unpack, f"[{emitter.row} {head[:-1]}]"
    if sink == DISTINCT:  # first sightings (kept where their presence in right is keep)
        kept = "" if keep is None else f" and r {'in' if keep else 'not in'} right"
        lines += ["fresh = []", f"for r in {result}:", f"    if r not in seen{kept}:"]
        lines += ["        seen.add(r)", "        fresh.append(r)"]
        result = "fresh"
    return lines + [f"return {result}"]
