"""lock-order: global mutex-acquisition graph, cycle check, hierarchy doc.

Every acquisition of lock B while lock A is held — directly (a nested
MutexLock / Lock() / REQUIRES entry contract) or through a resolved call
chain (A held at a call whose callee may acquire B) — contributes an edge
A -> B. The union over the whole tree must be a DAG: a cycle means two
threads can acquire the same pair of locks in opposite orders, i.e. a
deadlock that no amount of per-lock thread-safety annotation can see.

The derived DAG is emitted as docs/LOCK_ORDER.md (render_doc) so the
acquisition order is a reviewed artifact: a new edge shows up in the diff
of a generated file, not only in a reviewer's head.

A call the frontend cannot resolve (a procedure-vector entry such as an
SM's `open`) reaches the targets config.toml lists for it under
[[lock_order.indirect_calls]].

An edge can be waived at its acquisition/call site with
`// deeplint: allow(lock-order, reason)`; waived edges are removed before
the cycle check (waiving any single edge of a cycle breaks it).
"""

from __future__ import annotations

from collections import defaultdict

from model import Finding

RULE = "lock-order"


class _Graph:
    def __init__(self):
        # (src, dst) -> list of sites (path, line, fn_qual)
        self.edges = defaultdict(list)
        self.locks = set()

    def add(self, src, dst, site):
        if src == dst:
            return  # re-entry is EXCLUDES/TSA territory, not ordering
        self.edges[(src, dst)].append(site)
        self.locks.update((src, dst))


def _function_table(models):
    table, by_name = {}, defaultdict(list)
    for tu in models:
        for fn in tu.functions:
            table.setdefault(fn.qual, fn)
            by_name[fn.name].append(fn)
    return table, by_name


def _resolve_callee(call, fn, table, by_name):
    if call.recv_type:
        target = table.get(f"{call.recv_type}::{call.name}")
        if target:
            return target
        # recv_type may be a qualified class; try its last component too.
        if "::" in call.recv_type:
            tail = call.recv_type.rsplit("::", 1)[1]
            target = table.get(f"{tail}::{call.name}")
            if target:
                return target
        return None
    if call.recv is None:
        if "::" in call.expr:
            target = table.get(call.expr)
            if target:
                return target
            cands = [f for f in by_name.get(call.name, ())
                     if f.qual.endswith(call.expr)]
            if len(cands) == 1:
                return cands[0]
            return None
        if fn.cls:
            target = table.get(f"{fn.cls}::{call.name}")
            if target:
                return target
        cands = by_name.get(call.name, ())
        if len(cands) == 1:
            return cands[0]
    return None


def _indirect_calls(ctx):
    """(caller, entry) -> target function names, from config.toml's
    [[lock_order.indirect_calls]]: calls no receiver type resolves, such
    as a procedure-vector entry."""
    out = {}
    for c in ctx.config.get("lock_order", {}).get("indirect_calls", []):
        out[(c["caller"], c["entry"])] = list(c["targets"])
    return out


def _callees(call, fn, table, by_name, indirect):
    """The functions `call` in `fn` may reach: the resolved callee, or the
    targets configured for a call it cannot resolve."""
    t = _resolve_callee(call, fn, table, by_name)
    if t is not None:
        return [t]
    return [table[q] for q in indirect.get((fn.qual, call.name), ())
            if q in table]


def _acquire_closure(models, table, by_name, indirect):
    """lock set each function may acquire, transitively through resolved
    calls (fixpoint; cycles in the call graph converge)."""
    acq = {q: {ev.lock for ev in fn.acquires}
           for q, fn in table.items()}
    callees = {}
    for q, fn in table.items():
        tgts = []
        for call in fn.calls:
            for t in _callees(call, fn, table, by_name, indirect):
                if t.qual != q:
                    tgts.append(t.qual)
        callees[q] = tgts
    changed = True
    while changed:
        changed = False
        for q, tgts in callees.items():
            cur = acq[q]
            before = len(cur)
            for t in tgts:
                cur |= acq[t]
            if len(cur) != before:
                changed = True
    return acq


def build_graph(models, ctx):
    """Returns (graph, waived_edges) with suppressed edges removed."""
    table, by_name = _function_table(models)
    indirect = _indirect_calls(ctx)
    closure = _acquire_closure(models, table, by_name, indirect)
    g = _Graph()
    waived = []

    def site_ok(path, line):
        return not ctx.is_suppressed(path, line, RULE)

    for tu in models:
        for fn in tu.functions:
            for ev in fn.acquires:
                g.locks.add(ev.lock)
                for h in ev.held:
                    site = (tu.path, ev.line, fn.qual)
                    if site_ok(tu.path, ev.line):
                        g.add(h, ev.lock, site)
                    else:
                        waived.append((h, ev.lock, site))
            for call in fn.calls:
                if not call.held:
                    continue
                for callee in _callees(call, fn, table, by_name,
                                       indirect):
                    for inner in sorted(closure.get(callee.qual, ())):
                        site = (tu.path, call.line,
                                f"{fn.qual} -> {callee.qual}")
                        for h in call.held:
                            if site_ok(tu.path, call.line):
                                g.add(h, inner, site)
                            else:
                                waived.append((h, inner, site))
    return g, waived


def _sccs(nodes, succ):
    """Tarjan SCC, iterative."""
    index, low, on, stack = {}, {}, set(), []
    out, counter = [], [0]
    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(succ(root)))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on.add(w)
                    work.append((w, iter(succ(w))))
                    advanced = True
                    break
                if w in on:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                out.append(comp)
    return out


def run(models, ctx):
    g, _ = build_graph(models, ctx)
    succ_map = defaultdict(set)
    for (a, b) in g.edges:
        succ_map[a].add(b)
    findings = []
    for comp in _sccs(sorted(g.locks), lambda v: sorted(succ_map[v])):
        if len(comp) < 2:
            continue
        comp_set = set(comp)
        sites = []
        for (a, b), ss in sorted(g.edges.items()):
            if a in comp_set and b in comp_set:
                path, line, where = ss[0]
                sites.append(f"{a} -> {b} at {path}:{line} ({where})")
        path, line, _ = next(
            ss[0] for (a, b), ss in sorted(g.edges.items())
            if a in comp_set and b in comp_set)
        findings.append(Finding(
            path, line, RULE,
            "lock acquisition cycle {%s}: opposite-order acquisition is "
            "a deadlock; reorder, split the critical section, or waive "
            "one edge with a reason. Edges: %s"
            % (", ".join(sorted(comp_set)), "; ".join(sites))))
    return findings


def render_doc(models, ctx):
    """Markdown lock-hierarchy artifact (docs/LOCK_ORDER.md)."""
    g, waived = build_graph(models, ctx)
    succ_map = defaultdict(set)
    pred_map = defaultdict(set)
    for (a, b) in g.edges:
        succ_map[a].add(b)
        pred_map[b].add(a)
    # Longest-path-from-root rank; cycles (if any) get rank "?" and the
    # doc still renders so the failing run shows its work.
    rank = {}
    order = []
    ready = sorted(l for l in g.locks if not pred_map[l])
    indeg = {l: len(pred_map[l]) for l in g.locks}
    queue = list(ready)
    while queue:
        v = queue.pop(0)
        order.append(v)
        rank.setdefault(v, 0)
        for w in sorted(succ_map[v]):
            rank[w] = max(rank.get(w, 0), rank[v] + 1)
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    lines = [
        "# Lock acquisition order",
        "",
        "<!-- Generated by tools/dmx_deeplint (lock-order pass). -->",
        "<!-- Regenerate: python3 tools/dmx_deeplint/deeplint.py"
        " --emit-lock-order docs/LOCK_ORDER.md src -->",
        "",
        "Derived from every nested mutex acquisition in the tree (direct",
        "nesting, `REQUIRES` entry contracts, and lock-holding calls into",
        "functions that acquire). `A -> B` means A is held while B is",
        "acquired somewhere, so **A must always be acquired before B**.",
        "The graph must stay acyclic; the deeplint ctest fails on a cycle",
        "and on drift between this file and the tree.",
        "",
        "## Hierarchy (outermost first)",
        "",
    ]
    levels = defaultdict(list)
    for lock in sorted(g.locks):
        levels[rank.get(lock, "?")].append(lock)
    for lvl in sorted(levels, key=lambda x: (x == "?", x)):
        locks = ", ".join(f"`{l}`" for l in levels[lvl])
        lines.append(f"- **Level {lvl}**: {locks}")
    lines += ["", "## Edges (held -> acquired)", ""]
    for (a, b), sites in sorted(g.edges.items()):
        path, line, where = sites[0]
        extra = f" (+{len(sites) - 1} more)" if len(sites) > 1 else ""
        lines.append(f"- `{a}` -> `{b}` — {path}:{line} in "
                     f"`{where}`{extra}")
    if waived:
        lines += ["", "## Waived edges (deeplint: allow(lock-order))", ""]
        for a, b, (path, line, where) in sorted(waived):
            lines.append(f"- `{a}` -> `{b}` — {path}:{line} in `{where}`")
    solo = sorted(l for l in g.locks
                  if not succ_map[l] and not pred_map[l])
    if solo:
        lines += ["", "## Standalone locks (never nested with another)",
                  ""]
        lines.append(", ".join(f"`{l}`" for l in solo))
    lines.append("")
    return "\n".join(lines)
