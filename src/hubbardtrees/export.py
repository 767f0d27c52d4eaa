"""Deterministic tree exports: JSON, DOT, SVG, and a plain text listing.

Node ids follow the breadth-first order from the critical value with
lexicographic itinerary tie-breaking, so identical trees always export
byte-identical artifacts.  The SVG layout (layered, critical value at the
root) is presentation only and carries no contract.
"""

from __future__ import annotations

import json
from typing import Dict

from .symbolic import INF, format_sequence
from .treebuild import HubbardTree, vertex_order


def _meta(tree: HubbardTree) -> dict:
    mode, trunc = tree.mode
    return {
        "nu": format_sequence(tree.nu),
        "degree": "inf" if tree.degree is INF else tree.degree,
        "mode": mode,
        "truncation": trunc,
    }


def _nodes_edges(tree: HubbardTree):
    """Vertex ids, node records and edge records, each Fatou flag once."""
    order = vertex_order(tree)
    flagged = [(u, v, tree.is_fatou_edge(u, v)) for u, v in tree.edges()]
    fatou_ends = {x for u, v, f in flagged if f for x in (u, v)}
    nodes = [{"id": i, "itinerary": format_sequence(v),
              "kind": tree.kind_of(v, fatou_ends),
              "depth": 0 if v is tree.nu else v.star_depth()}
             for v, i in order.items()]  # insertion order is id order
    edges = sorted((*sorted((order[u], order[v])), f) for u, v, f in flagged)
    return order, nodes, [{"a": a, "b": b, "fatou": f} for a, b, f in edges]


def tree_to_json(tree: HubbardTree) -> str:
    """``json.dumps(doc, indent=2) + "\\n"`` for the fixed schema, written
    directly; strings and None still go through ``json.dumps``."""
    _, nodes, edges = _nodes_edges(tree)
    q = json.dumps
    node = ('    {\n      "id": %d,\n      "itinerary": %s,\n      "kind": %s,\n'
            '      "depth": %s\n    }')
    edge = '    {\n      "a": %d,\n      "b": %d,\n      "fatou": %s\n    }'
    meta = ",\n".join(f"    {q(k)}: {q(x)}" for k, x in _meta(tree).items())
    nodes = ",\n".join(node % (n["id"], q(n["itinerary"]), q(n["kind"]),
                               q(None) if n["depth"] is None else n["depth"])
                       for n in nodes)
    edges = ",\n".join(edge % (e["a"], e["b"], ("false", "true")[e["fatou"]])
                       for e in edges)
    # a tree has an edge, so neither list prints as []
    return (f'{{\n  "meta": {{\n{meta}\n  }},\n  "nodes": [\n{nodes}\n  ],\n'
            f'  "edges": [\n{edges}\n  ]\n}}\n')


def tree_to_dot(tree: HubbardTree) -> str:
    _, nodes, edges = _nodes_edges(tree)
    lines = ["graph hubbard_tree {"]
    lines.append('  node [shape=circle, fontsize=10];')
    for nd in nodes:
        shape = {"critical-value": "doublecircle",
                 "critical-point": "box"}.get(nd["kind"], "circle")
        lines.append(
            f'  n{nd["id"]} [label="{nd["itinerary"]}", shape={shape}];'
        )
    for e in edges:
        style = " [style=dotted]" if e["fatou"] else ""
        lines.append(f'  n{e["a"]} -- n{e["b"]}{style};')
    lines.append("}")
    return "\n".join(lines) + "\n"


def tree_to_text(tree: HubbardTree) -> str:
    _, nodes, edges = _nodes_edges(tree)
    meta = _meta(tree)
    lines = [
        f"nu={meta['nu']} degree={meta['degree']} mode={meta['mode']}"
        + (f" truncation={meta['truncation']}" if meta["truncation"] is not None
           else ""),
        f"vertices={len(nodes)} edges={len(edges)}",
    ]
    for nd in nodes:
        depth = "-" if nd["depth"] is None else nd["depth"]
        lines.append(f"  node {nd['id']:>3}  {nd['kind']:<15} depth={depth:<3} "
                     f"{nd['itinerary']}")
    for e in edges:
        tag = "fatou" if e["fatou"] else "     "
        lines.append(f"  edge {e['a']:>3} -- {e['b']:<3} {tag}")
    return "\n".join(lines) + "\n"


def _layout(tree: HubbardTree, order: Dict) -> Dict[int, tuple]:
    """Layered positions rooted at the critical value; leaves get
    consecutive x slots, interior nodes the mean of their children."""
    layers = {tree.nu: 0}
    children: Dict = {v: [] for v in order}
    for v in list(order)[1:]:
        # ids run breadth-first, so a vertex's parent is its least neighbour
        u = min(tree.adj[v], key=order.__getitem__)
        layers[v] = layers[u] + 1
        children[u].append(v)

    xpos: Dict = {}
    counter = [0]

    def place(v):
        kids = children[v]
        if not kids:
            xpos[v] = float(counter[0])
            counter[0] += 1
        else:
            for k in kids:
                place(k)
            xpos[v] = sum(xpos[k] for k in kids) / len(kids)

    place(tree.nu)
    return {order[v]: (xpos[v], layers[v]) for v in tree.adj}


def tree_to_svg(tree: HubbardTree) -> str:
    order, nodes, edges = _nodes_edges(tree)
    pos = _layout(tree, order)
    step_x, step_y, pad = 110, 80, 50
    width = int(max(x for x, _ in pos.values()) * step_x) + 2 * pad
    height = int(max(y for _, y in pos.values()) * step_y) + 2 * pad

    def at(i):
        x, y = pos[i]
        return pad + x * step_x, pad + y * step_y

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        '<style>line{stroke:#333;stroke-width:1.5}'
        'line.fatou{stroke-dasharray:5 4;stroke:#888}'
        'circle{fill:#fff;stroke:#333;stroke-width:1.2}'
        'text{font:11px monospace;text-anchor:middle}</style>',
    ]
    for e in edges:
        (x1, y1), (x2, y2) = at(e["a"]), at(e["b"])
        cls = ' class="fatou"' if e["fatou"] else ""
        out.append(f'<line{cls} x1="{x1:.1f}" y1="{y1:.1f}" '
                   f'x2="{x2:.1f}" y2="{y2:.1f}"/>')
    for nd in nodes:
        x, y = at(nd["id"])
        out.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="4"/>')
        out.append(f'<text x="{x:.1f}" y="{y - 8:.1f}">{nd["itinerary"]}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
