"""Graphviz (DOT) export for programs, chains and proofs.

Visual debugging aids: the predicate dependency graph (recursive SCCs
highlighted), a compiled recursion's chain structure (evaluable vs
delayed portions), and proof trees.  Pure text generation — rendering
is left to the user's ``dot`` binary.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..datalog.literals import Predicate
from ..datalog.rules import Program
from ..engine.proofs import ProofNode
from .chains import CompiledRecursion
from .depgraph import DependencyGraph
from .finiteness import PathSplit

__all__ = ["program_to_dot", "chain_to_dot", "proof_to_dot"]


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def program_to_dot(program: Program, name: str = "dependencies") -> str:
    """The predicate dependency graph.

    Recursive predicates are drawn as doubled ellipses; negative
    dependencies as dashed edges.
    """
    graph = DependencyGraph(program)
    idb = program.idb_predicates()
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    nodes: Set[Predicate] = set(graph.edges)
    for deps in graph.edges.values():
        nodes.update(deps)
    for node in sorted(nodes, key=str):
        attributes = []
        if node in graph.recursive:
            attributes.append("peripheries=2")
        if node not in idb:
            attributes.append("shape=box")
        attribute_text = (" [" + ", ".join(attributes) + "]") if attributes else ""
        lines.append(f'  "{_escape(str(node))}"{attribute_text};')
    seen_edges: Set[tuple] = set()
    for rule in program:
        head = str(rule.head.predicate)
        for literal in rule.body:
            edge = (head, str(literal.predicate), literal.negated)
            if edge in seen_edges:
                continue
            seen_edges.add(edge)
            style = " [style=dashed]" if literal.negated else ""
            lines.append(
                f'  "{_escape(head)}" -> "{_escape(str(literal.predicate))}"{style};'
            )
    lines.append("}")
    return "\n".join(lines)


def chain_to_dot(
    compiled: CompiledRecursion,
    split: Optional[PathSplit] = None,
    name: str = "chains",
) -> str:
    """A compiled recursion's chain generating paths.

    With a ``split``, the evaluable portion is filled green and the
    delayed portion orange — the picture of the paper's §2 figures.
    """
    evaluable = {str(l) for l in (split.evaluable if split else [])}
    delayed = {str(l) for l in (split.delayed if split else [])}
    lines = [f"digraph {name} {{", "  rankdir=LR;", "  node [shape=box];"]
    head = f"{compiled.predicate} (head)"
    recursive = f"{compiled.predicate} (recursive call)"
    lines.append(f'  "{_escape(head)}" [shape=ellipse];')
    lines.append(f'  "{_escape(recursive)}" [shape=ellipse];')
    for index, chain in enumerate(compiled.chains):
        for literal in chain.literals:
            label = str(literal)
            attributes = []
            if label in evaluable:
                attributes.append('fillcolor="palegreen", style=filled')
            elif label in delayed:
                attributes.append('fillcolor="orange", style=filled')
            attribute_text = (
                " [" + ", ".join(attributes) + "]" if attributes else ""
            )
            lines.append(f'  "{_escape(label)}"{attribute_text};')
        if chain.connects():
            first = str(chain.literals[0])
            last = str(chain.literals[-1])
            lines.append(f'  "{_escape(head)}" -> "{_escape(first)}";')
            lines.append(f'  "{_escape(last)}" -> "{_escape(recursive)}";')
            for a, b in zip(chain.literals, chain.literals[1:]):
                lines.append(
                    f'  "{_escape(str(a))}" -> "{_escape(str(b))}";'
                )
    lines.append("}")
    return "\n".join(lines)


def proof_to_dot(proof: ProofNode, name: str = "proof") -> str:
    """A proof tree as DOT (fact/builtin/negation leaves colored)."""
    lines = [f"digraph {name} {{", "  node [shape=box];"]
    counter = [0]

    def visit(node: ProofNode) -> str:
        node_id = f"n{counter[0]}"
        counter[0] += 1
        color = {
            "fact": "palegreen",
            "builtin": "lightblue",
            "negation": "lightgray",
        }.get(node.kind)
        fill = f', fillcolor="{color}", style=filled' if color else ""
        lines.append(
            f'  {node_id} [label="{_escape(str(node.goal))}"{fill}];'
        )
        for child in node.children:
            child_id = visit(child)
            lines.append(f"  {node_id} -> {child_id};")
        return node_id

    visit(proof)
    lines.append("}")
    return "\n".join(lines)
