"""Correctness gate: parse each op's output and judge it on the original graph.

An answer is right when its value matches the oracle (or, beyond the
oracle's size guard, every other exact route on the same instance) and its
printed witness re-checks on the graph with the library's own checkers.
Rounding must land within ``0 <= value - OPT <= k^2``.  ``ndsolve graver``
output must respect the g1 bound it prints and the x-part bound of 2.
"""

from __future__ import annotations

import re

from ndsolve.algorithms import (
    check_cds,
    check_coloring,
    coloring_cost,
    cut_value,
    max_bipartite_matching,
)
from ndsolve.models import CdsSolution

OK, BUDGET = 0, 2

_G1 = re.compile(r"^g1\(L\) = (\d+) \(bound (\d+)\)$", re.M)
_XMAX = re.compile(r"^max l1 of x-part = (\d+) \(bound (\d+)\)$", re.M)
_BASIS = re.compile(r"^lower block: \d+ rows, \d+ cols, basis size (\d+)$", re.M)
_VALUE = re.compile(r"^value: (-?\d+)$", re.M)
_WITNESS = re.compile(r"^witness: (.*)$", re.M)
_ALGO = re.compile(r"^algo: \w+ value: (-?\d+) witness: (.*)$", re.M)


def parse(op, out):
    """(value, witness text) of a solve op, or (basis size, None) for graver."""
    if op.route == "graver":
        m = _BASIS.search(out)
        return (int(m.group(1)) if m else None), None
    m = _ALGO.search(out)
    if m:
        return int(m.group(1)), m.group(2)
    value, witness = _VALUE.search(out), _WITNESS.search(out)
    if not value or not witness:
        return None, None
    return int(value.group(1)), witness.group(1)


def _vertex_map(text):
    """'1:2 2:1' -> {0: 2, 1: 1} (file vertices are 1-indexed)."""
    out = {}
    for item in text.split():
        v, c = item.split(":")
        out[int(v) - 1] = int(c)
    return out


def _cds_witness(g, text):
    """Rebuild a CdsSolution from 'D={1,3} 2->1 ...'; dominator-only witnesses
    (the algorithms print no assignment) get one by capacitated matching."""
    head, _, pairs = text.partition(" ")
    inner = head[len("D={"):-1]
    dom = {int(v) - 1 for v in inner.split(",")} if inner else set()
    if pairs:
        assignment = {}
        for pair in pairs.split():
            x, y = pair.split("->")
            assignment[int(x) - 1] = int(y) - 1
        return CdsSolution.make(dom, assignment)
    outside = [v for v in range(g.n) if v not in dom]
    adj = {v: sorted(g.adj[v] & dom) for v in outside}
    _, assignment = max_bipartite_matching(outside, adj, {v: g.capacity[v] for v in dom})
    return CdsSolution.make(dom, assignment)


def witness_error(op, inst, value, witness):
    """Why the witness does not certify the value, or None when it does."""
    g = inst.graph
    try:
        if op.problem == "cds":
            sol = _cds_witness(g, witness)
            if not check_cds(g, sol):
                return "invalid dominating set"
            return None if sol.size == value else f"witness size {sol.size} != value {value}"
        if op.problem == "sumcol":
            coloring = _vertex_map(witness)
            if not check_coloring(g, coloring):
                return "improper coloring"
            cost = coloring_cost(coloring)
            return None if cost == value else f"coloring cost {cost} != value {value}"
        partition = _vertex_map(witness)
        if set(partition) != set(range(g.n)) or not set(partition.values()) <= set(range(1, op.q + 1)):
            return "partition does not cover the vertices with parts 1..q"
        cut = cut_value(g, partition)
        return None if cut == value else f"cut {cut} != value {value}"
    except (ValueError, KeyError) as exc:
        return f"unreadable witness {witness!r}: {exc}"


def _graver_error(out):
    g1, xmax = _G1.search(out), _XMAX.search(out)
    if not g1 or not xmax:
        return "unreadable graver report"
    if int(g1.group(1)) > int(g1.group(2)):
        return f"g1 {g1.group(1)} above its bound {g1.group(2)}"
    if int(xmax.group(1)) > int(xmax.group(2)):
        return f"x-part l1 {xmax.group(1)} above its bound {xmax.group(2)}"
    return None


def judge(cases, ops, results):
    """Gate one pass.  results[i] = (exit code, stdout) of ops[i].

    Returns (failed op indices, errors).  A budget stop or any non-zero exit
    is a failure; a non-zero exit other than a budget stop, a wrong value or
    an invalid witness is also an error, which makes the run incorrect.
    """
    by_name = {c.name: c for c in cases}
    failed, errors = [], []
    agreed = {}   # (case, q) -> (value, op index that set it)
    rounding = []

    def error(i, text):
        errors.append(f"{ops[i].case} {ops[i].route}: {text}")

    for i, (op, (code, out)) in enumerate(zip(ops, results)):
        case = by_name[op.case]
        if code != OK:
            failed.append(i)
            if code != BUDGET:
                last = out.strip().splitlines()[-1:] or [""]
                error(i, f"exit code {code} {last[0]}".rstrip())
            continue
        value, witness = parse(op, out)
        if value is None:
            error(i, "unreadable output")
        elif op.route == "graver":
            problem = _graver_error(out)
            if problem:
                error(i, problem)
        else:
            problem = witness_error(op, case.inst, value, witness)
            if problem:
                error(i, problem)
            elif op.route == "rounding":
                rounding.append((i, value))
            else:
                key = (op.case, op.q)
                want = case.expected.get(op.q)
                if want is not None and value != want:
                    error(i, f"value {value}, oracle says {want}")
                elif key in agreed and agreed[key][0] != value:
                    first = ops[agreed[key][1]].route
                    error(i, f"value {value}, {first} says {agreed[key][0]}")
                agreed.setdefault(key, (value, i))

    for i, value in rounding:
        case = by_name[ops[i].case]
        opt = case.expected.get(None, agreed.get((ops[i].case, None), (None,))[0])
        if opt is None:
            error(i, "no exact value to bound the rounding against")
        elif not 0 <= value - opt <= case.k * case.k:
            error(i, f"rounding {value} outside [OPT, OPT + k^2] with OPT={opt}, k={case.k}")
    return failed, errors
