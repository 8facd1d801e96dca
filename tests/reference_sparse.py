"""Frozen reference: the Boruvka pass of the sparse 1-tree before its rounds
were made to copy less.

This is ``hk_bound._sparse_one_tree`` as it stood before the rewrite that
carries the component arrays from round to round, kept verbatim (only its
imports changed) so the differential tests can compare its value, by
``float.hex``, and its degrees against it.  Do not edit or optimise it.
"""

from __future__ import annotations

import numpy as np

from doubletree.errors import InternalInvariantError
from doubletree.hk_bound import _add_node_zero


def _sparse_one_tree(
    n: int, u: np.ndarray, v: np.ndarray, length: np.ndarray, d0: np.ndarray, pi: np.ndarray
) -> tuple[float, np.ndarray]:
    """Minimum 1-tree whose spanning part uses only the candidate edges (u, v).

    A vectorised Boruvka pass under the strict edge order (reduced weight,
    edge id), so the tree is unique even under ties.  Each round every
    component takes its lightest live edge: ``np.minimum.at`` finds the
    lightest weight at each component, then the smallest id among the edges
    that attain it.  The components then merge by pointer jumping.  Node 0's
    two edges come from its dense row ``d0``.
    """
    w = (length - pi[u]) - pi[v]
    ids = np.arange(u.size)
    eu, ev, ew = u, v, w
    comp = np.arange(n)
    taken = np.zeros(u.size, dtype=bool)
    while True:
        cu, cv = comp[eu], comp[ev]
        live = cu != cv
        if not live.any():
            break
        eu, ev, ew, ids, cu, cv = eu[live], ev[live], ew[live], ids[live], cu[live], cv[live]
        lightest = np.full(n, np.inf)
        np.minimum.at(lightest, cu, ew)
        np.minimum.at(lightest, cv, ew)
        first = np.full(n, u.size)
        at_u, at_v = ew == lightest[cu], ew == lightest[cv]
        np.minimum.at(first, cu[at_u], ids[at_u])
        np.minimum.at(first, cv[at_v], ids[at_v])
        roots = np.flatnonzero(first < u.size)
        e = first[roots]
        taken[e] = True  # the two ends of an edge may both take it
        other = np.where(comp[u[e]] == roots, comp[v[e]], comp[u[e]])
        link = np.arange(n)
        link[roots] = other
        # only the two ends of a shared lightest edge point at each other:
        # the smaller one becomes the merged component's root
        mutual = roots[(link[other] == roots) & (roots < other)]
        link[mutual] = mutual
        while True:
            jumped = link[link]
            if np.array_equal(jumped, link):
                break
            link = jumped
        comp = link[comp]
    tree = np.flatnonzero(taken)
    if tree.size != n - 2:
        raise InternalInvariantError("the candidate graph does not span nodes 1..n-1")
    degrees = np.bincount(u[tree], minlength=n) + np.bincount(v[tree], minlength=n)
    return _add_node_zero(d0, pi, w[tree].sum(), degrees)
