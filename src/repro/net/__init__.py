"""Network substrate: graphs, dynamic graphs, dynaDegree, ports.

This package models the communication layer of the paper's anonymous
dynamic network:

- :mod:`repro.net.topology` -- the immutable, hash-consed graph value
  type every layer shares.
- :mod:`repro.net.dynamic` -- round-indexed edge schedules ``E(t)`` and
  recorded communication traces.
- :mod:`repro.net.dynadegree` -- the ``(T, D)``-dynaDegree stability
  property (Definition 1) as an executable checker plus profile analysis.
- :mod:`repro.net.generators` -- topology generators used by adversaries
  and workloads.
- :mod:`repro.net.ports` -- per-node local port numberings (the paper's
  anonymity mechanism).
"""

from repro.net.dynadegree import (
    DynaDegreeProfile,
    check_dynadegree,
    max_degree_for_window,
    min_window_for_degree,
)
from repro.net.dynamic import DynamicGraph, EdgeSchedule, window_union
from repro.net.generators import (
    complete_edges,
    cycle_edges,
    empty_edges,
    random_edges,
    split_edges,
    star_edges,
)
from repro.net.ports import PortNumbering, identity_ports, random_ports
from repro.net.properties import (
    is_rooted_every_round,
    is_t_interval_connected,
    property_profile,
)
from repro.net.temporal import check_dynareach, max_reach_for_window, window_reach_sets
from repro.net.topology import Topology


__all__ = [
    "Topology",
    "DynamicGraph",
    "EdgeSchedule",
    "window_union",
    "DynaDegreeProfile",
    "check_dynadegree",
    "max_degree_for_window",
    "min_window_for_degree",
    "complete_edges",
    "cycle_edges",
    "empty_edges",
    "random_edges",
    "split_edges",
    "star_edges",
    "PortNumbering",
    "identity_ports",
    "random_ports",
    "is_t_interval_connected",
    "is_rooted_every_round",
    "property_profile",
    "check_dynareach",
    "max_reach_for_window",
    "window_reach_sets",
]
