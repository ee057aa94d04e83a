"""Routing framework: scheme interfaces, routing tables, headers, and the simulator."""

from repro.routing.messages import RouteResult, Header
from repro.routing.scheme_api import RoutingSchemeInstance
from repro.routing.table import RoutingTable
from repro.routing.forwarding import (ForwardingProgram, NextHopTable,
                                      TreeBank, run_lockstep)
from repro.routing.simulator import RoutingSimulator, EvaluationReport

__all__ = [
    "RouteResult",
    "Header",
    "RoutingSchemeInstance",
    "RoutingTable",
    "RoutingSimulator",
    "EvaluationReport",
    "ForwardingProgram",
    "NextHopTable",
    "TreeBank",
    "run_lockstep",
]
