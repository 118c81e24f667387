"""regionsim: deterministic simulator for region-partitioned sensor networks.

The public surface mirrors the build's module map: graph construction and
distance queries, boundary-cell decomposition with its dual graph, the
region flooding protocol, session routing protocols, the energy model, and
the scenario/run harness.
"""

from .energy import (
    EnergyLedger,
    EnergyParams,
    energy_savings,
    min_sensor_count,
    rx_energy,
    scaling_diagnostics,
    tx_energy,
)
from .flood import (
    FloodAction,
    FloodMessage,
    FloodState,
    cells_from_flood,
    handle_message,
    init_flood,
    message_savings,
    naive_flood_count,
    run_flood,
)
from .graph import (
    Digraph,
    Neighborhood,
    NodePos,
    PathResult,
    build_unit_disk_digraph,
    hop_distance,
    neighborhoods,
    perturb_weights,
    random_connected_unit_disk,
    set_distance,
    shortest_path,
    shortest_paths,
)
from .regions import (
    BoundaryCellMap,
    BoundaryDualGraph,
    StretchBoundError,
    boundary_route,
    build_boundary_dual_graph,
    compute_boundary_cells,
    verify_cell_containment,
    worst_case_construction,
)
from .routing import (
    PROTOCOLS,
    CycleError,
    RouteNotFound,
    RoutingError,
    RoutingTable,
    SessionRoute,
    build_res_tables,
    characteristic_distance,
    packet_energy,
    per_packet_charges,
    route,
    walk_table,
)
from .scenario import Deployment, ScenarioConfig, ScenarioError, deploy, load_scenario
from .sim import (
    BatchReport,
    RunReport,
    SimulationError,
    coverage_series,
    emit_outputs,
    run,
    run_batch,
)

__version__ = "0.1.0"
