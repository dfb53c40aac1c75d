"""zonesim: deterministic AS-level routing simulation with zones of trust.

The package models interdomain route propagation under economic export
policy, perimeter verification with a VERIFIED community inside a
connected zone of member networks, the registries that drive verification
(ROAs, provider authorizations, IRR, per-session KYC lists), topology
analyses of who such a zone protects, an attack harness, and an off-path
conformance auditor over member route views.
"""

from .topology import (
    Rel,
    Relationship,
    Topology,
    TopologyError,
    augment_with_ix_peering,
    customer_cone,
    load_ix_memberships,
    load_topology,
    tier1_clique,
    tier1_mesh_gaps,
)
from .registry import (
    AspaRecord,
    AspaState,
    KycEntry,
    OriginVerdict,
    Prefix,
    RegistryError,
    RegistrySet,
    Roa,
    RovState,
    aspa_pair_valid,
    load_aspas,
    load_irr,
    load_kyc,
    load_roas,
    parse_prefix,
    rov_validate,
    verify_customer_origin,
)
from .routing import (
    NonConvergenceError,
    Origination,
    PolicyHooks,
    PreferenceOrder,
    Rib,
    RibEntry,
    Route,
    RoutingError,
    TraceOutcome,
    data_plane_trace,
    dump_rib,
    gao_rexford_hooks,
    parse_rib_dump,
    propagate,
)
from .vipzone import (
    VERIFIED,
    Outcome,
    VerificationOutcome,
    ZoneConfig,
    ZoneValidationError,
    load_zone_config,
    member_import,
    member_preference,
    validate_zone,
    zone_policy,
)
from .analysis import (
    GrowthOrder,
    LocalRegion,
    LocalRegionDistribution,
    RoutingExceptions,
    ZoneDerivation,
    attached_customers,
    cone_size_order,
    derive_connected_zone,
    local_region,
    local_region_distribution,
    routing_exceptions,
    synthetic_prefix,
    zone_growth_curve,
)
from .attacks import (
    AttackKind,
    AttackScenario,
    HarmReport,
    ScenarioError,
    classify_harm,
    harm_csv,
    load_scenario,
    run_scenario,
    scenario_rib,
    sweep_attackers,
)
from .audit import (
    AuditFinding,
    AuditRule,
    MemberView,
    Waiver,
    audit_views,
    findings_csv,
    load_member_view,
    register_exception,
    views_from_rib,
)

__version__ = "0.1.0"
