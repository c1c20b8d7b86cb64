//! Deterministic fault injection for hardened-execution tests.
//!
//! The harness itself lives in the shared runtime crate (the worker pool
//! and memory gauges consult it at well-defined points); this module
//! re-exports it under the engine's namespace so tests and tools keep one
//! import path. All hooks are process-global, disarmed by default, and
//! one-shot where noted — see [`swole_runtime::faults`] for the full
//! contract.

pub use swole_runtime::faults::{
    disarm_all, inject_alloc_failure_at_charge, inject_clock_skew, inject_panic_at_morsel,
    inject_uncharged_alloc, park_at_morsel, schedule_active, take_uncharged_alloc, ChaosEvent,
    ChaosSchedule, FaultGuard, ParkGuard,
};
