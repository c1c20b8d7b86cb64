//! Fault-injection harness for hardening tests.
//!
//! The hooks here let tests force the failures the execution-hardening
//! layer exists to contain — a worker panic at a chosen morsel index, an
//! allocation failure at a chosen memory charge, or clock skew that makes
//! deadlines fire early — without conditional compilation. Every hook is a
//! process-global that is **disarmed by default** and costs one relaxed
//! atomic load on the hot path, so the harness is always compiled in and
//! release binaries behave identically unless a test arms it.
//!
//! Arming returns a [`FaultGuard`]; dropping the guard disarms every hook,
//! so a panicking test cannot leak a fault into its neighbours. Panic and
//! allocation faults are additionally *one-shot*: they disarm themselves
//! the moment they fire, so the engine's retry-under-fallback path does not
//! re-trip the same fault.
//!
//! [`park_at_morsel`] is the one hook that blocks instead of failing: it
//! holds the worker that claims a chosen morsel until the test releases it,
//! so a test can act on a query that is provably mid-flight.
//!
//! Because the hooks are process-global, tests that arm them must not run
//! concurrently with each other; serialize them with a `Mutex` (see
//! `tests/fault_injection.rs` in the workspace root).
//!
//! ## Chaos schedules
//!
//! The one-shot hooks compose into [`ChaosSchedule`]s: deterministic,
//! LCG-seeded *sequences* of faults — several worker panics, allocation
//! failures at chosen charge indices, admission stalls, and clock-skew
//! jumps fired after chosen morsel counts — armed all at once with
//! [`ChaosSchedule::inject`]. The same seed always produces the same event
//! list, and every event keys off a deterministic index (morsel index =
//! `start / step`, process-wide charge count, process-wide morsel count),
//! so a failing soak run is replayable from its printed seed alone. The
//! hot path stays one relaxed atomic load: schedule state is only
//! consulted while [`schedule_active`] is set.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::ExecCtx;

/// Morsel index at which a worker panic fires (`-1` = disarmed).
static PANIC_AT_MORSEL: AtomicI64 = AtomicI64::new(-1);
/// Morsel index at which a worker parks (`-1` = disarmed).
static PARK_AT_MORSEL: AtomicI64 = AtomicI64::new(-1);
/// The park handshake between the parked worker and its [`ParkGuard`].
static PARK: Mutex<Park> = Mutex::new(Park {
    parked: false,
    released: false,
});
/// Signalled when a worker parks and when the guard releases it.
static PARK_CV: Condvar = Condvar::new();
/// One-shot flag making the next plan lowered for static verification report
/// an allocation site that skips its memory charge.
static UNCHARGED_ALLOC: AtomicBool = AtomicBool::new(false);
/// Countdown of memory charges until one fails (`-1` = disarmed; the charge
/// observing `0` fails and disarms the hook).
static ALLOC_FAIL_COUNTDOWN: AtomicI64 = AtomicI64::new(-1);
/// Milliseconds added to every deadline-clock read (`0` = no skew).
static CLOCK_SKEW_MS: AtomicU64 = AtomicU64::new(0);
/// Fast-path flag: `true` while a [`ChaosSchedule`] is armed, so the
/// per-morsel and per-charge hooks only take the schedule lock when a soak
/// test is actually running.
static SCHEDULE_ACTIVE: AtomicBool = AtomicBool::new(false);
/// The armed chaos schedule's mutable state (consumed events are removed).
static SCHEDULE: Mutex<Option<ScheduleState>> = Mutex::new(None);

/// One fault in a [`ChaosSchedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosEvent {
    /// Panic the worker that claims morsel `morsel` (one-shot per event;
    /// a schedule may carry several at different indices).
    WorkerPanic {
        /// Zero-based morsel index, in claim order within a stage.
        morsel: usize,
    },
    /// Fail the `charge`-th memory charge (zero-based, counted process-wide
    /// from the moment the schedule is armed).
    AllocFailure {
        /// Zero-based charge index.
        charge: usize,
    },
    /// After `after_morsels` morsels have completed process-wide, skew the
    /// deadline clock forward by `ms` milliseconds (cumulative with any
    /// other skew).
    ClockSkew {
        /// Process-wide completed-morsel count that triggers the skew.
        after_morsels: usize,
        /// Milliseconds to add to the deadline clock.
        ms: u64,
    },
    /// Stall the next admission attempt by `ms` milliseconds before it
    /// reaches the controller (one-shot per event).
    AdmissionStall {
        /// Milliseconds the admitting thread sleeps.
        ms: u64,
    },
}

/// Mutable view of an armed schedule; events are removed as they fire.
#[derive(Default)]
struct ScheduleState {
    /// Morsel indices that panic (one entry consumed per firing).
    panics: Vec<usize>,
    /// Charge indices that fail, against `charges_seen`.
    alloc_failures: Vec<usize>,
    /// `(after_morsels, ms)` skew triggers, against `morsels_seen`.
    skews: Vec<(usize, u64)>,
    /// Pending admission-stall durations, consumed FIFO.
    admission_stalls: Vec<u64>,
    /// Memory charges observed since arming.
    charges_seen: usize,
    /// Morsels completed since arming.
    morsels_seen: usize,
}

/// A deterministic, seeded sequence of faults. Generate one with
/// [`ChaosSchedule::from_seed`] (same seed ⇒ same events, forever) or
/// build the event list by hand, then arm it with
/// [`ChaosSchedule::inject`]. Like the one-shot hooks, schedules are
/// process-global: tests arming them must serialize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosSchedule {
    /// The seed this schedule was generated from (0 for hand-built ones).
    pub seed: u64,
    /// The faults, in generation order.
    pub events: Vec<ChaosEvent>,
}

/// Multiplier/increment from Knuth's MMIX LCG — full 2^64 period, and the
/// whole reason a soak failure is replayable from its seed.
fn lcg_next(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state
}

impl ChaosSchedule {
    /// Derive a schedule of 2–5 faults from `seed`. Indices are kept small
    /// (morsels < 48, charges < 24, skew ≤ 8 s, stalls ≤ 20 ms) so every
    /// event has a real chance to fire against the soak workload; which
    /// kinds appear, and where, is entirely seed-driven.
    pub fn from_seed(seed: u64) -> ChaosSchedule {
        let mut s = seed ^ 0x9e37_79b9_7f4a_7c15;
        let n_events = 2 + (lcg_next(&mut s) % 4) as usize;
        let events = (0..n_events)
            .map(|_| match lcg_next(&mut s) % 4 {
                0 => ChaosEvent::WorkerPanic {
                    morsel: (lcg_next(&mut s) % 48) as usize,
                },
                1 => ChaosEvent::AllocFailure {
                    charge: (lcg_next(&mut s) % 24) as usize,
                },
                2 => ChaosEvent::ClockSkew {
                    after_morsels: (lcg_next(&mut s) % 64) as usize,
                    ms: 1000 + lcg_next(&mut s) % 7000,
                },
                _ => ChaosEvent::AdmissionStall {
                    ms: 1 + lcg_next(&mut s) % 20,
                },
            })
            .collect();
        ChaosSchedule { seed, events }
    }

    /// Arm every event of this schedule at once. The returned guard disarms
    /// the whole harness (schedule and one-shot hooks) on drop.
    pub fn inject(&self) -> FaultGuard {
        let mut state = ScheduleState::default();
        for ev in &self.events {
            match *ev {
                ChaosEvent::WorkerPanic { morsel } => state.panics.push(morsel),
                ChaosEvent::AllocFailure { charge } => state.alloc_failures.push(charge),
                ChaosEvent::ClockSkew { after_morsels, ms } => {
                    state.skews.push((after_morsels, ms));
                }
                ChaosEvent::AdmissionStall { ms } => state.admission_stalls.push(ms),
            }
        }
        *SCHEDULE.lock().expect("chaos schedule") = Some(state);
        SCHEDULE_ACTIVE.store(true, Ordering::SeqCst);
        FaultGuard { _priv: () }
    }
}

/// `true` while a [`ChaosSchedule`] is armed.
pub fn schedule_active() -> bool {
    SCHEDULE_ACTIVE.load(Ordering::Relaxed)
}

/// RAII guard returned by the `inject_*` functions; disarms **all** fault
/// hooks when dropped.
#[must_use = "faults stay armed only while the guard is alive"]
pub struct FaultGuard {
    _priv: (),
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        disarm_all();
    }
}

/// Disarm every fault hook immediately (also done by [`FaultGuard::drop`]).
/// A parked worker is released.
pub fn disarm_all() {
    PANIC_AT_MORSEL.store(-1, Ordering::SeqCst);
    release_park();
    ALLOC_FAIL_COUNTDOWN.store(-1, Ordering::SeqCst);
    CLOCK_SKEW_MS.store(0, Ordering::SeqCst);
    UNCHARGED_ALLOC.store(false, Ordering::SeqCst);
    SCHEDULE_ACTIVE.store(false, Ordering::SeqCst);
    *SCHEDULE.lock().expect("chaos schedule") = None;
}

/// Arm a one-shot worker panic at morsel `index` (zero-based, in claim
/// order). Morsel indices are derived from row offsets, so the same index
/// denotes the same rows at any thread count — and on the shared pool.
pub fn inject_panic_at_morsel(index: usize) -> FaultGuard {
    PANIC_AT_MORSEL.store(index as i64, Ordering::SeqCst);
    FaultGuard { _priv: () }
}

/// Arm a one-shot allocation failure: the `nth` memory charge (zero-based)
/// made through a [`crate::MemGauge`] after this call reports
/// [`crate::RuntimeError::BudgetExceeded`] regardless of the actual budget.
pub fn inject_alloc_failure_at_charge(nth: usize) -> FaultGuard {
    ALLOC_FAIL_COUNTDOWN.store(nth as i64, Ordering::SeqCst);
    FaultGuard { _priv: () }
}

/// Arm a one-shot uncharged-allocation fault: the next plan lowered for
/// static verification presents one allocation site as *not* charging the
/// memory gauge, so a full verification pass must reject it. Exercises the
/// verifier's resource-accounting pass end-to-end through the engine.
pub fn inject_uncharged_alloc() -> FaultGuard {
    UNCHARGED_ALLOC.store(true, Ordering::SeqCst);
    FaultGuard { _priv: () }
}

/// Plan-time hook: `true` exactly once after [`inject_uncharged_alloc`].
/// Consulted by the plan layer when lowering a plan for static
/// verification; not a hot-path hook.
pub fn take_uncharged_alloc() -> bool {
    UNCHARGED_ALLOC.swap(false, Ordering::SeqCst)
}

/// Skew the deadline clock forward by `by`, making in-flight deadlines
/// appear already elapsed. Stays armed until the guard drops.
pub fn inject_clock_skew(by: Duration) -> FaultGuard {
    CLOCK_SKEW_MS.store(by.as_millis() as u64, Ordering::SeqCst);
    FaultGuard { _priv: () }
}

/// State of the one armed park.
struct Park {
    parked: bool,
    released: bool,
}

/// Guard returned by [`park_at_morsel`]. Dropping it disarms the park and
/// releases a parked worker.
#[must_use = "the park stays armed only while the guard is alive"]
pub struct ParkGuard {
    _priv: (),
}

impl ParkGuard {
    /// Block until a worker has parked at the armed morsel, for at most
    /// `timeout`. Returns whether one parked: `false` means no worker
    /// reached the morsel in time.
    pub fn wait_parked(&self, timeout: Duration) -> bool {
        let park = PARK.lock().expect("park state");
        let (park, _) = PARK_CV
            .wait_timeout_while(park, timeout, |p| !p.parked)
            .expect("park state");
        park.parked
    }

    /// Let the parked worker continue (a no-op once it has).
    pub fn release(&self) {
        release_park();
    }
}

impl Drop for ParkGuard {
    fn drop(&mut self) {
        release_park();
    }
}

/// Disarm the park and wake a parked worker. Runs in `Drop`, so it must
/// not panic: the park state is two flags, valid after any update, so a
/// poisoned lock is recovered.
fn release_park() {
    PARK_AT_MORSEL.store(-1, Ordering::SeqCst);
    PARK.lock().unwrap_or_else(|p| p.into_inner()).released = true;
    PARK_CV.notify_all();
}

/// Arm a one-shot park at morsel `index` (zero-based, in claim order): the
/// worker that claims it blocks before running the morsel until the
/// returned guard releases it, or until its query's context trips (a
/// cancel, deadline or shutdown abort), so an aborted query never stays
/// parked. Parks are process-global like every other hook.
pub fn park_at_morsel(index: usize) -> ParkGuard {
    *PARK.lock().expect("park state") = Park {
        parked: false,
        released: false,
    };
    PARK_AT_MORSEL.store(index as i64, Ordering::SeqCst);
    ParkGuard { _priv: () }
}

/// Hot-path hook: park here if a park is armed for this morsel.
pub(crate) fn maybe_park_at_morsel(index: usize, ctx: &ExecCtx) {
    let target = PARK_AT_MORSEL.load(Ordering::Relaxed);
    if target < 0
        || target as usize != index
        || PARK_AT_MORSEL
            .compare_exchange(target, -1, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
    {
        return;
    }
    let mut park = PARK.lock().expect("park state");
    park.parked = true;
    PARK_CV.notify_all();
    // Tripping does not signal the condvar, so poll it between waits.
    while !park.released && !ctx.tripped() {
        park = PARK_CV
            .wait_timeout(park, Duration::from_millis(1))
            .expect("park state")
            .0;
    }
}

/// Hot-path hook: panic if a one-shot panic (or a schedule event) is armed
/// for this morsel.
pub(crate) fn maybe_panic_at_morsel(index: usize) {
    let target = PANIC_AT_MORSEL.load(Ordering::Relaxed);
    if target >= 0
        && target as usize == index
        && PANIC_AT_MORSEL
            .compare_exchange(target, -1, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    {
        panic!("injected fault: worker panic at morsel {index}");
    }
    if SCHEDULE_ACTIVE.load(Ordering::Relaxed) {
        let mut fire = false;
        if let Some(state) = SCHEDULE.lock().expect("chaos schedule").as_mut() {
            if let Some(pos) = state.panics.iter().position(|&m| m == index) {
                state.panics.swap_remove(pos);
                fire = true;
            }
        }
        if fire {
            panic!("injected fault: scheduled worker panic at morsel {index}");
        }
    }
}

/// Hot-path hook: `true` exactly once, on the charge the countdown reaches
/// (or on a charge index named by an armed schedule).
pub(crate) fn charge_should_fail() -> bool {
    if SCHEDULE_ACTIVE.load(Ordering::Relaxed) {
        if let Some(state) = SCHEDULE.lock().expect("chaos schedule").as_mut() {
            let seen = state.charges_seen;
            state.charges_seen += 1;
            if let Some(pos) = state.alloc_failures.iter().position(|&c| c == seen) {
                state.alloc_failures.swap_remove(pos);
                return true;
            }
        }
    }
    if ALLOC_FAIL_COUNTDOWN.load(Ordering::Relaxed) < 0 {
        return false;
    }
    ALLOC_FAIL_COUNTDOWN
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| {
            if v < 0 {
                None
            } else {
                Some(v - 1)
            }
        })
        .map(|prev| prev == 0)
        .unwrap_or(false)
}

/// Progress hook: called once per completed morsel so schedule clock-skew
/// events can fire at deterministic morsel counts. No-op (one relaxed
/// load) unless a schedule is armed.
pub(crate) fn note_morsel_done() {
    if !SCHEDULE_ACTIVE.load(Ordering::Relaxed) {
        return;
    }
    if let Some(state) = SCHEDULE.lock().expect("chaos schedule").as_mut() {
        state.morsels_seen += 1;
        let seen = state.morsels_seen;
        let mut i = 0;
        while i < state.skews.len() {
            if state.skews[i].0 < seen {
                let (_, ms) = state.skews.swap_remove(i);
                CLOCK_SKEW_MS.fetch_add(ms, Ordering::SeqCst);
            } else {
                i += 1;
            }
        }
    }
}

/// Admission hook: take the next scheduled stall duration, if any. The
/// caller sleeps *outside* the admission lock so a stalled arrival cannot
/// block permit releases.
pub(crate) fn take_admission_stall() -> Option<Duration> {
    if !SCHEDULE_ACTIVE.load(Ordering::Relaxed) {
        return None;
    }
    SCHEDULE
        .lock()
        .expect("chaos schedule")
        .as_mut()
        .and_then(|state| {
            if state.admission_stalls.is_empty() {
                None
            } else {
                Some(Duration::from_millis(state.admission_stalls.remove(0)))
            }
        })
}

/// The deadline clock: wall time plus any injected skew.
pub(crate) fn now() -> Instant {
    Instant::now() + Duration::from_millis(CLOCK_SKEW_MS.load(Ordering::Relaxed))
}
