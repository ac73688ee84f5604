//! Seeded gray-failure injection for the infrastructure substrates.
//!
//! The paper's fault model (§2.2, §6.1) is abrupt component death; the chaos
//! harness killed components and nothing else, and the store/broker
//! themselves never failed. This module adds the *gray* regime the retry
//! orchestration surface (PR 7) exists for: transient errors, latency
//! brownouts, and — hardest of all — **ack-lost** operations that apply but
//! report failure, leaving the caller unable to tell a failed write from a
//! successful one whose acknowledgement was dropped.
//!
//! Design constraints, in order:
//!
//! 1. **Deterministic per seed.** Every injection decision at a site is a
//!    pure function of `(plan seed, site, draw index)` — a SplitMix64 mix of
//!    a site-derived seed and a per-site atomic draw counter. Given the same
//!    seed and the same per-site operation interleaving, the same faults
//!    fire; chaos tests print their seed and replay with
//!    `KAR_CHAOS_SEED=<seed>`.
//! 2. **Zero cost when disabled.** Substrates hold an
//!    `Option<Arc<FaultInjector>>`; with no fault plan the hot path pays one
//!    `Option` check (a branch on a register) and nothing else.
//! 3. **The injector never lies about state.** A [`FaultDecision::Transient`]
//!    is returned *before* the operation applies; [`FaultDecision::AckLost`]
//!    instructs the substrate to apply fully — including waking watchers —
//!    and only then report failure. The substrate, not the injector, owns
//!    that contract, because only the substrate knows what "applied" means.
//!
//! Brownouts are windows of extra latency over a *lane* (a store shard or a
//! broker partition), measured in plane-wide operation counts rather than
//! wall clock so that a seed replays the same window regardless of host
//! speed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Where in a substrate an injection decision is being made.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// One fenced store command (get/set/cas/hset/… on a connection).
    StoreCommand,
    /// One fenced store pipeline flush (the state-cache flush path).
    StoreFlush,
    /// One *checked* store admin operation or admin pipeline flush (DLQ
    /// bookkeeping, placement rewrites). The unchecked `admin_*` accessors
    /// used by tests and introspection stay fault-free ground truth.
    StoreAdmin,
    /// One fenced broker append or append batch.
    BrokerAppend,
    /// One admin (unfenced) broker append or append batch — recovery
    /// re-homing and DLQ provenance writes.
    BrokerAdminAppend,
    /// One consumer-side poll of a broker partition. A poll is a read, so
    /// the decision semantics shift: `Transient` fails the poll before
    /// fetching (nothing moves), while `AckLost` becomes *redelivery* — the
    /// records are returned but the consumer position does **not** advance,
    /// so the next poll reads them again (the Kafka at-least-once regime
    /// the runtime's dedup layer must absorb).
    ConsumerPoll,
    /// One read of the retry scheduler's `epoch_ms` clock. Driven by
    /// [`ClockSkewSpec`], not a [`FaultSpec`]: a skewed read shifts the
    /// observed epoch by a fixed offset, modelling a component whose
    /// wall clock disagrees with the rest of the mesh.
    RetryClock,
}

impl FaultSite {
    /// All sites, in display order.
    pub const ALL: [FaultSite; 7] = [
        FaultSite::StoreCommand,
        FaultSite::StoreFlush,
        FaultSite::StoreAdmin,
        FaultSite::BrokerAppend,
        FaultSite::BrokerAdminAppend,
        FaultSite::ConsumerPoll,
        FaultSite::RetryClock,
    ];

    /// Stable short name (used in stats and debug reports).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::StoreCommand => "store_command",
            FaultSite::StoreFlush => "store_flush",
            FaultSite::StoreAdmin => "store_admin",
            FaultSite::BrokerAppend => "broker_append",
            FaultSite::BrokerAdminAppend => "broker_admin_append",
            FaultSite::ConsumerPoll => "consumer_poll",
            FaultSite::RetryClock => "retry_clock",
        }
    }

    fn index(self) -> usize {
        match self {
            FaultSite::StoreCommand => 0,
            FaultSite::StoreFlush => 1,
            FaultSite::StoreAdmin => 2,
            FaultSite::BrokerAppend => 3,
            FaultSite::BrokerAdminAppend => 4,
            FaultSite::ConsumerPoll => 5,
            FaultSite::RetryClock => 6,
        }
    }
}

/// What the substrate must do for one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// Fail *before* applying: nothing happened, return a transient error.
    Transient,
    /// Apply the operation **fully** (including waking watchers), then
    /// report failure anyway — the indeterminate-ack gray failure.
    AckLost,
    /// Apply normally after sleeping the given extra latency (an injected
    /// spike or a brownout window surcharge).
    Latency(Duration),
}

/// Per-site fault rates. All rates are probabilities in `[0, 1]` evaluated
/// independently per operation, in the order transient → ack-lost → spike
/// (at most one fires per operation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Probability an operation fails transiently before applying.
    pub transient_rate: f64,
    /// Probability an operation applies but its ack is dropped.
    pub ack_lost_rate: f64,
    /// Probability an operation pays `spike` extra latency.
    pub spike_rate: f64,
    /// The injected latency spike.
    pub spike: Duration,
    /// Optional cap on the number of faults (transient + ack-lost) this
    /// site may inject over the run; `None` is unlimited. Lets a test ask
    /// for *exactly one* dropped ack and then a clean store.
    pub budget: Option<u64>,
}

impl FaultSpec {
    /// A spec injecting nothing (the per-site default).
    pub const NONE: FaultSpec = FaultSpec {
        transient_rate: 0.0,
        ack_lost_rate: 0.0,
        spike_rate: 0.0,
        spike: Duration::from_millis(0),
        budget: None,
    };

    /// A spec failing operations transiently at `rate`.
    pub fn transient(rate: f64) -> Self {
        FaultSpec {
            transient_rate: rate,
            ..FaultSpec::NONE
        }
    }

    /// A spec dropping acks at `rate`.
    pub fn ack_lost(rate: f64) -> Self {
        FaultSpec {
            ack_lost_rate: rate,
            ..FaultSpec::NONE
        }
    }

    /// Adds an ack-lost rate to this spec.
    #[must_use]
    pub fn with_ack_lost(mut self, rate: f64) -> Self {
        self.ack_lost_rate = rate;
        self
    }

    /// Adds a latency-spike rate to this spec.
    #[must_use]
    pub fn with_spike(mut self, rate: f64, spike: Duration) -> Self {
        self.spike_rate = rate;
        self.spike = spike;
        self
    }

    /// Caps the total faults this site may inject.
    #[must_use]
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.budget = Some(budget);
        self
    }

    fn is_none(&self) -> bool {
        self.transient_rate <= 0.0 && self.ack_lost_rate <= 0.0 && self.spike_rate <= 0.0
    }
}

/// A brownout: a window of extra latency over a plane (the store or the
/// broker), opening after `after_ops` operations on the plane and lasting
/// `ops` operations — optionally confined to one lane of the plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrownoutSpec {
    /// The lane (store shard index / broker partition index) that browns
    /// out; operations on other lanes are unaffected. `None` browns out the
    /// whole plane.
    pub lane: Option<u64>,
    /// Plane-wide operation count at which the window opens.
    pub after_ops: u64,
    /// Length of the window, in plane-wide operations.
    pub ops: u64,
    /// Extra latency every lane operation pays inside the window.
    pub extra_latency: Duration,
}

/// Clock skew injected into the retry scheduler's `epoch_ms` reads (see
/// [`FaultSite::RetryClock`]): with probability `rate`, a read at the
/// injection site observes the epoch shifted by `skew_ms` — so a component
/// schedules (or fires) retry deadlines on a clock that disagrees with the
/// rest of the mesh by that much.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockSkewSpec {
    /// Probability a clock read at the site is skewed.
    pub rate: f64,
    /// Signed offset applied to a skewed read, in milliseconds.
    pub skew_ms: i64,
    /// Optional cap on the number of skewed reads; `None` is unlimited.
    pub budget: Option<u64>,
}

/// The full fault plan for one mesh: per-site specs, optional brownouts,
/// and the seed every decision derives from.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the whole schedule; the same seed replays the same faults.
    pub seed: u64,
    /// Fenced store commands.
    pub store_commands: FaultSpec,
    /// Fenced store pipeline flushes.
    pub store_flushes: FaultSpec,
    /// Checked store admin operations and admin pipeline flushes.
    pub store_admin: FaultSpec,
    /// Fenced broker appends (single and batched).
    pub broker_appends: FaultSpec,
    /// Admin broker appends (recovery re-homing, DLQ provenance).
    pub broker_admin_appends: FaultSpec,
    /// Consumer-side partition polls (see [`FaultSite::ConsumerPoll`] for
    /// the read-shaped decision semantics).
    pub consumer_polls: FaultSpec,
    /// Optional clock skew on the retry scheduler's `epoch_ms` reads.
    pub clock_skew: Option<ClockSkewSpec>,
    /// Optional store-shard brownout window.
    pub store_brownout: Option<BrownoutSpec>,
    /// Optional broker-partition brownout window.
    pub broker_brownout: Option<BrownoutSpec>,
}

impl FaultPlan {
    /// A plan injecting nothing, seeded with `seed`. Build up with the
    /// `with_*` methods.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            store_commands: FaultSpec::NONE,
            store_flushes: FaultSpec::NONE,
            store_admin: FaultSpec::NONE,
            broker_appends: FaultSpec::NONE,
            broker_admin_appends: FaultSpec::NONE,
            consumer_polls: FaultSpec::NONE,
            clock_skew: None,
            store_brownout: None,
            broker_brownout: None,
        }
    }

    /// Sets the spec for one site. [`FaultSite::RetryClock`] is driven by
    /// [`FaultPlan::with_clock_skew`], not a [`FaultSpec`]; setting a spec
    /// on it is a no-op.
    #[must_use]
    pub fn with_site(mut self, site: FaultSite, spec: FaultSpec) -> Self {
        match site {
            FaultSite::StoreCommand => self.store_commands = spec,
            FaultSite::StoreFlush => self.store_flushes = spec,
            FaultSite::StoreAdmin => self.store_admin = spec,
            FaultSite::BrokerAppend => self.broker_appends = spec,
            FaultSite::BrokerAdminAppend => self.broker_admin_appends = spec,
            FaultSite::ConsumerPoll => self.consumer_polls = spec,
            FaultSite::RetryClock => {}
        }
        self
    }

    /// Applies `spec` to every spec-driven site (the "~1% everywhere" chaos
    /// shape). Clock skew stays off unless armed explicitly.
    #[must_use]
    pub fn with_all_sites(mut self, spec: FaultSpec) -> Self {
        for site in FaultSite::ALL {
            self = self.with_site(site, spec);
        }
        self
    }

    /// Arms clock-skew injection on the retry scheduler's `epoch_ms` reads:
    /// each read at the injection site is shifted by `skew_ms` with
    /// probability `rate`.
    #[must_use]
    pub fn with_clock_skew(mut self, rate: f64, skew_ms: i64) -> Self {
        self.clock_skew = Some(ClockSkewSpec {
            rate,
            skew_ms,
            budget: None,
        });
        self
    }

    /// Caps the number of skewed clock reads (requires
    /// [`FaultPlan::with_clock_skew`] first; no-op otherwise).
    #[must_use]
    pub fn with_clock_skew_budget(mut self, budget: u64) -> Self {
        if let Some(spec) = &mut self.clock_skew {
            spec.budget = Some(budget);
        }
        self
    }

    /// Adds a store-shard brownout window.
    #[must_use]
    pub fn with_store_brownout(mut self, brownout: BrownoutSpec) -> Self {
        self.store_brownout = Some(brownout);
        self
    }

    /// Adds a broker-partition brownout window.
    #[must_use]
    pub fn with_broker_brownout(mut self, brownout: BrownoutSpec) -> Self {
        self.broker_brownout = Some(brownout);
        self
    }

    /// True if the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.store_commands.is_none()
            && self.store_flushes.is_none()
            && self.store_admin.is_none()
            && self.broker_appends.is_none()
            && self.broker_admin_appends.is_none()
            && self.consumer_polls.is_none()
            && self.clock_skew.is_none_or(|s| s.rate <= 0.0)
            && self.store_brownout.is_none()
            && self.broker_brownout.is_none()
    }

    fn spec(&self, site: FaultSite) -> &FaultSpec {
        match site {
            FaultSite::StoreCommand => &self.store_commands,
            FaultSite::StoreFlush => &self.store_flushes,
            FaultSite::StoreAdmin => &self.store_admin,
            FaultSite::BrokerAppend => &self.broker_appends,
            FaultSite::BrokerAdminAppend => &self.broker_admin_appends,
            FaultSite::ConsumerPoll => &self.consumer_polls,
            // Clock skew is not spec-driven; decide() never reaches here.
            FaultSite::RetryClock => &FaultSpec::NONE,
        }
    }
}

/// Injection counters for one site.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiteCounters {
    /// Decisions drawn at the site (operations that consulted the injector).
    pub draws: u64,
    /// Transient failures injected.
    pub transient: u64,
    /// Acks dropped (operation applied, failure reported).
    pub ack_lost: u64,
    /// Latency spikes injected.
    pub spikes: u64,
    /// Skewed clock reads injected ([`FaultSite::RetryClock`] only).
    pub skews: u64,
}

/// A counter snapshot across all sites, plus brownout surcharges.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Per-site counters, indexed like [`FaultSite::ALL`].
    pub sites: [SiteCounters; 7],
    /// Store operations that paid a brownout surcharge.
    pub store_brownout_ops: u64,
    /// Broker operations that paid a brownout surcharge.
    pub broker_brownout_ops: u64,
}

impl FaultCounters {
    /// The counters for `site`.
    pub fn site(&self, site: FaultSite) -> SiteCounters {
        self.sites[site.index()]
    }

    /// Total faults (transient + ack-lost) injected across all sites.
    pub fn total_faults(&self) -> u64 {
        self.sites.iter().map(|s| s.transient + s.ack_lost).sum()
    }
}

/// The plane a lane-scoped operation belongs to (selects which brownout
/// window and op counter apply).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPlane {
    /// The store (lanes are data shards).
    Store,
    /// The broker (lanes are partitions).
    Broker,
}

#[derive(Default)]
struct SiteState {
    draws: AtomicU64,
    transient: AtomicU64,
    ack_lost: AtomicU64,
    spikes: AtomicU64,
    skews: AtomicU64,
    injected: AtomicU64,
}

/// The injector threaded through the store and the broker. One instance is
/// shared by both substrates of a mesh so the mesh snapshot reads one set
/// of counters.
pub struct FaultInjector {
    plan: FaultPlan,
    sites: [SiteState; 7],
    store_ops: AtomicU64,
    broker_ops: AtomicU64,
    store_brownout_ops: AtomicU64,
    broker_brownout_ops: AtomicU64,
}

/// SplitMix64 finalizer — the same mixer the chaos harnesses and the retry
/// jitter use, so one seed namespace covers the whole repo.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// A decision value in `[0, 1)` for draw `n` at a site: stateless, so
/// concurrent sites never perturb each other's schedules.
fn unit(site_seed: u64, n: u64) -> f64 {
    let bits = mix(site_seed.wrapping_add(n.wrapping_mul(GOLDEN)));
    // 53 high bits → uniform double in [0, 1).
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

impl FaultInjector {
    /// Builds an injector executing `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            sites: Default::default(),
            store_ops: AtomicU64::new(0),
            broker_ops: AtomicU64::new(0),
            store_brownout_ops: AtomicU64::new(0),
            broker_brownout_ops: AtomicU64::new(0),
        }
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Decides the fate of one operation at `site`, on `lane` of `plane`.
    /// `None` means: proceed normally. The caller owns the contract for each
    /// [`FaultDecision`] (see the module docs).
    pub fn decide(&self, site: FaultSite, plane: FaultPlane, lane: u64) -> Option<FaultDecision> {
        let state = &self.sites[site.index()];
        let spec = self.plan.spec(site);
        let n = state.draws.fetch_add(1, Ordering::Relaxed);

        // The brownout window rides the plane-wide op counter so the seed
        // replays the same window at any host speed; the surcharge composes
        // with (does not replace) the per-site decision below.
        let mut brownout = Duration::ZERO;
        let (ops, window, brownout_counter) = match plane {
            FaultPlane::Store => (
                &self.store_ops,
                self.plan.store_brownout.as_ref(),
                &self.store_brownout_ops,
            ),
            FaultPlane::Broker => (
                &self.broker_ops,
                self.plan.broker_brownout.as_ref(),
                &self.broker_brownout_ops,
            ),
        };
        let op = ops.fetch_add(1, Ordering::Relaxed);
        if let Some(w) = window {
            if w.lane.is_none_or(|l| l == lane)
                && op >= w.after_ops
                && op < w.after_ops.saturating_add(w.ops)
            {
                brownout = w.extra_latency;
                brownout_counter.fetch_add(1, Ordering::Relaxed);
            }
        }

        if spec.is_none() {
            return (brownout > Duration::ZERO).then_some(FaultDecision::Latency(brownout));
        }

        let site_seed = mix(self.plan.seed ^ (site.index() as u64 + 1).wrapping_mul(GOLDEN));
        let draw = unit(site_seed, n);
        // One draw, partitioned into bands: transient | ack-lost | spike |
        // clean. At most one kind fires per operation, and the schedule per
        // site is a pure function of (seed, draw index).
        let decision = if draw < spec.transient_rate {
            Some(FaultDecision::Transient)
        } else if draw < spec.transient_rate + spec.ack_lost_rate {
            Some(FaultDecision::AckLost)
        } else if draw < spec.transient_rate + spec.ack_lost_rate + spec.spike_rate {
            Some(FaultDecision::Latency(spec.spike + brownout))
        } else {
            None
        };

        match decision {
            Some(FaultDecision::Transient) | Some(FaultDecision::AckLost) => {
                // Budget check: a capped site stops *failing* (spikes and
                // brownouts continue) once it has injected its quota.
                if let Some(budget) = spec.budget {
                    let already = state.injected.fetch_add(1, Ordering::Relaxed);
                    if already >= budget {
                        return (brownout > Duration::ZERO)
                            .then_some(FaultDecision::Latency(brownout));
                    }
                }
                match decision {
                    Some(FaultDecision::Transient) => {
                        state.transient.fetch_add(1, Ordering::Relaxed);
                        Some(FaultDecision::Transient)
                    }
                    _ => {
                        state.ack_lost.fetch_add(1, Ordering::Relaxed);
                        Some(FaultDecision::AckLost)
                    }
                }
            }
            Some(FaultDecision::Latency(latency)) => {
                state.spikes.fetch_add(1, Ordering::Relaxed);
                Some(FaultDecision::Latency(latency))
            }
            None => (brownout > Duration::ZERO).then_some(FaultDecision::Latency(brownout)),
        }
    }

    /// Draws one retry-clock reading: the signed epoch-millisecond offset
    /// the reader must add to its `epoch_ms` observation. Zero unless the
    /// plan arms [`ClockSkewSpec`] and this draw lands inside its rate.
    /// Counted at [`FaultSite::RetryClock`] (`draws` / `skews`).
    pub fn epoch_skew_ms(&self) -> i64 {
        let Some(spec) = self.plan.clock_skew else {
            return 0;
        };
        let state = &self.sites[FaultSite::RetryClock.index()];
        let n = state.draws.fetch_add(1, Ordering::Relaxed);
        if spec.rate <= 0.0 {
            return 0;
        }
        let site_seed =
            mix(self.plan.seed ^ (FaultSite::RetryClock.index() as u64 + 1).wrapping_mul(GOLDEN));
        if unit(site_seed, n) >= spec.rate {
            return 0;
        }
        if let Some(budget) = spec.budget {
            let already = state.injected.fetch_add(1, Ordering::Relaxed);
            if already >= budget {
                return 0;
            }
        }
        state.skews.fetch_add(1, Ordering::Relaxed);
        spec.skew_ms
    }

    /// Snapshot of the injection counters.
    pub fn counters(&self) -> FaultCounters {
        let mut sites = [SiteCounters::default(); 7];
        for (slot, state) in sites.iter_mut().zip(&self.sites) {
            *slot = SiteCounters {
                draws: state.draws.load(Ordering::Relaxed),
                transient: state.transient.load(Ordering::Relaxed),
                ack_lost: state.ack_lost.load(Ordering::Relaxed),
                spikes: state.spikes.load(Ordering::Relaxed),
                skews: state.skews.load(Ordering::Relaxed),
            };
        }
        FaultCounters {
            sites,
            store_brownout_ops: self.store_brownout_ops.load(Ordering::Relaxed),
            broker_brownout_ops: self.broker_brownout_ops.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("plan", &self.plan)
            .field("counters", &self.counters())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(injector: &FaultInjector, site: FaultSite, plane: FaultPlane, n: u64) -> Vec<String> {
        (0..n)
            .map(|_| format!("{:?}", injector.decide(site, plane, 0)))
            .collect()
    }

    #[test]
    fn same_seed_replays_the_same_schedule() {
        let plan = FaultPlan::new(0xDEAD_BEEF).with_all_sites(
            FaultSpec::transient(0.05)
                .with_ack_lost(0.05)
                .with_spike(0.05, Duration::from_millis(1)),
        );
        let a = FaultInjector::new(plan.clone());
        let b = FaultInjector::new(plan);
        assert_eq!(
            drain(&a, FaultSite::StoreCommand, FaultPlane::Store, 500),
            drain(&b, FaultSite::StoreCommand, FaultPlane::Store, 500),
        );
        // A different seed produces a different schedule.
        let c = FaultInjector::new(
            FaultPlan::new(0xFEED_FACE)
                .with_all_sites(FaultSpec::transient(0.05).with_ack_lost(0.05)),
        );
        assert_ne!(
            drain(&a, FaultSite::BrokerAppend, FaultPlane::Broker, 500),
            drain(&c, FaultSite::BrokerAppend, FaultPlane::Broker, 500),
        );
    }

    #[test]
    fn sites_have_independent_schedules() {
        let plan = FaultPlan::new(7).with_all_sites(FaultSpec::transient(0.2));
        let a = FaultInjector::new(plan.clone());
        let b = FaultInjector::new(plan);
        // Interleaving draws at *other* sites must not perturb a site's own
        // schedule (concurrency safety of the replay contract).
        for _ in 0..100 {
            b.decide(FaultSite::StoreFlush, FaultPlane::Store, 0);
            b.decide(FaultSite::BrokerAppend, FaultPlane::Broker, 3);
        }
        assert_eq!(
            drain(&a, FaultSite::StoreCommand, FaultPlane::Store, 200),
            drain(&b, FaultSite::StoreCommand, FaultPlane::Store, 200),
        );
    }

    #[test]
    fn rates_are_roughly_honored_and_counted() {
        let plan = FaultPlan::new(42).with_site(
            FaultSite::StoreCommand,
            FaultSpec::transient(0.10).with_ack_lost(0.10),
        );
        let injector = FaultInjector::new(plan);
        let mut transients = 0u64;
        let mut ack_losts = 0u64;
        for _ in 0..10_000 {
            match injector.decide(FaultSite::StoreCommand, FaultPlane::Store, 0) {
                Some(FaultDecision::Transient) => transients += 1,
                Some(FaultDecision::AckLost) => ack_losts += 1,
                _ => {}
            }
        }
        assert!(
            (800..=1200).contains(&transients),
            "transients: {transients}"
        );
        assert!((800..=1200).contains(&ack_losts), "ack_losts: {ack_losts}");
        let counters = injector.counters();
        let site = counters.site(FaultSite::StoreCommand);
        assert_eq!(site.transient, transients);
        assert_eq!(site.ack_lost, ack_losts);
        assert_eq!(site.draws, 10_000);
        assert_eq!(counters.total_faults(), transients + ack_losts);
        // A spec-less site decides nothing and counts nothing.
        assert_eq!(
            injector.decide(FaultSite::BrokerAppend, FaultPlane::Broker, 0),
            None
        );
        assert_eq!(
            injector.counters().site(FaultSite::BrokerAppend).transient,
            0
        );
    }

    #[test]
    fn budget_caps_injected_faults() {
        let plan = FaultPlan::new(3).with_site(
            FaultSite::StoreAdmin,
            FaultSpec::ack_lost(1.0).with_budget(1),
        );
        let injector = FaultInjector::new(plan);
        let mut dropped = 0;
        for _ in 0..50 {
            if injector.decide(FaultSite::StoreAdmin, FaultPlane::Store, 0)
                == Some(FaultDecision::AckLost)
            {
                dropped += 1;
            }
        }
        assert_eq!(dropped, 1, "budget of 1 = exactly one dropped ack");
        assert_eq!(injector.counters().site(FaultSite::StoreAdmin).ack_lost, 1);
    }

    #[test]
    fn brownout_window_targets_one_lane_by_op_count() {
        let plan = FaultPlan::new(9).with_store_brownout(BrownoutSpec {
            lane: Some(2),
            after_ops: 10,
            ops: 20,
            extra_latency: Duration::from_millis(5),
        });
        let injector = FaultInjector::new(plan);
        let mut browned = 0u64;
        for op in 0..50u64 {
            // Alternate lanes; only lane 2 inside [10, 30) browns out.
            let lane = op % 4;
            let hit = injector.decide(FaultSite::StoreCommand, FaultPlane::Store, lane)
                == Some(FaultDecision::Latency(Duration::from_millis(5)));
            if hit {
                browned += 1;
                assert_eq!(lane, 2);
                assert!((10..30).contains(&op), "outside the window at op {op}");
            }
        }
        assert_eq!(browned, 5, "lane 2 hits inside a 20-op window of stride 4");
        assert_eq!(injector.counters().store_brownout_ops, 5);
        // Broker plane is untouched by a store brownout.
        assert_eq!(
            injector.decide(FaultSite::BrokerAppend, FaultPlane::Broker, 2),
            None
        );
    }

    #[test]
    fn consumer_poll_site_draws_independently() {
        let plan = FaultPlan::new(11).with_site(
            FaultSite::ConsumerPoll,
            FaultSpec::transient(1.0).with_budget(2),
        );
        let injector = FaultInjector::new(plan);
        assert_eq!(
            injector.decide(FaultSite::ConsumerPoll, FaultPlane::Broker, 0),
            Some(FaultDecision::Transient)
        );
        assert_eq!(
            injector.decide(FaultSite::ConsumerPoll, FaultPlane::Broker, 1),
            Some(FaultDecision::Transient)
        );
        // Budget spent: polls proceed cleanly, other sites untouched.
        assert_eq!(
            injector.decide(FaultSite::ConsumerPoll, FaultPlane::Broker, 0),
            None
        );
        let counters = injector.counters();
        assert_eq!(counters.site(FaultSite::ConsumerPoll).transient, 2);
        assert_eq!(counters.site(FaultSite::BrokerAppend).draws, 0);
    }

    #[test]
    fn clock_skew_draws_count_and_respect_budget() {
        // Unarmed: zero offset, zero draws.
        let clean = FaultInjector::new(FaultPlan::new(5));
        assert_eq!(clean.epoch_skew_ms(), 0);
        assert_eq!(clean.counters().site(FaultSite::RetryClock).draws, 0);

        let plan = FaultPlan::new(5)
            .with_clock_skew(1.0, -250)
            .with_clock_skew_budget(3);
        assert!(!plan.is_empty());
        let injector = FaultInjector::new(plan);
        let skews: Vec<i64> = (0..10).map(|_| injector.epoch_skew_ms()).collect();
        assert_eq!(skews.iter().filter(|s| **s == -250).count(), 3);
        assert_eq!(skews.iter().filter(|s| **s == 0).count(), 7);
        let site = injector.counters().site(FaultSite::RetryClock);
        assert_eq!(site.draws, 10);
        assert_eq!(site.skews, 3);
        // Same seed, same skew schedule.
        let replay = FaultInjector::new(
            FaultPlan::new(5)
                .with_clock_skew(1.0, -250)
                .with_clock_skew_budget(3),
        );
        let again: Vec<i64> = (0..10).map(|_| replay.epoch_skew_ms()).collect();
        assert_eq!(skews, again);
    }

    #[test]
    fn empty_plan_is_empty_and_builders_compose() {
        assert!(FaultPlan::new(1).is_empty());
        let plan = FaultPlan::new(1)
            .with_site(FaultSite::BrokerAppend, FaultSpec::transient(0.01))
            .with_broker_brownout(BrownoutSpec {
                lane: None,
                after_ops: 0,
                ops: 10,
                extra_latency: Duration::from_millis(1),
            });
        assert!(!plan.is_empty());
        assert_eq!(plan.broker_appends, FaultSpec::transient(0.01));
        assert_eq!(plan.store_commands, FaultSpec::NONE);
    }
}
