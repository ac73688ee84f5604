//! Application components: the paired application + runtime sidecar process.
//!
//! Each component owns a dedicated queue **partition set** (the paper's
//! Kafka deployment assigns each component a set of partitions, §4.1):
//! producers hash requests onto the set's stable *home* partitions by actor
//! key, consumer *lanes* (units of consumer concurrency, see
//! `MeshConfig::consumers_per_component`) drain them, and recovery can
//! re-home a failed component's partition *ranges* onto survivors as
//! drain-only *adopted* partitions. The component announces the actor types
//! it hosts, routes polled requests by actor identity onto a sharded
//! dispatch queue (see `crate::dispatch`) that admits them to per-actor
//! mailboxes (honouring the actor lock, reentrancy and tail-call lock
//! retention of §2.2–2.3 and §4.1), sends responses back to callers'
//! queues (hashed onto the caller's partition set), and defers re-homed
//! requests until their pending callee settles (the happen-before guarantee
//! of §4.3).
//!
//! The component owns **no threads**. All of its partitions and dispatch
//! shards are pumped by the mesh's fixed reactor pool
//! ([`crate::mesh`], `MeshConfig::reactor_threads`) through
//! `ComponentCore::pump`, and its periodic duties (heartbeat, bookkeeping
//! aging, continuation timeouts, orphaned-response routing, partition
//! retirement) run on the mesh's single timer thread through
//! `ComponentCore::tick`. Handlers that issue nested calls park a
//! continuation instead of blocking a thread (see [`crate::continuation`]);
//! invocations for distinct actors still execute in parallel, up to the
//! reactor-pool width at a time.
//!
//! Rebalance safety: admission verifies the *placement* of every request it
//! is about to execute (one cache hit in steady state) and forwards requests
//! whose actor is owned elsewhere — so a record landing on an adopted
//! partition after its actor was re-placed chases the current placement
//! instead of double-executing, and stale consumers of a re-homed partition
//! are cut off by the broker's per-partition ownership epochs.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use kar_types::mono_now;

use crossbeam::channel::{bounded, RecvTimeoutError, Sender};
use parking_lot::{Mutex, RwLock};

use kar_queue::{Broker, Consumer, PartitionSet, Producer, Record};
use kar_store::{Connection, Store};
use kar_types::ids::RequestIdGenerator;
use kar_types::RequestId;
use kar_types::{
    epoch_ms, ActorRef, Backoff, CallKind, ComponentId, Envelope, KarError, KarResult, NodeId,
    Payload, RequestMessage, ResponseMessage, RetryPolicy, RetryState, RetryVerdict, Value,
    WaitSignalGroup,
};

use crate::actor::{ActorFactory, Outcome};
use crate::aging::{AgingMap, AgingSet};
use crate::config::{CancellationPolicy, MeshConfig};
use crate::context::{state_key, ActorContext};
use crate::continuation::{Continuation, ContinuationTable, ParkedContinuation};
use crate::delivery::ResponseBatcher;
use crate::dispatch::DispatchPool;
use crate::faults::{retry_transient, TRANSIENT_ATTEMPTS};
use crate::placement::{LiveSet, PlacementService};
use crate::retry::{BreakerRegistry, RetryBudget};
use crate::snapshot::{ActorSnapshot, ComponentSnapshot, PartitionQueue};
use crate::state_cache::StateCache;

/// The mesh-wide dead-letter queue topic: one partition per component, keyed
/// by the dead-lettering component's raw id. Entries are full request
/// records (final [`RetryState`] included) — never consumed by components,
/// only read back through `Mesh::dlq_stats` / re-injected by
/// `Mesh::dlq_retry`.
pub(crate) const DLQ_TOPIC: &str = "kar-dlq";

/// Base delay of the shaped backoff applied to deferred new-actor
/// activations (wall-clock, like retry policies — not compressed by
/// `MeshConfig::time_scale`). Grows exponentially with deterministic jitter
/// on repeated deferral, capped at 16× the base.
const ACTIVATION_BACKOFF: Duration = Duration::from_millis(25);

/// Execution counters of one component, read through
/// [`ComponentSnapshot`].
#[derive(Debug, Default)]
pub(crate) struct ComponentStats {
    /// Invocations executed to completion (value, error, or tail call).
    pub executed: AtomicU64,
    /// Requests whose retry was postponed waiting for a pending callee.
    pub deferred: AtomicU64,
    /// Requests elided because their caller's component had failed (§4.4).
    pub cancelled: AtomicU64,
    /// Tail calls issued.
    pub tail_calls: AtomicU64,
    /// Requests forwarded because this component does not host the type.
    pub forwarded: AtomicU64,
    /// Policy retries scheduled (failed attempts re-appended with a bumped
    /// attempt count and a next-fire deadline).
    pub retries_scheduled: AtomicU64,
    /// Invocations moved to the dead-letter queue after exhausting their
    /// retry policy.
    pub dead_lettered: AtomicU64,
    /// Idle actors passivated (state flushed, slot and cached image
    /// dropped, tombstone recorded).
    pub passivations: AtomicU64,
    /// Passivated actors re-activated through the ordinary admission path.
    pub rehydrations: AtomicU64,
    /// New-actor activations deferred at an admission watermark (shed onto
    /// the delayed heap with shaped backoff, never dropped).
    pub admission_deferrals: AtomicU64,
}

/// The delayed-retry timer wheel of one component: scheduled retries wait
/// here — counted as locally pending, so reconciliation never re-homes a
/// duplicate — until their deadline fires and the mesh retry budget admits
/// them back into the dispatch pool.
#[derive(Default)]
struct DelayedRetries {
    heap: BinaryHeap<Reverse<u64>>,
    /// Entries keyed by deadline (the heap holds deadlines only; two
    /// requests sharing a millisecond ride the same key).
    by_deadline: HashMap<u64, Vec<RequestMessage>>,
    ids: HashSet<RequestId>,
}

/// Per-actor dispatch state: the in-memory instance, the actor lock, and the
/// in-memory mailbox of §4.1.
#[derive(Default)]
struct ActorSlot {
    instance: Option<Box<dyn crate::actor::Actor>>,
    busy: bool,
    busy_chain: Vec<RequestId>,
    awaiting_tail: Option<RequestId>,
    mailbox: VecDeque<RequestMessage>,
    /// Placement-check locality: the placement-cache epoch in which this
    /// actor's ownership by this component was last verified. While the
    /// stamp matches the current epoch, admission skips placement resolution
    /// entirely (not even a cache hit); a recovery-driven `clear_cache`
    /// bumps the epoch and thereby invalidates every stamp in O(1).
    verified_epoch: Option<u64>,
    /// Set while admission has deferred this actor's activation at a
    /// watermark: the id of the parked head request, waiting out its shaped
    /// backoff in the delayed heap. Later requests mailbox behind it (so
    /// per-actor FIFO holds across the deferral), and the passivation sweep
    /// never drops a slot with a deferral pending.
    activation_parked: Option<RequestId>,
    /// Consecutive deferrals of the parked head: each one grows the shaped
    /// backoff further.
    activation_deferrals: u32,
}

/// The admission decision for one polled request.
enum Admission {
    /// Admitted: run this invocation inline — `(request, holds_lock,
    /// reentrant)`.
    Run(RequestMessage, bool, bool),
    /// Not ours: forward to the current placement, *outside* the shard
    /// claim (forwarding may wait out a stale placement).
    Forward(RequestMessage),
    /// Absorbed: duplicate, deferred, mailboxed, or dropped.
    Done,
}

/// One consumer lane: the unit of consumer concurrency (what used to be a
/// consumer *thread*). A reactor claims a lane with `try_lock` — a lane
/// being swept on another reactor is skipped, not waited for — so the old
/// one-thread-per-lane serialization of its partitions is preserved without
/// dedicating a thread to it.
struct ConsumerLane {
    consumers: Mutex<Vec<Consumer<Envelope>>>,
}

/// One dispatch-shard claim held by a `drain_shard` frame on this thread.
/// `core` is an identity (never dereferenced); `yielded` records that a
/// blocking wait inside the frame's invocation handed the shard off.
struct ShardClaim {
    core: usize,
    shard: usize,
    yielded: bool,
}

thread_local! {
    /// Dispatch-shard claims held by `drain_shard` frames on this thread,
    /// innermost last. Entering a blocking runtime wait *yields* the
    /// innermost claim — the reactor-era version of the old worker-thread
    /// hand-off to a replacement drainer: the shard stays drainable by any
    /// reactor (including this thread's own nested pumps) while the
    /// invocation is parked, so two actors on one shard calling each other
    /// cannot deadlock, and one stale placement never stalls every other
    /// actor pinned to the shard.
    static SHARD_CLAIMS: std::cell::RefCell<Vec<ShardClaim>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// The runtime core of one application component.
pub struct ComponentCore {
    pub(crate) id: ComponentId,
    pub(crate) node: NodeId,
    pub(crate) name: String,
    pub(crate) config: MeshConfig,
    pub(crate) topic: String,
    pub(crate) group: String,
    /// This component's partition set: the stable home range requests hash
    /// onto, plus partition ranges adopted from failed components during
    /// recovery (drained but never hash-routed to).
    pub(crate) partitions: RwLock<PartitionSet>,
    pub(crate) broker: Broker<Envelope>,
    pub(crate) store: Store,
    pub(crate) producer: Producer<Envelope>,
    /// Store connection used by the persistence API of hosted actors.
    pub(crate) conn: Connection,
    pub(crate) placement: PlacementService,
    /// The mesh-wide partition topology: every component's partition set,
    /// consulted to route requests and responses to their target component.
    pub(crate) topology: Arc<RwLock<HashMap<ComponentId, PartitionSet>>>,
    pub(crate) live: LiveSet,
    pub(crate) ids: Arc<RequestIdGenerator>,
    pub(crate) hosted: HashMap<String, ActorFactory>,
    pub(crate) stats: ComponentStats,
    /// The sharded dispatch worker pool: requests are routed here by actor
    /// identity, one drainer per shard at a time.
    pool: DispatchPool,
    alive: AtomicBool,
    paused: AtomicBool,
    /// The mesh-wide reactor wake signal: bumped whenever this component
    /// gains work (an append to one of its partitions, a shard push, a
    /// timed-out continuation), so an idle reactor resumes sweeping.
    wakeup: Arc<WaitSignalGroup>,
    /// This component's consumer lanes. Starts at the pre-failure steady
    /// state (`MeshConfig::consumers_per_component` lanes over the home
    /// partitions), grows by one lane per adopted partition range, and
    /// shrinks back as adopted ranges are retired.
    lanes: Mutex<Vec<Arc<ConsumerLane>>>,
    /// Continuations parked on nested calls, keyed by the nested request id
    /// (see [`crate::continuation`]).
    continuations: ContinuationTable,
    /// Continuations whose deadline passed, moved here by the mesh timer and
    /// resumed with a timeout error by the next reactor sweep — application
    /// code never runs on the timer thread.
    timed_out: Mutex<Vec<(RequestId, ParkedContinuation)>>,
    /// Responses whose caller's component failed, parked until
    /// reconciliation re-places the caller actor (swept by the mesh timer;
    /// dropped at their deadline). Replaces the per-response routing thread.
    orphan_responses: Mutex<Vec<(ResponseMessage, Duration)>>,
    /// Set after the first failed heartbeat (the component was fenced or its
    /// group is gone): parity with the old dedicated heartbeat thread, which
    /// exited at that point and took the bookkeeping aging with it.
    heartbeats_stopped: AtomicBool,
    /// Per-partition offset of the next record this component's consumers
    /// will read; used by reconciliation to decide whether a request copy in
    /// a queue is still going to be processed. Grows when partitions are
    /// adopted.
    consumed_offsets: RwLock<HashMap<usize, Arc<AtomicU64>>>,
    /// Per-destination-partition response batching (group commit): bursts of
    /// completions towards one caller partition share a lock acquisition and
    /// a durable ack. `None` when `MeshConfig::response_batching` is off.
    responses: Option<ResponseBatcher>,
    /// Requests this component has durably appended (one keyed append
    /// each); reported as both halves of `request_batch_stats`.
    requests_appended: AtomicU64,
    /// Broker-clock instants at which each currently-adopted partition was
    /// adopted; drives the retirement horizon (see `maybe_retire_partitions`).
    adopted_at: Mutex<HashMap<usize, Duration>>,
    /// Adopted partitions this component has retired (fenced, dropped from
    /// the reactor wake group, removed from the partition set).
    retired: Mutex<Vec<usize>>,
    actors: Mutex<HashMap<ActorRef, ActorSlot>>,
    pending_calls: Mutex<HashMap<RequestId, Sender<Arc<Payload>>>>,
    deferred: Mutex<HashMap<RequestId, Vec<RequestMessage>>>,
    /// Response ids seen by this component. Aged out alongside queue
    /// retention: a response old enough to leave the set has also expired
    /// from every queue, so no deferred retry can still be waiting on it.
    seen_responses: Mutex<AgingSet<RequestId>>,
    inflight: Mutex<HashSet<RequestId>>,
    /// Completed request ids (retry dedupe). Aged out alongside queue
    /// retention: a retry can only arrive from an unexpired queue record.
    completed: Mutex<AgingSet<RequestId>>,
    /// The per-activation actor-state cache: read-through on first touch,
    /// buffered writes flushed as one pipelined round trip strictly before
    /// each invocation's completion is sent.
    state_cache: StateCache,
    /// The mesh-wide retry token bucket (shared by every component): each
    /// *scheduled* retry admission spends one token; an empty bucket sheds
    /// the retry back onto its backoff timer (never dropped).
    budget: Arc<RetryBudget>,
    /// The mesh-wide per-actor-type circuit breakers (shared by every
    /// component): consulted before each invocation executes, fed after.
    breakers: Arc<BreakerRegistry>,
    /// Scheduled retries waiting out their next-fire deadline.
    delayed: Mutex<DelayedRetries>,
    /// Earliest deadline in `delayed` (epoch ms; `0` = empty): lets every
    /// reactor sweep and timer tick skip the heap lock while nothing is due.
    delayed_earliest: AtomicU64,
    /// The passivation clock: every admission stamps its actor here, and an
    /// actor idle for two generations (one to two compressed retention
    /// windows — the state cache's single-window interval, not the doubled
    /// bookkeeping one) becomes a passivation candidate. Same
    /// two-generation [`AgingMap`] idiom as the steal-route table; lock
    /// order is actors → idle_actors everywhere.
    idle_actors: Mutex<AgingMap<ActorRef, ()>>,
    /// Passivation tombstones: consumed — and counted as a rehydration — by
    /// the actor's next admission, and rotated out on the bookkeeping clock
    /// so the set itself cannot leak.
    passivated: Mutex<AgingSet<ActorRef>>,
    /// Number of resident (activated, non-deferred) actor slots: what the
    /// resident watermarks compare against. Mutated under the actors lock.
    resident_count: AtomicUsize,
    /// Total mailboxed (admitted, waiting behind a busy actor) requests
    /// across all resident actors. Mutated under the actors lock.
    mailboxed: AtomicUsize,
    /// Transient consumer-poll failures survived (injected or real). The
    /// consumer stays subscribed and is retried on the next sweep; only a
    /// fencing error detaches it.
    poll_faults: AtomicU64,
    /// The mesh's gray-failure injector, consulted by the retry scheduler
    /// for clock-skew injection on its `epoch_ms` reads (`None` = no plan).
    faults: Option<Arc<kar_types::FaultInjector>>,
}

#[allow(clippy::too_many_arguments)]
impl ComponentCore {
    pub(crate) fn new(
        id: ComponentId,
        node: NodeId,
        name: String,
        config: MeshConfig,
        topic: String,
        group: String,
        partitions: PartitionSet,
        broker: Broker<Envelope>,
        store: Store,
        topology: Arc<RwLock<HashMap<ComponentId, PartitionSet>>>,
        live: LiveSet,
        ids: Arc<RequestIdGenerator>,
        hosted: HashMap<String, ActorFactory>,
        wakeup: Arc<WaitSignalGroup>,
        budget: Arc<RetryBudget>,
        breakers: Arc<BreakerRegistry>,
        faults: Option<Arc<kar_types::FaultInjector>>,
    ) -> Self {
        let producer = broker.producer(id);
        let conn = store.connect(id);
        let placement = PlacementService::new(
            store.connect(id),
            live.clone(),
            config.placement_cache,
            config.effective_dispatch_workers(),
            config.call_timeout,
        );
        // The retry bookkeeping — and the dispatcher's steal-route table —
        // age on the queue-retention clock: the broker coordinator actively
        // expires records past retention (even on idle partitions), so an id
        // old enough to rotate out of both generations corresponds to
        // records no queue can still deliver. Rotating at 2× retention
        // (membership 2–4 windows) leaves a full retention window of safety
        // margin over the queue horizon.
        let bookkeeping_interval = config.time_scale.compress(config.retention * 2);
        let pool = DispatchPool::new(
            config.effective_dispatch_workers(),
            bookkeeping_interval,
            Some(Arc::clone(&wakeup)),
        );
        let consumed_offsets = partitions
            .all()
            .into_iter()
            .map(|partition| (partition, Arc::new(AtomicU64::new(0))))
            .collect();
        // State-cache eviction rides the *single* retention window (not the
        // doubled bookkeeping interval): a clean entry whose actor has been
        // idle for one to two windows is dropped and reloaded on next touch.
        let state_cache_interval = config.time_scale.compress(config.retention);
        let response_batcher = config.response_batching.then(ResponseBatcher::new);
        ComponentCore {
            id,
            node,
            name,
            config,
            topic,
            group,
            partitions: RwLock::new(partitions),
            broker,
            store,
            producer,
            conn,
            placement,
            topology,
            live,
            ids,
            hosted,
            stats: ComponentStats::default(),
            pool,
            alive: AtomicBool::new(true),
            paused: AtomicBool::new(false),
            wakeup,
            lanes: Mutex::new(Vec::new()),
            continuations: ContinuationTable::default(),
            timed_out: Mutex::new(Vec::new()),
            orphan_responses: Mutex::new(Vec::new()),
            heartbeats_stopped: AtomicBool::new(false),
            consumed_offsets: RwLock::new(consumed_offsets),
            responses: response_batcher,
            requests_appended: AtomicU64::new(0),
            adopted_at: Mutex::new(HashMap::new()),
            retired: Mutex::new(Vec::new()),
            actors: Mutex::new(HashMap::new()),
            pending_calls: Mutex::new(HashMap::new()),
            deferred: Mutex::new(HashMap::new()),
            seen_responses: Mutex::new(AgingSet::new(bookkeeping_interval)),
            inflight: Mutex::new(HashSet::new()),
            completed: Mutex::new(AgingSet::new(bookkeeping_interval)),
            state_cache: StateCache::new(state_cache_interval),
            budget,
            breakers,
            delayed: Mutex::new(DelayedRetries::default()),
            delayed_earliest: AtomicU64::new(0),
            // The passivation clock shares the state cache's single-window
            // interval: an actor and its cached state image go cold
            // together, strictly inside the doubled dedup window — so a
            // rehydrated actor can never outlive its retry-dedup entries.
            idle_actors: Mutex::new(AgingMap::new(state_cache_interval)),
            passivated: Mutex::new(AgingSet::new(bookkeeping_interval)),
            resident_count: AtomicUsize::new(0),
            mailboxed: AtomicUsize::new(0),
            poll_faults: AtomicU64::new(0),
            faults,
        }
    }

    /// The component's id.
    pub fn id(&self) -> ComponentId {
        self.id
    }

    /// True until the component is killed or shut down.
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    /// True if the component hosts at least one actor type (clients host
    /// none; recovery only re-homes partition ranges onto hosting
    /// components).
    pub(crate) fn hosts_any(&self) -> bool {
        !self.hosted.is_empty()
    }

    /// True while recovery has paused normal message processing.
    pub fn is_paused(&self) -> bool {
        self.paused.load(Ordering::SeqCst)
    }

    pub(crate) fn pause(&self) {
        self.paused.store(true, Ordering::SeqCst);
    }

    pub(crate) fn resume(&self) {
        self.placement.clear_cache();
        // Conservative state-cache refresh after recovery: clean entries are
        // dropped (cheap to reload); entries with buffered writes belong to
        // invocations still executing here — placement never moves an actor
        // off a live component, so their image stays authoritative and their
        // upcoming flush must not be silently lost.
        self.state_cache.invalidate_clean();
        // Retirement-leak sweep: a later recovery may have fenced an adopted
        // partition *before* its retirement horizon (the range was re-homed
        // again). Its consumer was dropped on the failed poll, but its
        // `adopted_at` entry — keyed by a partition this component no longer
        // consumes — would otherwise linger forever. Drop every entry whose
        // partition is no longer in the adopted set.
        {
            let adopted: HashSet<usize> =
                self.partitions.read().adopted().iter().copied().collect();
            self.adopted_at
                .lock()
                .retain(|partition, _| adopted.contains(partition));
        }
        self.paused.store(false, Ordering::SeqCst);
        // Queued work accumulated during the pause (and repairs made by the
        // recovery) won't announce themselves: wake the reactors.
        self.wakeup.notify();
    }

    /// Abruptly terminates the component: in-memory state (actor instances,
    /// mailboxes, blocked calls) is dropped and every thread unwinds at its
    /// next interaction with the runtime. Queue contents and persisted actor
    /// state survive.
    pub(crate) fn kill(&self) {
        self.alive.store(false, Ordering::SeqCst);
        self.actors.lock().clear();
        // Passivation bookkeeping is in-memory state: the resident set died
        // with the slots, and a re-homed actor activates fresh on its
        // adopter (tombstones are a live-component counting aid, nothing
        // recovery depends on).
        self.resident_count.store(0, Ordering::SeqCst);
        self.mailboxed.store(0, Ordering::SeqCst);
        self.idle_actors.lock().clear();
        self.passivated.lock().clear();
        // Detach the consumers from the reactor wake group: partitions must
        // not keep notifying — or keep membership for — a dead component.
        let lanes: Vec<Arc<ConsumerLane>> = std::mem::take(&mut *self.lanes.lock());
        for lane in lanes {
            let mut consumers = lane.consumers.lock();
            for consumer in consumers.iter() {
                consumer.leave_wait_group(&self.wakeup);
            }
            consumers.clear();
        }
        // Parked continuations are in-memory state: dropped with the
        // process. The queue copies of their original requests drive the
        // retries on the adopters (§4.3).
        self.continuations.clear();
        self.timed_out.lock().clear();
        self.orphan_responses.lock().clear();
        // The in-memory state images die with the process; unflushed writes
        // are lost, exactly like the in-flight writes of a killed
        // per-command component (no response was sent for them).
        self.state_cache.invalidate_all();
        // Dropping the senders wakes every thread blocked on a nested call.
        self.pending_calls.lock().clear();
        self.deferred.lock().clear();
        self.inflight.lock().clear();
        // Buffered (not yet appended) completions die with the process; the
        // affected requests' queue copies drive the retry.
        if let Some(responses) = &self.responses {
            responses.clear();
        }
        // Records already routed to shard queues are in-memory state: lost
        // with the process. Their queue copies survive and drive the retry.
        self.pool.clear_pending();
        // Delayed retries are in-memory too: their durable queue copies
        // (each carrying the persisted RetryState) drive recovery, and the
        // adopter's admission re-parks them on the same schedule.
        {
            let mut delayed = self.delayed.lock();
            delayed.heap.clear();
            delayed.by_deadline.clear();
            delayed.ids.clear();
        }
        self.delayed_earliest.store(0, Ordering::SeqCst);
        // Reactors parked on the group re-check `is_alive` on wake.
        self.wakeup.notify();
    }

    /// A snapshot of the placement cache's hit/miss/invalidation counters.
    pub fn placement_counters(&self) -> crate::placement::PlacementCounters {
        self.placement.counters()
    }

    /// This component's part of [`Mesh::snapshot`](crate::Mesh::snapshot).
    /// The actor, deferral, inflight and blocked-call tables are read under
    /// `try_lock` (`None` when held), so a wedged component is reported
    /// instead of deadlocking the reader.
    pub(crate) fn snapshot(&self) -> ComponentSnapshot {
        let partitions = self.partitions.read().clone();
        let queues = partitions
            .all()
            .into_iter()
            .map(|partition| PartitionQueue {
                partition,
                consumed: self.consumed_offset(partition),
                len: self.broker.partition_len(&self.topic, partition),
                end_offset: self.broker.end_offset(&self.topic, partition),
            })
            .collect();
        let delay = self.config.scaled_retirement_delay();
        let now = mono_now();
        let mut retire_in: Vec<(usize, Duration)> = self
            .adopted_at
            .lock()
            .iter()
            .map(|(partition, adopted)| {
                (
                    *partition,
                    delay.saturating_sub(now.saturating_sub(*adopted)),
                )
            })
            .collect();
        retire_in.sort_unstable();
        let actors = self.actors.try_lock().map(|actors| {
            let mut busy: Vec<ActorSnapshot> = actors
                .iter()
                .filter(|(_, slot)| !Self::quiescent(slot))
                .map(|(actor, slot)| ActorSnapshot {
                    actor: actor.clone(),
                    busy: slot.busy,
                    awaiting_tail: slot.awaiting_tail,
                    activation_parked: slot.activation_parked,
                    mailbox: slot.mailbox.iter().map(|r| r.id).collect(),
                })
                .collect();
            busy.sort_by(|a, b| a.actor.cmp(&b.actor));
            busy
        });
        let deferred_on_callee = self.deferred.try_lock().map(|deferred| {
            let mut entries: Vec<(RequestId, Vec<RequestId>)> = deferred
                .iter()
                .map(|(callee, requests)| (*callee, requests.iter().map(|r| r.id).collect()))
                .collect();
            entries.sort_unstable();
            entries
        });
        let sorted = |mut ids: Vec<RequestId>| {
            ids.sort_unstable();
            ids
        };
        let inflight = self
            .inflight
            .try_lock()
            .map(|inflight| sorted(inflight.iter().copied().collect()));
        let blocked_calls = self
            .pending_calls
            .try_lock()
            .map(|calls| sorted(calls.keys().copied().collect()));
        let stats = &self.stats;
        let counter = |c: &AtomicU64| c.load(Ordering::Relaxed);
        ComponentSnapshot {
            id: self.id,
            node: self.node,
            name: self.name.clone(),
            alive: self.is_alive(),
            paused: self.is_paused(),
            partitions,
            queues,
            lanes: self.lanes.lock().len(),
            retire_in,
            retired: self.retired.lock().clone(),
            requests_appended: counter(&self.requests_appended),
            response_batches: self.response_batch_stats(),
            placement: self.placement_counters(),
            parked_continuations: self.continuations.len(),
            continuation_parks: self.continuations.parked_total(),
            resident: self.resident_count.load(Ordering::Relaxed),
            mailboxed: self.mailboxed.load(Ordering::Relaxed),
            cached_states: self.state_cache.len(),
            state_cache_evictions: self.state_cache.eviction_count(),
            completed_ids: self.completed.lock().len(),
            seen_responses: self.seen_responses.lock().len(),
            delayed_retries: self.delayed.lock().ids.len(),
            poll_faults: counter(&self.poll_faults),
            executed: counter(&stats.executed),
            deferred: counter(&stats.deferred),
            cancelled: counter(&stats.cancelled),
            tail_calls: counter(&stats.tail_calls),
            forwarded: counter(&stats.forwarded),
            retries_scheduled: counter(&stats.retries_scheduled),
            dead_lettered: counter(&stats.dead_lettered),
            passivations: counter(&stats.passivations),
            rehydrations: counter(&stats.rehydrations),
            admission_deferrals: counter(&stats.admission_deferrals),
            dispatch: self.pool.snapshot(),
            actors,
            deferred_on_callee,
            inflight,
            blocked_calls,
        }
    }

    /// The home partition of `component` that `key` hashes to: how every
    /// request and response is routed onto a target component's partition
    /// set. Keys are actor qualified names (or the request id for responses
    /// to external clients), so one actor's records always land in one
    /// partition.
    fn partition_for(&self, component: ComponentId, key: &str) -> Option<usize> {
        self.topology
            .read()
            .get(&component)
            .and_then(|set| set.partition_for_key(key))
    }

    /// The home partition of this component that `actor`'s records hash to.
    fn own_partition_for(&self, actor: &ActorRef) -> Option<usize> {
        self.partitions
            .read()
            .partition_for_key(&actor.qualified_name())
    }

    /// The routing key of the response to `request`: the caller actor when
    /// there is one (so one actor's responses stay in one partition), the
    /// request id for external clients.
    fn response_key(request: &RequestMessage) -> String {
        match &request.caller_actor {
            Some(actor) => actor.qualified_name(),
            None => format!("req-{}", request.id.as_u64()),
        }
    }

    /// Offset of the next record this component's consumers will read from
    /// `partition` (zero for partitions it does not consume).
    pub(crate) fn consumed_offset(&self, partition: usize) -> u64 {
        self.consumed_offsets
            .read()
            .get(&partition)
            .map_or(0, |slot| slot.load(Ordering::SeqCst))
    }

    /// True if request `id` is queued, deferred, or executing at this
    /// component (used by reconciliation to decide whether a copy found in a
    /// failed queue is superseded or must be re-homed).
    pub(crate) fn locally_pending(&self, id: RequestId) -> bool {
        // Polled off the queue but not yet admitted to an actor slot: without
        // this check a request sitting in a shard queue would look neither
        // "still queued" (its offset was consumed) nor pending, and
        // reconciliation could re-home a copy of it a second time.
        if self.pool.is_pending(id) {
            return true;
        }
        if self.inflight.lock().contains(&id) {
            return true;
        }
        // Waiting out a retry backoff: the schedule is live here, a re-homed
        // second copy would race it.
        if self.delayed.lock().ids.contains(&id) {
            return true;
        }
        if self
            .deferred
            .lock()
            .values()
            .any(|requests| requests.iter().any(|r| r.id == id))
        {
            return true;
        }
        let actors = self.actors.lock();
        actors
            .values()
            .any(|slot| slot.awaiting_tail == Some(id) || slot.mailbox.iter().any(|r| r.id == id))
    }

    fn sidecar_hop(&self) {
        let hop = self.config.latency.sidecar_hop;
        if !hop.is_zero() {
            kar_types::pace_sleep(hop);
        }
    }

    // ------------------------------------------------------------------
    // Sending
    // ------------------------------------------------------------------

    /// Resolves the target actor's placement and appends the request to the
    /// hosting component's queue.
    ///
    /// Resolution can wait (bounded by the call timeout) when a recorded
    /// placement points at a failed component and reconciliation has not
    /// rewritten it yet. A reactor thread waiting here keeps pumping the
    /// mesh instead of parking (work-while-waiting), so one stale placement
    /// never idles a thread of the fixed pool; other threads park on the
    /// placement repair signal.
    pub(crate) fn send_request(self: &Arc<Self>, message: RequestMessage) -> KarResult<()> {
        let deadline = mono_now() + self.config.call_timeout;
        let component = loop {
            if !self.is_alive() {
                return Err(KarError::Killed { component: self.id });
            }
            // Snapshot the repair signal before resolving: a repair landing
            // between the lookup and the wait wakes the waiter at once.
            let seen = self.placement.repair_epoch();
            // A transient store failure during resolution is a gray failure
            // on the submission path — the request record (and with it any
            // retry policy) does not exist yet, so nothing downstream can
            // absorb it. Treat it exactly like an unresolved placement:
            // wait and retry under the same call-timeout deadline.
            match self.placement.resolve_nowait(&message.target) {
                Ok(Some(component)) => break component,
                Err(error) if !error.is_transient() => return Err(error),
                Ok(None) | Err(_) => {
                    let now = mono_now();
                    if now >= deadline {
                        return Err(KarError::Timeout {
                            request: message.id,
                            after_ms: self.config.call_timeout.as_millis() as u64,
                        });
                    }
                    // Waiting out a stale placement: hand the shard off so
                    // one unresolved actor never stalls the others pinned
                    // to it (idempotent across loop iterations).
                    self.yield_shard_claim();
                    if kar_types::sim::active() {
                        kar_types::sim::step();
                    } else if !crate::mesh::pump_current_reactor() {
                        self.placement
                            .wait_for_repair(seen, Duration::from_millis(5).min(deadline - now));
                    }
                }
            }
        };
        self.send_request_to(component, message)
    }

    /// Appends `message` to `component`'s queue, hashed by actor key over
    /// its home set: one keyed append, durable when this returns. Routing
    /// goes through the broker's keyed producer API, so the runtime and the
    /// broker share one routing implementation.
    fn send_request_to(&self, component: ComponentId, message: RequestMessage) -> KarResult<()> {
        let key = message.target.qualified_name();
        let set = self
            .topology
            .read()
            .get(&component)
            .cloned()
            .ok_or_else(|| {
                KarError::internal(format!("no partition set recorded for {component}"))
            })?;
        // A transient append failure is replayed bounded: the append is
        // keyed by request id downstream, so a duplicate from an ack-lost
        // attempt is absorbed by the invocation-layer dedup.
        let envelope = Envelope::Request(message);
        retry_transient(TRANSIENT_ATTEMPTS, || {
            self.producer
                .send_keyed(&self.topic, &set, &key, envelope.clone())
        })?;
        self.requests_appended.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Appends `envelope` to `partition` of this component's topic, through
    /// the response batcher (one lock + one durable ack per burst towards
    /// the partition) when `MeshConfig::response_batching` is on, or as one
    /// plain append otherwise.
    fn send_completion(&self, partition: usize, envelope: Envelope) {
        match &self.responses {
            Some(batcher) => batcher.enqueue(&self.producer, &self.topic, partition, envelope),
            None => {
                let _ = self.producer.send(&self.topic, partition, envelope);
            }
        }
    }

    /// Sends the response for `request` to the queue of whoever is waiting
    /// for it: the component recorded in `reply_to` if it is still live, or
    /// the component currently hosting the caller actor otherwise (which is
    /// how responses survive the re-placement of their caller).
    pub(crate) fn send_response(&self, request: &RequestMessage, result: Payload) {
        if !request.kind.expects_response() {
            return;
        }
        self.sidecar_hop();
        // One materialization for the whole delivery path: the queue copy,
        // the delivered envelope, and the pending-call hand-off all share
        // this `Arc`ed payload.
        let response = ResponseMessage::new(request.id, request.caller, result)
            .with_routing(request.reply_to, request.caller_actor.clone());
        // Fast path: the caller's component is alive, deliver to the
        // partition of its set the response key hashes to (the routing the
        // broker's keyed producer API applies), batched per destination.
        if let Some(reply_to) = request.reply_to {
            if self.live.read().contains(&reply_to) {
                if let Some(partition) = self.partition_for(reply_to, &Self::response_key(request))
                {
                    self.send_completion(partition, Envelope::Response(response));
                    return;
                }
            }
        }
        // Slow path: the caller's component failed. Park the response until
        // reconciliation re-places the caller actor; the mesh timer sweeps
        // the parked list each tick and delivers to the caller's new home
        // (or drops the response at the call-timeout deadline). No thread is
        // spawned and no thread blocks.
        let deadline = mono_now() + self.config.call_timeout;
        self.orphan_responses.lock().push((response, deadline));
    }

    /// One non-blocking routing attempt for an orphaned response: the
    /// `reply_to` component if it is live again, else the current home of
    /// the caller actor if reconciliation has re-placed it. Routes off the
    /// response's own routing fields, so adopters that *consumed* an
    /// orphaned record can re-park it here too.
    fn try_response_partition(&self, response: &ResponseMessage) -> Option<usize> {
        let key = match &response.caller_actor {
            Some(actor) => actor.qualified_name(),
            None => format!("req-{}", response.id.as_u64()),
        };
        if let Some(reply_to) = response.reply_to {
            if self.live.read().contains(&reply_to) {
                return self.partition_for(reply_to, &key);
            }
        }
        if let Some(caller_actor) = &response.caller_actor {
            // A placement pointing at a dead component is a stale read taken
            // before reconciliation's rewrite: delivering there would strand
            // the response in a queue about to be flushed. Stay parked until
            // the sweep observes a live owner.
            if let Ok(Some(component)) = self.placement.resolve_nowait(caller_actor) {
                if self.live.read().contains(&component) {
                    return self.partition_for(component, &key);
                }
            }
            return None;
        }
        // reply_to points at a dead external client: deliver to its queue
        // anyway (harmless; the records expire with retention).
        response.reply_to.and_then(|c| self.partition_for(c, &key))
    }

    /// Mesh-timer sweep of the orphaned-response park list: responses whose
    /// caller became routable are delivered, unroutable ones stay parked
    /// until their deadline.
    fn sweep_orphan_responses(&self, now: Duration) {
        if self.orphan_responses.lock().is_empty() {
            return;
        }
        let pending = std::mem::take(&mut *self.orphan_responses.lock());
        let mut keep = Vec::new();
        for (response, deadline) in pending {
            match self.try_response_partition(&response) {
                Some(partition) => {
                    let _ =
                        self.producer
                            .send(&self.topic, partition, Envelope::Response(response));
                }
                None if now < deadline && self.is_alive() => {
                    keep.push((response, deadline));
                }
                // Past the deadline: drop, exactly like the old bounded wait.
                None => {}
            }
        }
        if !keep.is_empty() {
            self.orphan_responses.lock().extend(keep);
        }
    }

    // ------------------------------------------------------------------
    // Invocation entry points
    // ------------------------------------------------------------------

    /// A blocking root invocation issued by an external client (no caller).
    /// An explicit `policy` attaches a fresh retry schedule to the request
    /// record; without one, the callee falls back to its actor type's
    /// configured default on first failure.
    pub(crate) fn external_call(
        self: &Arc<Self>,
        target: &ActorRef,
        method: &str,
        args: Vec<Value>,
        policy: Option<RetryPolicy>,
    ) -> KarResult<Value> {
        if !self.is_alive() {
            return Err(KarError::Killed { component: self.id });
        }
        let id = self.ids.fresh();
        let message = RequestMessage {
            id,
            caller: None,
            target: target.clone(),
            method: method.to_owned(),
            args,
            kind: CallKind::Call,
            lineage: Vec::new(),
            pending_callee: None,
            caller_actor: None,
            reply_to: Some(self.id),
            retry: policy.map(|p| Box::new(RetryState::fresh(p, epoch_ms()))),
        };
        self.sidecar_hop();
        let receiver = self.register_pending(id);
        self.send_request(message)?;
        self.wait_for_response(id, receiver)
    }

    /// An asynchronous root invocation issued by an external client.
    pub(crate) fn external_tell(
        self: &Arc<Self>,
        target: &ActorRef,
        method: &str,
        args: Vec<Value>,
    ) -> KarResult<()> {
        if !self.is_alive() {
            return Err(KarError::Killed { component: self.id });
        }
        let id = self.ids.fresh();
        let message = RequestMessage {
            id,
            caller: None,
            target: target.clone(),
            method: method.to_owned(),
            args,
            kind: CallKind::Tell,
            lineage: Vec::new(),
            pending_callee: None,
            caller_actor: None,
            reply_to: None,
            retry: None,
        };
        self.sidecar_hop();
        self.send_request(message)
    }

    /// A nested blocking call issued from inside an actor invocation.
    pub(crate) fn nested_call(
        self: &Arc<Self>,
        caller: &RequestMessage,
        caller_actor: &ActorRef,
        target: &ActorRef,
        method: &str,
        args: Vec<Value>,
        policy: Option<RetryPolicy>,
    ) -> KarResult<Value> {
        if !self.is_alive() {
            return Err(KarError::Killed { component: self.id });
        }
        let id = self.ids.fresh();
        let message = RequestMessage {
            id,
            caller: Some(caller.id),
            target: target.clone(),
            method: method.to_owned(),
            args,
            kind: CallKind::Call,
            lineage: caller.chain(),
            pending_callee: None,
            caller_actor: Some(caller_actor.clone()),
            reply_to: Some(self.id),
            retry: policy.map(|p| Box::new(RetryState::fresh(p, epoch_ms()))),
        };
        self.sidecar_hop();
        let receiver = self.register_pending(id);
        self.send_request(message)?;
        self.wait_for_response(id, receiver)
    }

    /// A nested asynchronous invocation issued from inside an actor
    /// invocation.
    pub(crate) fn nested_tell(
        self: &Arc<Self>,
        _caller: &RequestMessage,
        target: &ActorRef,
        method: &str,
        args: Vec<Value>,
    ) -> KarResult<()> {
        if !self.is_alive() {
            return Err(KarError::Killed { component: self.id });
        }
        let id = self.ids.fresh();
        let message = RequestMessage {
            id,
            caller: None,
            target: target.clone(),
            method: method.to_owned(),
            args,
            kind: CallKind::Tell,
            lineage: Vec::new(),
            pending_callee: None,
            caller_actor: None,
            reply_to: None,
            retry: None,
        };
        self.sidecar_hop();
        self.send_request(message)
    }

    fn register_pending(&self, id: RequestId) -> crossbeam::channel::Receiver<Arc<Payload>> {
        let (tx, rx) = bounded(1);
        self.pending_calls.lock().insert(id, tx);
        rx
    }

    fn wait_for_response(
        self: &Arc<Self>,
        id: RequestId,
        receiver: crossbeam::channel::Receiver<Arc<Payload>>,
    ) -> KarResult<Value> {
        // About to park: hand this frame's dispatch shard back to the pool
        // first, so the shard keeps making progress — without this, two
        // actors on one shard calling each other would deadlock until the
        // call timeout (the callee's reentrant callback hashes to the very
        // shard this caller's claim is wedging).
        self.yield_shard_claim();
        // A blocking `ctx.call` on a reactor thread must not idle a thread
        // of the fixed pool: interleave short waits with pumping the mesh
        // (work-while-waiting), so the nested request — and everything else
        // — keeps making progress even on a single-reactor mesh. Any reactor
        // can deliver this response; pumping is about throughput, not
        // correctness. Off-reactor threads (clients) just block.
        let deadline = mono_now() + self.config.call_timeout;
        let outcome = if kar_types::sim::active() {
            // Simulation: the driver thread owns every lane, so parking on
            // the channel would deadlock the whole mesh. Drive the seeded
            // scheduler instead; time only advances when the scheduler says
            // so, making the timeout below a *virtual* deadline.
            loop {
                match receiver.try_recv() {
                    Ok(payload) => break Ok(payload),
                    Err(crossbeam::channel::TryRecvError::Disconnected) => {
                        break Err(RecvTimeoutError::Disconnected)
                    }
                    Err(crossbeam::channel::TryRecvError::Empty) => {
                        if mono_now() >= deadline {
                            break Err(RecvTimeoutError::Timeout);
                        }
                        kar_types::sim::step();
                    }
                }
            }
        } else {
            loop {
                let slice = if crate::mesh::on_reactor_thread() {
                    Duration::from_millis(1).min(self.config.call_timeout)
                } else {
                    deadline.saturating_sub(mono_now())
                };
                match receiver.recv_timeout(slice) {
                    Ok(payload) => break Ok(payload),
                    Err(RecvTimeoutError::Disconnected) => {
                        break Err(RecvTimeoutError::Disconnected)
                    }
                    Err(RecvTimeoutError::Timeout) => {
                        if mono_now() >= deadline {
                            break Err(RecvTimeoutError::Timeout);
                        }
                        crate::mesh::pump_current_reactor();
                    }
                }
            }
        };
        self.pending_calls.lock().remove(&id);
        match outcome {
            Ok(payload) => {
                self.sidecar_hop();
                // The only payload copy on the response path: the caller
                // takes ownership here (the queue copy keeps its reference
                // until retention expires it).
                Arc::try_unwrap(payload).unwrap_or_else(|shared| (*shared).clone())
            }
            Err(RecvTimeoutError::Timeout) => Err(KarError::Timeout {
                request: id,
                after_ms: self.config.call_timeout.as_millis() as u64,
            }),
            Err(RecvTimeoutError::Disconnected) => Err(KarError::Killed { component: self.id }),
        }
    }

    // ------------------------------------------------------------------
    // Dispatch
    // ------------------------------------------------------------------

    fn handle_response(self: &Arc<Self>, response: ResponseMessage) {
        // Record the response and drain its deferred retries under one
        // deferred-map lock: admission's check-and-defer takes the same lock,
        // so a retry can never park itself against a response that has
        // already been processed (lost wakeup).
        let deferred = {
            let mut deferred_map = self.deferred.lock();
            self.seen_responses.lock().insert(response.id);
            deferred_map.remove(&response.id)
        };
        let mut consumed = deferred.is_some();
        // A continuation parked on this response resumes inline, on the
        // reactor that polled the response record. The claim is exclusive,
        // so a duplicate response (a retried callee) cannot resume it twice.
        if let Some(parked) = self.continuations.take(response.id) {
            let input: KarResult<Value> = (*response.result).clone();
            consumed = true;
            self.resume_continuation(parked, input);
        }
        if let Some(sender) = self.pending_calls.lock().remove(&response.id) {
            // Hand the blocked caller the shared payload — no deep copy; the
            // caller materializes an owned value once, at the API boundary.
            consumed = true;
            let _ = sender.send(Arc::clone(&response.result));
        }
        // Unblock any re-homed caller whose retry was waiting for this callee
        // to settle (happen-before). Re-submitted through the shard queues so
        // admission for the target actor stays serial.
        if let Some(requests) = deferred {
            for mut request in requests {
                request.pending_callee = None;
                self.pool.submit(request);
            }
        }
        if consumed {
            return;
        }
        // Nothing here wanted this response, and it was not even addressed
        // here: it was appended to a failed caller's partition (just before
        // the failure fenced it) and consumed by this component as that
        // partition's adopter. The caller's re-homed retry is deferred — or
        // about to be — wherever the caller actor is placed NOW, which need
        // not be the component that adopted this partition. Chase the
        // placement, exactly like request forwarding: deliver the response
        // to the current owner's queue (its own `handle_response` wakes the
        // deferral through its seen-responses set). Unroutable yet — park
        // alongside the sender-side orphans for the timer sweep to retry.
        match response.reply_to {
            None => {}
            Some(reply_to) if reply_to == self.id => {}
            Some(_) => {
                // A dead external client's response (no caller actor) stays
                // dropped: nobody can ever wait on it again.
                let Some(caller_actor) = response.caller_actor.clone() else {
                    return;
                };
                match self.placement.resolve_nowait(&caller_actor) {
                    // Placement followed the partition here: the response is
                    // recorded in this component's seen set, which is the
                    // set the owner's deferral checks.
                    Ok(Some(owner)) if owner == self.id => {}
                    Ok(Some(owner)) => {
                        if let Some(partition) =
                            self.partition_for(owner, &caller_actor.qualified_name())
                        {
                            let _ = self.producer.send(
                                &self.topic,
                                partition,
                                Envelope::Response(response),
                            );
                        }
                    }
                    _ => {
                        let deadline = mono_now() + self.config.call_timeout;
                        self.orphan_responses.lock().push((response, deadline));
                    }
                }
            }
        }
    }

    /// Admission control for one request, run under its shard's claim:
    /// dedupes retries, defers happen-before-annotated retries, flags
    /// mis-routed requests for forwarding, and applies the actor-lock rules
    /// of §2.2–§4.1. Never blocks — forwarding (which may wait out a stale
    /// placement) is returned to the caller to perform *outside* the shard
    /// claim, so one stale placement never wedges a whole shard.
    fn admit_request(self: &Arc<Self>, mut request: RequestMessage) -> Admission {
        if !self.is_alive() {
            return Admission::Done;
        }
        if self.completed.lock().contains(&request.id) || self.inflight.lock().contains(&request.id)
        {
            return Admission::Done;
        }
        // Retry-orchestration gate: a *scheduled* retry copy (attempt ≥ 1)
        // waits out its next-fire deadline in the delayed heap and spends a
        // mesh retry-budget token to start; a shed re-queues it on its own
        // backoff (never dropped). Checked before the ownership resolve —
        // the schedule is request-carried, so an adopter that polled a
        // re-homed copy parks it on the very same deadline.
        if request
            .retry
            .as_ref()
            .is_some_and(|retry| retry.attempt > 0)
        {
            match self.gate_scheduled_retry(request) {
                Some(due_now) => request = due_now,
                None => return Admission::Done,
            }
        }
        // Mis-routed request (placement changed): forward to the current host.
        if !self.hosted.contains_key(request.target.actor_type()) {
            self.stats.forwarded.fetch_add(1, Ordering::Relaxed);
            return Admission::Forward(request);
        }
        // Rebalance guard: hosting the *type* is not owning the *actor*. A
        // record can reach this component for an actor placed elsewhere —
        // e.g. it landed in a partition this component adopted from a failed
        // component, or placement moved while the record was in flight.
        // Executing it here would race the copy processed by the placement's
        // owner (the two components' retry dedupe sets are disjoint), so
        // verify ownership and forward otherwise. `resolve_nowait` also
        // (re-)places actors with no recorded placement, which is exactly
        // right for records salvaged from a flushed queue. A placement error
        // means this component is being fenced/killed: drop; the queue copy
        // drives the retry.
        //
        // Placement-check locality: a slot stamped "ownership verified in
        // epoch E" skips even the one placement-cache hit while E is still
        // the current cache epoch — recovery's `clear_cache` bumps the epoch,
        // invalidating every stamp at once. The stamp is read *before*
        // resolving (mirroring the cache's insert-with-pre-read-epoch rule),
        // so a clear racing the resolution leaves the slot already-stale.
        let stamp = self.placement.ownership_stamp();
        let slot_verified = stamp.is_some()
            && self
                .actors
                .lock()
                .get(&request.target)
                .is_some_and(|slot| slot.verified_epoch == stamp);
        if slot_verified {
            self.placement.note_slot_hit();
        } else {
            match self.placement.resolve_nowait(&request.target) {
                Ok(Some(owner)) if owner == self.id => {}
                Ok(_) => {
                    // Owned elsewhere, or a stale placement awaiting repair:
                    // `send_request` re-resolves (outside the shard claim)
                    // and appends to the owner's queue.
                    self.stats.forwarded.fetch_add(1, Ordering::Relaxed);
                    return Admission::Forward(request);
                }
                Err(_) => return Admission::Done,
            }
        }
        // Happen-before: a retried caller waits for its pending callee. The
        // deferred lock is held across the seen-response check and the park,
        // mirroring handle_response, so the callee's response cannot slip in
        // between them and leave this retry parked forever. Checked strictly
        // AFTER ownership: only the placement owner may park the retry,
        // because the callee's response chases the caller's *placement* — a
        // deferral on a mere partition adopter would never be woken.
        if let Some(callee) = request.pending_callee {
            {
                let mut deferred_map = self.deferred.lock();
                if !self.seen_responses.lock().contains(&callee) {
                    self.stats.deferred.fetch_add(1, Ordering::Relaxed);
                    deferred_map.entry(callee).or_default().push(request);
                    return Admission::Done;
                }
            }
            request.pending_callee = None;
        }
        let mut actors = self.actors.lock();
        // Admission watermarks: a request that would *activate a new actor*
        // while the resident set is at the hard watermark — or while the
        // residents' mailbox backlog is at the mailbox watermark — is
        // deferred with shaped backoff on the delayed-retry heap: shed,
        // never dropped, and counted as locally pending so reconciliation
        // never re-homes a duplicate. Requests for already-resident actors
        // are never deferred (their memory is already paid for), so the hot
        // head keeps executing at full speed while the cold tail waits.
        if !actors.contains_key(&request.target) {
            if self.admission_overloaded() {
                let deadline = self.shape_activation_deferral(request.id, 0);
                let slot = actors.entry(request.target.clone()).or_default();
                slot.verified_epoch = stamp;
                slot.activation_parked = Some(request.id);
                drop(actors);
                self.stats
                    .admission_deferrals
                    .fetch_add(1, Ordering::Relaxed);
                self.park_delayed_at(request, deadline);
                return Admission::Done;
            }
            // A new resident. A standing tombstone makes this a rehydration
            // — the actor re-enters through this ordinary activation path,
            // indistinguishable from a first activation.
            self.resident_count.fetch_add(1, Ordering::Relaxed);
            if self.passivated.lock().remove(&request.target) {
                self.stats.rehydrations.fetch_add(1, Ordering::Relaxed);
            }
        }
        let slot = actors.entry(request.target.clone()).or_default();
        slot.verified_epoch = stamp;
        if let Some(parked) = slot.activation_parked {
            if parked == request.id {
                // The head of a deferred activation is back from the
                // delayed heap. If the pressure has drained, activate;
                // otherwise re-shape (the backoff grows with each deferral)
                // and re-park — never drop.
                if self.admission_overloaded() {
                    slot.activation_deferrals = slot.activation_deferrals.saturating_add(1);
                    let deferrals = slot.activation_deferrals;
                    drop(actors);
                    let deadline = self.shape_activation_deferral(request.id, deferrals);
                    self.stats
                        .admission_deferrals
                        .fetch_add(1, Ordering::Relaxed);
                    self.park_delayed_at(request, deadline);
                    return Admission::Done;
                }
                slot.activation_parked = None;
                slot.activation_deferrals = 0;
                slot.busy = true;
                slot.busy_chain = request.chain();
                self.resident_count.fetch_add(1, Ordering::Relaxed);
                self.touch_idle(&request.target);
                if self.passivated.lock().remove(&request.target) {
                    self.stats.rehydrations.fetch_add(1, Ordering::Relaxed);
                }
                drop(actors);
                self.inflight.lock().insert(request.id);
                return Admission::Run(request, true, false);
            }
            // A sibling of a deferred activation: mailbox behind the parked
            // head, preserving per-actor FIFO across the deferral (the head
            // re-enters through the shard queue; the mailbox drains behind
            // it in arrival order).
            let id = request.id;
            slot.mailbox.push_back(request);
            self.mailboxed.fetch_add(1, Ordering::Relaxed);
            drop(actors);
            self.inflight.lock().insert(id);
            return Admission::Done;
        }
        self.touch_idle(&request.target);
        if slot.awaiting_tail == Some(request.id) {
            // Continuation of a tail call to self: it owns the lock already.
            slot.awaiting_tail = None;
            slot.busy_chain = request.chain();
            drop(actors);
            self.inflight.lock().insert(request.id);
            Admission::Run(request, true, false)
        } else if slot.busy {
            let reentrant = request
                .lineage
                .iter()
                .any(|id| slot.busy_chain.contains(id));
            if reentrant {
                // Reentrant nested call: bypass the mailbox (§2.2).
                drop(actors);
                self.inflight.lock().insert(request.id);
                Admission::Run(request, false, true)
            } else {
                // Move the request into the mailbox — no payload clone; the
                // id is all the bookkeeping needs.
                let id = request.id;
                slot.mailbox.push_back(request);
                self.mailboxed.fetch_add(1, Ordering::Relaxed);
                drop(actors);
                self.inflight.lock().insert(id);
                Admission::Done
            }
        } else {
            slot.busy = true;
            slot.busy_chain = request.chain();
            drop(actors);
            self.inflight.lock().insert(request.id);
            Admission::Run(request, true, false)
        }
    }

    fn run_invocation(self: Arc<Self>, request: RequestMessage, holds_lock: bool, reentrant: bool) {
        self.invocation_loop(request, holds_lock, reentrant, None);
    }

    /// Resumes a parked continuation with the nested call's result, then
    /// re-enters the invocation loop exactly where the handler left off
    /// (flush, outcome handling, mailbox drain).
    fn resume_continuation(self: &Arc<Self>, parked: ParkedContinuation, input: KarResult<Value>) {
        if !self.is_alive() {
            return;
        }
        let ParkedContinuation {
            request,
            holds_lock,
            reentrant,
            then,
            ..
        } = parked;
        self.sidecar_hop();
        let result = {
            let mut ctx = ActorContext::new(self, &request, request.target.clone());
            then.resume(&mut ctx, input)
        };
        Arc::clone(self).invocation_loop(request, holds_lock, reentrant, Some(result));
    }

    /// Sends the nested request of an [`Outcome::CallThen`] and parks its
    /// continuation, releasing the calling reactor. Returns `None` once
    /// parked — the invocation resumes when the response record arrives (or
    /// the deadline passes). If the send fails synchronously, the
    /// continuation is resumed inline with the error and its next outcome is
    /// returned.
    fn park_nested(
        self: &Arc<Self>,
        request: &RequestMessage,
        holds_lock: bool,
        reentrant: bool,
        target: ActorRef,
        method: String,
        args: Vec<Value>,
        policy: Option<RetryPolicy>,
        then: Continuation,
    ) -> Option<KarResult<Outcome>> {
        let nested_id = self.ids.fresh();
        let nested = RequestMessage {
            id: nested_id,
            caller: Some(request.id),
            target,
            method,
            args,
            kind: CallKind::Call,
            lineage: request.chain(),
            pending_callee: None,
            caller_actor: Some(request.target.clone()),
            reply_to: Some(self.id),
            retry: policy.map(|p| Box::new(RetryState::fresh(p, epoch_ms()))),
        };
        // Park BEFORE sending: once the request is durable, its response can
        // arrive on another reactor immediately — and must find the
        // continuation in the table.
        self.continuations.park(
            nested_id,
            ParkedContinuation {
                request: request.clone(),
                holds_lock,
                reentrant,
                deadline: mono_now() + self.config.call_timeout,
                then,
            },
        );
        self.sidecar_hop();
        match self.send_request(nested) {
            Ok(()) => None,
            Err(error) => {
                // Nothing was appended, so no response will ever arrive:
                // take the park back and resume inline with the send error.
                // A racing timer may have claimed it as timed out first; the
                // timeout path owns the resume then.
                let parked = self.continuations.take(nested_id)?;
                let mut ctx = ActorContext::new(self, request, request.target.clone());
                Some(parked.then.resume(&mut ctx, Err(error)))
            }
        }
    }

    /// The invocation state machine: executes `request` (or continues it
    /// from a resumed continuation's `resumed` outcome), completes it, and
    /// drains the actor's mailbox while it holds the lock. Parks instead of
    /// returning when the handler issues a [`Outcome::CallThen`].
    fn invocation_loop(
        self: Arc<Self>,
        mut request: RequestMessage,
        holds_lock: bool,
        mut reentrant: bool,
        mut resumed: Option<KarResult<Outcome>>,
    ) {
        loop {
            if !self.is_alive() {
                return;
            }
            let outcome = match resumed.take() {
                // Continuation resume: the handler already ran up to its
                // parked nested call; pick up from its next outcome.
                Some(outcome) => Some(outcome),
                None => {
                    self.sidecar_hop();
                    if self.config.cancellation == CancellationPolicy::Cancel
                        && self.should_cancel(&request)
                    {
                        self.stats.cancelled.fetch_add(1, Ordering::Relaxed);
                        self.send_response(
                            &request,
                            Err(KarError::Cancelled {
                                request: request.id,
                            }),
                        );
                        self.finish(&request);
                        None
                    } else {
                        // The circuit breaker sits at the execute boundary:
                        // an open breaker fails the attempt fast (the
                        // retryable `CircuitOpen` flows into the ordinary
                        // failure orchestration below); a closed one feeds
                        // its health window from the outcome. Self-failures
                        // (killed / fenced mid-run) say nothing about the
                        // actor type's health, and fast-fails are not
                        // recorded — an open breaker must not feed itself.
                        match self.breakers.admit(request.target.actor_type()) {
                            Ok(()) => {
                                let result = self.execute(&request, reentrant);
                                if !matches!(
                                    result,
                                    Err(KarError::Killed { .. } | KarError::Fenced { .. })
                                ) {
                                    self.breakers
                                        .record(request.target.actor_type(), result.is_ok());
                                }
                                Some(result)
                            }
                            Err(error) => Some(Err(error)),
                        }
                    }
                }
            };
            if let Some(result) = outcome {
                // A parked nested call suspends the handler mid-invocation:
                // nothing is flushed and nothing completes — the original
                // request stays in-flight (and in its queue copy), the actor
                // stays locked, and recovery treats the parked invocation
                // exactly like one executing on a killed thread.
                let result = match result {
                    Ok(Outcome::CallThen {
                        target,
                        method,
                        args,
                        policy,
                        then,
                    }) => match self.park_nested(
                        &request, holds_lock, reentrant, target, method, args, policy, then,
                    ) {
                        None => return,
                        Some(next) => {
                            resumed = Some(next);
                            continue;
                        }
                    },
                    other => other,
                };
                // Flush-before-respond: the invocation's buffered state
                // writes become durable (one pipelined round trip) before
                // ANY completion — response, error response, or tail-call
                // continuation — is sent. The flush batch is idempotent
                // (pure sets/deletes), so a *transient* store failure —
                // including a gray failure whose ack was lost after the
                // batch applied — is replayed locally a bounded number of
                // times; past that, the transient error is escalated into
                // the ordinary failure arm below, where retry orchestration
                // (queue copy + dedup) takes over. A fenced or killed flush
                // means this component died mid-completion: nothing is sent,
                // and the queue copy drives the retry from the last durable
                // state.
                let result = if matches!(
                    result,
                    Err(KarError::Killed { .. } | KarError::Fenced { .. })
                ) {
                    result
                } else {
                    match retry_transient(TRANSIENT_ATTEMPTS, || {
                        self.flush_actor_state(&request.target)
                    }) {
                        Ok(()) => result,
                        Err(error) if error.is_transient() => Err(error),
                        Err(_) => return,
                    }
                };
                match result {
                    Ok(Outcome::Value(value)) => {
                        self.stats.executed.fetch_add(1, Ordering::Relaxed);
                        self.send_response(&request, Ok(value));
                        self.finish(&request);
                    }
                    Ok(Outcome::CallThen { .. }) => unreachable!("parked above"),
                    Ok(Outcome::TailCall {
                        target,
                        method,
                        args,
                    }) => {
                        self.stats.executed.fetch_add(1, Ordering::Relaxed);
                        self.stats.tail_calls.fetch_add(1, Ordering::Relaxed);
                        let same_actor = target == request.target;
                        let tail = RequestMessage {
                            id: request.id,
                            caller: request.caller,
                            target,
                            method,
                            args,
                            kind: CallKind::TailCall,
                            lineage: request.lineage.clone(),
                            pending_callee: None,
                            caller_actor: request.caller_actor.clone(),
                            reply_to: request.reply_to,
                            // A tail call continues the same logical request,
                            // so it inherits the caller's retry *policy* — as
                            // a fresh schedule for the new stage (a stage is
                            // never admitted as a scheduled-retry copy). A
                            // policy-covered call stays covered across its
                            // §2.3 read/commit decomposition; the callee's
                            // defaults still apply when the caller set none.
                            retry: request.retry.as_ref().map(|state| {
                                Box::new(RetryState::fresh(state.policy.clone(), epoch_ms()))
                            }),
                        };
                        self.inflight.lock().remove(&request.id);
                        if same_actor && holds_lock {
                            // Retain the actor lock across the tail call: the
                            // continuation bypasses the mailbox when its queue
                            // copy arrives (§4.1). It is sent straight to the
                            // actor's own home partition here — the hash the
                            // continuation's copy would take anyway — through
                            // the same per-destination batching as responses,
                            // so a continuation produced while another
                            // completion's ack is in flight rides its flush.
                            {
                                let mut actors = self.actors.lock();
                                if let Some(slot) = actors.get_mut(&request.target) {
                                    slot.awaiting_tail = Some(request.id);
                                }
                            }
                            if let Some(partition) = self.own_partition_for(&request.target) {
                                self.send_completion(partition, Envelope::Request(tail));
                            }
                            return;
                        }
                        let _ = self.send_request(tail);
                        // A tail call to a different actor releases the lock:
                        // fall through to mailbox processing.
                    }
                    Err(KarError::Killed { .. } | KarError::Fenced { .. }) => {
                        // The invocation was interrupted by a failure: no
                        // response, no completion; retry orchestration takes
                        // over during reconciliation.
                        return;
                    }
                    Err(error) => {
                        self.stats.executed.fetch_add(1, Ordering::Relaxed);
                        // Policy-orchestrated failure: schedule a retry copy
                        // (in which case nothing completes here — the copy
                        // carries the schedule), or settle the failure as
                        // final (respond + finish), possibly via the DLQ.
                        if let Some(error) = self.orchestrate_failure(&request, error) {
                            if request.kind.expects_response() {
                                self.send_response(&request, Err(error));
                            }
                            self.finish(&request);
                        }
                    }
                }
            }
            if !holds_lock {
                return;
            }
            // Process the next queued invocation for this actor, or release
            // the actor lock.
            let next = {
                let mut actors = self.actors.lock();
                let Some(slot) = actors.get_mut(&request.target) else {
                    return;
                };
                if slot.awaiting_tail.is_some() {
                    return;
                }
                match slot.mailbox.pop_front() {
                    Some(next) => {
                        self.mailboxed.fetch_sub(1, Ordering::Relaxed);
                        slot.busy_chain = next.chain();
                        Some(next)
                    }
                    None => {
                        slot.busy = false;
                        slot.busy_chain.clear();
                        // The mailbox ran dry: restart the actor's idle
                        // clock from the end of its activity, not from its
                        // last admission.
                        self.touch_idle(&request.target);
                        None
                    }
                }
            };
            match next {
                Some(next) => {
                    request = next;
                    reentrant = false;
                }
                None => return,
            }
        }
    }

    fn should_cancel(&self, request: &RequestMessage) -> bool {
        if request.caller.is_none() {
            return false;
        }
        // §4.4: check the list of live components; if the caller's component
        // is not listed, elide execution and send a synthetic response. The
        // caller's component is approximated by its reply_to component or by
        // the current placement of the caller actor.
        if let Some(reply_to) = request.reply_to {
            return !self.live.read().contains(&reply_to);
        }
        false
    }

    fn make_instance(
        self: &Arc<Self>,
        request: &RequestMessage,
    ) -> KarResult<Box<dyn crate::actor::Actor>> {
        let factory = self
            .hosted
            .get(request.target.actor_type())
            .ok_or_else(|| {
                KarError::internal(format!(
                    "component {} does not host actor type {}",
                    self.id,
                    request.target.actor_type()
                ))
            })?;
        let mut instance = factory();
        let mut ctx = ActorContext::new(self, request, request.target.clone());
        instance.activate(&mut ctx)?;
        Ok(instance)
    }

    fn execute(self: &Arc<Self>, request: &RequestMessage, reentrant: bool) -> KarResult<Outcome> {
        if !self.is_alive() {
            return Err(KarError::Killed { component: self.id });
        }
        // Reentrant invocations run on a fresh activation of the actor (the
        // cached instance is checked out by the suspended ancestor frame);
        // durable state is shared through the persistence API.
        let mut instance = if reentrant {
            self.make_instance(request)?
        } else {
            let taken = {
                let mut actors = self.actors.lock();
                actors
                    .get_mut(&request.target)
                    .and_then(|slot| slot.instance.take())
            };
            match taken {
                Some(instance) => instance,
                None => self.make_instance(request)?,
            }
        };
        let result = {
            let mut ctx = ActorContext::new(self, request, request.target.clone());
            instance.invoke(&mut ctx, &request.method, &request.args)
        };
        if !reentrant && self.is_alive() {
            let mut actors = self.actors.lock();
            if let Some(slot) = actors.get_mut(&request.target) {
                slot.instance = Some(instance);
            }
        }
        result
    }

    fn finish(&self, request: &RequestMessage) {
        self.completed.lock().insert(request.id);
        self.inflight.lock().remove(&request.id);
    }

    // ------------------------------------------------------------------
    // Retry orchestration (the policy layer over the queue-copy mechanism)
    // ------------------------------------------------------------------

    /// Handles a failed attempt of `request` under its governing policy (the
    /// request-carried schedule, or the actor type's configured default
    /// starting fresh at first failure). Returns the error when the failure
    /// is final — the caller responds and finishes — or `None` when a retry
    /// copy was durably re-appended, in which case the caller must **not**
    /// call [`ComponentCore::finish`]: marking the id completed would make
    /// admission dedupe the retry copy away.
    fn orchestrate_failure(
        self: &Arc<Self>,
        request: &RequestMessage,
        error: KarError,
    ) -> Option<KarError> {
        let now = self.retry_epoch_now();
        let state = match request.retry.clone() {
            Some(state) => *state,
            None => match self.config.retry_policy_for(request.target.actor_type()) {
                Some(policy) => RetryState::fresh(policy.clone(), now),
                None => return Some(error),
            },
        };
        match state.after_failure(request.id.as_u64(), &error, now) {
            RetryVerdict::Retry(next) => {
                let mut copy = request.clone();
                copy.retry = Some(Box::new(next));
                copy.pending_callee = None;
                // Release the in-flight claim BEFORE the durable re-append:
                // admission dedupes against in-flight ids, so the opposite
                // order would swallow the copy. A crash inside this window
                // is safe — the original queue copy still drives recovery,
                // schedule state included.
                self.inflight.lock().remove(&request.id);
                // The re-append is replayed through transient gray failures:
                // an ack-lost replay appends a second copy, which the
                // delayed-heap/in-flight id dedup collapses at admission.
                let appended = self
                    .own_partition_for(&request.target)
                    .is_some_and(|partition| {
                        let envelope = Envelope::Request(copy);
                        retry_transient(TRANSIENT_ATTEMPTS, || {
                            self.producer.send(&self.topic, partition, envelope.clone())
                        })
                        .is_ok()
                    });
                if appended {
                    self.stats.retries_scheduled.fetch_add(1, Ordering::Relaxed);
                    None
                } else {
                    // Fenced mid-append: nothing was scheduled; settle the
                    // failure here (the original queue copy drives recovery).
                    Some(error)
                }
            }
            RetryVerdict::Exhausted(final_state) => {
                self.dead_letter(request, &final_state, &error);
                Some(error)
            }
        }
    }

    /// Admission gate for a scheduled retry copy: park it until its
    /// next-fire deadline, then spend a mesh retry-budget token to start it.
    /// A shed re-queues the retry on its own backoff delay — never dropped —
    /// until the policy's attempt-start grace expires, at which point the
    /// shed counts as a timed-out attempt (advancing the schedule toward the
    /// DLQ instead of stalling it forever). Returns the request when it may
    /// proceed to ordinary admission *now*, `None` when it was parked or
    /// settled.
    fn gate_scheduled_retry(
        self: &Arc<Self>,
        mut request: RequestMessage,
    ) -> Option<RequestMessage> {
        let now = self.retry_epoch_now();
        let seed = request.id.as_u64();
        let due = request.retry.as_ref().is_some_and(|retry| retry.due(now));
        if due {
            if self.budget.try_take() {
                return Some(request);
            }
            let rescheduled = request
                .retry
                .as_mut()
                .is_some_and(|retry| retry.reschedule_shed(seed, now));
            if !rescheduled {
                // Budget starvation outlived the attempt-start grace: count
                // a timed-out attempt against the schedule.
                let state = request.retry.clone().expect("gated request has a schedule");
                let grace_ms = state
                    .policy
                    .attempt_timeout
                    .map_or(0, |grace| grace.as_millis() as u64);
                let error = KarError::Timeout {
                    request: request.id,
                    after_ms: grace_ms,
                };
                match state.after_failure(seed, &error, now) {
                    RetryVerdict::Retry(next) => request.retry = Some(Box::new(next)),
                    RetryVerdict::Exhausted(final_state) => {
                        self.dead_letter(&request, &final_state, &error);
                        if request.kind.expects_response() {
                            self.send_response(&request, Err(error));
                        }
                        self.finish(&request);
                        return None;
                    }
                }
            }
        }
        self.park_delayed(request);
        None
    }

    /// Parks one scheduled retry in the delayed heap (deduping by id — two
    /// copies of one schedule collapse to the earlier park).
    fn park_delayed(&self, request: RequestMessage) {
        let not_before = request.retry.as_ref().map_or(0, |r| r.not_before_ms);
        self.park_delayed_at(request, not_before);
    }

    /// Parks `request` until `not_before` (epoch ms), deduping by id. Also
    /// the parking spot for watermark-deferred activations: they ride the
    /// same heap, the same pump, and the same `locally_pending` coverage as
    /// scheduled retries — without touching the request's own retry state.
    fn park_delayed_at(&self, request: RequestMessage, not_before: u64) {
        let mut delayed = self.delayed.lock();
        if !delayed.ids.insert(request.id) {
            return;
        }
        delayed.heap.push(Reverse(not_before));
        delayed
            .by_deadline
            .entry(not_before)
            .or_default()
            .push(request);
        let earliest = self.delayed_earliest.load(Ordering::Relaxed);
        if earliest == 0 || not_before < earliest {
            // Published under the heap lock: pump_retries re-reads it under
            // the same lock before trusting it.
            self.delayed_earliest.store(not_before, Ordering::Relaxed);
        }
    }

    /// Releases delayed retries whose deadline has passed back into the
    /// dispatch pool (their budget spend happens at admission). Runs on
    /// every reactor sweep *and* every mesh-timer tick; the fast path is two
    /// atomic loads.
    fn pump_retries(self: &Arc<Self>) -> bool {
        let earliest = self.delayed_earliest.load(Ordering::Relaxed);
        if earliest == 0 {
            return false;
        }
        let now = self.retry_epoch_now();
        if now < earliest {
            return false;
        }
        let mut due: Vec<RequestMessage> = Vec::new();
        {
            let mut delayed = self.delayed.lock();
            while let Some(&Reverse(deadline)) = delayed.heap.peek() {
                if deadline > now {
                    break;
                }
                delayed.heap.pop();
                if let Some(batch) = delayed.by_deadline.remove(&deadline) {
                    for request in batch {
                        delayed.ids.remove(&request.id);
                        due.push(request);
                    }
                }
            }
            let next = delayed.heap.peek().map_or(0, |Reverse(d)| *d);
            self.delayed_earliest.store(next, Ordering::Relaxed);
        }
        if due.is_empty() {
            return false;
        }
        self.pool.submit_batch(due);
        true
    }

    /// Moves a schedule-exhausted request to the mesh dead-letter queue,
    /// exactly once per request id: a full copy of the final request record
    /// (terminal [`RetryState`] included, `not_before_ms` re-stamped as the
    /// dead-letter time) is appended to this component's [`DLQ_TOPIC`]
    /// partition for provenance, and a durable store index entry — which
    /// outlives queue retention — feeds `Mesh::dlq_stats` / `dlq_retry`.
    fn dead_letter(&self, request: &RequestMessage, state: &RetryState, error: &KarError) {
        // The done-marker claim is the exactly-once gate; the unique token
        // plus read-back in `claim_marker` keeps it exact even when the
        // admin store path drops acks. A store unreachable past the bounded
        // retries skips dead-lettering (best effort — the failure still
        // settles below either way).
        let marker = format!("dlq/done/{}", request.id.as_u64());
        let token = Value::from(format!(
            "dead-letter-{}-{}",
            self.id.as_u64(),
            self.ids.fresh().as_u64()
        ));
        if !matches!(
            crate::faults::claim_marker(&self.store, &marker, &token),
            Ok(true)
        ) {
            return;
        }
        let now = epoch_ms();
        let mut final_state = state.clone();
        final_state.not_before_ms = now;
        let mut entry = request.clone();
        entry.retry = Some(Box::new(final_state.clone()));
        let partition = self.id.as_u64() as usize;
        if self
            .broker
            .ensure_partitions(DLQ_TOPIC, partition + 1)
            .is_ok()
        {
            // Provenance append, replayed through gray failures. An ack-lost
            // replay can duplicate the record in the provenance topic, which
            // is tolerated: `dlq_stats`/`dlq_retry` read the store index,
            // never this topic.
            let entry = Envelope::Request(entry);
            let _ = retry_transient(TRANSIENT_ATTEMPTS, || {
                self.broker
                    .admin_append(DLQ_TOPIC, partition, entry.clone())
            });
        }
        let record = Value::map([
            ("component", Value::Int(self.id.as_u64() as i64)),
            (
                "target_type",
                Value::Str(request.target.actor_type().to_owned()),
            ),
            (
                "target_id",
                Value::Str(request.target.actor_id().to_owned()),
            ),
            ("method", Value::Str(request.method.clone())),
            ("args", Value::List(request.args.clone())),
            ("attempts", Value::Int(i64::from(final_state.attempt))),
            ("last_error", Value::Str(error.to_string())),
            ("started_ms", Value::Int(final_state.started_ms as i64)),
            ("dead_lettered_ms", Value::Int(now as i64)),
        ]);
        // The index entry feeds `dlq_stats`/`dlq_retry`; the write is
        // idempotent, so the bounded replay absorbs dropped acks.
        let _ = retry_transient(TRANSIENT_ATTEMPTS, || {
            self.store.admin_set_checked(
                &format!("dlq/entry/{}", request.id.as_u64()),
                record.clone(),
            )
        });
        self.stats.dead_lettered.fetch_add(1, Ordering::Relaxed);
    }

    // ------------------------------------------------------------------
    // Reactor surface (no threads of its own)
    // ------------------------------------------------------------------

    /// Prepares the component for the reactor pool: builds the consumer
    /// lanes (home partitions spread round-robin over
    /// `MeshConfig::consumers_per_component` lanes, one lane per partition
    /// by default). Spawns nothing; the mesh registers the component with
    /// its reactors afterwards.
    pub(crate) fn start(&self) {
        let home = self.partitions.read().home().to_vec();
        let threads = self.config.effective_consumers_per_component(home.len());
        let mut slices: Vec<Vec<usize>> = vec![Vec::new(); threads];
        for (index, partition) in home.into_iter().enumerate() {
            slices[index % threads].push(partition);
        }
        let mut lanes = self.lanes.lock();
        for slice in slices {
            if !slice.is_empty() {
                lanes.push(self.make_lane(slice));
            }
        }
    }

    /// Builds one consumer lane over `partitions`, wiring every consumer
    /// into the mesh reactor wake group (an append to any of them wakes an
    /// idle reactor).
    fn make_lane(&self, partitions: Vec<usize>) -> Arc<ConsumerLane> {
        let consumers: Vec<Consumer<Envelope>> = partitions
            .iter()
            .filter_map(|partition| self.broker.consumer(self.id, &self.topic, *partition).ok())
            .collect();
        for consumer in &consumers {
            consumer.join_wait_group(&self.wakeup);
        }
        Arc::new(ConsumerLane {
            consumers: Mutex::new(consumers),
        })
    }

    /// Drops `lane` from the lane list (its consumers are all gone).
    fn remove_lane(&self, lane: &Arc<ConsumerLane>) {
        self.lanes.lock().retain(|l| !Arc::ptr_eq(l, lane));
    }

    /// One reactor sweep over this component: poll ready consumer lanes,
    /// drain claimable dispatch shards, resume timed-out continuations.
    /// Returns true if any work was done. Safe to call from any number of
    /// reactors concurrently — lanes and shards are claimed individually.
    pub(crate) fn pump(self: &Arc<Self>) -> bool {
        if !self.is_alive() || self.is_paused() {
            return false;
        }
        let mut did = self.pump_consumers();
        did |= self.pump_retries();
        did |= self.pump_dispatch();
        did |= self.pump_timeouts();
        did
    }

    /// Polls every claimable consumer lane once. `Consumer::ready()` is a
    /// lock-free check, so sweeping a large idle topology costs two atomic
    /// loads per partition — this is what lets one fixed reactor pool drive
    /// 100× the partitions.
    fn pump_consumers(self: &Arc<Self>) -> bool {
        let lanes: Vec<Arc<ConsumerLane>> = self.lanes.lock().clone();
        let mut did = false;
        for lane in lanes {
            let Some(mut consumers) = lane.consumers.try_lock() else {
                // Another reactor is sweeping this lane; its partitions stay
                // serialized, exactly like the old one-thread-per-lane model.
                continue;
            };
            let mut index = 0;
            while index < consumers.len() {
                if !self.is_alive() || self.is_paused() {
                    return did;
                }
                if !consumers[index].ready() {
                    index += 1;
                    continue;
                }
                match consumers[index].poll(64) {
                    Ok(records) => {
                        if !records.is_empty() {
                            did = true;
                            self.route_records(consumers[index].partition(), records);
                        }
                        index += 1;
                    }
                    Err(error) if error.is_fenced() => {
                        // Fenced: the partition was reassigned (or the
                        // component is gone). Detach it from the wake group
                        // and — if it was adopted — from the retirement
                        // clock, so a re-homed-again range cannot leak an
                        // `adopted_at` entry.
                        consumers[index].leave_wait_group(&self.wakeup);
                        let partition = consumers[index].partition();
                        self.adopted_at.lock().remove(&partition);
                        consumers.remove(index);
                    }
                    Err(_) => {
                        // Transient poll failure (a gray fault at the
                        // consumer_poll site, or a store brownout surfacing
                        // through the broker): the subscription is still
                        // valid, so keep the consumer and retry on the next
                        // sweep. Dropping it here would silently orphan the
                        // partition until reconciliation noticed.
                        self.poll_faults.fetch_add(1, Ordering::Relaxed);
                        index += 1;
                    }
                }
            }
            let empty = consumers.is_empty();
            drop(consumers);
            if empty {
                self.remove_lane(&lane);
            }
        }
        did
    }

    /// Drains every claimable dispatch shard, then steals for an idle one if
    /// nothing was found (when the pool has more than one shard).
    fn pump_dispatch(self: &Arc<Self>) -> bool {
        let mut did = false;
        for shard in 0..self.pool.workers() {
            did |= self.drain_shard(shard);
        }
        if self.pool.stealing() && self.is_alive() && !self.is_paused() {
            // The reactor-era idle worker: an empty shard standing next to
            // a deep one means static actor→shard hashing left imbalance.
            // One steal attempt per sweep — `try_steal` itself bails on a
            // cheap lock-free depth scan when no shard is deep enough, so
            // idle topology pays a few atomic loads here, nothing more.
            if let Some(empty) = (0..self.pool.workers()).find(|&shard| self.pool.depth(shard) == 0)
            {
                if self.pool.try_steal(empty) {
                    did |= self.drain_shard(empty);
                }
            }
        }
        did
    }

    /// Yields the innermost dispatch-shard claim held by this thread, if it
    /// belongs to this component and has not been yielded already. Called on
    /// entry to every blocking runtime wait: the invocation keeps running
    /// (actor lock held, mailbox queuing behind it), but its shard is handed
    /// back to the pool so other actors pinned there keep dispatching.
    fn yield_shard_claim(self: &Arc<Self>) {
        let identity = Arc::as_ptr(self) as usize;
        SHARD_CLAIMS.with(|stack| {
            if let Some(top) = stack.borrow_mut().last_mut() {
                if !top.yielded && top.core == identity {
                    top.yielded = true;
                    self.pool.release_claim(top.shard);
                }
            }
        });
    }

    fn drain_shard(self: &Arc<Self>, shard: usize) -> bool {
        // The claim is held across the invocation, not just the pop: one
        // shard runs one *computing* invocation at a time, so
        // `dispatch_workers` keeps its pre-reactor meaning as the
        // component's dispatch concurrency bound (a shard ≈ one former
        // worker thread). An invocation entering a blocking runtime wait
        // yields the claim (see `yield_shard_claim`), exactly as the old
        // blocked worker handed its shard to a replacement drainer.
        if !self.pool.try_claim(shard) {
            return false;
        }
        let identity = Arc::as_ptr(self) as usize;
        SHARD_CLAIMS.with(|stack| {
            stack.borrow_mut().push(ShardClaim {
                core: identity,
                shard,
                yielded: false,
            });
        });
        let mut did = false;
        let mut yielded = false;
        loop {
            if !self.is_alive() || self.is_paused() || self.pool.depth(shard) == 0 {
                break;
            }
            let Some(request) = self.pool.try_pop(shard) else {
                break;
            };
            let id = request.id;
            let target = request.target.clone();
            let admitted = self.admit_request(request);
            // The request is now in an actor slot (or dropped as a
            // duplicate): no longer pending admission.
            self.pool.admitted(id);
            self.pool.mark_admitted(shard);
            did = true;
            match admitted {
                Admission::Run(request, holds_lock, reentrant) => {
                    Arc::clone(self).run_invocation(request, holds_lock, reentrant);
                }
                Admission::Forward(request) => {
                    // Forwarding may wait out a stale placement
                    // (work-while-waiting on a reactor).
                    let _ = self.send_request(request);
                }
                Admission::Done => {}
            }
            // The invocation (and any mailbox continuations it drained) has
            // completed or parked: release exactly the guard this pop took
            // (a concurrent drain of the same shard may hold its own).
            self.pool.release_busy_actor(shard, &target);
            // A blocking wait inside the invocation yielded the claim: this
            // frame no longer owns the shard. (Nested frames pushed and
            // popped their own entries in LIFO order, so the top is ours.)
            yielded = SHARD_CLAIMS
                .with(|stack| stack.borrow().last().map(|top| top.yielded).unwrap_or(true));
            if yielded {
                break;
            }
        }
        SHARD_CLAIMS.with(|stack| {
            stack.borrow_mut().pop();
        });
        if !yielded {
            self.pool.release_claim(shard);
        }
        did
    }

    /// Resumes continuations the mesh timer flagged as timed out — on a
    /// reactor, so application code never runs on the timer thread.
    fn pump_timeouts(self: &Arc<Self>) -> bool {
        let expired = std::mem::take(&mut *self.timed_out.lock());
        if expired.is_empty() {
            return false;
        }
        for (nested, parked) in expired {
            let error = KarError::Timeout {
                request: nested,
                after_ms: self.config.call_timeout.as_millis() as u64,
            };
            self.resume_continuation(parked, Err(error));
        }
        true
    }

    /// One mesh-timer tick: heartbeat, bookkeeping aging, continuation
    /// deadlines, orphaned-response routing, partition retirement. Called at
    /// the scaled heartbeat interval by the mesh's single timer thread.
    pub(crate) fn tick(self: &Arc<Self>, now: Duration) {
        if !self.is_alive() {
            return;
        }
        if !self.heartbeats_stopped.load(Ordering::Relaxed) {
            if self.broker.heartbeat(&self.group, self.id).is_err() {
                self.heartbeats_stopped.store(true, Ordering::Relaxed);
            } else {
                self.age_retry_bookkeeping();
            }
        }
        // Continuations past their deadline are *flagged* here and resumed
        // with a timeout error on a reactor: an application continuation
        // that misbehaves must not stall every component's heartbeat.
        let expired = self.continuations.take_expired(now);
        if !expired.is_empty() {
            self.timed_out.lock().extend(expired);
            self.wakeup.notify();
        }
        // Retry deadlines are also checked here: on a quiet mesh no reactor
        // may be sweeping when a backoff expires, and the submit below (not
        // the execution — that happens on a reactor) is cheap timer work.
        if self.pump_retries() {
            self.wakeup.notify();
        }
        self.sweep_orphan_responses(now);
        self.sweep_retirement();
        self.sweep_passivation(now);
    }

    /// Mesh-timer retirement sweep: retires adopted partitions past their
    /// horizon and drops lanes whose consumers are all gone, returning the
    /// lane count to its pre-failure steady state.
    fn sweep_retirement(&self) {
        let lanes: Vec<Arc<ConsumerLane>> = self.lanes.lock().clone();
        for lane in lanes {
            let mut consumers = lane.consumers.lock();
            self.maybe_retire_partitions(&mut consumers);
            let empty = consumers.is_empty();
            drop(consumers);
            if empty {
                self.remove_lane(&lane);
            }
        }
    }

    /// Takes over consuming `adopted` partitions re-homed from a failed
    /// component: records their consumed offsets and adoption times (the
    /// retirement clock starts here), extends this component's partition set
    /// (adopted partitions are drained but never hash-routed to, so request
    /// routing is unaffected) and adds a consumer lane for the range — no
    /// thread is spawned; the existing reactors pick the lane up on their
    /// next sweep. Called by the reconciliation leader after it fenced the
    /// partitions' previous owners.
    pub(crate) fn adopt_partitions(self: &Arc<Self>, adopted: Vec<usize>) {
        if adopted.is_empty() || !self.is_alive() {
            return;
        }
        {
            let mut offsets = self.consumed_offsets.write();
            for partition in &adopted {
                offsets
                    .entry(*partition)
                    .or_insert_with(|| Arc::new(AtomicU64::new(0)));
            }
        }
        {
            let now = mono_now();
            let mut adopted_at = self.adopted_at.lock();
            for partition in &adopted {
                adopted_at.insert(*partition, now);
            }
        }
        self.partitions.write().adopt(adopted.iter().copied());
        self.lanes.lock().push(self.make_lane(adopted));
        // The new lane's partitions may already hold salvaged records.
        self.wakeup.notify();
    }

    /// Retires adopted partitions whose retirement horizon has passed and
    /// whose log is fully drained: fences the partition (any straggling
    /// consumer of an older assignment fails its next poll), detaches it
    /// from the reactor wake group, drops its consumer, and shrinks the
    /// partition set — locally, in the shared topology, and in the broker's
    /// assignment table and group view.
    ///
    /// Safety of the horizon: adopted partitions are never hash-routed to,
    /// so after recovery rewrote placement the only records that could still
    /// land there were appends already in flight at adoption time. Those
    /// expire after one retention window; the horizon is two windows (the
    /// same clock the aged retry bookkeeping uses), so an empty log at the
    /// horizon is empty forever.
    fn maybe_retire_partitions(&self, consumers: &mut Vec<Consumer<Envelope>>) {
        let delay = self.config.scaled_retirement_delay();
        let now = mono_now();
        let mut index = 0;
        while index < consumers.len() {
            let partition = consumers[index].partition();
            let due = self
                .adopted_at
                .lock()
                .get(&partition)
                .is_some_and(|adopted| now.saturating_sub(*adopted) >= delay);
            if !due || self.broker.partition_len(&self.topic, partition) != 0 {
                index += 1;
                continue;
            }
            self.retire_partition(partition);
            consumers[index].leave_wait_group(&self.wakeup);
            consumers.remove(index);
        }
    }

    /// The bookkeeping half of retirement: fence, shrink every map that
    /// records the adoption, and log the retirement.
    fn retire_partition(&self, partition: usize) {
        let _ = self.broker.fence_partition(&self.topic, partition);
        self.partitions.write().retire_adopted(partition);
        self.adopted_at.lock().remove(&partition);
        self.consumed_offsets.write().remove(&partition);
        // Shrink the shared topology and propagate the SAME set to the
        // broker's assignment table and group view while still holding the
        // topology lock: recovery's adoption path does the same, so the two
        // sides can never write each other's stale clone into the broker
        // tables (a retirement racing a fresh adoption would otherwise
        // resurrect the retired partition — or drop the adopted one — from
        // the assignment table).
        let mut topology = self.topology.write();
        if let Some(set) = topology.get_mut(&self.id) {
            set.retire_adopted(partition);
            let merged = set.clone();
            let _ = self
                .broker
                .assign_partitions(&self.topic, self.id, merged.clone());
            self.broker
                .update_member_partitions(&self.group, self.id, merged);
        }
        drop(topology);
        self.retired.lock().push(partition);
    }

    /// Routes one polled batch: responses are handled inline (they only
    /// unblock waiters), runs of requests are handed to the dispatch pool in
    /// per-shard batches ([`DispatchPool::submit_batch`] takes each shard
    /// lock once per run instead of once per record), and the partition's
    /// consumed offset is published only after every record is routed — so
    /// reconciliation always sees a record as still-queued or locally
    /// pending, never neither.
    fn route_records(self: &Arc<Self>, partition: usize, records: Vec<Record<Arc<Envelope>>>) {
        let Some(last) = records.last().map(|record| record.offset) else {
            return;
        };
        let mut requests: Vec<RequestMessage> = Vec::new();
        for record in records {
            // The poll shared these payloads with the partition log
            // (zero-copy); each delivered envelope is materialized exactly
            // once here — the only payload copy on the delivery path.
            match record.into_payload() {
                Envelope::Request(request) => requests.push(request),
                Envelope::Response(response) => {
                    // Flush the run so far first: the hand-off must preserve
                    // the partition's record order between requests and the
                    // responses interleaved with them.
                    self.pool.submit_batch(std::mem::take(&mut requests));
                    self.handle_response(response);
                }
            }
        }
        self.pool.submit_batch(requests);
        if let Some(slot) = self.consumed_offsets.read().get(&partition) {
            slot.store(last + 1, Ordering::SeqCst);
        }
    }

    /// Rotates the aged retry-bookkeeping sets — and ages out idle
    /// steal-route overrides and idle clean actor-state cache entries — if
    /// their retention interval elapsed (piggybacked on the mesh timer's
    /// heartbeat tick).
    fn age_retry_bookkeeping(&self) {
        let now = mono_now();
        self.completed.lock().maybe_rotate(now);
        self.seen_responses.lock().maybe_rotate(now);
        // Passivation tombstones rotate on the same doubled clock as the
        // dedup sets: a tombstone that was never consumed by a rehydration
        // ages out instead of leaking.
        self.passivated.lock().maybe_rotate(now);
        self.pool.age_routes(now);
        self.state_cache.maybe_age(now);
    }

    // ------------------------------------------------------------------
    // Idle-actor passivation & admission watermarks
    // ------------------------------------------------------------------

    /// The retry scheduler's view of the epoch clock: `epoch_ms` plus any
    /// injected clock skew (the `retry_clock` fault site). Skew simulates a
    /// component whose local clock drifts from the queue substrate's —
    /// backoff deadlines computed here fire early (positive skew) or late
    /// (negative), which the orchestration layer must tolerate because a
    /// re-homed retry is re-scheduled by a *different* component's clock.
    fn retry_epoch_now(&self) -> u64 {
        let now = epoch_ms();
        let Some(injector) = &self.faults else {
            return now;
        };
        let skew = injector.epoch_skew_ms();
        if skew >= 0 {
            now.saturating_add(skew as u64)
        } else {
            now.saturating_sub(skew.unsigned_abs())
        }
    }

    /// True while admission must defer new-actor activations: the resident
    /// set is at the hard watermark.
    fn admission_overloaded(&self) -> bool {
        self.config
            .resident_hard_limit()
            .is_some_and(|hard| self.resident_count.load(Ordering::Relaxed) >= hard)
    }

    /// The shaped-backoff deadline (epoch ms) of a deferred new-actor
    /// activation: the same backoff shape as the retry orchestration —
    /// exponential growth with deterministic jitter derived from the
    /// request id — on the [`ACTIVATION_BACKOFF`] base, capped at 16× the
    /// base. `deferrals` counts prior deferrals of the same activation, so
    /// a head that keeps finding the watermark crossed backs off further
    /// each time.
    fn shape_activation_deferral(&self, id: RequestId, deferrals: u32) -> u64 {
        let backoff = Backoff::Exponential {
            base: ACTIVATION_BACKOFF,
            multiplier: 2.0,
            max: ACTIVATION_BACKOFF * 16,
            jitter: 0.2,
        };
        let delay = backoff
            .delay_for(deferrals.saturating_add(1), id.as_u64())
            .max(Duration::from_millis(1));
        epoch_ms() + delay.as_millis() as u64
    }

    /// Stamps `actor` as recently used on the passivation clock. Called at
    /// admission and when an actor's mailbox runs dry, always while the
    /// actors lock is held (lock order actors → idle_actors everywhere).
    fn touch_idle(&self, actor: &ActorRef) {
        if !self.config.actor_passivation {
            return;
        }
        let mut idle = self.idle_actors.lock();
        if idle.get_refresh(actor).is_none() {
            idle.insert(actor.clone(), ());
        }
    }

    /// Heartbeat-driven passivation sweep (timer thread). Advances the idle
    /// clock and passivates every actor idle for one to two retention
    /// windows; past the soft resident watermark it turns *eager*, evicting
    /// the coldest actors first until the resident set is back under the
    /// watermark. Candidates are only suggestions — [`Self::try_passivate`]
    /// re-verifies quiescence under the actors lock before dropping
    /// anything.
    fn sweep_passivation(self: &Arc<Self>, now: Duration) {
        if !self.config.actor_passivation || !self.is_alive() || self.is_paused() {
            return;
        }
        let rotated = self.idle_actors.lock().advance_due(now);
        let excess = self.config.resident_soft_limit().map_or(0, |limit| {
            self.resident_count
                .load(Ordering::Relaxed)
                .saturating_sub(limit)
        });
        if !rotated && excess == 0 {
            return;
        }
        let candidates: Vec<ActorRef> = {
            let idle = self.idle_actors.lock();
            let generation = idle.generation();
            let mut stamped = idle.stamped_entries();
            drop(idle);
            // Coldest first. The fully-stale prefix is always eligible;
            // under soft-watermark pressure the next-coldest entries extend
            // it until the excess is covered.
            stamped.sort_unstable_by_key(|&(_, _, stamp)| stamp);
            let stale = stamped
                .iter()
                .take_while(|&&(_, _, stamp)| stamp.saturating_add(2) <= generation)
                .count();
            let take = stale.max(excess.min(stamped.len()));
            stamped
                .into_iter()
                .take(take)
                .map(|(actor, _, _)| actor)
                .collect()
        };
        for actor in &candidates {
            if !self.is_alive() || self.is_paused() {
                return;
            }
            self.try_passivate(actor);
        }
    }

    /// Passivates one actor if it is truly quiescent: flushes its state,
    /// then — re-verifying under the actors lock — drops its slot
    /// (instance, mailbox, slot stamp), its cached state image, its cached
    /// placement, its steal route, and its idle stamp, and records a
    /// tombstone. The next request re-activates the actor through the
    /// ordinary placement/admission path, exactly like a first activation.
    /// Returns true if the actor was passivated.
    fn try_passivate(self: &Arc<Self>, actor: &ActorRef) -> bool {
        // Cheap pre-check under the actors lock: anything non-quiescent is
        // skipped without touching the store.
        {
            let actors = self.actors.lock();
            match actors.get(actor) {
                None => {
                    // Killed, or already passivated: drop the orphaned idle
                    // stamp so it cannot stay a candidate forever.
                    drop(actors);
                    self.idle_actors.lock().remove(actor);
                    return false;
                }
                Some(slot) if !Self::quiescent(slot) => return false,
                Some(_) => {}
            }
        }
        // Flush outside every lock: the store round trip must not stall
        // admissions. A flush failure means this component is being fenced
        // or killed — leave the slot alone; kill drops it wholesale.
        if self.flush_actor_state(actor).is_err() {
            return false;
        }
        // Decide-and-drop under the actors lock. An admission between the
        // flush and here flips `busy` (or queues mail) under this same
        // lock, so the re-check cannot miss it; a state write since the
        // flush leaves the cache entry dirty and `passivate` refuses —
        // either way the slot survives untouched.
        let mut actors = self.actors.lock();
        if !actors.get(actor).is_some_and(Self::quiescent) {
            return false;
        }
        if !self.state_cache.passivate(&state_key(actor)) {
            return false;
        }
        actors.remove(actor);
        self.resident_count.fetch_sub(1, Ordering::Relaxed);
        self.idle_actors.lock().remove(actor);
        self.passivated.lock().insert(actor.clone());
        drop(actors);
        // Outside the actors lock — neither table is ordered after it. Both
        // drops keep the per-actor caches bounded by the *resident* set:
        // the placement record in the store is untouched (the actor is
        // still placed here, just not in memory), and the steal route is
        // subject to its usual active-veto.
        self.placement.forget(actor);
        self.pool.forget_route(actor);
        self.stats.passivations.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// True while an actor slot has no running invocation (`busy` also
    /// covers parked continuations and reentrant frames), no retained
    /// tail-call lock, nothing mailboxed, and no deferred activation
    /// pending.
    fn quiescent(slot: &ActorSlot) -> bool {
        !slot.busy
            && slot.awaiting_tail.is_none()
            && slot.mailbox.is_empty()
            && slot.activation_parked.is_none()
    }

    // ------------------------------------------------------------------
    // Actor-state persistence (the `ctx.state()` backend)
    // ------------------------------------------------------------------

    /// Total number of continuation parks since the component started: each
    /// one is a nested call that did *not* block a thread.
    pub fn continuation_parks(&self) -> u64 {
        self.continuations.parked_total()
    }

    /// `(requests appended, appends performed)` on the request leg. Every
    /// request is its own keyed append, so both halves are the same count
    /// and their ratio is always 1.
    pub fn request_batch_stats(&self) -> (u64, u64) {
        let appended = self.requests_appended.load(Ordering::Relaxed);
        (appended, appended)
    }

    /// `(completions enqueued, batch appends performed)` by the response
    /// batcher; `(0, 0)` when `MeshConfig::response_batching` is off. The
    /// ratio is the per-destination amortization the batching achieves.
    pub fn response_batch_stats(&self) -> (u64, u64) {
        self.responses
            .as_ref()
            .map_or((0, 0), ResponseBatcher::stats)
    }

    pub(crate) fn state_get(&self, key: &str, field: &str) -> KarResult<Option<Value>> {
        self.state_cache.get(&self.conn, key, field)
    }

    pub(crate) fn state_set(
        &self,
        key: &str,
        field: &str,
        value: Value,
    ) -> KarResult<Option<Value>> {
        self.state_cache.set(&self.conn, key, field, value)
    }

    pub(crate) fn state_set_multi(
        &self,
        key: &str,
        entries: impl IntoIterator<Item = (String, Value)>,
    ) -> KarResult<()> {
        self.state_cache.set_multi(&self.conn, key, entries)
    }

    pub(crate) fn state_remove(&self, key: &str, field: &str) -> KarResult<Option<Value>> {
        self.state_cache.remove(&self.conn, key, field)
    }

    pub(crate) fn state_get_all(&self, key: &str) -> KarResult<BTreeMap<String, Value>> {
        self.state_cache.get_all(&self.conn, key)
    }

    pub(crate) fn state_clear(&self, key: &str) -> KarResult<bool> {
        self.state_cache.clear_hash(&self.conn, key)
    }

    /// Makes `actor`'s buffered state writes durable (one pipelined round
    /// trip; free if nothing is buffered). Called strictly *before* an
    /// invocation's completion — response or tail-call continuation — is
    /// sent, so acknowledged state is always durable (flush-then-respond).
    fn flush_actor_state(&self, actor: &ActorRef) -> KarResult<()> {
        self.state_cache.flush(&self.conn, &state_key(actor))
    }
}
