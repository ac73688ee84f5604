//! A typed, plain-data view of a running mesh: where every request sits and
//! what every runtime counter reads, in one value.
//!
//! [`Mesh::snapshot`](crate::Mesh::snapshot) builds a [`MeshSnapshot`]. Each
//! layer fills its own part: the component core its [`ComponentSnapshot`],
//! its dispatch pool the [`DispatchSnapshot`], the mesh the store, retry and
//! fault planes. The snapshot does no store or broker I/O beyond reading
//! partition lengths and end offsets.
//!
//! Lists drawn from hash containers are sorted, so two equal mesh states give
//! equal snapshots; the deterministic simulator compares them with `==`.
//! Detail fields whose lock the runtime may be holding are read under
//! `try_lock` and are `None` when the lock was held, so snapshotting a wedged
//! component never blocks the reader. The [`Display`](fmt::Display) impl is
//! the one human-readable report.

use std::fmt;
use std::time::Duration;

use kar_queue::PartitionSet;
use kar_store::StoreStats;
use kar_types::{ActorRef, ComponentId, NodeId, RequestId};

use crate::faults::{FaultCounters, FaultSite};
use crate::placement::PlacementCounters;
use crate::retry::{BreakerPosition, RetryMetrics};

/// The whole mesh at one instant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MeshSnapshot {
    /// Size of the fixed reactor pool driving every component (the timer
    /// thread is not counted). Constant for the life of the mesh.
    pub reactor_threads: usize,
    /// Every component ever added, dead ones included, sorted by id.
    pub components: Vec<ComponentSnapshot>,
    /// The store's operation counters.
    pub store: StoreStats,
    /// Contended lock acquisitions per store shard (one entry per shard).
    pub store_contention: Vec<u64>,
    /// Mesh-wide retry-orchestration counters.
    pub retry: RetryMetrics,
    /// Circuit-breaker position of every actor type with recorded outcomes,
    /// sorted by type.
    pub breakers: Vec<(String, BreakerPosition)>,
    /// What the gray-failure injector did; `None` unless the mesh was built
    /// with [`MeshConfig::with_fault_plan`](crate::MeshConfig::with_fault_plan).
    pub faults: Option<FaultCounters>,
}

impl MeshSnapshot {
    /// The snapshot of component `id`, if the mesh ever added it.
    pub fn component(&self, id: ComponentId) -> Option<&ComponentSnapshot> {
        self.components
            .binary_search_by_key(&id, |c| c.id)
            .ok()
            .map(|index| &self.components[index])
    }

    /// The position of `actor_type`'s circuit breaker: [`BreakerPosition::Closed`]
    /// when breakers are disabled or the type has no recorded outcomes yet.
    pub fn breaker(&self, actor_type: &str) -> BreakerPosition {
        self.breakers
            .iter()
            .find(|(name, _)| name == actor_type)
            .map_or(BreakerPosition::Closed, |(_, position)| *position)
    }
}

/// One component: its delivery, invocation, retry and memory state.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentSnapshot {
    /// The component's id.
    pub id: ComponentId,
    /// The node it runs on.
    pub node: NodeId,
    /// Its human-readable name.
    pub name: String,
    /// False once killed or shut down.
    pub alive: bool,
    /// True while recovery has paused its message processing.
    pub paused: bool,
    /// The partitions it consumes: its home range plus ranges adopted from
    /// failed components.
    pub partitions: PartitionSet,
    /// One row per partition of `partitions`, in the set's order.
    pub queues: Vec<PartitionQueue>,
    /// Live consumer lanes: one per home-partition slice, plus one per
    /// adopted range until retirement drops it. Lanes are pump targets of
    /// the shared reactor pool, not threads.
    pub lanes: usize,
    /// Time left before each adopted partition reaches its retirement
    /// horizon, sorted by partition.
    pub retire_in: Vec<(usize, Duration)>,
    /// Adopted partitions retired so far, in retirement order.
    pub retired: Vec<usize>,
    /// Requests durably appended (one keyed append each).
    pub requests_appended: u64,
    /// `(completions enqueued, batch appends performed)` by the response
    /// batcher; `(0, 0)` with `MeshConfig::response_batching` off.
    pub response_batches: (u64, u64),
    /// Placement-cache counters.
    pub placement: PlacementCounters,
    /// Continuations currently parked on nested calls.
    pub parked_continuations: usize,
    /// Continuation parks since the component started.
    pub continuation_parks: u64,
    /// Resident (activated, in-memory) actors.
    pub resident: usize,
    /// Requests mailboxed behind busy resident actors.
    pub mailboxed: usize,
    /// Actor states held in the state cache.
    pub cached_states: usize,
    /// Idle clean state-cache entries evicted on the retention clock.
    pub state_cache_evictions: u64,
    /// Size of the aged completed-request set (retry dedup).
    pub completed_ids: usize,
    /// Size of the aged seen-response set.
    pub seen_responses: usize,
    /// Scheduled retries waiting out their backoff deadline.
    pub delayed_retries: usize,
    /// Transient consumer-poll failures survived without unsubscribing.
    pub poll_faults: u64,
    /// Invocations executed to completion (value, error or tail call).
    pub executed: u64,
    /// Requests whose retry was postponed waiting for a pending callee.
    pub deferred: u64,
    /// Requests elided because their caller's component had failed (§4.4).
    pub cancelled: u64,
    /// Tail calls issued.
    pub tail_calls: u64,
    /// Requests forwarded to the actor's current placement.
    pub forwarded: u64,
    /// Policy retries scheduled.
    pub retries_scheduled: u64,
    /// Invocations moved to the dead-letter queue.
    pub dead_lettered: u64,
    /// Idle actors passivated.
    pub passivations: u64,
    /// Passivated actors re-activated.
    pub rehydrations: u64,
    /// New-actor activations deferred at the hard resident watermark.
    pub admission_deferrals: u64,
    /// The sharded dispatch queues in front of the actor mailboxes.
    pub dispatch: DispatchSnapshot,
    /// Every actor that is not quiescent (running, holding a tail-call lock,
    /// with mail queued, or with a deferred activation), sorted by actor.
    pub actors: Option<Vec<ActorSnapshot>>,
    /// Re-homed requests waiting for their pending callee to settle (the
    /// happen-before guarantee of §4.3), keyed by callee, sorted.
    pub deferred_on_callee: Option<Vec<(RequestId, Vec<RequestId>)>>,
    /// Requests currently executing, sorted.
    pub inflight: Option<Vec<RequestId>>,
    /// Requests held on the stale-placement detour, waiting for a repair
    /// or behind an older request to the same actor, sorted.
    pub unresolved_forwards: Option<Vec<RequestId>>,
    /// Client calls blocked waiting for their response, sorted.
    pub blocked_calls: Option<Vec<RequestId>>,
}

/// One queue partition as seen by its consumer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionQueue {
    /// The partition index.
    pub partition: usize,
    /// Offset of the next record the component will read from it.
    pub consumed: u64,
    /// Records still retained in the partition log.
    pub len: usize,
    /// Offset the next append will receive.
    pub end_offset: u64,
}

/// The lock, mailbox and deferral state of one actor slot.
#[derive(Debug, Clone, PartialEq)]
pub struct ActorSnapshot {
    /// The actor.
    pub actor: ActorRef,
    /// True while an invocation holds the actor lock.
    pub busy: bool,
    /// The tail call the actor lock is retained for, if any.
    pub awaiting_tail: Option<RequestId>,
    /// The head request whose activation is deferred, if any.
    pub activation_parked: Option<RequestId>,
    /// Mailboxed request ids, in mailbox order.
    pub mailbox: Vec<RequestId>,
}

/// One component's dispatch pool.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DispatchSnapshot {
    /// One row per shard, by shard index.
    pub shards: Vec<ShardSnapshot>,
    /// Whole-actor steals performed by idle reactors.
    pub steals: u64,
    /// Deep pushes that woke a parked reactor to steal.
    pub steal_wakeups: u64,
    /// Steal-route overrides (actor and the shard it now lives on), sorted.
    pub routes: Option<Vec<(ActorRef, usize)>>,
    /// Requests polled but not yet admitted to an actor slot, sorted.
    pub pending_admission: Option<Vec<RequestId>>,
}

/// One dispatch shard.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSnapshot {
    /// Requests this shard has admitted (its processed load).
    pub load: u64,
    /// Queued requests.
    pub depth: usize,
    /// True while a reactor holds the shard's pop-and-admit claim.
    pub claimed: bool,
    /// Queued requests and their targets, in queue order.
    pub queue: Option<Vec<(RequestId, ActorRef)>>,
    /// Actors whose popped requests are being handled.
    pub busy_actors: Option<Vec<ActorRef>>,
}

/// `[a, b, …]`, each item rendered by `render`.
fn list<T>(items: &[T], render: impl Fn(&T) -> String) -> String {
    format!(
        "[{}]",
        items.iter().map(render).collect::<Vec<_>>().join(", ")
    )
}

/// A `try_lock` detail list, or `<LOCK HELD>` when its lock was held.
fn held<T>(field: &Option<Vec<T>>, render: impl Fn(&T) -> String) -> String {
    field
        .as_ref()
        .map_or_else(|| "<LOCK HELD>".to_owned(), |items| list(items, render))
}

fn id(id: &RequestId) -> String {
    id.as_u64().to_string()
}

impl fmt::Display for MeshSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "reactor pool: threads={} components={}",
            self.reactor_threads,
            self.components.len()
        )?;
        for component in &self.components {
            write!(f, "{component}")?;
        }
        let store = &self.store;
        writeln!(
            f,
            "store: reads={} writes={} cas={} round_trips={} pipeline_flushes={} \
             mean_pipeline_batch={:.1} shards={} contention={:?}",
            store.reads,
            store.writes,
            store.cas,
            store.round_trips,
            store.pipeline_flushes,
            store.mean_pipeline_batch(),
            self.store_contention.len(),
            self.store_contention,
        )?;
        let retry = &self.retry;
        writeln!(
            f,
            "retry orchestration: scheduled={} admitted={} shed={} \
             breaker_fast_fails={} breaker_opened={} dead_lettered={}",
            retry.scheduled,
            retry.admitted,
            retry.shed,
            retry.breaker_fast_fails,
            retry.breaker_opened,
            retry.dead_lettered,
        )?;
        for (actor_type, position) in &self.breakers {
            writeln!(f, "  breaker {actor_type}: {}", position.as_str())?;
        }
        if let Some(faults) = &self.faults {
            writeln!(
                f,
                "fault plane: total_faults={} store_brownout_ops={} broker_brownout_ops={}",
                faults.total_faults(),
                faults.store_brownout_ops,
                faults.broker_brownout_ops,
            )?;
            for site in FaultSite::ALL {
                let s = faults.site(site);
                if s.draws > 0 {
                    writeln!(
                        f,
                        "  {}: draws={} transient={} ack_lost={} spikes={} skews={}",
                        site.name(),
                        s.draws,
                        s.transient,
                        s.ack_lost,
                        s.spikes,
                        s.skews,
                    )?;
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for ComponentSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "component {} ({}) node={} alive={} paused={} partitions={}",
            self.id, self.name, self.node, self.alive, self.paused, self.partitions,
        )?;
        for q in &self.queues {
            writeln!(
                f,
                "  partition {}: consumed={} len={} end_offset={}",
                q.partition, q.consumed, q.len, q.end_offset,
            )?;
        }
        writeln!(
            f,
            "  delivery: lanes={} retire_in={} retired={:?} requests_appended={} \
             response_batches={}/{}",
            self.lanes,
            list(&self.retire_in, |(p, left)| format!("{p}:{left:.1?}")),
            self.retired,
            self.requests_appended,
            self.response_batches.1,
            self.response_batches.0,
        )?;
        let p = &self.placement;
        writeln!(
            f,
            "  invocations: executed={} tail_calls={} forwarded={} deferred={} cancelled={} \
             placement_hits={} slot_hits={} misses={} invalidations={}",
            self.executed,
            self.tail_calls,
            self.forwarded,
            self.deferred,
            self.cancelled,
            p.hits,
            p.slot_hits,
            p.misses,
            p.invalidations,
        )?;
        writeln!(
            f,
            "  continuations: parked={} parks_total={}",
            self.parked_continuations, self.continuation_parks,
        )?;
        writeln!(
            f,
            "  memory: resident={} mailboxed={} passivations={} rehydrations={} \
             admission_deferrals={} cached_states={} evicted={}",
            self.resident,
            self.mailboxed,
            self.passivations,
            self.rehydrations,
            self.admission_deferrals,
            self.cached_states,
            self.state_cache_evictions,
        )?;
        writeln!(
            f,
            "  retry: scheduled={} dead_lettered={} delayed={} completed_ids={} \
             seen_responses={} poll_faults={}",
            self.retries_scheduled,
            self.dead_lettered,
            self.delayed_retries,
            self.completed_ids,
            self.seen_responses,
            self.poll_faults,
        )?;
        let dispatch = &self.dispatch;
        writeln!(
            f,
            "  dispatch: steals={} steal_wakeups={} routes={} pending_admission={}",
            dispatch.steals,
            dispatch.steal_wakeups,
            held(&dispatch.routes, |(actor, shard)| format!(
                "{actor}→{shard}"
            )),
            held(&dispatch.pending_admission, id),
        )?;
        for (index, shard) in dispatch.shards.iter().enumerate() {
            writeln!(
                f,
                "  shard {index}: load={} claimed={} depth={} busy_actors={} queue={}",
                shard.load,
                shard.claimed,
                shard.depth,
                held(&shard.busy_actors, ActorRef::to_string),
                held(&shard.queue, |(request, actor)| format!(
                    "{}→{actor}",
                    id(request)
                )),
            )?;
        }
        match &self.actors {
            Some(actors) => {
                for a in actors {
                    writeln!(
                        f,
                        "  actor {}: busy={} awaiting_tail={:?} activation_parked={:?} mailbox={}",
                        a.actor,
                        a.busy,
                        a.awaiting_tail.map(RequestId::as_u64),
                        a.activation_parked.map(RequestId::as_u64),
                        list(&a.mailbox, id),
                    )?;
                }
            }
            None => writeln!(f, "  actors: <LOCK HELD>")?,
        }
        match &self.deferred_on_callee {
            Some(deferred) => {
                for (callee, ids) in deferred {
                    writeln!(f, "  deferred on callee {}: {}", id(callee), list(ids, id))?;
                }
            }
            None => writeln!(f, "  deferred: <LOCK HELD>")?,
        }
        writeln!(f, "  inflight: {}", held(&self.inflight, id))?;
        writeln!(
            f,
            "  requests held on the stale-placement detour: {}",
            held(&self.unresolved_forwards, id)
        )?;
        writeln!(
            f,
            "  blocked calls waiting: {}",
            held(&self.blocked_calls, id)
        )
    }
}
