//! Per-destination-partition response batching (group commit for the
//! delivery plane): [`ResponseBatcher`].
//!
//! Every response — and every tail-call continuation to the sending actor's
//! own partition — is a durable queue append, and the durable-ack latency is
//! paid *under the destination partition's log lock* (a replicated log
//! acknowledges in sequence). On the call path that makes the response leg
//! the dominant serial resource: N invocations completing towards the same
//! caller partition used to pay N serialized acks.
//!
//! The [`ResponseBatcher`] applies the classic group-commit idiom to that
//! leg. Completions are enqueued per destination partition; the first
//! enqueuer of an idle partition becomes its *flusher* and appends through
//! [`kar_queue::Producer::send_batch`] — one partition-lock acquisition and
//! one durable ack per flush. Completions that arrive while a flush's ack is
//! in flight simply join the queue and ride the next flush, so a burst of K
//! responses to one partition pays ~⌈K/batch⌉ acks instead of K.
//!
//! Ordering: enqueue order is preserved per destination partition (the
//! flusher drains the queue FIFO and appends the drained run as one batch
//! with contiguous offsets). One caller actor has at most one outstanding
//! blocking call, so per-caller response order is trivially preserved; there
//! is no cross-envelope ordering contract between responses and requests of
//! unrelated ids.
//!
//! Failure semantics match the unbatched path: a flush that fails (the
//! component was fenced or killed mid-completion) drops the buffered
//! responses — exactly like a kill between `send_response` and the append —
//! and the callers' queue copies drive the retry.
//!
//! The request leg has no batcher: a request is one keyed append, durable
//! when `send_request` returns.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use kar_queue::Producer;
use kar_types::Envelope;

/// The pending queue of one destination partition.
#[derive(Default)]
struct PartitionQueue {
    pending: Vec<Envelope>,
    /// True while some thread is flushing this partition: later enqueuers
    /// leave their envelope for the flusher's next round instead of paying
    /// their own ack.
    flushing: bool,
}

/// Per-destination-partition response batching for one component.
#[derive(Default)]
pub(crate) struct ResponseBatcher {
    partitions: Mutex<HashMap<usize, Arc<Mutex<PartitionQueue>>>>,
    /// Envelopes enqueued since creation.
    enqueued: AtomicU64,
    /// Batch appends performed (each one lock acquisition + one durable
    /// ack); `enqueued / flushes` is the achieved amortization.
    flushes: AtomicU64,
}

impl ResponseBatcher {
    pub(crate) fn new() -> Self {
        ResponseBatcher::default()
    }

    fn queue(&self, partition: usize) -> Arc<Mutex<PartitionQueue>> {
        self.partitions.lock().entry(partition).or_default().clone()
    }

    /// Enqueues `envelope` for `topic[partition]` and flushes the partition's
    /// pending run unless another thread already is. The calling thread may
    /// perform several batch appends back to back if completions keep
    /// arriving while its acks are in flight; each append drains everything
    /// queued so far, so the loop ends as soon as producers pause.
    pub(crate) fn enqueue(
        &self,
        producer: &Producer<Envelope>,
        topic: &str,
        partition: usize,
        envelope: Envelope,
    ) {
        self.enqueued.fetch_add(1, Ordering::Relaxed);
        let queue = self.queue(partition);
        {
            let mut state = queue.lock();
            state.pending.push(envelope);
            if state.flushing {
                // The in-flight flusher picks this envelope up on its next
                // drain: the enqueuer's ack is amortized away entirely.
                return;
            }
            state.flushing = true;
        }
        // This thread holds the flusher claim: drain the queue in rounds —
        // each round one batch append — until it is empty.
        //
        // Consecutive transiently-failed rounds replayed so far: a gray
        // failure on one response flush must not cost every buffered caller
        // a redelivery round trip. Duplicate responses from an ack-lost
        // append are dropped by request-id matching at the receiver.
        let mut transient_rounds = 0u32;
        loop {
            let batch = {
                let mut state = queue.lock();
                if state.pending.is_empty() {
                    state.flushing = false;
                    return;
                }
                std::mem::take(&mut state.pending)
            };
            // A replay copy is only kept while the fault plane is armed: the
            // ordinary hot path moves the batch without copying.
            let replay = producer.faults_armed().then(|| batch.clone());
            match producer.send_batch(topic, partition, batch) {
                Ok(_) => {
                    self.flushes.fetch_add(1, Ordering::Relaxed);
                    transient_rounds = 0;
                }
                Err(error)
                    if error.is_transient()
                        && transient_rounds + 1 < crate::faults::TRANSIENT_ATTEMPTS
                        && replay.is_some() =>
                {
                    transient_rounds += 1;
                    let mut state = queue.lock();
                    state
                        .pending
                        .splice(0..0, replay.expect("guarded by is_some"));
                }
                Err(_) => {
                    // Fenced or killed mid-completion (or transient replays
                    // exhausted): nothing was appended, the queue copies of
                    // the affected requests drive the retry. Drop whatever
                    // queued meanwhile too — the component is dead.
                    let mut state = queue.lock();
                    state.pending.clear();
                    state.flushing = false;
                    return;
                }
            }
        }
    }

    /// Drops every pending envelope (the component was killed: unreleased
    /// completions die with it, like any in-memory state).
    pub(crate) fn clear(&self) {
        for queue in self.partitions.lock().values() {
            queue.lock().pending.clear();
        }
    }

    /// `(envelopes enqueued, batch appends performed)` since creation; the
    /// ratio is the response-batching amortization factor.
    pub(crate) fn stats(&self) -> (u64, u64) {
        (
            self.enqueued.load(Ordering::Relaxed),
            self.flushes.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kar_queue::{Broker, BrokerConfig};
    use kar_types::{ComponentId, RequestId, ResponseMessage, Value};
    use std::time::Duration;

    fn response(id: u64) -> Envelope {
        Envelope::Response(ResponseMessage::ok(
            RequestId::from_raw(id),
            None,
            Value::Int(id as i64),
        ))
    }

    #[test]
    fn enqueue_appends_in_order_per_partition() {
        let broker: Broker<Envelope> = Broker::new(BrokerConfig::default());
        broker.create_topic("t", 2).unwrap();
        let producer = broker.producer(ComponentId::from_raw(1));
        let batcher = ResponseBatcher::new();
        for id in 0..6 {
            batcher.enqueue(&producer, "t", (id % 2) as usize, response(id));
        }
        for partition in 0..2 {
            let ids: Vec<u64> = broker
                .read_partition("t", partition)
                .into_iter()
                .map(|record| record.payload.id().as_u64())
                .collect();
            let expected: Vec<u64> = (0..6).filter(|id| (id % 2) as usize == partition).collect();
            assert_eq!(ids, expected, "partition {partition} order broken");
        }
        let (enqueued, flushes) = batcher.stats();
        assert_eq!(enqueued, 6);
        assert!((1..=6).contains(&flushes));
    }

    #[test]
    fn concurrent_completions_share_durable_acks() {
        // 8 threads complete towards one destination partition at a 2 ms
        // ack: serialized that is >= 16 ms of acks; with group commit the
        // burst must finish in well under half that, and every response must
        // still land exactly once.
        let broker: Broker<Envelope> = Broker::new(BrokerConfig {
            append_latency: Duration::from_millis(2),
            ..BrokerConfig::default()
        });
        broker.create_topic("t", 1).unwrap();
        let producer = Arc::new(broker.producer(ComponentId::from_raw(1)));
        let batcher = Arc::new(ResponseBatcher::new());
        let started = std::time::Instant::now();
        let threads: Vec<_> = (0..8)
            .map(|id| {
                let producer = Arc::clone(&producer);
                let batcher = Arc::clone(&batcher);
                std::thread::spawn(move || batcher.enqueue(&producer, "t", 0, response(id)))
            })
            .collect();
        for thread in threads {
            thread.join().unwrap();
        }
        let elapsed = started.elapsed();
        let mut ids: Vec<u64> = broker
            .read_partition("t", 0)
            .into_iter()
            .map(|record| record.payload.id().as_u64())
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..8).collect::<Vec<u64>>());
        let (_, flushes) = batcher.stats();
        assert!(
            flushes < 8,
            "8 concurrent completions never shared a flush ({flushes} flushes)"
        );
        assert!(
            elapsed < Duration::from_millis(14),
            "group commit did not amortize the acks: {elapsed:?}"
        );
    }

    #[test]
    fn failed_flush_drops_the_batch_without_wedging() {
        let broker: Broker<Envelope> = Broker::new(BrokerConfig::default());
        broker.create_topic("t", 1).unwrap();
        let producer = broker.producer(ComponentId::from_raw(1));
        broker.fence(ComponentId::from_raw(1));
        let batcher = ResponseBatcher::new();
        batcher.enqueue(&producer, "t", 0, response(1));
        assert_eq!(broker.partition_len("t", 0), 0);
        // The partition queue is not left in a "flushing" state that would
        // park later envelopes forever.
        batcher.enqueue(&producer, "t", 0, response(2));
        assert_eq!(broker.partition_len("t", 0), 0);
        batcher.clear();
        assert_eq!(batcher.stats().0, 2);
    }
}
