//! The invocation context handed to actor methods.

use std::collections::BTreeMap;
use std::sync::Arc;

use kar_types::{ActorRef, ComponentId, KarResult, RequestId, RequestMessage, RetryPolicy, Value};

use crate::actor::Outcome;
use crate::component::ComponentCore;

/// The context of one actor method invocation.
///
/// It identifies the actor instance and the request being executed, and gives
/// access to nested invocations ([`ActorContext::call_then`],
/// [`ActorContext::tell`]) and to the persistence API
/// ([`ActorContext::state`]).
pub struct ActorContext<'a> {
    core: &'a Arc<ComponentCore>,
    request: &'a RequestMessage,
    self_ref: ActorRef,
}

impl<'a> ActorContext<'a> {
    pub(crate) fn new(
        core: &'a Arc<ComponentCore>,
        request: &'a RequestMessage,
        self_ref: ActorRef,
    ) -> Self {
        ActorContext {
            core,
            request,
            self_ref,
        }
    }

    /// A reference to the actor instance executing the current method.
    pub fn self_ref(&self) -> &ActorRef {
        &self.self_ref
    }

    /// The id of the request being executed. Retries of the same logical
    /// invocation observe the same id.
    pub fn request_id(&self) -> RequestId {
        self.request.id
    }

    /// The component hosting this invocation.
    pub fn component_id(&self) -> ComponentId {
        self.core.id()
    }

    /// The method arguments of the request being executed.
    pub fn args(&self) -> &[Value] {
        &self.request.args
    }

    /// Failed attempts of this invocation's retry schedule so far (`0` on
    /// the initial attempt, or when no policy governs it). Because the
    /// schedule rides in the request record, the count is preserved across
    /// component failures and re-homing — chaos tests assert exactly that.
    pub fn retry_attempt(&self) -> u32 {
        self.request.retry.as_ref().map_or(0, |retry| retry.attempt)
    }

    /// Issues an asynchronous invocation of `target.method(args)`. The call
    /// returns once the request has been durably enqueued; errors raised by
    /// the callee are logged and discarded (§2).
    ///
    /// # Errors
    ///
    /// Fails if the request could not be enqueued (for example because this
    /// component has been fenced).
    pub fn tell(&self, target: &ActorRef, method: &str, args: Vec<Value>) -> KarResult<()> {
        self.core.tell(target, method, args)
    }

    /// Builds a parked nested call, the only way a handler calls another
    /// actor and uses the result: `target.method(args)` is issued when the
    /// current method returns this outcome, and `then` resumes with the
    /// result when the response record arrives — no runtime thread waits in
    /// between (the paper's `await actor.call(...)`, §2).
    ///
    /// The actor stays locked while parked (its mailbox queues behind the
    /// invocation; reentrant calls along the lineage bypass it and run on
    /// the parked instance), and a failure while parked retries the whole
    /// handler from the queue copy of the original request. In-memory state
    /// captured by `then` is lost on such a retry, like all in-memory actor
    /// state; durable state belongs in [`ActorContext::state`].
    pub fn call_then(
        &self,
        target: &ActorRef,
        method: &str,
        args: Vec<Value>,
        then: impl FnOnce(&mut ActorContext<'_>, KarResult<Value>) -> KarResult<Outcome>
            + Send
            + 'static,
    ) -> Outcome {
        Outcome::call_then(target.clone(), method, args, then)
    }

    /// [`ActorContext::call_then`] with an explicit [`RetryPolicy`] on the
    /// nested request (see [`Outcome::call_then_with_policy`]).
    pub fn call_then_with_policy(
        &self,
        target: &ActorRef,
        method: &str,
        args: Vec<Value>,
        policy: RetryPolicy,
        then: impl FnOnce(&mut ActorContext<'_>, KarResult<Value>) -> KarResult<Outcome>
            + Send
            + 'static,
    ) -> Outcome {
        Outcome::call_then_with_policy(target.clone(), method, args, policy, then)
    }

    /// Builds a tail-call outcome targeting another actor (or this one).
    ///
    /// Returning this outcome from [`crate::Actor::invoke`] atomically
    /// completes the current invocation while issuing the next one; the
    /// original caller receives the return value of the last call in the
    /// chain (§2.3).
    pub fn tail_call(&self, target: &ActorRef, method: &str, args: Vec<Value>) -> Outcome {
        Outcome::tail_call(target.clone(), method, args)
    }

    /// Builds a tail-call outcome targeting this actor, which retains the
    /// actor lock across the transition (§2.3).
    pub fn tail_call_self(&self, method: &str, args: Vec<Value>) -> Outcome {
        Outcome::tail_call(self.self_ref.clone(), method, args)
    }

    /// The `actor.state` persistence API for this actor instance (§2.1).
    pub fn state(&self) -> ActorState<'_> {
        ActorState {
            core: self.core,
            key: state_key(&self.self_ref),
        }
    }
}

/// Store key of the persistent state hash of `actor`.
pub(crate) fn state_key(actor: &ActorRef) -> String {
    format!("state/{}", actor.qualified_name())
}

/// The persistence API of one actor instance: a durable map of named values
/// backed by the store substrate.
///
/// KAR does not prescribe its use — actors are free to interface with any
/// external service — but state written here survives failures and is
/// typically reloaded in [`crate::Actor::activate`].
///
/// # Caching and crash consistency
///
/// Reads go through a per-activation in-memory image of the state hash (loaded with
/// one `hgetall` on the actor's first touch) and writes are buffered. The
/// runtime flushes buffered writes as **one** pipelined store round trip
/// strictly *before* the invocation's response or tail-call continuation is
/// sent: by the time a caller observes a completion, the state it
/// acknowledged is durable — a component killed between the flush and the
/// response simply triggers the retry orchestration.
pub struct ActorState<'a> {
    core: &'a Arc<ComponentCore>,
    key: String,
}

impl ActorState<'_> {
    /// Reads one field of the actor's persistent state.
    ///
    /// # Errors
    ///
    /// Fails with `KarError::Fenced` if the component has been forcefully
    /// disconnected from the store.
    pub fn get(&self, field: &str) -> KarResult<Option<Value>> {
        self.core.state_get(&self.key, field)
    }

    /// Writes one field of the actor's persistent state, returning the
    /// previous value.
    ///
    /// # Errors
    ///
    /// Fails with `KarError::Fenced` if the component has been forcefully
    /// disconnected from the store.
    pub fn set(&self, field: &str, value: Value) -> KarResult<Option<Value>> {
        self.core.state_set(&self.key, field, value)
    }

    /// Writes several fields at once.
    ///
    /// # Errors
    ///
    /// Fails with `KarError::Fenced` if the component has been forcefully
    /// disconnected from the store.
    pub fn set_multi(&self, entries: impl IntoIterator<Item = (String, Value)>) -> KarResult<()> {
        self.core.state_set_multi(&self.key, entries)
    }

    /// Deletes one field, returning its previous value.
    ///
    /// # Errors
    ///
    /// Fails with `KarError::Fenced` if the component has been forcefully
    /// disconnected from the store.
    pub fn remove(&self, field: &str) -> KarResult<Option<Value>> {
        self.core.state_remove(&self.key, field)
    }

    /// Reads the whole persistent state of the actor.
    ///
    /// # Errors
    ///
    /// Fails with `KarError::Fenced` if the component has been forcefully
    /// disconnected from the store.
    pub fn get_all(&self) -> KarResult<BTreeMap<String, Value>> {
        self.core.state_get_all(&self.key)
    }

    /// Deletes the actor's entire persistent state (used when an actor
    /// instance reaches the end of its life cycle, e.g. an order delivered to
    /// its destination).
    ///
    /// # Errors
    ///
    /// Fails with `KarError::Fenced` if the component has been forcefully
    /// disconnected from the store.
    pub fn clear(&self) -> KarResult<bool> {
        self.core.state_clear(&self.key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_key_is_namespaced_per_actor() {
        assert_eq!(state_key(&ActorRef::new("Order", "o-1")), "state/Order/o-1");
        assert_ne!(
            state_key(&ActorRef::new("Order", "o-1")),
            state_key(&ActorRef::new("Order", "o-2"))
        );
    }
}
