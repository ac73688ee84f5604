//! External clients: application entry points that are not actors.
//!
//! In the paper's Container Shipping application the Web API service and the
//! simulators invoke actors from outside the actor model (§5). A [`Client`]
//! plays that role: it owns its own queue partition (so responses can be
//! routed back to it), participates in the consumer group, and is never the
//! target of fault injection in the experiments (mirroring the paper's
//! never-killed simulator node).

use std::sync::Arc;

use kar_types::{ActorRef, KarResult, RetryPolicy, Value};

use crate::component::ComponentCore;

/// A handle used by non-actor code (tests, simulators, web front ends) to
/// invoke actors.
///
/// Cloning a client is cheap and shares the same underlying component.
#[derive(Clone)]
pub struct Client {
    core: Arc<ComponentCore>,
}

impl Client {
    pub(crate) fn new(core: Arc<ComponentCore>) -> Self {
        Client { core }
    }

    /// Performs a blocking invocation of `target.method(args)` and returns
    /// the result, retrying transparently across failures of the components
    /// hosting the target actor (the call only fails if the whole application
    /// cannot recover within the configured call timeout).
    ///
    /// # Errors
    ///
    /// Application errors raised by the actor are propagated;
    /// `KarError::Timeout` is returned if no response arrives in time.
    pub fn call(&self, target: &ActorRef, method: &str, args: Vec<Value>) -> KarResult<Value> {
        self.core.external_call(target, method, args, None)
    }

    /// [`Client::call`] with an explicit [`RetryPolicy`]: failed attempts
    /// are retried on the policy's schedule (bounded attempts, shaped
    /// backoff, budget-gated) before the error is propagated here. The
    /// schedule is persisted in the request record, so it survives failures
    /// and re-homing of the hosting component.
    pub fn call_with_policy(
        &self,
        target: &ActorRef,
        method: &str,
        args: Vec<Value>,
        policy: RetryPolicy,
    ) -> KarResult<Value> {
        self.core.external_call(target, method, args, Some(policy))
    }

    /// Issues an asynchronous invocation of `target.method(args)`; returns
    /// once the request is durably enqueued.
    ///
    /// # Errors
    ///
    /// Fails if the request could not be enqueued.
    pub fn tell(&self, target: &ActorRef, method: &str, args: Vec<Value>) -> KarResult<()> {
        self.core.tell(target, method, args)
    }

    /// The component id backing this client.
    pub fn component_id(&self) -> kar_types::ComponentId {
        self.core.id()
    }
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("component", &self.core.id())
            .finish()
    }
}
