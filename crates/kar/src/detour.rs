//! The stale-placement detour: how a component sends to an actor whose
//! placement names a failed component, without any frame waiting for the
//! repair, and without breaking per-caller FIFO order.
//!
//! A fresh send that cannot resolve its target is appended to the sender's
//! own home partition, keyed by the target, and *enters the line* for that
//! target. Admission polls it back and forwards it; a forward that still
//! cannot resolve is *held* — durable in the queue it was polled from and
//! counted as locally pending — until a repair or a timer tick releases it.
//!
//! Two rules keep issue order:
//! - while a target has a line, every later send to it joins the line, so
//!   nothing overtakes an earlier detour by going straight to the owner;
//! - only the oldest request of a line may leave it (to its owner's queue,
//!   or into an actor slot here); a younger one that reaches admission first
//!   is held behind it. A request outside any line is held while its target
//!   has held requests, for the same reason.
//!
//! A request re-appended to this component's own queue (its target was
//! re-placed here) keeps its place in line until admission takes it.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};

use kar_types::{ActorRef, ComponentId, RequestId, RequestMessage};
use parking_lot::Mutex;

/// Where a release pass sends a held target's requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Route {
    /// The placement resolves: append to this component's queue.
    To(ComponentId),
    /// Still stale (or a transient store failure): keep holding.
    Wait,
    /// A non-transient failure (no host for the type, or this component is
    /// fenced): drop; the queue copy drives the retry.
    Drop,
}

#[derive(Default)]
struct Lines {
    /// Per target, the ids sent through the own partition, oldest first.
    lines: HashMap<ActorRef, VecDeque<RequestId>>,
    /// Requests waiting for a placement or for their turn, in arrival order.
    held: Vec<RequestMessage>,
}

impl Lines {
    fn must_wait(&self, request: &RequestMessage) -> bool {
        match self.lines.get(&request.target) {
            Some(line) if line.contains(&request.id) => line.front() != Some(&request.id),
            _ => self.held.iter().any(|held| held.target == request.target),
        }
    }

    fn leave(&mut self, target: &ActorRef, id: RequestId) {
        if let Some(line) = self.lines.get_mut(target) {
            line.retain(|queued| *queued != id);
            if line.is_empty() {
                self.lines.remove(target);
            }
        }
    }
}

/// The detour bookkeeping of one component. Every method is one atomic load
/// while nothing is on the detour path (the case outside a failover).
#[derive(Default)]
pub(crate) struct DetourPath {
    /// Targets with a line plus held requests; zero means nothing to check.
    active: AtomicUsize,
    state: Mutex<Lines>,
}

impl DetourPath {
    fn with<R>(&self, f: impl FnOnce(&mut Lines) -> R) -> R {
        let mut state = self.state.lock();
        let result = f(&mut state);
        self.active
            .store(state.lines.len() + state.held.len(), Ordering::SeqCst);
        result
    }

    fn idle(&self) -> bool {
        self.active.load(Ordering::SeqCst) == 0
    }

    /// True while a send to `target` must join its line.
    pub(crate) fn has_line(&self, target: &ActorRef) -> bool {
        !self.idle() && self.state.lock().lines.contains_key(target)
    }

    /// Puts `id` at the back of `target`'s line; call before appending the
    /// request to the own partition.
    pub(crate) fn enter(&self, target: &ActorRef, id: RequestId) {
        self.with(|state| state.lines.entry(target.clone()).or_default().push_back(id));
    }

    /// Takes `id` out of `target`'s line: it reached its owner's queue, was
    /// admitted here, or was dropped.
    pub(crate) fn leave(&self, target: &ActorRef, id: RequestId) {
        if !self.idle() {
            self.with(|state| state.leave(target, id));
        }
    }

    /// True if `request` must wait behind an older request to its target.
    pub(crate) fn must_wait(&self, request: &RequestMessage) -> bool {
        !self.idle() && self.state.lock().must_wait(request)
    }

    /// Holds `request` if it must wait in line; returns it otherwise.
    pub(crate) fn hold_if_waiting(&self, request: RequestMessage) -> Option<RequestMessage> {
        if self.idle() {
            return Some(request);
        }
        self.with(|state| {
            if state.must_wait(&request) {
                state.held.push(request);
                None
            } else {
                Some(request)
            }
        })
    }

    /// Holds `request` until a release pass can route it.
    pub(crate) fn hold(&self, request: RequestMessage) {
        self.with(|state| state.held.push(request));
    }

    /// True if request `id` is held here.
    pub(crate) fn holds(&self, id: RequestId) -> bool {
        !self.idle() && self.state.lock().held.iter().any(|held| held.id == id)
    }

    /// The held request ids, or `None` while the lock is taken.
    pub(crate) fn try_held_ids(&self) -> Option<Vec<RequestId>> {
        let state = self.state.try_lock()?;
        Some(state.held.iter().map(|held| held.id).collect())
    }

    /// Routes the held requests: `resolve` is asked once per held target
    /// (outside the lock, in held order); `send` appends a request to a
    /// component's queue, false when the append failed, and runs under the
    /// lock, so every request is either held or queued when `holds` looks.
    /// `me` is this component: a request re-appended to its own queue keeps
    /// its place in line.
    pub(crate) fn release(
        &self,
        me: ComponentId,
        mut resolve: impl FnMut(&ActorRef) -> Route,
        mut send: impl FnMut(ComponentId, RequestMessage) -> bool,
    ) {
        if self.idle() {
            return;
        }
        // Resolved in held order: under deterministic simulation the store
        // operations must not follow hash order.
        let targets: Vec<ActorRef> = self
            .state
            .lock()
            .held
            .iter()
            .map(|held| held.target.clone())
            .collect();
        let mut routes: HashMap<ActorRef, Route> = HashMap::new();
        for target in targets {
            if let Entry::Vacant(slot) = routes.entry(target) {
                let route = resolve(slot.key());
                slot.insert(route);
            }
        }
        self.with(|state| {
            let mut kept = Vec::new();
            // Targets with a request kept in this pass: later requests to
            // them outside any line stay behind it.
            let mut blocked: HashSet<ActorRef> = HashSet::new();
            for request in std::mem::take(&mut state.held) {
                let target = request.target.clone();
                let turn = match state.lines.get(&target) {
                    Some(line) if line.contains(&request.id) => line.front() == Some(&request.id),
                    _ => !blocked.contains(&target),
                };
                let id = request.id;
                match routes.get(&target).copied().unwrap_or(Route::Wait) {
                    Route::To(owner) if owner == me => {
                        if !send(me, request) {
                            state.leave(&target, id);
                        }
                    }
                    Route::To(owner) if turn => {
                        send(owner, request);
                        state.leave(&target, id);
                    }
                    Route::Drop => state.leave(&target, id),
                    Route::To(_) | Route::Wait => {
                        blocked.insert(target);
                        kept.push(request);
                    }
                }
            }
            state.held = kept;
        });
    }

    /// Drops everything: the component died.
    pub(crate) fn clear(&self) {
        self.with(|state| *state = Lines::default());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(id: u64, actor: &str) -> RequestMessage {
        RequestMessage::root(
            RequestId::from_raw(id),
            ActorRef::new("T", actor),
            "m",
            Vec::new(),
        )
    }

    /// One release pass on component 1, every target routed to `route`.
    fn release_to(path: &DetourPath, route: Route) -> Vec<(u64, u64)> {
        let mut sent = Vec::new();
        path.release(
            ComponentId::from_raw(1),
            |_| route,
            |owner, request| {
                sent.push((owner.as_u64(), request.id.as_u64()));
                true
            },
        );
        sent
    }

    #[test]
    fn a_younger_detour_waits_behind_the_oldest_and_leaves_after_it() {
        let path = DetourPath::default();
        let (first, second) = (request(1, "x"), request(2, "x"));
        path.enter(&first.target, first.id);
        path.enter(&second.target, second.id);
        assert!(path.has_line(&first.target));
        // The younger one reached admission first: it waits.
        assert!(path.must_wait(&second));
        assert!(path.hold_if_waiting(second).is_none());
        let first = path.hold_if_waiting(first).expect("the oldest never waits");
        path.hold(first);
        assert_eq!(release_to(&path, Route::Wait), vec![]);
        // Held order is [2, 1]: one pass sends 1, the next sends 2.
        let elsewhere = Route::To(ComponentId::from_raw(7));
        assert_eq!(release_to(&path, elsewhere), vec![(7, 1)]);
        assert_eq!(release_to(&path, elsewhere), vec![(7, 2)]);
        assert!(!path.has_line(&request(1, "x").target));
        assert!(path.idle());
    }

    #[test]
    fn a_request_re_placed_here_keeps_its_place_in_line() {
        let path = DetourPath::default();
        for id in [1, 2] {
            path.enter(&request(id, "x").target, RequestId::from_raw(id));
            path.hold(request(id, "x"));
        }
        // Outside the line, a request to x waits behind the held ones; a
        // request to another actor does not.
        assert!(path.must_wait(&request(9, "x")));
        assert!(!path.must_wait(&request(9, "y")));
        let here = Route::To(ComponentId::from_raw(1));
        assert_eq!(release_to(&path, here), vec![(1, 1), (1, 2)]);
        assert!(!path.holds(RequestId::from_raw(1)));
        // Both are back in the own queue and still in line: 2 waits for 1.
        assert!(path.must_wait(&request(2, "x")));
        assert!(!path.must_wait(&request(1, "x")));
        path.leave(&request(1, "x").target, RequestId::from_raw(1));
        assert!(!path.must_wait(&request(2, "x")));
        path.leave(&request(2, "x").target, RequestId::from_raw(2));
        assert!(path.idle());
    }

    #[test]
    fn a_dropped_route_empties_the_line() {
        let path = DetourPath::default();
        path.enter(&request(1, "x").target, RequestId::from_raw(1));
        path.hold(request(1, "x"));
        assert!(path.holds(RequestId::from_raw(1)));
        assert_eq!(release_to(&path, Route::Drop), vec![]);
        assert!(path.idle());
    }
}
