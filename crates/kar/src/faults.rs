//! Mesh-facing glue for the gray-failure injection plane.
//!
//! The injection engine itself lives in [`kar_types::fault`] so the store and
//! the broker — which cannot depend on this crate — can consult it directly.
//! This module re-exports the plan/spec vocabulary under `kar::faults`,
//! provides the bounded transient-retry helper the hardened runtime paths
//! share. The counters surface as
//! [`MeshSnapshot::faults`](crate::MeshSnapshot::faults).
//!
//! The hardening contract the injector forces (and the chaos tests check):
//! an injected failure whose [`KarError::is_transient`] holds may be replayed
//! *locally* only when the operation is idempotent (pipelined state flushes,
//! recovery placement/queue rewrites, DLQ bookkeeping). Everything else must
//! flow through retry orchestration, where the queue copy plus dedup absorb
//! an indeterminate ack.

use kar_store::Store;
use kar_types::{KarError, KarResult, Value};

pub use kar_types::{
    BrownoutSpec, FaultCounters, FaultDecision, FaultInjector, FaultPlan, FaultPlane, FaultSite,
    FaultSpec, SiteCounters,
};

/// How often the runtime replays an idempotent substrate operation that
/// failed transiently before escalating. Three attempts ride out the
/// injection plane's per-operation faults (which are independent draws, so
/// consecutive failures decay geometrically) without masking a substrate
/// that is genuinely down.
pub(crate) const TRANSIENT_ATTEMPTS: u32 = 3;

/// Runs `op` up to `attempts` times (at least once), replaying it only while
/// it fails with a *transient* infra error ([`KarError::is_transient`]).
/// Non-transient errors — fencing above all — propagate immediately: a
/// fenced component must never retry its way past its epoch.
///
/// Only idempotent operations belong here. An ack-lost injection reports a
/// transient error *after* applying, so the replay this helper performs must
/// be absorbable (set-style store writes, dedup-guarded appends).
pub(crate) fn retry_transient<T>(
    attempts: u32,
    mut op: impl FnMut() -> KarResult<T>,
) -> KarResult<T> {
    let mut last: Option<KarError> = None;
    for _ in 0..attempts.max(1) {
        match op() {
            Ok(value) => return Ok(value),
            Err(error) if error.is_transient() => last = Some(error),
            Err(error) => return Err(error),
        }
    }
    Err(last.expect("loop ran at least once"))
}

/// Plants a unique claim marker at `key` with `set_nx`, returning whether
/// *this* caller won the claim — exactly once across every caller that ever
/// races `key`, even when the admin store path drops acks.
///
/// An indeterminate ack (transient error from `set_nx`, which may or may not
/// have applied) is resolved by reading the marker back: the caller's own
/// `token` means the claim applied despite the reported failure, a foreign
/// token means another caller won, and no marker at all means the write
/// truly never applied, so it is replayed. `token` must be unique per call
/// (not merely per caller), otherwise a failed replay could mistake an
/// earlier claim of its own for this one.
pub(crate) fn claim_marker(store: &Store, key: &str, token: &Value) -> KarResult<bool> {
    let mut last = None;
    for _ in 0..TRANSIENT_ATTEMPTS {
        match store.admin_set_nx_checked(key, token.clone()) {
            Ok(won) => return Ok(won),
            Err(error) if error.is_transient() => {
                match retry_transient(TRANSIENT_ATTEMPTS, || store.admin_get_checked(key))? {
                    Some(marker) => return Ok(&marker == token),
                    None => last = Some(error),
                }
            }
            Err(error) => return Err(error),
        }
    }
    Err(last.expect("loop ran at least once"))
}

/// Builds a claim-marker token carrying its own lease: a unique claimer id
/// plus the epoch-milliseconds instant after which any other caller may
/// treat the claim as abandoned. `expiry_ms == 0` encodes "no lease" — the
/// marker never expires and only its planter can release it.
pub(crate) fn claim_token(claimer: u64, expiry_ms: u64) -> Value {
    Value::from(format!("claimed-by-{claimer}@{expiry_ms}"))
}

/// Parses the lease expiry out of a claim marker. `None` means the marker
/// carries no parseable lease (pre-lease format, or foreign data) and must
/// be treated as permanent — expiring markers we cannot read would turn a
/// decoding gap into a double-claim.
pub(crate) fn claim_expiry_ms(marker: &Value) -> Option<u64> {
    let text = marker.as_str()?;
    let (_, expiry) = text.rsplit_once('@')?;
    expiry.parse::<u64>().ok()
}

/// [`claim_marker`] with lease takeover: a lost claim is re-examined, and
/// when the standing marker's embedded lease has expired at `now_ms` the
/// stale marker is removed with compare-and-delete and the claim re-raced.
///
/// The compare-and-delete is what keeps takeover exactly-once: two
/// reclaimers can both observe the same stale marker, but only one delete
/// of *that exact value* succeeds, and the subsequent `set_nx` race has a
/// single winner. An indeterminate ack on the delete is safe to ignore —
/// whether or not it applied, `set_nx` still admits at most one claimer.
pub(crate) fn claim_marker_leased(
    store: &Store,
    key: &str,
    token: &Value,
    now_ms: u64,
) -> KarResult<bool> {
    if claim_marker(store, key, token)? {
        return Ok(true);
    }
    let Some(marker) = retry_transient(TRANSIENT_ATTEMPTS, || store.admin_get_checked(key))? else {
        // The standing claim was released between our set_nx and this read;
        // one more plain claim round resolves the now-open race.
        return claim_marker(store, key, token);
    };
    if &marker == token {
        return Ok(true);
    }
    let expired =
        matches!(claim_expiry_ms(&marker), Some(expiry) if expiry != 0 && now_ms > expiry);
    if !expired {
        return Ok(false);
    }
    // Drop the abandoned marker (result intentionally unused: see above) and
    // race for the claim like any first-time caller.
    retry_transient(TRANSIENT_ATTEMPTS, || {
        store.admin_del_if_eq_checked(key, &marker)
    })?;
    claim_marker(store, key, token)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_transient_replays_only_transient_errors() {
        let mut calls = 0;
        let result: KarResult<u32> = retry_transient(3, || {
            calls += 1;
            if calls < 3 {
                Err(KarError::Store("injected".into()))
            } else {
                Ok(7)
            }
        });
        assert_eq!(result.unwrap(), 7);
        assert_eq!(calls, 3);

        // Exhaustion surfaces the last transient error.
        let mut calls = 0;
        let result: KarResult<()> = retry_transient(2, || {
            calls += 1;
            Err(KarError::Queue("injected".into()))
        });
        assert!(result.unwrap_err().is_transient());
        assert_eq!(calls, 2);

        // Non-transient errors are never replayed.
        let mut calls = 0;
        let result: KarResult<()> = retry_transient(3, || {
            calls += 1;
            Err(KarError::application("bug"))
        });
        assert!(!result.unwrap_err().is_transient());
        assert_eq!(calls, 1);
    }

    #[test]
    fn fault_stats_render_only_active_sites() {
        let injector = FaultInjector::new(
            FaultPlan::new(3).with_site(FaultSite::StoreCommand, FaultSpec::transient(1.0)),
        );
        injector.decide(FaultSite::StoreCommand, FaultPlane::Store, 0);
        let snapshot = crate::MeshSnapshot {
            faults: Some(injector.counters()),
            ..Default::default()
        };
        let rendered = snapshot.to_string();
        assert!(rendered.contains("total_faults=1"));
        assert!(rendered.contains("store_command: draws=1 transient=1"));
        assert!(!rendered.contains("broker_append:"));
    }
}
