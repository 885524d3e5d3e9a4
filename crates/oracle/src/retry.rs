//! Retry-delay scheduling for the router's retry loop.
//!
//! The one transport retry loop ([`crate::route::Router`]'s `complete`;
//! every [`crate::client::LlmClient`] dispatches through it) asks this
//! module *how long to sleep* before attempt `n + 1`:
//!
//! 1. **Server hints win.** A 429's `retry_after_ms` (or an open circuit's
//!    earliest probe time) is the provider telling us when a retry can
//!    succeed; sleeping less just burns an attempt. The delay is the max of
//!    the linear backoff ramp and the hint.
//! 2. **Seeded jitter breaks retry storms.** When many workers fail at the
//!    same instant (a shared outage), identical backoff resynchronizes them
//!    into thundering-herd retries. We add a deterministic jitter in
//!    `[0, base/4]` keyed by (request fingerprint, attempt) so each request
//!    de-correlates, yet every run with the same inputs sleeps identically —
//!    preserving reproducibility.
//! 3. **Deadlines clip everything.** A run deadline caps each sleep at the
//!    time remaining and stops retrying outright once it has passed.
//!
//! The long-standing contract that `backoff_ms == 0` means *no sleeping*
//! (tests and benches rely on it for speed) is preserved: with a zero base
//! backoff the hint and jitter are ignored and the delay is zero.

use std::time::{Duration, Instant};

use crate::hash;

/// Compute the sleep to take before retry number `attempt` (1-based: the
/// sleep after the first failure passes `attempt = 1`).
///
/// Returns `None` when `deadline` has already passed — the caller should
/// stop retrying and surface its last error. Otherwise returns the delay,
/// possibly [`Duration::ZERO`].
///
/// `hint_ms` is the failed attempt's [`crate::LlmError::retry_hint_ms`];
/// `jitter_key` should be a stable per-request value (the request
/// fingerprint) so that repeated runs sleep identically.
pub fn retry_delay(
    backoff_ms: u64,
    attempt: u32,
    hint_ms: Option<u64>,
    jitter_key: u64,
    deadline: Option<Instant>,
    now: Instant,
) -> Option<Duration> {
    let remaining = match deadline {
        Some(d) => {
            let left = d.saturating_duration_since(now);
            if left.is_zero() {
                return None;
            }
            Some(left)
        }
        None => None,
    };
    if backoff_ms == 0 {
        // Documented fast path: zero backoff means no sleeping, ever.
        return Some(Duration::ZERO);
    }
    let ramp = backoff_ms.saturating_mul(u64::from(attempt));
    let base = ramp.max(hint_ms.unwrap_or(0));
    let jitter = if base > 0 {
        // Deterministic jitter in [0, base/4]; keyed per (request, attempt)
        // so concurrent requests de-synchronize but reruns are identical.
        let span = base / 4 + 1;
        hash::mix(hash::combine(jitter_key, u64::from(attempt))) % span
    } else {
        0
    };
    let mut delay = Duration::from_millis(base.saturating_add(jitter));
    if let Some(left) = remaining {
        delay = delay.min(left);
    }
    Some(delay)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_backoff_never_sleeps() {
        let now = Instant::now();
        assert_eq!(
            retry_delay(0, 3, Some(500), 42, None, now),
            Some(Duration::ZERO)
        );
    }

    #[test]
    fn server_hint_overrides_short_ramp() {
        let now = Instant::now();
        // Ramp would be 2 ms; the 429 says wait 100 ms. Delay must be at
        // least the hint (plus jitter, at most base/4).
        let d = retry_delay(2, 1, Some(100), 7, None, now).unwrap();
        assert!(d >= Duration::from_millis(100), "hint ignored: {d:?}");
        assert!(d <= Duration::from_millis(125), "jitter too large: {d:?}");
    }

    #[test]
    fn ramp_dominates_small_hint() {
        let now = Instant::now();
        let d = retry_delay(50, 4, Some(10), 7, None, now).unwrap();
        assert!(d >= Duration::from_millis(200));
        assert!(d <= Duration::from_millis(250));
    }

    #[test]
    fn jitter_is_deterministic_and_attempt_varying() {
        let now = Instant::now();
        let a = retry_delay(40, 1, None, 99, None, now);
        let b = retry_delay(40, 1, None, 99, None, now);
        assert_eq!(a, b);
        // Different keys or attempts de-correlate (with overwhelming
        // probability for these constants; pinned here as a regression).
        let c = retry_delay(40, 1, None, 100, None, now);
        let d = retry_delay(40, 2, None, 99, None, now);
        assert!(a != c || a != d);
    }

    #[test]
    fn deadline_caps_the_sleep() {
        let now = Instant::now();
        let deadline = now + Duration::from_millis(5);
        let d = retry_delay(1000, 1, None, 7, Some(deadline), now).unwrap();
        assert!(d <= Duration::from_millis(5));
    }

    #[test]
    fn expired_deadline_stops_retrying() {
        let now = Instant::now();
        assert_eq!(retry_delay(10, 1, None, 7, Some(now), now), None);
        // Even with zero backoff: an expired deadline means stop.
        assert_eq!(retry_delay(0, 1, None, 7, Some(now), now), None);
    }
}
