//! Reaching a node: how a connection is dialed, and the typed retry policy
//! whose bounded, backed-off attempts absorb a *transient* fault (a dropped
//! connection, one missed deadline) inside a request series. What they do
//! not absorb counts toward the node's trust ([`crate::trust`]), which
//! decides the *systemic* case.

use pdm_server::TcpClient;
use std::net::SocketAddr;
use std::time::Duration;

/// A connection to `addr` made within `connect`, each of its requests
/// bounded by `deadline`; `None` when either cannot be had.
pub(crate) fn dial(addr: SocketAddr, connect: Duration, deadline: Duration) -> Option<TcpClient> {
    let mut client = TcpClient::connect_timeout(addr, connect).ok()?;
    client.set_deadline(Some(deadline)).ok()?;
    Some(client)
}

/// Bounded retry schedule with exponential backoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (the first try included). `1` means no retries.
    pub attempts: u32,
    /// Delay before the first retry; doubles each further retry.
    pub base_delay: Duration,
    /// Ceiling on any single delay.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(200),
        }
    }
}

impl RetryPolicy {
    /// A single attempt, no retries, no waiting.
    #[must_use]
    pub const fn none() -> Self {
        RetryPolicy {
            attempts: 1,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
        }
    }

    /// The delay to sleep before retry number `retry` (1-based: after
    /// the first failed attempt pass 1). Exponential in the retry
    /// number, capped at [`max_delay`](Self::max_delay).
    #[must_use]
    pub fn delay(&self, retry: u32) -> Duration {
        if retry == 0 {
            return Duration::ZERO;
        }
        let factor = 1u32 << (retry - 1).min(16);
        self.base_delay
            .saturating_mul(factor)
            .min(self.max_delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_delays_back_off_and_cap() {
        let p = RetryPolicy::default();
        assert_eq!(p.delay(0), Duration::ZERO);
        assert_eq!(p.delay(1), Duration::from_millis(10));
        assert_eq!(p.delay(2), Duration::from_millis(20));
        assert_eq!(p.delay(3), Duration::from_millis(40));
        assert_eq!(p.delay(10), Duration::from_millis(200), "capped");
        assert_eq!(RetryPolicy::none().attempts, 1);
    }
}
