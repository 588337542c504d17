//! Per-node trust: the one answer to "may the router read from, ack a write
//! through, or re-replicate from this node".
//!
//! A node is [`Trust::Trusted`], carrying its two running streaks, or
//! [`Trust::Suspect`]: it may have missed an acknowledged write, so it gets
//! no traffic at all until re-imaged. [`step`] is the whole machine and its
//! `match` is the transition table (DESIGN.md §8 prints it): pure and total,
//! no clock and no lock, so the state after any event sequence is a function
//! of the sequence alone. The two limits belong to the two producers — the
//! router's `breaker_threshold`, the heartbeater's `suspect_after` — and
//! travel with their events. Whether a node is *placed* is the map's `up`
//! bit, a separate fact ([`crate::map`]).

use std::sync::atomic::{AtomicU64, Ordering};

/// What took a node out of the trusted set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cause {
    /// Consecutive failed requests reached the router's threshold.
    Request,
    /// A write went on without the node it was routed to.
    WriteSkipped,
    /// Consecutive missed probes reached the heartbeater's threshold.
    Probe,
    /// `fail_node` declared the node dead.
    Admin,
}

impl Cause {
    /// Every cause, in discriminant order, with its `cause` label under
    /// `cluster_router_suspect_transitions`.
    pub const ALL: [(Cause, &'static str); 4] = [
        (Cause::Request, "request"),
        (Cause::WriteSkipped, "write_skipped"),
        (Cause::Probe, "probe"),
        (Cause::Admin, "admin"),
    ];
}

/// A node's trust state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trust {
    /// In the read, ack and re-replication-source sets.
    Trusted {
        /// Consecutive failed requests (an answered one resets it).
        request_failures: u16,
        /// Consecutive missed probes (an answered one resets it).
        probe_misses: u16,
    },
    /// Out of every set until re-imaged from a trusted holder.
    Suspect {
        /// What took it out; the first cause is the one kept.
        cause: Cause,
    },
}

/// What the request path, the heartbeater and the admin calls observe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A request was answered (a typed server error is an answer).
    RequestOk,
    /// A connect or request failed; `breaker_threshold` in a row suspect.
    RequestFailed(u32),
    /// A write went on without this routed replica.
    WriteSkipped,
    /// A heartbeat probe was answered in time.
    ProbeOk,
    /// A heartbeat probe was missed; `suspect_after` in a row suspect.
    ProbeMissed(u32),
    /// `fail_node`.
    AdminFail,
    /// `restore_node*`: the node is about to be re-imaged.
    Reimaged,
}

/// An edge between the two classes, returned exactly when it is taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transition {
    /// `Trusted → Suspect`.
    Suspected(Cause),
    /// `Suspect → Trusted`.
    Reimaged,
}

/// The transition function: every (state, event) pair, one row each.
#[must_use]
pub fn step(state: Trust, event: Event) -> (Trust, Option<Transition>) {
    use Event::{AdminFail, ProbeMissed, ProbeOk, Reimaged, RequestFailed, RequestOk, WriteSkipped};
    use Trust::{Suspect, Trusted};
    let suspect = |cause| (Suspect { cause }, Some(Transition::Suspected(cause)));
    // One more of a streak, unless that makes `limit` of them (a limit past
    // the counter's range acts as the range: distrust sooner, never later).
    let bump = |streak: u16, limit: u32| streak.checked_add(1).filter(|&n| u32::from(n) < limit);
    match (state, event) {
        (Suspect { .. }, Reimaged) => (Trust::FRESH, Some(Transition::Reimaged)),
        // Nothing a suspect answers, or fails to, re-trusts it.
        (Suspect { .. }, _) => (state, None),
        (Trusted { .. }, Reimaged) => (Trust::FRESH, None),
        (Trusted { .. }, WriteSkipped) => suspect(Cause::WriteSkipped),
        (Trusted { .. }, AdminFail) => suspect(Cause::Admin),
        (Trusted { probe_misses, .. }, RequestOk) => (Trusted { request_failures: 0, probe_misses }, None),
        (Trusted { request_failures, .. }, ProbeOk) => (Trusted { request_failures, probe_misses: 0 }, None),
        (Trusted { request_failures, probe_misses }, RequestFailed(limit)) => match bump(request_failures, limit) {
            Some(request_failures) => (Trusted { request_failures, probe_misses }, None),
            None => suspect(Cause::Request),
        },
        (Trusted { request_failures, probe_misses }, ProbeMissed(limit)) => match bump(probe_misses, limit) {
            Some(probe_misses) => (Trusted { request_failures, probe_misses }, None),
            None => suspect(Cause::Probe),
        },
    }
}

impl Trust {
    /// Nothing observed yet: how a node starts, and what a re-image returns.
    pub const FRESH: Trust = Trust::Trusted { request_failures: 0, probe_misses: 0 };

    /// Two 16-bit lanes for the streaks; above them 0, or a cause's number + 1.
    const fn pack(self) -> u64 {
        match self {
            Trust::Trusted { request_failures, probe_misses } => request_failures as u64 | (probe_misses as u64) << 16,
            Trust::Suspect { cause } => (cause as u64 + 1) << 32,
        }
    }

    const fn unpack(word: u64) -> Trust {
        match (word >> 32) as usize {
            0 => Trust::Trusted { request_failures: word as u16, probe_misses: (word >> 16) as u16 },
            tag => Trust::Suspect { cause: Cause::ALL[tag - 1].0 },
        }
    }
}

/// One node's [`Trust`] in one atomic word: read without a lock, advanced by
/// [`step`] under compare-and-swap. Concurrent events serialize into *some*
/// sequence and the state is `step` folded over it — there is no second word
/// for a racing thread to leave behind.
#[derive(Debug)]
pub(crate) struct TrustCell(AtomicU64);

impl TrustCell {
    pub(crate) fn new() -> Self {
        TrustCell(AtomicU64::new(Trust::FRESH.pack()))
    }

    /// `Acquire`, pairing with [`apply`](Self::apply)'s release: a thread
    /// that sees a node re-trusted also sees the map epoch and the dropped
    /// connection `restore_node_in_place` wrote before the event.
    pub(crate) fn load(&self) -> Trust {
        Trust::unpack(self.0.load(Ordering::Acquire))
    }

    /// Advance by `event`; the transition, if this call took one. An event
    /// that changes nothing (an answered request of a clean node: every
    /// request of a healthy cluster) stores nothing.
    pub(crate) fn apply(&self, event: Event) -> Option<Transition> {
        let mut taken = None;
        let _ = self.0.fetch_update(Ordering::AcqRel, Ordering::Acquire, |word| {
            let (next, transition) = step(Trust::unpack(word), event);
            taken = transition;
            Some(next.pack()).filter(|&next| next != word)
        });
        taken
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const EVENTS: usize = 7;

    fn events(limit: u32) -> [Event; EVENTS] {
        [
            Event::RequestOk,
            Event::RequestFailed(limit),
            Event::WriteSkipped,
            Event::ProbeOk,
            Event::ProbeMissed(limit),
            Event::AdminFail,
            Event::Reimaged,
        ]
    }

    fn trusted(request_failures: u16, probe_misses: u16) -> Trust {
        Trust::Trusted { request_failures, probe_misses }
    }

    /// The table, spelled out: every (state, event) pair at limits 1 and
    /// 3 — each trusted state the limit can reach, each suspect cause —
    /// against its next state and emitted transition.
    #[test]
    fn step_matches_the_table_for_every_state_and_event() {
        for limit in [1u32, 3] {
            let top = u16::try_from(limit).unwrap() - 1; // the longest streak still trusted
            for r in 0..=top {
                for p in 0..=top {
                    let suspected = |cause| (Trust::Suspect { cause }, Some(Transition::Suspected(cause)));
                    let want: [(Trust, Option<Transition>); EVENTS] = [
                        (trusted(0, p), None),
                        if r == top { suspected(Cause::Request) } else { (trusted(r + 1, p), None) },
                        suspected(Cause::WriteSkipped),
                        (trusted(r, 0), None),
                        if p == top { suspected(Cause::Probe) } else { (trusted(r, p + 1), None) },
                        suspected(Cause::Admin),
                        (Trust::FRESH, None),
                    ];
                    for (event, want) in events(limit).into_iter().zip(want) {
                        assert_eq!(step(trusted(r, p), event), want, "Trusted{{{r}, {p}}} + {event:?}");
                    }
                }
            }
            for (cause, _) in Cause::ALL {
                let state = Trust::Suspect { cause };
                for event in events(limit) {
                    let want = match event {
                        Event::Reimaged => (Trust::FRESH, Some(Transition::Reimaged)),
                        // Sticky, and the first cause is the one kept.
                        _ => (state, None),
                    };
                    assert_eq!(step(state, event), want, "{state:?} + {event:?}");
                }
            }
        }
    }

    #[test]
    fn every_state_survives_the_atomic_word() {
        let mut states: Vec<Trust> = Cause::ALL.iter().map(|&(cause, _)| Trust::Suspect { cause }).collect();
        states.extend([Trust::FRESH, trusted(2, 0), trusted(0, 2), trusted(u16::MAX, u16::MAX)]);
        for state in states {
            assert_eq!(Trust::unpack(state.pack()), state);
        }
    }

    /// A limit the 16-bit streak cannot reach acts as the streak's range:
    /// the node is distrusted sooner, never later.
    #[test]
    fn an_unreachable_limit_trips_at_the_counter_s_range() {
        let (next, transition) = step(trusted(u16::MAX, 0), Event::RequestFailed(u32::MAX));
        assert_eq!(next, Trust::Suspect { cause: Cause::Request });
        assert_eq!(transition, Some(Transition::Suspected(Cause::Request)));
    }

    proptest! {
        /// The state after an event sequence is a function of the sequence
        /// alone: two cells replaying it agree at every prefix — state and
        /// emitted transition — with no clock to wait out between events,
        /// and both agree with `step` folded by hand.
        #[test]
        fn replaying_a_sequence_replays_the_states(
            picks in proptest::collection::vec((0usize..EVENTS, 1u32..4), 0..64),
        ) {
            let (first, second) = (TrustCell::new(), TrustCell::new());
            let mut folded = Trust::FRESH;
            for (which, limit) in picks {
                let event = events(limit)[which];
                let (next, transition) = step(folded, event);
                folded = next;
                prop_assert_eq!(first.apply(event), transition);
                prop_assert_eq!(second.apply(event), transition);
                prop_assert_eq!(first.load(), folded);
                prop_assert_eq!(second.load(), folded);
            }
        }
    }
}
