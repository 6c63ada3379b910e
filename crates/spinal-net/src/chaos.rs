//! Deterministic fault injection over any [`Datagram`] link.
//!
//! The loopback [`Impairer`](spinal_channel::Impairer) models the
//! *polite* failures of §7.1 — i.i.d. loss, duplication, reordering.
//! Real deployments also see the impolite ones: multi-datagram fades
//! (Gilbert–Elliott burst loss), dead air while a route flaps (blackout
//! windows), NIC retransmit storms (duplication bursts), bit rot
//! (payload corruption), and syscalls failing transiently. [`ChaosLink`]
//! wraps any link endpoint and injects all of these from one seeded
//! [`FaultPlan`], so an entire fault schedule replays byte-identically
//! from a single integer. [`FaultTrace`] is the one record of what the
//! link did: one event per datagram sent (its fate, and how many copies
//! reached the inner link) and one per injected recv error, which
//! determinism assertions compare with `==`.
//!
//! Faults are asymmetric by construction: each endpoint wraps its own
//! link with its own plan and seed, so the data path can burn while the
//! feedback path stays clean (or vice versa — the harder case for the
//! sender's backoff logic).
//!
//! Everything here is driven by link "time" measured in datagrams (the
//! send counter), never the wall clock — wall-clock faults would destroy
//! the same-seed ⇒ same-trace property the chaos soak asserts.

use crate::link::Datagram;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spinal_channel::{GeParams, GilbertElliott};
use std::io;

/// A half-open window `[start, end)` of *send indices* during which the
/// link delivers nothing at all (route flap, deep fade, cable pull).
pub type BlackoutWindow = (u64, u64);

/// The full fault schedule for one wrapped endpoint. `Default` (and
/// [`FaultPlan::clean`]) injects nothing. Probabilities outside
/// `[0, 1]` are clamped at [`ChaosLink::new`] — this layer never
/// panics, by contract (it sits on the hostile-input path).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Time-correlated burst loss; `None` disables the chain entirely.
    pub ge: Option<GeParams>,
    /// Blackout windows over the send counter, each `[start, end)`.
    pub blackouts: Vec<BlackoutWindow>,
    /// Probability a surviving datagram is duplicated into a storm.
    pub dup_prob: f64,
    /// Extra copies per duplication storm, drawn uniformly from
    /// `1..=dup_max` (0 disables duplication even if `dup_prob > 0`).
    pub dup_max: usize,
    /// Probability a surviving datagram has one payload bit flipped.
    pub corrupt_prob: f64,
    /// Corruption never touches the first `corrupt_skip` bytes of a
    /// datagram, and datagrams no longer than it pass untouched. Set to
    /// [`crate::wire::DATA_PAYLOAD_OFFSET`] to model bit rot under an
    /// integrity-protected header (the wire format assumes the PHY
    /// frames headers error-free, §6); 0 (the default) corrupts
    /// anywhere — the raw-link fuzzing shape.
    pub corrupt_skip: usize,
    /// Probability `send` fails with a transient [`io::Error`]
    /// (`Interrupted`) instead of transmitting.
    pub send_err_prob: f64,
    /// Probability `recv` fails with a transient [`io::Error`]
    /// (`Interrupted`) instead of polling the inner link.
    pub recv_err_prob: f64,
}

impl FaultPlan {
    /// No faults at all: the wrapped link behaves exactly like the
    /// inner one.
    pub fn clean() -> Self {
        FaultPlan::default()
    }

    /// True when this plan can never alter a datagram.
    pub fn is_clean(&self) -> bool {
        self.ge.is_none()
            && self.blackouts.is_empty()
            && (self.dup_prob <= 0.0 || self.dup_max == 0)
            && self.corrupt_prob <= 0.0
            && self.send_err_prob <= 0.0
            && self.recv_err_prob <= 0.0
    }

    /// Clamp every probability into `[0, 1]` (including the GE chain's)
    /// so a hostile or fuzzed plan configures faults instead of
    /// panicking downstream.
    fn sanitized(&self) -> FaultPlan {
        let clamp = |p: f64| if p.is_nan() { 0.0 } else { p.clamp(0.0, 1.0) };
        FaultPlan {
            ge: self.ge.map(|g| GeParams {
                p_good_to_bad: clamp(g.p_good_to_bad),
                p_bad_to_good: clamp(g.p_bad_to_good),
                loss_good: clamp(g.loss_good),
                loss_bad: clamp(g.loss_bad),
            }),
            blackouts: self.blackouts.clone(),
            dup_prob: clamp(self.dup_prob),
            dup_max: self.dup_max,
            corrupt_prob: clamp(self.corrupt_prob),
            corrupt_skip: self.corrupt_skip,
            send_err_prob: clamp(self.send_err_prob),
            recv_err_prob: clamp(self.recv_err_prob),
        }
    }

    fn in_blackout(&self, index: u64) -> bool {
        self.blackouts
            .iter()
            .any(|&(start, end)| index >= start && index < end)
    }
}

/// One injected fault (or clean delivery), recorded per datagram in
/// send order. Recv-side faults carry the recv-call index instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// Sent through untouched (`copies` = 1) or duplicated into a storm
    /// (`copies` > 1).
    Delivered {
        /// Send index of the datagram.
        index: u64,
        /// Total copies put on the inner link.
        copies: u32,
    },
    /// Swallowed by the Gilbert–Elliott chain's burst loss.
    BurstLost {
        /// Send index of the datagram.
        index: u64,
    },
    /// Swallowed by a blackout window.
    Blackout {
        /// Send index of the datagram.
        index: u64,
    },
    /// Delivered with one bit flipped, once or duplicated into a storm
    /// of corrupted copies.
    Corrupted {
        /// Send index of the datagram.
        index: u64,
        /// Byte position of the flipped bit.
        byte: u32,
        /// XOR mask applied to that byte (exactly one bit set).
        mask: u8,
        /// Total copies put on the inner link.
        copies: u32,
    },
    /// `send` returned a transient `io::Error` instead of transmitting.
    SendError {
        /// Send index of the datagram.
        index: u64,
    },
    /// `recv` returned a transient `io::Error` instead of polling.
    RecvError {
        /// Index of the failed `recv` call.
        call: u64,
    },
}

/// The ordered record of everything a [`ChaosLink`] did: same seed +
/// same plan + same traffic ⇒ an equal trace.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultTrace {
    events: Vec<FaultEvent>,
}

impl FaultTrace {
    /// The recorded events in injection order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    fn record(&mut self, ev: FaultEvent) {
        self.events.push(ev);
    }
}

/// A fault-injecting wrapper around any [`Datagram`] endpoint (see the
/// module docs). Send-side and recv-side faults draw from independent
/// RNG streams, so the send trace does not depend on how often the far
/// side polls.
#[derive(Debug)]
pub struct ChaosLink<L> {
    inner: L,
    plan: FaultPlan,
    ge: Option<GilbertElliott>,
    send_rng: StdRng,
    recv_rng: StdRng,
    sends: u64,
    recv_calls: u64,
    trace: FaultTrace,
}

impl<L> ChaosLink<L> {
    /// Wrap `inner` under `plan`; every injected fault is a pure
    /// function of `(plan, seed, traffic)`.
    pub fn new(inner: L, plan: FaultPlan, seed: u64) -> Self {
        let plan = plan.sanitized();
        ChaosLink {
            ge: plan
                .ge
                .map(|g| GilbertElliott::new(g, seed ^ 0x6E1B_0F5A_D00D_FEED)),
            inner,
            plan,
            send_rng: StdRng::seed_from_u64(seed),
            recv_rng: StdRng::seed_from_u64(seed ^ 0x5EED_0000_0000_0001),
            sends: 0,
            recv_calls: 0,
            trace: FaultTrace::default(),
        }
    }

    /// The active (sanitized) fault plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The fault record so far.
    pub fn trace(&self) -> &FaultTrace {
        &self.trace
    }

    /// Unwrap, discarding the chaos state.
    pub fn into_inner(self) -> L {
        self.inner
    }

    /// The wrapped link.
    pub fn inner(&self) -> &L {
        &self.inner
    }

    /// Mutable access to the wrapped link.
    pub fn inner_mut(&mut self) -> &mut L {
        &mut self.inner
    }
}

impl<L: Datagram> Datagram for ChaosLink<L> {
    fn send(&mut self, buf: &[u8]) -> io::Result<()> {
        let index = self.sends;
        self.sends += 1;
        // Transient syscall failure: the datagram never reaches the
        // wire, and the caller is expected to classify-and-continue.
        if self.plan.send_err_prob > 0.0 && self.send_rng.gen::<f64>() < self.plan.send_err_prob {
            self.trace.record(FaultEvent::SendError { index });
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "chaos: injected transient send failure",
            ));
        }
        // The burst-loss chain ticks on every datagram that reached the
        // wire, blackout or not: fades keep evolving while a route is
        // down.
        let burst_lost = self.ge.as_mut().is_some_and(|ge| ge.step());
        if self.plan.in_blackout(index) {
            self.trace.record(FaultEvent::Blackout { index });
            return Ok(());
        }
        if burst_lost {
            self.trace.record(FaultEvent::BurstLost { index });
            return Ok(());
        }
        // Corruption: flip exactly one bit, position drawn uniformly
        // from the eligible (post-header-guard) region.
        let mut corrupted: Option<(u32, u8, Vec<u8>)> = None;
        let eligible = buf.len().saturating_sub(self.plan.corrupt_skip);
        if self.plan.corrupt_prob > 0.0
            && eligible > 0
            && self.send_rng.gen::<f64>() < self.plan.corrupt_prob
        {
            let pos = self.plan.corrupt_skip + (self.send_rng.gen::<u64>() as usize) % eligible;
            let mask = 1u8 << (self.send_rng.gen::<u64>() % 8);
            let mut copy = buf.to_vec();
            if let Some(byte) = copy.get_mut(pos) {
                *byte ^= mask;
                corrupted = Some((pos as u32, mask, copy));
            }
        }
        // Duplication storm: 1 original + up to dup_max extra copies.
        let mut copies: u32 = 1;
        if self.plan.dup_prob > 0.0
            && self.plan.dup_max > 0
            && self.send_rng.gen::<f64>() < self.plan.dup_prob
        {
            let extra = 1 + (self.send_rng.gen::<u64>() as usize) % self.plan.dup_max;
            copies += extra as u32;
        }
        let (event, wire) = match &corrupted {
            Some((byte, mask, copy)) => (
                FaultEvent::Corrupted {
                    index,
                    byte: *byte,
                    mask: *mask,
                    copies,
                },
                copy.as_slice(),
            ),
            None => (FaultEvent::Delivered { index, copies }, buf),
        };
        self.trace.record(event);
        for _ in 0..copies {
            self.inner.send(wire)?;
        }
        Ok(())
    }

    fn recv(&mut self) -> io::Result<Option<Vec<u8>>> {
        let call = self.recv_calls;
        self.recv_calls += 1;
        if self.plan.recv_err_prob > 0.0 && self.recv_rng.gen::<f64>() < self.plan.recv_err_prob {
            self.trace.record(FaultEvent::RecvError { call });
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "chaos: injected transient recv failure",
            ));
        }
        self.inner.recv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LoopbackLink;

    /// Drive `n` sends of distinct payloads through a chaos wrapper on
    /// a clean loopback and return (trace, far-end arrivals).
    fn drive(plan: FaultPlan, seed: u64, n: u64) -> (FaultTrace, Vec<Vec<u8>>) {
        let (tx, mut rx) = LoopbackLink::clean_pair(0);
        let mut chaos = ChaosLink::new(tx, plan, seed);
        for i in 0..n {
            let buf = i.to_le_bytes();
            // Transient injected errors are part of the schedule.
            let _ = chaos.send(&buf);
        }
        let mut got = Vec::new();
        while let Ok(Some(buf)) = rx.recv() {
            got.push(buf);
        }
        (chaos.trace().clone(), got)
    }

    fn stormy_plan() -> FaultPlan {
        FaultPlan {
            ge: Some(GeParams {
                p_good_to_bad: 0.05,
                p_bad_to_good: 0.3,
                loss_good: 0.02,
                loss_bad: 0.9,
            }),
            blackouts: vec![(40, 60), (150, 170)],
            dup_prob: 0.1,
            dup_max: 3,
            corrupt_prob: 0.05,
            corrupt_skip: 0,
            send_err_prob: 0.03,
            recv_err_prob: 0.02,
        }
    }

    #[test]
    fn clean_plan_is_the_identity() {
        let (trace, got) = drive(FaultPlan::clean(), 7, 50);
        assert_eq!(got.len(), 50);
        for (i, buf) in got.iter().enumerate() {
            assert_eq!(buf, &(i as u64).to_le_bytes());
        }
        assert!(trace
            .events()
            .iter()
            .all(|ev| matches!(ev, FaultEvent::Delivered { copies: 1, .. })));
        assert!(FaultPlan::clean().is_clean());
        assert!(!stormy_plan().is_clean());
    }

    #[test]
    fn same_seed_reproduces_byte_identical_trace() {
        let (t1, got1) = drive(stormy_plan(), 42, 400);
        let (t2, got2) = drive(stormy_plan(), 42, 400);
        assert_eq!(t1, t2, "same seed must replay the identical schedule");
        assert_eq!(got1, got2);
        let (t3, _) = drive(stormy_plan(), 43, 400);
        assert_ne!(t1, t3);
    }

    #[test]
    fn blackout_window_swallows_exactly_its_range() {
        let plan = FaultPlan {
            blackouts: vec![(10, 20)],
            ..FaultPlan::clean()
        };
        let (trace, got) = drive(plan, 1, 30);
        assert_eq!(got.len(), 20);
        let blacked: Vec<u64> = trace
            .events()
            .iter()
            .filter_map(|ev| match ev {
                FaultEvent::Blackout { index } => Some(*index),
                _ => None,
            })
            .collect();
        assert_eq!(blacked, (10..20).collect::<Vec<_>>());
    }

    #[test]
    fn corruption_flips_exactly_one_recorded_bit() {
        let plan = FaultPlan {
            corrupt_prob: 1.0,
            ..FaultPlan::clean()
        };
        let (trace, got) = drive(plan, 9, 20);
        assert_eq!(got.len(), 20);
        for (ev, buf) in trace.events().iter().zip(&got) {
            match *ev {
                FaultEvent::Corrupted {
                    index, byte, mask, ..
                } => {
                    let mut expect = index.to_le_bytes().to_vec();
                    if let Some(b) = expect.get_mut(byte as usize) {
                        *b ^= mask;
                    }
                    assert_eq!(buf, &expect);
                    assert_eq!(mask.count_ones(), 1);
                }
                ref other => panic!("expected Corrupted, got {other:?}"),
            }
        }
    }

    #[test]
    fn corrupt_skip_guards_the_header_region() {
        // drive() sends 8-byte payloads: with an 8-byte guard nothing
        // is eligible, so every datagram passes untouched even at
        // probability 1.
        let plan = FaultPlan {
            corrupt_prob: 1.0,
            corrupt_skip: 8,
            ..FaultPlan::clean()
        };
        let (trace, got) = drive(plan, 13, 20);
        assert_eq!(got.len(), 20);
        for (i, buf) in got.iter().enumerate() {
            assert_eq!(buf, &(i as u64).to_le_bytes());
        }
        assert!(trace
            .events()
            .iter()
            .all(|ev| matches!(ev, FaultEvent::Delivered { .. })));
        // With a 6-byte guard, the flipped byte is always past it.
        let plan = FaultPlan {
            corrupt_prob: 1.0,
            corrupt_skip: 6,
            ..FaultPlan::clean()
        };
        let (trace, _) = drive(plan, 13, 20);
        for ev in trace.events() {
            match *ev {
                FaultEvent::Corrupted { byte, .. } => assert!(byte >= 6, "byte {byte} in guard"),
                ref other => panic!("expected Corrupted, got {other:?}"),
            }
        }
    }

    #[test]
    fn duplication_storm_emits_recorded_copy_count() {
        // Clean storms, then storms of corrupted copies: either way the
        // trace alone accounts for every datagram the far end gets.
        for corrupt_prob in [0.0, 1.0] {
            let plan = FaultPlan {
                dup_prob: 1.0,
                dup_max: 2,
                corrupt_prob,
                ..FaultPlan::clean()
            };
            let (trace, got) = drive(plan, 5, 10);
            let copies_total: u32 = trace
                .events()
                .iter()
                .map(|ev| match ev {
                    FaultEvent::Delivered { copies, .. } | FaultEvent::Corrupted { copies, .. } => {
                        *copies
                    }
                    _ => 0,
                })
                .sum();
            assert_eq!(
                got.len(),
                copies_total as usize,
                "corrupt_prob {corrupt_prob}"
            );
            assert!(copies_total > 10, "storms must add copies");
        }
    }

    #[test]
    fn injected_io_errors_are_transient_kind() {
        let plan = FaultPlan {
            send_err_prob: 1.0,
            recv_err_prob: 1.0,
            ..FaultPlan::clean()
        };
        let (tx, _rx) = LoopbackLink::clean_pair(0);
        let mut chaos = ChaosLink::new(tx, plan, 3);
        let err = chaos.send(b"x").expect_err("always fails");
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        let err = chaos.recv().expect_err("always fails");
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        assert_eq!(
            chaos.trace().events(),
            [
                FaultEvent::SendError { index: 0 },
                FaultEvent::RecvError { call: 0 }
            ]
        );
    }

    #[test]
    fn hostile_plan_probabilities_are_clamped_not_panicking() {
        let plan = FaultPlan {
            ge: Some(GeParams {
                p_good_to_bad: 7.0,
                p_bad_to_good: -3.0,
                loss_good: f64::NAN,
                loss_bad: 2.0,
            }),
            dup_prob: 99.0,
            dup_max: 1,
            corrupt_prob: -1.0,
            send_err_prob: f64::INFINITY,
            recv_err_prob: -0.5,
            ..FaultPlan::clean()
        };
        let (tx, _rx) = LoopbackLink::clean_pair(0);
        let chaos = ChaosLink::new(tx, plan, 1);
        let p = chaos.plan();
        assert_eq!(p.send_err_prob, 1.0);
        assert_eq!(p.corrupt_prob, 0.0);
        assert_eq!(p.recv_err_prob, 0.0);
        let ge = p.ge.expect("chain kept");
        assert_eq!(ge.p_good_to_bad, 1.0);
        assert_eq!(ge.p_bad_to_good, 0.0);
        assert_eq!(ge.loss_good, 0.0);
        assert_eq!(ge.loss_bad, 1.0);
    }
}
