//! Pins the session hot path and the service batch to ZERO
//! `BubbleDecoder` clones.
//!
//! The pre-service engine cloned the decoder (tables included) into an
//! `Arc` on *every* `submit`, and its batch path once per batch — fine
//! for a one-shot sweep, pathological for a service retrying hundreds
//! of sessions. Sessions and batches share one caller-provided
//! `Arc<BubbleDecoder>` instead; this test counts actual
//! `Clone::clone` calls across a many-submit session workload and a
//! batch and fails if even one sneaks back in.
//!
//! Lives in its own integration-test binary on purpose: the clone
//! counter is process-global, and unit tests elsewhere legitimately
//! clone decoders. One `#[test]` per process keeps the count exact.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spinal_channel::{AwgnChannel, Channel};
use spinal_core::{
    BubbleDecoder, CodeParams, DecodeService, Encoder, Message, RxSymbols, Schedule, ServiceConfig,
    SessionBuffer, SessionOptions,
};
use std::sync::Arc;

#[test]
fn session_submits_never_clone_the_decoder() {
    let p = CodeParams::default().with_n(64).with_b(16);
    let dec = Arc::new(BubbleDecoder::new(&p));
    let schedule = Schedule::new(p.num_spines(), p.tail, p.puncturing);
    let spp = p.symbols_per_pass();

    let before = BubbleDecoder::clones_total();
    for threads in [1usize, 3] {
        let svc = DecodeService::new(threads, ServiceConfig::default());
        let mut batch = Vec::new();
        let mut msgs = Vec::new();
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let msg = Message::random(p.n, || rng.gen());
            let mut enc = Encoder::new(&p, &msg);
            let mut ch = AwgnChannel::new(12.0, seed ^ 0x5e55);
            let mut rx = RxSymbols::new(schedule.clone());
            rx.push(&ch.transmit(&enc.next_symbols(2 * spp)));
            batch.push(SessionBuffer::Symbols(rx.clone()));
            msgs.push(msg.clone());
            let mut session = svc
                .open_session(&dec, SessionBuffer::Symbols(rx), SessionOptions::default())
                .expect("admission");
            // Several attempts per session: each submit re-uses the
            // session's shared Arc, growing the buffer between tries.
            for _ in 0..3 {
                session.submit().expect("submit");
                let result = session
                    .wait()
                    .expect("one attempt in flight")
                    .expect("clean");
                assert_eq!(result.message, msg, "threads {threads} seed {seed}");
                let more = ch.transmit(&enc.next_symbols(spp));
                match session.buffer_mut() {
                    Some(SessionBuffer::Symbols(rx)) => rx.push(&more),
                    _ => unreachable!("buffer is home after wait()"),
                }
            }
        }
        for (outcome, msg) in svc.decode_batch(&dec, batch).into_iter().zip(&msgs) {
            let result = outcome.expect("clean batch decode");
            assert_eq!(&result.message, msg, "threads {threads} batch");
        }
    }
    let cloned = BubbleDecoder::clones_total() - before;
    assert_eq!(
        cloned, 0,
        "{cloned} decoder clone(s) on the session submit path or the \
         batch — the shared-Arc contract regressed"
    );
}
