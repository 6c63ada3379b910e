//! Fixed-seed decode corpus: pins the bubble decoder's exact output
//! (decoded message bytes and path cost) on a grid of parameters and
//! channels.
//!
//! The expected values were recorded from the pre-table-rewrite decoder
//! (PR 1 tree), so this test proves the branch-metric-table / workspace
//! overhaul is behaviour-preserving: same messages byte for byte, same
//! costs up to floating-point reassociation (the table form evaluates
//! `|y|² − 2Re(y·conj(h)·conj(x)) + |h|²|x|²` instead of `|y − h·x|²`).
//!
//! Cases deliberately include marginal SNRs where decoding FAILS — the
//! recorded (wrong) message pins pruning behaviour, not just the easy
//! path. All comparisons are against old-decoder output, not the true
//! message.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spinal_channel::{AwgnChannel, BitChannel, BscChannel, Channel, RayleighChannel};
use spinal_core::{
    BubbleDecoder, CodeParams, DecodeEngine, DecodeRequest, DecodeResult, Encoder, Message,
    MetricProfile, RxBits, RxSymbols, Schedule,
};

#[derive(Clone, Copy)]
enum Chan {
    /// AWGN at this SNR (dB).
    Awgn(f64),
    /// BSC with this flip probability.
    Bsc(f64),
    /// Rayleigh block fading (SNR dB, coherence) decoded with exact CSI.
    Fading(f64, usize),
}

#[derive(Clone, Copy)]
struct Case {
    n: usize,
    k: usize,
    b: usize,
    d: usize,
    chan: Chan,
    passes: usize,
    seed: u64,
}

/// The corpus grid. Appending cases is fine; editing existing ones
/// invalidates the recorded expectations.
fn cases() -> Vec<Case> {
    let mut v = Vec::new();
    let mut push = |n, k, b, d, chan, passes, seeds: std::ops::Range<u64>| {
        for seed in seeds {
            v.push(Case {
                n,
                k,
                b,
                d,
                chan,
                passes,
                seed,
            });
        }
    };
    push(64, 4, 16, 1, Chan::Awgn(15.0), 2, 0..6);
    push(96, 3, 16, 2, Chan::Awgn(8.0), 3, 0..6);
    push(60, 3, 4, 3, Chan::Awgn(15.0), 2, 0..4);
    push(64, 2, 8, 2, Chan::Awgn(10.0), 2, 0..4);
    push(256, 4, 64, 1, Chan::Awgn(15.0), 2, 0..3);
    push(64, 4, 32, 1, Chan::Bsc(0.02), 10, 0..6);
    push(64, 4, 16, 1, Chan::Fading(25.0, 10), 4, 0..4);
    v
}

/// The received buffer a corpus case decodes from.
enum Rx {
    Symbols(RxSymbols),
    Bits(RxBits),
}

fn build_case(case: &Case) -> (CodeParams, Rx) {
    let params = CodeParams::default()
        .with_n(case.n)
        .with_k(case.k)
        .with_b(case.b)
        .with_d(case.d);
    let mut rng = StdRng::seed_from_u64(case.seed);
    let msg = Message::random(params.n, || rng.gen());
    let mut enc = Encoder::new(&params, &msg);
    let schedule = Schedule::new(params.num_spines(), params.tail, params.puncturing);
    let symbols = case.passes * schedule.symbols_per_pass();
    let rx = match case.chan {
        Chan::Awgn(snr_db) => {
            let mut rx = RxSymbols::new(schedule);
            let mut ch = AwgnChannel::new(snr_db, case.seed.wrapping_add(1000));
            rx.push(&ch.transmit(&enc.next_symbols(symbols)));
            Rx::Symbols(rx)
        }
        Chan::Bsc(p) => {
            let mut rx = RxBits::new(schedule);
            let mut ch = BscChannel::new(p, case.seed.wrapping_add(1000));
            rx.push(&ch.transmit_bits(&enc.next_bits(symbols)));
            Rx::Bits(rx)
        }
        Chan::Fading(snr_db, tau) => {
            let mut rx = RxSymbols::new(schedule);
            let mut ch = RayleighChannel::new(snr_db, tau, case.seed.wrapping_add(1000));
            let ys = ch.transmit(&enc.next_symbols(symbols));
            let hs: Vec<_> = (0..ys.len()).map(|i| ch.csi(i).unwrap()).collect();
            rx.push_with_csi(&ys, &hs);
            Rx::Symbols(rx)
        }
    };
    (params, rx)
}

fn decode_case(case: &Case) -> DecodeResult {
    let (params, rx) = build_case(case);
    let dec = BubbleDecoder::new(&params);
    match &rx {
        Rx::Symbols(rx) => DecodeRequest::new(&dec, rx).decode(),
        Rx::Bits(rx) => DecodeRequest::new(&dec, rx).decode(),
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// (message hex, path cost) recorded from the pre-rewrite decoder, in
/// `cases()` order. Regenerate only with a decoder known to match the
/// PR 1 behaviour.
const EXPECTED: &[(&str, f64)] = &[
    ("53615c027e05dbd8", 1.3246815643694219),
    ("cfbf19bf2f97fc85", 1.3391950737745082),
    ("c389a64b7dc556bd", 0.8094641238474116),
    ("0da5ddd8a01c2e9f", 1.4290097092160943),
    ("ad9b40b928c3a4f5", 1.2209302106833206),
    ("4a9c190f86b47511", 1.148342407277653),
    ("53615c027e05dbd84b135010", 14.084784402223406),
    ("cfbf19bf2f97fc851822eb57", 16.19643685779563),
    ("c389a64b7dc556bd7add81b0", 14.198287002487735),
    ("0da5ddd8a01c2e9f8e069333", 17.812256529417432),
    ("ad9b40b928c3a4f56b2e33be", 19.21450273265889),
    ("4a9c190f86b47511e2dae8e3", 13.80600297546926),
    ("53615c027e05dbd0", 1.4486415690787031),
    ("cfbf19bf2f97fc80", 1.5313749453971783),
    ("c389a64b7dc556b0", 0.9954171483444129),
    ("0da5ddd8a01c2e90", 1.6037973515858617),
    ("53615c027e05dbd8", 6.253083822745218),
    ("cfbf19bf2f97fc85", 6.878407225134209),
    ("c389a64b7dc556bd", 5.494871833154689),
    ("0da5ddd8a01c2e9f", 8.182073150319916),
    (
        "53615c027e05dbd84b1350101a181066a01d536746210a456f6022a5e80b4063",
        3.5076610277697315,
    ),
    (
        "cfbf19bf2f97fc851822eb57126516288e79f5a443cb28693c9a2ffb9cba97a6",
        4.463620051292546,
    ),
    (
        "c389a64b7dc556bd7add81b0ace1fa74905e3928a79790d7214e471c5ef698e6",
        3.7101225938949725,
    ),
    ("53615c027e05dbd8", 5.0),
    ("cfbf19bf2f97fc85", 3.0),
    ("c389a64b7dc556bd", 3.0),
    ("0da5ddd8a01c2e9f", 7.0),
    ("ad9b40b928c3a4f5", 6.0),
    ("4a9c190f86b47511", 1.0),
    ("53615c027e05dbd8", 0.22195878234922697),
    ("cfbf19bf2f97fc85", 0.21967991482667396),
    ("c389a64b7dc556bd", 0.20248536914216864),
    ("0da5ddd8a01c2e9f", 0.26458027083009833),
];

/// A decoder and the consecutive symbol cases that share its parameter
/// set, each with its serial decode: the shape the engine's batch path
/// takes (one decoder per batch).
type Batch = (BubbleDecoder, Vec<(RxSymbols, DecodeResult)>);

/// The corpus's symbol cases under `profile`, grouped into [`Batch`]es.
fn symbol_batches(profile: MetricProfile) -> Vec<Batch> {
    let mut batches: Vec<(CodeParams, Batch)> = Vec::new();
    for case in cases() {
        let (params, rx) = build_case(&case);
        let Rx::Symbols(rx) = rx else { continue };
        if batches.last().is_none_or(|(p, _)| *p != params) {
            let dec = BubbleDecoder::new(&params).with_profile(profile);
            batches.push((params, (dec, Vec::new())));
        }
        let (_, (dec, cases)) = batches.last_mut().expect("batch just pushed");
        let serial = DecodeRequest::new(dec, &rx).decode();
        cases.push((rx, serial));
    }
    batches.into_iter().map(|(_, batch)| batch).collect()
}

/// Decode every batch through `engine` twice — `decode_batch_parallel`
/// and `submit`/`drain` — and require the serial decode bit for bit
/// (message bytes AND cost bits).
fn assert_engine_matches_serial(engine: &DecodeEngine, batches: &[Batch], label: &str) {
    let threads = engine.threads();
    for (b, (dec, cases)) in batches.iter().enumerate() {
        let rxs: Vec<RxSymbols> = cases.iter().map(|(rx, _)| rx.clone()).collect();
        let batch = engine.decode_batch_parallel(dec, &rxs);
        for rx in &rxs {
            engine.submit(dec, rx);
        }
        let drained = engine.drain();
        assert_eq!(batch.len(), cases.len());
        assert_eq!(drained.len(), cases.len());
        for (i, ((_, serial), (out, sub))) in
            cases.iter().zip(batch.iter().zip(&drained)).enumerate()
        {
            let sub = sub.as_ref().expect("clean submit decodes");
            for (path, out) in [("batch", out), ("submit/drain", sub)] {
                assert_eq!(
                    out.message, serial.message,
                    "{label} batch {b} case {i} {path} at {threads} threads: message drifted"
                );
                assert_eq!(
                    out.cost.to_bits(),
                    serial.cost.to_bits(),
                    "{label} batch {b} case {i} {path} at {threads} threads: cost drifted"
                );
            }
        }
    }
}

/// The parallel engine must reproduce the serial decoder bit for bit on
/// every symbol case of the corpus, at every tested thread count,
/// through long-lived engines reused across heterogeneous cases (the
/// deployment shape).
#[test]
fn parallel_engine_matches_serial_on_corpus_at_every_thread_count() {
    let batches = symbol_batches(MetricProfile::Exact);
    for threads in [1usize, 2, 3, 8] {
        assert_engine_matches_serial(&DecodeEngine::new(threads), &batches, "exact");
    }
}

/// The quantized profile is NOT pinned against the recorded exact
/// corpus (its equivalence contract is statistical), but it must be
/// exactly as deterministic: on every symbol case — real AWGN and
/// fading signals across the (n, k, B, d) grid — the serial quantized
/// decode must match the engine's batch and submit/drain decodes bit
/// for bit at every thread count.
#[test]
fn quantized_profile_is_engine_deterministic_on_corpus() {
    let batches = symbol_batches(MetricProfile::Quantized);
    for threads in [1usize, 2, 8] {
        assert_engine_matches_serial(&DecodeEngine::new(threads), &batches, "quantized");
    }
}

#[test]
fn decoder_output_matches_recorded_corpus() {
    let cases = cases();
    assert_eq!(
        cases.len(),
        EXPECTED.len(),
        "corpus size mismatch: regenerate EXPECTED"
    );
    for (i, (case, &(want_hex, want_cost))) in cases.iter().zip(EXPECTED).enumerate() {
        let out = decode_case(case);
        assert_eq!(
            hex(out.message.as_bytes()),
            want_hex,
            "case {i} (n={} k={} B={} d={} seed={}): decoded message drifted",
            case.n,
            case.k,
            case.b,
            case.d,
            case.seed
        );
        let tol = 1e-9 * want_cost.abs().max(1.0);
        assert!(
            (out.cost - want_cost).abs() <= tol,
            "case {i}: cost {} vs recorded {want_cost}",
            out.cost
        );
    }
}
