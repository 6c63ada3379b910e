//! Property tests for the decoder workspace/table paths: a
//! [`DecodeRequest`] on a fresh workspace and one on a caller-held
//! workspace are the SAME computation (the plain form just allocates a
//! throwaway workspace), so their results must be bit-identical —
//! messages and costs — for arbitrary parameters across all three
//! channel families. A second property reuses ONE workspace across
//! every generated case, catching any state leakage between attempts.

use proptest::prelude::*;
use spinal_codes::channel::BitChannel;
use spinal_codes::{
    AwgnChannel, BscChannel, BubbleDecoder, Channel, CodeParams, DecodeRequest, DecodeWorkspace,
    Encoder, Message, RayleighChannel, RxBits, RxSymbols, Schedule,
};

/// One generated decode scenario: parameters + received buffer.
#[derive(Debug, Clone, Copy)]
struct Scenario {
    k: usize,
    d: usize,
    b: usize,
    /// 0 = AWGN, 1 = BSC, 2 = Rayleigh with CSI.
    chan: u8,
    seed: u64,
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (2usize..5, 1usize..4, 0usize..3, 0u8..3, 0u64..1 << 20).prop_map(
        |(k, d, b_pow, chan, seed)| Scenario {
            k,
            d,
            b: 4 << b_pow, // B ∈ {4, 8, 16}
            chan,
            seed,
        },
    )
}

enum Rx {
    Symbols(RxSymbols),
    Bits(RxBits),
}

fn build(sc: &Scenario) -> (CodeParams, Rx) {
    // 20 spine values regardless of k keeps runtime flat and admits d ≤ 3.
    let n = sc.k * 20;
    let params = CodeParams::default()
        .with_n(n)
        .with_k(sc.k)
        .with_b(sc.b)
        .with_d(sc.d);
    let mut rng_state = sc.seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next_byte = move || {
        rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
        (rng_state >> 56) as u8
    };
    let msg = Message::random(n, &mut next_byte);
    let mut enc = Encoder::new(&params, &msg);
    let schedule = Schedule::new(params.num_spines(), params.tail, params.puncturing);
    let rx = match sc.chan {
        0 => {
            let mut rx = RxSymbols::new(schedule.clone());
            let mut ch = AwgnChannel::new(10.0, sc.seed ^ 0xA);
            rx.push(&ch.transmit(&enc.next_symbols(2 * schedule.symbols_per_pass())));
            Rx::Symbols(rx)
        }
        1 => {
            let mut rx = RxBits::new(schedule.clone());
            let mut ch = BscChannel::new(0.04, sc.seed ^ 0xB);
            rx.push(&ch.transmit_bits(&enc.next_bits(8 * schedule.symbols_per_pass())));
            Rx::Bits(rx)
        }
        _ => {
            let mut rx = RxSymbols::new(schedule.clone());
            let mut ch = RayleighChannel::new(18.0, 7, sc.seed ^ 0xC);
            let ys = ch.transmit(&enc.next_symbols(3 * schedule.symbols_per_pass()));
            let hs: Vec<_> = (0..ys.len()).map(|i| ch.csi(i).unwrap()).collect();
            rx.push_with_csi(&ys, &hs);
            Rx::Symbols(rx)
        }
    };
    (params, rx)
}

fn decode_both(params: &CodeParams, rx: &Rx, ws: &mut DecodeWorkspace) -> [(Message, u64); 2] {
    let dec = BubbleDecoder::new(params);
    let (plain, reused) = match rx {
        Rx::Symbols(rx) => (
            DecodeRequest::new(&dec, rx).decode(),
            DecodeRequest::new(&dec, rx).workspace(ws).decode(),
        ),
        Rx::Bits(rx) => (
            DecodeRequest::new(&dec, rx).decode(),
            DecodeRequest::new(&dec, rx).workspace(ws).decode(),
        ),
    };
    [
        (plain.message, plain.cost.to_bits()),
        (reused.message, reused.cost.to_bits()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fresh workspace ≡ caller-held workspace (message and cost bits)
    /// for arbitrary (k, d, B, channel, seed).
    #[test]
    fn workspace_decode_is_identical(sc in arb_scenario()) {
        let (params, rx) = build(&sc);
        let [(m1, c1), (m2, c2)] = decode_both(&params, &rx, &mut DecodeWorkspace::new());
        prop_assert_eq!(m1, m2);
        prop_assert_eq!(c1, c2);
    }
}

#[test]
fn one_workspace_serves_every_scenario() {
    // The same workspace instance decodes a parade of heterogeneous
    // scenarios (sizes, depths, metric kinds) and must match a fresh
    // workspace each time — no state may leak between attempts.
    let mut ws = DecodeWorkspace::new();
    for seed in 0..12u64 {
        let sc = Scenario {
            k: 2 + (seed % 3) as usize,
            d: 1 + (seed % 3) as usize,
            b: 4 << (seed % 3),
            chan: (seed % 3) as u8,
            seed: seed * 7919,
        };
        let (params, rx) = build(&sc);
        let [(m1, c1), (m2, c2)] = decode_both(&params, &rx, &mut ws);
        assert_eq!(m1, m2, "seed {seed}");
        assert_eq!(c1, c2, "seed {seed}");
    }
}
