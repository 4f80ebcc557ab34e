//! Property coverage for the wire codec: arbitrary messages round-trip
//! bit-exactly through encode/decode, and corrupted inputs — truncated
//! frames, single-bit flips, raw noise — always decode to a typed
//! [`WireError`], never a panic.

use cps_core::{CacheConfig, Objective};
use cps_engine::EngineConfig;
use cps_serve::wire::{
    decode, encode, encode_batch_into, encode_batch_seq_into, Message, ServeStats, WireCurve,
    WireError, MAGIC, POLICY_CODES,
};
use proptest::prelude::*;

/// Unicode text including multi-byte code points (surrogate range maps
/// to `None` and is dropped).
fn arb_text() -> impl Strategy<Value = String> {
    prop::collection::vec(32u32..0xffff, 0..60)
        .prop_map(|points| points.into_iter().filter_map(char::from_u32).collect())
}

/// A valid objective spec string, spanning every objective family the
/// core layer parses (weights and curvatures chosen to round-trip
/// through `f64` formatting).
fn arb_objective() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("miss-ratio".to_string()),
        Just("maxmin".to_string()),
        Just("max-slowdown".to_string()),
        Just("value-weighted".to_string()),
        (0.01f64..1.0).prop_map(|c| format!("utility:{c}")),
        prop::collection::vec(0.125f64..8.0, 1..5).prop_map(|ws| {
            let ws: Vec<String> = ws.iter().map(|w| w.to_string()).collect();
            format!("value-weighted:{}", ws.join(","))
        }),
    ]
}

/// An engine config that passes `EngineConfig::validate` — the only
/// kind a handshake may carry. A value-weighted objective gets one
/// weight per tenant.
fn arb_config() -> impl Strategy<Value = EngineConfig> {
    (
        (1usize..9, 1usize..257, 1usize..9),
        (1usize..100_000, 1usize..9, 0.0f64..1.0),
        (0usize..16, 0usize..3, arb_objective()),
    )
        .prop_map(
            |(
                (tenants, units, bpu),
                (epoch_length, shards, decay),
                (hysteresis, policy, objective),
            )| {
                let objective = match Objective::parse(&objective).unwrap() {
                    Objective::ValueWeighted { weights } if !weights.is_empty() => {
                        Objective::ValueWeighted {
                            weights: weights.into_iter().cycle().take(tenants).collect(),
                        }
                    }
                    other => other,
                };
                EngineConfig::new(tenants, CacheConfig::new(units, bpu), epoch_length)
                    .shards(shards)
                    .decay(decay)
                    .hysteresis(hysteresis)
                    .policy(POLICY_CODES[policy])
                    .objective(objective)
            },
        )
}

fn arb_stats() -> impl Strategy<Value = ServeStats> {
    (
        (0u64..1 << 40, 0u64..64, 0u64..1 << 40, 0u64..1 << 40),
        (0u64..1 << 48, 0u64..1 << 20, 0u64..1 << 30),
    )
        .prop_map(
            |(
                (connections, active_sessions, frames, batches),
                (records, decode_errors, epochs),
            )| ServeStats {
                connections,
                active_sessions,
                frames,
                batches,
                records,
                decode_errors,
                epochs,
            },
        )
}

/// One exported tenant curve: arbitrary counts plus miss-ratio samples
/// covering the full `f64` bit space (including NaN images — the wire
/// transports bits, not values, so every image must survive).
fn arb_curve() -> impl Strategy<Value = WireCurve> {
    (
        0u64..1 << 40,
        0u64..1 << 40,
        prop::collection::vec(any::<u64>(), 0..40),
    )
        .prop_map(|(accesses, misses, samples_bits)| WireCurve {
            accesses,
            misses,
            samples_bits,
        })
}

/// A sequenced batch with strictly increasing positions: a start plus
/// per-record gaps, folded into absolute positions.
fn arb_seq_records() -> impl Strategy<Value = Vec<(u64, u64, u64)>> {
    (
        0u64..1 << 40,
        prop::collection::vec((0u64..1 << 12, 0u64..16, 0u64..1 << 44), 0..200),
    )
        .prop_map(|(start, gaps)| {
            let mut pos = start;
            gaps.into_iter()
                .map(|(gap, t, b)| {
                    let here = pos + gap;
                    pos = here + 1;
                    (here, t, b)
                })
                .collect()
        })
}

/// Every message kind, with arbitrary contents. Bindings and tenants
/// stay below `u64::MAX` (the HELLO encoding reserves 0 for mux, so
/// `u64::MAX` itself is unrepresentable by design).
fn arb_message() -> BoxedStrategy<Message> {
    prop_oneof![
        (0u64..6).prop_map(|t| Message::Hello {
            binding: t.checked_sub(1),
        }),
        (arb_config(), any::<u64>())
            .prop_map(|(config, token)| Message::HelloAck { config, token }),
        prop::collection::vec((0u64..16, 0u64..1 << 44), 0..300)
            .prop_map(|records| Message::Batch { records }),
        any::<u64>().prop_map(|token| Message::Resume { token }),
        arb_seq_records().prop_map(|records| Message::BatchSeq { records }),
        (arb_config(), 0u64..1 << 44)
            .prop_map(|(config, resume_pos)| Message::ResumeAck { config, resume_pos }),
        Just(Message::Stats),
        Just(Message::Allocation),
        Just(Message::Shutdown),
        (arb_objective(), any::<u64>())
            .prop_map(|(objective, trace)| Message::CostCurves { objective, trace }),
        (
            prop::collection::vec(0u64..1 << 20, 0..16),
            any::<bool>(),
            any::<u64>(),
            any::<u64>(),
        )
            .prop_map(|(units, some, bits, trace)| Message::Apply {
                units,
                predicted_bits: some.then_some(bits),
                trace,
            }),
        (prop::collection::vec(arb_curve(), 0..9), any::<u64>()).prop_map(
            |(curves, profile_nanos)| Message::CostCurvesReply {
                curves,
                profile_nanos,
            }
        ),
        (any::<bool>(), 0u64..1 << 32, any::<u64>()).prop_map(
            |(repartitioned, units_moved, actuate_nanos)| {
                Message::ApplyReply {
                    repartitioned,
                    units_moved,
                    actuate_nanos,
                }
            }
        ),
        (0u64..1 << 20).prop_map(|metrics_interval_ms| Message::Subscribe {
            metrics_interval_ms,
        }),
        arb_text().prop_map(|header| Message::SubscribeAck { header }),
        arb_text().prop_map(|line| Message::EpochEventFrame { line }),
        arb_text().prop_map(|text| Message::MetricsDelta { text }),
        arb_stats().prop_map(|stats| Message::StatsReply { stats }),
        prop::collection::vec(0u64..1 << 20, 0..64)
            .prop_map(|units| Message::AllocationReply { units }),
        (arb_text(), any::<u64>())
            .prop_map(|(summary, digest)| Message::ShutdownReply { summary, digest }),
        (0u64..9, arb_text()).prop_map(|(code, message)| Message::Error { code, message }),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// encode → decode is the identity, consuming exactly one frame.
    #[test]
    fn arbitrary_messages_round_trip(msg in arb_message()) {
        let frame = encode(&msg).unwrap();
        let (back, consumed) = decode(&frame).expect("own frames must decode");
        prop_assert_eq!(back, msg);
        prop_assert_eq!(consumed, frame.len());
    }

    /// Every strict prefix of a frame is `Truncated` — a typed error,
    /// not a panic and never a bogus success.
    #[test]
    fn truncated_frames_are_typed_errors(msg in arb_message(), cut in 0.0f64..1.0) {
        let frame = encode(&msg).unwrap();
        let cut = ((frame.len() as f64) * cut) as usize;
        prop_assert_eq!(decode(&frame[..cut]).unwrap_err(), WireError::Truncated);
    }

    /// Any single-bit flip anywhere in a frame is caught: magic flips
    /// as `BadMagic`, version flips as `BadVersion` (the version is
    /// checked before the sum that depends on it), everything else by
    /// the checksum (or the length bounds checks, when the flip lands
    /// in the length field).
    #[test]
    fn bit_flipped_frames_are_typed_errors(
        msg in arb_message(),
        position in 0.0f64..1.0,
        bit in 0u32..8,
    ) {
        let mut frame = encode(&msg).unwrap();
        let byte = ((frame.len() as f64) * position) as usize;
        let byte = byte.min(frame.len() - 1);
        frame[byte] ^= 1 << bit;
        let err = decode(&frame).expect_err("corrupt frame must not decode");
        if byte < MAGIC.len() {
            prop_assert!(matches!(err, WireError::BadMagic(_)), "byte {}: {:?}", byte, err);
        } else if byte == MAGIC.len() {
            prop_assert!(matches!(err, WireError::BadVersion(_)), "bit {}: {:?}", bit, err);
        } else {
            prop_assert!(
                matches!(
                    err,
                    WireError::ChecksumMismatch { .. }
                        | WireError::Truncated
                        | WireError::FrameTooLarge(_)
                ),
                "byte {} bit {}: {:?}",
                byte,
                bit,
                err
            );
        }
    }

    /// The slice encoders behind `Client::push_batch{,_seq}` write,
    /// into a buffer that still holds the previous frame, byte for
    /// byte what `encode` makes of the same records as a `Message` —
    /// empty and one-record frames included.
    #[test]
    fn slice_encoders_match_the_message_encoder(
        batch in prop::collection::vec((0u64..16, any::<u64>()), 0..300),
        seq in arb_seq_records(),
        keep in 0usize..3,
    ) {
        let mut frame = vec![0x5a; 7];
        for records in [&batch[..], &batch[..batch.len().min(keep)]] {
            encode_batch_into(&mut frame, records).unwrap();
            let whole = encode(&Message::Batch { records: records.to_vec() }).unwrap();
            prop_assert_eq!(&frame, &whole);
        }
        for records in [&seq[..], &seq[..seq.len().min(keep)]] {
            encode_batch_seq_into(&mut frame, records).unwrap();
            let whole = encode(&Message::BatchSeq { records: records.to_vec() }).unwrap();
            prop_assert_eq!(&frame, &whole);
        }
    }

    /// The largest encodable positions and gaps: a frame may start
    /// anywhere up to `u64::MAX`, jump by any gap that stays inside
    /// `u64`, and end *on* `u64::MAX` — all of it round-trips, and
    /// nothing can follow `u64::MAX` (the decoder's side of that, a
    /// delta that overflows, needs a hand-built frame: see the codec's
    /// unit tests).
    #[test]
    fn extreme_positions_and_gaps_round_trip(
        back in prop::collection::vec(0u64..1 << 62, 1..6),
        tenant in 0u64..16,
        block in any::<u64>(),
    ) {
        // Positions counted back from u64::MAX, strictly increasing.
        let mut positions: Vec<u64> = back
            .iter()
            .scan(0u64, |sum, gap| {
                *sum = sum.saturating_add(*gap).saturating_add(1);
                Some(u64::MAX - *sum)
            })
            .collect();
        positions.dedup();
        positions.reverse();
        positions.push(u64::MAX);
        let records: Vec<(u64, u64, u64)> =
            positions.iter().map(|&pos| (pos, tenant, block)).collect();
        let msg = Message::BatchSeq { records: records.clone() };
        let frame = encode(&msg).unwrap();
        prop_assert_eq!(decode(&frame).unwrap().0, msg);

        // One more record past u64::MAX is unrepresentable for the
        // encoder and refused by the decoder.
        let mut past = records;
        past.push((0, tenant, block));
        prop_assert_eq!(
            encode(&Message::BatchSeq { records: past }).unwrap_err(),
            WireError::BadPayload("positions not increasing")
        );
    }

    /// Raw noise never panics the decoder; a success would require the
    /// noise to be a valid checksummed frame, so any `Ok` must consume
    /// a plausible frame length.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..200)) {
        if let Ok((_, consumed)) = decode(&bytes) {
            prop_assert!(consumed <= bytes.len());
        }
    }

    /// A config whose decay lies outside `[0, 1)` — any bit pattern,
    /// NaN and infinities included — is a typed `BadConfig` naming the
    /// decay: the client would otherwise panic rebuilding the engine
    /// from it.
    #[test]
    fn out_of_range_decay_is_refused(config in arb_config(), decay_bits in any::<u64>()) {
        prop_assume!(!(0.0..1.0).contains(&f64::from_bits(decay_bits)));
        let config = config.decay(f64::from_bits(decay_bits));
        for msg in [
            Message::HelloAck { config: config.clone(), token: 7 },
            Message::ResumeAck { config: config.clone(), resume_pos: 3 },
        ] {
            let err = decode(&encode(&msg).unwrap()).unwrap_err();
            prop_assert!(matches!(&err, WireError::BadConfig(e) if e.field == "decay"), "{:?}", err);
        }
    }

    /// A COST_CURVES frame whose objective spec the core layer does
    /// not parse is a typed `BadPayload`, not a panic and never a
    /// success — the wire refuses objectives the DP cannot run.
    #[test]
    fn unparseable_objective_specs_are_refused(
        head in prop::collection::vec(97u8..123, 1..12),
        with_param in any::<bool>(),
        param in prop::collection::vec(97u8..123, 1..8),
    ) {
        let head = String::from_utf8(head).unwrap();
        let garbage = if with_param {
            format!("{head}:{}", String::from_utf8(param).unwrap())
        } else {
            head
        };
        prop_assume!(Objective::parse(&garbage).is_err());
        // Valid spec: the frame decodes.
        decode(&encode(&Message::CostCurves { objective: "miss-ratio".into(), trace: 9 }).unwrap()).unwrap();
        // Invalid spec: the encoder is trusting, the decoder is not.
        let err = decode(&encode(&Message::CostCurves { objective: garbage, trace: 9 }).unwrap()).unwrap_err();
        prop_assert!(matches!(err, WireError::BadPayload(_)), "{:?}", err);
    }
}
