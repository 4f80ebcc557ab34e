//! Fuzzing the journal's JSON parser: whatever bytes a journal file,
//! a metrics frame or a daemon hands `cps_obs::json::parse`, it returns
//! a value or an error — it never panics and never overflows the stack —
//! and every string `escape_json` writes reads back unchanged.

use cps_obs::json::{escape_json, parse, JsonError, JsonValue, MAX_DEPTH};
use proptest::prelude::*;

/// Text weighted toward JSON's structural alphabet, mixed with
/// arbitrary code points (control characters and astral planes
/// included).
fn arb_text(max_len: usize) -> impl Strategy<Value = String> {
    const ALPHABET: [char; 22] = [
        '[', ']', '{', '}', '"', '\\', ':', ',', '-', '+', '.', 'e', '0', '7', 't', 'r', 'u', 'n',
        'l', 'f', ' ', '\n',
    ];
    prop::collection::vec((0u8..4, any::<u32>()), 0..max_len).prop_map(|picks| {
        picks
            .into_iter()
            .map(|(kind, bits)| match kind {
                0..=2 => ALPHABET[bits as usize % ALPHABET.len()],
                _ => char::from_u32(bits % 0x11_0000).unwrap_or('\u{fffd}'),
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_text_never_panics(text in arb_text(200), depth in 0usize..200) {
        let _ = parse(&text);
        // The same text behind a run of openers: past the limit the
        // answer is always the depth error at the first level too many.
        let nested = parse(&format!("{}{text}", "[".repeat(depth)));
        if depth > MAX_DEPTH {
            prop_assert_eq!(nested, Err(JsonError::TooDeep { offset: MAX_DEPTH }));
        } else if let Err(JsonError::TooDeep { offset }) = nested {
            prop_assert!(offset >= MAX_DEPTH, "too deep at byte {}", offset);
        }
    }

    #[test]
    fn escaped_strings_round_trip_through_parse(text in arb_text(64)) {
        let doc = format!("\"{}\"", escape_json(&text));
        prop_assert_eq!(parse(&doc), Ok(JsonValue::String(text.clone())));
        let nested = format!("{{\"k\":[\"{}\"]}}", escape_json(&text));
        let value = parse(&nested).expect("escaped string inside containers");
        let inner = value.get("k").and_then(|k| k.as_array()).and_then(|a| a[0].as_str());
        prop_assert_eq!(inner, Some(text.as_str()));
    }
}
