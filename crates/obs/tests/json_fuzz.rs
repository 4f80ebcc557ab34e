//! Fuzzing the journal readers: whatever bytes a journal file, a
//! metrics frame or a daemon hands `cps_obs::json::parse`, it returns a
//! value or an error — it never panics and never overflows the stack —
//! and every string `escape_json` writes reads back unchanged. The same
//! holds one level up for `parse_journal_line`, `Journal::parse` and
//! `TournamentJournal::parse`, on arbitrary lines and on valid journals
//! with numbers swapped for extremes (`u64::MAX` included) and lines
//! dropped, duplicated or swapped. A journal that does parse can be
//! summarized, rendered and exported without panicking either.

use cps_obs::json::{escape_json, parse, JsonError, JsonValue, MAX_DEPTH};
use cps_obs::{
    chrome_trace_json, parse_journal_line, parse_tournament_line, EpochEvent, Journal,
    MigrationEvent, NodeSpan, RunHeader, RunSummary, StageTimings, TournamentHeader,
    TournamentJournal, TournamentRow,
};
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

/// A valid cluster-shaped journal: two tenants over two nodes, three
/// epochs with trace ids and node spans, one migration.
fn sample_journal() -> String {
    let timings = |n: u64| StageTimings {
        ingest_nanos: n,
        profile_nanos: 2 * n,
        merge_nanos: 0,
        solve_nanos: 3 * n,
        actuate_nanos: n,
    };
    let epochs: Vec<EpochEvent> = (0..3u64)
        .map(|i| EpochEvent {
            epoch: i as usize,
            start_nanos: 1_000 * i,
            objective: "miss-ratio".into(),
            allocation: vec![10 - 2 * i as usize, 6 + 2 * i as usize],
            accesses: vec![300 + i, 200],
            misses: vec![30, 20 + i],
            predicted_cost: Some(0.125 * (i + 1) as f64),
            trace: Some(77 + i),
            repartitioned: i > 0,
            units_moved: 2 * i as usize,
            timings: timings(10 + i),
            spans: vec![NodeSpan {
                node: (i % 2) as usize,
                timings: timings(i),
            }],
        })
        .collect();
    let journal = Journal {
        header: RunHeader {
            engine: "cluster".into(),
            tenants: 2,
            units: 16,
            bpu: 2,
            epoch_length: 500,
            shards: 2,
            policy: "cluster".into(),
            objective: "miss-ratio".into(),
        },
        summary: (epochs.iter())
            .try_fold(RunSummary::default(), |mut s, e| s.add(e).map(|()| s))
            .expect("small totals"),
        epochs,
        migrations: vec![MigrationEvent {
            epoch: 1,
            tenant: 0,
            from: 0,
            to: 1,
            gain: Some(0.0625),
        }],
    };
    let text = journal.render();
    assert_eq!(
        Journal::parse(&text),
        Ok(journal),
        "the seed journal is valid"
    );
    text
}

/// A valid tournament journal: one objective, two rows.
fn sample_tournament() -> String {
    let header = TournamentHeader {
        programs: 5,
        group_size: 3,
        groups: 10,
        units: 16,
        bpu: 8,
        objectives: vec!["miss-ratio".into()],
    };
    let row = |versus: &str| TournamentRow {
        objective: "miss-ratio".into(),
        versus: versus.into(),
        mean_gap: 12.5,
        median_gap: 10.0,
        max_gap: 40.0,
        improved_10pct: 0.5,
        improved_20pct: 0.25,
    };
    let text = format!(
        "{}\n{}\n{}\n",
        header.to_json_line(),
        row("equal").to_json_line(),
        row("natural").to_json_line()
    );
    TournamentJournal::parse(&text).expect("the seed tournament is valid");
    text
}

/// What a mutated number becomes: the edges of every integer type a
/// reader converts to, one past them, and a sign and an exponent.
const NUMBERS: [&str; 8] = [
    "18446744073709551615",
    "18446744073709551616",
    "9223372036854775808",
    "4294967296",
    "0",
    "1",
    "-1",
    "1e308",
];

/// One edit of a journal's text: `(kind, a, b, number)`. Kind 0 swaps
/// the `a`-th number for `NUMBERS[number]`; 1 drops line `a`; 2 copies
/// line `a` to position `b`; 3 swaps lines `a` and `b`.
type Edit = (u8, usize, usize, usize);

fn apply(text: &str, edits: &[Edit]) -> String {
    let mut text = text.to_string();
    for &(kind, a, b, number) in edits {
        if kind == 0 {
            let bytes = text.as_bytes();
            let runs: Vec<(usize, usize)> = (0..bytes.len())
                .filter(|&i| {
                    bytes[i].is_ascii_digit() && (i == 0 || !bytes[i - 1].is_ascii_digit())
                })
                .map(|start| {
                    let len = bytes[start..]
                        .iter()
                        .take_while(|b| b.is_ascii_digit())
                        .count();
                    (start, start + len)
                })
                .collect();
            if let Some(&(start, end)) = runs.get(a % runs.len().max(1)) {
                text.replace_range(start..end, NUMBERS[number % NUMBERS.len()]);
            }
            continue;
        }
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        if lines.is_empty() {
            continue;
        }
        let (i, j) = (a % lines.len(), b % lines.len());
        match kind {
            1 => {
                lines.remove(i);
            }
            2 => {
                let line = lines[i].clone();
                lines.insert(j, line);
            }
            _ => lines.swap(i, j),
        }
        text = lines.join("\n") + "\n";
    }
    text
}

/// Feeds `text` to every reader and, where it parses, to everything a
/// consumer (`cps inspect`) does with the result. Panics are the
/// failure; errors are fine.
fn exercise(text: &str) -> Result<(), TestCaseError> {
    for line in text.lines() {
        let _ = parse_journal_line(line);
        let _ = parse_tournament_line(line);
    }
    if let Ok(journal) = Journal::parse(text) {
        let _ = journal.cumulative_miss_ratio();
        let _ = journal.summary.timings.total_nanos();
        let _ = chrome_trace_json(&journal);
        for tenant in 0..journal.header.tenants {
            prop_assert!(journal.tenant_trajectory(tenant).is_some());
        }
        for e in &journal.epochs {
            let _ = e.miss_ratio();
        }
        let _ = journal.canonical();
        // What the reader accepts, the writer reproduces.
        prop_assert_eq!(Journal::parse(&journal.render()), Ok(journal));
    }
    if let Ok(tournament) = TournamentJournal::parse(text) {
        let h = &tournament.header;
        prop_assert!(h.units.checked_mul(h.bpu).is_some());
    }
    Ok(())
}

fn arb_edits() -> impl Strategy<Value = Vec<Edit>> {
    prop::collection::vec(
        (0u8..4, any::<usize>(), any::<usize>(), any::<usize>()),
        1..4,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mutated_journals_never_panic_a_reader(edits in arb_edits()) {
        exercise(&apply(&sample_journal(), &edits))?;
        exercise(&apply(&sample_tournament(), &edits))?;
    }

    #[test]
    fn extreme_numbers_alone_never_panic_a_reader(
        which in any::<usize>(),
        number in 0usize..NUMBERS.len(),
    ) {
        // One number at a time, no other damage: the case that reaches
        // validation's arithmetic rather than the line protocol.
        exercise(&apply(&sample_journal(), &[(0, which, 0, number)]))?;
        exercise(&apply(&sample_tournament(), &[(0, which, 0, number)]))?;
    }

    #[test]
    fn arbitrary_lines_never_panic_a_reader(line in arb_text(200), at in any::<usize>()) {
        let _ = parse_journal_line(&line);
        let _ = parse_tournament_line(&line);
        for seed in [sample_journal(), sample_tournament()] {
            let mut lines: Vec<&str> = seed.lines().collect();
            let at = at % (lines.len() + 1);
            lines.insert(at, &line);
            exercise(&lines.join("\n"))?;
        }
    }
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
