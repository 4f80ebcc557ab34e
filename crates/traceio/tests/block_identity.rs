//! Block identity: [`TraceSource`] decodes a block of records at a time,
//! and nothing a consumer can observe may depend on where the blocks
//! fall. The slices [`TraceSource::next_block`] hands out, concatenated,
//! are the [`TraceSource::next_record`] sequence are the written
//! records — under any interleaving of the two calls, with
//! `stats().records` counting exactly what was handed out — and every
//! error keeps its place in the stream: the records decoded before the
//! damage come out first, then the error with the line and byte offset
//! a record-at-a-time reader reports, then the records after it.

use proptest::prelude::*;

use cps_traceio::binary::{HEADER_LEN, RECORD_LEN};
use cps_traceio::{
    BinaryWriter, BlockMap, CsvWriter, SourceStats, Strictness, TenantPolicy, TextWriter,
    TraceFormat, TraceIoError, TraceSource, BLOCK_RECORDS,
};

type Record = (usize, u64);

const TENANTS: usize = 5;
const FORMATS: [TraceFormat; 3] = [TraceFormat::Binary, TraceFormat::Text, TraceFormat::Csv];

fn written(format: TraceFormat, records: &[Record]) -> Vec<u8> {
    let mut buf = Vec::new();
    // The three writers share a shape, not a trait.
    macro_rules! write_all {
        ($writer:expr) => {{
            let mut w = $writer.unwrap();
            for &(t, b) in records {
                w.write_record(t as u64, b).unwrap();
            }
            w.finish().unwrap();
        }};
    }
    match format {
        TraceFormat::Binary => write_all!(BinaryWriter::new(&mut buf, 1)),
        TraceFormat::Text => write_all!(TextWriter::new(&mut buf, "block identity")),
        TraceFormat::Csv => write_all!(CsvWriter::new(&mut buf)),
    }
    buf
}

fn open(
    bytes: &[u8],
    format: TraceFormat,
    policy: TenantPolicy,
    map: BlockMap,
    strictness: Strictness,
) -> TraceSource {
    TraceSource::from_read(
        Box::new(std::io::Cursor::new(bytes.to_vec())),
        format,
        policy,
        map,
        TENANTS,
        strictness,
    )
}

/// Binary files carry block ids and say so; text and CSV carry them as
/// addresses and are read at one byte per block.
fn map_for(format: TraceFormat, set_hash: bool) -> BlockMap {
    let block_bytes = match format {
        TraceFormat::Binary => 64, // the pre-mapped header must override it
        _ => 1,
    };
    BlockMap {
        block_bytes,
        set_hash,
    }
}

/// How a drained stream went: the runs of records between errors, and
/// the errors, in order. `runs.len() == errors.len() + 1`.
struct Drained {
    runs: Vec<Vec<Record>>,
    errors: Vec<TraceIoError>,
    stats: SourceStats,
}

/// Drains `source` a block at a time (`by_block`) or a record at a
/// time, reading on past every error to the clean end of stream.
fn drain(mut source: TraceSource, by_block: bool) -> Drained {
    let mut runs = vec![Vec::new()];
    let mut errors = Vec::new();
    loop {
        let step = if by_block {
            source.next_block().map(|block| {
                assert!(block.len() <= BLOCK_RECORDS, "block of {}", block.len());
                runs.last_mut().unwrap().extend_from_slice(block);
                !block.is_empty()
            })
        } else {
            source.next_record().map(|record| {
                runs.last_mut().unwrap().extend(record);
                record.is_some()
            })
        };
        match step {
            Ok(true) => {}
            Ok(false) => break,
            Err(e) => {
                errors.push(e);
                runs.push(Vec::new());
                assert!(errors.len() < 64, "errors without end: {errors:?}");
            }
        }
    }
    Drained {
        runs,
        errors,
        stats: source.stats(),
    }
}

/// Where a recoverable error points: `(line, offset)`.
fn locate(e: &TraceIoError) -> (u64, u64) {
    match e {
        TraceIoError::Malformed { line, offset, .. }
        | TraceIoError::LineTooLong { line, offset, .. }
        | TraceIoError::TenantOutOfRange { line, offset, .. }
        | TraceIoError::UnmappedThread { line, offset, .. } => (*line, *offset),
        other => panic!("not a positioned recoverable error: {other:?}"),
    }
}

/// A line-oriented trace built by hand, remembering where each damaged
/// line starts.
#[derive(Default)]
struct Doc {
    bytes: Vec<u8>,
    lines: u64,
    /// `(line, offset)` of every damaged line, in order.
    damage: Vec<(u64, u64)>,
}

impl Doc {
    fn line(&mut self, text: &str) {
        self.bytes.extend_from_slice(text.as_bytes());
        self.bytes.push(b'\n');
        self.lines += 1;
    }

    fn damaged_line(&mut self, text: &str) {
        self.damage.push((self.lines + 1, self.bytes.len() as u64));
        self.line(text);
    }
}

/// A damaged trace in one of three shapes, `bad` holding the record
/// indices a damaged line is put in front of:
///
/// * 0 — CSV with unparsable rows (`Malformed`);
/// * 1 — CSV with rows of a tenant past the run's count
///   (`TenantOutOfRange`);
/// * 2 — text read through a thread map, with ops of a thread the map
///   does not know (`UnmappedThread`).
fn damaged(kind: usize, records: &[Record], bad: &[usize]) -> (Doc, TraceFormat, TenantPolicy) {
    let mut doc = Doc::default();
    if kind < 2 {
        doc.line("addr,tenant");
        for (i, &(t, b)) in records.iter().enumerate() {
            for _ in bad.iter().filter(|&&k| k == i) {
                doc.damaged_line(if kind == 0 { "banana,0" } else { "7,9" });
            }
            doc.line(&format!("{b},{t}"));
        }
        return (doc, TraceFormat::Csv, TenantPolicy::Explicit);
    }
    // Thread ids 100..105 map to tenants 0..5; thread 99 is unknown.
    doc.line("# damaged text");
    for (i, &(t, b)) in records.iter().enumerate() {
        for _ in bad.iter().filter(|&&k| k == i) {
            doc.line("T 99");
            doc.damaged_line(" L 7,1");
        }
        doc.line(&format!("T {}", 100 + t));
        doc.line(&format!(" S {b:x},1"));
    }
    let map = (0..TENANTS).map(|t| (100 + t as u64, t)).collect();
    (doc, TraceFormat::Text, TenantPolicy::ThreadMap(map))
}

fn record_lists(max: usize) -> impl Strategy<Value = Vec<Record>> {
    prop::collection::vec((0usize..TENANTS, any::<u64>()), 0..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every format, hashed or not, any interleaving of the two calls:
    /// one stream, the written one, and `stats().records` is the count
    /// handed out at every step — also in the middle of a block.
    fn blocks_and_records_are_one_stream(
        records in record_lists(3 * BLOCK_RECORDS),
        set_hash in any::<bool>(),
        // 0 takes the rest of the block, n > 0 takes n single records.
        schedule in prop::collection::vec(0usize..48, 1..24)
    ) {
        for format in FORMATS {
            let map = map_for(format, set_hash);
            let want: Vec<Record> = records.iter().map(|&(t, b)| (t, map.finish(b))).collect();
            let bytes = written(format, &records);
            let mut source =
                open(&bytes, format, TenantPolicy::Explicit, map, Strictness::Strict);
            let mut got: Vec<Record> = Vec::new();
            let mut steps = schedule.iter().cycle();
            let mut live = true;
            while live {
                match *steps.next().unwrap() {
                    0 => {
                        let block = source.next_block().unwrap();
                        prop_assert!(block.len() <= BLOCK_RECORDS);
                        live = !block.is_empty();
                        got.extend_from_slice(block);
                    }
                    singles => {
                        for _ in 0..singles {
                            let record = source.next_record().unwrap();
                            live = record.is_some();
                            got.extend(record);
                            prop_assert_eq!(source.stats().records, got.len() as u64);
                        }
                    }
                }
                prop_assert_eq!(source.stats().records, got.len() as u64);
            }
            prop_assert!(got == want, "{format:?}, set_hash {set_hash}: stream diverged");
            prop_assert_eq!(source.stats().ops, records.len() as u64);
            prop_assert!(source.next_block().unwrap().is_empty(), "the end is sticky");
        }
    }

    /// A strict read of a trace with one damaged line ahead of record
    /// `k`: exactly `k` records, then the error at that line and byte
    /// offset, then every record after it — by block and by record.
    fn strict_errors_keep_their_place_in_the_stream(
        records in record_lists(2 * BLOCK_RECORDS + 200),
        at in 0.0f64..1.0,
        kind in 0usize..3
    ) {
        prop_assume!(!records.is_empty());
        let k = (records.len() as f64 * at) as usize;
        let (doc, format, policy) = damaged(kind, &records, &[k]);
        for by_block in [true, false] {
            let map = BlockMap::identity();
            let source = open(&doc.bytes, format, policy.clone(), map, Strictness::Strict);
            let got = drain(source, by_block);
            prop_assert_eq!(got.errors.len(), 1, "{:?}", got.errors);
            prop_assert_eq!(locate(&got.errors[0]), doc.damage[0]);
            let variant_fits = matches!(
                (kind, &got.errors[0]),
                (0, TraceIoError::Malformed { .. })
                    | (1, TraceIoError::TenantOutOfRange { tenant: 9, tenants: TENANTS, .. })
                    | (2, TraceIoError::UnmappedThread { thread: 99, .. })
            );
            prop_assert!(variant_fits, "kind {kind}: {:?}", got.errors[0]);
            prop_assert!(
                got.runs[0] == records[..k],
                "kind {kind}: {} records before the error, wanted {k}",
                got.runs[0].len()
            );
            prop_assert!(got.runs[1] == records[k..], "kind {kind}: records after the error moved");
            prop_assert_eq!(got.stats.records, records.len() as u64);
            prop_assert_eq!(got.stats.malformed_skipped, 0);
        }
    }

    /// A lenient read skips every damaged line and remembers the first
    /// few, the same ones whichever call drives it.
    fn lenient_skips_and_reports_are_block_blind(
        records in record_lists(2 * BLOCK_RECORDS + 200),
        bad in prop::collection::vec(0.0f64..1.0, 1..14),
        kind in 0usize..3
    ) {
        prop_assume!(!records.is_empty());
        let mut bad: Vec<usize> =
            bad.iter().map(|f| (records.len() as f64 * f) as usize).collect();
        bad.sort_unstable();
        let (doc, format, policy) = damaged(kind, &records, &bad);
        let want_report: Vec<(u64, u64)> = doc
            .damage
            .iter()
            .copied()
            .take(cps_traceio::source::MALFORMED_REPORT_CAP)
            .collect();
        let mut seen: Vec<SourceStats> = Vec::new();
        for by_block in [true, false] {
            let map = BlockMap::identity();
            let source = open(&doc.bytes, format, policy.clone(), map, Strictness::Lenient);
            let got = drain(source, by_block);
            prop_assert!(got.errors.is_empty(), "{:?}", got.errors);
            prop_assert!(got.runs[0] == records, "kind {kind}: the surviving records moved");
            prop_assert_eq!(got.stats.malformed_skipped, bad.len() as u64);
            let report: Vec<(u64, u64)> =
                got.stats.malformed_report.iter().map(|&(l, o, _)| (l, o)).collect();
            prop_assert_eq!(&report, &want_report);
            seen.push(got.stats);
        }
        prop_assert_eq!(&seen[0].malformed_report, &seen[1].malformed_report);
        prop_assert_eq!(seen[0].ops, seen[1].ops);
        prop_assert_eq!(seen[0].bytes_read, seen[1].bytes_read);
    }
}

/// A CPST file cut at every byte of its last three records: every whole
/// record before the cut comes out, then — unless the cut fell on a
/// record boundary — `TruncatedRecord` with the offset of the ragged
/// tail, the bytes it has and the bytes it needs, then a clean end.
#[test]
fn a_cut_cpst_file_delivers_its_whole_records_then_the_typed_error() {
    for n in [3, BLOCK_RECORDS, BLOCK_RECORDS + 3, 7000] {
        let records: Vec<Record> = (0..n).map(|i| (i % TENANTS, (i as u64) << 7 | 5)).collect();
        let file = written(TraceFormat::Binary, &records);
        for cut in file.len() - 3 * RECORD_LEN..file.len() {
            let whole = (cut - HEADER_LEN) / RECORD_LEN;
            let have = (cut - HEADER_LEN) % RECORD_LEN;
            for by_block in [true, false] {
                let source = open(
                    &file[..cut],
                    TraceFormat::Binary,
                    TenantPolicy::Explicit,
                    BlockMap::default(),
                    Strictness::Strict,
                );
                let got = drain(source, by_block);
                assert!(
                    got.runs[0] == records[..whole],
                    "n {n}, cut {cut}: {} records before the tail, wanted {whole}",
                    got.runs[0].len()
                );
                assert_eq!(got.stats.records, whole as u64);
                if have == 0 {
                    assert!(got.errors.is_empty(), "n {n}, cut {cut}: {:?}", got.errors);
                    continue;
                }
                let want_offset = (HEADER_LEN + whole * RECORD_LEN) as u64;
                match got.errors.as_slice() {
                    [TraceIoError::TruncatedRecord {
                        offset,
                        have: h,
                        need,
                    }] => {
                        assert_eq!((*offset, *h, *need), (want_offset, have, RECORD_LEN));
                    }
                    other => panic!("n {n}, cut {cut}: wanted one TruncatedRecord, got {other:?}"),
                }
                assert!(got.runs[1].is_empty(), "records after a truncated tail");
            }
        }
    }
}

/// One text op wider than two whole blocks, between two narrow ones:
/// its records come out whole and in order across the refills, and the
/// three ops are counted once each.
#[test]
fn an_op_wider_than_a_block_comes_out_whole_and_in_order() {
    let spanned = 2 * BLOCK_RECORDS as u64 + 452;
    let text = format!("T 3\n L 0,1\n S 40,{}\n L 0,8\n", 64 * spanned);
    for set_hash in [false, true] {
        let map = BlockMap {
            block_bytes: 64,
            set_hash,
        };
        let mut want: Vec<Record> = vec![(3, map.finish(0))];
        want.extend((1..=spanned).map(|b| (3, map.finish(b))));
        want.push((3, map.finish(0)));
        for by_block in [true, false] {
            let source = open(
                text.as_bytes(),
                TraceFormat::Text,
                TenantPolicy::Explicit,
                map,
                Strictness::Strict,
            );
            let got = drain(source, by_block);
            assert!(got.errors.is_empty(), "{:?}", got.errors);
            assert!(
                got.runs[0] == want,
                "set_hash {set_hash}: the span came out wrong"
            );
            assert_eq!(got.stats.ops, 3);
            assert_eq!(got.stats.records, want.len() as u64);
        }
    }
}

/// A line longer than the scan buffer in the middle of a lenient read:
/// the reader resynchronizes past it once, after the records before it
/// and before the records behind it.
#[test]
fn an_overlong_line_is_skipped_in_place() {
    let before: Vec<Record> = (0..BLOCK_RECORDS + 40)
        .map(|i| (i % TENANTS, i as u64))
        .collect();
    let after: Vec<Record> = (0..90)
        .map(|i| (i % TENANTS, 1_000_000 + i as u64))
        .collect();
    let mut doc = Doc::default();
    doc.line("addr,tenant");
    for &(t, b) in &before {
        doc.line(&format!("{b},{t}"));
    }
    doc.damaged_line(&"9".repeat(cps_traceio::scan::DEFAULT_BUF_CAP + 100));
    for &(t, b) in &after {
        doc.line(&format!("{b},{t}"));
    }
    let source = |strictness| {
        open(
            &doc.bytes,
            TraceFormat::Csv,
            TenantPolicy::Explicit,
            BlockMap::identity(),
            strictness,
        )
    };
    for by_block in [true, false] {
        let got = drain(source(Strictness::Lenient), by_block);
        assert!(got.errors.is_empty(), "{:?}", got.errors);
        assert!(got.runs[0] == [&before[..], &after[..]].concat());
        assert_eq!(got.stats.malformed_skipped, 1);
        let (line, offset, _) = got.stats.malformed_report[0];
        assert_eq!((line, offset), doc.damage[0]);
    }

    // A strict read stops there, with everything before it delivered.
    let mut strict = source(Strictness::Strict);
    let mut got = Vec::new();
    let err = loop {
        match strict.next_record() {
            Ok(Some(r)) => got.push(r),
            Ok(None) => panic!("a strict read swallowed the over-long line"),
            Err(e) => break e,
        }
    };
    assert!(got == before);
    assert!(matches!(err, TraceIoError::LineTooLong { .. }), "{err:?}");
    assert_eq!(locate(&err), doc.damage[0]);
}
