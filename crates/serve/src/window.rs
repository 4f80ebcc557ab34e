//! The sequencing window: a bounded reorder ring over global stream
//! positions, filled and emptied a *run* at a time.
//!
//! Position `p` lives in slot `p % cap` from the moment it is admitted
//! until the engine is fed it; the window spans the `cap` positions from
//! the ingest frontier `next`. A frame's records arrive as [`Runs`] —
//! stretches of consecutive positions — so a plain BATCH, or a
//! BATCH_SEQ frame from the only sender, is one bounds check, one slot
//! computation and two slice copies at the wrap, and a strided
//! BATCH_SEQ frame (one of N round-robin senders) is a run per record
//! whose slot is the previous one advanced by the position gap. The
//! slot of `next` is carried along (`head`), so neither side divides.
//!
//! What each position's verdict is — placed, beyond the window, or a
//! duplicate — is exactly what placing the records one at a time would
//! give; the model test at the bottom keeps that per-record ring as
//! its oracle.

use crate::wire::{self, WireError};

/// One frame's records with their stream positions: runs of
/// consecutive positions plus a cursor over what the window has
/// already taken, so the tail a full window refused can be parked and
/// offered again.
#[derive(Default)]
pub(crate) struct Runs {
    /// `(first position, records)` per run, positions strictly
    /// increasing within and across runs. The run under the cursor is
    /// trimmed in place when only its front is taken.
    runs: Vec<(u64, usize)>,
    /// `(tenant, block)` per record, in position order.
    records: Vec<(usize, u64)>,
    /// First run not yet taken whole.
    run_at: usize,
    /// First record not yet taken.
    rec_at: usize,
}

impl Runs {
    fn clear(&mut self) {
        self.runs.clear();
        self.records.clear();
        self.run_at = 0;
        self.rec_at = 0;
    }

    /// Records the window has not taken yet.
    pub(crate) fn remaining(&self) -> usize {
        self.records.len() - self.rec_at
    }

    /// The first position not yet taken, if any record is left.
    pub(crate) fn first(&self) -> Option<u64> {
        self.runs.get(self.run_at).map(|&(pos, _)| pos)
    }

    /// The position after the last record; `None` when there is no
    /// record, or no such position (the last one is `u64::MAX`).
    pub(crate) fn end(&self) -> Option<u64> {
        let &(pos, len) = self.runs.last()?;
        pos.checked_add(len as u64)
    }

    /// Replaces the contents with a BATCH payload's records as one run
    /// from `first`, showing each record's tenant to `see_tenant`.
    pub(crate) fn load_batch(
        &mut self,
        payload: &[u8],
        first: u64,
        mut see_tenant: impl FnMut(u64),
    ) -> Result<(), WireError> {
        self.clear();
        let read = wire::read_batch(payload, &mut self.records, |tenant, block| {
            see_tenant(tenant);
            (tenant as usize, block)
        });
        if read.is_err() {
            self.clear();
        } else if !self.records.is_empty() {
            self.runs.push((first, self.records.len()));
        }
        read
    }

    /// Replaces the contents with a BATCH_SEQ payload's records, cut
    /// into runs where the positions stop being consecutive.
    pub(crate) fn load_batch_seq(
        &mut self,
        payload: &[u8],
        mut see_tenant: impl FnMut(u64),
    ) -> Result<(), WireError> {
        self.clear();
        let runs = &mut self.runs;
        let read = wire::read_batch_seq(payload, &mut self.records, |pos, tenant, block| {
            see_tenant(tenant);
            match runs.last_mut() {
                // The reader hands positions over strictly increasing.
                Some((first, len)) if pos - *first == *len as u64 => *len += 1,
                _ => runs.push((pos, 1)),
            }
            (tenant as usize, block)
        });
        if read.is_err() {
            self.clear();
        }
        read
    }

    /// Moves the cursor past `n` records of the run under it.
    fn advance(&mut self, n: usize) {
        let (pos, len) = &mut self.runs[self.run_at];
        *pos += n as u64;
        *len -= n;
        if *len == 0 {
            self.run_at += 1;
        }
        self.rec_at += n;
    }
}

/// How far [`Window::admit`] got with a frame.
#[derive(Debug, PartialEq)]
pub(crate) enum Admit {
    /// Every record is in the ring.
    Placed,
    /// The record under the cursor lies past the window; everything
    /// before it is in the ring.
    Beyond,
    /// The record under the cursor names this position, which was
    /// already ingested or is held in the ring; everything before it
    /// is in the ring.
    Duplicate(u64),
}

/// The reorder ring.
pub(crate) struct Window {
    slots: Vec<(usize, u64)>,
    filled: Vec<bool>,
    /// The contiguous ingest frontier: every position `< next` has
    /// been drained.
    next: u64,
    /// The slot of `next`.
    head: usize,
}

impl Window {
    /// A window of `cap` positions (any value; at least one).
    pub(crate) fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        Window {
            slots: vec![(0, 0); cap],
            filled: vec![false; cap],
            next: 0,
            head: 0,
        }
    }

    /// The ingest frontier.
    pub(crate) fn next(&self) -> u64 {
        self.next
    }

    /// Places as much of `frame`, from its cursor on, as the window
    /// takes now, and moves the cursor past what it placed.
    pub(crate) fn admit(&mut self, frame: &mut Runs) -> Admit {
        let cap = self.slots.len();
        while let Some(&(pos, len)) = frame.runs.get(frame.run_at) {
            if pos < self.next {
                return Admit::Duplicate(pos);
            }
            let ahead = pos - self.next;
            if ahead >= cap as u64 {
                return Admit::Beyond;
            }
            let ahead = ahead as usize;
            let mut slot = self.head + ahead;
            if slot >= cap {
                slot -= cap;
            }
            if len == 1 {
                // A strided sender's frame is all of these: skip the
                // slice machinery.
                if self.filled[slot] {
                    return Admit::Duplicate(pos);
                }
                self.slots[slot] = frame.records[frame.rec_at];
                self.filled[slot] = true;
                frame.advance(1);
                continue;
            }
            // The front of the run that fits the window, as the part
            // up to the ring's end and the part that wraps.
            let take = len.min(cap - ahead);
            let first = take.min(cap - slot);
            let held = |filled: &[bool]| filled.iter().position(|&f| f);
            let clean = held(&self.filled[slot..slot + first])
                .or_else(|| held(&self.filled[..take - first]).map(|k| first + k))
                .unwrap_or(take);
            let first = first.min(clean);
            let run = &frame.records[frame.rec_at..frame.rec_at + clean];
            self.slots[slot..slot + first].copy_from_slice(&run[..first]);
            self.filled[slot..slot + first].fill(true);
            self.slots[..clean - first].copy_from_slice(&run[first..]);
            self.filled[..clean - first].fill(true);
            frame.advance(clean);
            if clean < take {
                return Admit::Duplicate(pos + clean as u64);
            }
            if take < len {
                return Admit::Beyond;
            }
        }
        Admit::Placed
    }

    /// [`admit`](Self::admit), dropping records whose position is
    /// already taken: for positions the server assigned itself and for
    /// parked tails, where a duplicate cannot normally happen (each
    /// position was validated at arrival) and dropping one record is
    /// safer than wedging its session. Returns whether the window took
    /// everything that was left.
    pub(crate) fn admit_skipping_taken(&mut self, frame: &mut Runs) -> bool {
        loop {
            match self.admit(frame) {
                Admit::Placed => return true,
                Admit::Beyond => return false,
                Admit::Duplicate(_) => frame.advance(1),
            }
        }
    }

    /// Whether the frontier's record is in: [`drain`](Self::drain)
    /// would move something.
    pub(crate) fn ready(&self) -> bool {
        self.filled[self.head]
    }

    /// Whether `pos` lies inside the window: [`admit`](Self::admit)
    /// would not call it beyond.
    pub(crate) fn fits(&self, pos: u64) -> bool {
        pos - self.next.min(pos) < self.slots.len() as u64
    }

    /// Hands the contiguous filled prefix — at most `max` records — to
    /// `feed` in position order, straight from the slots (one slice up
    /// to the ring's end, one after the wrap), and advances the
    /// frontier past it. Returns how many records moved.
    pub(crate) fn drain(&mut self, max: usize, mut feed: impl FnMut(&[(usize, u64)])) -> usize {
        let cap = self.slots.len();
        let mut moved = 0;
        while moved < max {
            let span = (max - moved).min(cap - self.head);
            let stretch = self.head..self.head + span;
            let ready = self.filled[stretch]
                .iter()
                .position(|&f| !f)
                .unwrap_or(span);
            let stretch = self.head..self.head + ready;
            if ready > 0 {
                feed(&self.slots[stretch.clone()]);
            }
            self.filled[stretch].fill(false);
            moved += ready;
            self.next += ready as u64;
            self.head += ready;
            if self.head == cap {
                self.head = 0;
            }
            if ready < span {
                break;
            }
        }
        moved
    }

    /// Empties the ring without ingesting; returns how many records
    /// were stranded in it.
    pub(crate) fn clear(&mut self) -> usize {
        let stranded = self.filled.iter().filter(|&&f| f).count();
        self.filled.fill(false);
        stranded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{encode_batch_into, encode_batch_seq_into, open_frame};
    use proptest::prelude::*;
    use std::collections::VecDeque;

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Verdict {
        Placed,
        Beyond,
        Duplicate,
    }

    /// The ring as it was before runs — one `Option` per slot, one
    /// record, one `%` at a time — kept here as the reference the run
    /// admit and run drain are checked against.
    struct Oracle {
        ring: Vec<Option<(usize, u64)>>,
        next: u64,
    }

    impl Oracle {
        fn admit(&mut self, pos: u64, record: (usize, u64)) -> Verdict {
            let cap = self.ring.len() as u64;
            if pos < self.next {
                return Verdict::Duplicate;
            }
            if pos >= self.next + cap {
                return Verdict::Beyond;
            }
            let slot = (pos % cap) as usize;
            if self.ring[slot].is_some() {
                return Verdict::Duplicate;
            }
            self.ring[slot] = Some(record);
            Verdict::Placed
        }

        fn drain(&mut self, max: usize) -> Vec<(usize, u64)> {
            let cap = self.ring.len() as u64;
            let mut out = Vec::new();
            while out.len() < max {
                match self.ring[(self.next % cap) as usize].take() {
                    Some(record) => {
                        self.next += 1;
                        out.push(record);
                    }
                    None => break,
                }
            }
            out
        }
    }

    /// Decodes `records` into `frame` the way the event loop does:
    /// through a real payload, as a BATCH when asked and possible.
    fn load(frame: &mut Runs, records: &[(u64, usize, u64)], as_batch: bool) {
        let consecutive = records.windows(2).all(|w| w[1].0 == w[0].0 + 1);
        let mut bytes = Vec::new();
        if as_batch && consecutive && !records.is_empty() {
            let plain: Vec<(u64, u64)> = records.iter().map(|&(_, t, b)| (t as u64, b)).collect();
            encode_batch_into(&mut bytes, &plain).unwrap();
            let (_, payload, _) = open_frame(&bytes).unwrap();
            frame.load_batch(payload, records[0].0, |_| {}).unwrap();
            assert_eq!(frame.runs.len(), 1);
        } else {
            let seq: Vec<(u64, u64, u64)> =
                records.iter().map(|&(p, t, b)| (p, t as u64, b)).collect();
            encode_batch_seq_into(&mut bytes, &seq).unwrap();
            let (_, payload, _) = open_frame(&bytes).unwrap();
            frame.load_batch_seq(payload, |_| {}).unwrap();
        }
        assert_eq!(frame.remaining(), records.len());
        assert_eq!(frame.first(), records.first().map(|r| r.0));
        assert_eq!(frame.end(), records.last().map(|r| r.0 + 1));
    }

    /// Both rings, driven in lockstep.
    struct Model {
        window: Window,
        oracle: Oracle,
        /// Per session: the frame tail the window refused, both ways.
        parked: Vec<Runs>,
        oracle_parked: Vec<VecDeque<(u64, (usize, u64))>>,
        /// Positions `>= cursor` were never dealt to a frame; dealt
        /// positions a frame's pattern passed over wait in `leftover`
        /// (ascending) for the next frame.
        cursor: u64,
        leftover: Vec<u64>,
        /// Block ids: every record ever made is distinguishable.
        serial: u64,
        drained: Vec<(usize, u64)>,
    }

    impl Model {
        fn new(cap: usize, sessions: usize) -> Self {
            Model {
                window: Window::new(cap),
                oracle: Oracle {
                    ring: vec![None; cap],
                    next: 0,
                },
                // One more than the test's senders: the run-out's.
                parked: (0..=sessions).map(|_| Runs::default()).collect(),
                oracle_parked: vec![VecDeque::new(); sessions + 1],
                cursor: 0,
                leftover: Vec::new(),
                serial: 0,
                drained: Vec::new(),
            }
        }

        fn check_rings_agree(&self) {
            assert_eq!(self.window.next, self.oracle.next);
            let cap = self.oracle.ring.len();
            assert_eq!(self.window.head, (self.oracle.next % cap as u64) as usize);
            let slots = self.window.filled.iter().zip(&self.window.slots);
            for (slot, (held, (&filled, record))) in self.oracle.ring.iter().zip(slots).enumerate()
            {
                let same = match held {
                    Some(expected) => filled && record == expected,
                    None => !filled,
                };
                assert!(same, "slot {slot}: {held:?} vs {filled} {record:?}");
            }
        }

        fn record(&mut self, session: usize, pos: u64) -> (u64, usize, u64) {
            self.serial += 1;
            (pos, session, self.serial)
        }

        /// A position some record already holds or held: ingested, in
        /// the ring, or parked with another session.
        fn taken_position(&self, pick: u64, within: (u64, u64)) -> Option<u64> {
            let placed = |pos: u64| {
                pos < self.oracle.next
                    || (pos < self.oracle.next + self.oracle.ring.len() as u64
                        && self.oracle.ring[(pos % self.oracle.ring.len() as u64) as usize]
                            .is_some())
            };
            // Prefer one inside the frame's own span: a duplicate in
            // the middle of a run.
            let inside: Vec<u64> = (within.0..=within.1)
                .take(4096)
                .filter(|&p| placed(p))
                .collect();
            if !inside.is_empty() {
                return Some(inside[(pick % inside.len() as u64) as usize]);
            }
            let parked: Vec<u64> = self
                .oracle_parked
                .iter()
                .flat_map(|q| q.iter().map(|r| r.0))
                .collect();
            if pick.is_multiple_of(2) && !parked.is_empty() {
                return Some(parked[(pick % parked.len() as u64) as usize]);
            }
            (self.oracle.next > 0).then(|| pick % self.oracle.next)
        }

        /// Deals the next frame for `session`: every leftover position,
        /// then `len` fresh ones picked by `stride` (1 = a run, 2 =
        /// every other position, …) with `gap_at` breaking the pattern
        /// once; `dup` adds a record for a position already taken.
        fn frame(&mut self, session: usize, len: usize, stride: u64, dup: Option<u64>) {
            if self.parked[session].remaining() > 0 {
                return; // A paused session sends nothing.
            }
            let mut positions = std::mem::take(&mut self.leftover);
            for i in 0..len as u64 * stride {
                if i % stride == 0 {
                    positions.push(self.cursor + i);
                } else {
                    self.leftover.push(self.cursor + i);
                }
            }
            self.cursor += len as u64 * stride;
            if let (Some(pick), Some(&lo), Some(&hi)) = (dup, positions.first(), positions.last()) {
                if let Some(taken) = self.taken_position(pick, (lo, hi)) {
                    if let Err(at) = positions.binary_search(&taken) {
                        positions.insert(at, taken);
                    }
                }
            }
            let records: Vec<_> = positions
                .into_iter()
                .map(|pos| self.record(session, pos))
                .collect();
            self.offer(session, &records, stride == 1);
        }

        /// Admits one frame both ways and compares the verdict of every
        /// record. After a duplicate the rest of the frame is offered
        /// again as a frame of its own (the daemon would refuse the
        /// session; a resumed client would send exactly that).
        fn offer(&mut self, session: usize, mut records: &[(u64, usize, u64)], as_batch: bool) {
            loop {
                let mut frame = Runs::default();
                load(&mut frame, records, as_batch);
                let mut verdicts = Vec::with_capacity(records.len());
                for &(pos, tenant, block) in records {
                    let verdict = self.oracle.admit(pos, (tenant, block));
                    verdicts.push(verdict);
                    match verdict {
                        Verdict::Placed => {}
                        Verdict::Beyond => {
                            self.oracle_parked[session].push_back((pos, (tenant, block)))
                        }
                        Verdict::Duplicate => break,
                    }
                }
                let verdict = self.window.admit(&mut frame);
                let placed = verdicts
                    .iter()
                    .take_while(|&&v| v == Verdict::Placed)
                    .count();
                assert_eq!(frame.remaining(), records.len() - placed);
                self.check_rings_agree();
                match verdicts.get(placed) {
                    None => {
                        assert_eq!(verdict, Admit::Placed);
                        return;
                    }
                    Some(Verdict::Beyond) => {
                        assert_eq!(verdict, Admit::Beyond);
                        assert!(verdicts[placed..].iter().all(|&v| v == Verdict::Beyond));
                        assert_eq!(verdicts.len(), records.len());
                        assert_eq!(frame.first(), Some(records[placed].0));
                        self.parked[session] = frame;
                        return;
                    }
                    Some(_) => {
                        assert_eq!(verdict, Admit::Duplicate(records[placed].0));
                        records = &records[placed + 1..];
                    }
                }
            }
        }

        /// `flush_pending`, both ways.
        fn flush(&mut self) {
            for session in 0..self.parked.len() {
                let all = self.window.admit_skipping_taken(&mut self.parked[session]);
                let queue = &mut self.oracle_parked[session];
                while let Some(&(pos, record)) = queue.front() {
                    match self.oracle.admit(pos, record) {
                        Verdict::Placed | Verdict::Duplicate => queue.pop_front(),
                        Verdict::Beyond => break,
                    };
                }
                // Skipped duplicates leave the two counts apart by
                // design only while records are still parked.
                assert_eq!(all, self.oracle_parked[session].is_empty());
                assert_eq!(
                    self.parked[session].first(),
                    self.oracle_parked[session].front().map(|r| r.0)
                );
                self.check_rings_agree();
            }
        }

        fn drain(&mut self, max: usize) {
            let before = self.drained.len();
            let drained = &mut self.drained;
            let moved = self.window.drain(max, |run| drained.extend_from_slice(run));
            let expected = self.oracle.drain(max);
            assert_eq!(moved, expected.len());
            assert_eq!(&self.drained[before..], &expected[..]);
            self.check_rings_agree();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Run admit + run drain ≡ the per-record ring: equal slot
        /// contents, frontier, per-record verdicts and drained order,
        /// at caps 1, 7, 1500 and 65536, with frames that straddle the
        /// wrap, frames the window splits, duplicates in the middle of
        /// a run, interleaved strided sessions, and drains of 1 and
        /// 4096 records.
        #[test]
        fn run_admit_and_drain_match_the_per_record_ring(
            cap in prop_oneof![Just(1usize), Just(7), Just(1500), Just(65536)],
            sessions in 1usize..4,
            ops in prop::collection::vec(
                (0u32..10, 0usize..4, 1usize..3000, 1u64..4, any::<u64>()),
                20..120,
            ),
        ) {
            let mut model = Model::new(cap, sessions);
            for (kind, session, len, stride, pick) in ops {
                let session = session % sessions;
                // Small windows get small frames too, or every frame
                // is the same split.
                let len = if cap < 100 && pick % 3 != 0 { len % 12 + 1 } else { len };
                match kind {
                    0..=4 => model.frame(session, len, stride, None),
                    5 => model.frame(session, len, stride, Some(pick)),
                    6 => model.flush(),
                    7 => model.drain(1),
                    8 => model.drain(4096),
                    _ => model.drain((pick % 5000) as usize),
                }
            }
            // Run the stream out: the passed-over positions go in one
            // last frame from a session of its own (the others may all
            // be parked behind them), then flush and drain until it is
            // all through.
            model.frame(sessions, 0, 1, None);
            let mut rounds = 0;
            while model.oracle.next < model.cursor {
                model.flush();
                model.drain(cap.max(4096));
                rounds += 1;
                prop_assert!(rounds < 1_000_000, "the window wedged at {}", model.oracle.next);
            }
            prop_assert_eq!(model.drained.len() as u64, model.cursor);
        }
    }
}
