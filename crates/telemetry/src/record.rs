//! Compact fixed-size flight-recorder records and their bounded ring.
//!
//! The flight recorder does not store full [`Event`] values (an enum
//! with heap-holding variants); it stores [`CompactRecord`]: 32 bytes,
//! `Copy`, no pointers. The one variant
//! that carries a string ([`Event::Fault`]) is interned into a side
//! table owned by the recorder (faults are terminal, so this happens at
//! most once per run and never on the steady-state hot path).
//!
//! [`RecordRing`] is a power-of-two array written with a wrapping
//! index: a push is a bounds-check-free store plus a counter increment.
//! No allocation, no branching on fullness, no eviction bookkeeping —
//! the oldest record is simply overwritten.

use crate::event::{Event, GuardKind, TracedEvent};

/// Interned Table I scheme labels (record payloads hold the id).
const SCHEMES: [&str; 5] = ["pseudo", "AES-1", "AES-10", "RDRAND", "other"];

/// Intern a scheme label to its id (unknown labels collapse to
/// `other`).
pub fn scheme_id(label: &str) -> u8 {
    SCHEMES
        .iter()
        .position(|s| *s == label)
        .unwrap_or(SCHEMES.len() - 1) as u8
}

/// Resolve a scheme id back to its static label.
pub fn scheme_label(id: u8) -> &'static str {
    SCHEMES[(id as usize).min(SCHEMES.len() - 1)]
}

/// Discriminant of a [`CompactRecord`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RecordKind {
    /// Frame pushed: `a` = func, `b` = depth.
    FuncEnter = 0,
    /// Frame popped: `a` = func, `b` = frame bytes.
    FuncExit = 1,
    /// `stack_rng` draw: `a` = scheme id, `b` = cost decicycles.
    RngDraw = 2,
    /// P-BOX row selected: `a` = func, `b` = masked index.
    PboxSelect = 3,
    /// Guard/canary check: `a` = func, `b` = kind bit ⋅ 2 + passed bit.
    GuardCheck = 4,
    /// Fault: `a` = index into the recorder's fault-text table.
    Fault = 5,
    /// Attacker input request: `a` = request index, `b` = bytes.
    InputRequest = 6,
    /// Run finished: `a` = peak RSS, `b` = decicycles.
    RunEnd = 7,
    /// Stack slot carved: `a` = func | size << 32, `b` = address.
    Alloca = 8,
}

/// One fixed-size recorder entry: an event flattened to two `u64`
/// payload words plus its decicycle timestamp and kind tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactRecord {
    /// Decicycle clock at the event.
    pub now: u64,
    /// First payload word (meaning depends on `kind`).
    pub a: u64,
    /// Second payload word.
    pub b: u64,
    /// Discriminant.
    pub kind: RecordKind,
}

impl CompactRecord {
    /// Flatten an event. `fault_slot` is the side-table index a
    /// [`Event::Fault`] string was interned at (pass 0 otherwise).
    pub fn from_event(now: u64, ev: &Event, fault_slot: u32) -> CompactRecord {
        let (kind, a, b) = match ev {
            Event::FuncEnter { func, depth } => {
                (RecordKind::FuncEnter, *func as u64, *depth as u64)
            }
            Event::FuncExit { func, frame_bytes } => {
                (RecordKind::FuncExit, *func as u64, *frame_bytes)
            }
            Event::RngDraw {
                scheme,
                cost_decicycles,
            } => (
                RecordKind::RngDraw,
                scheme_id(scheme) as u64,
                *cost_decicycles,
            ),
            Event::PboxSelect { func, index } => (RecordKind::PboxSelect, *func as u64, *index),
            Event::GuardCheck { func, kind, passed } => {
                let kind_bit = match kind {
                    GuardKind::Word => 0u64,
                    GuardKind::Canary => 1,
                };
                (
                    RecordKind::GuardCheck,
                    *func as u64,
                    kind_bit << 1 | *passed as u64,
                )
            }
            Event::Fault { .. } => (RecordKind::Fault, fault_slot as u64, 0),
            Event::InputRequest { index, bytes } => (RecordKind::InputRequest, *index, *bytes),
            Event::RunEnd {
                peak_rss,
                decicycles,
            } => (RecordKind::RunEnd, *peak_rss, *decicycles),
            Event::Alloca { func, addr, size } => (
                RecordKind::Alloca,
                *func as u64 | (*size).min(u32::MAX as u64) << 32,
                *addr,
            ),
        };
        CompactRecord { now, a, b, kind }
    }

    /// Reconstruct the full event. `fault_texts` is the recorder's
    /// side table for fault strings.
    pub fn to_event(&self, fault_texts: &[String]) -> Event {
        match self.kind {
            RecordKind::FuncEnter => Event::FuncEnter {
                func: self.a as u32,
                depth: self.b as u32,
            },
            RecordKind::FuncExit => Event::FuncExit {
                func: self.a as u32,
                frame_bytes: self.b,
            },
            RecordKind::RngDraw => Event::RngDraw {
                scheme: scheme_label(self.a as u8),
                cost_decicycles: self.b,
            },
            RecordKind::PboxSelect => Event::PboxSelect {
                func: self.a as u32,
                index: self.b,
            },
            RecordKind::GuardCheck => Event::GuardCheck {
                func: self.a as u32,
                kind: if self.b >> 1 & 1 == 1 {
                    GuardKind::Canary
                } else {
                    GuardKind::Word
                },
                passed: self.b & 1 == 1,
            },
            RecordKind::Fault => Event::Fault {
                what: fault_texts
                    .get(self.a as usize)
                    .cloned()
                    .unwrap_or_else(|| "?".to_string()),
            },
            RecordKind::InputRequest => Event::InputRequest {
                index: self.a,
                bytes: self.b,
            },
            RecordKind::RunEnd => Event::RunEnd {
                peak_rss: self.a,
                decicycles: self.b,
            },
            RecordKind::Alloca => Event::Alloca {
                func: self.a as u32,
                addr: self.b,
                size: self.a >> 32,
            },
        }
    }
}

/// A bounded ring of [`CompactRecord`]s with overwrite-oldest
/// semantics. Capacity is rounded up to a power of two so the write
/// index wraps with a mask instead of a modulo.
#[derive(Debug, Clone)]
pub struct RecordRing {
    buf: Box<[CompactRecord]>,
    mask: u64,
    /// Total records ever pushed (the next record's sequence number).
    head: u64,
}

impl RecordRing {
    /// A ring holding at least `capacity` records (rounded up to a
    /// power of two, minimum 1).
    pub fn new(capacity: usize) -> RecordRing {
        let cap = capacity.max(1).next_power_of_two();
        let zero = CompactRecord {
            now: 0,
            a: 0,
            b: 0,
            kind: RecordKind::FuncEnter,
        };
        RecordRing {
            buf: vec![zero; cap].into_boxed_slice(),
            mask: cap as u64 - 1,
            head: 0,
        }
    }

    /// Append one record, overwriting the oldest when full. Returns its
    /// sequence number.
    #[inline]
    pub fn push(&mut self, rec: CompactRecord) -> u64 {
        let seq = self.head;
        self.buf[(seq & self.mask) as usize] = rec;
        self.head = seq + 1;
        seq
    }

    /// Configured capacity (after power-of-two rounding).
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Records currently retained.
    pub fn len(&self) -> usize {
        self.head.min(self.buf.len() as u64) as usize
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.head == 0
    }

    /// Records overwritten to make room.
    pub fn dropped(&self) -> u64 {
        self.head - self.len() as u64
    }

    /// Total records ever pushed.
    pub fn total_pushed(&self) -> u64 {
        self.head
    }

    /// Retained records with their sequence numbers, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &CompactRecord)> {
        let first = self.dropped();
        (first..self.head).map(move |seq| (seq, &self.buf[(seq & self.mask) as usize]))
    }

    /// Materialize the retained window as full [`TracedEvent`]s.
    pub fn to_events(&self, fault_texts: &[String]) -> Vec<TracedEvent> {
        self.iter()
            .map(|(seq, rec)| TracedEvent {
                seq,
                now: rec.now,
                event: rec.to_event(fault_texts),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_events() -> Vec<Event> {
        vec![
            Event::FuncEnter { func: 3, depth: 2 },
            Event::FuncExit {
                func: 3,
                frame_bytes: 168,
            },
            Event::RngDraw {
                scheme: "AES-10",
                cost_decicycles: 928,
            },
            Event::PboxSelect { func: 3, index: 5 },
            Event::GuardCheck {
                func: 3,
                kind: GuardKind::Word,
                passed: true,
            },
            Event::GuardCheck {
                func: 1,
                kind: GuardKind::Canary,
                passed: false,
            },
            Event::InputRequest {
                index: 7,
                bytes: 64,
            },
            Event::RunEnd {
                peak_rss: 4096,
                decicycles: 100_000,
            },
            Event::Alloca {
                func: 2,
                addr: 0x7fff_f000,
                size: 24,
            },
        ]
    }

    #[test]
    fn every_variant_round_trips_compactly() {
        for ev in all_events() {
            let rec = CompactRecord::from_event(17, &ev, 0);
            assert_eq!(rec.to_event(&[]), ev, "variant {ev:?}");
            assert_eq!(rec.now, 17);
        }
        // Faults go through the side table.
        let fault = Event::Fault {
            what: "oob write".to_string(),
        };
        let rec = CompactRecord::from_event(9, &fault, 0);
        assert_eq!(rec.to_event(&["oob write".to_string()]), fault);
    }

    #[test]
    fn record_is_small_and_copy() {
        assert!(std::mem::size_of::<CompactRecord>() <= 32);
        let rec = CompactRecord::from_event(0, &Event::FuncEnter { func: 0, depth: 1 }, 0);
        let copy = rec; // Copy, not move.
        assert_eq!(rec, copy);
    }

    #[test]
    fn ring_wraps_and_keeps_sequence_numbers() {
        let mut ring = RecordRing::new(4);
        assert_eq!(ring.capacity(), 4);
        for i in 0..6u64 {
            let seq = ring.push(CompactRecord::from_event(
                i,
                &Event::InputRequest { index: i, bytes: 0 },
                0,
            ));
            assert_eq!(seq, i);
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.dropped(), 2);
        assert_eq!(ring.total_pushed(), 6);
        let seqs: Vec<u64> = ring.iter().map(|(s, _)| s).collect();
        assert_eq!(seqs, vec![2, 3, 4, 5]);
        let events = ring.to_events(&[]);
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].seq, 2);
        assert_eq!(events[3].event, Event::InputRequest { index: 5, bytes: 0 });
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(RecordRing::new(0).capacity(), 1);
        assert_eq!(RecordRing::new(3).capacity(), 4);
        assert_eq!(RecordRing::new(1000).capacity(), 1024);
    }
}
