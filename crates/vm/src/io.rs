//! Program I/O and the adversary interaction point.

use std::collections::VecDeque;

use crate::mem::Memory;

/// A single observable output of the program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OutputEvent {
    /// `print_int`.
    Int(i64),
    /// `print_str` (raw bytes, usually UTF-8).
    Str(Vec<u8>),
}

impl OutputEvent {
    /// Render as text for assertions and logs.
    pub fn to_text(&self) -> String {
        match self {
            OutputEvent::Int(v) => v.to_string(),
            OutputEvent::Str(b) => String::from_utf8_lossy(b).into_owned(),
        }
    }
}

/// Source of bytes for the `get_input` / `read_line` intrinsics.
///
/// This is the adversary's hook: each time the program asks for input the
/// source receives **mutable** access to the simulated memory, modelling
/// the paper's threat model (§III-B) of an attacker with read/write
/// access to all writable data memory who interacts with the victim
/// through its input channel. Writes through [`Memory::write`] still
/// respect segment permissions, so rodata (the P-BOX) and the register
/// file remain out of reach.
///
/// Every call into the source is also reported to an attached
/// [`SharedRecorder`](crate::SharedRecorder) as an `InputRequest` event (request index
/// plus bytes delivered), so telemetry captures the full adversary
/// interaction trail alongside guard checks and RNG draws.
pub trait InputSource {
    /// Produce up to `max` bytes for this input request. `request_index`
    /// counts requests from 0.
    fn provide(&mut self, mem: &mut Memory, request_index: u64, max: u64) -> Vec<u8>;
}

/// A fixed script of input chunks (benign workloads, replayed exploits).
#[derive(Debug, Clone, Default)]
pub struct ScriptedInput {
    chunks: VecDeque<Vec<u8>>,
}

impl ScriptedInput {
    /// Create from chunks delivered one per request.
    pub fn new(chunks: impl IntoIterator<Item = Vec<u8>>) -> ScriptedInput {
        ScriptedInput {
            chunks: chunks.into_iter().collect(),
        }
    }

    /// A source that always returns empty input.
    pub fn empty() -> ScriptedInput {
        ScriptedInput::default()
    }
}

impl InputSource for ScriptedInput {
    fn provide(&mut self, _mem: &mut Memory, _request_index: u64, max: u64) -> Vec<u8> {
        let mut chunk = self.chunks.pop_front().unwrap_or_default();
        chunk.truncate(max as usize);
        chunk
    }
}

/// Adapt a closure as an input source (used by interactive attacks).
pub struct FnInput<F>(pub F);

impl<F> InputSource for FnInput<F>
where
    F: FnMut(&mut Memory, u64, u64) -> Vec<u8>,
{
    fn provide(&mut self, mem: &mut Memory, request_index: u64, max: u64) -> Vec<u8> {
        (self.0)(mem, request_index, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemConfig;

    #[test]
    fn scripted_input_delivers_in_order() {
        let mut m = Memory::new(MemConfig::default());
        let mut s = ScriptedInput::new([b"one".to_vec(), b"two".to_vec()]);
        assert_eq!(s.provide(&mut m, 0, 100), b"one");
        assert_eq!(s.provide(&mut m, 1, 100), b"two");
        assert_eq!(s.provide(&mut m, 2, 100), Vec::<u8>::new());
    }

    #[test]
    fn scripted_input_truncates_to_max() {
        let mut m = Memory::new(MemConfig::default());
        let mut s = ScriptedInput::new([vec![7u8; 64]]);
        assert_eq!(s.provide(&mut m, 0, 8).len(), 8);
    }

    #[test]
    fn fn_input_sees_memory() {
        let mut m = Memory::new(MemConfig::default());
        let probe_addr = crate::mem::layout::DATA_BASE + 16;
        m.write_uint(probe_addr, 99, 8).unwrap();
        let mut src = FnInput(move |mem: &mut Memory, _i, _max| {
            let v = mem.read_uint(probe_addr, 8).unwrap();
            vec![v as u8]
        });
        assert_eq!(src.provide(&mut m, 0, 16), vec![99]);
    }

    #[test]
    fn output_event_text() {
        assert_eq!(OutputEvent::Int(-3).to_text(), "-3");
        assert_eq!(OutputEvent::Str(b"ok".to_vec()).to_text(), "ok");
    }
}
