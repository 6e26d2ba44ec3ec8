//! [`RunReport`]: the one canonical summary of a finished run.
//!
//! Before this module existed, three consumers each re-derived their
//! own view of a [`RunOutcome`]: the fuzzer canonicalized exits and
//! output events for differential comparison, the attack framework
//! re-matched fault kinds to decide detected-vs-crashed, and the
//! campaign engine carried a third ad-hoc triplet. `RunReport` is the
//! single shared reduction — exit, fault *class*, canonical output
//! events, cycles, and peak RSS — with `From` impls off `RunOutcome`
//! so every consumer derives fault classes the same way.

use crate::cycles::DECI;
use crate::exec::{Exit, FaultKind, RunOutcome};
use crate::io::OutputEvent;

/// The layout-independent class of a fault: addresses and lengths are
/// erased, the kind (and for defense detections, the detecting
/// function) is kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// Out-of-bounds or unmapped read.
    MemRead,
    /// Out-of-bounds, unmapped, or read-only-segment write.
    MemWrite,
    /// Stack segment exhausted.
    StackOverflow,
    /// Integer division by zero.
    DivByZero,
    /// Instruction budget exhausted.
    OutOfFuel,
    /// Indirect call through a non-function value.
    BadIndirectCall,
    /// Smokestack guard-word check fired (defense detection).
    Guard,
    /// Stack canary check fired (defense detection).
    Canary,
    /// `unreachable` executed.
    Unreachable,
    /// The race detector observed unsynchronized conflicting accesses.
    DataRace,
    /// Every thread blocked — the scheduler had nothing to run.
    Deadlock,
}

impl FaultClass {
    /// Stable lowercase label (the `fault:<label>` wire format).
    pub fn label(self) -> &'static str {
        match self {
            FaultClass::MemRead => "mem-read",
            FaultClass::MemWrite => "mem-write",
            FaultClass::StackOverflow => "stack-overflow",
            FaultClass::DivByZero => "div-by-zero",
            FaultClass::OutOfFuel => "out-of-fuel",
            FaultClass::BadIndirectCall => "bad-indirect-call",
            FaultClass::Guard => "guard",
            FaultClass::Canary => "canary",
            FaultClass::Unreachable => "unreachable",
            FaultClass::DataRace => "data-race",
            FaultClass::Deadlock => "deadlock",
        }
    }

    /// Whether this class is a *defense* detection rather than a crash.
    pub fn is_defense_detection(self) -> bool {
        matches!(self, FaultClass::Guard | FaultClass::Canary)
    }
}

impl FaultKind {
    /// The layout-independent class of this fault.
    pub fn class(&self) -> FaultClass {
        match self {
            FaultKind::Mem(m) if m.write => FaultClass::MemWrite,
            FaultKind::Mem(_) => FaultClass::MemRead,
            FaultKind::StackOverflow => FaultClass::StackOverflow,
            FaultKind::DivByZero => FaultClass::DivByZero,
            FaultKind::OutOfFuel => FaultClass::OutOfFuel,
            FaultKind::BadIndirectCall(_) => FaultClass::BadIndirectCall,
            FaultKind::GuardViolation { .. } => FaultClass::Guard,
            FaultKind::CanarySmashed { .. } => FaultClass::Canary,
            FaultKind::UnreachableExecuted => FaultClass::Unreachable,
            FaultKind::DataRace { .. } => FaultClass::DataRace,
            FaultKind::Deadlock => FaultClass::Deadlock,
        }
    }
}

/// Canonical exit string: `return:N`, `return-void`, `exit:N`, or
/// `fault:<class>` (with the detecting function appended for guard and
/// canary detections). Layout-dependent detail — fault addresses,
/// lengths — is erased, so the string is stable across layout draws.
pub fn exit_class(exit: &Exit) -> String {
    match exit {
        Exit::Return(v) => format!("return:{v}"),
        Exit::ReturnVoid => "return-void".into(),
        Exit::Exited(c) => format!("exit:{c}"),
        Exit::Fault(f) => match f {
            FaultKind::GuardViolation { func } => format!("fault:guard:{func}"),
            FaultKind::CanarySmashed { func } => format!("fault:canary:{func}"),
            other => format!("fault:{}", other.class().label()),
        },
    }
}

/// Canonicalize one output event: `i:<value>` or `s:<escaped bytes>`.
pub fn canonical_event(ev: &OutputEvent) -> String {
    match ev {
        OutputEvent::Int(v) => format!("i:{v}"),
        OutputEvent::Str(b) => format!("s:{}", escape_bytes(b)),
    }
}

/// Printable ASCII stays itself; everything else becomes `\xNN`. The
/// mapping is injective, so string equality is byte equality.
pub fn escape_bytes(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len());
    for &b in bytes {
        if (0x20..0x7f).contains(&b) && b != b'\\' {
            s.push(b as char);
        } else {
            s.push_str(&format!("\\x{b:02x}"));
        }
    }
    s
}

/// The canonical, comparison-ready summary of a finished run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// How the run ended (full detail, addresses included).
    pub exit: Exit,
    /// Canonical exit string ([`exit_class`]).
    pub exit_class: String,
    /// Fault class, if the run faulted.
    pub fault: Option<FaultClass>,
    /// Canonical output events, in order ([`canonical_event`]).
    pub output: Vec<String>,
    /// Simulated cost units (twentieths of a cycle).
    pub decicycles: u64,
    /// Instructions executed.
    pub insts: u64,
    /// Peak resident set, bytes.
    pub peak_rss: u64,
}

impl RunReport {
    /// Simulated cycles as the paper reports them.
    pub fn cycles(&self) -> f64 {
        self.decicycles as f64 / DECI as f64
    }

    /// Whether a defense (guard or canary) terminated the run.
    pub fn is_defense_detection(&self) -> bool {
        self.fault.is_some_and(FaultClass::is_defense_detection)
    }

    /// Whether the run terminated without a fault.
    pub fn is_clean(&self) -> bool {
        self.fault.is_none()
    }
}

impl From<&RunOutcome> for RunReport {
    fn from(out: &RunOutcome) -> RunReport {
        RunReport {
            exit: out.exit.clone(),
            exit_class: exit_class(&out.exit),
            fault: match &out.exit {
                Exit::Fault(f) => Some(f.class()),
                _ => None,
            },
            output: out.output.iter().map(canonical_event).collect(),
            decicycles: out.decicycles,
            insts: out.insts,
            peak_rss: out.peak_rss,
        }
    }
}

impl From<RunOutcome> for RunReport {
    fn from(out: RunOutcome) -> RunReport {
        RunReport::from(&out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::{FaultLocus, MemFault};

    fn outcome(exit: Exit) -> RunOutcome {
        RunOutcome {
            exit,
            decicycles: 40,
            insts: 2,
            output: vec![OutputEvent::Int(-3), OutputEvent::Str(b"a\\\x01".to_vec())],
            peak_rss: 4096,
            max_call_depth: 1,
            rng_invocations: 0,
            breakdown: Default::default(),
            alloca_trace: vec![],
            sched_digest: 0,
        }
    }

    #[test]
    fn canonical_strings_are_stable() {
        let r = RunReport::from(outcome(Exit::Return(7)));
        assert_eq!(r.exit_class, "return:7");
        assert_eq!(r.output, vec!["i:-3", "s:a\\x5c\\x01"]);
        assert!(r.is_clean());
        assert!(!r.is_defense_detection());
    }

    #[test]
    fn fault_classes_erase_addresses_but_keep_detecting_function() {
        let mem = Exit::Fault(FaultKind::Mem(MemFault {
            addr: 0xdead,
            len: 8,
            write: true,
            locus: FaultLocus::PastEnd {
                segment: "stack",
                by: 8,
            },
        }));
        let r = RunReport::from(outcome(mem));
        assert_eq!(r.exit_class, "fault:mem-write");
        assert_eq!(r.fault, Some(FaultClass::MemWrite));

        let guard = Exit::Fault(FaultKind::GuardViolation { func: "f".into() });
        let r = RunReport::from(outcome(guard));
        assert_eq!(r.exit_class, "fault:guard:f");
        assert!(r.is_defense_detection());
    }
}
