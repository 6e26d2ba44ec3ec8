//! The paper's four schemes and their Table I costs and security levels.

use std::fmt;

/// How strongly a scheme resists the paper's threat model (Table I,
/// "Security" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SecurityLevel {
    /// No resistance: state lives in attacker-readable memory.
    None,
    /// Weak: reduced-round AES leaks structure but the key is protected.
    Low,
    /// Strong: full AES-128 CTR or true randomness.
    High,
}

impl fmt::Display for SecurityLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SecurityLevel::None => "None",
            SecurityLevel::Low => "Low",
            SecurityLevel::High => "High",
        };
        f.write_str(s)
    }
}

/// The four random-number schemes evaluated by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Insecure memory-based PRNG (performance baseline only).
    Pseudo,
    /// AES-128 counter mode, 1 round.
    Aes1,
    /// AES-128 counter mode, 10 rounds (standard-conforming).
    Aes10,
    /// Per-invocation hardware true randomness (RDRAND).
    Rdrand,
}

impl SchemeKind {
    /// All schemes in the paper's Table I order.
    pub const ALL: [SchemeKind; 4] = [
        SchemeKind::Pseudo,
        SchemeKind::Aes1,
        SchemeKind::Aes10,
        SchemeKind::Rdrand,
    ];

    /// Per-invocation generation cost, in **deci-cycles** (tenths of a
    /// cycle), exactly matching paper Table I: pseudo 3.4, AES-1 19.2,
    /// AES-10 92.8, RDRAND 265.6 cycles per invocation.
    pub fn cost_decicycles(self) -> u64 {
        match self {
            SchemeKind::Pseudo => 34,
            SchemeKind::Aes1 => 192,
            SchemeKind::Aes10 => 928,
            SchemeKind::Rdrand => 2656,
        }
    }

    /// Per-invocation cost in cycles, as the paper reports it.
    pub fn cost_cycles(self) -> f64 {
        self.cost_decicycles() as f64 / 10.0
    }

    /// Security classification from Table I.
    pub fn security(self) -> SecurityLevel {
        match self {
            SchemeKind::Pseudo => SecurityLevel::None,
            SchemeKind::Aes1 => SecurityLevel::Low,
            SchemeKind::Aes10 | SchemeKind::Rdrand => SecurityLevel::High,
        }
    }

    /// Table I row label.
    pub fn label(self) -> &'static str {
        match self {
            SchemeKind::Pseudo => "pseudo",
            SchemeKind::Aes1 => "AES-1",
            SchemeKind::Aes10 => "AES-10",
            SchemeKind::Rdrand => "RDRAND",
        }
    }
}

impl fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_costs() {
        assert_eq!(SchemeKind::Pseudo.cost_cycles(), 3.4);
        assert_eq!(SchemeKind::Aes1.cost_cycles(), 19.2);
        assert_eq!(SchemeKind::Aes10.cost_cycles(), 92.8);
        assert_eq!(SchemeKind::Rdrand.cost_cycles(), 265.6);
    }

    #[test]
    fn table1_security() {
        assert_eq!(SchemeKind::Pseudo.security(), SecurityLevel::None);
        assert_eq!(SchemeKind::Aes1.security(), SecurityLevel::Low);
        assert_eq!(SchemeKind::Aes10.security(), SecurityLevel::High);
        assert_eq!(SchemeKind::Rdrand.security(), SecurityLevel::High);
    }

    #[test]
    fn ordering_matches_paper_table() {
        let labels: Vec<&str> = SchemeKind::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels, ["pseudo", "AES-1", "AES-10", "RDRAND"]);
        // Costs strictly increase down the table.
        let costs: Vec<u64> = SchemeKind::ALL
            .iter()
            .map(|s| s.cost_decicycles())
            .collect();
        assert!(costs.windows(2).all(|w| w[0] < w[1]));
    }
}
