//! Declarative serve plans: how many tenants, how much traffic, which
//! defense fleets, and the master seed everything derives from.
//!
//! Like a campaign plan, a serve plan is the unit of reproducibility:
//! the same plan always produces the same request schedule and the same
//! per-request seeds, so aggregate stats are bit-identical across
//! `--jobs` settings.

use smokestack_defenses::DefenseKind;
use smokestack_srng::SchemeKind;

use crate::apps;

pub use smokestack_defenses::Fleet;

/// A full serve plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServePlan {
    /// Plan name (bench rows, reports).
    pub name: String,
    /// Master seed; the entire request schedule derives from it.
    pub master_seed: u64,
    /// Resident tenant sessions. Each tenant is pinned to one
    /// (fleet, app) cell by index.
    pub tenants: u32,
    /// Scheduled requests (the open-loop arrival sequence).
    pub requests: u64,
    /// Poison rate in parts per million: expected fraction of requests
    /// that carry an exploit attempt instead of benign traffic.
    pub poison_ppm: u32,
    /// Defense fleets the tenant population is striped across.
    pub fleets: Vec<Fleet>,
    /// Hosted app names (resolved via [`crate::apps::by_name`]).
    pub apps: Vec<String>,
}

impl ServePlan {
    /// Order-sensitive FNV-1a fingerprint of the whole plan (bench rows
    /// embed the master seed; journals embed this).
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        eat(self.name.as_bytes());
        eat(&self.master_seed.to_le_bytes());
        eat(&self.tenants.to_le_bytes());
        eat(&self.requests.to_le_bytes());
        eat(&self.poison_ppm.to_le_bytes());
        for fleet in &self.fleets {
            eat(fleet.label().as_bytes());
        }
        for app in &self.apps {
            eat(app.as_bytes());
        }
        h
    }

    /// The standard fleet lineup: unprotected baseline, the classic
    /// canary, both secure Smokestack schemes, and the pruning split.
    fn standard_fleets() -> Vec<Fleet> {
        vec![
            Fleet {
                defense: DefenseKind::None,
                pruned: false,
            },
            Fleet {
                defense: DefenseKind::Canary,
                pruned: false,
            },
            Fleet {
                defense: DefenseKind::Smokestack(SchemeKind::Aes10),
                pruned: false,
            },
            Fleet {
                defense: DefenseKind::Smokestack(SchemeKind::Rdrand),
                pruned: false,
            },
            Fleet {
                defense: DefenseKind::Smokestack(SchemeKind::Aes10),
                pruned: true,
            },
        ]
    }

    /// The CI smoke plan: small tenant count, short traffic run, a
    /// poison rate high enough that every fleet sees attack attempts.
    pub fn smoke() -> ServePlan {
        ServePlan {
            name: "smoke".into(),
            master_seed: 0x5e59_e5e5,
            tenants: 60,
            requests: 20_000,
            poison_ppm: 20_000, // 2%
            fleets: ServePlan::standard_fleets(),
            apps: apps::app_names().iter().map(|s| s.to_string()).collect(),
        }
    }

    /// The pinned load run behind `BENCH_serve.json`: ≥1,000 resident
    /// tenant sessions, ≥1M requests, paper-plausible 0.5% poison rate.
    pub fn load() -> ServePlan {
        ServePlan {
            name: "load".into(),
            master_seed: 0x10ad_f1ee,
            tenants: 1_050,
            requests: 1_000_000,
            poison_ppm: 5_000, // 0.5%
            fleets: ServePlan::standard_fleets(),
            apps: apps::app_names().iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Look up a built-in plan by name.
    pub fn builtin(name: &str) -> Option<ServePlan> {
        match name {
            "smoke" => Some(ServePlan::smoke()),
            "load" => Some(ServePlan::load()),
            _ => None,
        }
    }

    /// Parse a plan file. Line-oriented:
    ///
    /// ```text
    /// # comment
    /// name my-serve
    /// seed 0xabc
    /// tenants 256
    /// requests 100000
    /// poison-ppm 5000
    /// fleet none
    /// fleet smokestack/AES-10+prune
    /// app librelp
    /// ```
    ///
    /// Fleets and apps accumulate in order; unknown labels are rejected
    /// here, not at run time. Omitting every `app` line hosts the whole
    /// catalog.
    pub fn parse(text: &str) -> Result<ServePlan, String> {
        let mut plan = ServePlan {
            name: "unnamed".into(),
            master_seed: 0,
            tenants: 0,
            requests: 0,
            poison_ppm: 0,
            fleets: Vec::new(),
            apps: Vec::new(),
        };
        for (ln, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut words = line.split_whitespace();
            let keyword = words.next().expect("non-empty line");
            let err = |msg: String| format!("serve plan line {}: {msg}", ln + 1);
            let mut value = |name: &str| {
                words
                    .next()
                    .map(str::to_string)
                    .ok_or_else(|| err(format!("missing {name} value")))
            };
            let parse_u64 = |w: &str| {
                if let Some(hex) = w.strip_prefix("0x") {
                    u64::from_str_radix(hex, 16)
                } else {
                    w.parse()
                }
            };
            match keyword {
                "name" => plan.name = value("name")?,
                "seed" => {
                    let w = value("seed")?;
                    plan.master_seed = parse_u64(&w).map_err(|_| err(format!("bad seed `{w}`")))?;
                }
                "tenants" => {
                    let w = value("tenants")?;
                    plan.tenants = w.parse().map_err(|_| err(format!("bad tenants `{w}`")))?;
                }
                "requests" => {
                    let w = value("requests")?;
                    plan.requests = w.parse().map_err(|_| err(format!("bad requests `{w}`")))?;
                }
                "poison-ppm" => {
                    let w = value("poison-ppm")?;
                    plan.poison_ppm = w
                        .parse()
                        .map_err(|_| err(format!("bad poison-ppm `{w}`")))?;
                }
                "fleet" => {
                    let w = value("fleet")?;
                    let fleet =
                        Fleet::from_label(&w).ok_or_else(|| err(format!("unknown fleet `{w}`")))?;
                    plan.fleets.push(fleet);
                }
                "app" => {
                    let w = value("app")?;
                    if apps::by_name(&w).is_none() {
                        return Err(err(format!("unknown app `{w}`")));
                    }
                    plan.apps.push(w);
                }
                other => return Err(err(format!("unknown keyword `{other}`"))),
            }
            if let Some(extra) = words.next() {
                return Err(err(format!("trailing junk `{extra}`")));
            }
        }
        if plan.apps.is_empty() {
            plan.apps = apps::app_names().iter().map(|s| s.to_string()).collect();
        }
        if plan.fleets.is_empty() {
            return Err("serve plan has no fleets".into());
        }
        if plan.tenants == 0 {
            return Err("serve plan has no tenants".into());
        }
        if plan.requests == 0 {
            return Err("serve plan schedules no requests".into());
        }
        if plan.poison_ppm > 1_000_000 {
            return Err("poison-ppm exceeds 1000000".into());
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_labels_roundtrip() {
        for fleet in ServePlan::standard_fleets() {
            assert_eq!(Fleet::from_label(&fleet.label()), Some(fleet));
        }
        assert!(Fleet::from_label("nope").is_none());
        assert!(Fleet::from_label("none+prune").is_some());
    }

    #[test]
    fn parses_a_plan_file() {
        let plan = ServePlan::parse(
            "# demo\nname demo\nseed 0xabc\ntenants 8\nrequests 100\npoison-ppm 50000\n\
             fleet none\nfleet smokestack/AES-10+prune\napp librelp\n",
        )
        .unwrap();
        assert_eq!(plan.name, "demo");
        assert_eq!(plan.master_seed, 0xabc);
        assert_eq!(plan.tenants, 8);
        assert_eq!(plan.fleets.len(), 2);
        assert!(plan.fleets[1].pruned);
        assert_eq!(plan.apps, vec!["librelp"]);
    }

    #[test]
    fn rejects_bad_plans() {
        assert!(ServePlan::parse("tenants 4\nrequests 10\nfleet nope\n").is_err());
        assert!(ServePlan::parse("tenants 4\nrequests 10\napp nope\nfleet none\n").is_err());
        assert!(ServePlan::parse("tenants 4\nfleet none\n").is_err());
        assert!(ServePlan::parse("requests 4\nfleet none\n").is_err());
        assert!(ServePlan::parse("tenants 4\nrequests 10\n").is_err());
        assert!(
            ServePlan::parse("tenants 4\nrequests 10\npoison-ppm 2000000\nfleet none\n").is_err()
        );
    }

    #[test]
    fn builtins_resolve() {
        let smoke = ServePlan::builtin("smoke").unwrap();
        assert_eq!(smoke.name, "smoke");
        assert!(smoke.requests >= 10_000);
        let load = ServePlan::builtin("load").unwrap();
        assert!(load.tenants >= 1_000, "load must keep ≥1000 residents");
        assert!(load.requests >= 1_000_000, "load must serve ≥1M requests");
        assert!(ServePlan::builtin("nope").is_none());
        for plan in [smoke, load] {
            for fleet in &plan.fleets {
                assert_eq!(Fleet::from_label(&fleet.label()), Some(*fleet));
            }
            for app in &plan.apps {
                assert!(apps::by_name(app).is_some());
            }
        }
    }

    #[test]
    fn fingerprint_tracks_every_field() {
        let base = ServePlan::smoke();
        let mut renamed = base.clone();
        renamed.name = "other".into();
        let mut reseeded = base.clone();
        reseeded.master_seed ^= 1;
        let mut regrown = base.clone();
        regrown.tenants += 1;
        let mut repoisoned = base.clone();
        repoisoned.poison_ppm += 1;
        let prints = [
            base.fingerprint(),
            renamed.fingerprint(),
            reseeded.fingerprint(),
            regrown.fingerprint(),
            repoisoned.fingerprint(),
        ];
        for i in 0..prints.len() {
            for j in i + 1..prints.len() {
                assert_ne!(prints[i], prints[j], "plans {i} and {j} collide");
            }
        }
    }
}
