//! # smokestack-attacks
//!
//! The data-oriented programming (DOP) attack framework used for the
//! paper's security evaluation (§II-C, §V-C): synthetic RIPE-style
//! overflows, the paper's Listing 1 gadget/dispatcher program, and
//! analogs of the three real-world exploits (librelp CVE-2018-1000140,
//! Wireshark CVE-2014-2299, ProFTPD CVE-2006-5815).
//!
//! Every attack is an [`Attack`]: a vulnerable MiniC program plus an
//! adversary strategy implemented as a VM input hook. The adversary
//! follows the paper's threat model — full read/write access to
//! writable memory at every input point, knowledge of the binary
//! (including the public, read-only P-BOX), ability to probe prior runs
//! of the same build, and a finite brute-force budget of restarts. What
//! it knows of a frame's layout is one [`intel::Knowledge`], the same
//! type for every attack: each states only its constants, its usability
//! test and its payload.
//!
//! [`run_trial`] runs one trial campaign of an attack against a
//! deployed [`Build`]; the `smokestack-campaign` engine runs trial
//! grids of them and bounds each cell's success rate with a Wilson
//! interval — the data behind the paper's penetration-test table.

#![warn(missing_docs)]

pub mod adaptive;
pub mod intel;
pub mod librelp;
pub mod listing1;
pub mod proftpd;
pub mod synth;
pub mod synthetic;
pub mod wireshark;
pub mod xthread;

use std::cell::{Cell, OnceCell};
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

use smokestack_defenses::{deploy_configured, DefenseKind, Deployment};
use smokestack_ir::Module;
use smokestack_minic::compile;
use smokestack_vm::{
    exit_class, ExecBackend, Executor, Exit, FaultKind, IncidentReport, RunOutcome, RunReport,
    SharedRecorder, Vm, VmConfig,
};

/// Outcome of one exploit attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttackOutcome {
    /// The attack achieved its goal (malicious computation / leak).
    Success(String),
    /// A deployed defense terminated the program (guard / canary).
    Detected(FaultKind),
    /// The program crashed without achieving the goal (a failed attempt
    /// the operator would notice as a service crash).
    Crashed(FaultKind),
    /// The program ran to completion but the goal was not achieved.
    Failed(String),
    /// The adversary reconnoitered and chose not to fire (stealthy: no
    /// corrupted input was ever sent, so the operator sees a normal
    /// session). Campaigns may retry after an abort.
    Aborted,
}

impl AttackOutcome {
    /// Whether this attempt achieved the attack goal.
    pub fn is_success(&self) -> bool {
        matches!(self, AttackOutcome::Success(_))
    }
}

impl fmt::Display for AttackOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttackOutcome::Success(e) => write!(f, "SUCCESS ({e})"),
            AttackOutcome::Detected(k) => write!(f, "DETECTED ({k})"),
            AttackOutcome::Crashed(k) => write!(f, "CRASHED ({k})"),
            AttackOutcome::Failed(r) => write!(f, "failed ({r})"),
            AttackOutcome::Aborted => write!(f, "aborted (stealthy)"),
        }
    }
}

/// A deployed build of a vulnerable program under some defense.
///
/// A `Build` is an [`Executor`] session plus deployment metadata: the
/// module is shared behind an [`Arc`] and the bytecode image is
/// compiled once per build, so cloning a `Build` (or spawning VMs from
/// it) never deep-copies or re-lowers the IR. Monte-Carlo campaigns
/// cheaply construct one build per worker thread and spawn thousands
/// of per-seed VMs from it.
#[derive(Clone)]
pub struct Build {
    /// Which defense was applied.
    pub defense: DefenseKind,
    /// Deployment metadata (Smokestack placements, etc.).
    pub deployment: Deployment,
    /// Compile-time seed used (drives static permutations/padding).
    pub build_seed: u64,
    /// The VM session: module, scheme, optional flight recorder,
    /// and the shared compiled bytecode image.
    executor: Executor,
    /// The same program built without defenses, compiled on first use
    /// (see [`Build::unprotected_twin`]).
    twin: OnceCell<Box<Build>>,
}

impl Build {
    /// Compile `src` and deploy `defense` over it.
    ///
    /// # Panics
    ///
    /// Panics if the source does not compile (the attack corpus is
    /// fixed) or the deployed module fails verification.
    pub fn new(src: &str, defense: DefenseKind, build_seed: u64) -> Build {
        Build::new_configured(
            src,
            defense,
            build_seed,
            &smokestack_core::SmokestackConfig::default(),
        )
    }

    /// [`Build::new`] with an explicit Smokestack configuration, so the
    /// security matrix can be re-run against variant pipelines (e.g.
    /// `prune_safe_slots`). Only affects `Smokestack(_)` defenses.
    ///
    /// # Panics
    ///
    /// Same as [`Build::new`].
    pub fn new_configured(
        src: &str,
        defense: DefenseKind,
        build_seed: u64,
        ss_cfg: &smokestack_core::SmokestackConfig,
    ) -> Build {
        let mut module = compile(src).unwrap_or_else(|e| panic!("attack program: {e}"));
        // The run_seed argument only matters for DefenseKind::StackBase,
        // whose offset is recomputed per trial in `vm_config`.
        let deployment = deploy_configured(defense, &mut module, build_seed, 0, ss_cfg);
        smokestack_ir::verify_module(&module).expect("deployed module verifies");
        Build::from_deployed(module, defense, deployment, build_seed)
    }

    /// Wrap an already-deployed module (hardened by hand rather than
    /// through [`deploy_configured`]) as a build.
    pub fn from_deployed(
        module: impl Into<Arc<Module>>,
        defense: DefenseKind,
        deployment: Deployment,
        build_seed: u64,
    ) -> Build {
        Build {
            executor: Executor::for_module(module)
                .scheme(defense.scheme())
                .build(),
            defense,
            deployment,
            build_seed,
            twin: OnceCell::new(),
        }
    }

    /// Attach a flight recorder to every VM this build spawns, so
    /// campaigns surface guard checks, faults, layout draws, and
    /// attacker input requests as structured events. Recording does
    /// not perturb the decicycle clock; [`capture_incident`] uses a
    /// recorder fork to re-derive a deciding attempt byte-for-byte.
    pub fn with_recorder(mut self, recorder: SharedRecorder) -> Build {
        self.executor = self.executor.with_recorder(recorder);
        self
    }

    /// Switch the build onto a different execution backend (differential
    /// testing runs the same attack under both engines).
    pub fn with_backend(mut self, backend: ExecBackend) -> Build {
        self.executor = self.executor.with_backend(backend);
        self
    }

    /// The hardened (or baseline) module.
    pub fn module(&self) -> &Arc<Module> {
        self.executor.module()
    }

    /// The underlying VM session (module + compiled image + recorder).
    pub fn executor(&self) -> &Executor {
        &self.executor
    }

    /// Per-run ASLR offset: only `DefenseKind::StackBase` re-draws the
    /// stack base each service restart. Public so resident-session
    /// servers can respawn a long-lived VM with exactly the offset a
    /// fresh [`Build::vm`] would have drawn.
    pub fn run_offset(&self, run_seed: u64) -> u64 {
        match self.defense {
            DefenseKind::StackBase => smokestack_defenses::stack_base_offset(run_seed, 1 << 20),
            _ => 0,
        }
    }

    /// VM configuration for one run of this build. Per-run randomness
    /// (TRNG seed, ASLR offset) is derived from `run_seed`.
    pub fn vm_config(&self, run_seed: u64) -> VmConfig {
        VmConfig {
            trng_seed: run_seed,
            stack_base_offset: self.run_offset(run_seed),
            ..self.executor.base_config()
        }
    }

    /// The program built from `src` with [`DefenseKind::None`] under this
    /// build's seed: the attacker's static knowledge of a layout that a
    /// defense hides. Compiled, verified and lowered once per build and
    /// reused by every later attempt; `src` must be the source this
    /// build was deployed from. Its layout does not depend on the run
    /// seed, so sharing it across attempts changes no outcome.
    ///
    /// # Panics
    ///
    /// Same as [`Build::new`].
    pub fn unprotected_twin(&self, src: &str) -> &Build {
        self.twin
            .get_or_init(|| Box::new(Build::new(src, DefenseKind::None, self.build_seed)))
    }

    /// Load address of the global `name`, read from the compiled image
    /// without spawning a VM (every VM of the build maps it there).
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a global of the program.
    pub fn global_addr(&self, name: &str) -> u64 {
        self.executor.compiled().global_addr(name)
    }

    /// A fresh VM for one run, sharing the build's compiled image.
    pub fn vm(&self, run_seed: u64) -> Vm {
        self.executor
            .vm_configured(run_seed, self.run_offset(run_seed))
    }
}

/// Classify a finished run against a goal predicate.
pub fn classify(out: &RunOutcome, goal_met: bool, goal_desc: &str) -> AttackOutcome {
    if goal_met {
        return AttackOutcome::Success(goal_desc.to_string());
    }
    match &out.exit {
        Exit::Fault(k @ (FaultKind::GuardViolation { .. } | FaultKind::CanarySmashed { .. })) => {
            AttackOutcome::Detected(k.clone())
        }
        Exit::Fault(k) => AttackOutcome::Crashed(k.clone()),
        _ => AttackOutcome::Failed("goal not achieved".into()),
    }
}

/// A one-shot flag shared between an adversary input closure and the
/// trial driver: the closure [`arm`](CommitFlag::arm)s it the moment it
/// sends corrupted bytes, and the driver reads it afterwards to tell a
/// committed miss from a stealthy reconnoiter.
#[derive(Debug, Clone, Default)]
pub struct CommitFlag(Rc<Cell<bool>>);

impl CommitFlag {
    /// A fresh, unset flag.
    pub fn new() -> CommitFlag {
        CommitFlag::default()
    }

    /// Mark the attempt as committed (corrupted input was sent).
    pub fn arm(&self) {
        self.0.set(true);
    }

    /// Whether the attempt committed.
    pub fn is_armed(&self) -> bool {
        self.0.get()
    }
}

/// Structured result of one exploit attempt: the classified outcome plus
/// the run evidence campaigns aggregate (commitment, canonical report).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialOutcome {
    /// The classified verdict, with the stealth rule already applied: a
    /// run that never committed corrupted input and did not reach the
    /// goal is an [`AttackOutcome::Aborted`] reconnoiter, whatever the
    /// program did on its own.
    pub outcome: AttackOutcome,
    /// Whether corrupted input was actually delivered.
    pub committed: bool,
    /// Canonical summary of the victim run (exit class, fault class,
    /// output, cost) — the same [`RunReport`] the fuzzer and campaign
    /// engine consume, so fault classes are derived exactly once.
    pub report: RunReport,
}

impl TrialOutcome {
    /// The plain verdict (what [`run_trial`] consumes).
    pub fn into_outcome(self) -> AttackOutcome {
        self.outcome
    }
}

/// Conclude one exploit attempt: classify the finished run against the
/// goal predicate and apply the shared stealth rule (an uncommitted,
/// unsuccessful attempt is an abort, not a failure). Every attack's
/// `attempt` funnels through here so the classification semantics are
/// defined once.
pub fn conclude(
    out: &RunOutcome,
    committed: &CommitFlag,
    goal_met: bool,
    goal_desc: &str,
) -> TrialOutcome {
    let mut outcome = classify(out, goal_met, goal_desc);
    if !committed.is_armed() && !outcome.is_success() {
        outcome = AttackOutcome::Aborted;
    }
    TrialOutcome {
        outcome,
        committed: committed.is_armed(),
        report: RunReport::from(out),
    }
}

/// One attack: program + adversary.
///
/// Implementations must be `Send + Sync` so campaign engines can share
/// one attack instance across worker threads; the standard suite is all
/// stateless unit structs, so this costs nothing.
pub trait Attack: Send + Sync {
    /// Short identifier used in report rows.
    fn name(&self) -> &str;

    /// The vulnerable MiniC program.
    fn source(&self) -> &str;

    /// Run one exploit attempt against `build` with per-trial entropy
    /// `trial_seed` (the paper's brute-force model: the service restarts
    /// with fresh randomness after every crash).
    fn attempt(&self, build: &Build, trial_seed: u64) -> AttackOutcome;
}

/// Restart budget per campaign (the paper's "finite number of attempts"
/// brute-force model): the adversary may stealthily reconnoiter and
/// restart, but the campaign ends at the first *noisy* attempt — a
/// success, a crash, or a defense detection.
pub const CAMPAIGN_BUDGET: u32 = 48;

/// The result of one full trial campaign, with the evidence Monte-Carlo
/// engines aggregate beyond the verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialRun {
    /// The deciding outcome of the campaign.
    pub outcome: AttackOutcome,
    /// Service restarts consumed, counting the deciding attempt
    /// (`1..=CAMPAIGN_BUDGET`); `CAMPAIGN_BUDGET` when the budget ran
    /// out without a favorable layout. Survival-curve analysis bins
    /// successes by this attempt count.
    pub rounds: u32,
}

/// One attack campaign: repeated runs of the service, retried only
/// while the adversary stays stealthy (aborts before corrupting
/// anything). The first committed attempt decides the campaign; the
/// [`TrialRun`] carries it with the number of restarts the adversary
/// consumed. The one trial entry point: campaign engines and unit
/// tests alike call it.
pub fn run_trial(attack: &dyn Attack, build: &Build, campaign_seed: u64) -> TrialRun {
    for r in 0..CAMPAIGN_BUDGET {
        let run_seed = campaign_seed
            .wrapping_mul(0xd1b54a32d192ed03)
            .wrapping_add(r as u64);
        match attack.attempt(build, run_seed) {
            AttackOutcome::Aborted => continue,
            decided => {
                return TrialRun {
                    outcome: decided,
                    rounds: r + 1,
                }
            }
        }
    }
    TrialRun {
        outcome: AttackOutcome::Failed(
            "campaign budget exhausted without a favorable layout".into(),
        ),
        rounds: CAMPAIGN_BUDGET,
    }
}

/// Source-level alloca names of a function, in instruction order, for
/// relabeling an incident frame map from the generic `slot<i>` names.
fn alloca_names(f: &smokestack_ir::Function) -> Vec<String> {
    let mut names = Vec::new();
    for block in &f.blocks {
        for inst in &block.insts {
            if let smokestack_ir::Inst::Alloca { name, .. } = inst {
                names.push(name.clone());
            }
        }
    }
    names
}

/// Re-run one trial campaign with a flight recorder attached and drain
/// the recorder into a structured [`IncidentReport`] when the deciding
/// attempt is blocked ([`AttackOutcome::Detected`] or
/// [`AttackOutcome::Crashed`]). Returns `None` when the campaign ends
/// any other way (success, clean failure, budget exhaustion).
///
/// The recorder declines the per-instruction cycle hook and event
/// emission charges nothing, so the recorded campaign replays the exact
/// seed schedule of [`run_trial`] and reaches the same deciding
/// attempt. Capturing twice from the same `(attack, build, seed)`
/// triple therefore yields byte-identical [`IncidentReport::to_json`]
/// output — the replay property the incident CI gate pins.
pub fn capture_incident(
    attack: &dyn Attack,
    build: &Build,
    campaign_seed: u64,
) -> Option<IncidentReport> {
    let recorder = SharedRecorder::default();
    let recorded = build.clone().with_recorder(recorder.clone());
    for r in 0..CAMPAIGN_BUDGET {
        let run_seed = campaign_seed
            .wrapping_mul(0xd1b54a32d192ed03)
            .wrapping_add(r as u64);
        let decided = match attack.attempt(&recorded, run_seed) {
            AttackOutcome::Aborted => continue,
            decided => decided,
        };
        let kind = match &decided {
            AttackOutcome::Detected(k) | AttackOutcome::Crashed(k) => k.clone(),
            _ => return None,
        };
        // Defense checks name their victim directly; memory faults fall
        // back to the recorder's own inference (failed guard → innermost
        // open frame → last entered function).
        let named_victim = match &kind {
            FaultKind::GuardViolation { func } | FaultKind::CanarySmashed { func } => {
                Some(func.clone())
            }
            _ => None,
        };
        let module = recorded.module();
        let victim_id = named_victim
            .as_deref()
            .and_then(|n| module.func_by_name(n))
            .map(|id| id.0);
        let mut report = recorder.with(|rec| {
            IncidentReport::from_recorder(
                rec,
                recorded.defense.scheme().label(),
                run_seed,
                &exit_class(&Exit::Fault(kind.clone())),
                kind.fault_access(),
                victim_id,
            )
        });
        // Relabel the frame map with source-level variable names when
        // the victim's IR allocas line up 1:1 with the recorded slots
        // (dynamic allocas can repeat, in which case the generic names
        // stay).
        if let Some(victim) = report.victim.clone() {
            if let Some(fid) = module.func_by_name(&victim) {
                let names = alloca_names(module.func(fid));
                if names.len() == report.frame_map.len() {
                    for (slot, name) in report.frame_map.iter_mut().zip(names) {
                        slot.name = name;
                    }
                }
            }
        }
        report.defense = Some(recorded.defense.label());
        report.attack = Some(attack.name().to_string());
        report.build_seed = Some(recorded.build_seed);
        report.campaign_seed = Some(campaign_seed);
        report.round = Some(r as u64);
        return Some(report);
    }
    None
}

/// Trial `t` of the campaign series seeded by `base_seed`: a build of
/// `attack` under `defense` with build seed `base_seed ^ 0xb11d`,
/// attacked at campaign seed `base_seed * φ64 + t + 1`. Unit tests
/// that pin one build's behaviour use it to name their builds.
#[cfg(test)]
pub(crate) fn seeded_trial(
    attack: &dyn Attack,
    defense: DefenseKind,
    base_seed: u64,
    t: u64,
) -> AttackOutcome {
    let build = Build::new(attack.source(), defense, base_seed ^ 0xb11d);
    let campaign_seed = base_seed
        .wrapping_mul(0x9e3779b97f4a7c15)
        .wrapping_add(t + 1);
    run_trial(attack, &build, campaign_seed).outcome
}

/// The standard attack suite in report order.
pub fn standard_suite() -> Vec<Box<dyn Attack>> {
    let mut suite: Vec<Box<dyn Attack>> = vec![Box::new(listing1::Listing1Attack)];
    for a in synthetic::all() {
        suite.push(a);
    }
    suite.push(Box::new(librelp::LibrelpAttack));
    suite.push(Box::new(wireshark::WiresharkAttack));
    suite.push(Box::new(proftpd::ProftpdAttack));
    suite
}

/// Look up an attack by its report-row name (the `name()` of every
/// member of [`standard_suite`], the adaptive extension, and the
/// `synth-*` synthesized catalog). Campaign plans reference attacks by
/// these names.
pub fn by_name(name: &str) -> Option<Box<dyn Attack>> {
    if name == "adaptive-same-invocation" || name == "adaptive" {
        return Some(Box::new(adaptive::AdaptiveAttack));
    }
    if name.starts_with("synth-") {
        return synth::by_name(name).map(|a| Box::new(a) as Box<dyn Attack>);
    }
    // The cross-thread pair extends the catalog without growing the
    // pinned standard suite.
    if name == "xthread-shared-overflow" {
        return Some(Box::new(xthread::SharedOverflowAttack));
    }
    if name == "xthread-toctou-race" {
        return Some(Box::new(xthread::ToctouRaceAttack));
    }
    standard_suite().into_iter().find(|a| a.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// A scripted attack whose per-run outcomes we control, to pin the
    /// campaign semantics (retry on abort; stop on anything noisy).
    /// Interior state sits behind a `Mutex` so the type satisfies the
    /// `Attack: Send + Sync` bound campaigns rely on.
    struct Scripted {
        outcomes: Mutex<Vec<AttackOutcome>>,
        calls: Mutex<u32>,
    }

    impl Attack for Scripted {
        fn name(&self) -> &str {
            "scripted"
        }
        fn source(&self) -> &str {
            "int main() { return 0; }"
        }
        fn attempt(&self, _build: &Build, _seed: u64) -> AttackOutcome {
            *self.calls.lock().unwrap() += 1;
            self.outcomes
                .lock()
                .unwrap()
                .pop()
                .unwrap_or(AttackOutcome::Aborted)
        }
    }

    fn scripted(mut seq: Vec<AttackOutcome>) -> Scripted {
        seq.reverse(); // popped from the back
        Scripted {
            outcomes: Mutex::new(seq),
            calls: Mutex::new(0),
        }
    }

    #[test]
    fn campaign_retries_through_aborts() {
        let a = scripted(vec![
            AttackOutcome::Aborted,
            AttackOutcome::Aborted,
            AttackOutcome::Success("got it".into()),
        ]);
        let build = Build::new(a.source(), DefenseKind::None, 1);
        let out = run_trial(&a, &build, 42).outcome;
        assert!(out.is_success());
        assert_eq!(*a.calls.lock().unwrap(), 3);
    }

    #[test]
    fn campaign_stops_at_first_noisy_attempt() {
        let a = scripted(vec![
            AttackOutcome::Aborted,
            AttackOutcome::Detected(FaultKind::StackOverflow),
            AttackOutcome::Success("never reached".into()),
        ]);
        let build = Build::new(a.source(), DefenseKind::None, 1);
        let out = run_trial(&a, &build, 42).outcome;
        assert!(matches!(out, AttackOutcome::Detected(_)));
        assert_eq!(*a.calls.lock().unwrap(), 2);
    }

    #[test]
    fn campaign_budget_bounds_aborts() {
        let a = scripted(vec![]); // aborts forever
        let build = Build::new(a.source(), DefenseKind::None, 1);
        let out = run_trial(&a, &build, 42).outcome;
        assert!(matches!(out, AttackOutcome::Failed(_)));
        assert_eq!(*a.calls.lock().unwrap(), CAMPAIGN_BUDGET);
    }

    #[test]
    fn classify_priorities() {
        let clean = RunOutcome {
            exit: Exit::Return(0),
            decicycles: 0,
            insts: 0,
            output: vec![],
            peak_rss: 0,
            max_call_depth: 0,
            rng_invocations: 0,
            breakdown: Default::default(),
            alloca_trace: vec![],
            sched_digest: 0,
        };
        // Goal met always wins, even over faults.
        let mut faulted = clean.clone();
        faulted.exit = Exit::Fault(FaultKind::GuardViolation { func: "f".into() });
        assert!(classify(&faulted, true, "done").is_success());
        // Guard/canary faults classify as Detected; others as Crashed.
        assert!(matches!(
            classify(&faulted, false, ""),
            AttackOutcome::Detected(_)
        ));
        let mut crashed = clean.clone();
        crashed.exit = Exit::Fault(FaultKind::DivByZero);
        assert!(matches!(
            classify(&crashed, false, ""),
            AttackOutcome::Crashed(_)
        ));
        assert!(matches!(
            classify(&clean, false, ""),
            AttackOutcome::Failed(_)
        ));
    }

    #[test]
    fn standard_suite_is_complete() {
        let names: Vec<String> = standard_suite()
            .iter()
            .map(|a| a.name().to_string())
            .collect();
        assert_eq!(names.len(), 8);
        assert!(names.iter().any(|n| n.contains("listing1")));
        assert!(names.iter().filter(|n| n.contains("synthetic")).count() == 4);
        assert!(names.iter().any(|n| n.contains("librelp")));
        assert!(names.iter().any(|n| n.contains("wireshark")));
        assert!(names.iter().any(|n| n.contains("proftpd")));
    }

    #[test]
    fn traced_evaluation_records_attack_evidence() {
        // A recorded campaign leaves a telemetry evidence trail: the
        // attacker's input requests and the epilogue guard checks of
        // the hardened build all appear in the shared recorder.
        let recorder = SharedRecorder::default();
        let attack = listing1::Listing1Attack;
        let defense = DefenseKind::Smokestack(smokestack_srng::SchemeKind::Aes10);
        let build =
            Build::new(attack.source(), defense, 42 ^ 0xb11d).with_recorder(recorder.clone());
        run_trial(&attack, &build, 42u64.wrapping_mul(0x9e3779b97f4a7c15) + 1);
        let m = recorder.with(|r| r.to_metrics());
        assert!(m.counter("input_requests") > 0, "no input events");
        let checks = m.counter("guard_checks.passed") + m.counter("guard_checks.failed");
        assert!(checks > 0, "no guard-check events traced");
        assert!(m.counter("runs") >= 1);
    }

    #[test]
    fn capture_incident_is_replayable_and_schema_valid() {
        let defense = DefenseKind::Smokestack(smokestack_srng::SchemeKind::Aes10);
        let attack = listing1::Listing1Attack;
        let build = Build::new(attack.source(), defense, 0xb11d);
        // Find a campaign the defense blocks, then capture it.
        let seed = (1..64)
            .find(|s| {
                matches!(
                    run_trial(&attack, &build, *s).outcome,
                    AttackOutcome::Detected(_)
                )
            })
            .expect("AES-10 Smokestack blocks some listing1 campaign");
        let report = capture_incident(&attack, &build, seed).expect("blocked => incident");
        assert_eq!(report.campaign_seed, Some(seed));
        assert_eq!(report.defense.as_deref(), Some(defense.label().as_str()));
        assert_eq!(report.attack.as_deref(), Some(attack.name()));
        assert!(report.victim.is_some(), "guard faults name their victim");
        assert!(!report.frame_map.is_empty(), "victim frame map captured");
        // Frame-map slots carry source-level names, not `slot<i>`.
        assert!(
            report.frame_map.iter().any(|s| !s.name.starts_with("slot")),
            "frame map not relabeled: {:?}",
            report.frame_map
        );
        // Schema-valid and byte-identical on replay from the same seeds.
        let json = report.to_json();
        IncidentReport::validate_json(&json).expect("schema-valid incident");
        let replay = capture_incident(&attack, &build, seed).unwrap();
        assert_eq!(replay.to_json(), json, "replay is byte-identical");
    }

    #[test]
    fn capture_incident_skips_successful_campaigns() {
        // An undefended build lets listing1 through: no incident.
        let attack = listing1::Listing1Attack;
        let build = Build::new(attack.source(), DefenseKind::None, 0xb11d);
        let seed = (1..64)
            .find(|s| run_trial(&attack, &build, *s).outcome.is_success())
            .expect("undefended listing1 succeeds");
        assert!(capture_incident(&attack, &build, seed).is_none());
    }

    #[test]
    fn build_vm_config_honors_defense() {
        let b = Build::new("int main() { return 0; }", DefenseKind::StackBase, 1);
        let c1 = b.vm_config(1);
        let c2 = b.vm_config(2);
        assert_ne!(c1.stack_base_offset, c2.stack_base_offset);
        let b2 = Build::new("int main() { return 0; }", DefenseKind::None, 1);
        assert_eq!(b2.vm_config(1).stack_base_offset, 0);
    }
}
