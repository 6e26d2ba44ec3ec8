//! Differential tests between the two execution backends.
//!
//! The bytecode dispatcher is only allowed to exist because it is
//! observably identical to the reference interpreter: same output
//! events, same exit and fault classes, same cycle accounting, same
//! memory high-water marks. These tests pin that equivalence across
//! the full workload corpus, the attack suite under every defense row,
//! and a corpus of fuzz-generated programs — under every randomness
//! scheme.

use std::sync::Arc;

use smokestack_attacks::{by_name, run_trial, standard_suite, Build};
use smokestack_core::{harden, SmokestackConfig};
use smokestack_defenses::DefenseKind;
use smokestack_ir::Module;
use smokestack_srng::SchemeKind;
use smokestack_vm::{compiled_for, ExecBackend, Executor, RunOutcome, ScriptedInput};
use smokestack_workloads::all;

/// Run `main` once under `backend` with a replayable scripted input.
fn run_once(
    module: &Arc<Module>,
    scheme: SchemeKind,
    backend: ExecBackend,
    trng_seed: u64,
    inputs: &[Vec<u8>],
) -> RunOutcome {
    let exec = Executor::for_module(Arc::clone(module))
        .scheme(scheme)
        .backend(backend)
        .build();
    let mut input = ScriptedInput::new(inputs.iter().cloned());
    exec.run_main_seeded(trng_seed, &mut input)
}

/// Assert that two runs are observably identical (everything the rest
/// of the repo consumes: output, exit, cycle totals, instruction count,
/// memory and call-depth high-water marks, RNG draws, and the §V-A
/// cycle breakdown).
fn assert_identical(label: &str, interp: &RunOutcome, bytecode: &RunOutcome) {
    assert_eq!(interp.exit, bytecode.exit, "{label}: exit diverged");
    assert_eq!(interp.output, bytecode.output, "{label}: output diverged");
    assert_eq!(
        interp.decicycles, bytecode.decicycles,
        "{label}: cycle totals diverged"
    );
    assert_eq!(
        interp.insts, bytecode.insts,
        "{label}: inst counts diverged"
    );
    assert_eq!(
        interp.peak_rss, bytecode.peak_rss,
        "{label}: peak RSS diverged"
    );
    assert_eq!(
        interp.max_call_depth, bytecode.max_call_depth,
        "{label}: call depth diverged"
    );
    assert_eq!(
        interp.rng_invocations, bytecode.rng_invocations,
        "{label}: rng draws diverged"
    );
    assert_eq!(
        interp.breakdown, bytecode.breakdown,
        "{label}: cycle breakdown diverged"
    );
}

/// Differential check of one module under both backends.
fn check_module(label: &str, module: &Arc<Module>, scheme: SchemeKind, trng_seed: u64) {
    let interp = run_once(module, scheme, ExecBackend::Interp, trng_seed, &[]);
    let bytecode = run_once(module, scheme, ExecBackend::Bytecode, trng_seed, &[]);
    assert_identical(label, &interp, &bytecode);
}

/// Workload slice differential: unhardened plus hardened under every
/// Table I scheme. Split into shards so the corpus runs on multiple
/// test threads.
fn check_workload_shard(shard: usize, of: usize) {
    for (i, w) in all().iter().enumerate() {
        if i % of != shard {
            continue;
        }
        let base = Arc::new(w.compile().expect("workload compiles"));
        check_module(
            &format!("{} (unhardened)", w.name),
            &base,
            SchemeKind::Aes10,
            0xf00d + i as u64,
        );

        let mut hardened = (*base).clone();
        harden(&mut hardened, &SmokestackConfig::default()).expect("workload hardens");
        let hardened = Arc::new(hardened);
        for (si, scheme) in SchemeKind::ALL.into_iter().enumerate() {
            check_module(
                &format!("{} (hardened, {scheme:?})", w.name),
                &hardened,
                scheme,
                0xbead + (i * 31 + si) as u64,
            );
        }
    }
}

#[test]
fn workloads_identical_across_backends_shard0() {
    check_workload_shard(0, 4);
}

#[test]
fn workloads_identical_across_backends_shard1() {
    check_workload_shard(1, 4);
}

#[test]
fn workloads_identical_across_backends_shard2() {
    check_workload_shard(2, 4);
}

#[test]
fn workloads_identical_across_backends_shard3() {
    check_workload_shard(3, 4);
}

/// Threaded differential rows: the PARSEC-style trio × {unhardened
/// baseline, AES-10, RDRAND} × four scheduler seeds. The scheduler is
/// part of the deterministic machine, so each row must be bit-identical
/// between backends — output, decicycles, instruction counts, *and* the
/// schedule digest (the replay token for a threaded run).
#[test]
fn threaded_workloads_identical_across_backends_and_sched_seeds() {
    for w in smokestack_workloads::threaded_apps() {
        let base = Arc::new(w.compile().expect("workload compiles"));
        let mut hardened = (*base).clone();
        harden(&mut hardened, &SmokestackConfig::default()).expect("workload hardens");
        let hardened = Arc::new(hardened);
        let rows: [(&str, &Arc<Module>, SchemeKind); 3] = [
            ("baseline", &base, SchemeKind::Aes10),
            ("aes10", &hardened, SchemeKind::Aes10),
            ("rdrand", &hardened, SchemeKind::Rdrand),
        ];
        for (label, module, scheme) in rows {
            for sched_seed in [0u64, 1, 7, 0xfeed] {
                let run = |backend| {
                    Executor::for_module(Arc::clone(module))
                        .scheme(scheme)
                        .backend(backend)
                        .sched_seed(sched_seed)
                        .build()
                        .run_main_seeded(0x7d ^ sched_seed, &mut ScriptedInput::empty())
                };
                let interp = run(ExecBackend::Interp);
                let bytecode = run(ExecBackend::Bytecode);
                let tag = format!("{} ({label}, sched seed {sched_seed})", w.name);
                assert_identical(&tag, &interp, &bytecode);
                assert_eq!(
                    interp.sched_digest, bytecode.sched_digest,
                    "{tag}: schedule digest diverged"
                );
                assert_ne!(interp.sched_digest, 0, "{tag}: no schedule recorded");
            }
        }
    }
}

/// Every attack in the suite, against every defense row, must produce
/// the *same trial history* (outcome and restart count) whichever
/// engine runs the victim. Campaign seeds fan out deterministically
/// from the trial driver, so a single campaign per cell exercises up
/// to 48 exploit attempts.
fn check_attack_matrix(shard: usize, of: usize) {
    let mut suite = standard_suite();
    suite.push(by_name("adaptive-same-invocation").expect("adaptive attack registered"));
    for (ai, attack) in suite.iter().enumerate() {
        if ai % of != shard {
            continue;
        }
        for (di, defense) in DefenseKind::MATRIX.into_iter().enumerate() {
            let build_seed = 0xacce55 + (ai * 17 + di) as u64;
            let campaign_seed = 0x7a0 + di as u64;
            let build = Build::new(attack.source(), defense, build_seed);
            let interp_build = Build::from_deployed(
                Arc::clone(build.module()),
                build.defense,
                build.deployment.clone(),
                build.build_seed,
            )
            .with_backend(ExecBackend::Interp);
            let a = run_trial(attack.as_ref(), &build, campaign_seed);
            let b = run_trial(attack.as_ref(), &interp_build, campaign_seed);
            assert_eq!(
                a,
                b,
                "{} vs {}: trial diverged between backends",
                attack.name(),
                defense.label()
            );
        }
    }
}

#[test]
fn attacks_identical_across_backends_shard0() {
    check_attack_matrix(0, 3);
}

#[test]
fn attacks_identical_across_backends_shard1() {
    check_attack_matrix(1, 3);
}

#[test]
fn attacks_identical_across_backends_shard2() {
    check_attack_matrix(2, 3);
}

/// 256 fuzz-generated programs × two schemes: the property-test
/// satellite. Uses the fuzz generator's deterministic seeds so every
/// failure reproduces offline.
#[test]
fn fuzz_corpus_identical_across_backends() {
    let seeds = if cfg!(feature = "external-testing") {
        0..512u64
    } else {
        0..256u64
    };
    for seed in seeds {
        let case = smokestack_fuzz::gen::generate(seed);
        let base = match smokestack_minic::compile(&case.source) {
            Ok(m) => Arc::new(m),
            Err(_) => continue,
        };
        let mut hardened = (*base).clone();
        harden(&mut hardened, &SmokestackConfig::default()).expect("fuzz case hardens");
        let hardened = Arc::new(hardened);
        for scheme in [SchemeKind::Pseudo, SchemeKind::Aes10] {
            for module in [&base, &hardened] {
                let interp = run_once(module, scheme, ExecBackend::Interp, seed, &case.inputs);
                let bytecode = run_once(module, scheme, ExecBackend::Bytecode, seed, &case.inputs);
                assert_identical(
                    &format!("fuzz seed {seed} ({scheme:?})"),
                    &interp,
                    &bytecode,
                );
            }
        }
    }
}

/// The flight recorder is forbidden from perturbing the run it
/// records: with a recorder attached, each backend must report the
/// exact same outcome as its plain run, and the two recorded backends
/// must still agree with each other. This is the property that lets
/// incident capture replay a campaign bit-for-bit and lets the
/// recorder stay always-on in production runs.
#[test]
fn recorder_never_perturbs_either_backend() {
    use smokestack_vm::SharedRecorder;
    for (i, w) in all().iter().enumerate().take(4) {
        let mut m = w.compile().expect("workload compiles");
        harden(&mut m, &SmokestackConfig::default()).expect("workload hardens");
        let module = Arc::new(m);
        let seed = 0x5eed + i as u64;
        let recorder = SharedRecorder::default();
        let mut recorded_runs = Vec::new();
        for backend in [ExecBackend::Interp, ExecBackend::Bytecode] {
            let plain = run_once(&module, SchemeKind::Aes10, backend, seed, &[]);
            let traced = Executor::for_module(Arc::clone(&module))
                .scheme(SchemeKind::Aes10)
                .backend(backend)
                .recorder(recorder.clone())
                .build()
                .run_main_seeded(seed, &mut ScriptedInput::new(std::iter::empty::<Vec<u8>>()));
            assert_identical(
                &format!("{} ({backend:?}, recorder on)", w.name),
                &plain,
                &traced,
            );
            recorded_runs.push(traced);
        }
        assert_identical(
            &format!("{} (recorded, interp vs bytecode)", w.name),
            &recorded_runs[0],
            &recorded_runs[1],
        );
        // And the recorder actually saw the runs it was attached to.
        recorder.with(|rec| {
            assert!(
                rec.stats().run_decicycles.count() >= 2,
                "{}: recorder observed no runs",
                w.name
            );
        });
    }
}

/// A resident [`smokestack_vm::Session`] — one long-lived VM respawned
/// per request — must be observably identical to freshly spawned VMs,
/// across workloads, schemes, and both backends. This is the property
/// the serve fleet's thousands of resident tenant sessions rest on: no
/// state from one request (memory, heap allocator, RNG, telemetry
/// counters) may leak into the next.
#[test]
fn resident_sessions_identical_to_fresh_vms() {
    for (i, w) in all().iter().enumerate().take(6) {
        let mut m = w.compile().expect("workload compiles");
        harden(&mut m, &SmokestackConfig::default()).expect("workload hardens");
        let module = Arc::new(m);
        for backend in [ExecBackend::Interp, ExecBackend::Bytecode] {
            for scheme in SchemeKind::ALL {
                let exec = Executor::for_module(Arc::clone(&module))
                    .scheme(scheme)
                    .backend(backend)
                    .build();
                let mut session = exec.session();
                // Interleaved seeds including a repeat, so state leaking
                // from one request into the next would be caught.
                for (j, seed) in [3u64, 0xbeef + i as u64, 3, 77].into_iter().enumerate() {
                    let mut input = ScriptedInput::empty();
                    let resident = session.run_main_seeded(seed, &mut input);
                    let mut input = ScriptedInput::empty();
                    let fresh = exec.run_main_seeded(seed, &mut input);
                    assert_identical(
                        &format!("{} ({backend:?}, {scheme:?}, request {j})", w.name),
                        &fresh,
                        &resident,
                    );
                }
            }
        }
    }
}

/// Resident sessions under per-request stack-base offsets (the ASLR
/// baseline re-draws the base each service restart) must match fresh
/// VMs configured the same way.
#[test]
fn resident_sessions_respect_per_request_stack_offsets() {
    let w = &all()[1];
    let mut m = w.compile().expect("workload compiles");
    harden(&mut m, &SmokestackConfig::default()).expect("workload hardens");
    let module = Arc::new(m);
    let exec = Executor::for_module(Arc::clone(&module))
        .scheme(SchemeKind::Aes10)
        .build();
    let mut session = exec.session();
    for seed in [1u64, 9, 1] {
        let offset = smokestack_defenses::stack_base_offset(seed, 1 << 20);
        let mut input = ScriptedInput::empty();
        let resident = session.run_main_configured(seed, offset, &mut input);
        let mut input = ScriptedInput::empty();
        let fresh = exec.vm_configured(seed, offset).run_main_with(&mut input);
        assert_identical(
            &format!("{} (offset {offset:#x})", w.name),
            &fresh,
            &resident,
        );
    }
}

/// The process-wide compiled-module cache must return the *same* image
/// for the same module and distinct images for distinct modules, even
/// when their contents are equal.
#[test]
fn compiled_cache_is_keyed_by_module() {
    let w = &all()[0];
    let m = Arc::new(w.compile().unwrap());
    let a = compiled_for(&m);
    let b = compiled_for(&m);
    assert!(Arc::ptr_eq(&a, &b), "one module must share the image");

    let twin = Arc::new(w.compile().unwrap());
    let c = compiled_for(&twin);
    assert!(
        !Arc::ptr_eq(&a, &c),
        "distinct modules must not share an image"
    );

    // Executor sessions route through the same cache.
    let exec = Executor::for_module(Arc::clone(&m)).build();
    assert!(Arc::ptr_eq(&a, &exec.compiled()));
}

/// Run a hand-built module's `main` under both backends, assert the two
/// runs are identical, and return the interpreter's.
fn run_both(label: &str, module: smokestack_ir::Module) -> RunOutcome {
    let module = Arc::new(module);
    let interp = run_once(&module, SchemeKind::Aes10, ExecBackend::Interp, 1, &[]);
    let bytecode = run_once(&module, SchemeKind::Aes10, ExecBackend::Bytecode, 1, &[]);
    assert_identical(label, &interp, &bytecode);
    assert_eq!(
        interp.sched_digest, bytecode.sched_digest,
        "{label}: schedule"
    );
    interp
}

/// Unbounded recursion that never allocates stack still stops at the
/// call-depth cap, as a stack overflow, at the same instruction on both
/// backends.
#[test]
fn call_depth_cap_faults_identically_without_allocas() {
    use smokestack_ir::{Builder, FuncId, Function, Type, Value};
    use smokestack_vm::{Exit, FaultKind};

    let mut m = Module::new();
    let rec_id = FuncId(0);
    let mut rec = Function::new("rec", vec![Type::I64], Type::I64);
    {
        let mut b = Builder::new(&mut rec);
        let n = b.add64(Value::Reg(smokestack_ir::RegId(0)), Value::i64(1));
        let r = b.call(rec_id, Type::I64, vec![n.into()]).unwrap();
        b.ret(Some(r.into()));
    }
    assert_eq!(m.add_func(rec), rec_id);
    let mut main = Function::new("main", vec![], Type::I64);
    {
        let mut b = Builder::new(&mut main);
        let r = b.call(rec_id, Type::I64, vec![Value::i64(0)]).unwrap();
        b.ret(Some(r.into()));
    }
    m.add_func(main);
    smokestack_ir::assert_verified(&m);

    let out = run_both("depth cap", m);
    assert_eq!(out.exit, Exit::Fault(FaultKind::StackOverflow));
    assert_eq!(out.max_call_depth, 100_000);
}

/// An indirect call through a valid function address with the wrong
/// number of arguments is a bad indirect call on both backends.
#[test]
fn indirect_call_arity_mismatch_faults_identically() {
    use smokestack_ir::{Builder, Function, Type, Value};
    use smokestack_vm::{Exit, FaultKind};

    let mut m = Module::new();
    let mut cb = Function::new("takes_one", vec![Type::I64], Type::I64);
    Builder::new(&mut cb).ret(Some(Value::i64(5)));
    let cb = m.add_func(cb);
    let mut main = Function::new("main", vec![], Type::I64);
    {
        // Route the pointer through memory so only the runtime sees it.
        let mut b = Builder::new(&mut main);
        let slot = b.alloca(Type::Ptr, "fp");
        b.store(Type::Ptr, Value::Func(cb), slot.into());
        let fp = b.load(Type::Ptr, slot.into());
        let r = b.call_indirect(fp.into(), Type::I64, vec![]).unwrap();
        b.ret(Some(r.into()));
    }
    m.add_func(main);

    let out = run_both("indirect arity", m);
    assert!(
        matches!(out.exit, Exit::Fault(FaultKind::BadIndirectCall(_))),
        "{:?}",
        out.exit
    );
}

/// A spawned thread whose alloca runs past the bottom of its stack slab
/// overflows — and ends the run — identically on both backends.
#[test]
fn worker_alloca_past_its_slab_faults_identically() {
    use smokestack_ir::{Builder, Function, Intrinsic, Type, Value};
    use smokestack_vm::{Exit, FaultKind, THREAD_SLAB};

    let mut m = Module::new();
    let mut worker = Function::new("worker", vec![Type::I64], Type::I64);
    {
        let mut b = Builder::new(&mut worker);
        let big = b.alloca(Type::array(Type::I8, THREAD_SLAB + 16), "big");
        b.store(Type::I64, Value::i64(1), big.into());
        b.ret(Some(Value::i64(0)));
    }
    let worker = m.add_func(worker);
    let mut main = Function::new("main", vec![], Type::I64);
    {
        let mut b = Builder::new(&mut main);
        let tid = b
            .call_intrinsic(Intrinsic::Spawn, vec![Value::Func(worker), Value::i64(0)])
            .unwrap();
        let r = b.call_intrinsic(Intrinsic::Join, vec![tid.into()]).unwrap();
        b.ret(Some(r.into()));
    }
    m.add_func(main);
    smokestack_ir::assert_verified(&m);

    let out = run_both("worker slab overflow", m);
    assert_eq!(out.exit, Exit::Fault(FaultKind::StackOverflow));
    assert_ne!(out.sched_digest, 0, "the worker never ran");
}
