//! In-memory span recording for the traced run.
//!
//! A span is one call into a layer's public function, timed from the
//! benchmark's side of the call: name, optional tag (fleet, defense,
//! program), start, end, the enclosing span on the same thread, and the
//! request or trial id it belongs to. Spans go to a thread-local buffer
//! (no locking on the hot path) and are collected when each worker
//! finishes; nothing is written out until the run ends.
//!
//! Buffers are fixed-size blocks allocated before the traced work starts
//! (see [`preallocate`]). A span buffer that grew while the work ran
//! would share the allocator with the VM's segment allocations and, in
//! measurements on a 2-vCPU VM, doubled the cost of serve's attack
//! attempts.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashSet};
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Recording thread (dense, assigned on first use).
    pub thread: u32,
    /// Span id, unique within its thread.
    pub id: u32,
    /// The enclosing span on the same thread, if any.
    pub parent: Option<u32>,
    /// Layer call, e.g. `vm.request`.
    pub name: &'static str,
    /// Variant of the call (fleet, defense, program); empty if none.
    pub tag: &'static str,
    /// Request or trial id shared by every span of one unit of work.
    pub req: u64,
    /// Start, in ns since the process's trace epoch.
    pub start_ns: u64,
    /// End, in ns since the trace epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Spans per block (just under 1 MiB, far above the allocator's initial
/// mmap threshold, so blocks allocated up front are mapped on their own).
const BLOCK: usize = 16 * 1024;

/// A thread's spans, in recording order, in blocks of [`BLOCK`].
pub type Blocks = Vec<Vec<Span>>;

static POOL: Mutex<Blocks> = Mutex::new(Vec::new());

/// Allocate room for `spans` spans now, before any traced work runs.
pub fn preallocate(spans: usize) {
    let mut pool = POOL
        .lock()
        .expect("no thread panics holding the block pool");
    pool.extend((0..spans.div_ceil(BLOCK)).map(|_| Vec::with_capacity(BLOCK)));
}

/// Return blocks whose spans are no longer needed to the pool, so a
/// later traced phase does not allocate.
pub fn recycle(blocks: Blocks) {
    let mut pool = POOL
        .lock()
        .expect("no thread panics holding the block pool");
    pool.extend(blocks.into_iter().map(|mut b| {
        b.clear();
        b
    }));
}

fn new_block() -> Vec<Span> {
    POOL.lock()
        .expect("no thread panics holding the block pool")
        .pop()
        .unwrap_or_else(|| Vec::with_capacity(BLOCK))
}

#[derive(Default)]
struct Local {
    thread: Option<u32>,
    /// Id of the first buffered span: ids keep counting across drains,
    /// so spans of one thread never share an id.
    base: u32,
    blocks: Blocks,
    len: usize,
    open: Vec<u32>,
}

impl Local {
    fn get(&mut self, id: u32) -> &mut Span {
        let index = (id - self.base) as usize;
        &mut self.blocks[index / BLOCK][index % BLOCK]
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

/// Turn span recording on or off process-wide.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Intern a dynamic label as a `&'static str` (labels are few: fleet,
/// defense, and program names).
pub fn intern(label: &str) -> &'static str {
    static TABLE: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let mut table = TABLE
        .get_or_init(Default::default)
        .lock()
        .expect("no thread panics while holding the intern table");
    if let Some(&s) = table.get(label) {
        return s;
    }
    let s: &'static str = Box::leak(label.to_string().into_boxed_str());
    table.insert(s);
    s
}

/// Pass as `req` to take the enclosing span's request id.
pub const INHERIT: u64 = u64::MAX;

/// Run `f` inside a span `name`/`tag` for unit of work `req`. A no-op
/// wrapper when recording is off.
pub fn span<R>(name: &'static str, tag: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let id = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let thread = *l
            .thread
            .get_or_insert_with(|| NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        let id = l.base + l.len as u32;
        let parent = l.open.last().copied();
        let req = match parent {
            Some(p) if req == INHERIT => l.get(p).req,
            _ => req,
        };
        if l.blocks.last().is_none_or(|b| b.len() == BLOCK) {
            l.blocks.push(new_block());
        }
        l.len += 1;
        l.blocks.last_mut().expect("a block with room").push(Span {
            thread,
            id,
            parent,
            name,
            tag,
            req,
            start_ns: 0,
            end_ns: 0,
        });
        l.open.push(id);
        id
    });
    let start = epoch().elapsed().as_nanos() as u64;
    let out = f();
    let end = epoch().elapsed().as_nanos() as u64;
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.open.pop();
        let s = l.get(id);
        s.start_ns = start;
        s.end_ns = end;
    });
    out
}

/// Drain the calling thread's finished spans (call with no span open).
pub fn take_thread_spans() -> Blocks {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.base += l.len as u32;
        l.len = 0;
        std::mem::take(&mut l.blocks)
    })
}

/// Aggregate of every span sharing one `(name, tag)`.
#[derive(Debug, Clone, Default)]
pub struct LayerTime {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus direct children), ns.
    pub self_ns: u64,
    /// Every duration, ns (for percentiles).
    pub durations: Vec<u64>,
}

/// Self time per span: duration minus the part covered by its direct
/// children (children nest on the same thread, so they never overlap).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut index: BTreeMap<(u32, u32), usize> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        index.insert((s.thread, s.id), i);
    }
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| index.get(&(s.thread, p))) {
            own[*p] = own[*p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Group spans by `(name, tag)` with totals, self times and durations.
pub fn by_layer(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), LayerTime> {
    let own = self_times(spans);
    let mut out: BTreeMap<(&'static str, &'static str), LayerTime> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(own) {
        let e = out.entry((s.name, s.tag)).or_default();
        e.count += 1;
        e.total_ns += s.dur_ns();
        e.self_ns += self_ns;
        e.durations.push(s.dur_ns());
    }
    out
}

/// Write spans as JSON lines to `path`.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"thread\":{},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"tag\":\"{}\",\
             \"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.thread, s.id, s.name, s.tag, s.req, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(id: u32, parent: Option<u32>, start: u64, end: u64) -> Span {
        Span {
            thread: 0,
            id,
            parent,
            name: "x",
            tag: "",
            req: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            mk(0, None, 0, 100),
            mk(1, Some(0), 10, 40),
            mk(2, Some(1), 15, 25),
            mk(3, Some(0), 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 10, 10]);
    }
}
