//! A thread-shareable, line-atomic JSONL sink for concurrent producers
//! (campaign and serve journals).

use std::io::{self, Write};
use std::sync::{Arc, Mutex};

/// Flush threshold for the line buffer. Large enough to amortize
/// syscalls across many journal records, small enough that a crash
/// loses at most ~one batch of buffered (but always *complete*) lines.
const LINE_BUF_CAP: usize = 64 * 1024;

/// Whole-line buffered journal writer: the backbone of
/// [`SharedJsonlSink`].
///
/// A plain `BufWriter` spills whenever its byte buffer fills — possibly
/// *mid-line*, so a crash (or a reader racing the writer) can observe a
/// torn, unparseable record at the journal tail. `LineJournal` instead
/// accumulates complete `line + '\n'` units and hands the underlying
/// writer only whole-line batches: every `write_all` it issues ends at
/// a line boundary. Dropping the journal flushes whatever is buffered.
struct LineJournal<W: Write> {
    /// `None` only after `finish()` moved the writer out.
    writer: Option<W>,
    /// Pending bytes; always a whole number of lines.
    buf: Vec<u8>,
    written: u64,
    error: Option<io::Error>,
}

impl<W: Write> LineJournal<W> {
    fn new(writer: W) -> LineJournal<W> {
        LineJournal {
            writer: Some(writer),
            buf: Vec::with_capacity(LINE_BUF_CAP),
            written: 0,
            error: None,
        }
    }

    /// Buffer one line (no trailing newline); spills whole lines once
    /// the buffer crosses [`LINE_BUF_CAP`].
    fn push_line(&mut self, line: &str) {
        if self.error.is_some() {
            return;
        }
        self.buf.extend_from_slice(line.as_bytes());
        self.buf.push(b'\n');
        self.written += 1;
        if self.buf.len() >= LINE_BUF_CAP {
            self.spill();
        }
    }

    /// Push buffered lines down to the writer (no writer flush).
    fn spill(&mut self) {
        if self.error.is_some() || self.buf.is_empty() {
            return;
        }
        if let Some(w) = self.writer.as_mut() {
            if let Err(e) = w.write_all(&self.buf) {
                self.error = Some(e);
            }
        }
        self.buf.clear();
    }

    /// Spill and flush through to the underlying writer.
    fn flush(&mut self) -> io::Result<()> {
        self.spill();
        if let Some(e) = &self.error {
            return Err(io::Error::new(e.kind(), e.to_string()));
        }
        match self.writer.as_mut() {
            Some(w) => w.flush(),
            None => Ok(()),
        }
    }

    /// Flush and return the writer (or the sticky error).
    fn finish(mut self) -> io::Result<W> {
        self.spill();
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        let mut w = self.writer.take().expect("writer present until finish");
        w.flush()?;
        Ok(w)
    }
}

impl<W: Write> Drop for LineJournal<W> {
    fn drop(&mut self) {
        // Best-effort flush so buffered lines survive an orderly drop;
        // errors here have nowhere to go.
        let _ = self.flush();
    }
}

/// A line-atomic JSONL sink that is safe to share across worker
/// threads.
///
/// Monte-Carlo campaigns and the multi-tenant server need every worker
/// streaming records into one journal. `SharedJsonlSink` wraps a [`LineJournal`]
/// in an `Arc<Mutex<_>>`: clones are cheap handles to the same journal,
/// the lock is held per line (format outside, buffer inside), and bytes
/// reach the underlying writer only in whole-line batches — a reader
/// tailing the journal (or a post-crash recovery pass) never sees a
/// torn record. Buffered lines are flushed by [`SharedJsonlSink::flush`]
/// (checkpointing), by [`SharedJsonlSink::finish`], and automatically
/// when the last handle drops. Write errors are sticky: the first one
/// is retained and every later line is dropped.
pub struct SharedJsonlSink<W: Write + Send> {
    inner: Arc<Mutex<LineJournal<W>>>,
}

impl<W: Write + Send> Clone for SharedJsonlSink<W> {
    fn clone(&self) -> Self {
        SharedJsonlSink {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<W: Write + Send> SharedJsonlSink<W> {
    /// Wrap a writer (line-buffered internally).
    pub fn new(writer: W) -> SharedJsonlSink<W> {
        SharedJsonlSink {
            inner: Arc::new(Mutex::new(LineJournal::new(writer))),
        }
    }

    /// Write one pre-formatted JSON line (without trailing newline).
    /// The mutex is held only for the buffer append.
    pub fn write_line(&self, line: &str) {
        self.inner.lock().unwrap().push_line(line);
    }

    /// Lines accepted so far (across all handles). With buffering, a
    /// line is counted when accepted; it is durable after the next
    /// [`flush`](SharedJsonlSink::flush).
    pub fn written(&self) -> u64 {
        self.inner.lock().unwrap().written
    }

    /// Whether a write error has occurred (it is sticky).
    pub fn has_error(&self) -> bool {
        self.inner.lock().unwrap().error.is_some()
    }

    /// Flush buffered lines through to the underlying writer without
    /// consuming the sink (checkpointing: the journal on disk is
    /// complete up to every record written so far).
    pub fn flush(&self) -> io::Result<()> {
        self.inner.lock().unwrap().flush()
    }

    /// Flush and return the inner writer, or the sticky error. Fails if
    /// other handles are still alive.
    pub fn finish(self) -> io::Result<W> {
        Arc::try_unwrap(self.inner)
            .map_err(|_| io::Error::other("SharedJsonlSink handles still alive"))?
            .into_inner()
            .unwrap()
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, TracedEvent};
    use crate::recorder::{FlightRecorder, RecorderConfig};

    fn names() -> Vec<String> {
        vec!["main".to_string()]
    }

    /// Journal every event a recorder retains, one JSON line each.
    fn journal(r: &FlightRecorder) -> String {
        let sink = SharedJsonlSink::new(Vec::new());
        for ev in r.events() {
            sink.write_line(&ev.to_json(r.names()));
        }
        String::from_utf8(sink.finish().unwrap()).unwrap()
    }

    #[test]
    fn jsonl_round_trips_through_ring() {
        let mut r = FlightRecorder::new(RecorderConfig { ring_capacity: 16 });
        r.on_functions(&names());
        r.on_event(
            &[5, 0, 0, 0, 0, 0],
            &Event::RngDraw {
                scheme: "AES-1",
                cost_decicycles: 192,
            },
        );
        r.on_event(&[5, 0, 4, 0, 0, 0], &Event::FuncEnter { func: 0, depth: 1 });

        let text = journal(&r);
        let parsed: Vec<TracedEvent> = text
            .lines()
            .map(|l| TracedEvent::from_json(l, &names()).unwrap())
            .collect();
        assert_eq!(parsed, r.events());
        assert_eq!(parsed[1].now, 9);
    }

    #[test]
    fn wrapped_window_journals_oldest_first() {
        let mut r = FlightRecorder::new(RecorderConfig { ring_capacity: 4 });
        r.on_functions(&names());
        for i in 0..6 {
            r.on_event(
                &[i, 0, 0, 0, 0, 0],
                &Event::InputRequest { index: i, bytes: 1 },
            );
        }
        let seqs: Vec<u64> = journal(&r)
            .lines()
            .map(|l| TracedEvent::from_json(l, &names()).unwrap().seq)
            .collect();
        assert_eq!(seqs, vec![2, 3, 4, 5]);
    }

    struct FailingWriter;
    impl Write for FailingWriter {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(io::Error::other("disk full"))
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Records the byte chunks of every `write` call, so tests can
    /// assert each chunk ends at a line boundary. Clonable so a copy
    /// survives the sink being dropped.
    #[derive(Clone, Default)]
    struct ChunkWriter {
        chunks: Arc<Mutex<Vec<Vec<u8>>>>,
        flushes: Arc<Mutex<u64>>,
    }

    impl ChunkWriter {
        fn contents(&self) -> Vec<u8> {
            self.chunks.lock().unwrap().concat()
        }
    }

    impl Write for ChunkWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.chunks.lock().unwrap().push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            *self.flushes.lock().unwrap() += 1;
            Ok(())
        }
    }

    #[test]
    fn shared_sink_serializes_concurrent_writers() {
        // N threads hammer one shared sink; every line must arrive
        // intact (no interleaving) and the total count must match.
        let sink = SharedJsonlSink::new(Vec::new());
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let handle = sink.clone();
                scope.spawn(move || {
                    for i in 0..50u64 {
                        handle.write_line(&format!("{{\"t\":{t},\"i\":{i}}}"));
                    }
                });
            }
        });
        assert_eq!(sink.written(), 200);
        let bytes = sink.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let mut per_thread = [0u32; 4];
        for line in text.lines() {
            let obj = crate::json::parse_flat_object(line).expect("intact line");
            per_thread[obj["t"].as_u64().unwrap() as usize] += 1;
        }
        assert_eq!(per_thread, [50; 4]);
    }

    #[test]
    fn write_errors_are_sticky() {
        // Enough lines to force a spill: the first failed spill drops
        // its batch, and every line after it is refused.
        let sink = SharedJsonlSink::new(FailingWriter);
        let line = format!("{{\"pad\":\"{}\"}}", "x".repeat(1000));
        let mut accepted = 0;
        while !sink.has_error() {
            sink.write_line(&line);
            accepted += 1;
        }
        assert_eq!(sink.written(), accepted);
        sink.write_line(&line);
        sink.write_line(&line);
        assert_eq!(
            sink.written(),
            accepted,
            "lines after the error are dropped"
        );
        assert!(sink.finish().is_err());
    }

    #[test]
    fn shared_sink_errors_surface_on_flush_and_stick() {
        let sink = SharedJsonlSink::new(FailingWriter);
        sink.write_line("{\"a\":1}");
        assert!(!sink.has_error(), "error cannot fire before any spill");
        assert!(sink.flush().is_err());
        assert!(sink.has_error());
        assert!(sink.flush().is_err());
        assert!(sink.finish().is_err());
    }

    #[test]
    fn every_chunk_reaching_the_writer_ends_at_a_line_boundary() {
        // Push well past the spill threshold so mid-stream spills
        // happen, then verify no write ever split a line.
        let writer = ChunkWriter::default();
        let sink = SharedJsonlSink::new(writer.clone());
        let line = format!("{{\"pad\":\"{}\"}}", "x".repeat(1000));
        for _ in 0..200 {
            sink.write_line(&line);
        }
        sink.finish().unwrap();

        let chunks = writer.chunks.lock().unwrap();
        assert!(chunks.len() >= 2, "expected multiple spills");
        for chunk in chunks.iter() {
            assert_eq!(
                chunk.last(),
                Some(&b'\n'),
                "torn write: chunk ends mid-line"
            );
        }
        drop(chunks);
        assert_eq!(writer.contents().split(|&b| b == b'\n').count() - 1, 200);
    }

    #[test]
    fn dropping_the_last_handle_flushes_buffered_lines() {
        let writer = ChunkWriter::default();
        let sink = SharedJsonlSink::new(writer.clone());
        let handle = sink.clone();
        handle.write_line("{\"kept\":true}");
        drop(handle);
        // Still buffered: one live handle, below the spill threshold.
        assert_eq!(writer.contents().len(), 0);
        drop(sink);
        let text = String::from_utf8(writer.contents()).unwrap();
        assert_eq!(text, "{\"kept\":true}\n");
        assert!(*writer.flushes.lock().unwrap() >= 1);
    }
}
