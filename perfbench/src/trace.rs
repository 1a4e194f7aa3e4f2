//! In-memory span recording around the calls the replay makes into each
//! layer, and the self-time arithmetic the per-layer metrics derive from.
//!
//! The recorder is thread-local so that jobs the reactor polls on the
//! calling thread can open spans without capturing anything (wave jobs
//! must be `Send`). Spans opened on other threads land in those threads'
//! recorders and are not collected, so work done on socket host threads
//! stays inside the transport span that waits for it.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// No parent: a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// The span name, `<layer>.<step>`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch (equal to `start_ns` while open).
    pub end_ns: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// The query the work belongs to (the event's own id for
    /// non-arrival events).
    pub query: u64,
}

impl Span {
    /// The span's wall duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        enabled: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Handle of an open span; [`end`] closes it. A disabled recorder hands
/// out a handle that closes nothing.
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct Open(u32);

/// Clears the recorder and turns recording on or off.
pub fn reset(enabled: bool) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.enabled = enabled;
        r.epoch = Instant::now();
        r.spans.clear();
        r.open.clear();
    });
}

/// Opens a span under the innermost open span.
#[inline]
pub fn begin(name: &'static str, query: u64) -> Open {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return Open(ROOT);
        }
        let start_ns = r.epoch.elapsed().as_nanos() as u64;
        let parent = r.open.last().copied().unwrap_or(ROOT);
        let index = r.spans.len() as u32;
        r.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            query,
        });
        r.open.push(index);
        Open(index)
    })
}

/// Closes a span opened by [`begin`] (and any span left open inside it).
#[inline]
pub fn end(span: Open) {
    if span.0 == ROOT {
        return;
    }
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let end_ns = r.epoch.elapsed().as_nanos() as u64;
        r.spans[span.0 as usize].end_ns = end_ns;
        while let Some(top) = r.open.pop() {
            if top == span.0 {
                break;
            }
        }
    });
}

/// Runs `f` inside a span.
#[inline]
pub fn span<T>(name: &'static str, query: u64, f: impl FnOnce() -> T) -> T {
    let open = begin(name, query);
    let value = f();
    end(open);
    value
}

/// Takes the recorded spans out of this thread's recorder.
pub fn take() -> Vec<Span> {
    RECORDER.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children are clipped to the parent's
/// interval, and overlapping children are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if span.parent != ROOT {
            children[span.parent as usize].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            for (start, end) in kids {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per span name: (spans, total self time in ns).
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut totals: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let entry = totals.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += self_ns;
    }
    totals
}

/// Writes spans as tab-separated lines:
/// `index name start_ns end_ns parent query` (parent `-` for roots).
pub fn write_tsv(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    writeln!(out, "index\tname\tstart_ns\tend_ns\tparent\tquery")?;
    for (index, span) in spans.iter().enumerate() {
        let parent = if span.parent == ROOT {
            "-".to_string()
        } else {
            span.parent.to_string()
        };
        writeln!(
            out,
            "{index}\t{}\t{}\t{}\t{parent}\t{}",
            span.name, span.start_ns, span.end_ns, span.query
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn interval(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            query: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = [
            interval("arrival", 0, 100, ROOT),
            interval("agents.intent", 10, 40, 0),
            interval("core.score", 50, 70, 0),
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 20]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two children overlap on [30, 40): the union covers [20, 60).
        let spans = [
            interval("gather", 0, 100, ROOT),
            interval("a", 20, 40, 0),
            interval("b", 30, 60, 0),
        ];
        assert_eq!(self_times(&spans)[0], 60);
    }

    #[test]
    fn children_are_clipped_to_the_parent_interval() {
        // A child that starts before and ends after its parent covers
        // only the parent's own interval; self time never underflows.
        let spans = [
            interval("wave", 100, 200, ROOT),
            interval("job", 50, 150, 0),
            interval("late", 180, 400, 0),
        ];
        assert_eq!(self_times(&spans)[0], 30);
        let swallowed = [interval("wave", 100, 200, ROOT), interval("job", 0, 900, 0)];
        assert_eq!(self_times(&swallowed)[0], 0);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let spans = [
            interval("arrival", 0, 100, ROOT),
            interval("mediation.wave", 10, 90, 0),
            interval("agents.intent", 20, 50, 1),
        ];
        assert_eq!(self_times(&spans), vec![20, 50, 30]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["mediation.wave"], (1, 50));
    }

    #[test]
    fn recorder_nests_spans_and_stays_off_when_disabled() {
        reset(true);
        let outer = begin("outer", 1);
        span("inner", 1, || ());
        end(outer);
        let spans = take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, ROOT);
        assert_eq!(spans[1].parent, 0);
        assert!(spans[1].start_ns >= spans[0].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);

        reset(false);
        span("ignored", 2, || ());
        assert!(take().is_empty());
    }

    #[test]
    fn tsv_has_a_header_and_one_line_per_span() {
        let spans = [
            interval("arrival", 0, 10, ROOT),
            interval("core.score", 2, 5, 0),
        ];
        let mut out = Vec::new();
        write_tsv(&spans, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[1], "0\tarrival\t0\t10\t-\t0");
        assert_eq!(lines[2], "1\tcore.score\t2\t5\t0\t0");
    }
}
