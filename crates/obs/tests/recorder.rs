//! Integration tests: the JSONL sink round-trip and global-recorder
//! behavior exercised the way binaries use them.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use htforge_obs::{parse_json, InMemorySink, Json, JsonlSink, Recorder, RunReport};

/// A `Write` impl backed by a shared buffer, so the test can read what
/// the JSONL sink wrote.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn jsonl_sink_round_trips_through_the_parser() {
    let rec = Recorder::new();
    rec.enable();
    let buf = SharedBuf::default();
    rec.add_sink(Box::new(JsonlSink::new(Box::new(buf.clone()))));

    let outer = rec.span("compat_graph");
    rec.span("podem").finish();
    outer.finish();
    rec.counter("podem.backtracks").add(17);
    rec.flush();

    let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(
        lines.len(),
        2,
        "one line per span, no metric lines:\n{text}"
    );

    let docs: Vec<Json> = lines.iter().map(|l| parse_json(l).unwrap()).collect();
    assert_eq!(docs[0].get("t").unwrap().as_str(), Some("span"));
    assert_eq!(docs[0].get("name").unwrap().as_str(), Some("podem"));
    // The inner span's parent is the outer span's id.
    assert_eq!(
        docs[0].get("parent").unwrap().as_u64(),
        docs[1].get("id").unwrap().as_u64()
    );
    assert_eq!(docs[1].get("t").unwrap().as_str(), Some("span"));
    assert_eq!(docs[1].get("name").unwrap().as_str(), Some("compat_graph"));
    assert_eq!(docs[1].get("parent"), Some(&Json::Null));
}

#[test]
fn spans_complete_in_lifo_order_with_correct_nesting() {
    let rec = Recorder::new();
    rec.enable();
    let a = rec.span("a");
    let b = rec.span("b");
    let c = rec.span("c");
    c.finish();
    b.finish();
    rec.span("d").finish();
    a.finish();

    let spans = rec.spans();
    let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, ["c", "b", "d", "a"], "completion order");
    let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
    assert_eq!(by_name("c").parent, Some(by_name("b").id));
    assert_eq!(by_name("b").parent, Some(by_name("a").id));
    // `d` starts after b/c closed: its parent is `a`, not `b`.
    assert_eq!(by_name("d").parent, Some(by_name("a").id));
    assert_eq!(by_name("a").parent, None);
    // Start offsets are monotone in id order.
    for pair in spans.windows(2) {
        if pair[0].id < pair[1].id {
            assert!(pair[0].start_ns <= pair[1].start_ns);
        }
    }
}

#[test]
fn concurrent_global_counters_sum_exactly() {
    // The shape every instrumented engine uses: fetch the handle once,
    // hammer it from scoped threads.
    let counter = htforge_obs::counter("test.concurrent_total");
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let counter = counter.clone();
            scope.spawn(move || {
                for _ in 0..25_000 {
                    counter.incr();
                }
            });
        }
    });
    assert_eq!(htforge_obs::counter("test.concurrent_total").get(), 100_000);
}

#[test]
fn run_report_from_global_recorder_validates() {
    let rec = Recorder::new();
    rec.enable();
    for phase in [
        "preprocess",
        "rare_extraction",
        "compat_graph",
        "clique_enumeration",
        "insertion",
        "validation",
    ] {
        rec.span(phase).finish();
    }
    rec.counter("podem.backtracks").add(3);
    let report =
        RunReport::from_recorder("pipeline", &rec).with_meta("circuit", Json::Str("c17".into()));
    htforge_obs::validate_str(&report.pretty()).unwrap();
    assert_eq!(report.span_names().len(), 6);
}

#[test]
fn sink_installed_mid_run_only_sees_later_events() {
    let rec = Recorder::new();
    rec.enable();
    rec.span("before").finish();
    let sink = InMemorySink::new();
    rec.add_sink(Box::new(sink.clone()));
    rec.span("after").finish();
    let spans = sink.spans();
    assert_eq!(spans.len(), 1);
    assert_eq!(spans[0].name, "after");
}

#[test]
fn disabled_spans_still_measure_time() {
    let rec = Recorder::new(); // disabled
    let sink = InMemorySink::new();
    rec.add_sink(Box::new(sink.clone()));
    let guard = rec.span("timed");
    std::thread::sleep(Duration::from_millis(5));
    let dur = guard.finish();
    assert!(dur >= Duration::from_millis(5));
    assert!(sink.spans().is_empty());
    assert!(rec.spans().is_empty());
}
